import json
import math

import numpy as np
import pytest

from lattice_embed import cli, expressions, geometry
from lattice_embed.expressions import compile_partials

PLANE_SLAB = """
manifold.kind = plane
lattice.bounds = 0:0.4, 0:0.4, -0.1:0.1
lattice.spacing = 0.1
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_embed_writes_points_and_report(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, PLANE_SLAB + f"output.directory = {out}\n")
    status = cli.main(["embed", cfg])
    assert status == 0
    points = (out / "points.csv").read_text().splitlines()
    assert points[0].startswith("# digest: ")
    assert points[1] == (
        "q1,q2,q3,zeta1,zeta2,zeta3,residual_norm,energy,iterations,converged"
    )
    assert len(points) == 2 + 75
    assert all(line.endswith(",true") for line in points[2:])
    report = (out / "report.jsonl").read_text().splitlines()
    assert '"record": "summary"' in report[0]
    assert len(report) == 1 + 75


def test_embed_byte_identical_runs(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, PLANE_SLAB + f"output.directory = {out}\n")
    assert cli.main(["embed", cfg]) == 0
    first = (out / "points.csv").read_bytes(), (out / "report.jsonl").read_bytes()
    assert cli.main(["embed", cfg]) == 0
    second = (out / "points.csv").read_bytes(), (out / "report.jsonl").read_bytes()
    assert first == second


def test_curvature_grid_sphere_constant(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        f"manifold.kind = sphere\nmanifold.r = 2\noutput.directory = {out}\n",
    )
    status = cli.main(["curvature", cfg, "--grid", "8"])
    assert status == 0
    lines = (out / "curvature.csv").read_text().splitlines()
    assert lines[1] == "u1,u2,K,C"
    for line in lines[2:]:
        fields = [float(v) for v in line.split(",")]
        assert abs(fields[2] - 0.25) <= 1e-3
        assert abs(fields[3] - 0.25 * (2 * math.pi) ** 2) <= 0.01 * (2 * math.pi) ** 2
    assert len(lines) == 2 + 64


GRAPH_CHART = """
manifold.kind = parametric
manifold.chart = u1; u2; 0.3*sin(2*u1)*cos(u2)
manifold.bounds = -1:1, -1:1
"""


def graph_curvature(x, y):
    # K of the graph z = f(x, y) is (f_xx f_yy - f_xy^2) / (1 + f_x^2 + f_y^2)^2
    fx = 0.6 * math.cos(2 * x) * math.cos(y)
    fy = -0.3 * math.sin(2 * x) * math.sin(y)
    fxx = -1.2 * math.sin(2 * x) * math.cos(y)
    fyy = -0.3 * math.sin(2 * x) * math.cos(y)
    fxy = -0.6 * math.cos(2 * x) * math.sin(y)
    return (fxx * fyy - fxy**2) / (1 + fx**2 + fy**2) ** 2


def test_curvature_grid_graph_chart_closed_form(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, GRAPH_CHART + f"output.directory = {out}\n")
    assert cli.main(["curvature", cfg, "--grid", "4"]) == 0
    lines = (out / "curvature.csv").read_text().splitlines()
    assert lines[1] == "u1,u2,K,C"
    assert len(lines) == 2 + 16
    for line in lines[2:]:
        x, y, k, c = (float(v) for v in line.split(","))
        expected = graph_curvature(x, y)
        assert abs(k - expected) <= 1e-12, (x, y, k, expected)
        assert abs(c - (2 * math.pi) ** 2 * expected) <= 1e-12 * (2 * math.pi) ** 2


def test_curvature_three_dim_grid_is_closed_form(tmp_path, count_calls):
    # unit 3-sphere: every sectional curvature is 1, so K = 1 and
    # C = |S^2|^2 = 16 pi^2 at every grid point, from the Gauss equation
    # with no finite-difference Riemann tensor
    tensors = count_calls(geometry.curvature_tensor)
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        "manifold.kind = parametric\n"
        "manifold.chart = cos(u1); sin(u1)*cos(u2); sin(u1)*sin(u2)*cos(u3); "
        "sin(u1)*sin(u2)*sin(u3)\n"
        "manifold.bounds = 0.3:2.8, 0.3:2.8, 0:6\n"
        f"output.directory = {out}\n",
    )
    assert cli.main(["curvature", cfg, "--grid", "2"]) == 0
    lines = (out / "curvature.csv").read_text().splitlines()
    assert lines[1] == "u1,u2,u3,K,C"
    assert len(lines) == 2 + 8
    for line in lines[2:]:
        k, c = (float(v) for v in line.split(",")[3:])
        assert abs(k - 1.0) <= 1e-12
        assert abs(c - 16 * math.pi**2) <= 1e-12 * 16 * math.pi**2
    assert tensors == []


def test_curvature_chart_grid_is_one_batched_gauss_call(
    tmp_path, count_calls, monkeypatch
):
    # a chart surface builds no finite-difference Riemann tensor: its grid
    # evaluates the second partials of all 16 points in one call
    tensors = count_calls(geometry.curvature_tensor)
    shapes = []

    def recording(*args):
        partials = compile_partials(*args)

        def recorded(u):
            shapes.append(np.shape(u))
            return partials(u)

        return recorded

    monkeypatch.setattr(geometry, "compile_partials", recording)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, GRAPH_CHART + f"output.directory = {out}\n")
    assert cli.main(["curvature", cfg, "--grid", "4"]) == 0
    assert len(tensors) == 0
    assert shapes == [(16, 2)]


@pytest.mark.parametrize("command", ["embed", "curvature", "energy"])
def test_each_command_compiles_the_chart_once(tmp_path, count_calls, command):
    # the spec parse_config validates is the one the command runs on
    compiles = count_calls(expressions.compile_chart)
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        GRAPH_CHART
        + "lattice.bounds = 0:0, 0:0, 0:0\n"
        + f"output.directory = {out}\n",
    )
    probes = tmp_path / "probes.csv"
    probes.write_text("0.1 0.2 0.05\n")
    extra = {"curvature": ["--grid", "2"], "energy": ["--points", str(probes)]}
    assert cli.main([command, cfg] + extra.get(command, [])) == 0
    assert len(compiles) == 1


def test_energy_probe_command(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"manifold.kind = plane\noutput.directory = {out}\n")
    probes = tmp_path / "probes.csv"
    probes.write_text("# probe points\n1.0, 2.0, 3.0\n0.5 0.5 0.0\n")
    status = cli.main(["energy", cfg, "--points", str(probes)])
    assert status == 0
    lines = (out / "energy.csv").read_text().splitlines()
    assert lines[1] == "q1,q2,q3,energy,grad1,grad2,grad3"
    first = [float(v) for v in lines[2].split(",")]
    assert first[3] == pytest.approx(4.5)  # (1/2)*3^2 normal offset
    assert first[6] == pytest.approx(3.0)
    second = [float(v) for v in lines[3].split(",")]
    assert second[3] == 0.0


@pytest.mark.parametrize(
    "probe, reason",
    [
        ("1.0 2.0 3.0\n2.5 0\n", "2 values, expected 3"),
        ("1.0 2.0 3.0\n2.5 0 abc\n", "not a finite number"),
        ("1.0 2.0 3.0\n2.5 0 0.1 4\n", "4 values, expected 3"),
        ("1.0 2.0 3.0\n2.5 0 nan\n", "not a finite number"),
    ],
    ids=["too-few-columns", "non-numeric", "ragged-rows", "non-finite"],
)
def test_energy_bad_points_file_reports_line(tmp_path, capsys, probe, reason):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"manifold.kind = plane\noutput.directory = {out}\n")
    probes = tmp_path / "probes.csv"
    probes.write_text("# probe points\n" + probe)
    assert cli.main(["energy", cfg, "--points", str(probes)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {probes} line 3: {reason}\n"
    assert not (out / "energy.csv").exists()


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_curvature_rejects_grid_below_one(tmp_path, capsys, grid):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"manifold.kind = sphere\noutput.directory = {out}\n")
    assert cli.main(["curvature", cfg, "--grid", grid]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --grid") and "Traceback" not in err
    assert not (out / "curvature.csv").exists()


def test_validate_command_passes():
    assert cli.main(["validate"]) == 0


def test_embed_unconverged_exit_code(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        PLANE_SLAB + f"solver.max_iters = 1\noutput.directory = {out}\n",
    )
    assert cli.main(["embed", cfg]) == 1


def test_config_error_exit_code(tmp_path):
    cfg = write_config(tmp_path, "manifold.kind = plane\nenergy.alpha = -2\n")
    assert cli.main(["embed", cfg]) == 2


@pytest.mark.parametrize(
    "text",
    [
        "manifold.kind = torus\nmanifold.r = 3\n",
        "manifold.kind = parametric\nmanifold.chart = u1; u2; 0\n"
        "manifold.bounds = 1:0, -1:1\n",
        "manifold.kind = torus\nlattice.bounds = 0:1, 0:1\n",
        "manifold.kind = sphere\nmanifold.R = 5\n",
        "manifold.kind = parametric\nmanifold.chart = u1; u2; "
        + "+".join(["u1"] * 3000)
        + "\nmanifold.bounds = -1:1, -1:1\n",
    ],
    ids=[
        "torus-r-above-R",
        "parametric-lower-above-upper",
        "lattice-axes",
        "sphere-with-R",
        "chart-nested-too-deeply",
    ],
)
def test_bad_manifold_or_lattice_exit_code(tmp_path, capsys, text):
    cfg = write_config(tmp_path, text + f"output.directory = {tmp_path / 'out'}\n")
    assert cli.main(["embed", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "Traceback" not in err
    if "lattice.bounds" in text:
        assert "lattice.bounds" in err
    if "manifold.R" in text:
        assert "manifold.R" in err


def test_lattice_axes_checked_only_by_embed(tmp_path):
    # curvature reads no lattice, so the default 3-axis bounds do not bind it
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        "manifold.kind = parametric\n"
        "manifold.chart = u1; u2; u3; u1*u2\n"
        "manifold.bounds = -1:1, -1:1, -1:1\n"
        f"output.directory = {out}\n",
    )
    assert cli.main(["curvature", cfg, "--grid", "2"]) == 0
    assert cli.main(["embed", cfg]) == 2


def test_unknown_key_exit_code(tmp_path):
    cfg = write_config(tmp_path, "manifold.kind = plane\nnot.a = key\n")
    assert cli.main(["embed", cfg]) == 2


def test_missing_points_file_exit_code(tmp_path):
    cfg = write_config(tmp_path, "manifold.kind = plane\n")
    assert cli.main(["energy", cfg, "--points", str(tmp_path / "nope.csv")]) == 1


def test_skipped_lattice_reports_zero_attempted(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        "manifold.kind = plane\n"
        "lattice.bounds = 0:0.4, 0:0.4, 0.5:0.5\n"
        "lattice.spacing = 0.1\n"
        f"output.directory = {out}\n",
    )
    status = cli.main(["embed", cfg])
    assert status == 0
    captured = capsys.readouterr()
    assert "0 attempted" in captured.out.replace("embed: ", "").replace(
        "0 attempted,", "0 attempted,"
    ) or "0 attempted" in captured.out
    report = (out / "report.jsonl").read_text().splitlines()
    assert '"attempted": 0' in report[0]
    assert '"skipped": 25' in report[0]


HELIX = """
manifold.kind = parametric
manifold.chart = cos(u1); sin(u1); 0.2*u1
manifold.bounds = 0:6
"""


def test_curve_curvature_is_an_error(tmp_path, capsys):
    # a curve has no tangent 2-plane: exit 1 and no NaN rows
    out = tmp_path / "out"
    cfg = write_config(tmp_path, HELIX + f"output.directory = {out}\n")
    assert cli.main(["curvature", cfg, "--grid", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (out / "curvature.csv").exists()


def test_curve_with_curvature_term_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, HELIX + "energy.gamma = 0.02\n")
    assert cli.main(["embed", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: energy.gamma")


POLE_LATTICE = (
    "manifold.kind = parametric\n"
    "manifold.chart = sin(u1)*cos(u2); sin(u1)*sin(u2); cos(u1)\n"
    "manifold.bounds = 0:3.14159, 0:6.28318\n"
    "energy.gamma = 0.02\n"
    "lattice.bounds = -0.1:0.1, 0:0, 1.05:1.05\n"
    "lattice.spacing = 0.1\n"
    "solver.max_iters = 5\n"
)


def test_embed_reports_points_at_a_singular_chart_metric(tmp_path, capsys):
    # the lattice point on the polar axis projects onto the pole u1 = 0 of a
    # colatitude chart, where the curvature term has no value: that point
    # is an error, its neighbours descend, and the files are written
    out = tmp_path / "out"
    cfg = write_config(tmp_path, POLE_LATTICE + f"output.directory = {out}\n")
    assert cli.main(["embed", cfg]) == 1
    assert "Traceback" not in capsys.readouterr().err
    points = (out / "points.csv").read_text().splitlines()[2:]
    assert [line.split(",")[-2:] for line in points] == [
        ["5", "false"],
        ["0", "false"],
        ["5", "false"],
    ]
    assert len((out / "report.jsonl").read_text().splitlines()) == 1 + 3


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_report_is_strict_json_and_names_point_errors(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, POLE_LATTICE + f"output.directory = {out}\n")
    assert cli.main(["embed", cfg]) == 1
    lines = (out / "report.jsonl").read_text().splitlines()
    records = [json.loads(line, parse_constant=_reject_constant) for line in lines]
    errored = records[2]
    assert errored["residual_norm"] is None and errored["energy"] is None
    assert errored["error"].startswith("point 1: RankDeficientError: ")
    for record in (records[1], records[3]):
        # points that descended keep their values and carry no error field
        assert "error" not in record
        assert math.isfinite(record["residual_norm"]) and math.isfinite(record["energy"])
