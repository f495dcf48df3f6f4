import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from lattice_embed.config import default_config, parse_config
from lattice_embed.energy import EnergyParams
from lattice_embed.errors import (
    MissingRequiredError,
    TypeMismatchError,
    UnknownKeyError,
    ValidationError,
)
from lattice_embed.estimator import LatticeEmbedder
from lattice_embed.solver import SolverConfig


def test_minimal_sphere_config_gets_documented_defaults():
    config = parse_config("manifold.kind = sphere\nmanifold.r = 1\n")
    assert config.get("energy", "alpha") == 1.0
    assert config.get("energy", "beta") == 1.0
    assert config.get("energy", "gamma") == 0.0
    assert config.get("energy", "lambda") == 0.0
    assert config.get("field", "tube_radius") == 0.1
    assert config.get("solver", "grad_tol") == 1e-6
    spec = config.manifold()
    assert spec.kind == "sphere"
    assert np.array_equal(spec.chart_fn(np.zeros(2)), [0.0, 0.0, 1.0])


def test_unset_radii_take_constructor_defaults():
    # manifold.R = 3 with no manifold.r: the torus constructor's minor radius
    spec = parse_config("manifold.kind = torus\nmanifold.R = 3\n").manifold()
    assert np.array_equal(spec.chart_fn(np.zeros(2)), [3.5, 0.0, 0.0])
    spec = parse_config("manifold.kind = torus\nmanifold.r = 0.25\n").manifold()
    assert np.array_equal(spec.chart_fn(np.zeros(2)), [2.25, 0.0, 0.0])
    spec = parse_config("manifold.kind = sphere\n").manifold()
    assert np.array_equal(spec.chart_fn(np.zeros(2)), [0.0, 0.0, 1.0])


def test_section_header_syntax():
    text = """
    [energy]
    alpha = 2.5
    # comment line
    beta = 0.5

    [manifold]
    kind = plane
    """
    config = parse_config(text)
    assert config.get("energy", "alpha") == 2.5
    assert config.get("energy", "beta") == 0.5


def test_missing_required_kind():
    with pytest.raises(MissingRequiredError) as err:
        parse_config("energy.alpha = 1.0\n")
    assert "manifold.kind" in str(err.value)


def test_unknown_key_named():
    # removed keys: configs that still set them must fail by name
    for line, key, section in (
        ("energy.alphaa = 1", "alphaa", "energy"),
        ("field.fd_step = 1e-4", "fd_step", "field"),
        ("field.mu = 2", "mu", "field"),
        ("quadrature.eps_parallel = 1e-6", "eps_parallel", "quadrature"),
        ("quadrature.resolution = 64", "resolution", "quadrature"),
        ("quadrature.seed = 7", "seed", "quadrature"),
        ("solver.step = 0.2", "step", "solver"),
        ("output.formats = csv", "formats", "output"),
    ):
        with pytest.raises(UnknownKeyError) as err:
            parse_config(f"manifold.kind = plane\n{line}\n")
        assert key in str(err.value) and section in str(err.value)


def test_unknown_section_named():
    with pytest.raises(UnknownKeyError):
        parse_config("manifold.kind = plane\nwidgets.count = 3\n")


def test_type_mismatch_named():
    with pytest.raises(TypeMismatchError) as err:
        parse_config("manifold.kind = plane\nsolver.max_iters = many\n")
    assert "solver.max_iters" in str(err.value)


@pytest.mark.parametrize(
    "text, key",
    [
        ("lattice.bounds = 0:inf, 0:1, 0:0", "lattice.bounds"),
        ("lattice.bounds = nan:1, 0:1, 0:0", "lattice.bounds"),
        ("manifold.bounds = 0:inf, 0:1", "manifold.bounds"),
    ],
)
def test_non_finite_bounds_named(text, key):
    with pytest.raises(TypeMismatchError, match=f"^{key}: .*not finite"):
        parse_config(f"manifold.kind = plane\n{text}\n")


@pytest.mark.parametrize(
    "line",
    [
        "energy.alpha = -1",
        "energy.beta = 0",
        "energy.gamma = -0.5",
        "energy.lambda = -1",
        "field.tube_radius = 0",
        "lattice.bounds = 1:0, 0:1, 0:0",
        "lattice.spacing = -0.25",
        "solver.max_iters = 0",
        "solver.grad_tol = 0",
    ],
    ids=lambda line: line.split(" =")[0],
)
def test_out_of_range_value_named(line):
    # the value types check the ranges; the message still names the key
    key = line.split(" =")[0]
    with pytest.raises(ValidationError, match=f"^{re.escape(key)}: "):
        parse_config(f"manifold.kind = plane\n{line}\n")


def test_curvature_term_on_a_curve_rejected_by_name():
    # a curve has no tangent 2-plane; gamma = 0 is still a valid curve run
    curve = (
        "manifold.kind = parametric\n"
        "manifold.chart = cos(u1); sin(u1); 0.2*u1\n"
        "manifold.bounds = 0:6\n"
    )
    with pytest.raises(ValidationError, match="^energy.gamma: "):
        parse_config(curve + "energy.gamma = 0.02\n")
    assert parse_config(curve).manifold().intrinsic_dim == 1


def test_roundtrip_serialization():
    text = """
    manifold.kind = torus
    manifold.R = 2.0
    manifold.r = 0.5
    lattice.bounds = -1:1, -1:1.0000001, -0.25:0.3000004
    lattice.spacing = 0.5
    energy.gamma = 0.125
    solver.max_iters = 42
    """
    config = parse_config(text)
    again = parse_config(config.to_text())
    assert config == again
    assert config.digest() == again.digest()
    assert "lattice.bounds = -1:1, -1:1.0000001, -0.25:0.3000004\n" in config.to_text()


_CHART = "manifold.kind = parametric\nmanifold.chart = u1; u2; 0\n"


@pytest.mark.parametrize(
    "head, long, short",
    [
        ("manifold.kind = plane\n", "lattice.bounds = 0:0.3000004, 0:1, 0:0",
         "lattice.bounds = 0:0.3, 0:1, 0:0"),
        ("manifold.kind = plane\n", "lattice.bounds = 2.3000001:2.7, 0:1, 0:0",
         "lattice.bounds = 2.3:2.7, 0:1, 0:0"),
        (_CHART, "manifold.bounds = -1:1.0000001, -1:1", "manifold.bounds = -1:1, -1:1"),
    ],
)
def test_digest_keeps_every_bounds_digit(head, long, short):
    # bounds that differ past the 6th significant digit embed different
    # points, so they must not share a digest
    a = parse_config(f"{head}{long}\n")
    b = parse_config(f"{head}{short}\n")
    assert a != b
    assert a.digest() != b.digest()
    assert parse_config(a.to_text()) == a


@pytest.mark.parametrize("chart", ["u1;u2;0", "u1 ; u2 ; 0 ;", "  u1;\tu2;  0"])
def test_digest_follows_the_chart_not_its_spelling(chart):
    # each spelling compiles the same components, so it is the same run
    bounds = "manifold.bounds = -1:1, -1:1\n"
    canonical = parse_config(f"{_CHART}{bounds}")
    text = f"manifold.kind = parametric\nmanifold.chart = {chart}\n{bounds}"
    config = parse_config(text)
    assert config == canonical
    assert config.digest() == canonical.digest() == "35ea764626a5d811"
    assert config.get("manifold", "chart") == "u1; u2; 0"
    assert config.manifold().chart_fn is canonical.manifold().chart_fn
    assert parse_config(config.to_text()) == config


def test_digest_changes_with_values():
    a = parse_config("manifold.kind = plane\n")
    b = parse_config("manifold.kind = plane\nenergy.alpha = 2\n")
    assert a.digest() != b.digest()


def test_digest_ignores_output_directory():
    # where the results go changes none of them
    a = parse_config("manifold.kind = plane\n")
    b = parse_config("manifold.kind = plane\noutput.directory = elsewhere\n")
    assert a.to_text() != b.to_text()
    assert a.digest() == b.digest()


def test_parametric_chart_from_config():
    text = (
        "manifold.kind = parametric\n"
        "manifold.chart = u1; u2; u1^2 - u2^2\n"
        "manifold.bounds = -1:1, -1:1\n"
    )
    spec = parse_config(text).manifold()
    assert spec.ambient_dim == 3 and spec.intrinsic_dim == 2
    import numpy as np

    assert np.allclose(spec.chart_fn(np.array([0.5, 0.25])), [0.5, 0.25, 0.1875])


def test_parametric_requires_chart_and_bounds():
    with pytest.raises(MissingRequiredError):
        parse_config("manifold.kind = parametric\n")


def test_bad_parametric_chart_is_config_error():
    text = (
        "manifold.kind = parametric\n"
        "manifold.chart = u1; u2; u9\n"
        "manifold.bounds = -1:1, -1:1\n"
    )
    with pytest.raises(ValidationError):
        parse_config(text)


@pytest.mark.parametrize(
    "manifold",
    [
        "manifold.kind = torus\nmanifold.r = 3\n",
        "manifold.kind = parametric\nmanifold.chart = u1; u2; 0\n"
        "manifold.bounds = 1:0, -1:1\n",
    ],
    ids=["torus-r-above-R", "parametric-lower-above-upper"],
)
def test_bad_manifold_values_are_config_errors(manifold):
    with pytest.raises(ValidationError) as err:
        parse_config(manifold)
    assert str(err.value).startswith("manifold: ")


@pytest.mark.parametrize(
    "manifold, key",
    [
        ("manifold.kind = sphere\nmanifold.R = 5\n", "R"),
        ("manifold.kind = plane\nmanifold.r = 5\n", "r"),
        ("manifold.kind = plane\nmanifold.chart = u1\n", "chart"),
        ("manifold.kind = torus\nmanifold.bounds = 0:1, 0:1\n", "bounds"),
        (
            "manifold.kind = parametric\nmanifold.chart = u1; u2; 0\n"
            "manifold.bounds = -1:1, -1:1\nmanifold.r = 1\n",
            "r",
        ),
    ],
    ids=["sphere-R", "plane-r", "plane-chart", "torus-bounds", "parametric-r"],
)
def test_keys_the_kind_does_not_read_are_config_errors(manifold, key):
    # an ignored key would still change the digest of an identical run
    with pytest.raises(ValidationError, match=f"^manifold\\.{key}: not read"):
        parse_config(manifold)


def test_library_objects_built_once_per_config():
    config = parse_config("manifold.kind = torus\n")
    for build in (config.manifold, config.energy_params, config.lattice, config.solver):
        assert build() is build()
    assert config == parse_config("manifold.kind = torus\n")


def test_defaults_are_the_value_types_own():
    config = parse_config("manifold.kind = plane\n")
    assert config.energy_params() == EnergyParams()
    assert config.solver() == SolverConfig()
    estimator = LatticeEmbedder().get_params()
    for name, value in {**asdict(EnergyParams()), **asdict(SolverConfig())}.items():
        assert estimator[name] == value


def test_default_config_helper():
    config = default_config()
    assert config.get("manifold", "kind") == "plane"
    assert config.lattice().axis_counts == (5, 5, 1)
    assert config.solver().grad_tol == 1e-6
    assert config.energy_params().tube_radius == 0.1


def test_readme_ini_blocks_parse():
    # a key deleted from the schema must not linger in the documented configs
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```ini\n(.*?)```", readme.read_text(), flags=re.S)
    assert len(blocks) >= 2
    for block in blocks:
        parse_config(block)


def test_readme_python_blocks_run():
    # every documented snippet runs as written, each in a fresh namespace
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), flags=re.S)
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
