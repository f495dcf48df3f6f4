"""Benchmark of lattice-embed: the session a user runs on one config.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from src/.
One session is `lattice-embed embed`, `lattice-embed curvature --grid 16`
(both through lattice_embed.cli.main, in process) and the library map calls
on the embedding read back from points.csv.  The loop is closed and runs in
one process, with LATTICE_EMBED_THREADS pinned to the usable core count.

--trace 0 interleaves repetitions of the three phases for --seconds and
reports the end-to-end metrics over them (see timed_run).  --trace 1 runs one
untraced session, then one with every public function on the path wrapped by
spans.Tracer, and reports the per-layer metrics.  Both modes check every output against closed-form
oracles that do not call the library, and the last stdout line is the JSON
result.  Work files go to perfbench/.work/.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

from spans import SpanTable, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    CURVATURE_ATOL,
    CURVATURE_GRID,
    FOUR_PI2,
    GRAD_TOL,
    TUBE_RADIUS,
    WORKLOADS,
    Inputs,
    Workload,
    interpolate,
    lattice_counts,
    lattice_points,
    make_inputs,
)

SETUP_REPEATS = 5  # at least this many setup probes per run
MIN_EMBEDS = 2  # so that every run compares two embeds byte for byte
EMBED_SHARE = 0.3  # share of --seconds planned for embeds, beyond MIN_EMBEDS
SLICE_SECONDS = 0.1  # least time per round for each of curvature and map
MIN_GAP_SECONDS = 2.0  # least round time after each embed
WINDOW_SECONDS = 2.0  # repetition time per window of the fastest-per-window estimator
EMBED_FILES = ("points.csv", "report.jsonl")
CURVATURE_FILES = ("curvature.csv",)
MAX_ITERS = 500  # the solver.max_iters default
PHASES = ("bench.setup", "bench.embed", "bench.curvature", "bench.map")

# Runs in a fresh interpreter: import, parse, manifold, energy params, rule.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from lattice_embed import parse_config
config = parse_config(open(sys.argv[2]).read())
spec = config.manifold()
config.energy_params().rule_for(spec)
print(repr(time.perf_counter() - t0))
"""


class Checks:
    """Operation counts of one session and every wrong output found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.failures: dict[str, int] = {}

    def expect(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
        return ok

    def fail(self, kind: str) -> None:
        self.failed += 1
        self.failures[kind] = self.failures.get(kind, 0) + 1


def environment(workload: Workload, seed: int, workers: int, inputs: Inputs) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workers": workers,
        "config": inputs.config_text,
    }


def run_command(cli, argv: list[str], out_dir: Path, files) -> tuple:
    """One CLI command in process: (seconds, exit code, stdout, file bytes)."""
    for name in files:
        (out_dir / name).unlink(missing_ok=True)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
    written = {}
    for name in files:
        path = out_dir / name
        written[name] = path.read_bytes() if path.exists() else None
    return seconds, code, buffer.getvalue(), written


def run_map(lib, inputs: Inputs, points: np.ndarray, images: np.ndarray) -> tuple:
    """The map phase: from_pairs, injectivity and inverse, extensions, Jacobians.

    A query that raises is kept as its exception: it is a failed operation,
    not a reason to stop the session.
    """
    lattice = lib.lattice
    t0 = time.perf_counter()
    emap = lattice.EmbeddingMap.from_pairs(points, images)
    spec = lattice.LatticeSpec(bounds=inputs.bounds, spacing=inputs.spacing)
    tol = injectivity_tol(inputs)
    try:
        injective = lattice.check_injective_invert(emap, tol)
    except Exception as exc:  # noqa: BLE001 - any raise is a failed query
        injective = exc
    extended = []
    for x in inputs.queries:
        try:
            extended.append(lattice.extend_map(emap, spec, x))
        except Exception as exc:  # noqa: BLE001
            extended.append(exc)
    jacobians = []
    for x in inputs.jacobian_points:
        try:
            jacobians.append(
                lattice.jacobian_of_extension(emap, spec, x, inputs.jacobian_step)
            )
        except Exception as exc:  # noqa: BLE001
            jacobians.append(exc)
    seconds = time.perf_counter() - t0
    return seconds, emap, (injective, extended, jacobians)


def results_key(results) -> bytes:
    """Bytes that change when any map result changes."""
    injective, extended, jacobians = results
    parts = [repr(injective).encode() if isinstance(injective, Exception)
             else repr((injective.injective, injective.min_pair_distance,
                        injective.colliding_pair)).encode()]
    for value in (*extended, *jacobians):
        parts.append(repr(value).encode() if isinstance(value, Exception)
                     else np.asarray(value).tobytes())
    return b"|".join(parts)


def injectivity_tol(inputs: Inputs) -> float:
    return 1e-9 * inputs.spacing


def read_table(data: bytes | None, checks: Checks, name: str):
    """(header, rows) of a digest-headed CSV the CLI wrote, or None."""
    if not checks.expect(data is not None, f"{name} was not written"):
        return None
    lines = data.decode().splitlines()
    ok = len(lines) >= 2 and lines[0].startswith("# digest: ")
    if not checks.expect(ok and len(lines[0]) == 26, f"{name}: bad digest line"):
        return None
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


def check_embed(workload, inputs, code, stdout, files, checks: Checks):
    """Check one embed against the oracles; returns (points, images, good).

    good counts converged in-support points whose image passes its oracle.
    A point that does not converge is a failed operation; a wrong output
    (an image off the manifold, inconsistent records) also makes the run
    incorrect.
    """
    table = read_table(files["points.csv"], checks, "points.csv")
    report = files["report.jsonl"]
    if table is None or not checks.expect(report is not None, "no report.jsonl"):
        return None, None, 0
    header, rows = table
    checks.expect(
        header
        == ["q1", "q2", "q3", "zeta1", "zeta2", "zeta3", "residual_norm",
            "energy", "iterations", "converged"],
        "points.csv: unexpected header",
    )
    expected = lattice_points(inputs.bounds, inputs.spacing)
    values = np.array([[float(v) for v in row[:8]] for row in rows])
    if not checks.expect(values.shape == (len(expected), 8), "points.csv: wrong row count"):
        return None, None, 0
    points, images = values[:, :3], values[:, 3:6]
    checks.expect(
        np.allclose(points, expected, rtol=0, atol=1e-12),
        "points.csv rows are not the lattice in order",
    )
    records = [json.loads(line) for line in report.decode().splitlines()]
    summary, point_records = records[0], records[1:]
    checks.expect(len(point_records) == len(rows), "report.jsonl: wrong record count")

    attempted = skipped = converged = good = 0
    for index, (row, record) in enumerate(zip(rows, point_records)):
        q, z = points[index], images[index]
        residual, iterations = values[index, 6], int(row[8])
        is_converged = row[9] == "true"
        checks.expect(
            record["index"] == index
            and record["converged"] == is_converged
            and record["iterations"] == iterations,
            f"point {index}: report.jsonl disagrees with points.csv",
        )
        distance = workload.distance(q)
        if abs(distance - 2.0 * TUBE_RADIUS) > 1e-6:
            checks.expect(
                record["skipped"] == (distance > 2.0 * TUBE_RADIUS),
                f"point {index}: skipped={record['skipped']} at distance {distance!r}",
            )
        if record["skipped"]:
            skipped += 1
            checks.expect(
                np.array_equal(z, q) and not is_converged,
                f"point {index}: skipped point was moved or marked converged",
            )
            continue
        attempted += 1
        checks.expect(
            is_converged == (residual <= GRAD_TOL),
            f"point {index}: converged={is_converged} with residual {residual!r}",
        )
        if not is_converged:
            if math.isnan(residual):
                checks.fail("point_error")
            elif iterations >= MAX_ITERS:
                checks.fail("point_max_iters")
            else:
                checks.fail("point_stalled")
            continue
        converged += 1
        gap, allowed = workload.image_gap(z)
        on_manifold = gap <= allowed
        if on_manifold and workload.ray_check:
            ray = z / np.linalg.norm(z) - q / np.linalg.norm(q)
            on_manifold = float(np.linalg.norm(ray)) <= 1e-9
        if checks.expect(on_manifold, f"point {index}: image {z} fails its oracle"):
            good += 1
        else:
            checks.fail("point_oracle")
    checks.attempted += attempted
    checks.expect(
        (summary["attempted"], summary["skipped"], summary["converged"])
        == (attempted, skipped, converged),
        "report.jsonl summary disagrees with the point records",
    )
    checks.expect(
        f"embed: {attempted} attempted, {skipped} skipped, {converged} converged"
        in stdout,
        "embed summary line disagrees with points.csv",
    )
    checks.expect(code == (0 if converged == attempted else 1), f"embed exit code {code}")
    return points, images, good


def check_curvature(workload, code, files, checks: Checks) -> None:
    table = read_table(files["curvature.csv"], checks, "curvature.csv")
    checks.expect(code == 0, f"curvature exit code {code}")
    if table is None:
        return
    header, rows = table
    checks.expect(header == ["u1", "u2", "K", "C"], "curvature.csv: unexpected header")
    axes = [
        lo + (np.arange(CURVATURE_GRID) + 0.5) * (hi - lo) / CURVATURE_GRID
        for lo, hi in workload.param_bounds
    ]
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    checks.expect(len(rows) == len(grid), "curvature.csv: wrong row count")
    for row, u in zip(rows, grid):
        u1, u2, k, c = (float(v) for v in row)
        checks.attempted += 1
        oracle = workload.curvature(u1, u2)
        ok = (
            abs(u1 - u[0]) <= 1e-12
            and abs(u2 - u[1]) <= 1e-12
            and abs(k - oracle) <= CURVATURE_ATOL
            and abs(c - FOUR_PI2 * oracle) <= FOUR_PI2 * CURVATURE_ATOL
        )
        if not checks.expect(ok, f"curvature at {(u1, u2)}: K={k!r} C={c!r}, K oracle {oracle!r}"):
            checks.fail("curvature")


def check_map(inputs: Inputs, points, images, results, checks: Checks) -> None:
    injective, extended, jacobians = results
    # closed-form reference: the smallest distance between two images
    nearest = math.inf
    for i in range(0, len(images), 256):
        diff = images[i : i + 256, None, :] - images[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        dist[np.arange(dist.shape[0]), np.arange(i, i + dist.shape[0])] = np.inf
        nearest = min(nearest, float(dist.min()))
    checks.attempted += 1
    if isinstance(injective, Exception):
        checks.fail("map_error")
    else:
        tol = injectivity_tol(inputs)
        ok = injective.injective == (nearest > tol) and (
            not injective.injective or injective.min_pair_distance == nearest
        )
        if ok and injective.injective:
            ok = all(
                injective.inverse.get(tuple(z)) == tuple(q) for q, z in zip(points, images)
            )
        if not checks.expect(ok, "check_injective_invert disagrees with the pairwise oracle"):
            checks.fail("map_oracle")

    counts = lattice_counts(inputs.bounds, inputs.spacing)
    grid = images.reshape(tuple(counts) + (3,))
    lo = inputs.bounds[:, 0]

    def reference(x):
        return interpolate(grid, lo, inputs.spacing, x)

    h = inputs.jacobian_step
    eye = np.eye(3)
    cases = [(x, value, reference(x), 1e-12) for x, value in zip(inputs.queries, extended)]
    cases += [
        (
            x,
            value,
            np.stack(
                [(reference(x + h * e) - reference(x - h * e)) / (2.0 * h) for e in eye],
                axis=-1,
            ),
            1e-9,
        )
        for x, value in zip(inputs.jacobian_points, jacobians)
    ]
    for x, value, ref, tol in cases:
        checks.attempted += 1
        if isinstance(value, Exception) or not np.all(np.isfinite(value)):
            checks.expect(False, f"map query at {x}: {value!r}")
            checks.fail("map_error")
        elif not checks.expect(
            np.allclose(value, ref, rtol=0, atol=tol), f"map query at {x} misses its oracle"
        ):
            checks.fail("map_oracle")


def setup_time(config_path: Path) -> float:
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), str(config_path)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def import_library():
    sys.path.insert(0, str(SRC))
    import lattice_embed
    import lattice_embed.cli
    import lattice_embed.errors
    import lattice_embed.lattice

    if Path(lattice_embed.__file__).resolve().parent != SRC / "lattice_embed":
        raise RuntimeError(f"imported lattice_embed from {lattice_embed.__file__}")
    return lattice_embed


def timed_run(workload, inputs, config_path, out_dir, seconds, checks):
    """Embeds, curvature and map calls interleaved over --seconds.

    The first embed gives its duration E.  The run then plans
    max(MIN_EMBEDS, EMBED_SHARE * seconds / E) embeds at evenly spaced times
    and fills the time between them with rounds.  A round is SLICE_SECONDS
    of curvature repetitions (at least one) followed by SLICE_SECONDS of map
    repetitions (at least one).  Setup probes are spread over the run the
    same way, so every metric samples the whole run.

    On a shared host the speed of the same code changes from one second to
    the next and drifts over minutes.  embed_s and setup_s are medians;
    curvature_s and map_s come from fastest_per_window.
    """
    lib = import_library()
    cfg = str(config_path)
    curvature_argv = ["curvature", cfg, "--grid", str(CURVATURE_GRID)]
    times = {"setup": [], "embed": [], "curvature": [], "map": []}
    first = {}
    keys = set()
    points = images = None
    good = 0

    def embed():
        nonlocal points, images, good
        took, code, stdout, files = run_command(lib.cli, ["embed", cfg], out_dir, EMBED_FILES)
        times["embed"].append(took)
        if "embed" not in first:
            first["embed"] = files
            points, images, good = check_embed(workload, inputs, code, stdout, files, checks)
        else:
            checks.expect(files == first["embed"], "embed repetitions wrote different files")

    def curvature():
        took, code, _, files = run_command(lib.cli, curvature_argv, out_dir, CURVATURE_FILES)
        if "curvature" not in first:
            first["curvature"] = files
            check_curvature(workload, code, files, checks)
        else:
            checks.expect(files == first["curvature"],
                          "curvature repetitions wrote different files")
        return took

    def map_phase():
        took, _, results = run_map(lib, inputs, points, images)
        if not keys:
            check_map(inputs, points, images, results, checks)
        keys.add(results_key(results))
        return took

    def run_slice(phase, step):
        spent = 0.0
        while spent < SLICE_SECONDS:
            took = step()
            times[phase].append(took)
            spent += took

    start = time.perf_counter()
    times["setup"].append(setup_time(config_path))
    embed()
    n_embeds = max(MIN_EMBEDS, int(EMBED_SHARE * seconds / times["embed"][0]))
    embed_due = [start + k * seconds / n_embeds for k in range(1, n_embeds)]
    setup_due = [start + k * seconds / SETUP_REPEATS for k in range(1, SETUP_REPEATS)]
    gap = 0.0  # round time since the last embed
    while True:
        began = time.perf_counter()
        run_slice("curvature", curvature)
        if points is not None:
            run_slice("map", map_phase)
        now = time.perf_counter()
        gap += now - began
        if setup_due and now >= setup_due[0]:
            setup_due.pop(0)
            times["setup"].append(setup_time(config_path))
        if embed_due and now >= embed_due[0] and gap >= MIN_GAP_SECONDS:
            embed_due.pop(0)
            embed()
            gap = 0.0
            continue
        if not embed_due and gap >= MIN_GAP_SECONDS and now - start + (now - began) > seconds:
            break
    checks.expect(len(keys) <= 1, "map repetitions gave different results")
    while len(times["setup"]) < SETUP_REPEATS:
        times["setup"].append(setup_time(config_path))
    (out_dir.parent / "times.json").write_text(json.dumps(times) + "\n")
    embed_s = statistics.median(times["embed"])
    metrics = {
        "setup_s": (statistics.median(times["setup"]), "s"),
        "embed_s": (embed_s, "s"),
        "points_per_s": (good / embed_s, "1/s"),
        "curvature_s": (fastest_per_window(times["curvature"]), "s"),
        "map_s": (fastest_per_window(times["map"]) if times["map"] else 0.0, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {phase: len(t) for phase, t in times.items()}


def fastest_per_window(reps: list[float]) -> float:
    """Median over windows of each window's fastest repetition.

    A window is the next run of consecutive repetitions that adds up to
    WINDOW_SECONDS; a shorter tail joins the last window.  Short repetitions
    fill a window with many, and its fastest one skips the moments the host
    was slow.  Repetitions longer than a window stand alone, and the median
    over them is steadier than any single one.
    """
    windows: list[list[float]] = [[]]
    spent = 0.0
    for took in reps:
        if spent >= WINDOW_SECONDS:
            windows.append([])
            spent = 0.0
        windows[-1].append(took)
        spent += took
    if len(windows) > 1 and spent < WINDOW_SECONDS:
        tail = windows.pop()
        windows[-1] += tail
    return statistics.median(min(w) for w in windows)


def traced_run(workload, inputs, config_path, out_dir, workers, run_dir, checks):
    lib = import_library()
    cfg = str(config_path)
    curvature_argv = ["curvature", cfg, "--grid", str(CURVATURE_GRID)]
    # untraced reference session: the overhead base and the bytes to match
    plain_s, _, _, plain_embed = run_command(lib.cli, ["embed", cfg], out_dir, EMBED_FILES)
    _, _, _, plain_curvature = run_command(lib.cli, curvature_argv, out_dir, CURVATURE_FILES)

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            for _ in range(SETUP_REPEATS):
                config = lib.parse_config(inputs.config_text)
                config.energy_params().rule_for(config.manifold())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with tracer.span("bench.embed"):
                _, code, stdout, embed_files = run_command(
                    lib.cli, ["embed", cfg], out_dir, EMBED_FILES
                )
        with tracer.span("bench.curvature"):
            _, curvature_code, _, curvature_files = run_command(
                lib.cli, curvature_argv, out_dir, CURVATURE_FILES
            )
        points, images, _ = check_embed(workload, inputs, code, stdout, embed_files, checks)
        check_curvature(workload, curvature_code, curvature_files, checks)
        emap = None
        if points is not None:
            with tracer.span("bench.map"):
                _, emap, results = run_map(lib, inputs, points, images)
            check_map(inputs, points, images, results, checks)
    finally:
        tracer.uninstall()
    checks.expect(embed_files == plain_embed, "traced embed wrote different files")
    checks.expect(curvature_files == plain_curvature, "traced curvature wrote a different file")

    rss_mb = 0.0
    if emap is not None:
        tracemalloc.start()
        try:
            lib.lattice.check_injective_invert(emap, injectivity_tol(inputs))
            rss_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    spans = tracer.spans()
    np.savez(run_dir / "spans.npz", **spans)
    degenerate = sum(
        1 for w in caught if issubclass(w.category, lib.errors.DegenerateProjectionWarning)
    )
    output_bytes = sum(len(b) for b in (*embed_files.values(), *curvature_files.values()) if b)
    return layer_metrics(
        SpanTable(spans), tracer.kept, workers=workers, plain_embed_s=plain_s,
        degenerate=degenerate, rss_mb=rss_mb, output_bytes=output_bytes,
    ), {"spans": int(spans["sid"].size)}


def layer_metrics(t: SpanTable, kept, *, workers, plain_embed_s, degenerate,
                  rss_mb, output_bytes) -> dict:
    """Per-layer metrics, each over the phase whose end-to-end metric it moves."""
    phase_of = t.nearest(PHASES)
    phase_name = np.where(phase_of >= 0, t.name[np.maximum(phase_of, 0)], -1)

    def rows(name, phase):
        return np.flatnonzero((t.name == t.code(name)) & (phase_name == t.code(phase)))

    def calls(name, phase):
        return (int(rows(name, phase).size), "count")

    def self_s(name, phase):
        return (float(t.self_time[rows(name, phase)].sum()), "s")

    def total_s(name, phase):
        return (float(t.dur[rows(name, phase)].sum()), "s")

    def ratio(a, b):
        return (a / b if b else 0.0, "ratio")

    S, E, C, M = PHASES
    embed_s = float(t.dur[t.name == t.code(E)].sum())
    gradients = rows("energy.total_gradient", E).size
    energies = rows("energy.total_energy", E).size
    owners = ("energy.total_gradient", "energy.total_energy")
    projections = rows("geometry.closest_point", E).size
    descents = rows("solver.descend_point", E)
    descend_s = float(t.dur[descents].sum())
    outcomes = kept["solver.descend_point"]
    iterations = sum(o[0] for o in outcomes)
    trials = t.count_under("energy.total_energy", ("solver.descend_point",),
                           "solver.descend_point") - descents.size
    chart_evals = rows("expressions.chart", E).size
    return {
        "field.activation.calls": calls("field.activation", E),
        "field.activation_gradient.calls": calls("field.activation_gradient", E),
        "field.activation_gradient.self_s": self_s("field.activation_gradient", E),
        "field.regularization_gradient.calls": calls("field.regularization_gradient", E),
        "field.regularization_gradient.self_s": self_s("field.regularization_gradient", E),
        "quadrature.curvature_integral_gradient.calls":
            calls("quadrature.curvature_integral_gradient", E),
        "quadrature.curvature_integral_gradient.self_s":
            self_s("quadrature.curvature_integral_gradient", E),
        "energy.projections_per_gradient": ratio(
            t.count_under("geometry.closest_point", owners, owners[0]), gradients),
        "energy.projections_per_energy": ratio(
            t.count_under("geometry.closest_point", owners, owners[1]), energies),
        "quadrature.curvature_double_integral.calls":
            calls("quadrature.curvature_double_integral", C),
        "quadrature.curvature_double_integral.self_s":
            self_s("quadrature.curvature_double_integral", C),
        "quadrature.build_quadrature.calls": calls("quadrature.build_quadrature", C),
        "geometry.curvature_tensor.calls": calls("geometry.curvature_tensor", C),
        "geometry.curvature_tensor.self_s": self_s("geometry.curvature_tensor", C),
        "geometry.closest_point.calls": (projections, "count"),
        "geometry.closest_point.self_s": self_s("geometry.closest_point", E),
        "expressions.chart_evals": (chart_evals, "count"),
        "expressions.chart_evals_per_projection": ratio(chart_evals, projections),
        "geometry.degenerate_warnings": (degenerate, "count"),
        "energy.total_energy.calls": (energies, "count"),
        "energy.total_energy.self_s": self_s("energy.total_energy", E),
        "energy.total_gradient.calls": (gradients, "count"),
        "energy.total_gradient.self_s": self_s("energy.total_gradient", E),
        "solver.iterations": (iterations, "count"),
        "solver.iterations_per_point": ratio(iterations, len(outcomes)),
        "solver.line_search_trials": (trials, "count"),
        "solver.accept_ratio": ratio(iterations, trials),
        "solver.s_per_iteration": (descend_s / iterations if iterations else 0.0, "s"),
        "solver.stalled": (sum(1 for o in outcomes if o[1]), "count"),
        "solver.max_iters_hit": (
            sum(1 for o in outcomes if o[0] >= MAX_ITERS and not o[2]), "count"),
        "solver.errors": (sum(kept["solver.embed_lattice"]), "count"),
        "solver.thread_efficiency": ratio(descend_s, embed_s * workers),
        "lattice.generate_lattice.s": total_s("lattice.generate_lattice", E),
        "lattice.check_injective_invert.s": total_s("lattice.check_injective_invert", M),
        "lattice.check_injective_invert.rss_mb": (rss_mb, "MB"),
        "lattice.extend_map.calls": calls("lattice.extend_map", M),
        "lattice.extend_map.s": total_s("lattice.extend_map", M),
        "lattice.jacobian_of_extension.s": total_s("lattice.jacobian_of_extension", M),
        "cli.run_embed.self_s": self_s("cli.run_embed", E),
        "cli.run_curvature.self_s": self_s("cli.run_curvature", C),
        "cli.output_bytes": (output_bytes, "bytes"),
        "config.parse_s": (float(np.median(t.dur[rows("config.parse_config", S)])), "s"),
        "geometry.make_manifold_s": (
            float(np.median(t.dur[rows("geometry.make_manifold", S)])), "s"),
        "trace.overhead": ratio(embed_s, plain_embed_s),
    }


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "lattice_embed" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC / 'lattice_embed'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    workers = len(os.sched_getaffinity(0))
    os.environ["LATTICE_EMBED_THREADS"] = str(workers)
    run_dir = WORK / f"{workload.name}-trace{args.trace}"
    out_dir = run_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = make_inputs(workload, args.seed, str(out_dir))
    config_path = run_dir / "run.cfg"
    config_path.write_text(inputs.config_text)
    env = environment(workload, args.seed, workers, inputs)

    checks = Checks()
    if args.trace:
        metrics, extra = traced_run(workload, inputs, config_path, out_dir, workers,
                                    run_dir, checks)
    else:
        metrics, extra = timed_run(workload, inputs, config_path, out_dir,
                                   args.seconds, checks)
    declared = declared_metrics(args.trace)
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != declared:
        print(f"perfbench: metrics {sorted(set(emitted) ^ set(declared))} do not "
              "match BENCHMARK.json", file=sys.stderr)
        return 3
    env.update(extra, failures=checks.failures, problems=checks.problems[:50])
    (run_dir / "env.json").write_text(json.dumps(env, indent=2) + "\n")
    for problem in checks.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print("# env: " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not checks.problems,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
