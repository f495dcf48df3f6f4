"""Command-line interface: embed, curvature, energy, validate.

Exit codes: 0 success, 1 validation/convergence failure, 2 configuration
error.  All output files start with the config digest and a column header
and are byte-identical across runs with the same config and seeds.  Rows
hold Python scalars: numbers are written as their shortest round-trip
``repr`` (``nan`` included) and booleans as ``true``/``false``.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, parse_config
from .energy import total_energy, total_gradient
from .errors import ConfigError, LatticeEmbedError, ValidationError
from .geometry import _grid, mean_sectional_curvature
from .quadrature import sphere_measure
from .solver import embed_lattice


def _fmt(value) -> str:
    # a numpy scalar would read "np.float64(...)": rows hold Python scalars
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


def _json_number(value: float) -> float | None:
    return value if math.isfinite(value) else None


def _write_rows(path: Path, digest: str, columns: list[str], rows) -> None:
    lines = [f"# digest: {digest}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(map(_fmt, row)))
    path.write_text("\n".join(lines) + "\n")


def _out_dir(config: RunConfig) -> Path:
    out = Path(config.get("output", "directory"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def run_embed(config: RunConfig) -> int:
    spec = config.manifold()
    params = config.energy_params()
    lattice = config.lattice()
    if lattice.dim != spec.ambient_dim:
        # checked here, not in parse_config: curvature and energy read no lattice
        raise ValidationError(
            f"lattice.bounds: {lattice.dim} axes, but the manifold lies in "
            f"R^{spec.ambient_dim}"
        )
    emap, report = embed_lattice(params, spec, lattice, config.solver())
    digest = config.digest()
    out = _out_dir(config)
    n = spec.ambient_dim

    columns = (
        [f"q{k + 1}" for k in range(n)]
        + [f"zeta{k + 1}" for k in range(n)]
        + ["residual_norm", "energy", "iterations", "converged"]
    )
    values = [*emap.points().T, *emap.images().T]
    values += [emap.residual_norm, emap.energy, emap.iterations, emap.converged]
    rows = zip(*(column.tolist() for column in values))
    _write_rows(out / "points.csv", digest, columns, rows)

    lines = [
        json.dumps(
            {
                "record": "summary",
                "config_digest": digest,
                "attempted": report.attempted,
                "skipped": report.skipped,
                "converged": report.converged_count,
                "fraction_converged": report.fraction_converged,
                "max_residual": report.max_residual,
            },
            sort_keys=True,
            allow_nan=False,
        )
    ]
    for index, entry in enumerate(emap.entries):
        record = {
            "record": "point",
            "index": index,
            "skipped": entry.skipped,
            "converged": entry.converged,
            "iterations": entry.iterations,
            # skipped and errored points have no value: null, never NaN
            "residual_norm": _json_number(entry.residual_norm),
            "energy": _json_number(entry.energy),
        }
        if entry.error is not None:
            record["error"] = entry.error
        lines.append(json.dumps(record, sort_keys=True, allow_nan=False))
    (out / "report.jsonl").write_text("\n".join(lines) + "\n")

    print(
        f"embed: {report.attempted} attempted, {report.skipped} skipped, "
        f"{report.converged_count} converged "
        f"({report.fraction_converged:.1%}), max residual "
        f"{report.max_residual:.3e}, wall time {report.wall_time:.2f}s"
    )
    return 0 if report.converged_count == report.attempted else 1


def run_curvature(config: RunConfig, *, grid: int) -> int:
    if grid < 1:
        raise ValidationError(f"--grid must be at least 1, got {grid}")
    spec = config.manifold()
    # cell centers keep off chart degeneracies such as the sphere's poles
    points = _grid(
        [lo + (np.arange(grid) + 0.5) * (hi - lo) / grid for lo, hi in spec.param_bounds]
    )
    # K is the mean sectional curvature (a surface's Gaussian curvature), and
    # C = |S^{d-1}|^2 K is quadrature.curvature_double_integral from the
    # same K: the whole grid takes one curvature call
    k = mean_sectional_curvature(spec, points)
    integral = sphere_measure(spec.intrinsic_dim) ** 2 * k
    rows = np.column_stack([points, k, integral]).tolist()
    columns = [f"u{k + 1}" for k in range(spec.intrinsic_dim)] + ["K", "C"]
    out = _out_dir(config)
    _write_rows(out / "curvature.csv", config.digest(), columns, rows)
    print(f"curvature: wrote {len(rows)} grid values to {out / 'curvature.csv'}")
    return 0


def _read_points(path: Path, width: int) -> np.ndarray:
    """Probe points, one per line of `width` finite numbers separated by
    commas or blanks; '#' starts a comment."""
    rows = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        try:
            row = [float(p) for p in parts]
        except ValueError:
            row = [math.nan]  # a non-numeric field: reported just below
        if not all(map(math.isfinite, row)):
            raise LatticeEmbedError(f"{path} line {lineno}: not a finite number")
        if len(row) != width:
            raise LatticeEmbedError(
                f"{path} line {lineno}: {len(row)} values, expected {width}"
            )
        rows.append(row)
    if not rows:
        raise LatticeEmbedError(f"no probe points found in {path}")
    return np.asarray(rows, dtype=float)


def run_energy(config: RunConfig, points_file: str) -> int:
    spec = config.manifold()
    params = config.energy_params()
    points = _read_points(Path(points_file), spec.ambient_dim)
    rows = []
    for q in points:
        value = total_energy(params, spec, q)
        grad = total_gradient(params, spec, q)
        rows.append(q.tolist() + [float(value)] + grad.tolist())
    n = spec.ambient_dim
    columns = (
        [f"q{k + 1}" for k in range(n)]
        + ["energy"]
        + [f"grad{k + 1}" for k in range(n)]
    )
    out = _out_dir(config)
    _write_rows(out / "energy.csv", config.digest(), columns, rows)
    print(f"energy: wrote {len(rows)} probe evaluations to {out / 'energy.csv'}")
    return 0


def run_validate() -> int:
    from .validate_suite import run_all

    results = run_all()
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.name}: {result.detail}")
        if not result.passed:
            failed += 1
    print(f"validate: {len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 1


def run_command(command: str, config: RunConfig | None, **kwargs) -> int:
    """Dispatch one CLI command; returns the process exit status."""
    if command == "embed":
        return run_embed(config, **kwargs)
    if command == "curvature":
        return run_curvature(config, **kwargs)
    if command == "energy":
        return run_energy(config, **kwargs)
    if command == "validate":
        return run_validate()
    raise ValueError(f"unknown command {command!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattice-embed",
        description="Embed lattice points onto a manifold by energy descent.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_embed = sub.add_parser("embed", help="embed the configured lattice")
    p_embed.add_argument("config")

    p_curv = sub.add_parser(
        "curvature", help="tabulate curvature over the parameter box"
    )
    p_curv.add_argument("config")
    p_curv.add_argument("--grid", type=int, default=16)

    p_energy = sub.add_parser(
        "energy", help="evaluate the energy and gradient at probe points"
    )
    p_energy.add_argument("config")
    p_energy.add_argument("--points", dest="points_file", required=True)

    sub.add_parser("validate", help="run the acceptance suite")
    return parser


# built once: it holds no command functions, so run_command still looks
# run_embed and run_curvature up at call time
_PARSER = _build_parser()


def main(argv=None) -> int:
    options = vars(_PARSER.parse_args(argv))
    command = options.pop("command")
    path = options.pop("config", None)
    try:
        config = parse_config(Path(path).read_text()) if path else None
        return run_command(command, config, **options)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (LatticeEmbedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
