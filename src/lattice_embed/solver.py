"""Per-point energy descent and the lattice-wide embedding pipeline.

Each lattice point is an independent minimization of the three-term energy,
seeded at the point itself; Armijo backtracking guarantees every accepted
step strictly decreases the energy.  The energy has no random part, so each
point's result depends only on that point and the settings, never on its
index or on the rest of the batch.
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .energy import EnergyParams, check_curvature_term, total_energy, total_gradient
from .errors import LatticeEmbedError
from .geometry import ManifoldSpec, closest_point
from .lattice import EmbeddingMap, LatticeSpec, generate_lattice
from .validation import check_distinct_rows, check_points_array

Array = np.ndarray

_MIN_STEP = 1e-16
# Armijo line search: the first trial step of every iteration is _INITIAL_STEP,
# each rejected trial step is multiplied by _BACKTRACK, and a step s is
# accepted when it lowers the energy by _ARMIJO_C * s * |grad|^2.
_INITIAL_STEP = 0.1
_BACKTRACK = 0.5
_ARMIJO_C = 1e-4


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 500
    grad_tol: float = 1e-6

    def __post_init__(self):
        # each message starts with the field's name (config names the key
        # from it); negated comparisons, so that NaN fails them
        count = isinstance(self.max_iters, numbers.Integral)
        if isinstance(self.max_iters, bool) or not (count and self.max_iters >= 1):
            raise ValueError("max_iters must be an integer of at least 1")
        if not 0.0 < self.grad_tol < math.inf:
            raise ValueError("grad_tol must be positive and finite")


@dataclass(eq=False)
class PointTrace:
    energies: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    stalled: bool = False
    final_energy: float = float("nan")
    final_residual_norm: float = float("nan")


def descend_point(
    params: EnergyParams,
    spec: ManifoldSpec,
    q0,
    config: SolverConfig,
) -> tuple[Array, PointTrace]:
    """Armijo-backtracked gradient descent on the total energy from q0.

    Stops when the gradient norm drops to grad_tol or the iteration budget
    runs out.  A line search that underflows the machine step floor is
    reported on the trace (stalled), not raised.  The gradient is the
    stationarity residual, so the norm of the one gradient taken at the
    final point certifies it.
    """
    q = np.asarray(q0, dtype=float).reshape(-1).copy()
    trace = PointTrace()
    energy = total_energy(params, spec, q)
    trace.energies.append(energy)
    for iteration in range(config.max_iters + 1):
        grad = total_gradient(params, spec, q)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= config.grad_tol or iteration == config.max_iters:
            break
        step = _INITIAL_STEP
        accepted = False
        while step >= _MIN_STEP:
            candidate = q - step * grad
            cand_energy = total_energy(params, spec, candidate)
            if cand_energy <= energy - _ARMIJO_C * step * grad_norm**2:
                q = candidate
                energy = cand_energy
                trace.energies.append(energy)
                trace.iterations += 1
                accepted = True
                break
            step *= _BACKTRACK
        if not accepted:
            trace.stalled = True
            break
    trace.final_energy = energy
    trace.final_residual_norm = grad_norm
    trace.converged = trace.final_residual_norm <= config.grad_tol
    return q, trace


@dataclass(eq=False)
class SolveReport:
    """Batch totals over the points of one embed_points call."""

    attempted: int = 0
    skipped: int = 0
    converged_count: int = 0
    fraction_converged: float = 0.0
    max_residual: float = 0.0
    wall_time: float = 0.0  # diagnostic only; never serialized to files
    errors: list[str] = field(default_factory=list)


def _solve_one(params, spec, q, config, index) -> tuple:
    """One seed point's row of the map: image, residual norm, energy,
    iterations, converged, skipped, error.  A point beyond the support is
    skipped, one whose solve raises keeps its message; both keep q as image."""
    image, residual, energy, iterations = q, float("nan"), float("nan"), 0
    converged = skipped = False
    error = None
    try:
        proj = closest_point(spec, q)
        skipped = float(np.linalg.norm(q - proj.point)) > 2.0 * params.tube_radius
        if not skipped:
            image, trace = descend_point(params, spec, q, config)
            residual, energy = trace.final_residual_norm, trace.final_energy
            iterations, converged = trace.iterations, trace.converged
    except LatticeEmbedError as exc:
        # per-point failures are reported, never abort the batch
        error = f"point {index}: {type(exc).__name__}: {exc}"
    return image, residual, energy, iterations, converged, skipped, error


def embed_points(
    params: EnergyParams,
    spec: ManifoldSpec,
    points,
    config: SolverConfig,
) -> tuple[EmbeddingMap, SolveReport]:
    """Run the per-point descent over an arbitrary batch of seed points.

    The whole batch and the settings are checked before any point is
    solved: a row equal to an earlier one, or gamma > 0 on a curve, raises
    ValueError.  Points farther than twice the tube
    radius from M are outside the activation support and are marked skipped.
    Per-point solver errors never abort the batch; output order follows
    input order.
    """
    points = check_points_array(points, expected_dim=spec.ambient_dim, name="points")
    check_distinct_rows(points, "points")
    check_curvature_term(params, spec)
    start = time.perf_counter()
    rows = [_solve_one(params, spec, q, config, i) for i, q in enumerate(points)]
    emap = EmbeddingMap(points, *zip(*rows))
    solved = ~emap.skipped
    attempted = int(np.count_nonzero(solved))
    converged = int(np.count_nonzero(emap.converged & solved))
    residuals = emap.residual_norm[solved & np.isfinite(emap.residual_norm)]
    report = SolveReport(
        attempted=attempted,
        skipped=len(emap) - attempted,
        converged_count=converged,
        fraction_converged=converged / attempted if attempted else 0.0,
        max_residual=float(residuals.max()) if residuals.size else 0.0,
        wall_time=time.perf_counter() - start,
        errors=[error for error in emap.errors if error is not None],
    )
    return emap, report


def embed_lattice(
    params: EnergyParams,
    spec: ManifoldSpec,
    lattice: LatticeSpec,
    config: SolverConfig,
) -> tuple[EmbeddingMap, SolveReport]:
    """Embed every lattice point, seeding zeta(q) = q (Dirichlet-style
    anchoring at the lattice)."""
    if lattice.dim != spec.ambient_dim:
        raise ValueError(
            f"lattice dimension {lattice.dim} != ambient dimension "
            f"{spec.ambient_dim}"
        )
    return embed_points(params, spec, generate_lattice(lattice), config)


@dataclass(frozen=True, eq=False)
class StationarityReport:
    checked: int
    passed: int
    pass_fraction: float
    worst_norm: float
    worst_index: int | None


def verify_stationarity(
    params: EnergyParams,
    spec: ManifoldSpec,
    emap: EmbeddingMap,
    tol: float,
) -> StationarityReport:
    """Recompute the stationarity residual at every converged image and
    report the fraction at or below tol, plus the worst offender."""
    if len(emap) == 0:
        raise ValueError("map is empty")
    checked = 0
    passed = 0
    worst_norm = 0.0
    worst_index = None
    for index in np.flatnonzero(emap.converged & ~emap.skipped).tolist():
        norm = float(np.linalg.norm(total_gradient(params, spec, emap._images[index])))
        checked += 1
        if norm <= tol:
            passed += 1
        if norm > worst_norm:
            worst_norm = norm
            worst_index = index
    fraction = passed / checked if checked else 0.0
    return StationarityReport(
        checked=checked,
        passed=passed,
        pass_fraction=fraction,
        worst_norm=worst_norm,
        worst_index=worst_index,
    )
