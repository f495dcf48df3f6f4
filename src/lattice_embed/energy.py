"""Three-term embedding energy, its gradient, and the stationarity residuals.

total = alignment + gamma * curvature integral (closest-point pullback)
        + (lam/2) ||grad A||^2

The curvature term is the closed form of quadrature.curvature_double_integral
at the closest point, so it depends on no seed or resolution.  The
stationarity (Euler-Lagrange) residual alpha(q-p)_T + beta(q-p)_N
+ gamma grad C(q) + lam Delta_A(q), with C pulled back through the closest
point, is the energy gradient itself, total_gradient, so "stationary point"
and "zero residual" are the same testable statement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndeterminateError, NoSolutionError
from .field import _activation_gradient_at, _regularization_gradient_at
from .geometry import ManifoldSpec, TangentFrame, closest_point, decompose, tangent_frame
from .quadrature import (
    build_quadrature,
    curvature_double_integral,
    curvature_integral_gradient,
)

Array = np.ndarray


@dataclass(frozen=True)
class EnergyParams:
    """Every free constant of the energy functional plus numerical settings.

    alpha/beta weight the tangential/normal alignment, gamma the curvature
    integral, lam the tube-smoothing regularization.
    """

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 0.0
    lam: float = 0.0
    tube_radius: float = 0.1

    def __post_init__(self):
        # one check per field, its message starting with the field's name
        # (config names the key from it); negated comparisons, so that NaN
        # fails them
        for name in ("alpha", "beta", "tube_radius"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("gamma", "lam"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite")

    def rule_for(self, spec: ManifoldSpec) -> Array:
        """The (64, d) nodes of a tangent-sphere rule of the manifold's
        dimension.  The energy reads no rule; the setup probe of
        perfbench/run.py (SETUP_PROBE) still calls this, and nothing in the
        package does."""
        return build_quadrature(spec.intrinsic_dim, 64)


def check_curvature_term(params: EnergyParams, spec: ManifoldSpec) -> None:
    """Raise ValueError when gamma > 0 on a curve: the curvature term needs
    a tangent 2-plane, so every point's solve would fail."""
    if params.gamma > 0.0 and spec.intrinsic_dim < 2:
        raise ValueError(
            "gamma must be 0 on a curve: a curve has no sectional curvature, "
            "and the curvature term needs dimension >= 2"
        )


def alignment(params: EnergyParams, frame: TangentFrame, p, q) -> float:
    """(alpha/2)||(q-p)_T||^2 + (beta/2)||(q-p)_N||^2 at the frame's point."""
    diff = np.asarray(q, dtype=float) - np.asarray(p, dtype=float)
    t_part, n_part = decompose(frame, diff)
    return 0.5 * params.alpha * float(t_part @ t_part) + 0.5 * params.beta * float(
        n_part @ n_part
    )


def alignment_gradient(params: EnergyParams, frame: TangentFrame, p, q) -> Array:
    """alpha (q-p)_T + beta (q-p)_N, with the projection point held fixed."""
    diff = np.asarray(q, dtype=float) - np.asarray(p, dtype=float)
    t_part, n_part = decompose(frame, diff)
    return params.alpha * t_part + params.beta * n_part


def _alignment_value(params: EnergyParams, spec: ManifoldSpec, proj, q) -> float:
    # alpha == beta: Pythagoras collapses the split to (alpha/2)||q - p||^2,
    # so no frame is needed (and none exists at chart-degenerate parameters).
    diff = q - proj.point
    if params.alpha == params.beta:
        return 0.5 * params.alpha * float(diff @ diff)
    frame = tangent_frame(spec, proj.u)
    return alignment(params, frame, proj.point, q)


def _alignment_grad(params: EnergyParams, spec: ManifoldSpec, proj, q) -> Array:
    diff = q - proj.point
    if params.alpha == params.beta:
        return params.alpha * diff
    frame = tangent_frame(spec, proj.u)
    return alignment_gradient(params, frame, proj.point, q)


def total_energy(params: EnergyParams, spec: ManifoldSpec, q) -> float:
    """Full three-term energy at an ambient point.

    With gamma = lam = 0 this returns the alignment term bit-identically (the
    other terms are skipped, not added as zeros).
    """
    q = np.asarray(q, dtype=float).reshape(-1)
    proj = closest_point(spec, q)
    value = _alignment_value(params, spec, proj, q)
    if params.gamma != 0.0:
        value += params.gamma * curvature_double_integral(spec, proj.u)
    if params.lam != 0.0:
        grad_a = _activation_gradient_at(params, q, proj.point)
        value += 0.5 * params.lam * float(grad_a @ grad_a)
    return value


def total_gradient(params: EnergyParams, spec: ManifoldSpec, q) -> Array:
    """Gradient of total_energy: the frozen-projection alignment gradient,
    the closed-form regularization gradient at the same projection, and the
    curvature gradient by central differences of the pullback integral
    (2n further projections)."""
    q = np.asarray(q, dtype=float).reshape(-1)
    proj = closest_point(spec, q)
    grad = _alignment_grad(params, spec, proj, q)
    if params.gamma != 0.0:
        grad = grad + params.gamma * curvature_integral_gradient(spec, q)
    if params.lam != 0.0:
        grad = grad + _regularization_gradient_at(params, q, proj.point)
    return grad


def reduced_residual(q, lam: float, curvature: float) -> Array:
    """Reduced stationarity equation: component k is -q_k + lam * K."""
    q = np.asarray(q, dtype=float).reshape(-1)
    return -q + lam * curvature


@dataclass(frozen=True, eq=False)
class ReducedSolution:
    lambdas: Array  # per-component weights q_k / K
    consistent: bool
    lambda_star: float | None


def solve_lambda_reduced(q, curvature: float, rtol: float = 1e-9) -> ReducedSolution:
    """Per-component weights solving the reduced equation, and whether they
    agree on a single lambda (relative tolerance rtol)."""
    q = np.asarray(q, dtype=float).reshape(-1)
    if curvature == 0.0:
        if np.any(q != 0.0):
            raise NoSolutionError("zero curvature with nonzero q has no solution")
        raise IndeterminateError("zero curvature with zero q: any weight works")
    lambdas = q / curvature
    scale = float(np.max(np.abs(lambdas)))
    spread = float(np.max(lambdas) - np.min(lambdas))
    consistent = spread <= rtol * max(scale, 1e-300)
    lambda_star = float(np.mean(lambdas)) if consistent else None
    return ReducedSolution(
        lambdas=lambdas, consistent=consistent, lambda_star=lambda_star
    )
