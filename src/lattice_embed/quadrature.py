"""The double sectional-curvature integral over pairs of unit tangent
directions, in closed form, and its ambient-space gradient through the
closest-point pullback.

The integral is linear in the Riemann tensor and invariant under O(d), so it
sees only the scalar curvature (the O(d) decomposition of curvature tensors;
Besse, *Einstein Manifolds*, 1987, ch. 1).  Normalizing on the round sphere
gives, for every d >= 2,

    C = |S^{d-1}|^2 Scal / (d (d - 1)).

For surfaces Scal = 2K, with K exact from the spec's curvature_fn (a closed
form for the built-ins, the Gauss equation for parametric charts), so C is
(2 pi)^2 K and a whole grid of points takes one curvature_fn call.  Above
d = 2 Scal is contracted from the finite-difference Riemann tensor, one
tensor per point.  The ambient gradient is a central difference, with step
_GRADIENT_STEP, of the integral at the closest points of shifted queries.

The equal-weight rules of build_quadrature are not part of the energy; their
nodes feed the all-pairs oracle of acceptance criterion 3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadResolutionError
from .geometry import ManifoldSpec, closest_point, curvature_tensor, gaussian_curvature

Array = np.ndarray

# Ambient step of the central-difference curvature gradient.
_GRADIENT_STEP = 1e-3


def sphere_measure(d: int) -> float:
    """Surface measure of the unit sphere S^{d-1} in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Unit direction nodes and equal positive weights on S^{d-1}."""

    intrinsic_dim: int
    nodes: Array  # (m, d), unit rows
    weights: Array  # (m,), positive, summing to the sphere measure
    seed: int
    resolution: int

    def validate(self) -> None:
        norms = np.linalg.norm(self.nodes, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValueError("quadrature nodes must be unit vectors")
        if np.any(self.weights <= 0.0):
            raise ValueError("quadrature weights must be positive")
        total = float(np.sum(self.weights))
        if abs(total - sphere_measure(self.intrinsic_dim)) > 1e-9:
            raise ValueError("quadrature weights must sum to the sphere measure")


def build_quadrature(d: int, resolution: int, seed: int = 0) -> QuadratureRule:
    """Equal-weight rule on S^{d-1}: uniform angles for d = 2, seeded
    pseudo-random unit vectors for d >= 3."""
    if d < 2:
        raise ValueError("tangent-sphere quadrature needs d >= 2")
    if resolution < 4:
        raise BadResolutionError(f"resolution {resolution} < 4")
    if d == 2:
        angles = 2.0 * math.pi * np.arange(resolution) / resolution
        nodes = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    else:
        raw = np.random.default_rng(seed).standard_normal((resolution, d))
        nodes = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    weights = np.full(resolution, sphere_measure(d) / resolution)
    rule = QuadratureRule(
        intrinsic_dim=d,
        nodes=nodes,
        weights=weights,
        seed=int(seed),
        resolution=int(resolution),
    )
    rule.validate()
    return rule


def _scalar_curvature(spec: ManifoldSpec, u: Array) -> float:
    """Scal = g^{jk} R^i_{ijk} from the finite-difference Riemann tensor."""
    g0, _, riemann = curvature_tensor(spec, u)
    return float(np.einsum("jk,iijk->", np.linalg.inv(g0), riemann))


def mean_sectional_curvature(spec: ManifoldSpec, u) -> Array:
    """Scal / (d (d - 1)), the mean sectional curvature over the tangent
    2-planes at chart(u), at one parameter point (d,) or a batch (..., d).

    For a surface Scal = 2K, so this is the Gaussian curvature K from the
    spec's curvature_fn; a surface spec without one raises
    DegeneratePlaneError.
    """
    u = np.asarray(u, dtype=float)
    d = spec.intrinsic_dim
    if u.ndim == 0 or u.shape[-1] != d:
        raise ValueError(f"parameter points need {d} coordinates, not {u.shape}")
    if d == 2:
        return gaussian_curvature(spec, u)
    scal = [_scalar_curvature(spec, point) for point in u.reshape(-1, d)]
    return np.reshape(scal, u.shape[:-1]) / (d * (d - 1))


def curvature_double_integral(spec: ManifoldSpec, u):
    """Total sectional curvature over pairs of unit tangent directions at
    chart(u), C = |S^{d-1}|^2 Scal / (d (d - 1)): a float at one parameter
    point (d,), an array (...) over a batch (..., d)."""
    measure = sphere_measure(spec.intrinsic_dim)
    value = measure**2 * mean_sectional_curvature(spec, u)
    return float(value) if np.ndim(u) == 1 else value


def curvature_integral_gradient(spec: ManifoldSpec, q) -> Array:
    """Central-difference ambient gradient of the pullback integral at q,
    the integral being taken at the closest point on M of each shifted q."""
    q = np.asarray(q, dtype=float).reshape(-1)
    grad = np.zeros_like(q)
    for k in range(q.shape[0]):
        offset = np.zeros_like(q)
        offset[k] = _GRADIENT_STEP
        c_plus, c_minus = (
            curvature_double_integral(spec, closest_point(spec, x).u)
            for x in (q + offset, q - offset)
        )
        grad[k] = (c_plus - c_minus) / (2.0 * _GRADIENT_STEP)
    return grad
