"""The double sectional-curvature integral over pairs of unit tangent
directions, in closed form, and its ambient-space gradient through the
closest-point pullback.

The integral is linear in the Riemann tensor and invariant under O(d), so it
sees only the scalar curvature (the O(d) decomposition of curvature tensors;
Besse, *Einstein Manifolds*, 1987, ch. 1).  Normalizing on the round sphere
gives, for every d >= 2,

    C = |S^{d-1}|^2 Scal / (d (d - 1)).

The mean sectional curvature Scal / (d (d - 1)) comes exact from the spec's
curvature_fn (a closed form for the built-ins, the Gauss equation for
parametric charts), so a whole grid of points takes one call; for surfaces
C is (2 pi)^2 K.  The ambient gradient is a central difference, with step
_GRADIENT_STEP, of the integral at the closest points of shifted queries,
all of them in one batch.

The equal-weight rules of build_quadrature are not part of the energy; their
nodes feed the all-pairs oracle of acceptance criterion 3, which averages
over the node pairs it keeps and so reads no weights.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import BadResolutionError
from .geometry import ManifoldSpec, closest_point, mean_sectional_curvature

Array = np.ndarray

# Ambient step of the central-difference curvature gradient.
_GRADIENT_STEP = 1e-3


def sphere_measure(d: int) -> float:
    """Surface measure of the unit sphere S^{d-1} in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def build_quadrature(d: int, resolution: int, seed: int = 0) -> Array:
    """The (resolution, d) unit nodes of an equal-weight rule on S^{d-1}:
    uniform angles for d = 2, seeded pseudo-random unit vectors for d >= 3."""
    if d < 2:
        raise ValueError("tangent-sphere quadrature needs d >= 2")
    if resolution < 4:
        raise BadResolutionError(f"resolution {resolution} < 4")
    if d == 2:
        angles = 2.0 * math.pi * np.arange(resolution) / resolution
        return np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    raw = np.random.default_rng(seed).standard_normal((resolution, d))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def curvature_double_integral(spec: ManifoldSpec, u):
    """Total sectional curvature over pairs of unit tangent directions at
    chart(u), C = |S^{d-1}|^2 Scal / (d (d - 1)): a float at one parameter
    point (d,), an array (...) over a batch (..., d)."""
    measure = sphere_measure(spec.intrinsic_dim)
    value = measure**2 * mean_sectional_curvature(spec, u)
    return float(value) if np.ndim(u) == 1 else value


def curvature_integral_gradient(spec: ManifoldSpec, q) -> Array:
    """Central-difference ambient gradient of the pullback integral at q,
    the integral being taken, in one batch, at the closest point on M of
    each shifted q."""
    q = np.asarray(q, dtype=float).reshape(-1)
    n = q.shape[0]
    steps = _GRADIENT_STEP * np.eye(n)
    shifted = np.concatenate([q + steps, q - steps])
    u = np.array([closest_point(spec, x).u for x in shifted])
    values = curvature_double_integral(spec, u)
    return (values[:n] - values[n:]) / (2.0 * _GRADIENT_STEP)
