"""Quadrature of the double sectional-curvature integral over the unit
tangent sphere, and its ambient-space gradient through the closest-point
pullback.

For surfaces (d = 2) the integral is (2 pi)^2 times the Gaussian curvature,
since every non-parallel pair of tangent directions spans the same plane, so
the rule's nodes are never read; the curvature is exact, from the spec's
curvature_fn (a closed form for the built-ins, the Gauss equation for
parametric charts).  Above d = 2 it is a quadrature, over the rule's
non-parallel node pairs (which each rule selects once), of sectional
curvatures from a finite-difference Riemann tensor.  Rules are memoized on
(d, resolution, seed) and read-only.  The ambient gradient is a central
difference, with step _GRADIENT_STEP, of the integral at the closest points
of shifted queries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import AllPairsDegenerateError, BadResolutionError
from .geometry import (
    PARALLEL_TOL,
    ManifoldSpec,
    closest_point,
    curvature_tensor,
    gaussian_curvature,
)

Array = np.ndarray

# Ambient step of the central-difference curvature gradient.
_GRADIENT_STEP = 1e-3


def sphere_measure(d: int) -> float:
    """Surface measure of the unit sphere S^{d-1} in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Unit direction nodes and positive weights on S^{d-1}."""

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

    @cached_property
    def pairs(self) -> tuple[Array, Array]:
        """Row and column node indices of the pairs the integral keeps, in
        row-major order: those whose normalized Gram determinant exceeds
        PARALLEL_TOL (numerically parallel pairs span no plane)."""
        cos = self.nodes @ self.nodes.T
        ii, jj = np.nonzero(1.0 - cos * cos > PARALLEL_TOL)
        ii.setflags(write=False)
        jj.setflags(write=False)
        return ii, jj


def build_quadrature(d: int, resolution: int, seed: int = 0) -> QuadratureRule:
    """Equal-weight rule on S^{d-1}: uniform angles for d=2, seeded
    pseudo-random unit vectors for d >= 3.  Memoized: equal (d, resolution,
    seed) return the same rule, whose node and weight arrays are read-only."""
    return _cached_rule(d, resolution, seed)


@lru_cache(maxsize=16)
def _cached_rule(d: int, resolution: int, seed: int) -> QuadratureRule:
    if d < 2:
        raise ValueError("tangent-sphere quadrature needs d >= 2")
    if resolution < 4:
        raise BadResolutionError(f"resolution {resolution} < 4")
    if d == 2:
        angles = 2.0 * math.pi * np.arange(resolution) / resolution
        nodes = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        weights = np.full(resolution, 2.0 * math.pi / resolution)
    else:
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((resolution, d))
        nodes = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        weights = np.full(resolution, sphere_measure(d) / resolution)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    rule = QuadratureRule(
        intrinsic_dim=d,
        nodes=nodes,
        weights=weights,
        seed=int(seed),
        resolution=int(resolution),
    )
    rule.validate()
    return rule


def _lexicographic_less(a: Array, b: Array) -> Array:
    """Row-wise: is a strictly lexicographically less than b."""
    m = a.shape[0]
    less = np.zeros(m, dtype=bool)
    decided = np.zeros(m, dtype=bool)
    for col in range(a.shape[1]):
        lo = ~decided & (a[:, col] < b[:, col])
        hi = ~decided & (a[:, col] > b[:, col])
        less |= lo
        decided |= lo | hi
    return less


def curvature_double_integral(
    spec: ManifoldSpec,
    u,
    rule: QuadratureRule,
) -> float:
    """Total sectional curvature over tangent-direction pairs at chart(u).

    For surfaces every non-parallel pair spans the whole tangent plane, so
    the integral is sphere_measure(2)**2 times the Gaussian curvature from
    the spec's curvature_fn, and the rule contributes only its dimension; a
    surface spec without a curvature_fn raises DegeneratePlaneError.
    Above d = 2 the rule's retained pairs (rule.pairs) are mapped through a
    metric-orthonormal basis of the tangent space, each pair's curvature is
    summed, and the retained weight mass is rescaled so the total pair
    weight equals the squared sphere measure.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    if rule.intrinsic_dim != spec.intrinsic_dim:
        raise ValueError(
            f"rule dimension {rule.intrinsic_dim} != manifold dimension "
            f"{spec.intrinsic_dim}"
        )
    if spec.intrinsic_dim == 2:
        return float(sphere_measure(2) ** 2 * gaussian_curvature(spec, u))
    ii, jj = rule.pairs
    if ii.size == 0:
        raise AllPairsDegenerateError(
            "every node pair rejected as numerically parallel"
        )
    g0, _, riemann = curvature_tensor(spec, u)
    # B^T g0 B = I: the columns of B are a metric-orthonormal tangent basis,
    # and metric inner products of mapped nodes B n_i equal Euclidean inner
    # products of the raw nodes.
    basis = np.linalg.inv(np.linalg.cholesky(g0)).T
    mapped = rule.nodes @ basis.T
    v = mapped[ii]
    w = mapped[jj]
    swap = _lexicographic_less(w, v)
    a = np.where(swap[:, None], w, v)
    b = np.where(swap[:, None], v, w)
    cab = np.einsum("pi,ij,pj->p", a, g0, b)
    b_perp = b - cab[:, None] * a
    nb = np.sqrt(np.einsum("pi,ij,pj->p", b_perp, g0, b_perp))
    e2 = b_perp / nb[:, None]
    numer = np.einsum("lm,lijk,pi,pj,pk,pm->p", g0, riemann, a, e2, e2, a)
    denom = (
        np.einsum("pi,ij,pj->p", a, g0, a)
        * np.einsum("pi,ij,pj->p", e2, g0, e2)
        - np.einsum("pi,ij,pj->p", a, g0, e2) ** 2
    )
    kvals = numer / denom

    total = sphere_measure(spec.intrinsic_dim) ** 2
    weights = rule.weights
    if np.all(weights == weights[0]):
        # Equal-weight rules: rescaled sum == plain mean times total measure.
        return total * float(np.mean(kvals))
    pair_w = weights[ii] * weights[jj]
    return total * float(np.sum(pair_w * kvals) / np.sum(pair_w))


def curvature_integral_gradient(
    spec: ManifoldSpec, q, rule: QuadratureRule
) -> Array:
    """Central-difference ambient gradient of the pullback integral at q,
    the integral being taken at the closest point on M of each shifted q."""
    q = np.asarray(q, dtype=float).reshape(-1)
    grad = np.zeros_like(q)
    for k in range(q.shape[0]):
        offset = np.zeros_like(q)
        offset[k] = _GRADIENT_STEP
        c_plus, c_minus = (
            curvature_double_integral(spec, closest_point(spec, x).u, rule)
            for x in (q + offset, q - offset)
        )
        grad[k] = (c_plus - c_minus) / (2.0 * _GRADIENT_STEP)
    return grad
