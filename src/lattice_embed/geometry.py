"""Manifold charts, tangent/normal frames, projection, and curvature kernels.

A manifold is its maps, its parameter box and its closed forms.  Every kind
writes its chart as expression text, one string per ambient axis, over a
rectangular parameter box, and one builder compiles that text once through
`expressions.compile_chart` into the chart and its analytic Jacobian; both
map parameter batches (..., d), the chart to points (..., n) and the
Jacobian to partials (..., n, d), so a point gets the same bits alone and in
any batch and a zero keeps the sign its formula gives.  The dimensions n and
d are read from the Jacobian, never given.  The built-in constructors (plane,
sphere, torus) write their radii into the text as exact float literals and
add their closed-form closest-point projection and Gaussian curvature as
`projection_fn` and `curvature_fn`.  A spec without a projection_fn (every
`parametric` chart) projects by damped Gauss-Newton, seeded from a coarse
parameter grid that each manifold evaluates once, periodic axes wrapping.
A chart of dimension d >= 2 without a closed-form curvature gets an exact
one, the mean sectional curvature from the Gauss equation over the compiled
first and second partials.  The finite-difference curvature
pipeline, built from central differences of the pullback metric, remains as
the reference oracle (`curvature_tensor`, `sectional_curvature`).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DegeneratePlaneError,
    DegenerateProjectionWarning,
    NoConvergenceError,
    OutOfDomainError,
    RankDeficientError,
    StencilOutOfDomainError,
)
from .expressions import compile_chart

Array = np.ndarray

# Relative step for metric derivatives, times the per-axis domain extent.
_GEO_REL_STEP = 1.0e-4
_BOUNDS_TOL = 1e-9
_TIE_TOL = 1e-12
# Gauss-Newton projection: iteration budget and the step size that ends it.
_GN_MAX_ITERS = 100
_GN_STEP_TOL = 1e-12
# Two tangent directions count as parallel when the normalized Gram
# determinant 1 - cos^2 of their angle is at or below this.
PARALLEL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ManifoldSpec:
    """A d-manifold embedded in R^n via one chart: its maps, its parameter
    box and its closed forms.

    chart_fn and jacobian_fn map parameter arrays (..., d) to points (..., n)
    and to the chart partials dX/du_i (..., n, d); every kind's come from
    `expressions.compile_chart`, so a point gets the same bits alone and in
    any batch.  projection_fn (ambient q -> Projection) is the closed form
    of a built-in; None means the generic Gauss-Newton path.
    curvature_fn maps parameter arrays (..., d) to the mean sectional
    curvature Scal / (d (d - 1)) (...), which for a surface is its Gaussian
    curvature: a closed form for the built-ins, the Gauss equation for
    other charts with d >= 2, None for curves.  ambient_dim n and
    intrinsic_dim d are read from the (m, n, d) partials that jacobian_fn
    gives on a coarse sweep of the box, which rejects a rank-deficient chart
    and partials whose width disagrees with the box.
    """

    kind: str
    chart_fn: Callable[[Array], Array]
    jacobian_fn: Callable[[Array], Array]
    param_bounds: Array  # (d, 2) rows of (lower, upper)
    periodic: tuple[bool, ...] = ()
    projection_fn: Callable[[Array], "Projection"] | None = None
    curvature_fn: Callable[[Array], Array] | None = None
    ambient_dim: int = field(init=False)
    intrinsic_dim: int = field(init=False)

    def __post_init__(self):
        bounds = np.atleast_2d(np.asarray(self.param_bounds, dtype=float))
        object.__setattr__(self, "param_bounds", bounds)
        if bounds.ndim != 2 or bounds.shape[1] != 2:
            raise ValueError(f"param_bounds must be (d, 2), got {bounds.shape}")
        if not np.all(np.isfinite(bounds)):
            raise ValueError("param_bounds must be finite")
        if np.any(bounds[:, 0] >= bounds[:, 1]):
            raise ValueError("each parameter axis needs lower < upper")
        d = bounds.shape[0]
        periodic = tuple(self.periodic) or (False,) * d
        if len(periodic) != d:
            raise ValueError("periodic flags must match the parameter box")
        object.__setattr__(self, "periodic", periodic)
        # coarse interior sweep: its Jacobian fixes n and d, and catches
        # degenerate user charts at build time
        pts = _grid([np.linspace(lo, hi, 5)[1:-1] for lo, hi in bounds])
        jac = np.asarray(self.jacobian_fn(pts), dtype=float)
        if jac.ndim != 3 or jac.shape[2] != d:
            raise ValueError(
                f"jacobian_fn gives {jac.shape[1:]} partials on a box of {d} axes"
            )
        n = jac.shape[1]
        if not 1 <= d <= n:
            raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "intrinsic_dim", d)
        sv = np.linalg.svd(jac, compute_uv=False)
        bad = np.flatnonzero(sv[:, -1] <= 1e-8 * np.maximum(sv[:, 0], 1.0))
        if bad.size:
            raise RankDeficientError(
                f"chart Jacobian rank-deficient at interior parameter {pts[bad[0]]}"
            )

    @property
    def extents(self) -> Array:
        return self.param_bounds[:, 1] - self.param_bounds[:, 0]

    @cached_property
    def seed_grid(self) -> tuple[Array, Array]:
        """Coarse parameter grid and its chart images, the Gauss-Newton
        seeds; built on first use and kept for the life of the spec.  Each
        axis gets round(4096^(1/d)) points clamped to 4..32, so the grid has
        32 points for d = 1, 1024 for d = 2, 3125 for d = 5, 4096 for d = 3,
        4 and 6, and 4^d from d = 6 on (16,384 at d = 7)."""
        per_axis = max(4, min(32, int(round(4096 ** (1.0 / self.intrinsic_dim)))))
        pts = _grid([np.linspace(lo, hi, per_axis) for lo, hi in self.param_bounds])
        return pts, np.asarray(self.chart_fn(pts), dtype=float)

    @classmethod
    def _from_chart(
        cls, kind, expressions, bounds, periodic=(), projection=None, curvature=None
    ) -> "ManifoldSpec":
        """The spec of a chart written as expression text over a box, plus the
        closed forms it has.  compile_chart runs once, and a chart of dimension
        d >= 2 without a closed-form curvature gets the Gauss equation."""
        bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
        d = bounds.shape[0]
        chart, (jacobian, hessian) = compile_chart(list(expressions), d)
        if curvature is None and d >= 2:
            curvature = _gauss_equation(jacobian, hessian, d)
        return cls(kind, chart, jacobian, bounds, periodic, projection, curvature)

    @classmethod
    def plane(cls, bounds=((-10.0, 10.0), (-10.0, 10.0))) -> "ManifoldSpec":
        """The z=0 plane in R^3, chart (u1, u2) -> (u1, u2, 0)."""
        bounds = np.asarray(bounds, dtype=float)

        def project(q):
            u = np.clip(q[:2], bounds[:, 0], bounds[:, 1])
            return Projection(point=np.array([u[0], u[1], 0.0]), u=u)

        def curvature(u):
            return np.zeros(np.shape(u)[:-1])[()]

        expressions = ["u1", "u2", "0"]
        return cls._from_chart("plane", expressions, bounds, (), project, curvature)

    @classmethod
    def sphere(cls, radius: float = 1.0) -> "ManifoldSpec":
        """Round sphere of the given radius, colatitude/longitude chart."""
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError("sphere radius must be positive and finite")
        r = float(radius)
        expressions = [
            f"{r!r}*sin(u1)*cos(u2)", f"{r!r}*sin(u1)*sin(u2)", f"{r!r}*cos(u1)"
        ]
        chart, _ = compile_chart(expressions, 2)

        def project(q):
            nq = float(np.linalg.norm(q))
            if nq <= _TIE_TOL:
                warnings.warn(
                    "query equidistant from the whole sphere; returning the "
                    "smallest-lexicographic parameter",
                    DegenerateProjectionWarning,
                    stacklevel=3,
                )
                u = np.zeros(2)
                return Projection(point=np.asarray(chart(u), float), u=u)
            theta = math.acos(min(max(q[2] / nq, -1.0), 1.0))
            phi = math.atan2(q[1], q[0]) % (2.0 * math.pi)
            u = np.array([theta, phi])
            return Projection(point=(r / nq) * np.asarray(q, float), u=u)

        def curvature(u):
            return np.full(np.shape(u)[:-1], 1.0 / (r * r))[()]

        box = [[0.0, math.pi], [0.0, 2.0 * math.pi]]
        return cls._from_chart(
            "sphere", expressions, box, (False, True), project, curvature
        )

    @classmethod
    def torus(
        cls, major_radius: float = 2.0, minor_radius: float = 0.5
    ) -> "ManifoldSpec":
        """Standard torus; u1 is the toroidal angle, u2 the poloidal angle."""
        if not (math.isfinite(major_radius) and 0 < minor_radius < major_radius):
            raise ValueError("torus needs 0 < minor_radius < major_radius < inf")
        big, small = float(major_radius), float(minor_radius)
        ring = f"({big!r} + {small!r}*cos(u2))"
        expressions = [f"{ring}*cos(u1)", f"{ring}*sin(u1)", f"{small!r}*sin(u2)"]
        chart, _ = compile_chart(expressions, 2)

        def project(q):
            rho = math.hypot(q[0], q[1])
            if rho <= _TIE_TOL:
                warnings.warn(
                    "query on the torus axis; returning the smallest-lexicographic "
                    "toroidal angle",
                    DegenerateProjectionWarning,
                    stacklevel=3,
                )
                # Equidistant in the toroidal angle; the poloidal distance
                # d^2(b) = const + 2 small (big cos b - q_z sin b) has the
                # closed-form minimizer b = pi - atan2(q_z, big), which lies in
                # (pi/2, 3 pi/2) since big > 0.
                u = np.array([0.0, math.pi - math.atan2(q[2], big)])
                return Projection(point=np.asarray(chart(u), float), u=u)
            a = math.atan2(q[1], q[0]) % (2.0 * math.pi)
            ring_pt = np.array([big * q[0] / rho, big * q[1] / rho, 0.0])
            w = np.asarray(q, float) - ring_pt
            nw = float(np.linalg.norm(w))
            if nw <= _TIE_TOL:
                warnings.warn(
                    "query on the torus core circle; returning the "
                    "smallest-lexicographic poloidal angle",
                    DegenerateProjectionWarning,
                    stacklevel=3,
                )
                b = 0.0
            else:
                b = math.atan2(q[2], rho - big) % (2.0 * math.pi)
            u = np.array([a, b])
            return Projection(point=np.asarray(chart(u), float), u=u)

        def curvature(u):
            cb = np.cos(np.asarray(u, dtype=float)[..., 1])
            return cb / (small * (big + small * cb))

        box = [[0.0, 2.0 * math.pi]] * 2
        return cls._from_chart(
            "torus", expressions, box, (True, True), project, curvature
        )

    @classmethod
    def parametric(
        cls,
        bounds: Sequence[Sequence[float]],
        expressions: Sequence[str],
        periodic: Sequence[bool] | None = None,
    ) -> "ManifoldSpec":
        """Chart from one expression string per ambient coordinate over the
        parameters u1..ud, parsed once; its Jacobian and second partials are
        differentiated symbolically from that parse, and a chart with d >= 2
        gets its mean sectional curvature from the Gauss equation."""
        periodic = () if periodic is None else periodic
        return cls._from_chart("parametric", expressions, bounds, periodic)


def _grid(axes: list[Array]) -> Array:
    # the points (m, d) of the product of the axes, the last axis fastest
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _inner(a: Array, b: Array) -> Array:
    # batched dot products over the last axis, one matmul per point, so a
    # point gets the same bits alone and in any batch
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _gauss_equation(
    jacobian: Callable, hessian: Callable, d: int
) -> Callable[[Array], Array]:
    """Mean sectional curvature Scal / (d (d - 1)) of a chart d-manifold in
    any codimension, from its batched first and second partials, u (..., d)
    -> J (..., n, d) and H (..., n, d, d).

    The Gauss equation gives Scal = |H|^2 - g^ik g^jl <h_ij, h_kl>, where
    h_ij = X_ij - J g^-1 J^T X_ij is the normal part of the second partial
    X_ij, g = J^T J and H = g^ij h_ij (do Carmo, Riemannian Geometry, ch. 6);
    for a surface the result is the Gaussian curvature K.  A point whose
    normalized Gram determinant det g / prod_i g_ii is at most PARALLEL_TOL
    raises RankDeficientError.
    """

    def curvature(u):
        jac, hess = jacobian(u), hessian(u)
        jac_t = np.swapaxes(jac, -1, -2)
        g = jac_t @ jac
        scale = np.prod(np.diagonal(g, axis1=-2, axis2=-1), axis=-1)
        singular = ~(np.linalg.det(g) > PARALLEL_TOL * scale)
        if np.any(singular):
            at = np.asarray(u, dtype=float)[singular][0]
            raise RankDeficientError(f"chart metric singular at u={at}")
        ginv = np.linalg.inv(g)
        batch, n = jac.shape[:-2], jac.shape[-2]
        second = hess.reshape(batch + (n, d * d))
        normal = second - jac @ (ginv @ (jac_t @ second))
        mean = (normal @ ginv.reshape(batch + (d * d, 1)))[..., 0]
        # per ambient axis a, the shape operator g^-1 h^a; the squared norm
        # of h is the sum over a of tr(g^-1 h^a g^-1 h^a)
        shape = ginv[..., None, :, :] @ normal.reshape(batch + (n, d, d))
        flat = shape.reshape(batch + (n * d * d,))
        flat_t = np.swapaxes(shape, -1, -2).reshape(batch + (n * d * d,))
        return (_inner(mean, mean) - _inner(flat, flat_t)) / (d * (d - 1))

    return curvature


def make_manifold(kind: str, **params) -> ManifoldSpec:
    """The ManifoldSpec constructor of that name (case-insensitive) applied
    to params; used by config and estimator ingestion."""
    constructor = {
        "plane": ManifoldSpec.plane,
        "sphere": ManifoldSpec.sphere,
        "torus": ManifoldSpec.torus,
        "parametric": ManifoldSpec.parametric,
    }.get(kind.lower())
    if constructor is None:
        raise ValueError(f"unknown manifold kind {kind!r}")
    return constructor(**params)


@dataclass(frozen=True, eq=False)
class TangentFrame:
    """Orthonormal bases of the tangent and normal spaces at a point."""

    point: Array  # (n,)
    tangent_basis: Array  # (d, n) rows
    normal_basis: Array  # (n - d, n) rows

    def validate(self, tol: float = 1e-10) -> None:
        basis = np.vstack([self.tangent_basis, self.normal_basis])
        n = self.point.shape[0]
        if basis.shape != (n, n):
            raise RankDeficientError("frame does not span the ambient space")
        gram = basis @ basis.T
        if np.max(np.abs(gram - np.eye(n))) > tol:
            raise RankDeficientError("frame basis is not orthonormal")


class Projection(NamedTuple):
    point: Array  # closest point on M
    u: Array  # chart parameter of the closest point


def _check_param(spec: ManifoldSpec, u) -> Array:
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.shape[0] != spec.intrinsic_dim:
        raise OutOfDomainError(
            f"u has dimension {u.shape[0]}, expected {spec.intrinsic_dim}"
        )
    lo, hi = spec.param_bounds[:, 0], spec.param_bounds[:, 1]
    slack = _BOUNDS_TOL * spec.extents
    if np.any(u < lo - slack) or np.any(u > hi + slack):
        raise OutOfDomainError(f"u={u} outside parameter bounds")
    return u


def tangent_frame(spec: ManifoldSpec, u) -> TangentFrame:
    """Orthonormal tangent/normal frame at chart(u), from one complete QR
    factorization J = QR of the chart Jacobian.

    The tangent rows are Q's first d columns signed by diag(R), which is the
    ordered Gram-Schmidt orthonormalization of the Jacobian columns.  The
    normal rows are Q's remaining columns, each signed so that its first
    entry above 1e-8 in magnitude is positive; in codimension 1 that is the
    completion by the first ambient axis the tangent plane does not contain.
    """
    u = _check_param(spec, u)
    jac = spec.jacobian_fn(u)
    d = spec.intrinsic_dim
    q, r = np.linalg.qr(jac, mode="complete")
    pivots = np.diag(r)
    col_scale = max(float(np.max(np.linalg.norm(jac, axis=0))), 1e-300)
    rank = int(np.count_nonzero(np.abs(pivots) > 1e-8 * col_scale))
    if rank < d:
        raise RankDeficientError(
            f"chart Jacobian has column rank {rank} < {d} at u={u}"
        )
    normal = q[:, d:].T
    lead = np.argmax(np.abs(normal) > 1e-8, axis=1)
    frame = TangentFrame(
        point=np.asarray(spec.chart_fn(u), dtype=float),
        tangent_basis=q[:, :d].T * np.sign(pivots)[:, None],
        normal_basis=normal * np.sign(normal[np.arange(len(lead)), lead])[:, None],
    )
    frame.validate()
    return frame


def decompose(frame: TangentFrame, vec) -> tuple[Array, Array]:
    """Split an ambient vector into tangential and normal parts at the frame."""
    vec = np.asarray(vec, dtype=float)
    t_part = frame.tangent_basis.T @ (frame.tangent_basis @ vec)
    n_part = frame.normal_basis.T @ (frame.normal_basis @ vec)
    return t_part, n_part


# ---------------------------------------------------------------------------
# Closest-point projection
# ---------------------------------------------------------------------------


def _wrap_parameter(spec: ManifoldSpec, u: Array) -> Array:
    out = np.array(u, dtype=float)
    for k, per in enumerate(spec.periodic):
        lo, hi = spec.param_bounds[k]
        if per:
            out[k] = lo + np.mod(out[k] - lo, hi - lo)
        else:
            out[k] = min(max(out[k], lo), hi)
    return out


def closest_point(spec: ManifoldSpec, q) -> Projection:
    """Closest point on M to the ambient point q.

    A spec with a projection_fn returns its closed form (the built-ins warn
    about equidistant ties and break them toward the smallest-lexicographic
    parameter).  Other specs run damped Gauss-Newton from the nearest point
    of their coarse seed grid, for at most _GN_MAX_ITERS steps.  Candidates
    wrap on periodic axes and are clamped into the box on the others; each
    step halves its damping until the objective decreases or the step t*|d|
    falls below _GN_STEP_TOL, and a step moving u by less than _GN_STEP_TOL
    ends the projection.  Each chart image is evaluated once: the accepted
    candidate's image is the next residual and the returned point.
    """
    q = np.asarray(q, dtype=float).reshape(-1)
    if q.shape[0] != spec.ambient_dim or not np.all(np.isfinite(q)):
        raise ValueError("query point must be a finite ambient vector")
    if spec.projection_fn is not None:
        return spec.projection_fn(q)

    grid, images = spec.seed_grid
    # a copy: the returned u must not alias the cached grid
    u = grid[int(np.argmin(np.sum((images - q) ** 2, axis=-1)))].copy()
    point = np.asarray(spec.chart_fn(u), dtype=float)
    residual = point - q
    f = float(residual @ residual)
    for _ in range(_GN_MAX_ITERS):
        jac = spec.jacobian_fn(u)
        grad = jac.T @ residual
        hess = jac.T @ jac
        try:
            direction = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            direction = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        dnorm = float(np.linalg.norm(direction))
        applied = 0.0
        t = 1.0
        # a NaN direction fails the test and ends the projection
        while t * dnorm >= _GN_STEP_TOL:
            cand = _wrap_parameter(spec, u + t * direction)
            cand_point = np.asarray(spec.chart_fn(cand), dtype=float)
            cand_residual = cand_point - q
            f_cand = float(cand_residual @ cand_residual)
            if f_cand < f:
                # the move before wrapping: a seam crossing is a short step
                move = np.where(spec.periodic, t * direction, cand - u)
                applied = float(np.linalg.norm(move))
                u, point, residual, f = cand, cand_point, cand_residual, f_cand
                break
            t *= 0.5
        if applied < _GN_STEP_TOL:
            # no decrease above the step floor, or a step below it
            return Projection(point=point, u=u)
    raise NoConvergenceError(
        f"Gauss-Newton projection did not converge within {_GN_MAX_ITERS} iterations"
    )


def distance_to_manifold(spec: ManifoldSpec, q) -> float:
    proj = closest_point(spec, q)
    return float(np.linalg.norm(np.asarray(q, dtype=float) - proj.point))


# ---------------------------------------------------------------------------
# Curvature
# ---------------------------------------------------------------------------


def metric(spec: ManifoldSpec, u) -> Array:
    """Pullback metric g = J^T J at a parameter point."""
    jac = spec.jacobian_fn(np.asarray(u, dtype=float))
    return jac.T @ jac


def _require_stencil_interior(spec: ManifoldSpec, u: Array, widths: Array):
    for k, per in enumerate(spec.periodic):
        if per:
            continue
        lo, hi = spec.param_bounds[k]
        if u[k] - widths[k] < lo or u[k] + widths[k] > hi:
            raise StencilOutOfDomainError(
                f"axis {k}: stencil of half-width {widths[k]:g} at u={u} "
                f"leaves [{lo:g}, {hi:g}]"
            )


def curvature_tensor(spec: ManifoldSpec, u) -> tuple[Array, Array, Array]:
    """Metric, Christoffel symbols, and coordinate Riemann tensor at u.

    Everything is assembled from central differences of the metric with
    per-axis step h, a fixed share of each axis extent:
    Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    and R^l_ijk = d_i Gamma^l_jk - d_j Gamma^l_ik
                  + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik,
    with the Christoffel derivatives expanded through first and second metric
    derivatives so only one finite-difference layer touches the chart.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    d = spec.intrinsic_dim
    h = _GEO_REL_STEP * spec.extents
    _require_stencil_interior(spec, u, h * (1.0 + 1e-9))

    def g_at(offset):
        return metric(spec, u + offset)

    eye = np.eye(d)
    g0 = g_at(np.zeros(d))
    gp = np.array([g_at(h[i] * eye[i]) for i in range(d)])
    gm = np.array([g_at(-h[i] * eye[i]) for i in range(d)])

    dg = np.array([(gp[i] - gm[i]) / (2.0 * h[i]) for i in range(d)])

    ddg = np.zeros((d, d, d, d))
    for i in range(d):
        ddg[i, i] = (gp[i] - 2.0 * g0 + gm[i]) / (h[i] * h[i])
        for j in range(i + 1, d):
            hpp = g_at(h[i] * eye[i] + h[j] * eye[j])
            hpm = g_at(h[i] * eye[i] - h[j] * eye[j])
            hmp = g_at(-h[i] * eye[i] + h[j] * eye[j])
            hmm = g_at(-h[i] * eye[i] - h[j] * eye[j])
            mixed = (hpp - hpm - hmp + hmm) / (4.0 * h[i] * h[j])
            ddg[i, j] = mixed
            ddg[j, i] = mixed

    ginv = np.linalg.inv(g0)
    # S[i,j,l] = d_i g_jl + d_j g_il - d_l g_ij
    s = (
        dg
        + np.einsum("jil->ijl", dg)
        - np.einsum("lij->ijl", dg)
    )
    gamma = 0.5 * np.einsum("kl,ijl->kij", ginv, s)

    dginv = -np.einsum("ab,ibc,cd->iad", ginv, dg, ginv)
    ds = (
        ddg
        + np.einsum("ikjm->ijkm", ddg)
        - np.einsum("imjk->ijkm", ddg)
    )
    dgamma = 0.5 * (
        np.einsum("ilm,jkm->iljk", dginv, s)
        + np.einsum("lm,ijkm->iljk", ginv, ds)
    )

    riemann = (
        np.einsum("iljk->lijk", dgamma)
        - np.einsum("jlik->lijk", dgamma)
        + np.einsum("lim,mjk->lijk", gamma, gamma)
        - np.einsum("ljm,mik->lijk", gamma, gamma)
    )
    return g0, gamma, riemann


def mean_sectional_curvature(spec: ManifoldSpec, u) -> Array:
    """Scal / (d (d - 1)), the mean sectional curvature over the tangent
    2-planes at chart(u) (a surface's Gaussian curvature), from the spec's
    curvature_fn, at one parameter point (d,) or a batch (..., d) of them.
    A spec without one, such as a curve, raises DegeneratePlaneError."""
    u = np.asarray(u, dtype=float)
    d = spec.intrinsic_dim
    if u.ndim == 0 or u.shape[-1] != d:
        raise ValueError(f"parameter points need {d} coordinates, not {u.shape}")
    if spec.curvature_fn is None:
        raise DegeneratePlaneError(
            f"no curvature for this {spec.kind!r} manifold of dimension {d}"
        )
    return spec.curvature_fn(u)


def _canonical_pair(g: Array, v: Array, w: Array):
    """Metric-normalize, order, and orthonormalize tangent pairs, the rows
    of v and w (k, d).

    Sectional curvature depends only on the unordered plane span{v, w}; the
    canonical representative (the lexicographically smaller unit vector
    first) makes the documented scale and swap invariances hold to rounding
    instead of finite-difference truncation.
    """
    nv = np.sqrt(_inner(v @ g, v))
    nw = np.sqrt(_inner(w @ g, w))
    if np.any(nv == 0.0) or np.any(nw == 0.0):
        raise DegeneratePlaneError("tangent vectors must be nonzero")
    vh, wh = v / nv[:, None], w / nw[:, None]
    cos = _inner(vh @ g, wh)
    gram = 1.0 - cos * cos
    if np.any(gram <= PARALLEL_TOL):
        raise DegeneratePlaneError(
            f"tangent plane degenerate: normalized Gram determinant "
            f"{np.min(gram):g} <= {PARALLEL_TOL:g}"
        )
    rows = np.arange(len(vh))
    first = np.argmax(vh != wh, axis=1)  # the first coordinate that differs
    swap = (vh[rows, first] > wh[rows, first])[:, None]
    a, b = np.where(swap, wh, vh), np.where(swap, vh, wh)
    b_perp = b - _inner(a @ g, b)[:, None] * a
    return a, b_perp / np.sqrt(_inner(b_perp @ g, b_perp))[:, None]


def sectional_curvature(spec: ManifoldSpec, u, v, w):
    """Sectional curvature K(v, w) = <R(v,w)w, v> / (<v,v><w,w> - <v,w>^2)
    in the pullback metric, for chart-coordinate tangent vectors v, w: one
    pair (d,) gives a float, k pairs (k, d) an array (k,).

    This is the finite-difference reference: every pair reads the one
    Riemann tensor that curvature_tensor assembles at u.  The exact mean
    over the planes, which on a surface is every plane's K, is
    mean_sectional_curvature.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    g0, _, riemann = curvature_tensor(spec, u)
    a, b = _canonical_pair(g0, np.atleast_2d(v), np.atleast_2d(w))
    lowered = np.einsum("lm,lijk->mijk", g0, riemann)
    numerator = np.einsum("mijk,pm,pi,pj,pk->p", lowered, a, a, b, b)
    ga, gb = a @ g0, b @ g0
    denominator = _inner(ga, a) * _inner(gb, b) - _inner(ga, b) ** 2
    k = numerator / denominator
    return float(k[0]) if np.ndim(v) == 1 else k
