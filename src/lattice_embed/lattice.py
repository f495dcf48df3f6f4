"""Lattice generation, the interpolated extension of the embedding map, its
Jacobian, and the injectivity / linear-map checks."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import EmptyLatticeError, OutOfHullError
from .energy import alignment
from .geometry import ManifoldSpec, _grid, closest_point, tangent_frame
from .validation import check_distinct_rows, check_points_array

Array = np.ndarray

# snap-to-node tolerance for interpolation cell coordinates, in cell units
_NODE_SNAP = 1e-9
# rows of the pairwise-distance matrix that check_injective_invert holds at once
_PAIR_BLOCK_ROWS = 256


@dataclass(frozen=True, eq=False)
class LatticeSpec:
    """Axis-aligned grid: lower + k * spacing per axis, inside the bounds."""

    bounds: Array  # (n, 2) rows of (lower, upper), read-only
    spacing: float
    axis_counts: tuple[int, ...] = field(init=False)
    # per axis (lower, hull limit, node count, flat stride), as Python numbers
    # for the interpolation kernel
    _axes: tuple[tuple[float, float, int, int], ...] = field(init=False, repr=False)

    def __post_init__(self):
        bounds = np.atleast_2d(np.array(self.bounds, dtype=float))
        bounds.flags.writeable = False
        object.__setattr__(self, "bounds", bounds)
        # negated comparison, so that NaN fails it
        if not 0.0 < self.spacing < math.inf:
            raise ValueError("spacing must be positive and finite")
        if not np.all(np.isfinite(bounds)):
            raise ValueError("bounds must be finite")
        if np.any(bounds[:, 0] > bounds[:, 1]):
            raise EmptyLatticeError("bounds need lower <= upper per axis")
        spans = bounds[:, 1] - bounds[:, 0]
        # the epsilon absorbs float noise in span / spacing
        counts = tuple(
            int(math.floor(span / self.spacing + 1e-9)) + 1 for span in spans
        )
        object.__setattr__(self, "axis_counts", counts)
        axes = tuple(
            (
                lo,
                # the last node, widened by the snap tolerance
                lo + self.spacing * (count - 1) + _NODE_SNAP * self.spacing,
                count,
                math.prod(counts[k + 1 :]),  # last axis fastest
            )
            for k, (lo, count) in enumerate(zip(bounds[:, 0].tolist(), counts))
        )
        object.__setattr__(self, "_axes", axes)

    @property
    def dim(self) -> int:
        return self.bounds.shape[0]


def generate_lattice(spec: LatticeSpec) -> Array:
    """All lattice points in lexicographic order (last axis fastest)."""
    return _grid(
        [
            spec.bounds[k, 0] + spec.spacing * np.arange(count)
            for k, count in enumerate(spec.axis_counts)
        ]
    )


@dataclass(frozen=True, eq=False)
class EmbeddingEntry:
    point: Array  # lattice point q, a read-only view of the map's points
    image: Array  # zeta(q), a read-only view of the map's images
    residual_norm: float
    energy: float
    iterations: int
    converged: bool
    skipped: bool = False
    error: str | None = None  # the solver's message for a point that raised


# the per-point diagnostic columns of an EmbeddingMap and their dtypes
_COLUMNS = dict(
    residual_norm=float, energy=float, iterations=int, converged=bool, skipped=bool
)


@dataclass(frozen=True, eq=False)
class EmbeddingMap:
    """Finite association q -> zeta(q) plus per-point solve diagnostics, held
    as columns: the (m, n) points and images, one (m,) array per diagnostic
    and one error message or None per point.

    An immutable value: every array is a read-only copy made here, so
    nothing derived from them goes stale.  The map carries no energy state:
    the energy is a function of its parameters alone, so verify_stationarity
    re-evaluates it from them."""

    _points: Array
    _images: Array
    residual_norm: Array
    energy: Array
    iterations: Array
    converged: Array
    skipped: Array
    errors: tuple[str | None, ...]
    # the last lattice whose nodes, in order, the points were checked to be:
    # the interpolation checks each (map, lattice) pair once, not per query
    _matched: LatticeSpec | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for name, dtype in {"_points": float, "_images": float, **_COLUMNS}.items():
            column = np.array(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "errors", tuple(self.errors))
        if self._points.ndim != 2 or self._images.shape != self._points.shape:
            raise ValueError("points and images must be 2-d with matching shapes")
        if any(len(getattr(self, name)) != len(self) for name in (*_COLUMNS, "errors")):
            raise ValueError("every diagnostic column needs one row per point")
        check_distinct_rows(self._points, "map")

    def __len__(self) -> int:
        return len(self._points)

    def points(self) -> Array:
        return self._points.copy()

    def images(self) -> Array:
        return self._images.copy()

    @property
    def entries(self) -> tuple[EmbeddingEntry, ...]:
        """One entry per point, built from the columns on each read."""
        diagnostics = (getattr(self, name).tolist() for name in _COLUMNS)
        rows = zip(self._points, self._images, *diagnostics, self.errors)
        return tuple(EmbeddingEntry(*row) for row in rows)

    @cached_property
    def _image_rows(self) -> tuple[tuple[float, ...], ...]:
        """The image rows as Python floats, for the interpolation kernel."""
        return tuple(map(tuple, self._images.tolist()))

    @classmethod
    def from_pairs(cls, points, images) -> "EmbeddingMap":
        """The map q -> zeta(q) of finite pairs, each point converged with
        zero residual and energy; a 1-d pair is one point."""
        points = check_points_array(points, name="points")
        images = check_points_array(images, name="images")
        m = len(points)
        zeros = np.zeros(m)
        converged = np.ones(m, dtype=bool)
        return cls(points, images, zeros, zeros, zeros, converged, zeros, (None,) * m)


def _node_rows(emap: EmbeddingMap, lattice: LatticeSpec) -> tuple:
    """The map's image rows, once its points are the lattice's nodes in
    generate_lattice order, row for row: the kernel reads a node's image by
    its flat index alone."""
    if emap._matched is not lattice:
        expected = math.prod(lattice.axis_counts)
        if len(emap) != expected:
            raise ValueError(
                f"map has {len(emap)} entries but the lattice has {expected} points"
            )
        if not np.array_equal(emap._points, generate_lattice(lattice)):
            raise ValueError(
                "map points are not the lattice nodes in generate_lattice order"
            )
        object.__setattr__(emap, "_matched", lattice)
    return emap._image_rows


def _interpolate(rows: tuple, lattice: LatticeSpec, x: list) -> list:
    """Multilinear interpolation at x (Python floats) of the node images,
    rows in generate_lattice order.

    Corners run with axis 0 fastest, a corner's weight multiplies its axis
    factors in axis order from 1.0, and each image component adds the
    corners in that order from 0.0.  An axis on which x sits at a node, or
    that has one node, contributes the factor 1 of that node alone: the
    other corners would carry weight 0 and are skipped."""
    spacing = lattice.spacing
    base = 0  # flat row of the corner nearest the lower bounds
    weights = [1.0]
    offsets = [0]
    for k, (xk, (lo, limit, count, stride)) in enumerate(zip(x, lattice._axes)):
        cell = (xk - lo) / spacing
        # negated comparison, so that NaN fails it
        if not (cell >= -_NODE_SNAP and xk <= limit):
            raise OutOfHullError(f"x={np.array(x)} outside the lattice hull on axis {k}")
        if count == 1:
            continue
        i = math.floor(cell)
        t = cell - i
        # snap to the next node; cell -1 lies within the snap of node 0
        if t > 1.0 - _NODE_SNAP or i < 0:
            i += 1
            t = 0.0
        elif t < _NODE_SNAP:
            t = 0.0
        i = min(i, count - 1)
        base += i * stride
        # the top node has no cell above it: the node alone, whatever t is
        if t != 0.0 and i < count - 1:
            lower = 1.0 - t
            weights = [w * lower for w in weights] + [w * t for w in weights]
            offsets += [r + stride for r in offsets]
    out = []
    for column in zip(*(rows[base + r] for r in offsets)):
        total = 0.0
        for w, z in zip(weights, column):
            total += w * z
        out.append(total)
    return out


def extend_map(emap: EmbeddingMap, lattice: LatticeSpec, x) -> Array:
    """Multilinear interpolation of the stored images over the enclosing
    cell; exact at lattice nodes and exact for affine maps."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != lattice.dim:
        raise OutOfHullError(
            f"query dimension {x.shape[0]} != lattice dimension {lattice.dim}"
        )
    return np.array(_interpolate(_node_rows(emap, lattice), lattice, x.tolist()))


def jacobian_of_extension(
    emap: EmbeddingMap, lattice: LatticeSpec, x, step: float
) -> Array:
    """Central-difference Jacobian of extend_map; needs step < spacing / 4
    and the stencil inside the hull."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if not 0.0 < step < lattice.spacing / 4.0:
        raise ValueError("step must lie in (0, spacing / 4)")
    n = x.shape[0]
    if n != lattice.dim:
        raise OutOfHullError(f"query dimension {n} != lattice dimension {lattice.dim}")
    rows = _node_rows(emap, lattice)
    x = x.tolist()
    jac = np.zeros((n, n))
    for k in range(n):
        # x +- step e_k as the elementwise sum x +- offset, so that the other
        # axes get x_j + 0.0 too (which turns -0.0 into 0.0)
        offset = [step if j == k else 0.0 for j in range(n)]
        plus = _interpolate(rows, lattice, [a + b for a, b in zip(x, offset)])
        minus = _interpolate(rows, lattice, [a - b for a, b in zip(x, offset)])
        jac[:, k] = [(p - m) / (2.0 * step) for p, m in zip(plus, minus)]
    return jac


@dataclass(frozen=True, eq=False)
class InjectivityReport:
    injective: bool
    min_pair_distance: float
    inverse: dict | None  # image tuple -> lattice point tuple
    colliding_pair: tuple[int, int] | None


def check_injective_invert(emap: EmbeddingMap, tol: float) -> InjectivityReport:
    """Pairwise-distance injectivity check; on success also the finite
    inverse table satisfying inverse[zeta(q)] == q for every entry.  A
    collision reports the first closest pair in row-major order."""
    if len(emap) == 0:
        raise ValueError("map is empty")
    images = emap._images
    m = images.shape[0]
    # Row blocks keep memory linear in m; the smallest entry of each block
    # and its row-major index reproduce argmin over the full m x m matrix.
    block_min, block_arg = [], []
    for start in range(0, m, _PAIR_BLOCK_ROWS):
        diff = images[start : start + _PAIR_BLOCK_ROWS, None, :] - images[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        rows = np.arange(dist.shape[0])
        dist[rows, start + rows] = np.inf
        k = int(np.argmin(dist))
        block_min.append(dist.flat[k])
        block_arg.append(start * m + k)
    best = int(np.argmin(block_min))
    min_dist = float(block_min[best])
    if min_dist <= tol:
        i, j = divmod(block_arg[best], m)
        return InjectivityReport(False, min_dist, None, (i, j))
    inverse = dict(zip(emap._image_rows, map(tuple, emap._points.tolist())))
    return InjectivityReport(True, min_dist, inverse, None)


def residual_jacobian_derivative(q, i: int, j: int) -> float:
    """Derivative of the i-th component of q - Jq with respect to the
    Jacobian entry (i, j): always -q_j, independent of i and of J."""
    q = np.asarray(q, dtype=float).reshape(-1)
    if not 0 <= i < q.shape[0] or not 0 <= j < q.shape[0]:
        raise IndexError("entry indices must address the Jacobian of q")
    return -float(q[j])


def alignment_of_linear_map(
    J, samples: Sequence, spec: ManifoldSpec, params
) -> float:
    """Summed alignment energy of the linear candidate map q -> Jq over the
    samples, frames taken at each sample's closest point.  Zero exactly at
    J = I and positive elsewhere whenever the samples span the space."""
    J = np.asarray(J, dtype=float)
    total = 0.0
    for q in samples:
        q = np.asarray(q, dtype=float).reshape(-1)
        frame = tangent_frame(spec, closest_point(spec, q).u)
        total += alignment(params, frame, J @ q, q)
    return total
