"""Lattice generation, the interpolated extension of the embedding map, its
Jacobian, and the injectivity / linear-map checks."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyLatticeError, OutOfHullError
from .geometry import ManifoldSpec, closest_point, decompose, tangent_frame

Array = np.ndarray

# snap-to-node tolerance for interpolation cell coordinates, in cell units
_NODE_SNAP = 1e-9
# rows of the pairwise-distance matrix that check_injective_invert holds at once
_PAIR_BLOCK_ROWS = 256


@dataclass(frozen=True, eq=False)
class LatticeSpec:
    """Axis-aligned grid: lower + k * spacing per axis, inside the bounds."""

    bounds: Array  # (n, 2) rows of (lower, upper)
    spacing: float

    def __post_init__(self):
        bounds = np.atleast_2d(np.asarray(self.bounds, dtype=float))
        object.__setattr__(self, "bounds", bounds)
        if self.spacing <= 0.0:
            raise ValueError("spacing must be positive")
        if np.any(bounds[:, 0] > bounds[:, 1]):
            raise EmptyLatticeError("lattice bounds need lower <= upper per axis")

    @property
    def dim(self) -> int:
        return self.bounds.shape[0]

    @property
    def axis_counts(self) -> tuple[int, ...]:
        spans = self.bounds[:, 1] - self.bounds[:, 0]
        # the epsilon absorbs float noise in span / spacing
        return tuple(
            int(math.floor(span / self.spacing + 1e-9)) + 1 for span in spans
        )


def generate_lattice(spec: LatticeSpec) -> Array:
    """All lattice points in lexicographic order (last axis fastest)."""
    axes = [
        spec.bounds[k, 0] + spec.spacing * np.arange(count)
        for k, count in enumerate(spec.axis_counts)
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


@dataclass(eq=False)
class EmbeddingEntry:
    point: Array  # lattice point q
    image: Array  # zeta(q)
    residual_norm: float
    energy: float
    iterations: int
    converged: bool
    skipped: bool = False


@dataclass(eq=False)
class EmbeddingMap:
    """Finite association q -> zeta(q) plus per-point solve diagnostics.

    The map carries no quadrature state: the run's one rule follows from the
    energy parameters, so verify_stationarity rebuilds it from them."""

    entries: list[EmbeddingEntry]

    def __post_init__(self):
        seen = set()
        for entry in self.entries:
            key = tuple(np.asarray(entry.point, dtype=float))
            if key in seen:
                raise ValueError(f"duplicate lattice point {key} in map")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.entries)

    def points(self) -> Array:
        return np.array([e.point for e in self.entries])

    def images(self) -> Array:
        return np.array([e.image for e in self.entries])

    @classmethod
    def from_pairs(cls, points, images) -> "EmbeddingMap":
        points = np.asarray(points, dtype=float)
        images = np.asarray(images, dtype=float)
        if points.shape != images.shape:
            raise ValueError("points and images must have matching shapes")
        entries = [
            EmbeddingEntry(
                point=p.copy(),
                image=z.copy(),
                residual_norm=0.0,
                energy=0.0,
                iterations=0,
                converged=True,
            )
            for p, z in zip(points, images)
        ]
        return cls(entries=entries)


def _grid_images(emap: EmbeddingMap, lattice: LatticeSpec) -> Array:
    counts = lattice.axis_counts
    expected = int(np.prod(counts))
    if len(emap) != expected:
        raise ValueError(
            f"map has {len(emap)} entries but the lattice has {expected} points"
        )
    images = emap.images()
    return images.reshape(counts + (images.shape[-1],))


def extend_map(emap: EmbeddingMap, lattice: LatticeSpec, x) -> Array:
    """Multilinear interpolation of the stored images over the enclosing
    cell; exact at lattice nodes and exact for affine maps."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != lattice.dim:
        raise OutOfHullError(
            f"query dimension {x.shape[0]} != lattice dimension {lattice.dim}"
        )
    counts = lattice.axis_counts
    grid = _grid_images(emap, lattice)
    idx = np.zeros(lattice.dim, dtype=int)
    frac = np.zeros(lattice.dim)
    for k in range(lattice.dim):
        lo = lattice.bounds[k, 0]
        hi = lo + lattice.spacing * (counts[k] - 1)
        cell = (x[k] - lo) / lattice.spacing
        if cell < -_NODE_SNAP or x[k] > hi + _NODE_SNAP * lattice.spacing:
            raise OutOfHullError(f"x={x} outside the lattice hull on axis {k}")
        i = int(math.floor(cell))
        t = cell - i
        if t > 1.0 - _NODE_SNAP:  # snap to the next node
            i += 1
            t = 0.0
        elif t < _NODE_SNAP:
            t = 0.0
        i = min(max(i, 0), counts[k] - 1)
        if i == counts[k] - 1 and counts[k] > 1:
            # top node: interpolate from the last cell with t = 1
            i -= 1
            t = 1.0
        idx[k] = i
        frac[k] = t

    out = np.zeros(grid.shape[-1])
    for corner in range(2 ** lattice.dim):
        weight = 1.0
        pos = []
        for k in range(lattice.dim):
            bit = (corner >> k) & 1
            if counts[k] == 1:
                if bit:
                    weight = 0.0
                pos.append(idx[k])
                continue
            weight *= frac[k] if bit else (1.0 - frac[k])
            pos.append(idx[k] + bit)
        if weight != 0.0:
            out += weight * grid[tuple(pos)]
    return out


def jacobian_of_extension(
    emap: EmbeddingMap, lattice: LatticeSpec, x, step: float
) -> Array:
    """Central-difference Jacobian of extend_map; needs step < spacing / 4
    and the stencil inside the hull."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if not 0.0 < step < lattice.spacing / 4.0:
        raise ValueError("step must lie in (0, spacing / 4)")
    n = x.shape[0]
    jac = np.zeros((n, n))
    for k in range(n):
        offset = np.zeros(n)
        offset[k] = step
        plus = extend_map(emap, lattice, x + offset)
        minus = extend_map(emap, lattice, x - offset)
        jac[:, k] = (plus - minus) / (2.0 * step)
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
    images = emap.images()
    points = emap.points()
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
    inverse = {tuple(z): tuple(q) for q, z in zip(points, images)}
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
        residual = q - J @ q
        proj = closest_point(spec, q)
        frame = tangent_frame(spec, proj.u)
        t_part, n_part = decompose(frame, residual)
        total += 0.5 * params.alpha * float(t_part @ t_part)
        total += 0.5 * params.beta * float(n_part @ n_part)
    return total
