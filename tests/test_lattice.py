import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_embed.energy import EnergyParams
from lattice_embed.errors import EmptyLatticeError, OutOfHullError
from lattice_embed.geometry import ManifoldSpec
from lattice_embed.lattice import (
    EmbeddingMap,
    LatticeSpec,
    alignment_of_linear_map,
    check_injective_invert,
    extend_map,
    generate_lattice,
    jacobian_of_extension,
    residual_jacobian_derivative,
)

PLANE = ManifoldSpec.plane()


def cube_lattice(spacing=1.0):
    return LatticeSpec(bounds=np.array([[0.0, 2.0]] * 3), spacing=spacing)


# --- generation -------------------------------------------------------------


def test_grid_counts_spacing_one():
    spec = LatticeSpec(bounds=np.array([[0.0, 2.0], [0.0, 2.0]]), spacing=1.0)
    pts = generate_lattice(spec)
    assert pts.shape == (9, 2)


def test_grid_counts_spacing_half():
    spec = LatticeSpec(bounds=np.array([[0.0, 2.0], [0.0, 2.0]]), spacing=0.5)
    assert generate_lattice(spec).shape == (25, 2)


def test_grid_count_float_noise():
    spec = LatticeSpec(bounds=np.array([[0.0, 0.3]]), spacing=0.1)
    assert spec.axis_counts == (4,)


def test_empty_lattice_guard():
    with pytest.raises(EmptyLatticeError):
        LatticeSpec(bounds=np.array([[1.0, 0.0]]), spacing=0.5)


def test_lexicographic_order():
    spec = LatticeSpec(bounds=np.array([[0.0, 1.0], [0.0, 1.0]]), spacing=1.0)
    pts = generate_lattice(spec)
    assert np.array_equal(pts, [[0, 0], [0, 1], [1, 0], [1, 1]])


def test_duplicate_points_rejected():
    with pytest.raises(ValueError):
        EmbeddingMap.from_pairs(np.zeros((2, 3)), np.zeros((2, 3)))


# --- interpolation ----------------------------------------------------------


def test_extension_exact_at_nodes():
    lattice = cube_lattice()
    pts = generate_lattice(lattice)
    rng = np.random.default_rng(3)
    images = rng.standard_normal(pts.shape)
    emap = EmbeddingMap.from_pairs(pts, images)
    for k in (0, 7, 13, 26):
        out = extend_map(emap, lattice, pts[k])
        assert np.array_equal(out, images[k])


def test_extension_identity_midpoint():
    lattice = cube_lattice()
    pts = generate_lattice(lattice)
    emap = EmbeddingMap.from_pairs(pts, pts)
    mid = np.array([0.5, 0.5, 0.5])
    assert np.allclose(extend_map(emap, lattice, mid), mid, atol=1e-15)


def test_extension_affine_exact():
    rng = np.random.default_rng(5)
    lattice = cube_lattice()
    pts = generate_lattice(lattice)
    matrix = rng.standard_normal((3, 3))
    shift = rng.standard_normal(3)
    emap = EmbeddingMap.from_pairs(pts, pts @ matrix.T + shift)
    for _ in range(100):
        x = rng.uniform(0.0, 2.0, size=3)
        out = extend_map(emap, lattice, x)
        assert np.max(np.abs(out - (matrix @ x + shift))) <= 1e-12


def test_extension_out_of_hull():
    lattice = cube_lattice()
    pts = generate_lattice(lattice)
    emap = EmbeddingMap.from_pairs(pts, pts)
    with pytest.raises(OutOfHullError):
        extend_map(emap, lattice, [2.5, 0.5, 0.5])
    with pytest.raises(OutOfHullError):
        extend_map(emap, lattice, [-0.1, 0.5, 0.5])


def test_extension_hull_is_last_node():
    # bounds allow 0..2.5 but spacing 1 puts the last node at 2
    lattice = LatticeSpec(bounds=np.array([[0.0, 2.5]]), spacing=1.0)
    pts = generate_lattice(lattice)
    emap = EmbeddingMap.from_pairs(pts, 2.0 * pts)
    assert np.allclose(extend_map(emap, lattice, [2.0]), [4.0])
    with pytest.raises(OutOfHullError):
        extend_map(emap, lattice, [2.2])


def test_extension_just_below_the_lower_bound_is_the_first_node():
    # x = -1e-9 is cell -1 with t = 1 - 1e-9: it snaps to node 0 like
    # -9e-10 and 0, not to (almost) the image of node 1
    lattice = LatticeSpec(bounds=np.array([[0.0, 2.0]]), spacing=1.0)
    emap = EmbeddingMap.from_pairs(generate_lattice(lattice), [[10.0], [20.0], [30.0]])
    for x in (-1e-9, -9e-10, 0.0):
        assert extend_map(emap, lattice, [x]).tolist() == [10.0], x


def test_jacobian_identity_translation_affine():
    rng = np.random.default_rng(7)
    lattice = cube_lattice()
    pts = generate_lattice(lattice)
    x = np.array([0.9, 1.1, 0.7])

    emap = EmbeddingMap.from_pairs(pts, pts)
    assert np.max(np.abs(jacobian_of_extension(emap, lattice, x, 0.1) - np.eye(3))) <= 1e-10

    emap = EmbeddingMap.from_pairs(pts, pts + np.array([1.0, -2.0, 0.5]))
    assert np.max(np.abs(jacobian_of_extension(emap, lattice, x, 0.1) - np.eye(3))) <= 1e-10

    matrix = rng.standard_normal((3, 3))
    emap = EmbeddingMap.from_pairs(pts, pts @ matrix.T)
    assert np.max(np.abs(jacobian_of_extension(emap, lattice, x, 0.1) - matrix)) <= 1e-8


def test_jacobian_step_guard():
    lattice = cube_lattice()
    pts = generate_lattice(lattice)
    emap = EmbeddingMap.from_pairs(pts, pts)
    with pytest.raises(ValueError):
        jacobian_of_extension(emap, lattice, [1.0, 1.0, 1.0], step=0.3)


# --- the interpolation kernel against the per-corner loop --------------------


def _extend_map_loop(emap, lattice, x):
    """Reference extension: the per-corner loop over all 2^n cell corners,
    with the image grid rebuilt from the entries on every call."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != lattice.dim:
        raise OutOfHullError(
            f"query dimension {x.shape[0]} != lattice dimension {lattice.dim}"
        )
    counts = lattice.axis_counts
    expected = int(np.prod(counts))
    if len(emap) != expected:
        raise ValueError(
            f"map has {len(emap)} entries but the lattice has {expected} points"
        )
    images = emap.images()
    grid = images.reshape(counts + (images.shape[-1],))
    idx = np.zeros(lattice.dim, dtype=int)
    frac = np.zeros(lattice.dim)
    for k in range(lattice.dim):
        lo = lattice.bounds[k, 0]
        hi = lo + lattice.spacing * (counts[k] - 1)
        cell = (x[k] - lo) / lattice.spacing
        if cell < -1e-9 or x[k] > hi + 1e-9 * lattice.spacing:
            raise OutOfHullError(f"x={x} outside the lattice hull on axis {k}")
        i = int(math.floor(cell))
        t = cell - i
        if t > 1.0 - 1e-9 or i < 0:
            i += 1
            t = 0.0
        elif t < 1e-9:
            t = 0.0
        i = min(max(i, 0), counts[k] - 1)
        if i == counts[k] - 1 and counts[k] > 1:
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


def _jacobian_loop(emap, lattice, x, step):
    x = np.asarray(x, dtype=float).reshape(-1)
    n = x.shape[0]
    jac = np.zeros((n, n))
    for k in range(n):
        offset = np.zeros(n)
        offset[k] = step
        plus = _extend_map_loop(emap, lattice, x + offset)
        minus = _extend_map_loop(emap, lattice, x - offset)
        jac[:, k] = (plus - minus) / (2.0 * step)
    return jac


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OutOfHullError as exc:
        return exc


def _assert_same(value, reference):
    if isinstance(reference, OutOfHullError):
        assert isinstance(value, OutOfHullError), value
        assert str(value) == str(reference)
    else:
        assert not isinstance(value, Exception), value
        assert np.array_equal(value, reference)


@st.composite
def _grids_and_queries(draw):
    """A 1-4-D lattice (single-node axes included), seeded images, and
    queries at nodes, within 2e-9 cells of a node, up to 1e-9 cells under
    the lower bound, on a top face, inside the hull, and beyond it by up to
    half a cell."""
    dim = draw(st.integers(1, 4))
    spacing = draw(st.sampled_from([0.1, 0.2, 0.25, 1.0, 0.3]))
    counts = draw(st.lists(st.integers(1, 4), min_size=dim, max_size=dim))
    lower = draw(st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim))
    slack = draw(st.lists(st.floats(0.0, 0.9), min_size=dim, max_size=dim))
    bounds = np.array(
        [
            [lo, lo + spacing * (count - 1) + s * spacing]
            for lo, count, s in zip(lower, counts, slack)
        ]
    )
    lattice = LatticeSpec(bounds=bounds, spacing=spacing)
    nodes = generate_lattice(lattice)
    seed = draw(st.integers(0, 2**32 - 1))
    images = np.random.default_rng(seed).standard_normal(nodes.shape)
    emap = EmbeddingMap.from_pairs(nodes, images)

    queries = []
    for _ in range(draw(st.integers(1, 6))):
        x = []
        for k, count in enumerate(lattice.axis_counts):
            lo = float(lattice.bounds[k, 0])
            node = lo + spacing * draw(st.integers(0, count - 1))
            top = lo + spacing * (count - 1)
            kind = draw(
                st.sampled_from(["node", "near", "below", "top", "inside", "beyond"])
            )
            if kind == "node":
                x.append(node)
            elif kind == "near":
                # either side of the 1e-9-cell snap and hull tolerances
                x.append(node + draw(st.floats(-2e-9, 2e-9)) * spacing)
            elif kind == "below":
                # within the hull tolerance under the lower bound: cell -1
                below = draw(st.one_of(st.just(1e-9), st.floats(0.0, 1e-9)))
                x.append(lo - below * spacing)
            elif kind == "top":
                x.append(top)
            elif kind == "inside":
                x.append(draw(st.floats(lo, top)))
            else:
                past = draw(st.floats(0.0, 0.5)) * spacing
                x.append(draw(st.sampled_from([lo - past, top + past])))
        queries.append(np.array(x))
    step = spacing * draw(st.floats(0.01, 0.24))
    # Jacobian points whose stencils fit the hull, wherever the axis has a
    # cell: at nodes, with a stencil point within 2e-9 cells of a node, and
    # inside.  An axis with one node has no stencil that fits.
    stencil_points = []
    for _ in range(draw(st.integers(1, 4))):
        x = []
        for k, count in enumerate(lattice.axis_counts):
            lo = float(lattice.bounds[k, 0])
            top = lo + spacing * (count - 1)
            node = lo + spacing * draw(st.integers(0, count - 1))
            kind = draw(st.sampled_from(["node", "near", "inside"]))
            if kind == "node":
                value = node
            elif kind == "near":
                value = node + draw(st.sampled_from([-step, step]))
                value += draw(st.floats(-2e-9, 2e-9)) * spacing
            else:
                value = draw(st.floats(lo, top))
            x.append(value if count == 1 else min(max(value, lo + step), top - step))
        stencil_points.append(np.array(x))
    return lattice, emap, queries, stencil_points, step


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_grids_and_queries())
def test_extension_and_jacobian_match_the_corner_loop(case):
    lattice, emap, queries, stencil_points, step = case
    for x in queries:
        _assert_same(
            _outcome(extend_map, emap, lattice, x),
            _outcome(_extend_map_loop, emap, lattice, x),
        )
    for x in stencil_points + queries:
        _assert_same(
            _outcome(jacobian_of_extension, emap, lattice, x, step),
            _outcome(_jacobian_loop, emap, lattice, x, step),
        )


def test_map_values_cannot_go_stale():
    lattice = cube_lattice()
    pts = generate_lattice(lattice)
    images = np.random.default_rng(23).standard_normal(pts.shape)
    emap = EmbeddingMap.from_pairs(pts, images)
    entry = emap.entries[4]
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.image = np.zeros(3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        emap.entries = ()
    with pytest.raises(ValueError):
        entry.image[0] = 5.0
    with pytest.raises(ValueError):
        entry.point[0] = 5.0
    with pytest.raises(ValueError):
        lattice.bounds[0, 1] = 9.0
    assert isinstance(emap.entries, tuple)

    x = np.array([0.3, 1.7, 1.2])
    before = extend_map(emap, lattice, x), check_injective_invert(emap, tol=1e-9)
    # points() and images() hand out copies: writing into them changes nothing
    emap.points()[:] = 0.0
    emap.images()[:] = 0.0
    after = extend_map(emap, lattice, x), check_injective_invert(emap, tol=1e-9)
    assert np.array_equal(before[0], after[0])
    assert before[1].min_pair_distance == after[1].min_pair_distance
    assert before[1].inverse == after[1].inverse
    assert np.array_equal(emap.images(), images)


def test_map_size_mismatch_message():
    lattice = cube_lattice()
    pts = generate_lattice(lattice)
    emap = EmbeddingMap.from_pairs(pts[:-1], pts[:-1])
    message = "map has 26 entries but the lattice has 27 points"
    with pytest.raises(ValueError, match=message):
        extend_map(emap, lattice, [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match=message):
        jacobian_of_extension(emap, lattice, [1.0, 1.0, 1.0], step=0.1)


# --- injectivity ------------------------------------------------------------


def test_injectivity_identity():
    lattice = cube_lattice()
    pts = generate_lattice(lattice)
    emap = EmbeddingMap.from_pairs(pts, pts)
    report = check_injective_invert(emap, tol=1e-9)
    assert report.injective
    assert report.min_pair_distance == pytest.approx(1.0)
    for p in pts:
        assert report.inverse[tuple(p)] == tuple(p)


def test_injectivity_collision_detected():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    images = np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 1.0]])
    # constant on two points: not injective
    emap = EmbeddingMap.from_pairs(pts, images)
    report = check_injective_invert(emap, tol=1e-9)
    assert not report.injective
    assert report.colliding_pair == (0, 1)
    assert report.inverse is None


def test_injectivity_survives_small_noise():
    rng = np.random.default_rng(11)
    lattice = cube_lattice()
    pts = generate_lattice(lattice)
    noisy = pts + rng.uniform(-1e-3, 1e-3, size=pts.shape)
    emap = EmbeddingMap.from_pairs(pts, noisy)
    report = check_injective_invert(emap, tol=1e-6)
    assert report.injective
    # triangle inequality: min pairwise distance >= spacing - 2e-3
    assert report.min_pair_distance >= 1.0 - 2e-3


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    m=st.integers(300, 700),
    seed=st.integers(0, 2**32 - 1),
    planted=st.lists(st.tuples(st.integers(0, 443), st.integers(0, 443)), max_size=3),
)
def test_injectivity_blocks_match_full_matrix(m, seed, planted):
    images = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(m, 3))
    for i, j in planted:
        # an exact collision past the first 256-row block, or none if i == j
        images[256 + j % (m - 256)] = images[256 + i % (m - 256)]
    emap = EmbeddingMap.from_pairs(np.arange(3 * m, dtype=float).reshape(m, 3), images)
    report = check_injective_invert(emap, tol=1e-9)
    # reference: the full m x m matrix, first minimum in row-major order
    diff = images[:, None, :] - images[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    dist[np.arange(m), np.arange(m)] = np.inf
    k = int(np.argmin(dist))
    assert report.min_pair_distance == dist.flat[k]
    assert report.injective == (dist.flat[k] > 1e-9)
    expected_pair = None if report.injective else (k // m, k % m)
    assert report.colliding_pair == expected_pair


# --- linear-map energies ----------------------------------------------------


def test_residual_jacobian_derivative_values():
    # math-style 1-based q_2 = 2 is index j = 1 here
    assert residual_jacobian_derivative([1.0, 2.0], 0, 1) == -2.0
    assert residual_jacobian_derivative([0.0, 0.0], 1, 0) == 0.0
    assert residual_jacobian_derivative([1.0, 2.0], 1, 1) == -2.0
    with pytest.raises(IndexError):
        residual_jacobian_derivative([1.0, 2.0], 0, 5)


def test_residual_jacobian_derivative_matches_fd():
    rng = np.random.default_rng(13)
    for _ in range(100):
        q = rng.uniform(-4.0, 4.0, size=3)
        matrix = rng.standard_normal((3, 3))
        i, j = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        h = 1e-2
        plus, minus = matrix.copy(), matrix.copy()
        plus[i, j] += h
        minus[i, j] -= h
        fd = ((q - plus @ q)[i] - (q - minus @ q)[i]) / (2 * h)
        assert abs(residual_jacobian_derivative(q, i, j) - fd) <= 1e-10


def test_alignment_of_linear_map_identity_and_zero():
    rng = np.random.default_rng(17)
    params = EnergyParams(alpha=2.0, beta=3.0)
    samples = rng.uniform(-1.0, 1.0, size=(6, 3))
    assert alignment_of_linear_map(np.eye(3), samples, PLANE, params) == 0.0
    # J = 0 leaves the full residual q, split by the plane frame
    expected = sum(
        0.5 * 2.0 * (q[0] ** 2 + q[1] ** 2) + 0.5 * 3.0 * q[2] ** 2 for q in samples
    )
    value = alignment_of_linear_map(np.zeros((3, 3)), samples, PLANE, params)
    assert value == pytest.approx(expected, rel=1e-12)


def test_alignment_of_linear_map_identity_is_strict_minimum():
    rng = np.random.default_rng(19)
    params = EnergyParams(alpha=1.0, beta=1.0)
    samples = rng.uniform(-2.0, 2.0, size=(8, 3))
    assert np.linalg.matrix_rank(samples) == 3
    for _ in range(20):
        direction = rng.standard_normal((3, 3))
        direction /= np.linalg.norm(direction)
        for t in (0.1, -0.1, 0.01, -0.01):
            value = alignment_of_linear_map(
                np.eye(3) + t * direction, samples, PLANE, params
            )
            assert value > 0.0
