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
