import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_embed.energy import EnergyParams, total_energy
from lattice_embed.geometry import ManifoldSpec, closest_point, tangent_frame
from lattice_embed.lattice import EmbeddingMap, LatticeSpec, generate_lattice
from lattice_embed.solver import (
    SolverConfig,
    descend_point,
    embed_lattice,
    embed_points,
    verify_stationarity,
)

PLANE = ManifoldSpec.plane()
SPHERE = ManifoldSpec.sphere(1.0)
TORUS = ManifoldSpec.torus(2.0, 0.5)

PROJECTION_PARAMS = EnergyParams(alpha=1.0, beta=1.0, gamma=0.0, lam=0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    for grad_tol in (0.0, -1e-6, float("nan")):
        with pytest.raises(ValueError):
            SolverConfig(grad_tol=grad_tol)


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: SolverConfig(max_iters=2.5), "max_iters"),
        (lambda: SolverConfig(max_iters=True), "max_iters"),
        (lambda: SolverConfig(grad_tol=math.inf), "grad_tol"),
        (lambda: EnergyParams(alpha=math.inf), "alpha"),
        (lambda: EnergyParams(gamma=math.inf), "gamma"),
        (lambda: EnergyParams(lam=math.inf), "lam"),
        (lambda: EnergyParams(tube_radius=math.inf), "tube_radius"),
        (lambda: LatticeSpec([[0.0, 1.0]], spacing=math.inf), "spacing"),
    ],
    ids=[
        "max_iters-fraction",
        "max_iters-bool",
        "grad_tol-inf",
        "alpha-inf",
        "gamma-inf",
        "lam-inf",
        "tube_radius-inf",
        "spacing-inf",
    ],
)
def test_value_types_reject_settings_they_cannot_run(build, name):
    # a fractional budget fails inside descent, an infinite weight gives NaN
    # energies, an infinite spacing a lattice of one NaN point; the message
    # starts with the field's name, which config swaps for its key
    with pytest.raises(ValueError, match=f"^{name} "):
        build()


def test_descend_plane_projects():
    q_star, trace = descend_point(
        PROJECTION_PARAMS, PLANE, np.array([1.0, 2.0, 3.0]), SolverConfig()
    )
    assert np.linalg.norm(q_star - np.array([1.0, 2.0, 0.0])) <= 1e-6
    assert trace.converged


def test_descend_sphere_radial():
    q_star, trace = descend_point(
        PROJECTION_PARAMS, SPHERE, np.array([0.0, 0.0, 2.0]), SolverConfig()
    )
    assert np.linalg.norm(q_star - np.array([0.0, 0.0, 1.0])) <= 1e-6
    assert trace.converged


def test_descend_stationary_start_takes_no_steps():
    q_star, trace = descend_point(
        PROJECTION_PARAMS, PLANE, np.array([0.5, -0.5, 0.0]), SolverConfig()
    )
    assert trace.iterations == 0
    assert trace.converged
    assert np.array_equal(q_star, [0.5, -0.5, 0.0])


def test_descend_energy_trace_monotone():
    rng = np.random.default_rng(23)
    for spec, scale in ((PLANE, 0.4), (SPHERE, 0.25), (TORUS, 0.2)):
        for _ in range(10):
            q0 = closest_point(
                spec, rng.uniform(-1, 1, 3) + (np.array([2.0, 0, 0]) if spec is TORUS else 0)
            ).point
            q0 = q0 + rng.uniform(-scale, scale) * (q0 / np.linalg.norm(q0))
            _, trace = descend_point(PROJECTION_PARAMS, spec, q0, SolverConfig())
            energies = trace.energies
            assert all(b < a for a, b in zip(energies, energies[1:]))


def test_embed_lattice_plane_slab():
    lattice = LatticeSpec(
        bounds=np.array([[0.0, 0.4], [0.0, 0.4], [-0.1, 0.1]]), spacing=0.1
    )
    emap, report = embed_lattice(PROJECTION_PARAMS, PLANE, lattice, SolverConfig())
    assert report.attempted == 75 and report.skipped == 0
    assert report.fraction_converged == 1.0
    images = emap.images()
    assert np.max(np.abs(images[:, 2])) <= 1e-6


def test_embed_lattice_far_points_skipped():
    lattice = LatticeSpec(
        bounds=np.array([[0.0, 0.4], [0.0, 0.4], [0.5, 0.5]]), spacing=0.1
    )
    emap, report = embed_lattice(PROJECTION_PARAMS, PLANE, lattice, SolverConfig())
    assert report.attempted == 0
    assert report.skipped == 25
    for entry in emap.entries:
        assert entry.skipped and not entry.converged
        assert np.array_equal(entry.image, entry.point)



_SUPPORT = 2.0 * PROJECTION_PARAMS.tube_radius
# normal offsets in [-0.3, 0.3], at least 1e-9 from the support edge; the
# second strategy puts them close to the edge, on either side of it
_OFFSETS = st.one_of(
    st.floats(-0.3, 0.3).filter(lambda s: abs(abs(s) - _SUPPORT) >= 1e-9),
    st.builds(
        lambda sign, side, gap: sign * (_SUPPORT + side * gap),
        st.sampled_from([-1.0, 1.0]),
        st.sampled_from([-1.0, 1.0]),
        st.floats(2e-9, 0.1),
    ),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(st.floats(0.0, 2.0 * np.pi), st.floats(0.0, 2.0 * np.pi), _OFFSETS),
        min_size=1,
        max_size=4,
    )
)
def test_points_beyond_support_skipped_unchanged(rows):
    # q = X(u) + s nu(u) lies |s| from the torus, since |s| < r = 0.5
    seeds = {}
    for u1, u2, s in rows:
        frame = tangent_frame(TORUS, np.array([u1, u2]))
        q = frame.point + s * frame.normal_basis[0]
        seeds.setdefault(tuple(q.tolist()), (q, s))  # a map holds a point once
    points = np.array([q for q, _ in seeds.values()])
    config = SolverConfig(max_iters=3)
    emap, report = embed_points(PROJECTION_PARAMS, TORUS, points, config)
    beyond = [abs(s) > _SUPPORT for _, s in seeds.values()]
    assert [entry.skipped for entry in emap.entries] == beyond
    assert report.skipped == sum(beyond)
    for q, entry in zip(points, emap.entries):
        if entry.skipped:
            assert entry.image.tobytes() == q.tobytes()
            assert entry.iterations == 0 and not entry.converged
            assert np.isnan(entry.residual_norm) and np.isnan(entry.energy)


def test_embed_entries_equal_points_solved_alone():
    # no state crosses points: each entry is its point descended on its own
    lattice = LatticeSpec(
        bounds=np.array([[0.0, 0.4], [0.0, 0.4], [-0.1, 0.1]]), spacing=0.1
    )
    config = SolverConfig()
    emap, _ = embed_lattice(PROJECTION_PARAMS, PLANE, lattice, config)
    points = generate_lattice(lattice)
    assert len(emap) == len(points) == 75
    for q, entry in zip(points, emap.entries):
        image, trace = descend_point(PROJECTION_PARAMS, PLANE, q, config)
        assert image.tobytes() == entry.image.tobytes()
        assert trace.iterations == entry.iterations
        assert trace.final_residual_norm == entry.residual_norm


def test_embed_points_rejects_bad_rows_before_solving(count_calls):
    solved = count_calls(descend_point)
    points = np.array([[0.0, 0.0, 0.05], [0.1, 0.0, 0.05], [np.nan, 0.0, 0.0]])
    with pytest.raises(ValueError, match="points row 2 contains non-finite"):
        embed_points(PROJECTION_PARAMS, PLANE, points, SolverConfig())
    with pytest.raises(ValueError, match="points has 2 features, expected 3"):
        embed_points(PROJECTION_PARAMS, PLANE, points[:2, :2], SolverConfig())
    assert solved == []


def test_embed_lattice_checks_the_dimension_before_generating(count_calls):
    generated = count_calls(generate_lattice)
    lattice = LatticeSpec(bounds=[(-0.2, 0.2), (-0.2, 0.2)], spacing=0.1)
    with pytest.raises(ValueError, match="lattice dimension 2 != ambient dimension 3"):
        embed_lattice(PROJECTION_PARAMS, PLANE, lattice, SolverConfig())
    assert generated == []


def test_embed_aggregates_per_point_errors():
    # alpha != beta forces frame construction; the z-axis point projects to
    # the sphere pole where the chart is rank-deficient
    params = EnergyParams(alpha=1.0, beta=2.0, tube_radius=2.0)
    points = np.array([[0.0, 0.0, 1.5], [0.0, 1.2, 0.0]])
    emap, report = embed_points(params, SPHERE, points, SolverConfig())
    assert len(report.errors) == 1
    assert "RankDeficient" in report.errors[0]
    assert not emap.entries[0].converged
    assert emap.entries[1].converged


def test_embed_columns_are_the_entries():
    # an errored point, a converged one and one beyond the support
    params = EnergyParams(alpha=1.0, beta=2.0, tube_radius=0.4)
    points = [[0.0, 0.0, 1.5], [0.0, 1.2, 0.0], [0.0, 3.0, 0.0]]
    emap, _ = embed_points(params, SPHERE, points, SolverConfig())
    columns = {
        "residual_norm": np.floating,
        "energy": np.floating,
        "iterations": np.integer,
        "converged": np.bool_,
        "skipped": np.bool_,
    }
    entries = emap.entries
    for name, kind in columns.items():
        column = getattr(emap, name)
        assert column.shape == (3,) and np.issubdtype(column.dtype, kind), name
        assert not column.flags.writeable, name
        # the entries hold Python scalars read from the column
        values = [getattr(entry, name) for entry in entries]
        assert [type(v) for v in values] == [type(v) for v in column.tolist()], name
        assert np.array_equal(column, values, equal_nan=kind is np.floating), name
    assert [entry.error is None for entry in entries] == [False, True, True]
    assert emap.errors == tuple(entry.error for entry in entries)
    assert [entry.skipped for entry in entries] == [False, False, True]
    assert [entry.converged for entry in entries] == [False, True, False]
    assert np.array_equal([entry.image for entry in entries], emap.images())
    assert np.array_equal([entry.point for entry in entries], points)


def test_verify_stationarity_thresholds():
    lattice = LatticeSpec(
        bounds=np.array([[0.0, 0.2], [0.0, 0.2], [0.05, 0.05]]), spacing=0.1
    )
    emap, _ = embed_lattice(PROJECTION_PARAMS, PLANE, lattice, SolverConfig())
    tight = verify_stationarity(PROJECTION_PARAMS, PLANE, emap, tol=1e-5)
    assert tight.pass_fraction == 1.0
    vacuous = verify_stationarity(PROJECTION_PARAMS, PLANE, emap, tol=float("inf"))
    assert vacuous.pass_fraction == 1.0


def test_verify_stationarity_identity_map_off_sphere():
    # unconverged identity "embedding" near the sphere: every off-manifold
    # point has a nonzero residual at tol 1e-12
    rng = np.random.default_rng(29)
    pts = rng.standard_normal((10, 3))
    pts = 1.3 * pts / np.linalg.norm(pts, axis=1, keepdims=True)
    emap = EmbeddingMap.from_pairs(pts, pts)
    report = verify_stationarity(PROJECTION_PARAMS, SPHERE, emap, tol=1e-12)
    assert report.pass_fraction == 0.0
    assert report.worst_norm > 0.1


def test_energy_traces_bounded_below_with_curvature_term():
    # observed boundedness: traces never dip under -gamma * max |C|
    params = EnergyParams(alpha=1.0, beta=1.0, gamma=0.1, lam=0.0, tube_radius=0.1)
    bound = -0.1 * (2 * np.pi) ** 2 * (4.0 / 3.0) - 1e-9
    rng = np.random.default_rng(31)
    for _ in range(5):
        u = rng.uniform(0.3, 6.0, size=2)
        base = TORUS.chart_fn(u)
        normal = base / np.linalg.norm(base)
        q0 = base + 0.05 * normal
        _, trace = descend_point(params, TORUS, q0, SolverConfig(max_iters=40))
        assert min(trace.energies) >= bound


def test_sphere_pole_with_curvature_term_converges():
    # the second row projects to the pole, where the colatitude chart's
    # metric is singular; C there is (2 pi)^2 K all the same
    params = EnergyParams(alpha=1.0, beta=1.0, gamma=0.02, lam=0.0, tube_radius=0.1)
    points = np.array([[0.3, 0.0, 0.98], [0.0, 0.0, 1.05]])
    emap, report = embed_points(params, SPHERE, points, SolverConfig())
    assert report.errors == []
    assert all(entry.converged for entry in emap.entries)
    assert np.allclose(emap.images()[1], [0.0, 0.0, 1.0], atol=1e-6)


def test_embed_energy_agrees_with_total_energy_in_three_dims():
    # unit 3-sphere with the curvature term: each entry's energy is the
    # energy of its image, whatever its index in the batch
    spec = ManifoldSpec.parametric(
        bounds=[(0.3, 2.8), (0.3, 2.8), (0.0, 6.0)],
        expressions=[
            "cos(u1)",
            "sin(u1)*cos(u2)",
            "sin(u1)*sin(u2)*cos(u3)",
            "sin(u1)*sin(u2)*sin(u3)",
        ],
    )
    params = EnergyParams(gamma=0.02, tube_radius=0.1)
    points = np.array(
        [
            1.03 * spec.chart_fn(np.array([1.1, 1.3, 2.0])),
            0.98 * spec.chart_fn(np.array([1.5, 1.0, 3.0])),
            1.05 * spec.chart_fn(np.array([2.0, 1.7, 4.5])),
        ]
    )
    emap, report = embed_points(params, spec, points, SolverConfig(max_iters=2))
    assert report.errors == [] and report.skipped == 0
    for entry in emap.entries:
        assert entry.iterations >= 1
        assert entry.energy == total_energy(params, spec, entry.image)


def test_singular_chart_metric_is_a_per_point_error():
    # a colatitude chart has a singular metric on its pole u1 = 0, where the
    # curvature term raises; the point on the polar axis is reported, the
    # one beside it still descends
    chart = ManifoldSpec.parametric(
        bounds=[(0.0, 3.14159), (0.0, 6.28318)],
        expressions=["sin(u1)*cos(u2)", "sin(u1)*sin(u2)", "cos(u1)"],
    )
    params = EnergyParams(alpha=1.0, beta=1.0, gamma=0.02, lam=0.0)
    points = np.array([[0.0, 0.0, 1.05], [0.1, 0.0, 1.05]])
    emap, report = embed_points(params, chart, points, SolverConfig(max_iters=5))
    assert len(report.errors) == 1
    assert report.errors[0].startswith("point 0: RankDeficientError: ")
    assert [entry.iterations for entry in emap.entries] == [0, 5]


# torus points at distance 0.05 (activation plateau), 0.12-0.14 (decay band,
# outside and inside the ring and above it) and 1.25 (beyond the support, so
# skipped)
_TORUS_FULL = EnergyParams(gamma=0.02, lam=0.1, tube_radius=0.1)
_TUBE_POINTS = np.array(
    [
        [2.55, 0.0, 0.0],
        [0.0, 2.35, 0.1],
        [-1.62, 0.1, 0.05],
        [1.0, -2.2, 0.48],
        [0.3, 0.4, 0.9],
        [2.0, 0.0, 0.62],
    ]
)
_SPLIT_CONFIG = SolverConfig(max_iters=20)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(cuts=st.lists(st.integers(1, len(_TUBE_POINTS) - 1), max_size=4, unique=True))
def test_embed_is_byte_identical_for_any_batch_split(cuts):
    whole, _ = embed_points(_TORUS_FULL, TORUS, _TUBE_POINTS, _SPLIT_CONFIG)
    edges = [0, *sorted(cuts), len(_TUBE_POINTS)]
    parts = [
        embed_points(_TORUS_FULL, TORUS, _TUBE_POINTS[lo:hi], _SPLIT_CONFIG)[0]
        for lo, hi in zip(edges, edges[1:])
    ]
    split = [entry for emap in parts for entry in emap.entries]
    assert len(split) == len(whole)
    for a, b in zip(whole.entries, split):
        assert a.image.tobytes() == b.image.tobytes()
        assert a.iterations == b.iterations
        assert np.array([a.residual_norm, a.energy]).tobytes() == (
            np.array([b.residual_norm, b.energy]).tobytes()
        )
        assert (a.converged, a.skipped) == (b.converged, b.skipped)
