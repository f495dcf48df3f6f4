import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_embed.energy import EnergyParams
from lattice_embed.errors import (
    DegeneratePlaneError,
    DegenerateProjectionWarning,
    OutOfDomainError,
    RankDeficientError,
    StencilOutOfDomainError,
)
from lattice_embed.estimator import LatticeEmbedder
from lattice_embed.expressions import compile_chart
from lattice_embed.geometry import (
    ManifoldSpec,
    closest_point,
    curvature_tensor,
    decompose,
    mean_sectional_curvature,
    make_manifold,
    metric,
    sectional_curvature,
    tangent_frame,
)
from lattice_embed.lattice import LatticeSpec
from lattice_embed.validate_suite import G3, G3_POINT, SPHERE3

PLANE = ManifoldSpec.plane()
SPHERE = ManifoldSpec.sphere(1.0)
TORUS = ManifoldSpec.torus(2.0, 0.5)


def graph_surface():
    return ManifoldSpec.parametric(
        bounds=[(-1.0, 1.0), (-1.0, 1.0)],
        expressions=["u1", "u2", "0.3*sin(2*u1)*cos(u2) + 0.1*u1^2"],
    )


# --- chart evaluation -------------------------------------------------------


def test_chart_sphere_pole():
    assert np.allclose(SPHERE.chart_fn([0.0, 0.0]), [0.0, 0.0, 1.0])


def test_chart_plane_identity():
    assert np.allclose(PLANE.chart_fn([3.0, 4.0]), [3.0, 4.0, 0.0])


def test_chart_torus_hand_value():
    # ((R + r cos v) cos u, (R + r cos v) sin u, r sin v) at (0, 0)
    assert np.allclose(TORUS.chart_fn([0.0, 0.0]), [2.5, 0.0, 0.0])


def test_chart_out_of_domain():
    with pytest.raises(OutOfDomainError):
        tangent_frame(SPHERE, [4.0, 0.0])


def test_make_manifold_dispatch():
    spec = make_manifold("sphere", radius=2.0)
    assert np.allclose(spec.chart_fn([0.0, 0.0]), [0.0, 0.0, 2.0])
    with pytest.raises(ValueError):
        make_manifold("mystery")


@pytest.mark.parametrize(
    "build",
    [
        lambda: ManifoldSpec.sphere(math.inf),
        lambda: ManifoldSpec.sphere(math.nan),
        lambda: ManifoldSpec.torus(math.inf, 0.5),
        lambda: ManifoldSpec.torus(2.0, math.nan),
        lambda: EnergyParams(tube_radius=math.nan),
        lambda: LatticeSpec(bounds=[[0.0, 1.0]], spacing=math.nan),
        lambda: LatticeSpec(bounds=[[0.0, math.inf]], spacing=0.1),
        lambda: ManifoldSpec.parametric([(0.0, math.inf), (0.0, 1.0)], ["u1", "u2", "0"]),
        lambda: LatticeEmbedder("sphere", manifold_params={"radius": math.inf}).fit(
            np.zeros((1, 3))
        ),
    ],
    ids=[
        "sphere-inf",
        "sphere-nan",
        "torus-R-inf",
        "torus-r-nan",
        "field-nan",
        "lattice-spacing-nan",
        "lattice-bounds-inf",
        "chart-bounds-inf",
        "estimator-radius-inf",
    ],
)
def test_non_finite_constructor_inputs_rejected(build):
    # each would otherwise build a chart of infinities, fail in the rank sweep
    # with LinAlgError, or fail later with an unrelated message
    with pytest.raises(ValueError, match="must be positive|< inf|must be finite"):
        build()


def test_expression_chart_jacobian_is_analytic():
    spec = graph_surface()
    u = np.array([0.4, -0.3])
    jac = spec.jacobian_fn(u)
    h = 1e-6
    fd = np.zeros((3, 2))
    for k in range(2):
        du = np.zeros(2)
        du[k] = h
        fd[:, k] = (spec.chart_fn(u + du) - spec.chart_fn(u - du)) / (2 * h)
    assert np.allclose(jac, fd, atol=1e-9)


@pytest.mark.parametrize(
    "spec, n, d",
    [
        (ManifoldSpec.parametric([(0.0, 6.0)], ["cos(u1)", "sin(u1)"]), 2, 1),
        (PLANE, 3, 2),
        (SPHERE, 3, 2),
        (TORUS, 3, 2),
        (G3, 4, 3),
    ],
    ids=["curve", "plane", "sphere", "torus", "G3"],
)
def test_dimensions_are_read_from_the_maps(spec, n, d):
    assert (spec.ambient_dim, spec.intrinsic_dim) == (n, d)
    assert spec.jacobian_fn(spec.param_bounds.mean(axis=1)).shape == (n, d)


def test_jacobian_width_must_match_the_box():
    # the identity chart of three parameters, over a box of two axes
    def jacobian(u):
        return np.broadcast_to(np.eye(3), np.shape(u)[:-1] + (3, 3))

    with pytest.raises(ValueError, match="on a box of 2 axes"):
        ManifoldSpec(
            kind="parametric",
            chart_fn=lambda u: np.asarray(u, dtype=float),
            jacobian_fn=jacobian,
            param_bounds=[(-1.0, 1.0), (-1.0, 1.0)],
        )


def test_builtin_is_its_compiled_chart_plus_closed_forms():
    torus = ManifoldSpec.torus(2.0, 0.5)
    ring = "(2.0 + 0.5*cos(u2))"
    chart = ManifoldSpec.parametric(
        bounds=torus.param_bounds,
        expressions=[f"{ring}*cos(u1)", f"{ring}*sin(u1)", "0.5*sin(u2)"],
        periodic=torus.periodic,
    )
    assert chart.chart_fn is torus.chart_fn
    assert chart.jacobian_fn is torus.jacobian_fn
    assert chart.projection_fn is None and torus.projection_fn is not None


# --- tangent frames ---------------------------------------------------------


def test_plane_frame_axes():
    frame = tangent_frame(PLANE, [0.3, -0.7])
    assert np.allclose(np.abs(frame.tangent_basis), [[1, 0, 0], [0, 1, 0]])
    assert np.allclose(np.abs(frame.normal_basis), [[0, 0, 1]])


def test_sphere_near_pole_normal_is_radial():
    # exactly at the pole the chart is rank-deficient (see below); just off
    # it the normal must align with the pole axis
    frame = tangent_frame(SPHERE, [1e-4, 0.0])
    assert abs(abs(frame.normal_basis[0] @ [0.0, 0.0, 1.0]) - 1.0) < 1e-3


def test_sphere_pole_rank_deficient():
    with pytest.raises(RankDeficientError):
        tangent_frame(SPHERE, [0.0, 0.0])


def test_chart_rank_deficient_inside_the_box_is_rejected():
    # J = [[1, 0], [u2, u1], [0, 0]] loses rank on the line u1 = 0, which
    # the build-time sweep of interior grid points crosses
    with pytest.raises(RankDeficientError, match="interior parameter"):
        ManifoldSpec.parametric(
            bounds=[(-1.0, 1.0), (-1.0, 1.0)], expressions=["u1", "u1*u2", "0"]
        )


def test_frame_invariants_on_random_charts():
    rng = np.random.default_rng(11)
    specs = [PLANE, SPHERE, TORUS, graph_surface()]
    for _ in range(1000):
        spec = specs[int(rng.integers(0, len(specs)))]
        lo, hi = spec.param_bounds[:, 0], spec.param_bounds[:, 1]
        margin = 0.05 * (hi - lo)
        u = rng.uniform(lo + margin, hi - margin)
        frame = tangent_frame(spec, u)
        basis = np.vstack([frame.tangent_basis, frame.normal_basis])
        n = spec.ambient_dim
        assert np.max(np.abs(basis @ basis.T - np.eye(n))) < 1e-10
        completeness = basis.T @ basis
        assert np.max(np.abs(completeness - np.eye(n))) < 1e-10


# --- decomposition ----------------------------------------------------------


def test_decompose_plane_split():
    frame = tangent_frame(PLANE, [0.0, 0.0])
    t_part, n_part = decompose(frame, [3.0, 4.0, 5.0])
    assert np.allclose(t_part, [3.0, 4.0, 0.0])
    assert np.allclose(n_part, [0.0, 0.0, 5.0])


def test_decompose_tangent_vector_has_zero_normal():
    frame = tangent_frame(SPHERE, [1.1, 0.6])
    vec = 0.7 * frame.tangent_basis[0] - 0.2 * frame.tangent_basis[1]
    t_part, n_part = decompose(frame, vec)
    assert np.linalg.norm(n_part) < 1e-12
    assert np.allclose(t_part, vec, atol=1e-12)


def test_decompose_reconstructs_and_pythagoras():
    rng = np.random.default_rng(7)
    for _ in range(200):
        u = np.array([rng.uniform(0.3, math.pi - 0.3), rng.uniform(0.0, 6.0)])
        frame = tangent_frame(SPHERE, u)
        vec = rng.standard_normal(3) * 3.0
        t_part, n_part = decompose(frame, vec)
        assert np.max(np.abs(t_part + n_part - vec)) < 1e-12
        assert abs(t_part @ n_part) < 1e-12
        assert (
            abs(t_part @ t_part + n_part @ n_part - vec @ vec) < 1e-12 * (1 + vec @ vec)
        )


# --- closest point ----------------------------------------------------------


def test_closest_point_sphere_radial():
    proj = closest_point(ManifoldSpec.sphere(2.0), [0.0, 0.0, 5.0])
    assert np.allclose(proj.point, [0.0, 0.0, 2.0])


def test_closest_point_plane_drop_normal():
    proj = closest_point(PLANE, [1.0, 2.0, 3.0])
    assert np.allclose(proj.point, [1.0, 2.0, 0.0])
    assert np.allclose(proj.u, [1.0, 2.0])


def test_closest_point_torus_brute_force_oracle():
    q = np.array([3.0, 0.0, 0.0])
    proj = closest_point(TORUS, q)
    assert np.allclose(proj.point, [2.5, 0.0, 0.0])
    # brute-force 2048^2 parameter sweep confirms the minimizer
    res = 2048
    angles = 2.0 * math.pi * np.arange(res) / res
    best = math.inf
    best_uv = None
    for chunk in np.array_split(angles, 16):
        uu, vv = np.meshgrid(chunk, angles, indexing="ij")
        pts = TORUS.chart_fn(np.stack([uu, vv], axis=-1))
        d2 = np.sum((pts - q) ** 2, axis=-1)
        k = np.unravel_index(int(np.argmin(d2)), d2.shape)
        if d2[k] < best:
            best = d2[k]
            best_uv = (chunk[k[0]], angles[k[1]])
    assert math.sqrt(best) >= np.linalg.norm(q - proj.point) - 1e-12
    grid_step = 2.0 * math.pi / res
    assert abs(best_uv[0] - proj.u[0]) % (2 * math.pi) <= grid_step
    assert abs(best_uv[1] - proj.u[1]) % (2 * math.pi) <= grid_step


def test_closest_point_residual_orthogonality():
    rng = np.random.default_rng(21)
    for spec in (SPHERE, TORUS, graph_surface()):
        for _ in range(25):
            q = rng.uniform(-0.8, 0.8, size=3)
            if spec.kind == "torus":
                q = q + np.array([2.0, 0.0, 0.0])
            proj = closest_point(spec, q)
            lo, hi = spec.param_bounds[:, 0], spec.param_bounds[:, 1]
            interior = np.all(proj.u > lo + 1e-6) and np.all(proj.u < hi - 1e-6)
            if spec.kind == "parametric" and not interior:
                continue  # box-constrained minimizer is legitimately oblique
            frame = tangent_frame(spec, proj.u)
            residual = q - proj.point
            assert np.max(np.abs(frame.tangent_basis @ residual)) < 1e-8


def test_closest_point_gauss_newton_matches_analytic_sphere():
    # run the generic path against the sphere's closed form
    spec = ManifoldSpec.parametric(
        bounds=[(0.05, math.pi - 0.05), (0.0, 2.0 * math.pi)],
        expressions=[
            "sin(u1)*cos(u2)",
            "sin(u1)*sin(u2)",
            "cos(u1)",
        ],
    )
    rng = np.random.default_rng(5)
    for _ in range(20):
        q = rng.uniform(-1.0, 1.0, size=3)
        norm = np.linalg.norm(q)
        if norm < 0.3:
            continue
        colatitude = math.acos(q[2] / norm)
        if not 0.1 < colatitude < math.pi - 0.1:
            continue  # radial projection would leave the chart patch
        proj = closest_point(spec, q)
        expected = q / norm
        assert np.linalg.norm(proj.point - expected) < 1e-6


def test_builtin_without_closed_forms_takes_generic_path():
    generic = dataclasses.replace(TORUS, projection_fn=None, curvature_fn=None)
    rng = np.random.default_rng(9)
    for _ in range(20):
        a, b = rng.uniform(0.0, 2.0 * math.pi, size=2)
        normal = [math.cos(b) * math.cos(a), math.cos(b) * math.sin(a), math.sin(b)]
        q = TORUS.chart_fn([a, b]) + rng.uniform(-0.3, 0.3) * np.array(normal)
        proj = closest_point(generic, q)
        assert np.linalg.norm(proj.point - closest_point(TORUS, q).point) <= 1e-7
    assert "seed_grid" in vars(generic)  # Gauss-Newton ran from its seed grid
    with pytest.raises(DegeneratePlaneError):
        mean_sectional_curvature(generic, [1.0, 2.0])
    k_fd = sectional_curvature(generic, [1.0, 2.0], [1.0, 0.0], [0.0, 1.0])
    assert abs(k_fd - mean_sectional_curvature(TORUS, [1.0, 2.0])) <= 1e-4


def test_closest_point_degenerate_sphere_center_warns():
    with pytest.warns(DegenerateProjectionWarning):
        proj = closest_point(SPHERE, [0.0, 0.0, 0.0])
    assert np.allclose(proj.u, [0.0, 0.0])
    assert np.allclose(proj.point, [0.0, 0.0, 1.0])


def test_closest_point_degenerate_torus_axis_warns():
    with pytest.warns(DegenerateProjectionWarning):
        proj = closest_point(TORUS, [0.0, 0.0, 0.0])
    assert proj.u[0] == 0.0
    # z = 0 on the axis: nearest tube point is the inner equator (b = pi)
    assert np.allclose(proj.point, [1.5, 0.0, 0.0])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(z=st.floats(-50.0, 50.0))
def test_torus_axis_ties_break_to_the_first_toroidal_angle(z):
    # every toroidal angle ties; the poloidal closed form puts the point at
    # distance sqrt(R^2 + z^2) - r from the query
    q = np.array([0.0, 0.0, z])
    with pytest.warns(DegenerateProjectionWarning):
        proj = closest_point(TORUS, q)
    assert proj.u[0] == 0.0
    expected = math.hypot(2.0, z) - 0.5
    assert np.linalg.norm(q - proj.point) == pytest.approx(expected, rel=1e-12)


def test_chart_projection_evaluation_budget():
    chart, (jacobian, _) = compile_chart(["u1", "u2", "0.3*sin(2*u1)*cos(u2)"], 2)
    calls = []

    def counted_chart(u):
        calls.append(np.shape(u))
        return chart(u)

    spec = ManifoldSpec(
        kind="parametric",
        chart_fn=counted_chart,
        jacobian_fn=jacobian,
        param_bounds=[(-1.0, 1.0), (-1.0, 1.0)],
    )
    rng = np.random.default_rng(8)
    queries = rng.uniform([-0.8, -0.8, -0.2], [0.8, 0.8, 0.2], size=(300, 3))
    projections = [closest_point(spec, q) for q in queries]
    # the seed grid is evaluated once, as one batch, for all 300 projections
    assert calls.count((1024, 2)) == 1
    assert len(calls) / len(queries) <= 25.0
    axis = np.linspace(-1.0, 1.0, 32)
    fresh = np.stack([g.ravel() for g in np.meshgrid(axis, axis, indexing="ij")], -1)
    fresh_images = chart(fresh)
    grid, images = spec.seed_grid
    assert np.array_equal(grid, fresh) and np.array_equal(images, fresh_images)
    for q, proj in zip(queries, projections):
        seed = fresh[np.argmin(np.sum((fresh_images - q) ** 2, axis=-1))]
        assert np.array_equal(seed, grid[np.argmin(np.sum((images - q) ** 2, axis=-1))])
        assert proj.point.tobytes() == chart(proj.u).tobytes()
    # a query on a grid node returns its seed unchanged, as a copy
    on_node = closest_point(spec, images[5])
    assert np.array_equal(on_node.u, grid[5]) and not np.shares_memory(on_node.u, grid)


def test_builtin_projection_builds_no_seed_grid():
    spec = ManifoldSpec.torus(2.0, 0.5)
    closest_point(spec, [2.4, 0.1, 0.2])
    assert "seed_grid" not in vars(spec)


PERIODIC_TORUS = ManifoldSpec.parametric(
    bounds=[(0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi)],
    expressions=[
        "(2+0.5*cos(u2))*cos(u1)",
        "(2+0.5*cos(u2))*sin(u1)",
        "0.5*sin(u2)",
    ],
    periodic=(True, True),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    a=st.floats(-0.15, 0.15),
    b=st.floats(-0.15, 0.15),
    radius=st.floats(0.3, 0.7),
)
def test_periodic_chart_projection_crosses_both_seams(a, b, radius):
    # toroidal and poloidal angles near 0 = 2 pi: Gauss-Newton must step
    # across the seam of each axis to reach the closed-form closest point
    ring = 2.0 + radius * math.cos(b)
    q = np.array([ring * math.cos(a), ring * math.sin(a), radius * math.sin(b)])
    proj = closest_point(PERIODIC_TORUS, q)
    assert np.linalg.norm(proj.point - closest_point(TORUS, q).point) < 1e-7


# the chart-align workload's graph chart
CHART_ALIGN = ManifoldSpec.parametric(
    bounds=[(-1.0, 1.0), (-1.0, 1.0)],
    expressions=["u1", "u2", "0.3*sin(2*u1)*cos(u2)"],
)
S2_TIMES_R = ManifoldSpec.parametric(
    bounds=[(0.3, 2.8), (0.0, 6.0), (-1.0, 1.0)],
    expressions=["sin(u1)*cos(u2)", "sin(u1)*sin(u2)", "cos(u1)", "u3"],
)


@pytest.mark.parametrize(
    "spec, box, tol",
    [
        (SPHERE, [(0.05, math.pi - 0.05), (0.0, 2.0 * math.pi)], 1e-12),
        (TORUS, [(0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi)], 1e-12),
        # above the ~1e-8 floor of the Gauss-Newton decrease test
        (CHART_ALIGN, [(-0.8, 0.8), (-0.8, 0.8)], 1e-7),
    ],
    ids=["sphere", "torus", "chart-align"],
)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(s1=st.floats(0.0, 1.0), s2=st.floats(0.0, 1.0), offset=st.floats(-1.0, 1.0))
def test_projection_idempotent(spec, box, tol, s1, s2, offset):
    # within 0.1 of M: clear of the sphere centre, the torus axis (>= 1.4
    # away) and its core circle (>= 0.4 away), so the closest point is unique
    u = np.array([lo + s * (hi - lo) for (lo, hi), s in zip(box, (s1, s2))])
    frame = tangent_frame(spec, u)
    q = frame.point + 0.1 * offset * frame.normal_basis[0]
    point = closest_point(spec, q).point
    again = closest_point(spec, point).point
    assert np.linalg.norm(again - point) <= tol


# --- curvature --------------------------------------------------------------


def riemann_of(spec, u, v, w, z):
    """R(v, w)z in chart coordinates from the tensor curvature_tensor returns."""
    return np.einsum("lijk,i,j,k->l", curvature_tensor(spec, u)[2], v, w, z)


def test_riemann_plane_zero():
    out = riemann_of(PLANE, [0.2, 0.4], [1.0, 2.0], [0.5, -1.0], [0.5, -1.0])
    assert np.allclose(out, 0.0)
    assert np.allclose(curvature_tensor(PLANE, [0.2, 0.4])[2], 0.0)


def test_riemann_sphere_constant_curvature_identity():
    # <R(v,w)w, v>_g = 1 for orthonormal v, w on the unit sphere
    u = np.array([1.2, 0.5])
    g = metric(SPHERE, u)
    chol = np.linalg.cholesky(g)
    basis = np.linalg.inv(chol).T
    v, w = basis @ np.array([1.0, 0.0]), basis @ np.array([0.0, 1.0])
    value = riemann_of(SPHERE, u, v, w, w) @ g @ v
    assert abs(value - 1.0) < 1e-4


def test_riemann_antisymmetry():
    # R(v, w)z = -R(w, v)z with the applied vector held fixed
    rng = np.random.default_rng(13)
    u = np.array([1.0, 2.0])
    for _ in range(10):
        v, w = rng.standard_normal(2), rng.standard_normal(2)
        lhs = riemann_of(TORUS, u, v, w, w)
        rhs = -riemann_of(TORUS, u, w, v, w)
        scale = max(np.max(np.abs(lhs)), 1e-12)
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-6


def test_riemann_vanishes_on_repeated_argument():
    rng = np.random.default_rng(17)
    for _ in range(10):
        v = rng.standard_normal(2)
        out = riemann_of(TORUS, [1.0, 2.0], v, v, v)
        assert np.max(np.abs(out)) < 1e-8


def test_sectional_plane_flat():
    k = sectional_curvature(PLANE, [1.0, -2.0], [1.0, 0.2], [0.3, 1.0])
    assert abs(k) < 1e-8


def test_sectional_affine_chart_flat():
    spec = ManifoldSpec.parametric(
        bounds=[(-1.0, 1.0), (-1.0, 1.0)],
        expressions=["0.5*u1 + 0.2*u2 + 1", "u2 - 0.3*u1", "0.1*u1 + 0.7*u2"],
    )
    k = sectional_curvature(spec, [0.1, 0.2], [1.0, 0.0], [0.2, 1.0])
    assert abs(k) < 1e-8


def test_sectional_sphere_all_radii():
    rng = np.random.default_rng(23)
    for radius in (0.5, 1.0, 2.0):
        spec = ManifoldSpec.sphere(radius)
        for _ in range(100):
            u = np.array(
                [rng.uniform(0.4, math.pi - 0.4), rng.uniform(0.2, 6.0)]
            )
            v, w = rng.standard_normal(2), rng.standard_normal(2)
            if abs(v[0] * w[1] - v[1] * w[0]) < 1e-2:
                continue
            k = sectional_curvature(spec, u, v, w)
            assert abs(k - 1.0 / radius**2) < 1e-3
            assert mean_sectional_curvature(spec, u) == 1.0 / radius**2


def test_sectional_scale_and_swap_invariance():
    rng = np.random.default_rng(29)
    u = np.array([0.9, 2.2])
    for _ in range(50):
        v, w = rng.standard_normal(2), rng.standard_normal(2)
        if abs(v[0] * w[1] - v[1] * w[0]) < 1e-2:
            continue
        c = rng.uniform(0.1, 10.0)
        k = sectional_curvature(TORUS, u, v, w)
        k_scaled = sectional_curvature(TORUS, u, c * v, w)
        k_swapped = sectional_curvature(TORUS, u, w, v)
        assert abs(k_scaled - k) <= 1e-9 * abs(k)
        assert abs(k_swapped - k) <= 1e-9 * abs(k)


def test_sectional_degenerate_plane_rejected():
    with pytest.raises(DegeneratePlaneError):
        sectional_curvature(SPHERE, [1.0, 1.0], [1.0, 2.0], [2.0, 4.0])


def test_sectional_curvature_of_a_batch_of_pairs():
    # k pairs read one tensor and agree with each pair alone; a single
    # parallel pair rejects the whole batch
    rng = np.random.default_rng(31)
    u = [0.2, -0.3, 0.4]
    v, w = rng.standard_normal((2, 20, 3))
    batch = sectional_curvature(G3, u, v, w)
    assert batch.shape == (20,)
    alone = [sectional_curvature(G3, u, a, b) for a, b in zip(v, w)]
    assert np.allclose(batch, alone, rtol=1e-12, atol=0.0)
    swapped = sectional_curvature(G3, u, 3.0 * w, v)
    assert np.allclose(swapped, batch, rtol=1e-9, atol=0.0)
    w[7] = -2.0 * v[7]
    with pytest.raises(DegeneratePlaneError):
        sectional_curvature(G3, u, v, w)


def test_sectional_stencil_guard_near_sphere_pole():
    with pytest.raises(StencilOutOfDomainError):
        sectional_curvature(SPHERE, [1e-6, 1.0], [1.0, 0.0], [0.0, 1.0])


def test_gaussian_curvature_torus_formula():
    for pol, expected in ((0.0, 0.8), (math.pi / 2, 0.0), (math.pi, -4.0 / 3.0)):
        assert mean_sectional_curvature(TORUS, [0.3, pol]) == pytest.approx(
            expected, abs=1e-12
        )


def graph_gaussian_curvature(x, y):
    # K of the graph z = f(x, y) is (f_xx f_yy - f_xy^2) / (1 + f_x^2 + f_y^2)^2,
    # here for f = 0.3 sin(2x) cos(y), the CHART_ALIGN chart
    fx = 0.6 * math.cos(2 * x) * math.cos(y)
    fy = -0.3 * math.sin(2 * x) * math.sin(y)
    fxx = -1.2 * math.sin(2 * x) * math.cos(y)
    fyy = -0.3 * math.sin(2 * x) * math.cos(y)
    fxy = -0.6 * math.cos(2 * x) * math.sin(y)
    return (fxx * fyy - fxy**2) / (1 + fx**2 + fy**2) ** 2


def test_gauss_curvature_exact_up_to_the_box_edge():
    # u = +-1 are the edges and corners of the box, where the
    # finite-difference stencil does not fit
    axis = np.linspace(-1.0, 1.0, 9)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    k = mean_sectional_curvature(CHART_ALIGN, grid)
    assert k.shape == (81,)
    for (x, y), value in zip(grid, k):
        assert abs(value - graph_gaussian_curvature(x, y)) <= 1e-12, (x, y)
    with pytest.raises(StencilOutOfDomainError):
        sectional_curvature(CHART_ALIGN, [1.0, 1.0], [1.0, 0.0], [0.0, 1.0])


@pytest.mark.parametrize(
    "expressions, bounds, expected",
    [
        # the flat (Clifford) torus in R^4
        (["cos(u1)", "sin(u1)", "cos(u2)", "sin(u2)"], [(0.0, 6.0), (0.0, 6.0)], 0.0),
        # a unit-sphere patch in R^4 with a zero 4th coordinate
        (
            ["sin(u1)*cos(u2)", "sin(u1)*sin(u2)", "cos(u1)", "0"],
            [(0.3, 2.8), (0.0, 6.0)],
            1.0,
        ),
    ],
    ids=["flat-torus", "sphere-patch"],
)
def test_gauss_curvature_in_codimension_two(expressions, bounds, expected):
    spec = ManifoldSpec.parametric(bounds=bounds, expressions=expressions)
    lo, hi = np.asarray(bounds).T
    u = lo + (hi - lo) * np.random.default_rng(3).random((50, 2))
    assert np.max(np.abs(mean_sectional_curvature(spec, u) - expected)) <= 1e-12


def test_gauss_curvature_agrees_with_fd_oracle():
    for u in ([0.3, -0.2], [-0.7, 0.55], [0.9, 0.9]):
        e1, e2 = [1.0, 0.0], [0.0, 1.0]
        k_fd = sectional_curvature(CHART_ALIGN, u, e1, e2)
        assert abs(k_fd - mean_sectional_curvature(CHART_ALIGN, u)) <= 1e-5


@pytest.mark.parametrize(
    "spec",
    [PLANE, SPHERE, TORUS, CHART_ALIGN, G3, SPHERE3],
    ids=["plane", "sphere", "torus", "chart", "g3", "sphere3"],
)
@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    shares=st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 3), min_size=1, max_size=12)
)
def test_curvature_batch_equals_points_byte_for_byte(spec, shares):
    lo, hi = spec.param_bounds.T
    batch = lo + (hi - lo) * np.array(shares)[:, : spec.intrinsic_dim]
    together = np.asarray(spec.curvature_fn(batch), dtype=float)
    alone = np.array([spec.curvature_fn(u) for u in batch], dtype=float)
    assert together.shape == (len(batch),)
    assert together.tobytes() == alone.tobytes()


def assert_batch_equals_points(fn, spec, shape):
    # fn maps (..., d) to (..., *shape): every row gets the bits it gets
    # alone, in batches of 1 to 1000 rows, with two batch axes, and from
    # strided and Fortran-ordered input
    d = spec.intrinsic_dim
    lo, hi = spec.param_bounds.T
    u = lo + (hi - lo) * np.random.default_rng(21).random((1000, d))
    alone = np.array([fn(row) for row in u])
    assert alone.shape == (1000,) + shape
    for size in (1, 2, 7, 1000):
        together = fn(u[:size])
        assert together.shape == (size,) + shape
        assert together.tobytes() == alone[:size].tobytes()
    assert fn(u.reshape(10, 100, d)).tobytes() == alone.tobytes()
    assert fn(u[::7]).tobytes() == alone[::7].tobytes()
    assert fn(np.asfortranarray(u)).tobytes() == alone.tobytes()


BATCH_SPECS = pytest.mark.parametrize(
    "spec", [PLANE, SPHERE, TORUS, CHART_ALIGN, G3], ids=["plane", "sphere", "torus", "chart", "g3"]
)


@BATCH_SPECS
def test_jacobian_batch_equals_points_byte_for_byte(spec):
    shape = (spec.ambient_dim, spec.intrinsic_dim)
    assert_batch_equals_points(spec.jacobian_fn, spec, shape)


@BATCH_SPECS
def test_chart_batch_equals_points_byte_for_byte(spec):
    assert_batch_equals_points(spec.chart_fn, spec, (spec.ambient_dim,))


# The built-ins' charts and Jacobians as they were laid out by hand, with
# np.zeros and np.stack, before their entries went through `assemble`: the
# oracle their closed forms keep bit for bit.


def hand_plane(u):
    chart = np.zeros(u.shape[:-1] + (3,))
    chart[..., 0] = u[..., 0]
    chart[..., 1] = u[..., 1]
    jac = np.zeros(u.shape[:-1] + (3, 2))
    jac[..., 0, 0] = jac[..., 1, 1] = 1.0
    return chart, jac


def hand_sphere(u, r):
    th, ph = u[..., 0], u[..., 1]
    chart = np.stack(
        [r * np.sin(th) * np.cos(ph), r * np.sin(th) * np.sin(ph), r * np.cos(th)],
        axis=-1,
    )
    st, ct = np.sin(th), np.cos(th)
    sp, cp = np.sin(ph), np.cos(ph)
    jac = np.zeros(th.shape + (3, 2))
    jac[..., 0, 0] = r * ct * cp
    jac[..., 0, 1] = -r * st * sp
    jac[..., 1, 0] = r * ct * sp
    jac[..., 1, 1] = r * st * cp
    jac[..., 2, 0] = -r * st
    return chart, jac


def hand_torus(u, big, small):
    a, b = u[..., 0], u[..., 1]
    ring = big + small * np.cos(b)
    chart = np.stack([ring * np.cos(a), ring * np.sin(a), small * np.sin(b)], axis=-1)
    sa, ca = np.sin(a), np.cos(a)
    sb, cb = np.sin(b), np.cos(b)
    ring = big + small * cb
    jac = np.zeros(a.shape + (3, 2))
    jac[..., 0, 0] = -ring * sa
    jac[..., 0, 1] = -small * sb * ca
    jac[..., 1, 0] = ring * ca
    jac[..., 1, 1] = -small * sb * sa
    jac[..., 2, 1] = small * cb
    return chart, jac


@pytest.mark.parametrize(
    "spec, hand",
    [
        (PLANE, hand_plane),
        (SPHERE, lambda u: hand_sphere(u, 1.0)),
        (ManifoldSpec.sphere(2.5), lambda u: hand_sphere(u, 2.5)),
        (TORUS, lambda u: hand_torus(u, 2.0, 0.5)),
        (ManifoldSpec.torus(3.0, 1.25), lambda u: hand_torus(u, 3.0, 1.25)),
        # radii whose repr is in exponent form: the chart text reads 1e-05
        (ManifoldSpec.sphere(1e-05), lambda u: hand_sphere(u, 1e-05)),
        (ManifoldSpec.torus(250.0, 0.001), lambda u: hand_torus(u, 250.0, 0.001)),
    ],
    ids=[
        "plane", "sphere", "sphere2.5", "torus", "torus3-1.25",
        "sphere1e-05", "torus250-0.001",
    ],
)
def test_builtin_maps_keep_the_hand_laid_out_bits(spec, hand):
    # every pair of exact 0, -0.0, pi/2, pi, 2 pi and -pi, then 100,000
    # seeded parameters inside and outside the box
    special = [0.0, -0.0, math.pi / 2, math.pi, 2.0 * math.pi, -math.pi]
    rows = np.array([(a, b) for a in special for b in special])
    u = np.concatenate([rows, np.random.default_rng(23).uniform(-7, 7, (100_000, 2))])
    chart, jac = hand(u)
    assert spec.chart_fn(u).tobytes() == chart.tobytes()
    assert spec.jacobian_fn(u).tobytes() == jac.tobytes()
    for row in rows:
        chart, jac = hand(row)
        assert spec.chart_fn(row).tobytes() == chart.tobytes()
        assert spec.jacobian_fn(row).tobytes() == jac.tobytes()


def g3_mean_curvature(u1, u2, u3):
    # G3 is the graph of f over [-1, 1]^3: with p = grad f, F = hess f and
    # W^2 = 1 + |p|^2, g^-1 = I - p p^T / W^2, the second fundamental form
    # is F / W, and Scal = ((tr g^-1 F)^2 - tr(g^-1 F g^-1 F)) / W^2
    p = np.array(
        [
            0.4 * math.cos(u1) * math.cos(2 * u2) + 0.3 * u3 * u3,
            -0.8 * math.sin(u1) * math.sin(2 * u2),
            0.6 * u3 * u1,
        ]
    )
    f11 = -0.4 * math.sin(u1) * math.cos(2 * u2)
    f12 = -0.8 * math.cos(u1) * math.sin(2 * u2)
    f22 = -1.6 * math.sin(u1) * math.cos(2 * u2)
    hess = np.array([[f11, f12, 0.6 * u3], [f12, f22, 0.0], [0.6 * u3, 0.0, 0.6 * u1]])
    w2 = 1.0 + p @ p
    a = (np.eye(3) - np.outer(p, p) / w2) @ hess
    return (np.trace(a) ** 2 - np.trace(a @ a)) / w2 / 6.0


def fd_mean_curvature(spec, u):
    """Scal / (d (d - 1)) contracted from the finite-difference Riemann tensor."""
    g0, _, riemann = curvature_tensor(spec, u)
    d = spec.intrinsic_dim
    return np.einsum("jk,iijk->", np.linalg.inv(g0), riemann) / (d * (d - 1))


def test_gauss_equation_three_dim_exact_values():
    # the unit 3-sphere and S^2 x R (Scal = 2 over 6 planes) are exact
    sphere3 = mean_sectional_curvature(SPHERE3, [[1.1, 1.3, 2.0], [0.4, 2.5, 5.0]])
    assert np.max(np.abs(sphere3 - 1.0)) <= 1e-12
    assert abs(mean_sectional_curvature(S2_TIMES_R, [1.1, 2.0, 0.3]) - 1 / 3) <= 1e-12
    # G3 inside the box: the finite-difference oracle agrees to its own error
    for u in (G3_POINT, [0.7, 0.1, -0.6], [-0.5, 0.8, 0.9]):
        exact = mean_sectional_curvature(G3, u)
        assert abs(exact - g3_mean_curvature(*u)) <= 1e-12
        assert abs(exact - fd_mean_curvature(G3, u)) <= 1e-6 * abs(exact)
    # and on the box edge and corners, where the stencil does not fit
    edge = np.array([[1.0, -0.3, 0.4], [1.0, 1.0, 1.0], [-1.0, 0.2, -1.0]])
    for u, value in zip(edge, mean_sectional_curvature(G3, edge)):
        assert abs(value - g3_mean_curvature(*u)) <= 1e-12, u
        with pytest.raises(StencilOutOfDomainError):
            fd_mean_curvature(G3, u)


def test_sectional_curvature_above_two_dims_is_the_plane():
    # the mean 1/3 of S^2 x R is no plane's curvature: span{e1, e3} contains
    # the flat factor and span{e1, e2} is tangent to the unit sphere
    u = [1.1, 2.0, 0.3]
    e1, e2, e3 = np.eye(3)
    assert abs(sectional_curvature(S2_TIMES_R, u, e1, e3)) <= 1e-6
    assert abs(sectional_curvature(S2_TIMES_R, u, e1, e2) - 1.0) <= 1e-6


def test_gauss_equation_rejects_a_singular_metric():
    # the colatitude chart's metric is singular on the pole u1 = 0
    chart = ManifoldSpec.parametric(
        bounds=[(0.0, math.pi), (0.0, 2.0 * math.pi)],
        expressions=["sin(u1)*cos(u2)", "sin(u1)*sin(u2)", "cos(u1)"],
    )
    with pytest.raises(RankDeficientError, match="singular"):
        mean_sectional_curvature(chart, [0.0, 1.0])
    with pytest.raises(RankDeficientError, match="singular"):
        mean_sectional_curvature(chart, [[1.0, 1.0], [0.0, 2.0], [2.0, 3.0]])
    # just off the pole the metric is regular and K = 1
    assert abs(mean_sectional_curvature(chart, [1e-6, 1.0]) - 1.0) <= 1e-9


def test_curve_has_no_mean_sectional_curvature():
    helix = ManifoldSpec.parametric(
        bounds=[(0.0, 6.0)], expressions=["cos(u1)", "sin(u1)", "0.2*u1"]
    )
    assert helix.curvature_fn is None
    with pytest.raises(DegeneratePlaneError):
        mean_sectional_curvature(helix, [0.5])


def test_periodic_wrap_matches_curvature_across_seam():
    # poloidal angle 0 sits on the nominal boundary; periodic axes must wrap
    k_seam = sectional_curvature(TORUS, [1.0, 0.0], [1.0, 0.1], [0.2, 1.0])
    assert abs(k_seam - 0.8) < 1e-3
