import dataclasses
import math

import numpy as np
import pytest

from lattice_embed.errors import BadResolutionError, DegeneratePlaneError
from lattice_embed.geometry import (
    ManifoldSpec,
    closest_point,
    mean_sectional_curvature,
    sectional_curvature,
)
from lattice_embed.quadrature import (
    build_quadrature,
    curvature_double_integral,
    curvature_integral_gradient,
    sphere_measure,
)
from lattice_embed.validate_suite import G3, G3_POINT, SPHERE3, all_pairs_integral

TWO_PI_SQ = (2.0 * math.pi) ** 2

SPHERE = ManifoldSpec.sphere(1.0)
PLANE = ManifoldSpec.plane()
TORUS = ManifoldSpec.torus(2.0, 0.5)
GRAPH = ManifoldSpec.parametric(
    bounds=[(-1.0, 1.0), (-1.0, 1.0)],
    expressions=["u1", "u2", "0.3*sin(2*u1)*cos(u2)"],
)
# S^2 x R: Scal = 2, so C = |S^2|^2 * 2 / 6 = 16 pi^2 / 3
S2_TIMES_R = ManifoldSpec.parametric(
    bounds=[(0.3, 2.8), (0.0, 6.0), (-1.0, 1.0)],
    expressions=["sin(u1)*cos(u2)", "sin(u1)*sin(u2)", "cos(u1)", "u3"],
)


def test_circle_rule_uniform_angles():
    rule = build_quadrature(2, 8)
    assert rule.nodes.shape == (8, 2)
    angles = np.arctan2(rule.nodes[:, 1], rule.nodes[:, 0]) % (2 * math.pi)
    assert np.allclose(sorted(angles), 2 * math.pi * np.arange(8) / 8, atol=1e-12)
    assert np.allclose(rule.weights, math.pi / 4)
    assert float(np.sum(rule.weights)) == pytest.approx(2 * math.pi, abs=1e-12)


def test_monte_carlo_rule_deterministic_and_unit():
    a = build_quadrature(3, 1000, seed=7)
    b = build_quadrature(3, 1000, seed=7)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.weights, b.weights)
    assert np.max(np.abs(np.linalg.norm(a.nodes, axis=1) - 1.0)) < 1e-12
    assert float(np.sum(a.weights)) == pytest.approx(4 * math.pi, abs=1e-9)
    c = build_quadrature(3, 1000, seed=8)
    assert not np.array_equal(a.nodes, c.nodes)


def test_bad_resolution_rejected():
    with pytest.raises(BadResolutionError):
        build_quadrature(2, 3)


def test_sphere_measures():
    assert sphere_measure(2) == pytest.approx(2 * math.pi, rel=1e-15)
    assert sphere_measure(3) == pytest.approx(4 * math.pi, rel=1e-15)


def test_integral_sphere_unit_radius():
    value = curvature_double_integral(SPHERE, [1.2, 0.7])
    assert value == pytest.approx(TWO_PI_SQ, rel=1e-15)


def test_integral_sphere_radius_two():
    value = curvature_double_integral(ManifoldSpec.sphere(2.0), [1.2, 0.7])
    assert value == pytest.approx(TWO_PI_SQ / 4, rel=1e-15)


def test_integral_sphere_pole():
    # the colatitude chart's metric is singular at the pole; K is not
    assert curvature_double_integral(SPHERE, [0.0, 0.0]) == pytest.approx(
        TWO_PI_SQ, rel=1e-15
    )


def test_integral_plane_zero():
    assert abs(curvature_double_integral(PLANE, [0.3, -0.2])) <= 1e-8


def fd_integral(spec, u):
    """(2 pi)^2 K from the finite-difference Riemann tensor."""
    return TWO_PI_SQ * sectional_curvature(spec, u, [1.0, 0.0], [0.0, 1.0])


def test_integral_fd_pipeline_close_to_analytic():
    u = [1.2, 0.7]
    fd = fd_integral(SPHERE, u)
    assert abs(fd - TWO_PI_SQ) <= 1e-3 * TWO_PI_SQ
    fd_torus = fd_integral(TORUS, [1.0, 2.0])
    analytic = curvature_double_integral(TORUS, [1.0, 2.0])
    assert abs(fd_torus - analytic) <= 1e-3 * max(abs(analytic), 1.0)


def test_integral_graph_chart_is_gaussian_curvature():
    # K of the graph z = f(x, y) is (f_xx f_yy - f_xy^2) / (1 + f_x^2 + f_y^2)^2
    for x in np.linspace(-0.8, 0.8, 5):
        for y in np.linspace(-0.8, 0.8, 5):
            fx = 0.6 * math.cos(2 * x) * math.cos(y)
            fy = -0.3 * math.sin(2 * x) * math.sin(y)
            fxx = -1.2 * math.sin(2 * x) * math.cos(y)
            fyy = -0.3 * math.sin(2 * x) * math.cos(y)
            fxy = -0.6 * math.cos(2 * x) * math.sin(y)
            expected = (fxx * fyy - fxy**2) / (1 + fx**2 + fy**2) ** 2
            value = curvature_double_integral(GRAPH, [x, y]) / TWO_PI_SQ
            assert abs(value - expected) <= 1e-5, (x, y, value, expected)


def test_integral_unit_three_sphere():
    # every sectional curvature of the unit 3-sphere is 1, so C = |S^2|^2,
    # exact from the Gauss equation
    value = curvature_double_integral(SPHERE3, [1.1, 1.3, 2.0])
    expected = sphere_measure(3) ** 2
    assert abs(value - expected) <= 1e-12 * expected
    assert abs(mean_sectional_curvature(SPHERE3, [1.1, 1.3, 2.0]) - 1.0) <= 1e-12


def test_integral_s2_times_r():
    # the flat factor halves the mean sectional curvature of the S^2 factor:
    # Scal = 2 over d (d - 1) = 6 planes gives 1/3
    value = curvature_double_integral(S2_TIMES_R, [1.1, 2.0, 0.3])
    expected = 16.0 * math.pi**2 / 3.0
    assert abs(value - expected) <= 1e-12 * expected
    mean = mean_sectional_curvature(S2_TIMES_R, [1.1, 2.0, 0.3])
    assert abs(mean - 1.0 / 3.0) <= 1e-12


def test_integral_convergence_monotone():
    # the all-pairs sum over one seeded node set approaches the closed form
    # as the set grows (seed 0 on the graph 3-manifold G3)
    closed = curvature_double_integral(G3, G3_POINT)
    errs = [
        abs(all_pairs_integral(G3, G3_POINT, build_quadrature(3, m, seed=0)) - closed)
        for m in (16, 64, 256)
    ]
    assert errs[0] > errs[1] > errs[2]


def test_integral_determinism():
    # the graph chart's curvature comes from the Gauss equation
    a = curvature_double_integral(GRAPH, [0.3, -0.2])
    b = curvature_double_integral(GRAPH, [0.3, -0.2])
    assert a == b


def test_retained_weight_rescaling():
    # the all-pairs oracle rescales the pairs it keeps to the full pair
    # measure |S^2|^2, so on the unit 3-sphere (every plane has K = 1) a
    # 16-node rule reproduces the closed form
    rule = build_quadrature(3, 16)
    value = all_pairs_integral(SPHERE3, np.array([1.1, 1.3, 2.0]), rule)
    assert value == pytest.approx(sphere_measure(3) ** 2, rel=1e-6)


def test_surface_integral_reads_no_node(count_calls):
    # for d = 2 the integral is (2 pi)^2 K and no rule is built
    built = count_calls(build_quadrature)
    assert curvature_double_integral(SPHERE, [1.2, 0.7]) == TWO_PI_SQ
    expected = TWO_PI_SQ * mean_sectional_curvature(TORUS, [1.0, 2.0])
    assert curvature_double_integral(TORUS, [1.0, 2.0]) == expected
    curvature_integral_gradient(TORUS, np.array([2.4, 0.1, 0.15]))
    assert built == []


@pytest.mark.parametrize("spec", [PLANE, SPHERE, TORUS, GRAPH], ids=lambda s: s.kind)
def test_surface_batch_is_gaussian_curvature_bit_for_bit(spec):
    rng = np.random.default_rng(11)
    lo, hi = spec.param_bounds[:, 0], spec.param_bounds[:, 1]
    u = lo + (hi - lo) * rng.uniform(0.05, 0.95, size=(4, 5, 2))
    batch = curvature_double_integral(spec, u)
    assert batch.shape == (4, 5)
    expected = sphere_measure(2) ** 2 * mean_sectional_curvature(spec, u)
    assert batch.tobytes() == expected.tobytes()
    for index in np.ndindex(4, 5):
        single = curvature_double_integral(spec, u[index])
        assert isinstance(single, float)
        assert np.float64(single).tobytes() == batch[index].tobytes()


def test_three_dim_batch_matches_points():
    u = np.array([[0.2, -0.3, 0.4], [0.1, 0.1, 0.1]])
    batch = curvature_double_integral(G3, u)
    assert batch.shape == (2,)
    assert [curvature_double_integral(G3, row) for row in u] == list(batch)


def test_surface_without_curvature_fn_rejected():
    # d = 2 reads only the spec's curvature_fn; there is no fallback
    bare = dataclasses.replace(GRAPH, curvature_fn=None)
    with pytest.raises(DegeneratePlaneError):
        curvature_double_integral(bare, [0.3, -0.2])


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="need 2 coordinates"):
        curvature_double_integral(SPHERE, [1.2, 0.7, 0.1])
    with pytest.raises(ValueError, match="need 3 coordinates"):
        curvature_double_integral(SPHERE3, np.zeros((4, 2)))


def central_difference(integral, spec, q, h):
    """Central-difference ambient gradient of integral(spec, u) at the
    closest points of the shifted queries q +- h e_k."""
    grad = np.zeros(3)
    for k in range(3):
        offset = h * np.eye(3)[k]
        plus = integral(spec, closest_point(spec, q + offset).u)
        minus = integral(spec, closest_point(spec, q - offset).u)
        grad[k] = (plus - minus) / (2.0 * h)
    return grad


def test_gradient_zero_on_sphere():
    q = np.array([0.4, 0.5, 0.9])
    grad_analytic = curvature_integral_gradient(SPHERE, q)
    assert np.max(np.abs(grad_analytic)) <= 1e-12
    grad_fd = central_difference(fd_integral, SPHERE, q, 1e-3)
    assert np.max(np.abs(grad_fd)) <= 2e-3


def test_gradient_zero_on_plane():
    grad = curvature_integral_gradient(PLANE, np.array([0.2, 0.1, 0.05]))
    assert np.max(np.abs(grad)) <= 1e-8


def test_gradient_zero_on_three_sphere():
    # C is the constant 16 pi^2 on the unit 3-sphere; what remains is the
    # rounding of C (~158) over the central-difference width 2e-3
    q = 1.05 * SPHERE3.chart_fn(np.array([1.1, 1.3, 2.0]))
    grad = curvature_integral_gradient(SPHERE3, q)
    assert grad.shape == (4,)
    assert np.max(np.abs(grad)) <= 1e-9


def test_gradient_is_one_batched_integral(count_calls):
    # the 2n shifted closest points share one curvature_double_integral call
    integrals = count_calls(curvature_double_integral)
    grad = curvature_integral_gradient(G3, np.array([0.25, -0.3, 0.35, 0.1]))
    assert grad.shape == (4,)
    assert len(integrals) == 1


def test_gradient_torus_halving_consistency():
    q = np.array([2.4, 0.1, 0.15])  # near the outer upper tube wall
    full = curvature_integral_gradient(TORUS, q)
    half = central_difference(curvature_double_integral, TORUS, q, 5e-4)
    assert np.linalg.norm(full) > 0.1  # the field genuinely varies here
    rel = np.linalg.norm(full - half) / np.linalg.norm(half)
    assert rel <= 0.05
