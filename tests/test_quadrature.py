import dataclasses
import math

import numpy as np
import pytest

from lattice_embed.errors import (
    AllPairsDegenerateError,
    BadResolutionError,
    DegeneratePlaneError,
)
from lattice_embed.geometry import (
    ManifoldSpec,
    closest_point,
    gaussian_curvature,
    sectional_curvature,
)
from lattice_embed.quadrature import (
    QuadratureRule,
    build_quadrature,
    curvature_double_integral,
    curvature_integral_gradient,
    sphere_measure,
)

TWO_PI_SQ = (2.0 * math.pi) ** 2

SPHERE = ManifoldSpec.sphere(1.0)
PLANE = ManifoldSpec.plane()
TORUS = ManifoldSpec.torus(2.0, 0.5)
GRAPH = ManifoldSpec.parametric(
    bounds=[(-1.0, 1.0), (-1.0, 1.0)],
    expressions=["u1", "u2", "0.3*sin(2*u1)*cos(u2)"],
)
SPHERE3 = ManifoldSpec.parametric(
    bounds=[(0.3, 2.8), (0.3, 2.8), (0.0, 6.0)],
    expressions=[
        "cos(u1)",
        "sin(u1)*cos(u2)",
        "sin(u1)*sin(u2)*cos(u3)",
        "sin(u1)*sin(u2)*sin(u3)",
    ],
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


def test_rule_memoized_and_read_only():
    a = build_quadrature(3, 64, seed=5)
    assert build_quadrature(3, 64, 5) is a
    assert build_quadrature(2, 64) is build_quadrature(2, 64, seed=0)
    assert build_quadrature(3, 64, seed=6) is not a
    for rule in (a, build_quadrature(2, 64)):
        for array in (rule.nodes, rule.weights):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0


def test_bad_resolution_rejected():
    with pytest.raises(BadResolutionError):
        build_quadrature(2, 3)


def test_sphere_measures():
    assert sphere_measure(2) == pytest.approx(2 * math.pi, rel=1e-15)
    assert sphere_measure(3) == pytest.approx(4 * math.pi, rel=1e-15)


def test_integral_sphere_unit_radius():
    rule = build_quadrature(2, 64)
    value = curvature_double_integral(SPHERE, [1.2, 0.7], rule)
    assert abs(value - TWO_PI_SQ) <= 0.01 * TWO_PI_SQ


def test_integral_sphere_radius_two():
    rule = build_quadrature(2, 64)
    value = curvature_double_integral(ManifoldSpec.sphere(2.0), [1.2, 0.7], rule)
    assert abs(value - TWO_PI_SQ / 4) <= 0.01 * TWO_PI_SQ / 4


def test_integral_sphere_pole():
    # the colatitude chart's metric is singular at the pole; K is not
    rule = build_quadrature(2, 64)
    assert curvature_double_integral(SPHERE, [0.0, 0.0], rule) == pytest.approx(
        TWO_PI_SQ, rel=1e-15
    )


def test_integral_plane_zero():
    rule = build_quadrature(2, 64)
    assert abs(curvature_double_integral(PLANE, [0.3, -0.2], rule)) <= 1e-8


def fd_integral(spec, u):
    """(2 pi)^2 K from the finite-difference Riemann tensor."""
    return TWO_PI_SQ * sectional_curvature(spec, u, [1.0, 0.0], [0.0, 1.0], method="fd")


def test_integral_fd_pipeline_close_to_analytic():
    rule = build_quadrature(2, 64)
    u = [1.2, 0.7]
    fd = fd_integral(SPHERE, u)
    assert abs(fd - TWO_PI_SQ) <= 1e-3 * TWO_PI_SQ
    fd_torus = fd_integral(TORUS, [1.0, 2.0])
    analytic = curvature_double_integral(TORUS, [1.0, 2.0], rule)
    assert abs(fd_torus - analytic) <= 1e-3 * max(abs(analytic), 1.0)


def test_integral_graph_chart_is_gaussian_curvature():
    # K of the graph z = f(x, y) is (f_xx f_yy - f_xy^2) / (1 + f_x^2 + f_y^2)^2
    rule = build_quadrature(2, 64)
    for x in np.linspace(-0.8, 0.8, 5):
        for y in np.linspace(-0.8, 0.8, 5):
            fx = 0.6 * math.cos(2 * x) * math.cos(y)
            fy = -0.3 * math.sin(2 * x) * math.sin(y)
            fxx = -1.2 * math.sin(2 * x) * math.cos(y)
            fyy = -0.3 * math.sin(2 * x) * math.cos(y)
            fxy = -0.6 * math.cos(2 * x) * math.sin(y)
            expected = (fxx * fyy - fxy**2) / (1 + fx**2 + fy**2) ** 2
            value = curvature_double_integral(GRAPH, [x, y], rule) / TWO_PI_SQ
            assert abs(value - expected) <= 1e-5, (x, y, value, expected)


def test_integral_unit_three_sphere():
    # every sectional curvature of the unit 3-sphere is 1, so C = |S^2|^2
    rule = build_quadrature(3, 64)
    value = curvature_double_integral(SPHERE3, [1.1, 1.3, 2.0], rule)
    expected = sphere_measure(3) ** 2
    assert abs(value - expected) <= 1e-3 * expected
    with pytest.raises(DegeneratePlaneError):
        gaussian_curvature(SPHERE3, [1.1, 1.3, 2.0])


def test_three_sphere_pairs_filtered_once_same_values():
    # reference values from the per-call pair mask the rule's pair filter
    # replaced: equal and unequal weights, at two points sharing one filter
    rule = build_quadrature(3, 64)
    first = curvature_double_integral(SPHERE3, [1.1, 1.3, 2.0], rule)
    pairs = rule.pairs
    second = curvature_double_integral(SPHERE3, [2.0, 1.7, 4.5], rule)
    assert rule.pairs is pairs
    assert first == float.fromhex("0x1.3bd3cc0361e4dp+7")
    assert second == float.fromhex("0x1.3bd3cc1a1b8cap+7")
    base = build_quadrature(3, 16, seed=2)
    weights = np.arange(1.0, 17.0)
    weights *= sphere_measure(3) / weights.sum()
    weighted = QuadratureRule(3, base.nodes, weights, seed=2, resolution=16)
    value = curvature_double_integral(SPHERE3, [1.1, 1.3, 2.0], weighted)
    assert value == float.fromhex("0x1.3bd3cc192be00p+7")


def test_integral_convergence_monotone():
    errs = []
    for resolution in (16, 64, 256):
        rule = build_quadrature(2, resolution)
        value = curvature_double_integral(SPHERE, [1.2, 0.7], rule)
        errs.append(abs(value - TWO_PI_SQ))
    assert errs[0] >= errs[1] >= errs[2]


def test_integral_determinism():
    rule = build_quadrature(2, 64)
    # the graph chart's curvature comes from the Gauss equation
    a = curvature_double_integral(GRAPH, [0.3, -0.2], rule)
    b = curvature_double_integral(GRAPH, [0.3, -0.2], rule)
    assert a == b


def test_retained_weight_rescaling():
    # the rescaled pair-weight mass must equal the squared circle measure
    rule = build_quadrature(2, 16)
    cos = rule.nodes @ rule.nodes.T
    mask = (1.0 - cos * cos) > 1e-8
    pair_w = np.outer(rule.weights, rule.weights)[mask]
    rescaled_total = float(np.sum(pair_w)) * (2 * math.pi) ** 2 / float(np.sum(pair_w))
    assert rescaled_total == pytest.approx((2 * math.pi) ** 2, abs=1e-9)
    # and the integral of the unit-curvature field reproduces it exactly
    value = curvature_double_integral(SPHERE, [1.2, 0.7], rule)
    assert value == pytest.approx(TWO_PI_SQ, abs=1e-9)


def _parallel_rule(d):
    # every node is +-e1: no pair spans a plane
    nodes = np.zeros((4, d))
    nodes[:, 0] = [1.0, -1.0, 1.0, -1.0]
    weights = np.full(4, sphere_measure(d) / 4)
    return QuadratureRule(d, nodes, weights, seed=0, resolution=4)


def test_all_pairs_degenerate():
    with pytest.raises(AllPairsDegenerateError):
        curvature_double_integral(SPHERE3, [1.1, 1.3, 2.0], _parallel_rule(3))


def test_surface_integral_reads_no_node():
    # for d = 2 the rule contributes only its dimension
    rule = _parallel_rule(2)
    assert curvature_double_integral(SPHERE, [1.2, 0.7], rule) == TWO_PI_SQ
    expected = TWO_PI_SQ * gaussian_curvature(TORUS, [1.0, 2.0])
    assert curvature_double_integral(TORUS, [1.0, 2.0], rule) == expected


def test_surface_without_curvature_fn_rejected():
    # d = 2 reads only the spec's curvature_fn; there is no fallback
    rule = build_quadrature(2, 64)
    bare = dataclasses.replace(GRAPH, curvature_fn=None)
    with pytest.raises(DegeneratePlaneError):
        curvature_double_integral(bare, [0.3, -0.2], rule)


def test_dimension_mismatch_rejected():
    rule = build_quadrature(3, 16)
    with pytest.raises(ValueError):
        curvature_double_integral(SPHERE, [1.2, 0.7], rule)


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
    rule = build_quadrature(2, 64)
    q = np.array([0.4, 0.5, 0.9])
    grad_analytic = curvature_integral_gradient(SPHERE, q, rule)
    assert np.max(np.abs(grad_analytic)) <= 1e-12
    grad_fd = central_difference(fd_integral, SPHERE, q, 1e-3)
    assert np.max(np.abs(grad_fd)) <= 2e-3


def test_gradient_zero_on_plane():
    rule = build_quadrature(2, 64)
    grad = curvature_integral_gradient(PLANE, np.array([0.2, 0.1, 0.05]), rule)
    assert np.max(np.abs(grad)) <= 1e-8


def test_gradient_torus_halving_consistency():
    rule = build_quadrature(2, 64)
    q = np.array([2.4, 0.1, 0.15])  # near the outer upper tube wall
    full = curvature_integral_gradient(TORUS, q, rule)

    def integral(spec, u):
        return curvature_double_integral(spec, u, rule)

    half = central_difference(integral, TORUS, q, 5e-4)
    assert np.linalg.norm(full) > 0.1  # the field genuinely varies here
    rel = np.linalg.norm(full - half) / np.linalg.norm(half)
    assert rel <= 0.05
