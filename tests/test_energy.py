import math

import numpy as np
import pytest

from lattice_embed import geometry
from lattice_embed.energy import (
    EnergyParams,
    alignment,
    alignment_gradient,
    reduced_residual,
    solve_lambda_reduced,
    total_energy,
    total_gradient,
)
from lattice_embed.errors import IndeterminateError, NoSolutionError
from lattice_embed.geometry import ManifoldSpec, closest_point, tangent_frame
from lattice_embed.validate_suite import G3

PLANE = ManifoldSpec.plane()
SPHERE = ManifoldSpec.sphere(1.0)
TORUS = ManifoldSpec.torus(2.0, 0.5)


def plane_frame():
    return tangent_frame(PLANE, [0.0, 0.0])


def test_params_validation():
    with pytest.raises(ValueError):
        EnergyParams(alpha=-1.0)
    with pytest.raises(ValueError):
        EnergyParams(beta=0.0)
    with pytest.raises(ValueError):
        EnergyParams(gamma=-0.5)
    with pytest.raises(ValueError):
        EnergyParams(lam=-0.1)
    for name in ("alpha", "beta", "gamma", "lam", "tube_radius"):
        with pytest.raises(ValueError):
            EnergyParams(**{name: float("nan")})


# --- alignment --------------------------------------------------------------


def test_alignment_zero_at_coincidence():
    params = EnergyParams(alpha=2.0, beta=3.0)
    p = np.array([1.0, 2.0, 0.0])
    assert alignment(params, plane_frame(), p, p) == 0.0


def test_alignment_hand_value():
    # (2/2)*1 + (4/2)*4 = 9 for the split (1,0)|(2) with alpha=2, beta=4
    params = EnergyParams(alpha=2.0, beta=4.0)
    p = np.zeros(3)
    q = np.array([1.0, 0.0, 2.0])
    assert alignment(params, plane_frame(), p, q) == pytest.approx(9.0, abs=1e-14)


def test_alignment_isotropic_reduction():
    params = EnergyParams(alpha=1.7, beta=1.7)
    rng = np.random.default_rng(3)
    for _ in range(20):
        q = rng.standard_normal(3)
        value = alignment(params, plane_frame(), np.zeros(3), q)
        assert value == pytest.approx(0.5 * 1.7 * float(q @ q), rel=1e-14)


def test_alignment_nonnegative_zero_iff_coincident():
    rng = np.random.default_rng(41)
    params = EnergyParams(alpha=0.7, beta=2.2)
    frame = plane_frame()
    for _ in range(100):
        p = rng.standard_normal(3)
        q = rng.standard_normal(3)
        value = alignment(params, frame, p, q)
        assert value >= 0.0
        if not np.array_equal(p, q):
            assert value > 0.0


def test_alignment_gradient_formula_and_fd():
    params = EnergyParams(alpha=2.0, beta=4.0)
    frame = plane_frame()
    p = np.zeros(3)
    q = np.array([1.0, 0.0, 2.0])
    grad = alignment_gradient(params, frame, p, q)
    assert np.allclose(grad, [2.0, 0.0, 8.0])
    assert np.allclose(alignment_gradient(params, frame, p, p), 0.0)
    # frozen-projection finite differences
    h = 1e-6
    fd = np.zeros(3)
    for k in range(3):
        dq = np.zeros(3)
        dq[k] = h
        fd[k] = (
            alignment(params, frame, p, q + dq) - alignment(params, frame, p, q - dq)
        ) / (2 * h)
    assert np.max(np.abs(grad - fd)) < 1e-8


# --- total energy -----------------------------------------------------------


def test_total_energy_zero_on_manifold():
    params = EnergyParams(gamma=0.0, lam=0.0)
    assert total_energy(params, PLANE, np.array([0.4, 0.2, 0.0])) == 0.0


def test_total_energy_reduces_to_alignment_bit_identical():
    params = EnergyParams(alpha=1.3, beta=0.6, gamma=0.0, lam=0.0)
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = rng.uniform(-1.0, 1.0, size=3)
        proj = closest_point(PLANE, q)
        frame = tangent_frame(PLANE, proj.u)
        assert total_energy(params, PLANE, q) == alignment(
            params, frame, proj.point, q
        )


def test_total_energy_sphere_curvature_term():
    # on the sphere the alignment vanishes and the curvature integral adds
    # gamma * (2 pi)^2
    params = EnergyParams(alpha=1.0, beta=1.0, gamma=1.0, lam=0.0)
    q = np.array([0.0, 1.0, 0.0])
    value = total_energy(params, SPHERE, q)
    expected = (2 * math.pi) ** 2
    assert abs(value - expected) <= 0.01 * expected


def test_total_gradient_plane_normal_pull():
    params = EnergyParams(alpha=1.0, beta=1.0)
    grad = total_gradient(params, PLANE, np.array([1.0, 2.0, 3.0]))
    assert np.allclose(grad, [0.0, 0.0, 3.0], atol=1e-12)


def test_total_gradient_constant_curvature_matches_alignment():
    params = EnergyParams(alpha=1.2, beta=0.7, gamma=0.5, lam=0.0)
    rng = np.random.default_rng(11)
    for _ in range(20):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        q = direction * rng.uniform(0.85, 1.15)
        proj = closest_point(SPHERE, q)
        frame = tangent_frame(SPHERE, proj.u)
        expected = alignment_gradient(params, frame, proj.point, q)
        grad = total_gradient(params, SPHERE, q)
        assert np.max(np.abs(grad - expected)) <= 2e-3


def test_total_gradient_fd_in_decay_band():
    # full finite-difference consistency off the plateau, away from joints
    params = EnergyParams(alpha=1.3, beta=0.8, gamma=0.05, lam=0.4, tube_radius=0.1)
    rng = np.random.default_rng(13)
    h = 5e-4
    for spec in (PLANE, SPHERE, TORUS):
        for _ in range(20):
            if spec.kind == "plane":
                u = rng.uniform(-2, 2, size=2)
            elif spec.kind == "sphere":
                u = np.array([rng.uniform(0.6, math.pi - 0.6), rng.uniform(0.3, 6.0)])
            else:
                u = rng.uniform(0.3, 6.0, size=2)
            frame = tangent_frame(spec, u)
            s = rng.uniform(1.1, 1.8) * (1 if rng.uniform() < 0.5 else -1)
            q = frame.point + s * params.tube_radius * frame.normal_basis[0]
            grad = total_gradient(params, spec, q)
            fd = np.zeros(3)
            for k in range(3):
                dq = np.zeros(3)
                dq[k] = h
                fd[k] = (
                    total_energy(params, spec, q + dq)
                    - total_energy(params, spec, q - dq)
                ) / (2 * h)
            tol = max(1e-4, 1e-3 * float(np.linalg.norm(fd)))
            assert np.max(np.abs(grad - fd)) <= tol


def test_projection_counts(count_calls):
    # the field terms reuse the energy's own projection; only the curvature
    # gradient's 2n central differences re-project
    calls = count_calls(geometry.closest_point)
    params = EnergyParams(gamma=0.02, lam=0.1, tube_radius=0.1)
    q = np.array([2.65, 0.0, 0.05])  # in the decay band: every term is live
    assert total_energy(params, TORUS, q) > 0.0
    assert len(calls) == 1
    calls.clear()
    assert np.linalg.norm(total_gradient(params, TORUS, q)) > 0.0
    assert len(calls) == 1 + 2 * 3


# --- stationarity residuals -------------------------------------------------


def test_el_residual_normal_term_only():
    params = EnergyParams(alpha=1.0, beta=2.5)
    q = np.array([0.3, -0.2, 0.4])
    res = total_gradient(params, PLANE, q)
    assert np.allclose(res, [0.0, 0.0, 2.5 * 0.4], atol=1e-12)


# --- reduced equation -------------------------------------------------------


def test_reduced_residual_values():
    assert np.allclose(reduced_residual([3.0, 3.0, 3.0], 2.0, 1.5), 0.0)
    assert np.allclose(reduced_residual([1.0, 2.0], 0.0, 5.0), [-1.0, -2.0])
    assert np.allclose(reduced_residual([1.0, 2.0], 1.0, 1.0), [0.0, -1.0])


def test_solve_lambda_consistent():
    sol = solve_lambda_reduced([3.0, 3.0], 1.5)
    assert sol.consistent and sol.lambda_star == pytest.approx(2.0, rel=1e-15)
    assert np.allclose(sol.lambdas, [2.0, 2.0])


def test_solve_lambda_inconsistent():
    sol = solve_lambda_reduced([1.0, 2.0], 1.0)
    assert not sol.consistent and sol.lambda_star is None
    assert np.allclose(sol.lambdas, [1.0, 2.0])


def test_solve_lambda_zero_curvature_errors():
    with pytest.raises(NoSolutionError):
        solve_lambda_reduced([1.0, 0.0], 0.0)
    with pytest.raises(IndeterminateError):
        solve_lambda_reduced([0.0, 0.0], 0.0)


def test_reduced_closure_property():
    rng = np.random.default_rng(19)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        c = rng.uniform(-8.0, 8.0)
        curvature = rng.uniform(0.2, 5.0) * (1 if rng.uniform() < 0.5 else -1)
        q = np.full(n, c)
        sol = solve_lambda_reduced(q, curvature)
        assert sol.consistent
        res = reduced_residual(q, sol.lambda_star, curvature)
        assert np.linalg.norm(res) <= 1e-12


def test_three_dim_curvature_term_builds_no_riemann_tensor(count_calls):
    # with gamma > 0 on the graph 3-manifold G3, the energy and its gradient
    # read the Gauss-equation curvature only
    tensors = count_calls(geometry.curvature_tensor)
    params = EnergyParams(alpha=1.0, beta=1.0, gamma=0.02, lam=0.0)
    q = np.array([0.25, -0.3, 0.35, 0.1])
    assert math.isfinite(total_energy(params, G3, q))
    assert np.all(np.isfinite(total_gradient(params, G3, q)))
    assert tensors == []
