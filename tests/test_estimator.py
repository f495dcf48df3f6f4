import numpy as np
import pytest

from lattice_embed import solver
from lattice_embed.estimator import LatticeEmbedder
from lattice_embed.geometry import ManifoldSpec, make_manifold


def test_get_set_params_roundtrip():
    est = LatticeEmbedder(manifold="sphere", manifold_params={"radius": 2.0}, gamma=0.1)
    params = est.get_params()
    assert params["manifold"] == "sphere"
    assert params["gamma"] == 0.1
    clone = LatticeEmbedder(**params)
    assert clone.get_params() == params
    est.set_params(alpha=3.0)
    assert est.alpha == 3.0
    with pytest.raises(ValueError):
        est.set_params(nonsense=1)
    # only the manifold may be passed by position
    with pytest.raises(TypeError):
        LatticeEmbedder("plane", None)


def test_nonpositive_grad_tol_rejected():
    # a zero tolerance would run every point to max_iters and converge none
    est = LatticeEmbedder(manifold="plane", grad_tol=0.0, max_iters=50)
    with pytest.raises(ValueError):
        est.fit(np.array([[0.1, 0.2, 0.05]]))


def test_fit_projects_plane_points():
    rng = np.random.default_rng(3)
    X = rng.uniform(-1.0, 1.0, size=(20, 3)) * np.array([1.0, 1.0, 0.15])
    est = LatticeEmbedder(manifold="plane", tube_radius=0.1)
    est.fit(X)
    assert est.embedding_.shape == X.shape
    assert np.max(np.abs(est.embedding_[:, 2])) <= 1e-6
    assert np.allclose(est.embedding_[:, :2], X[:, :2], atol=1e-9)
    assert est.report_.fraction_converged == 1.0


def test_fit_transform_equals_fit_embedding():
    rng = np.random.default_rng(5)
    X = rng.uniform(-0.5, 0.5, size=(10, 3)) * np.array([1.0, 1.0, 0.1])
    est = LatticeEmbedder(manifold="plane")
    out = est.fit_transform(X)
    assert np.array_equal(out, est.embedding_)


def test_transform_requires_fit():
    est = LatticeEmbedder()
    with pytest.raises(RuntimeError):
        est.transform(np.zeros((2, 3)))


def test_transform_new_points_and_passthrough():
    est = LatticeEmbedder(manifold="sphere", manifold_params={"radius": 1.0})
    est.fit(np.array([[0.0, 0.0, 1.1]]))
    X = np.array([[0.0, 0.0, 1.15], [3.0, 0.0, 0.0]])
    out = est.transform(X)
    assert np.allclose(out[0], [0.0, 0.0, 1.0], atol=1e-6)
    # second row is outside the energy support: passes through, flagged
    assert np.array_equal(out[1], X[1])
    assert est.last_report_.skipped == 1


def test_manifold_spec_instance_accepted():
    spec = ManifoldSpec.torus(2.0, 0.5)
    est = LatticeEmbedder(manifold=spec)
    out = est.fit_transform(np.array([[2.6, 0.0, 0.05]]))
    # lands on the torus: distance from the tube center circle equals r
    ring = out[0].copy()
    rho = np.hypot(ring[0], ring[1])
    assert abs(np.hypot(rho - 2.0, ring[2]) - 0.5) <= 1e-6


def test_dimension_check():
    est = LatticeEmbedder(manifold="plane")
    with pytest.raises(ValueError):
        est.fit(np.zeros((3, 2)))


def test_duplicate_rows_rejected_before_any_solve(count_calls):
    descents = count_calls(solver.descend_point)
    with pytest.raises(ValueError, match="duplicate lattice point"):
        LatticeEmbedder("plane").fit_transform([[0.1, 0.2, 0.05]] * 2)
    assert descents == []


def test_curvature_term_on_a_curve_rejected_before_any_solve(count_calls):
    # a curve has no tangent 2-plane, so every point's solve would fail
    curve = make_manifold(
        "parametric", expressions=["cos(u1)", "sin(u1)", "0.2*u1"], bounds=[(0, 6)]
    )
    descents = count_calls(solver.descend_point)
    with pytest.raises(ValueError, match="^gamma must be 0 on a curve"):
        LatticeEmbedder(curve, gamma=0.02).fit([[1.0, 0.05, 0.0], [0.0, 1.0, 0.3]])
    assert descents == []
