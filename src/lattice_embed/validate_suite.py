"""Built-in acceptance suite.

Each check pins one acceptance criterion at its stated tolerance, with fixed
seeds so results are reproducible.  The ``validate`` CLI command runs every
check and prints one line per criterion; tests/test_acceptance.py runs the
same checks under pytest.
"""
from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .energy import (
    EnergyParams,
    reduced_residual,
    solve_lambda_reduced,
    total_energy,
    total_gradient,
)
from .field import activation, activation_gradient, regularization_gradient
from .geometry import (
    PARALLEL_TOL,
    ManifoldSpec,
    closest_point,
    mean_sectional_curvature,
    metric,
    sectional_curvature,
    tangent_frame,
)
from .lattice import (
    EmbeddingMap,
    LatticeSpec,
    alignment_of_linear_map,
    check_injective_invert,
    extend_map,
    generate_lattice,
    jacobian_of_extension,
    residual_jacobian_derivative,
)
from .solver import SolverConfig, descend_point, embed_lattice, verify_stationarity
from .quadrature import build_quadrature, curvature_double_integral, sphere_measure

TWO_PI_SQ = (2.0 * math.pi) ** 2


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _draw_tangent_pair(rng, g):
    """Random chart-coordinate pair with a comfortably nondegenerate plane."""
    while True:
        v = rng.standard_normal(g.shape[0])
        w = rng.standard_normal(g.shape[0])
        nv = math.sqrt(float(v @ g @ v))
        nw = math.sqrt(float(w @ g @ w))
        if nv < 1e-9 or nw < 1e-9:
            continue
        cos = float(v @ g @ w) / (nv * nw)
        if 1.0 - cos * cos > 1e-2:
            return v, w


def _tube_point(rng, spec, params, *, margin=(0.1, 1.8)):
    """Random ambient point inside the activation tube of the manifold."""
    if spec.kind == "plane":
        u = rng.uniform(-3.0, 3.0, size=2)
    elif spec.kind == "sphere":
        u = np.array(
            [rng.uniform(0.5, math.pi - 0.5), rng.uniform(0.3, 2 * math.pi - 0.3)]
        )
    else:
        u = rng.uniform(0.3, 2 * math.pi - 0.3, size=2)
    frame = tangent_frame(spec, u)
    side = 1.0 if rng.uniform() < 0.5 else -1.0
    eta = side * rng.uniform(*margin) * params.tube_radius
    return frame.point + eta * frame.normal_basis[0]


# --- criterion 1 ------------------------------------------------------------


def check_constant_curvature() -> str:
    rng = np.random.default_rng(101)
    worst_fd = worst_an = 0.0
    for radius in (0.5, 1.0, 2.0):
        spec = ManifoldSpec.sphere(radius)
        expected = 1.0 / radius**2
        for _ in range(100):
            u = np.array(
                [
                    rng.uniform(0.4, math.pi - 0.4),
                    rng.uniform(0.3, 2 * math.pi - 0.3),
                ]
            )
            v, w = _draw_tangent_pair(rng, metric(spec, u))
            k_fd = sectional_curvature(spec, u, v, w)
            k_an = mean_sectional_curvature(spec, u)
            worst_fd = max(worst_fd, abs(k_fd - expected))
            worst_an = max(worst_an, abs(k_an - expected))
            assert abs(k_fd - expected) <= 1e-3, (radius, u, k_fd)
            assert abs(k_an - expected) <= 1e-6, (radius, u, k_an)
    plane = ManifoldSpec.plane()
    worst_plane = 0.0
    for _ in range(100):
        u = rng.uniform(-5.0, 5.0, size=2)
        v, w = _draw_tangent_pair(rng, np.eye(2))
        k = sectional_curvature(plane, u, v, w)
        worst_plane = max(worst_plane, abs(k))
        assert abs(k) <= 1e-8, (u, k)
    return (
        f"sphere fd err {worst_fd:.2e} (tol 1e-3), analytic err "
        f"{worst_an:.2e} (tol 1e-6), plane |K| {worst_plane:.2e} (tol 1e-8)"
    )


# --- criterion 2 ------------------------------------------------------------


def check_torus_curvature() -> str:
    big, small = 2.0, 0.5
    spec = ManifoldSpec.torus(big, small)
    worst = 0.0
    for pol in (0.0, math.pi / 2.0, math.pi):
        expected = math.cos(pol) / (small * (big + small * math.cos(pol)))
        u = np.array([1.0, pol])
        k_fd = sectional_curvature(spec, u, [1.0, 0.2], [0.1, 1.0])
        k_an = mean_sectional_curvature(spec, u)
        assert abs(k_fd - expected) <= 1e-3, (pol, k_fd, expected)
        assert abs(k_an - expected) <= 1e-12, (pol, k_an, expected)
        worst = max(worst, abs(k_fd - expected))
    return f"worst fd error {worst:.2e} at tol 1e-3 (oracle cos v / (r(R + r cos v)))"


# --- criterion 3 ------------------------------------------------------------

SPHERE3 = ManifoldSpec.parametric(
    bounds=[(0.3, 2.8), (0.3, 2.8), (0.0, 6.0)],
    expressions=[
        "cos(u1)",
        "sin(u1)*cos(u2)",
        "sin(u1)*sin(u2)*cos(u3)",
        "sin(u1)*sin(u2)*sin(u3)",
    ],
)
# a graph 3-manifold in R^4 with curvature of both signs
G3 = ManifoldSpec.parametric(
    bounds=[(-1.0, 1.0)] * 3,
    expressions=["u1", "u2", "u3", "0.4*sin(u1)*cos(2*u2) + 0.3*u3*u3*u1"],
)
G3_POINT = np.array([0.2, -0.3, 0.4])


def all_pairs_integral(spec, u, nodes) -> float:
    """The tangent-sphere integral as the equal-weight sum over every pair of
    the (m, d) unit nodes that spans a plane, rescaled to the full pair
    measure.  The nodes are directions of a metric-orthonormal frame at
    chart(u): B with B^T g B = I maps them to chart coordinates."""
    cos = nodes @ nodes.T
    ii, jj = np.nonzero(1.0 - cos * cos > PARALLEL_TOL)
    basis = np.linalg.inv(np.linalg.cholesky(metric(spec, u))).T
    directions = nodes @ basis.T
    kvals = sectional_curvature(spec, u, directions[ii], directions[jj])
    return sphere_measure(nodes.shape[1]) ** 2 * float(np.mean(kvals))


def check_curvature_integral() -> str:
    u = np.array([1.2, 0.7])
    c1 = curvature_double_integral(ManifoldSpec.sphere(1.0), u)
    assert abs(c1 - TWO_PI_SQ) <= 1e-12 * TWO_PI_SQ, (c1, TWO_PI_SQ)
    c2 = curvature_double_integral(ManifoldSpec.sphere(2.0), u)
    assert abs(c2 - TWO_PI_SQ / 4.0) <= 1e-12 * TWO_PI_SQ, (c2, TWO_PI_SQ / 4.0)
    c_plane = curvature_double_integral(ManifoldSpec.plane(), np.array([0.3, -0.2]))
    assert abs(c_plane) <= 1e-8, c_plane

    # every sectional curvature of the unit 3-sphere is 1
    expected3 = sphere_measure(3) ** 2
    c3 = curvature_double_integral(SPHERE3, np.array([1.1, 1.3, 2.0]))
    rel3 = abs(c3 - expected3) / expected3
    assert rel3 <= 1e-12, (c3, expected3)

    # oracle: independent uniform direction pairs of a metric-orthonormal
    # frame (B^T g B = I), each its own plane
    closed = curvature_double_integral(G3, G3_POINT)
    rng = np.random.default_rng(7)
    a, b = (rng.standard_normal((400_000, 3)) for _ in range(2))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    basis = np.linalg.inv(np.linalg.cholesky(metric(G3, G3_POINT))).T
    samples = sphere_measure(3) ** 2 * sectional_curvature(
        G3, G3_POINT, a @ basis.T, b @ basis.T
    )
    mean = float(np.mean(samples))
    stderr = float(np.std(samples)) / math.sqrt(samples.size)
    z = abs(closed - mean) / stderr
    assert z <= 4.0, (closed, mean, stderr)

    # the all-pairs sum over one node set approaches the closed form
    err64, err256 = (
        abs(all_pairs_integral(G3, G3_POINT, build_quadrature(3, m, seed=0)) - closed)
        for m in (64, 256)
    )
    assert err256 < err64, (err256, err64)
    return (
        f"sphere r=1 err {abs(c1 - TWO_PI_SQ):.1e}, r=2 value {c2:.4f}, "
        f"plane {c_plane:.1e}, unit 3-sphere rel err {rel3:.1e}; G3 "
        f"{closed:.4f} vs random pairs {mean:.4f} +- {stderr:.4f} (z {z:.2f}), "
        f"all-pairs err256 {err256:.2f} < err64 {err64:.2f}"
    )


# --- criterion 4 ------------------------------------------------------------


def check_gradient_consistency() -> str:
    rng = np.random.default_rng(202)
    params = EnergyParams(
        alpha=1.3, beta=0.8, gamma=0.05, lam=0.4, tube_radius=0.1
    )
    oracle_step = 5e-4
    worst_excess = -np.inf
    for spec in (
        ManifoldSpec.plane(),
        ManifoldSpec.sphere(1.0),
        ManifoldSpec.torus(2.0, 0.5),
    ):
        for _ in range(100):
            q = _tube_point(rng, spec, params, margin=(0.1, 0.95))
            grad = total_gradient(params, spec, q)
            fd = np.zeros_like(q)
            for k in range(q.shape[0]):
                offset = np.zeros_like(q)
                offset[k] = oracle_step
                fd[k] = (
                    total_energy(params, spec, q + offset)
                    - total_energy(params, spec, q - offset)
                ) / (2.0 * oracle_step)
            tol = max(1e-4, 1e-3 * float(np.linalg.norm(fd)))
            gap = float(np.max(np.abs(grad - fd)))
            worst_excess = max(worst_excess, gap - tol)
            assert gap <= tol, (spec.kind, q, gap, tol)
    return f"worst componentwise gap minus tolerance: {worst_excess:.2e} (<= 0)"


# --- criterion 5 ------------------------------------------------------------


def check_projection_equivalence() -> str:
    rng = np.random.default_rng(303)
    params = EnergyParams(alpha=1.0, beta=1.0, gamma=0.0, lam=0.0, tube_radius=0.1)
    config = SolverConfig()
    worst = 0.0
    for spec, reach in (
        (ManifoldSpec.plane(), 0.5),
        (ManifoldSpec.sphere(1.0), 0.3),
        (ManifoldSpec.torus(2.0, 0.5), 0.2),
    ):
        for _ in range(50):
            q0 = _tube_point(rng, spec, params, margin=(0.05, reach / params.tube_radius))
            target = closest_point(spec, q0).point
            q_star, trace = descend_point(params, spec, q0, config)
            gap = float(np.linalg.norm(q_star - target))
            worst = max(worst, gap)
            assert gap <= 1e-6, (spec.kind, q0, gap)
            energies = trace.energies
            assert all(
                b < a for a, b in zip(energies, energies[1:])
            ), (spec.kind, "energy trace not strictly decreasing")
    return f"worst distance to analytic projection {worst:.2e} (tol 1e-6)"


# --- criterion 6 ------------------------------------------------------------


def check_plane_lattice_stationarity() -> str:
    spec = ManifoldSpec.plane()
    params = EnergyParams(alpha=1.0, beta=1.0, gamma=0.0, lam=0.0, tube_radius=0.1)
    lattice = LatticeSpec(
        bounds=np.array([[0.0, 0.4], [0.0, 0.4], [-0.1, 0.1]]), spacing=0.1
    )
    assert lattice.axis_counts == (5, 5, 3)
    emap, report = embed_lattice(params, spec, lattice, SolverConfig())
    stat = verify_stationarity(params, spec, emap, tol=1e-5)
    fraction = stat.passed / report.attempted if report.attempted else 0.0
    assert report.attempted == 75, report.attempted
    assert fraction >= 0.99, (fraction, stat.worst_norm)
    return (
        f"{stat.passed}/{report.attempted} points with residual <= 1e-5 "
        f"(worst {stat.worst_norm:.2e})"
    )


# --- criterion 7 ------------------------------------------------------------


def check_injectivity_inversion() -> str:
    spec = ManifoldSpec.plane()
    params = EnergyParams(alpha=1.0, beta=1.0, gamma=0.0, lam=0.0, tube_radius=0.1)
    lattice = LatticeSpec(
        bounds=np.array([[0.0, 0.4], [0.0, 0.4], [0.05, 0.05]]), spacing=0.1
    )
    emap, report = embed_lattice(params, spec, lattice, SolverConfig())
    assert report.fraction_converged == 1.0
    tol = 1e-9 * lattice.spacing
    result = check_injective_invert(emap, tol)
    assert result.injective, result.colliding_pair
    for entry in emap.entries:
        assert result.inverse[tuple(entry.image)] == tuple(entry.point)
    return (
        f"{len(emap)} images injective at tol {tol:.1e}, min pair distance "
        f"{result.min_pair_distance:.3f}, inverse roundtrips exactly"
    )


# --- criterion 8 ------------------------------------------------------------


def check_linear_map_minimizer() -> str:
    rng = np.random.default_rng(404)
    spec = ManifoldSpec.plane()
    params = EnergyParams(alpha=1.0, beta=1.0)
    samples = rng.uniform(-2.0, 2.0, size=(10, 3))
    assert np.linalg.matrix_rank(samples) == 3  # spanning samples
    base = alignment_of_linear_map(np.eye(3), samples, spec, params)
    assert base == 0.0, base
    for _ in range(20):
        direction = rng.standard_normal((3, 3))
        direction /= np.linalg.norm(direction)
        for t in (0.1, -0.1, 0.01, -0.01):
            value = alignment_of_linear_map(
                np.eye(3) + t * direction, samples, spec, params
            )
            assert value > 0.0, (t, value)

    worst = 0.0
    for _ in range(100):
        q = rng.uniform(-3.0, 3.0, size=3)
        jac = rng.standard_normal((3, 3))
        i = int(rng.integers(0, 3))
        j = int(rng.integers(0, 3))
        h = 1e-2
        jp, jm = jac.copy(), jac.copy()
        jp[i, j] += h
        jm[i, j] -= h
        fd = ((q - jp @ q)[i] - (q - jm @ q)[i]) / (2.0 * h)
        gap = abs(residual_jacobian_derivative(q, i, j) - fd)
        worst = max(worst, gap)
        assert gap <= 1e-10, (q, i, j, gap)
    return (
        f"A(I)=0, A(I+tE)>0 for 80 perturbations; derivative matches FD "
        f"within {worst:.1e} (tol 1e-10)"
    )


# --- criterion 9 ------------------------------------------------------------


def check_reduced_pde() -> str:
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        c = float(rng.uniform(0.2, 10.0)) * (1.0 if rng.uniform() < 0.5 else -1.0)
        curvature = float(rng.uniform(0.1, 10.0)) * (
            1.0 if rng.uniform() < 0.5 else -1.0
        )
        q = np.full(n, c)
        sol = solve_lambda_reduced(q, curvature)
        assert sol.consistent, (q, curvature)
        res = float(np.linalg.norm(reduced_residual(q, sol.lambda_star, curvature)))
        worst = max(worst, res)
        assert res <= 1e-12, (q, curvature, res)
    for _ in range(100):
        q = rng.uniform(-5.0, 5.0, size=3)
        while float(np.max(q) - np.min(q)) < 1e-3:
            q = rng.uniform(-5.0, 5.0, size=3)
        sol = solve_lambda_reduced(q, 1.7)
        assert not sol.consistent, q
    return f"worst equal-component residual {worst:.1e} (tol 1e-12)"


# --- criterion 10 -----------------------------------------------------------


def check_interpolation_jacobian() -> str:
    rng = np.random.default_rng(606)
    lattice = LatticeSpec(
        bounds=np.array([[0.0, 2.0], [0.0, 2.0], [0.0, 2.0]]), spacing=1.0
    )
    points = generate_lattice(lattice)
    matrix = rng.standard_normal((3, 3))
    offset = rng.standard_normal(3)
    emap = EmbeddingMap.from_pairs(points, points @ matrix.T + offset)
    worst_value = worst_jac = 0.0
    for _ in range(50):
        x = rng.uniform(0.15, 1.85, size=3)
        gap = float(
            np.max(np.abs(extend_map(emap, lattice, x) - (matrix @ x + offset)))
        )
        worst_value = max(worst_value, gap)
        assert gap <= 1e-12, (x, gap)
        jac = jacobian_of_extension(emap, lattice, x, step=0.1)
        jac_gap = float(np.max(np.abs(jac - matrix)))
        worst_jac = max(worst_jac, jac_gap)
        assert jac_gap <= 1e-8, (x, jac_gap)
    return (
        f"affine map reproduced within {worst_value:.1e} (tol 1e-12), Jacobian "
        f"within {worst_jac:.1e} (tol 1e-8)"
    )


# --- criterion 11 -----------------------------------------------------------

_DETERMINISM_CONFIG = """
manifold.kind = plane
lattice.bounds = 0:0.4, 0:0.4, -0.1:0.1
lattice.spacing = 0.1
"""


def check_determinism() -> str:
    import contextlib
    import io

    from . import cli
    from .config import parse_config

    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        config = parse_config(_DETERMINISM_CONFIG + f"output.directory = {tmp}\n")
        for _ in range(2):  # identical config, back-to-back runs
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.run_command("embed", config)
            assert status == 0, status
            outputs.append(
                (
                    Path(tmp, "points.csv").read_bytes(),
                    Path(tmp, "report.jsonl").read_bytes(),
                )
            )
    assert outputs[0] == outputs[1], "embed outputs differ between identical runs"

    spec = ManifoldSpec.plane()
    params = EnergyParams(tube_radius=0.1)
    lattice = LatticeSpec(
        bounds=np.array([[0.0, 0.4], [0.0, 0.4], [-0.1, 0.1]]), spacing=0.1
    )
    config = SolverConfig()
    emap, _ = embed_lattice(params, spec, lattice, config)
    # each entry is its lattice point solved alone: no state crosses points
    points = generate_lattice(lattice)
    assert len(emap) == len(points) == 75, len(emap)
    for index, (q, entry) in enumerate(zip(points, emap.entries)):
        assert not entry.skipped, index
        image, trace = descend_point(params, spec, q, config)
        assert image.tobytes() == entry.image.tobytes(), index
        assert trace.iterations == entry.iterations, index
    return (
        "byte-identical files across runs; each of the 75 lattice entries "
        "equals its point solved alone"
    )


# --- criterion 12 -----------------------------------------------------------


def check_activation_field() -> str:
    spec = ManifoldSpec.plane()
    params = EnergyParams(lam=0.7, tube_radius=0.1)
    assert activation(params, spec, np.array([0.3, -0.2, 0.0])) == 1.0
    assert activation(params, spec, np.array([0.0, 0.0, 0.05])) == 1.0
    mid = activation(params, spec, np.array([0.1, 0.2, 0.15]))
    assert abs(mid - 0.5) <= 1e-12, mid
    assert activation(params, spec, np.array([0.0, 0.0, 0.25])) == 0.0
    assert activation(params, spec, np.array([0.0, 0.0, -0.31])) == 0.0

    worst = 0.0
    oracle_step = params.tube_radius / 400.0

    def smoothing_energy(x):
        grad = activation_gradient(params, spec, x)
        return 0.5 * params.lam * float(grad @ grad)

    for s in (1.2, 1.3, 1.7):
        x = np.array([0.05, -0.3, s * params.tube_radius])
        value = regularization_gradient(params, spec, x)
        fd = np.zeros(3)
        for k in range(3):
            offset = np.zeros(3)
            offset[k] = oracle_step
            fd[k] = (
                smoothing_energy(x + offset) - smoothing_energy(x - offset)
            ) / (2.0 * oracle_step)
        mask = np.abs(fd) > 1e-6
        rel = float(np.max(np.abs(value[mask] - fd[mask]) / np.abs(fd[mask])))
        worst = max(worst, rel)
        assert rel <= 1e-3, (s, rel)
    return (
        f"plateau 1 / midpoint 0.5 / zero tail exact; regularization gradient "
        f"matches energy FD within {worst:.1e} relative (tol 1e-3)"
    )


ALL_CHECKS = [
    ("1 constant-curvature oracle", check_constant_curvature),
    ("2 torus curvature oracle", check_torus_curvature),
    ("3 curvature integral", check_curvature_integral),
    ("4 gradient consistency", check_gradient_consistency),
    ("5 projection equivalence", check_projection_equivalence),
    ("6 lattice stationarity", check_plane_lattice_stationarity),
    ("7 injectivity and inversion", check_injectivity_inversion),
    ("8 linear-map minimizer and derivative", check_linear_map_minimizer),
    ("9 reduced stationarity equation", check_reduced_pde),
    ("10 interpolation and Jacobian", check_interpolation_jacobian),
    ("11 determinism", check_determinism),
    ("12 activation field", check_activation_field),
]


def run_all() -> list[CheckResult]:
    results = []
    for name, fn in ALL_CHECKS:
        try:
            detail = fn()
            results.append(CheckResult(name=name, passed=True, detail=detail or ""))
        except Exception as exc:  # report, never abort the suite
            results.append(
                CheckResult(
                    name=name, passed=False, detail=f"{type(exc).__name__}: {exc}"
                )
            )
    return results
