import numpy as np
import pytest

from lattice_embed.field import (
    ActivationField,
    activation,
    activation_gradient,
    regularization_gradient,
)
from lattice_embed.geometry import ManifoldSpec, tangent_frame

PLANE = ManifoldSpec.plane()
GRAPH = ManifoldSpec.parametric(
    bounds=[(-1.0, 1.0), (-1.0, 1.0)],
    expressions=["u1", "u2", "0.3*sin(2*u1)*cos(u2) + 0.1*u1^2"],
)
# (manifold, chart parameter of the foot point) for the finite-difference oracles
FOOT_POINTS = {
    "plane": (PLANE, [0.4, -0.1]),
    "sphere": (ManifoldSpec.sphere(1.0), [1.1, 0.7]),
    "torus": (ManifoldSpec.torus(2.0, 0.5), [0.8, 2.0]),
    "graph": (GRAPH, [0.3, -0.4]),
}


@pytest.fixture
def field():
    return ActivationField(manifold=PLANE, tube_radius=0.1)


def test_step_validation():
    with pytest.raises(ValueError):
        ActivationField(manifold=PLANE, tube_radius=-1.0)


def test_value_on_manifold(field):
    assert activation(field, [0.4, -0.2, 0.0]) == 1.0


def test_plateau_covers_tube(field):
    assert activation(field, [0.0, 0.0, 0.099]) == 1.0
    assert activation(field, [0.0, 0.0, 0.1]) == 1.0


def test_midpoint_half(field):
    assert abs(activation(field, [0.0, 0.0, 0.15]) - 0.5) <= 1e-12


def test_zero_outside_double_radius(field):
    assert activation(field, [0.0, 0.0, 0.2]) == 0.0
    assert activation(field, [5.0, 5.0, -3.0]) == 0.0


def test_range_and_monotone_decay(field):
    rng = np.random.default_rng(31)
    values = []
    scaled = np.sort(rng.uniform(1.0, 2.0, size=1000))
    for s in scaled:
        value = activation(field, [0.3, 0.1, s * field.tube_radius])
        assert 0.0 <= value <= 1.0
        values.append(value)
    diffs = np.diff(values)
    assert np.all(diffs <= 1e-15)


def test_mirror_symmetry(field):
    rng = np.random.default_rng(37)
    for _ in range(100):
        x, y = rng.uniform(-2, 2, size=2)
        z = rng.uniform(0.0, 0.3)
        up = activation(field, [x, y, z])
        down = activation(field, [x, y, -z])
        assert up == down


def test_gradient_zero_on_plateau_and_outside(field):
    assert np.max(np.abs(activation_gradient(field, [0.1, 0.2, 0.0]))) <= 1e-8
    assert np.max(np.abs(activation_gradient(field, [0.1, 0.2, 0.05]))) <= 1e-8
    assert np.max(np.abs(activation_gradient(field, [0.1, 0.2, 0.23]))) <= 1e-10


def test_gradient_midband_magnitude_and_direction(field):
    # at s = 1.5 the slope is |psi'(0.5)| / delta = 1.875 / 0.1 = 18.75,
    # pointing against the outward normal
    grad = activation_gradient(field, [0.0, 0.0, 0.15])
    assert abs(np.linalg.norm(grad) - 18.75) <= 1e-3 * 18.75
    assert grad[2] < 0.0
    assert abs(grad[0]) < 1e-9 and abs(grad[1]) < 1e-9
    below = activation_gradient(field, [0.0, 0.0, -0.15])
    assert below[2] > 0.0


def test_c2_joints_have_continuous_second_difference(field):
    # one-sided difference quotients of grad A agree across both joints to
    # O(h * |psi'''|/delta^3); psi''' jumps by 60 at t in {0, 1}
    h = field.tube_radius / 400.0
    bound = 5.0 * h * 60.0 / field.tube_radius**3
    for joint in (0.1, 0.2):
        x = np.array([0.0, 0.0, joint])
        step = np.array([0.0, 0.0, h])
        d_plus = (
            activation_gradient(field, x + step) - activation_gradient(field, x)
        ) / h
        d_minus = (
            activation_gradient(field, x) - activation_gradient(field, x - step)
        ) / h
        assert np.max(np.abs(d_plus - d_minus)) <= bound


def test_regularization_zero_cases(field):
    assert np.all(regularization_gradient(field, [0.1, 0.2, 0.0], 2.0) == 0.0) or (
        np.max(np.abs(regularization_gradient(field, [0.1, 0.2, 0.0], 2.0))) <= 1e-6
    )
    x = np.array([0.1, 0.2, 0.14])
    assert np.array_equal(regularization_gradient(field, x, 0.0), np.zeros(3))


def _band_points(name, scaled):
    """Ambient points at scaled tube radii along the normal of a foot point."""
    spec, u = FOOT_POINTS[name]
    field = ActivationField(manifold=spec, tube_radius=0.1)
    frame = tangent_frame(spec, u)
    normal = frame.normal_basis[0]
    return field, [frame.point + s * field.tube_radius * normal for s in scaled]


def _central_difference(fn, x, h):
    fd = np.zeros(x.shape[0])
    for k in range(x.shape[0]):
        offset = np.zeros(x.shape[0])
        offset[k] = h
        fd[k] = (fn(x + offset) - fn(x - offset)) / (2 * h)
    return fd


def _assert_matches_fd(value, fd, where):
    mask = np.abs(fd) > 1e-6
    assert mask.any(), where
    rel = np.max(np.abs(value[mask] - fd[mask]) / np.abs(fd[mask]))
    assert rel <= 1e-3, (where, rel)


@pytest.mark.parametrize("name", sorted(FOOT_POINTS))
def test_activation_gradient_matches_value_fd(name):
    field, points = _band_points(name, (1.06, 1.3, 1.6, 1.94))
    h = field.tube_radius / 400.0
    for x in points:
        fd = _central_difference(lambda y: activation(field, y), x, h)
        _assert_matches_fd(activation_gradient(field, x), fd, x)


@pytest.mark.parametrize("name", sorted(FOOT_POINTS))
def test_regularization_matches_energy_fd(name):
    lam = 1.3
    field, points = _band_points(name, (1.15, 1.35, 1.6, 1.85))

    def energy(x):
        grad = activation_gradient(field, x)
        return 0.5 * lam * float(grad @ grad)

    h = field.tube_radius / 400.0
    for x in points:
        fd = _central_difference(energy, x, h)
        _assert_matches_fd(regularization_gradient(field, x, lam), fd, x)


def test_field_on_sphere_tube():
    sphere_field = ActivationField(manifold=ManifoldSpec.sphere(1.0), tube_radius=0.1)
    assert activation(sphere_field, [0.0, 0.0, 1.05]) == 1.0
    assert activation(sphere_field, [0.0, 0.0, 1.31]) == 0.0
    mid = activation(sphere_field, [0.0, 1.15, 0.0])
    assert abs(mid - 0.5) <= 1e-12
