import re
from pathlib import Path

import numpy as np
import pytest

from lattice_embed.config import default_config, parse_config
from lattice_embed.errors import (
    MissingRequiredError,
    TypeMismatchError,
    UnknownKeyError,
    ValidationError,
)


def test_minimal_sphere_config_gets_documented_defaults():
    config = parse_config("manifold.kind = sphere\nmanifold.r = 1\n")
    assert config.get("energy", "alpha") == 1.0
    assert config.get("energy", "beta") == 1.0
    assert config.get("energy", "gamma") == 0.0
    assert config.get("energy", "lambda") == 0.0
    assert config.get("field", "tube_radius") == 0.1
    assert config.get("quadrature", "resolution") == 64
    assert config.get("solver", "grad_tol") == 1e-6
    spec = config.manifold()
    assert spec.kind == "sphere"
    assert np.array_equal(spec.chart_fn(np.zeros(2)), [0.0, 0.0, 1.0])


def test_unset_radii_take_constructor_defaults():
    # manifold.R = 3 with no manifold.r: the torus constructor's minor radius
    spec = parse_config("manifold.kind = torus\nmanifold.R = 3\n").manifold()
    assert np.array_equal(spec.chart_fn(np.zeros(2)), [3.5, 0.0, 0.0])
    spec = parse_config("manifold.kind = torus\nmanifold.r = 0.25\n").manifold()
    assert np.array_equal(spec.chart_fn(np.zeros(2)), [2.25, 0.0, 0.0])
    spec = parse_config("manifold.kind = sphere\n").manifold()
    assert np.array_equal(spec.chart_fn(np.zeros(2)), [0.0, 0.0, 1.0])


def test_section_header_syntax():
    text = """
    [energy]
    alpha = 2.5
    # comment line
    beta = 0.5

    [manifold]
    kind = plane
    """
    config = parse_config(text)
    assert config.get("energy", "alpha") == 2.5
    assert config.get("energy", "beta") == 0.5


def test_missing_required_kind():
    with pytest.raises(MissingRequiredError) as err:
        parse_config("energy.alpha = 1.0\n")
    assert "manifold.kind" in str(err.value)


def test_unknown_key_named():
    # removed keys: configs that still set them must fail by name
    for line, key, section in (
        ("energy.alphaa = 1", "alphaa", "energy"),
        ("field.fd_step = 1e-4", "fd_step", "field"),
        ("field.mu = 2", "mu", "field"),
        ("quadrature.eps_parallel = 1e-6", "eps_parallel", "quadrature"),
        ("solver.step = 0.2", "step", "solver"),
        ("output.formats = csv", "formats", "output"),
    ):
        with pytest.raises(UnknownKeyError) as err:
            parse_config(f"manifold.kind = plane\n{line}\n")
        assert key in str(err.value) and section in str(err.value)


def test_unknown_section_named():
    with pytest.raises(UnknownKeyError):
        parse_config("manifold.kind = plane\nwidgets.count = 3\n")


def test_type_mismatch_named():
    with pytest.raises(TypeMismatchError) as err:
        parse_config("manifold.kind = plane\nquadrature.resolution = many\n")
    assert "quadrature.resolution" in str(err.value)


def test_negative_alpha_rejected_by_name():
    with pytest.raises(ValidationError) as err:
        parse_config("manifold.kind = plane\nenergy.alpha = -1\n")
    assert "energy.alpha" in str(err.value)


def test_resolution_minimum():
    with pytest.raises(ValidationError):
        parse_config("manifold.kind = plane\nquadrature.resolution = 2\n")


def test_roundtrip_serialization():
    text = """
    manifold.kind = torus
    manifold.R = 2.0
    manifold.r = 0.5
    lattice.bounds = -1:1, -1:1, -0.25:0.25
    lattice.spacing = 0.5
    energy.gamma = 0.125
    quadrature.seed = 42
    """
    config = parse_config(text)
    again = parse_config(config.to_text())
    assert config == again
    assert config.digest() == again.digest()


def test_digest_changes_with_values():
    a = parse_config("manifold.kind = plane\n")
    b = parse_config("manifold.kind = plane\nenergy.alpha = 2\n")
    assert a.digest() != b.digest()


def test_parametric_chart_from_config():
    text = (
        "manifold.kind = parametric\n"
        "manifold.chart = u1; u2; u1^2 - u2^2\n"
        "manifold.bounds = -1:1, -1:1\n"
    )
    spec = parse_config(text).manifold()
    assert spec.ambient_dim == 3 and spec.intrinsic_dim == 2
    import numpy as np

    assert np.allclose(spec.chart_fn(np.array([0.5, 0.25])), [0.5, 0.25, 0.1875])


def test_parametric_requires_chart_and_bounds():
    with pytest.raises(MissingRequiredError):
        parse_config("manifold.kind = parametric\n")


def test_bad_parametric_chart_is_config_error():
    text = (
        "manifold.kind = parametric\n"
        "manifold.chart = u1; u2; u9\n"
        "manifold.bounds = -1:1, -1:1\n"
    )
    with pytest.raises(ValidationError):
        parse_config(text)


@pytest.mark.parametrize(
    "manifold",
    [
        "manifold.kind = torus\nmanifold.r = 3\n",
        "manifold.kind = parametric\nmanifold.chart = u1; u2; 0\n"
        "manifold.bounds = 1:0, -1:1\n",
    ],
    ids=["torus-r-above-R", "parametric-lower-above-upper"],
)
def test_bad_manifold_values_are_config_errors(manifold):
    with pytest.raises(ValidationError) as err:
        parse_config(manifold)
    assert str(err.value).startswith("manifold: ")


@pytest.mark.parametrize(
    "manifold, key",
    [
        ("manifold.kind = sphere\nmanifold.R = 5\n", "R"),
        ("manifold.kind = plane\nmanifold.r = 5\n", "r"),
        ("manifold.kind = plane\nmanifold.chart = u1\n", "chart"),
        ("manifold.kind = torus\nmanifold.bounds = 0:1, 0:1\n", "bounds"),
        (
            "manifold.kind = parametric\nmanifold.chart = u1; u2; 0\n"
            "manifold.bounds = -1:1, -1:1\nmanifold.r = 1\n",
            "r",
        ),
    ],
    ids=["sphere-R", "plane-r", "plane-chart", "torus-bounds", "parametric-r"],
)
def test_keys_the_kind_does_not_read_are_config_errors(manifold, key):
    # an ignored key would still change the digest of an identical run
    with pytest.raises(ValidationError, match=f"^manifold\\.{key}: not read"):
        parse_config(manifold)


def test_manifold_built_once_per_config():
    config = parse_config("manifold.kind = torus\n")
    assert config.manifold() is config.manifold()
    assert config == parse_config("manifold.kind = torus\n")


def test_default_config_helper():
    config = default_config()
    assert config.get("manifold", "kind") == "plane"
    assert config.lattice().axis_counts == (5, 5, 1)
    assert config.solver().grad_tol == 1e-6
    assert config.energy_params().quadrature_resolution == 64


def test_readme_ini_blocks_parse():
    # a key deleted from the schema must not linger in the documented configs
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```ini\n(.*?)```", readme.read_text(), flags=re.S)
    assert len(blocks) >= 2
    for block in blocks:
        parse_config(block)
