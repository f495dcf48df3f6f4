import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_embed import expressions
from lattice_embed.errors import ExpressionError
from lattice_embed.expressions import compile_chart
from lattice_embed.geometry import ManifoldSpec


def component(text, d=2):
    """The chart of a single expression, as a function of (..., d) arrays."""
    chart, (jacobian, _) = compile_chart([text], d)
    return (lambda u: chart(u)[..., 0]), (lambda u: jacobian(u)[0])


def test_evaluate_polynomial_and_trig():
    value, _ = component("2*u1^2 - u2/4 + sin(u1)*cos(u2) + pi")
    expected = 2 * 0.7**2 + 1.2 / 4 + math.sin(0.7) * math.cos(-1.2) + math.pi
    assert value(np.array([0.7, -1.2])) == pytest.approx(expected, rel=1e-15)


def test_chart_nested_too_deeply_is_expression_error():
    # thousands of terms overflow the recursion of the parser and its passes
    with pytest.raises(ExpressionError, match="nested too deeply"):
        compile_chart(["+".join(["u1"] * 3000), "u2", "0"], 2)


def test_evaluate_vectorized():
    value, _ = component("exp(u1) - u2")
    u1 = np.array([0.0, 1.0, 2.0])
    u2 = np.array([1.0, 1.0, 1.0])
    out = value(np.stack([u1, u2], axis=-1))
    assert np.allclose(out, np.exp(u1) - 1.0)


@pytest.mark.parametrize(
    "text",
    ["u1^3 - 2*u2", "sin(2*u1)*cos(u2)", "exp(-u1^2)", "u1*u2 + u2/(1 + u1^2)"],
)
def test_derivative_matches_finite_difference(text):
    value, gradient = component(text)
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(20):
        u1, u2 = rng.uniform(-1.5, 1.5, size=2)
        fd1 = (value(np.array([u1 + h, u2])) - value(np.array([u1 - h, u2]))) / (2 * h)
        fd2 = (value(np.array([u1, u2 + h])) - value(np.array([u1, u2 - h]))) / (2 * h)
        d1, d2 = gradient(np.array([u1, u2]))
        assert d1 == pytest.approx(fd1, abs=1e-8)
        assert d2 == pytest.approx(fd2, abs=1e-8)


def test_jacobian_keeps_the_folded_derivative_arithmetic():
    # quotient rule over an unfolded u2*u2, cos' = 0.0 - sin, power rule
    # e*u^(e-1): charts keep the same Jacobian bits as the symbolic rules
    # (at u1 = 0 the sign of each zero shows which rule ran)
    _, (jacobian, _) = compile_chart(["u1/u2", "cos(u1)", "u1^3"], 2)
    for u in (np.array([0.37, -1.9]), np.array([0.0, 3.0])):
        u1, u2 = u[..., 0], u[..., 1]
        expected = [
            [u2 / (u2 * u2), (0.0 - u1) / (u2 * u2)],
            [0.0 - np.sin(u1), 0.0],
            [3.0 * u1**2.0, 0.0],
        ]
        assert jacobian(u).tobytes() == np.array(expected).tobytes()


def test_compile_chart_shapes_and_jacobian():
    chart, (jacobian, hessian) = compile_chart(["u1", "u2", "u1^2 - u2^2 + u1*u2"], 2)
    pts = np.array([[0.5, -0.25], [1.0, 2.0]])
    out = chart(pts)
    assert out.shape == (2, 3)
    assert np.allclose(out[0], [0.5, -0.25, 0.25 - 0.0625 - 0.125])
    jac = jacobian(np.array([0.5, -0.25]))
    assert jac.shape == (3, 2)
    assert np.allclose(jac, [[1, 0], [0, 1], [0.75, 1.0]])
    assert jacobian(pts).shape == (2, 3, 2)
    hess = hessian(pts)
    assert hess.shape == (2, 3, 2, 2)
    assert np.all(hess[:, :2] == 0.0)
    assert np.all(hess[:, 2] == [[2.0, 1.0], [1.0, -2.0]])


def test_parametric_spec_parses_each_component_once(count_calls):
    # the chart, its Jacobian and its second partials share one parse
    parses = count_calls(expressions.parse_expression)
    ManifoldSpec.parametric(
        bounds=[(-1.0, 1.0)] * 3,
        expressions=["u1", "u2", "u3", "0.4*sin(u1)*cos(2*u2) + 0.3*u3*u3*u1"],
    )
    assert len(parses) == 4


def test_constant_component_broadcasts():
    chart, _ = compile_chart(["u1", "u2", "0"], 2)
    out = chart(np.zeros((4, 2)))
    assert out.shape == (4, 3)
    assert np.all(out[:, 2] == 0.0)


def test_parenthesised_exponent_accepted():
    # the one widening over the hand-written parser, which rejected u1^(2)
    grid = np.random.default_rng(5).uniform(0.5, 2, size=(6, 2))
    for text, plain in [("u1^(2)", "u1^2"), ("u2^(-1.5)", "u2^-1.5")]:
        assert component(text)[0](grid).tobytes() == component(plain)[0](grid).tobytes()


@pytest.mark.parametrize(
    "bad",
    [
        "u3 + 1",
        "sin(u1",
        "u1 ^ u2",
        "1 +* 2",
        "foo(u1)",
        "u1 $ u2",
        "u1**2",
        "u1 % 2",
        "u1 < u2",
        "u1.real",
        "u1[0]",
        "__import__('os')",
        "lambda: 1",
        "1j",
        "sin(u1, u2)",
        "sin(x=u1)",
        "(sin)(u1)",
        "u1 # comment",
        "0x1f",
        "u1^pi",
        "u1^inf",
        "sin",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ExpressionError):
        compile_chart([bad], 2)


def _binary(children):
    op = st.sampled_from(["+", "-", "*"])
    return st.tuples(children, op, children).map(lambda t: f"({t[0]} {t[1]} {t[2]})")


def _grammar(children):
    return st.one_of(
        _binary(children),
        # denominators in [2, 4] keep the oracle finite
        st.tuples(children, children).map(lambda t: f"{t[0]} / (3 + sin({t[1]}))"),
        st.tuples(children, st.sampled_from(["0", "1", "2", "3", "+2", "--1"])).map(
            lambda t: f"({t[0]})^{t[1]}"
        ),
        st.tuples(st.sampled_from(["-", "+"]), children).map("".join),
        st.tuples(st.sampled_from(["sin", "cos"]), children).map(
            lambda t: f"{t[0]}({t[1]})"
        ),
        children.map(lambda c: f"exp(sin({c}))"),
    )


_EXPRESSIONS = st.recursive(
    st.sampled_from(["u1", "u2", "pi", "2", "0.5", "1.25", "3e-1", ".5"]),
    _grammar,
    max_leaves=12,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_EXPRESSIONS)
def test_chart_matches_python_eval_oracle(text):
    grid = np.random.default_rng(11).uniform(-1.5, 1.5, size=(9, 2))
    namespace = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "pi": np.pi}
    namespace.update(u1=grid[:, 0], u2=grid[:, 1])
    oracle = eval(text.replace("^", "**"), {"__builtins__": {}}, namespace)
    value, _ = component(text)
    expected = oracle + np.zeros(9)
    np.testing.assert_allclose(value(grid), expected, rtol=1e-13, atol=1e-13)
