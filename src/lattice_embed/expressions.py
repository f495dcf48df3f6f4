"""Tiny expression language for manifold charts.

Grammar: ``+ - * / ^`` with usual precedence, parentheses, the functions
``sin``, ``cos``, ``exp`` of one argument, decimal literals as Python reads
them (so ``007`` is an error), the constant ``pi``, and the chart variables
``u1 .. ud``.  Exponents must be numeric literals under optional signs, as
in ``u1^2``, ``u1^-0.5`` or ``u1^(2)`` (polynomial/trigonometric charts
only); that keeps differentiation closed under the grammar.

Python's own parser reads the text, with ``^`` as ``**``.  A whitelist pass
then rebuilds every node of the grammar from scratch and rejects anything
else with `ExpressionError`.  `derivative` differentiates the rebuilt trees
symbolically, negating with a unary minus, which gives every chart analytic
partials without pulling in a CAS.  `compile_chart` parses a chart once and
compiles the chart, its Jacobian and its second partials from those trees,
each run with no builtins, only numpy's ``sin``, ``cos`` and ``exp`` in
scope; it is the one source of every manifold's chart maps, the built-ins'
included, and keeps the maps of recently compiled charts.  Each map assigns its entries as they
evaluate, so a point gets the same bits alone and in any batch and a zero
keeps the sign its formula gives.
"""
from __future__ import annotations

import ast
import functools
import math
import string
from typing import Callable, Sequence

import numpy as np

from .errors import ExpressionError

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_BINARY = (ast.Add, ast.Sub, ast.Mult, ast.Div)
_SIGNS = (ast.UAdd, ast.USub)
# Every character an expression may hold once its whitespace is collapsed.
# Python's parser would also read comments, strings, keyword arguments and
# NFKC-normalized non-ASCII names.
_ALPHABET = frozenset(string.ascii_letters + string.digits + " .+-*/^()")


def _const(value: float) -> ast.Constant:
    return ast.Constant(float(value))


def _is_const(e: ast.expr, value: float | None = None) -> bool:
    return isinstance(e, ast.Constant) and (value is None or e.value == value)


def _binary(a: ast.expr, op: type, b: ast.expr) -> ast.BinOp:
    return ast.BinOp(a, op(), b)


def _call(fname: str, arg: ast.expr) -> ast.Call:
    return ast.Call(ast.Name(fname, ast.Load()), [arg], [])


def _add(a, b):
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return _const(a.value + b.value)
    return _binary(a, ast.Add, b)


def _sub(a, b):
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return _const(a.value - b.value)
    if _is_const(a, 0.0):
        return _neg(b)
    return _binary(a, ast.Sub, b)


def _mul(a, b):
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b):
        return _const(a.value * b.value)
    return _binary(a, ast.Mult, b)


def _neg(a):
    # a unary minus, not 0.0 - a: it flips the sign of a zero, as the
    # leading minus of a closed form such as -r*sin(u1) does
    if _is_const(a):
        return _const(-a.value)
    return ast.UnaryOp(ast.USub(), a)


def parse_expression(text: str, intrinsic_dim: int) -> ast.expr:
    """Parse one chart component over variables u1..u<d> into a rebuilt
    tree of float constants, variables, ``+ - * /``, powers with a constant
    exponent and ``sin``/``cos``/``exp`` calls."""
    source = " ".join(text.split())
    if not set(source) <= _ALPHABET or "**" in source:
        raise ExpressionError(f"unexpected character in expression {text!r}")
    source = source.replace("^", "**")
    try:
        body = ast.parse(source, mode="eval").body
    except (SyntaxError, ValueError):
        raise ExpressionError(f"malformed expression {text!r}") from None
    variables = {f"u{k + 1}" for k in range(intrinsic_dim)}

    def literal(node):
        # float() of the literal as written: hex, octal, binary, complex,
        # True/False/None and Ellipsis literals all fail here
        try:
            return float(ast.get_source_segment(source, node))
        except ValueError:
            raise ExpressionError(f"malformed number in {text!r}") from None

    def rebuild(node):
        if isinstance(node, ast.Constant):
            return _const(literal(node))
        if isinstance(node, ast.Name):
            if node.id == "pi":
                return _const(math.pi)
            if node.id in variables:
                return ast.Name(node.id, ast.Load())
            raise ExpressionError(f"unknown identifier {node.id!r} in {text!r}")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, _SIGNS):
            operand = rebuild(node.operand)
            return _neg(operand) if isinstance(node.op, ast.USub) else operand
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            sign, e = 1.0, node.right  # a literal under any run of signs
            while isinstance(e, ast.UnaryOp) and isinstance(e.op, _SIGNS):
                sign = -sign if isinstance(e.op, ast.USub) else sign
                e = e.operand
            if not isinstance(e, ast.Constant):
                raise ExpressionError(f"exponent must be a number in {text!r}")
            return _binary(rebuild(node.left), ast.Pow, _const(sign * literal(e)))
        if isinstance(node, ast.BinOp) and isinstance(node.op, _BINARY):
            return _binary(rebuild(node.left), type(node.op), rebuild(node.right))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS
            # a parenthesised function name, as in (sin)(u1), starts later
            and node.func.col_offset == node.col_offset
            and len(node.args) == 1
            and not node.keywords
        ):
            return _call(node.func.id, rebuild(node.args[0]))
        raise ExpressionError(f"unsupported syntax in expression {text!r}")

    return rebuild(body)


def derivative(node: ast.expr, name: str) -> ast.expr:
    """Partial derivative of a `parse_expression` tree by variable `name`."""
    if isinstance(node, ast.Constant):
        return _const(0.0)
    if isinstance(node, ast.Name):
        return _const(1.0 if node.id == name else 0.0)
    if isinstance(node, ast.UnaryOp):
        return _neg(derivative(node.operand, name))
    if isinstance(node, ast.Call):
        arg = node.args[0]
        if node.func.id == "sin":
            outer = _call("cos", arg)
        elif node.func.id == "cos":
            outer = _neg(_call("sin", arg))
        else:  # exp
            outer = node
        return _mul(outer, derivative(arg, name))
    a, b = node.left, node.right
    if isinstance(node.op, ast.Pow):
        e = b.value
        if e == 0.0:
            return _const(0.0)
        power = _binary(a, ast.Pow, _const(e - 1.0))
        return _mul(_mul(_const(e), power), derivative(a, name))
    da, db = derivative(a, name), derivative(b, name)
    if isinstance(node.op, ast.Add):
        return _add(da, db)
    if isinstance(node.op, ast.Sub):
        return _sub(da, db)
    if isinstance(node.op, ast.Mult):
        return _add(_mul(da, b), _mul(a, db))
    # quotient rule over an unfolded b*b
    numerator = _sub(_mul(da, b), _mul(a, db))
    return _binary(numerator, ast.Div, _binary(b, ast.Mult, b))


def _compile(trees: list[ast.expr], names: list[str]) -> Callable:
    # lambda u1, ..., ud: (tree_1, ..., tree_m), built from rebuilt trees only
    params = [ast.arg(name) for name in names]
    args = ast.arguments([], params, None, [], [], None, [])
    body = ast.Lambda(args, ast.Tuple(trees, ast.Load()))
    code = compile(ast.fix_missing_locations(ast.Expression(body)), "<chart>", "eval")
    return eval(code, {"__builtins__": {}, **_FUNCTIONS})


def _assemble(shape: tuple[int, ...], rows=slice(None)) -> Callable:
    """The one layout of every chart map: ``_assemble(shape, rows)(entries)``,
    for a function of u1..ud that returns a tuple of entries, is the map
    u (..., d) -> (..., *shape).  The entries are stacked on a new first
    axis, the rows selected by rows (the Hessian's i <= j row map), then
    moved last and split to shape.  Each entry is assigned into the stack,
    so a constant entry broadcasts and every entry keeps the bits it
    evaluates to, the sign of a zero included, alone or in any batch."""

    def wrap(entries: Callable) -> Callable:
        def evaluate(u):
            u = np.asarray(u, dtype=float)
            values = entries(*(u[..., k] for k in range(u.shape[-1])))
            out = np.empty((len(values),) + u.shape[:-1])
            for k, v in enumerate(values):
                out[k] = v
            out = out[rows]
            return out.transpose(*range(1, out.ndim), 0).reshape(u.shape[:-1] + shape)

        return evaluate

    return wrap


def compile_chart(
    expressions: Sequence[str], intrinsic_dim: int
) -> tuple[Callable, tuple[Callable, Callable]]:
    """Parse a chart once and compile it with its first and second partials.

    Returns ``(chart, (jacobian, hessian))``, each vectorized over parameter
    arrays of shape (..., d): the chart gives points (..., n), the Jacobian
    the partials dX/du_i (..., n, d) and the Hessian the symmetric second
    partials d2X/du_i du_j (..., n, d, d).  The Jacobian trees are `derivative`
    of the parsed trees, and each Hessian entry with i <= j is `derivative`
    of a Jacobian tree by u_j, compiled once.  A point gets the same bits
    alone and in any batch.  The maps are pure, so a recently compiled chart
    returns the same three maps again without a parse.  Expressions nested
    too deeply for Python's parser, for the rebuilding and differentiating
    passes or for the compiler raise ExpressionError.
    """
    return _compile_chart(tuple(expressions), intrinsic_dim)


@functools.lru_cache(maxsize=32)
def _compile_chart(
    expressions: tuple[str, ...], d: int
) -> tuple[Callable, tuple[Callable, Callable]]:
    names = [f"u{k + 1}" for k in range(d)]
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    # row of the second partial by u_i and u_j among the compiled i <= j ones
    pair_row = np.empty((d, d), dtype=np.intp)
    for p, (i, j) in enumerate(pairs):
        pair_row[i, j] = pair_row[j, i] = p
    try:
        trees = [parse_expression(text, d) for text in expressions]
        n = len(trees)
        first = [derivative(t, name) for t in trees for name in names]
        second = [
            derivative(first[a * d + i], names[j]) for a in range(n) for i, j in pairs
        ]
        chart = _assemble((n,))(_compile(trees, names))
        jacobian = _assemble((n, d))(_compile(first, names))
        rows = (np.arange(n)[:, None, None] * len(pairs) + pair_row).ravel()
        hessian = _assemble((n, d, d), rows)(_compile(second, names))
    except RecursionError:
        raise ExpressionError("chart expression is nested too deeply") from None
    return chart, (jacobian, hessian)
