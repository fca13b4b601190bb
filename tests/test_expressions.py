import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wplap.expressions import Expression, ParseError, parse_expression


def test_numbers_and_precedence():
    assert parse_expression("1 + 2*3")() == 7.0
    assert parse_expression("(1 + 2)*3")() == 9.0
    assert parse_expression("2^3^2")() == 512.0          # right-associative
    assert parse_expression("-2^2")() == -4.0            # ^ binds tighter than unary minus
    assert parse_expression("6/3/2")() == 1.0            # left-assoc division
    assert parse_expression("2*3^2")() == 18.0


def test_variables():
    e = parse_expression("t + 2*x1")
    assert e(t=1.0, x1=0.25) == 1.5
    assert e.variables == frozenset({"t", "x1"})
    with pytest.raises(ParseError):
        e(t=1.0)  # x1 missing


def test_vectorized():
    e = parse_expression("sin(t)*x1")
    t = np.linspace(0, 1, 7)
    x = np.linspace(1, 2, 7)
    np.testing.assert_allclose(e(t=t, x1=x), np.sin(t) * x)


def test_functions():
    assert parse_expression("min(2, 3)")() == 2.0
    assert parse_expression("max(2, 3)")() == 3.0
    assert parse_expression("clamp(5, 0, 1)")() == 1.0
    assert parse_expression("clamp(-5, 0, 1)")() == 0.0
    assert parse_expression("exp(0)")() == 1.0
    np.testing.assert_allclose(parse_expression("cos(t)")(t=np.pi), -1.0)


def test_diff_t_polynomial():
    e = parse_expression("t^3 - 2*t")
    d = e.diff_t()
    t = np.linspace(-2, 2, 41)
    np.testing.assert_allclose(d(t=t), 3 * t ** 2 - 2, rtol=1e-12)


def test_diff_t_branchwise():
    # derivative of the ramp min(max(t,0),1): 1 on (0,1), 0 outside
    e = parse_expression("min(max(t, 0), 1)")
    d = e.diff_t()
    assert d(t=0.5) == 1.0
    assert d(t=-1.0) == 0.0
    assert d(t=2.0) == 0.0


def test_diff_t_chain():
    e = parse_expression("sin(2*t)")
    d = e.diff_t()
    t = np.linspace(0, 3, 11)
    np.testing.assert_allclose(d(t=t), 2 * np.cos(2 * t), rtol=1e-12)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_expression("t +")
    with pytest.raises(ParseError):
        parse_expression("foo(t)")
    with pytest.raises(ParseError):
        parse_expression("min(1)")
    with pytest.raises(ParseError):
        parse_expression("t @ 2")
    with pytest.raises(ParseError):
        parse_expression("1 2")  # trailing input


def test_pickle_round_trip():
    e = parse_expression("min(max(t - 0.25, 0), 1)*x1").diff_t()
    back = pickle.loads(pickle.dumps(e))
    t = np.linspace(-1, 2, 13)
    assert back.source == e.source and back.node == e.node
    np.testing.assert_array_equal(back(t=t, x1=2.0), e(t=t, x1=2.0))


def test_t_dependent_exponent_rejected():
    with pytest.raises(ParseError):
        parse_expression("2^t").diff_t()


# -- compiled evaluation against a tree walk ---------------------------------

_WALK_BINARY = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
                "*": lambda a, b: a * b, "/": lambda a, b: a / b,
                "^": lambda a, b: a ** b, "min": np.minimum, "max": np.maximum}
_WALK_UNARY = {"neg": lambda a: -a, "sin": np.sin, "cos": np.cos, "exp": np.exp}


def walk(node, env):
    """Reference evaluator: a direct recursive walk of the AST."""
    op = node[0]
    if op == "num":
        return node[1]
    if op == "var":
        return env[node[1]]
    if op in _WALK_UNARY:
        return _WALK_UNARY[op](walk(node[1], env))
    if op == "where_le":
        a, b = walk(node[1], env), walk(node[2], env)
        return np.where(a <= b, walk(node[3], env), walk(node[4], env))
    return _WALK_BINARY[op](walk(node[1], env), walk(node[2], env))


def outcome(fn):
    """Bytes, dtype and shape of a result, or the type of the exception."""
    try:
        with np.errstate(all="ignore"):
            out = np.asarray(fn())
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    return out.dtype, out.shape, out.tobytes()


_leaves = st.one_of(
    st.tuples(st.just("num"), st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])
              | st.floats(-4.0, 4.0, allow_nan=False)),
    st.tuples(st.just("var"), st.sampled_from(["t", "x1", "x2"])))
_asts = st.recursive(_leaves, lambda kids: st.one_of(
    st.tuples(st.sampled_from(["neg", "sin", "cos", "exp"]), kids),
    st.tuples(st.sampled_from(["+", "-", "*", "/", "^", "min", "max"]), kids, kids)),
    max_leaves=12)
_arrays = st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=6, max_size=6)


@settings(max_examples=300, deadline=None)
@given(node=_asts, t=_arrays, x1=_arrays, x2=_arrays)
def test_compiled_matches_tree_walk(node, t, x1, x2):
    env = {"t": np.array(t), "x1": np.array(x1), "x2": np.array(x2)}
    exprs = [Expression("generated", node=node)]
    try:
        exprs.append(exprs[0].diff_t())
    except ParseError:
        pass  # t-dependent exponent
    for e in exprs:
        assert outcome(lambda: e(**env)) == outcome(lambda: walk(e.node, env))


@settings(max_examples=100, deadline=None)
@given(node=_asts)
def test_compiled_missing_variable_raises(node):
    # x2 is reached before node, which may raise on constants such as 1/0
    e = Expression("generated", node=("+", ("var", "x2"), node))
    with pytest.raises(ParseError, match="variable 'x2' not available here"):
        e(t=np.zeros(3), x1=np.zeros(3))
