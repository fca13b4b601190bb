import pickle
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wplap import expressions
from wplap.expressions import Expression, ParseError, _parse, parse_expression


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
                "^": np.power, "min": np.minimum, "max": np.maximum}
_WALK_UNARY = {"neg": lambda a: -a, "sin": np.sin, "cos": np.cos, "exp": np.exp,
               "expm1": np.expm1}


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
    exprs.append(exprs[0].antidiff_t())
    for e in filter(None, exprs):
        want = outcome(lambda: walk(e.node, env))
        assert outcome(lambda: e(**env)) == want
        # a keyword naming no variable is not read, whatever its name
        extra = {"sin": np.cos, "power": np.add, "where": None, "tau": np.array(t) + 1.0}
        assert outcome(lambda: e(**env, **extra)) == want


@pytest.mark.parametrize("node", [("var", "sin"), ("var", "__import__"), ("var", "x3"),
                                  ("sin", ("var", "__builtins__")), ("abs", ("var", "t"))])
def test_unknown_names_are_rejected(node):
    with pytest.raises(ParseError):
        Expression("generated", node=("+", ("var", "t"), node))


def test_evaluation_does_not_recurse_per_level():
    # about 900 levels compile at the default recursion limit; evaluating
    # them needs no frame per level
    node = ("var", "t")
    for i in range(900):
        node = ("neg", node) if i % 2 else ("+", node, ("num", 1.0))
    e = Expression("generated", node=node)
    t = np.linspace(-1.0, 1.0, 5)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        got = e(t=t)
    finally:
        sys.setrecursionlimit(limit)
    np.testing.assert_array_equal(got, walk(node, {"t": t}))


def test_constant_power_is_nan_not_complex():
    # (-1)^0.5 of two constants follows numpy, as it does for arrays
    node = ("min", ("num", 0.0), ("^", ("num", -1.0), ("num", 0.5)))
    env = {"t": np.linspace(-1.0, 1.0, 6), "x1": np.zeros(6), "x2": np.zeros(6)}
    e = Expression("generated", node=node)
    for ex in (e, e.diff_t()):
        assert outcome(lambda: ex(**env)) == outcome(lambda: walk(ex.node, env))
    shifted = parse_expression("min(0, (0-1)^0.5) + t")
    with np.errstate(invalid="ignore"):
        assert np.isnan(e(**env))
        for value in (shifted(t=np.array([1.0])), shifted.diff_t()(t=np.array([1.0]))):
            assert np.asarray(value).dtype == np.float64 and np.isnan(value).all()


@settings(max_examples=100, deadline=None)
@given(node=_asts)
def test_compiled_missing_variable_raises(node):
    # x2 is reached before node, which may raise on constants such as 1/0
    e = Expression("generated", node=("+", ("var", "x2"), node))
    with pytest.raises(ParseError, match="variable 'x2' not available here"):
        e(t=np.zeros(3), x1=np.zeros(3))
    # the same message when an extra keyword sends the call through the filter
    with pytest.raises(ParseError, match="variable 'x2' not available here"):
        e(t=np.zeros(3), x1=np.zeros(3), sin=np.zeros(3))


# -- Python's parser reads the grammar ----------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def _render(node, prec=0):
    """Source text of an AST, parenthesized only where the grammar needs it."""
    op = node[0]
    if op == "num":
        text, own = repr(node[1]), 5
    elif op == "var":
        text, own = node[1], 5
    elif op in ("sin", "cos", "exp", "min", "max"):
        text, own = f"{op}({', '.join(_render(c) for c in node[1:])})", 5
    elif op == "neg":
        text, own = "-" + _render(node[1], 3), 3
    elif op == "^":
        text, own = f"{_render(node[1], 5)}^{_render(node[2], 3)}", 4
    else:
        own = _PRECEDENCE[op]
        text = f"{_render(node[1], own)} {op} {_render(node[2], own + 1)}"
    return f"({text})" if own < prec else text


def _nonnegative(node):
    if node[0] == "num":
        return ("num", abs(node[1]))
    return (node[0], *(_nonnegative(c) if isinstance(c, tuple) else c for c in node[1:]))


@settings(max_examples=300, deadline=None)
@given(node=_asts.map(_nonnegative))
def test_rendered_ast_parses_back(node):
    assert _parse(_render(node)) == node


_N, _t = (lambda v: ("num", v)), ("var", "t")


@pytest.mark.parametrize("src, node", [
    ("05", _N(5.0)), ("1e05", _N(1e5)), (".5", _N(0.5)), ("3.", _N(3.0)),
    ("0.05", _N(0.05)), ("t\t*\t2", ("*", _t, _N(2.0))),
    ("min(t,\n    1)", ("min", _t, _N(1.0))), (" t +\n  1 ", ("+", _t, _N(1.0))),
    ("-2^2", ("neg", ("^", _N(2.0), _N(2.0)))),
    ("2^-t", ("^", _N(2.0), ("neg", _t))),
    ("2^3^2", ("^", _N(2.0), ("^", _N(3.0), _N(2.0)))),
    ("clamp(t, 0, 1)", ("min", ("max", _t, _N(0.0)), _N(1.0))),
])
def test_accepted_text(src, node):
    assert _parse(src) == node


@pytest.mark.parametrize("src", [
    "t**2", "t#x", "+t", "~t", "min(t, 1,)", "min(t, x=1)", "t % 2", "t // 2",
    "t < 1", "t if t else 1", "(t, 1)", "t.real", "1_0", "0x1f", "1j", "e", "x3", "",
    "(sin)(t)", "min(*t, 1)", "not t", "True", "...",
    "\u0663", "\uff54", "t\u00a0+ 1",  # non-ASCII: an Arabic-Indic 3, a fullwidth t, NBSP
])
def test_rejected_text(src):
    with pytest.raises(ParseError):
        _parse(src)


def test_nesting_too_deep_is_a_parse_error(monkeypatch):
    # each tree walk recurses per level; a RecursionError in parsing,
    # compiling, differentiating or integrating reads as a ParseError
    with pytest.raises(ParseError, match="nested too deeply to parse"):
        Expression("-" * 2000 + "1")
    # 600 levels parse, but the derivative of a product doubles the depth
    product = Expression("t" + "*t" * 600)
    with pytest.raises(ParseError, match="nested too deeply to compile"):
        product.diff_t()
    flat = Expression("t" + " + 0*t" * 600)
    assert flat.variables == {"t"}
    with pytest.raises(ParseError, match="nested too deeply to integrate"):
        flat.antidiff_t()
    # a source that parses but does not compile is labelled by the compile
    def deep(node):
        raise RecursionError
    monkeypatch.setattr(expressions, "_compiled", deep)
    with pytest.raises(ParseError, match="nested too deeply to compile"):
        Expression("t + 1")


def test_parser_warning_is_a_parse_error():
    # Python warns on a number run into a keyword ("1and"), then parses on
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParseError, match="invalid decimal literal"):
            _parse("1and t")
    assert caught == []


# -- closed-form t-primitives ------------------------------------------------

_T = ("var", "t")


def _num(v):
    return ("num", float(v))


_x = st.sampled_from([("var", "x1"), ("var", "x2")])
_t_free = st.one_of(st.floats(-2.0, 2.0, allow_nan=False).map(_num), _x,
                    st.tuples(st.just("+"), _x, st.floats(-1.0, 1.0).map(_num)),
                    st.tuples(st.just("sin"), _x))
_slopes = st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0]).map(_num)
_affine = st.one_of(
    st.just(_T), st.just(("neg", _T)),
    st.tuples(st.just("+"), st.tuples(st.just("*"), _slopes, st.just(_T)), _t_free),
    st.tuples(st.just("-"), st.just(_T), _t_free),
    st.tuples(st.just("/"), st.tuples(st.just("-"), _t_free, st.just(_T)), _slopes))
_smooth_leaves = st.one_of(
    _t_free, st.just(_T),
    st.sampled_from([0, 1, 2, 3]).map(lambda n: ("^", _T, _num(n))),
    st.tuples(st.sampled_from(["sin", "cos", "exp"]), _affine))
_kinked_leaves = st.one_of(
    st.tuples(st.sampled_from(["min", "max"]), _affine, _affine),
    st.builds(lambda e, lo, hi: ("min", ("max", e, lo), hi), _affine, _t_free, _t_free),
    st.builds(lambda e, lo, hi: ("max", ("min", e, hi), lo), _affine, _t_free, _t_free))
_denominators = st.one_of(st.floats(0.5, 2.0).map(_num),
                          st.just(("+", _num(1), ("*", ("var", "x1"), ("var", "x1")))))


def _combine(kids):
    return st.one_of(
        st.tuples(st.just("neg"), kids),
        st.tuples(st.sampled_from(["+", "-"]), kids, kids),
        st.tuples(st.just("*"), _t_free, kids),
        st.tuples(st.just("*"), kids, _t_free),
        st.tuples(st.just("/"), kids, _denominators))


_subset_smooth = st.recursive(_smooth_leaves, _combine, max_leaves=8)
_subset_kinked = st.recursive(_kinked_leaves, _combine, max_leaves=8)
_rng = np.random.default_rng(2024)
_X = _rng.uniform(0.0, 1.0, size=(12, 2))
_TS = _rng.uniform(-2.0, 2.0, size=12)


def _env(t):
    return {"t": t, "x1": _X[:, 0], "x2": _X[:, 1]}


def _values(expr, t):
    return np.broadcast_to(np.asarray(expr(**_env(t)), dtype=float), t.shape)


def _check_primitive(node, reference):
    """antidiff_t of node differentiates back to node, matches reference
    (a function of the sample t values) to 1e-10, and is exactly 0 at t = 0."""
    e = Expression("generated", node=node)
    F = e.antidiff_t()
    assert F is not None
    f, dF = _values(e, _TS), _values(F.diff_t(), _TS)
    np.testing.assert_allclose(dF, f, rtol=1e-9, atol=1e-9 * (1.0 + np.max(np.abs(f))))
    got, want = _values(F, _TS), reference(e)
    assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))
    assert np.all(_values(F, np.zeros(_TS.size)) == 0.0)


@settings(max_examples=150, deadline=None)
@given(node=_subset_smooth)
def test_antidiff_smooth_matches_gauss_fallback(node):
    from wplap.energy import Nonlinearity, primitive_F
    _check_primitive(node, lambda e: primitive_F(Nonlinearity(f=e), _X, _TS))


def _kinks(node, x1, x2, t):
    """Points strictly between 0 and t where the two arguments of a min/max
    node of the AST cross, by sign changes on a grid and brentq."""
    from scipy.optimize import brentq
    if node[0] not in ("min", "max"):
        return [k for child in node[1:] if isinstance(child, tuple)
                for k in _kinks(child, x1, x2, t)]
    gap = Expression("gap", node=("-", node[1], node[2]))
    s = np.linspace(0.0, t, 401)
    g = gap(t=s, x1=x1, x2=x2)
    roots = [brentq(lambda v: gap(t=v, x1=x1, x2=x2), s[i], s[i + 1], xtol=1e-15)
             for i in np.flatnonzero(g[:-1] * g[1:] < 0)]
    return roots + _kinks(node[1], x1, x2, t) + _kinks(node[2], x1, x2, t)


_GL = np.polynomial.legendre.leggauss(20)


def _split_gauss(e, x1, x2, t):
    """int_0^t e ds by 20-point Gauss on 4 panels per smooth piece, the pieces
    cut at the kinks."""
    cuts = [0.0] + sorted(_kinks(e.node, x1, x2, t), key=abs) + [t]
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        ends = lo + (hi - lo) * np.linspace(0.0, 1.0, 5)
        for a, b in zip(ends[:-1], ends[1:]):
            s = 0.5 * (a + b) + 0.5 * (b - a) * _GL[0]
            total += 0.5 * (b - a) * float(_GL[1] @ np.broadcast_to(
                np.asarray(e(t=s, x1=x1, x2=x2), dtype=float), s.shape))
    return total


@settings(max_examples=60, deadline=None)
@given(node=_subset_kinked)
def test_antidiff_kinked_matches_split_gauss(node):
    # Gauss with panel edges only at dyadic points cannot resolve a kink to
    # 1e-10, so the reference cuts [0, t] at the kinks first
    _check_primitive(node, lambda e: np.array([_split_gauss(e, x1, x2, t)
                                               for (x1, x2), t in zip(_X, _TS)]))


def test_antidiff_matches_sympy():
    sp = pytest.importorskip("sympy")
    s, t = sp.symbols("s t", real=True)
    # x enters as numbers: sympy 1.14 mis-integrates clamp(1 - s, -x2, 1/2)
    # for t < 0 when x2 stays a symbol
    names = {"t": s, "x1": sp.Rational(3, 10), "x2": sp.Rational(7, 10)}
    ops = {"neg": lambda a: -a, "+": lambda a, b: a + b, "-": lambda a, b: a - b,
           "*": lambda a, b: a * b, "/": lambda a, b: a / b, "^": lambda a, b: a ** b,
           "sin": sp.sin, "cos": sp.cos, "exp": sp.exp, "min": sp.Min, "max": sp.Max}

    def to_sympy(node):
        if node[0] == "num":
            return sp.nsimplify(node[1], rational=True)
        if node[0] == "var":
            return names[node[1]]
        return ops[node[0]](*(to_sympy(c) for c in node[1:]))

    ts = np.linspace(-3.0, 3.0, 25)
    for src in ("t^3 - 2*t + x1", "x1*t^2/3 - 4", "sin(2*t + 1)", "cos(t/3 - x1)",
                "exp(-t/2 + x2)", "min(max(t - 0.25, 0), 1)", "max(2*t - x1, -1)",
                "clamp(1 - t, -x2, 0.5)", "min(t, 2*t - 1)", "2*max(min(t, 1), 0) - sin(t)"):
        e = parse_expression(src)
        exact = sp.integrate(to_sympy(e.node).rewrite(sp.Piecewise), (s, 0, t))
        want = np.array([float(sp.lambdify(t, exact, "numpy")(tv)) for tv in ts])
        got = e.antidiff_t()(t=ts, x1=0.3, x2=0.7)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=src)


@pytest.mark.parametrize("a", [1e-12, -1e-9, 1e-9, 1e-3])
def test_antidiff_tiny_slopes_match_gauss_and_sympy(a):
    # (cos b - cos(a t + b))/a and its siblings lose about eps/|a| to
    # cancellation; the product forms must hold 1e-13 relative
    sp = pytest.importorskip("sympy")
    from wplap.energy import Nonlinearity, primitive_F
    s, t = sp.symbols("s t", real=True)
    ra, x1 = sp.nsimplify(a, rational=True), sp.Rational(3, 10)
    ts = np.array([-3.0, -1.0, -0.25, 0.5, 1.0, 3.0])
    X = np.full((ts.size, 1), 0.3)
    for src, f in ((f"sin({a!r}*t + 1)", sp.sin(ra * s + 1)),
                   (f"cos({a!r}*t - x1)", sp.cos(ra * s - x1)),
                   (f"exp({a!r}*t + x1)", sp.exp(ra * s + x1))):
        e = parse_expression(src)
        got = e.antidiff_t()(t=ts, x1=X[:, 0])
        exact = sp.integrate(f, (s, 0, t))
        want = np.array([float(exact.subs(t, sp.nsimplify(tv, rational=True)).evalf(40))
                         for tv in ts])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0, err_msg=src)
        np.testing.assert_allclose(got, primitive_F(Nonlinearity(f=e), X, ts),
                                   rtol=1e-13, atol=0, err_msg=src)


def test_antidiff_of_shipped_ramp_matches_shipped_primitive():
    ramp = parse_expression("min(max(t - 0.25, 0), 1)")
    shipped = parse_expression("0.5*min(max(t - 0.25, 0), 1)^2 + max(t - 1.25, 0)")
    t = np.linspace(-5.0, 5.0, 2001)
    np.testing.assert_allclose(ramp.antidiff_t()(t=t), shipped(t=t), rtol=0, atol=1e-14)


def test_antidiff_outside_subset_is_none():
    for src in ("t*sin(t)", "t^0.5", "exp(t^2)", "sin(x1*t)", "1/t", "t^-1",
                "min(t, max(1 - t, 0))"):
        assert parse_expression(src).antidiff_t() is None, src
