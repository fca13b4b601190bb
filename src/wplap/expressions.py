"""Tiny expression language for nonlinearities given in config files.

Grammar (EBNF), read by Python's parser with "^" as "**" (the same
precedence and right-associativity, and a unary minus may follow it):

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" unary ] ;
    atom    = NUMBER | VAR | FUNC "(" expr { "," expr } ")" | "(" expr ")" ;
    NUMBER  = ( digits [ "." [ digits ] ] | "." digits ) [ exponent ] ;
    exponent = ( "e" | "E" ) [ "+" | "-" ] digits ;
    VAR     = "t" | "x1" | "x2" | "tau" ;
    FUNC    = "sin" | "cos" | "exp" | "min" | "max" | "clamp" ;

A NUMBER has no sign, underscore, base prefix or "j".  sin/cos/exp take one
argument, min/max two, clamp(e, lo, hi) three and is expanded to
min(max(e, lo), hi).  "^" binds tighter than unary minus.  _parse turns
Python's tree into tuples and rejects every other node.  Guards keep the
accepted text the grammar's: only ASCII letters, digits, "_", ".",
"+-*/^()," and whitespace, and no "**"; whitespace is collapsed, so a value
may span lines; leading zeros of an integer part are dropped (Python
rejects 05); a number's text must match NUMBER; a call takes no trailing
comma; a warning while parsing is an error.  Non-ASCII text is rejected
(Python reads a fullwidth t as t), and so is an integer of over 4300 digits.

Each Expression has Python's compiler turn its AST, once and at
construction, into one Python function of its variables (a lambda whose
parameters are the variables it names, in the order t, x1, x2, tau) that
reads a fixed table of numpy functions, with no builtins, vectorized over
numpy arrays.  A call with keyword arrays calls that function, and
Expression.at evaluates at points x.  Expression.bind compiles the same
lambda for the variables it is given, to be called by position with no
check per call.  t-derivatives are formed symbolically (min/max
differentiate branch-wise, enough for the almost-everywhere derivatives the
solver needs), and so are t-primitives int_0^t for the subset _antidiff_t
names; any other primitive is left to quadrature.  Parsing, compiling,
differentiating and integrating walk the tree once per level, so there is
no depth limit but Python's recursion limit; a RecursionError in one of
them is a ParseError that says which.  Evaluating does not recurse per
level, so an expression that compiled evaluates at any call depth.
"""
from __future__ import annotations

import ast
import re
import warnings
from contextlib import contextmanager

import numpy as np

__all__ = ["Expression", "ParseError", "parse_expression"]


class ParseError(ValueError):
    pass


_FUNCS = {"sin": 1, "cos": 1, "exp": 1, "min": 2, "max": 2, "clamp": 3}
_VARS = ("t", "x1", "x2", "tau")
_VAR_SET = frozenset(_VARS)
# outside the alphabet (ASCII whitespace is \t-\r, \x1c-\x1f and space), or "**"
_REJECTED = re.compile(r"[^A-Za-z0-9_.+\-*/^(),\t-\r\x1c-\x1f ]|\*\*")
_NUMBER = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?", re.ASCII)
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)", re.ASCII)
_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}


def _parse(src: str):
    """The AST of src, read by Python's parser with "^" as "**"."""
    if bad := _REJECTED.search(src):
        raise ParseError(f"unexpected {bad.group()!r} in {src!r}")
    # Python rejects the integer 05; an exponent (1e05) or fraction (0.05) keeps its zeros
    text = _LEADING_ZEROS.sub("", " ".join(src.split())).replace("^", "**")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            body = ast.parse(text, mode="eval").body
    except (SyntaxError, Warning) as exc:
        raise ParseError(f"cannot parse {src!r}: {getattr(exc, 'msg', exc)}") from None

    def node(n):
        if isinstance(n, ast.BinOp) and type(n.op) in _BINOPS:
            return (_BINOPS[type(n.op)], node(n.left), node(n.right))
        if isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub):
            return ("neg", node(n.operand))
        segment = text[n.col_offset:n.end_col_offset]
        if isinstance(n, ast.Constant) and _NUMBER.fullmatch(segment):
            return ("num", float(segment))
        if isinstance(n, ast.Name) and n.id in _VARS:
            return ("var", n.id)
        # a call of a bare name with positional arguments and no trailing comma
        if (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id in _FUNCS and n.func.col_offset == n.col_offset
                and n.args and not n.keywords
                and "," not in text[n.args[-1].end_col_offset:n.end_col_offset]):
            name, args = n.func.id, [node(a) for a in n.args]
            if len(args) != _FUNCS[name]:
                raise ParseError(f"{name} takes {_FUNCS[name]} argument(s) in {src!r}")
            if name == "clamp":
                return ("min", ("max", args[0], args[1]), args[2])
            return (name, *args)
        raise ParseError(f"unexpected {segment!r} in {src!r}")
    return node(body)


# the names compiled code reads besides the variables: numpy functions and no
# builtins.  np.power for "^", not Python's **: a negative constant to a
# fractional power is nan as it is for arrays, where ** on two floats
# returns a complex.  expm1 is internal: no source text parses to it (see
# _antidiff_t), nor to where_le, the branch derivative of min/max.
_NAMES = {"__builtins__": {}, "sin": np.sin, "cos": np.cos, "exp": np.exp,
          "expm1": np.expm1, "power": np.power, "minimum": np.minimum,
          "maximum": np.maximum, "where": np.where}
_CALLS = {"sin": "sin", "cos": "cos", "exp": "exp", "expm1": "expm1", "^": "power",
          "min": "minimum", "max": "maximum", "where_le": "where"}
_PY_BINOPS = {"+": ast.Add, "-": ast.Sub, "*": ast.Mult, "/": ast.Div}
# every node gets a position here: ast.fix_missing_locations would recurse again
_AT = {"lineno": 1, "col_offset": 0, "end_lineno": 1, "end_col_offset": 0}


def _python(node):
    """Python's AST of the tuple AST node."""
    op = node[0]
    if op == "num":
        # compile rejects a numpy float64 constant
        return ast.Constant(float(node[1]), **_AT)
    if op == "var":
        if node[1] not in _VARS:
            raise ParseError(f"bad variable {node[1]!r}")
        return ast.Name(node[1], ast.Load(), **_AT)
    # map, not a comprehension: one frame per level (a comprehension adds one
    # more before Python 3.12)
    args = list(map(_python, node[1:]))
    if op == "neg":
        return ast.UnaryOp(ast.USub(), *args, **_AT)
    if op in _PY_BINOPS:
        return ast.BinOp(args[0], _PY_BINOPS[op](), args[1], **_AT)
    if op == "where_le":
        args[:2] = [ast.Compare(args[0], [ast.LtE()], [args[1]], **_AT)]
    if op in _CALLS:
        return ast.Call(ast.Name(_CALLS[op], ast.Load(), **_AT), args, [], **_AT)
    raise ParseError(f"bad node {op!r}")


def _function(node, names: tuple):
    """node as the Python function "lambda *names: node", the names as
    positional parameters, compiled and defined against _NAMES."""
    params = ast.arguments(posonlyargs=[], args=[ast.arg(name, **_AT) for name in names],
                           kwonlyargs=[], kw_defaults=[], defaults=[])
    lam = ast.Lambda(params, _python(node), **_AT)
    return eval(compile(ast.Expression(lam), "<expression>", "eval"), _NAMES)


def _vars_of(node, acc):
    if node[0] == "var":
        acc.add(node[1])
    for child in node[1:]:
        if isinstance(child, tuple):
            _vars_of(child, acc)
    return acc


_ZERO = ("num", 0.0)
_ONE = ("num", 1.0)


def _diff(node):
    """d/dt of the AST, branch-wise through min/max."""
    op = node[0]
    if op == "num":
        return _ZERO
    if op == "var":
        return _ONE if node[1] == "t" else _ZERO
    if op == "neg":
        return ("neg", _diff(node[1]))
    if op in "+-":
        return (op, _diff(node[1]), _diff(node[2]))
    if op == "*":
        a, b = node[1], node[2]
        return ("+", ("*", _diff(a), b), ("*", a, _diff(b)))
    if op == "/":
        a, b = node[1], node[2]
        return ("/", ("-", ("*", _diff(a), b), ("*", a, _diff(b))), ("*", b, b))
    if op == "^":
        a, b = node[1], node[2]
        if "t" not in _vars_of(b, set()):
            return ("*", ("*", b, ("^", a, ("-", b, _ONE))), _diff(a))
        raise ParseError("t-dependent exponents are not differentiable here")
    if op == "sin":
        return ("*", ("cos", node[1]), _diff(node[1]))
    if op == "cos":
        return ("neg", ("*", ("sin", node[1]), _diff(node[1])))
    if op == "exp":
        return ("*", node, _diff(node[1]))
    if op == "expm1":
        return ("*", ("exp", node[1]), _diff(node[1]))
    if op == "min":
        return ("where_le", node[1], node[2], _diff(node[1]), _diff(node[2]))
    if op == "max":
        return ("where_le", node[2], node[1], _diff(node[1]), _diff(node[2]))
    raise ParseError(f"cannot differentiate node {op!r}")


_T = ("var", "t")


def _t_free(node) -> bool:
    return "t" not in _vars_of(node, set())


def _at_zero(node):
    """The AST with t replaced by 0, so it evaluates the same operations."""
    if node == _T:
        return _ZERO
    return (node[0], *(_at_zero(c) if isinstance(c, tuple) else c for c in node[1:]))


def _number(node) -> float | None:
    """Finite value of a variable-free node, else None."""
    if _vars_of(node, set()):
        return None
    try:
        with np.errstate(all="ignore"):
            value = float(_function(node, ())())
    except (ArithmeticError, TypeError, ValueError):
        return None
    return value if np.isfinite(value) else None


def _slope(node) -> float | None:
    """Numeric d/dt of node when node is a*t + b with b free of t, else None."""
    if _t_free(node):
        return 0.0
    op = node[0]
    if op == "var":
        return 1.0
    if op == "neg":
        a = _slope(node[1])
        return None if a is None else -a
    if op in ("+", "-"):
        a, b = _slope(node[1]), _slope(node[2])
        if a is None or b is None:
            return None
        return a + b if op == "+" else a - b
    if op == "*":
        for factor, rest in ((node[1], node[2]), (node[2], node[1])):
            k = _number(factor)
            if k is not None:
                a = _slope(rest)
                return None if a is None else k * a
        return None
    if op == "/":
        k, a = _number(node[2]), _slope(node[1])
        return None if k is None or k == 0.0 or a is None else a / k
    return None


def _lattice(node):
    """node as base + sum c*max(w, 0) with c = +-1, base and every w affine in
    t with a numeric slope.  Returns (base, [(c, w, slope of w)]) or None.

    max(u, v) = v + max(u - v, 0) and min(u, v) = u - max(u - v, 0).  The
    positive part of u - v is again a sum of hinges when u - v is affine, or
    when it is q +- max(z, 0) with q constant in t (after max(z, 0) =
    z + max(-z, 0) if need be):
        max(q + max(z, 0), 0) = max(q, 0) + max(z + min(q, 0), 0),
        max(q - max(z, 0), 0) = max(q, 0) - max(z, 0) + max(z - max(q, 0), 0).
    That covers clamp(e, lo, hi) = min(max(e, lo), hi) whenever lo - hi is
    constant in t; two kinks that both move with t are left to quadrature."""
    if _slope(node) is not None:
        return node, []
    if node[0] not in ("min", "max"):
        return None
    u, v = _lattice(node[1]), _lattice(node[2])
    if u is None or v is None:
        return None
    q = ("-", u[0], v[0])
    hinges = u[1] + [(-c, w, s) for c, w, s in v[1]]
    if not hinges:
        pos = [(1, q, _slope(q))]
    elif len(hinges) == 1:
        c, z, s = hinges[0]
        slope_q = _slope(q)
        if slope_q != 0.0 and slope_q == -c * s:
            # q + c max(z, 0) = (q + c z) + c max(-z, 0), whose base is flat
            q, z, s = ("+" if c > 0 else "-", q, z), ("neg", z), -s
        elif slope_q != 0.0:
            return None
        q = _at_zero(q)
        if c > 0:
            pos = [(1, q, 0.0), (1, ("+", z, ("min", q, _ZERO)), s)]
        else:
            pos = [(1, q, 0.0), (-1, z, s), (1, ("-", z, ("max", q, _ZERO)), s)]
    else:
        return None
    if node[0] == "max":
        return v[0], v[1] + pos
    return u[0], u[1] + [(-c, w, s) for c, w, s in pos]


def _ramp_integral(w, a: float):
    """int_0^t max(w(s), 0) ds for w = a*s + b: (max(w(t),0)^2 - max(b,0)^2)/(2a)."""
    pos = ("max", w, _ZERO)
    if a == 0.0:
        return ("*", pos, _T)
    pos0 = ("max", _at_zero(w), _ZERO)
    return ("/", ("-", ("*", pos, pos), ("*", pos0, pos0)), ("num", 2.0 * a))


def _antidiff_t(node):
    """AST of int_0^t node ds, or None when node is outside the subset:
    t-free nodes, t^n (n a nonnegative integer literal), + - neg, * and / by
    a t-free side, sin/cos/exp of a*t + b with numeric a != 0 (product
    forms when |a| < 1), and min/max lattices that _lattice reduces to
    hinges of affine arguments."""
    if _t_free(node):
        return ("*", node, _T)
    op = node[0]
    if op == "var" or (op == "^" and node[1] == _T and node[2][0] == "num"
                       and node[2][1] >= 0 and float(node[2][1]).is_integer()):
        n1 = ("num", 2.0 if op == "var" else node[2][1] + 1.0)
        return ("/", ("^", _T, n1), n1)
    scaled = (op == "*" and (_t_free(node[1]) or _t_free(node[2]))
              or op == "/" and _t_free(node[2]))
    if op in ("neg", "+", "-") or scaled:
        # integral is linear: integrate the terms, keep a t-free factor or divisor
        kids = [c if scaled and _t_free(c) else _antidiff_t(c) for c in node[1:]]
        return None if None in kids else (op, *kids)
    if op in ("sin", "cos", "exp"):
        arg = node[1]
        a = _slope(arg)
        if not a:
            return None
        b, k = _at_zero(arg), ("num", a)
        if abs(a) >= 1.0:
            if op == "sin":
                return ("/", ("-", ("cos", b), ("cos", arg)), k)
            if op == "cos":
                return ("/", ("-", ("sin", arg), ("sin", b)), k)
            return ("/", ("-", ("exp", arg), ("exp", b)), k)
        # a small slope makes those differences cancel (error ~ eps/|a|); the
        # product forms keep the relative accuracy:
        #   cos b - cos(at + b) = 2 sin(b + at/2) sin(at/2),
        #   sin(at + b) - sin b = 2 cos(b + at/2) sin(at/2),
        #   exp(at + b) - exp b = exp(b) expm1(at)
        if op == "exp":
            return ("/", ("*", ("exp", b), ("expm1", ("*", k, _T))), k)
        half = ("*", ("num", 0.5 * a), _T)
        mid = ("sin" if op == "sin" else "cos", ("+", b, half))
        return ("/", ("*", ("*", ("num", 2.0), mid), ("sin", half)), k)
    if op in ("min", "max"):
        lattice = _lattice(node)
        if lattice is None:
            return None
        base, hinges = lattice
        out = _antidiff_t(base)
        for c, w, a in hinges:
            out = ("-" if c < 0 else "+", out, _ramp_integral(w, a))
        return out
    return None


@contextmanager
def _nesting(action: str):
    """Report a RecursionError of the recursive tree walks as a ParseError."""
    try:
        yield
    except RecursionError:
        raise ParseError(f"expression nested too deeply to {action}") from None


class Expression:
    """Parsed expression; call with keyword arrays, e.g. e(t=tt, x1=xx)."""

    def __init__(self, source: str, node=None):
        self.source = source
        if node is None:
            with _nesting("parse"):
                node = _parse(source)
        self.node = node
        with _nesting("compile"):
            self.variables = frozenset(_vars_of(node, set()))
            # the function's parameters: the variables, in _VARS order
            self._reads = tuple(name for name in _VARS if name in self.variables)
            self._fn = _function(node, self._reads)

    def __call__(self, **values):
        # a keyword that names no variable of the expression is not read
        try:
            args = [values[name] for name in self._reads]
        except KeyError as exc:
            raise ParseError(f"variable {exc.args[0]!r} not available here") from None
        return self._fn(*args)

    def bind(self, *names: str):
        """The expression compiled as a function of names by position, e.g.
        e.bind("t", "x1")(t, x); names are distinct variables that cover the
        ones it reads, checked here and not at each call."""
        if len(set(names)) != len(names) or not _VAR_SET.issuperset(names):
            raise ParseError(f"cannot bind {names!r}: not distinct variables")
        for name in self._reads:
            if name not in names:
                raise ParseError(f"variable {name!r} not available here")
        with _nesting("compile"):
            return _function(self.node, names)

    def at(self, x, **values) -> np.ndarray:
        """The expression at points x (..., N), x1 and x2 read from the last
        axis, and the other variables given as arrays (t=..., tau=...): a
        float array of the broadcast shape of all of them, from one call."""
        x = np.asarray(x, dtype=float)
        env = {name: x[..., i] for i, name in zip(range(x.shape[-1]), ("x1", "x2"))}
        for name, v in values.items():
            env[name] = np.asarray(v, dtype=float)
        out = np.asarray(self(**env), dtype=float)
        shape = np.broadcast(*env.values()).shape
        return out if out.shape == shape else np.broadcast_to(out, shape).copy()

    def __reduce__(self):
        # the compiled function does not pickle; rebuild from the AST instead
        return Expression, (self.source, self.node)

    def diff_t(self) -> "Expression":
        with _nesting("differentiate"):
            return Expression(f"d/dt({self.source})", node=_diff(self.node))

    def antidiff_t(self) -> "Expression | None":
        """int_0^t of the expression in closed form, None outside the subset
        that _antidiff_t covers."""
        with _nesting("integrate"):
            node = _antidiff_t(self.node)
        return None if node is None else Expression(f"int_0^t({self.source})", node=node)

    def __repr__(self):
        return f"Expression({self.source!r})"


def parse_expression(src: str) -> Expression:
    return Expression(src)
