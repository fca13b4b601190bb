"""Tiny expression language for nonlinearities given in config files.

Grammar (EBNF):

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" unary ] ;
    atom    = NUMBER | VAR | FUNC "(" expr { "," expr } ")" | "(" expr ")" ;
    VAR     = "t" | "x1" | "x2" | "tau" ;
    FUNC    = "sin" | "cos" | "exp" | "min" | "max" | "clamp" ;

sin/cos/exp take one argument, min/max two, clamp(e, lo, hi) three and is
expanded to min(max(e, lo), hi).  "^" is right-associative and binds tighter
than unary minus.  Each Expression compiles its AST once into a tree of
closures; evaluation is vectorized over numpy arrays.  t-derivatives
are formed symbolically (min/max differentiate branch-wise, which is enough
for the almost-everywhere derivatives the solver needs).
"""
from __future__ import annotations

import operator
import re

import numpy as np

__all__ = ["Expression", "ParseError", "parse_expression"]


class ParseError(ValueError):
    pass


_TOKEN = re.compile(r"\s*(?:(\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
                    r"|([A-Za-z_][A-Za-z_0-9]*)|(.))")
_FUNCS = {"sin": 1, "cos": 1, "exp": 1, "min": 2, "max": 2, "clamp": 3}
_VARS = ("t", "x1", "x2", "tau")


def _tokenize(src: str):
    tokens, pos = [], 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            break
        num, name, op = m.groups()
        if num is not None:
            tokens.append(("num", float(num)))
        elif name is not None:
            tokens.append(("name", name))
        elif op.strip():
            if op not in "+-*/^(),":
                raise ParseError(f"unexpected character {op!r} at position {m.start(3)} in {src!r}")
            tokens.append(("op", op))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r} in {self.src!r}, got {val!r}")

    def parse(self):
        node = self.expr()
        if self.peek() != ("end", None):
            raise ParseError(f"trailing input in {self.src!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.next()
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.next()
            node = (op, node, self.unary())
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.next()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.next()
            return ("^", base, self.unary())
        return base

    def atom(self):
        kind, val = self.next()
        if kind == "num":
            return ("num", val)
        if kind == "name":
            if val in _VARS:
                return ("var", val)
            if val in _FUNCS:
                self.expect_op("(")
                args = [self.expr()]
                while self.peek() == ("op", ","):
                    self.next()
                    args.append(self.expr())
                self.expect_op(")")
                if len(args) != _FUNCS[val]:
                    raise ParseError(f"{val} takes {_FUNCS[val]} argument(s) in {self.src!r}")
                if val == "clamp":
                    return ("min", ("max", args[0], args[1]), args[2])
                return (val, *args)
            raise ParseError(f"unknown name {val!r} in {self.src!r}")
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {val!r} in {self.src!r}")


_UNARY = {"neg": operator.neg, "sin": np.sin, "cos": np.cos, "exp": np.exp}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": operator.pow,
           "min": np.minimum, "max": np.maximum}


def _compile(node):
    """Closure tree evaluating the AST on an environment dict."""
    op = node[0]
    if op == "num":
        value = node[1]
        return lambda env: value
    if op == "var":
        name = node[1]

        def var(env):
            try:
                return env[name]
            except KeyError:
                raise ParseError(f"variable {name!r} not available here") from None
        return var
    if op in _UNARY:
        fn, a = _UNARY[op], _compile(node[1])
        return lambda env: fn(a(env))
    if op in _BINARY:
        fn, a, b = _BINARY[op], _compile(node[1]), _compile(node[2])
        return lambda env: fn(a(env), b(env))
    if op == "where_le":  # internal: branch derivative of min/max
        a, b, c, d = (_compile(n) for n in node[1:])
        return lambda env: np.where(a(env) <= b(env), c(env), d(env))
    raise ParseError(f"bad node {op!r}")


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
    if op == "min":
        return ("where_le", node[1], node[2], _diff(node[1]), _diff(node[2]))
    if op == "max":
        return ("where_le", node[2], node[1], _diff(node[1]), _diff(node[2]))
    raise ParseError(f"cannot differentiate node {op!r}")


class Expression:
    """Parsed expression; call with keyword arrays, e.g. e(t=tt, x1=xx)."""

    def __init__(self, source: str, node=None):
        self.source = source
        self.node = _Parser(source).parse() if node is None else node
        self.variables = frozenset(_vars_of(self.node, set()))
        self._fn = _compile(self.node)

    def __call__(self, **env):
        return self._fn(env)

    def __reduce__(self):
        # closures do not pickle; rebuild from the AST instead
        return Expression, (self.source, self.node)

    def diff_t(self) -> "Expression":
        return Expression(f"d/dt({self.source})", node=_diff(self.node))

    def __repr__(self):
        return f"Expression({self.source!r})"


def parse_expression(src: str) -> Expression:
    return Expression(src)
