"""The solution distinctness rule, each setting default and the config
error format are written once in the package.

The rule sup|a - b| > delta_dist * max(sup-norms, 1e-30) lives in
solver._apart, so src multiplies by delta_dist (an attribute such as
config.delta_dist, or a plain name) exactly once.  The solver and oracle
defaults live in SolverConfig and in oracle1d's SIGMA_MIN, SIGMA_MAX,
N_SCAN and STEPS_PER_UNIT, so each of their literals appears once.  Every
ConfigError is built by config._located, so src calls ConfigError once.
Only expressions.py runs code it builds, with the builtins eval and
compile, against a name table without builtins."""
import ast
from pathlib import Path

import pytest

from wplap.expressions import _NAMES

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wplap"
SOURCES = sorted(PACKAGE.glob("*.py"))


def _is_delta_dist(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "delta_dist") or \
        (isinstance(node, ast.Name) and node.id == "delta_dist")


def delta_dist_products(source: str) -> list:
    """Lines of every product with a factor named delta_dist, an attribute
    (config.delta_dist) or a plain name."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                  and (_is_delta_dist(node.left) or _is_delta_dist(node.right)))


def numeric_literals(source: str) -> list:
    """(type, value) of every int and float literal, the value negated
    under a unary minus."""
    tree = ast.parse(source)
    negated = {id(node.operand) for node in ast.walk(tree)
               if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)}
    return [(type(node.value), -node.value if id(node) in negated else node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) in (int, float)]


def test_detectors():
    src = ("def f(config, cfg, d, delta_dist):\n"
           "    a = config.delta_dist * 2.0\n"
           "    b = d * cfg.solver.delta_dist\n"
           "    c = config.delta_dist + 1.0\n"
           "    e = delta_dist * max(d, 1e-30)\n"
           "    return (-50.0, 50.0), 2001, d * 1024, 50\n")
    assert delta_dist_products(src) == [2, 3, 5]
    assert sorted(value for kind, value in numeric_literals(src) if kind is float) == \
        [-50.0, 1e-30, 1.0, 2.0, 50.0]
    assert sorted(value for kind, value in numeric_literals(src) if kind is int) == \
        [50, 1024, 2001]


def test_distinctness_rule_is_written_once():
    lines = {path.name: delta_dist_products(path.read_text()) for path in SOURCES}
    assert sum(map(len, lines.values())) == 1, lines


@pytest.mark.parametrize("literal", [2001, 1024, 5000, 50.0, -50.0])
def test_default_is_written_once(literal):
    found = {path.name: numeric_literals(path.read_text()).count((type(literal), literal))
             for path in SOURCES}
    assert sum(found.values()) == 1, {name: n for name, n in found.items() if n}


def config_error_calls(source: str) -> list:
    """Lines of every call of ConfigError, by name or as an attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and (getattr(node.func, "id", None) == "ConfigError"
                       or getattr(node.func, "attr", None) == "ConfigError"))


def test_config_error_detector():
    src = ("def f(path, exc):\n"
           "    e = ConfigError(f'{path}: bad')\n"
           "    raise config.ConfigError(str(exc)) from exc\n"
           "class ConfigError(ValueError):\n"
           "    pass\n")
    assert config_error_calls(src) == [2, 3]


def test_config_error_is_built_in_one_place():
    lines = {path.name: config_error_calls(path.read_text()) for path in SOURCES}
    assert sum(map(len, lines.values())) == 1, lines


def builtin_eval_calls(source: str) -> list:
    """Lines of every call of the bare names eval, exec or compile."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("eval", "exec", "compile"))


def test_builtin_eval_detector():
    src = ("import re\n"
           "def f(code, names, text):\n"
           "    pattern = re.compile(text)\n"
           "    return eval(code, names), compile(text, '<e>', 'eval')\n")
    assert builtin_eval_calls(src) == [4, 4]


def test_only_expressions_evaluates_code():
    lines = {path.name: builtin_eval_calls(path.read_text()) for path in SOURCES}
    assert lines.pop("expressions.py")
    assert not any(lines.values()), lines
    assert _NAMES["__builtins__"] == {}
