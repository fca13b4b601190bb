"""The solution distinctness rule, each setting default, the config error
format and the CSV table format are written once in the package.

The rule sup|a - b| > delta_dist * max(sup-norms, 1e-30) lives in
solver._apart, so src multiplies by delta_dist (an attribute such as
config.delta_dist, or a plain name) exactly once.  The solver and oracle
defaults live in SolverConfig and in oracle1d's SIGMA_MIN, SIGMA_MAX,
N_SCAN and STEPS_PER_UNIT, so each of their literals appears once; the
eps_reg default is energy.EPS_REG, the one literal an eps_reg takes; the
certificate's verdict tolerances are its _GUARD and _ROUNDING.  Every
ConfigError is built by config._located, so src calls ConfigError once.
Only expressions.py runs code it builds, with the builtins eval and
compile, against a name table without builtins.  Only cli._write_table
and cli._read_table write or parse a CSV table."""
import ast
import inspect
from pathlib import Path

import pytest

from wplap import energy
from wplap.energy import EnergyAssembler
from wplap.expressions import _NAMES
from wplap.solver import SolverConfig

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


def test_certificate_tolerances_are_written_once():
    # H1 fails below -_GUARD, and one rounding slack _ROUNDING serves H1, H4, H5
    found = numeric_literals((PACKAGE / "certificate.py").read_text())
    assert found.count((float, 1e-12)) == 1
    assert (float, -1e-9) not in found and (float, -1e-12) not in found


def eps_reg_literals(source: str) -> list:
    """Lines where a number literal becomes an eps_reg: the default of a
    parameter, or the value assigned to a name, field or attribute, spelled
    eps_reg in any case."""
    out = []
    for node in ast.walk(ast.parse(source)):
        pairs = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip([a.arg for a in positional[len(positional) - len(args.defaults):]],
                             args.defaults))
            pairs += [(a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            pairs = [(getattr(t, "id", getattr(t, "attr", None)), node.value)
                     for t in targets]
        out += [value.lineno for name, value in pairs
                if str(name).lower() == "eps_reg" and isinstance(value, ast.Constant)]
    return sorted(out)


def test_eps_reg_detector():
    src = ("EPS_REG = 1e-8\n"
           "def f(x, eps_reg=1e-8, *, tol=1e-8):\n"
           "    self.eps_reg = 1e-6\n"
           "    return lambda eps_reg=EPS_REG: eps_reg\n"
           "class C:\n"
           "    eps_reg: float = 1e-8\n"
           "    residual_tol: float = 1e-8\n")
    assert eps_reg_literals(src) == [1, 2, 3, 6]


def test_eps_reg_default_is_written_once():
    found = {path.name: len(eps_reg_literals(path.read_text())) for path in SOURCES}
    assert {name: n for name, n in found.items() if n} == {"energy.py": 1}
    default = inspect.signature(EnergyAssembler).parameters["eps_reg"].default
    assert default == SolverConfig().eps_reg == energy.EPS_REG


def _writes_or_parses_csv(call: ast.Call) -> bool:
    """A call into the csv module, of open (builtin or Path.open) for
    writing, of Path.write_text or write_bytes on a path naming a .csv file,
    or of numpy's savetxt, loadtxt or genfromtxt."""
    func = call.func
    name = getattr(func, "attr", getattr(func, "id", None))
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "csv":
        return True
    if name in ("savetxt", "loadtxt", "genfromtxt"):
        return True
    if name in ("write_text", "write_bytes"):
        return any(isinstance(n, ast.Constant) and str(n.value).endswith(".csv")
                   for n in ast.walk(func.value))
    modes = (call.args[1:2] if isinstance(func, ast.Name) else call.args[:1]) + \
        [kw.value for kw in call.keywords if kw.arg == "mode"]
    return name == "open" and any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+")
                                  for m in modes)


def csv_format_sites(source: str) -> list:
    """Names of the functions and methods (a nested one also names the
    functions around it) that make a call _writes_or_parses_csv flags."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(n, ast.Call) and _writes_or_parses_csv(n)
                    for n in ast.walk(node))]


def test_csv_format_detector():
    src = ("import csv\n"
           "def a(p):\n    with open(p, 'w') as fh:\n        fh.write('x')\n"
           "def b(p):\n    with open(p) as fh:\n        return list(csv.reader(fh))\n"
           "def c(p):\n    return p.open('a'), p.open(mode='r')\n"
           "def d(p, x):\n    np.savetxt(p, x, delimiter=',')\n"
           "def e(p):\n    return open(p).read(), p.open()\n"
           "def f(out):\n    (out / 'x.csv').write_text('a,b')\n"
           "def g(out):\n    (out / 'x.txt').write_text('a = 1')\n")
    assert csv_format_sites(src) == ["a", "b", "c", "d", "f"]


def test_csv_format_has_one_home():
    sites = {path.name: csv_format_sites(path.read_text()) for path in SOURCES}
    assert {name: found for name, found in sites.items() if found} == \
        {"cli.py": ["_write_table", "_read_table"]}


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
    """Lines of every call that builds or runs code: the bare names eval,
    exec or compile, and FunctionType or Lambda, bare or as an attribute
    (types.FunctionType, ast.Lambda)."""
    def builds_code(func) -> bool:
        if isinstance(func, ast.Name):
            return func.id in ("eval", "exec", "compile", "FunctionType", "Lambda")
        return isinstance(func, ast.Attribute) and func.attr in ("FunctionType", "Lambda")
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and builds_code(node.func))


def test_builtin_eval_detector():
    src = ("import re\n"
           "def f(code, names, text):\n"
           "    pattern = re.compile(text)\n"
           "    return eval(code, names), compile(text, '<e>', 'eval')\n"
           "def g(code, names, params, body):\n"
           "    fn = types.FunctionType(code, names)\n"
           "    lam = ast.Lambda(params, body)\n"
           "    return FunctionType(code, names), Lambda(params, body), lambda: fn\n")
    assert builtin_eval_calls(src) == [4, 4, 6, 7, 8, 8]


def test_only_expressions_evaluates_code():
    lines = {path.name: builtin_eval_calls(path.read_text()) for path in SOURCES}
    assert lines.pop("expressions.py")
    assert not any(lines.values()), lines
    assert _NAMES["__builtins__"] == {}
