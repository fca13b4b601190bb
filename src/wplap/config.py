"""Run configuration: strict INI schema.

Sections and keys are validated against a fixed schema before any numerics
run; unknown sections or keys are rejected with the offending line number.
See the README for the full schema and the expression grammar.
"""
from __future__ import annotations

import configparser
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

from .energy import Nonlinearity, make_nonlinearity
from .expressions import Expression, parse_expression
from .geometry import BallSpec, Domain
from .oracle1d import N_SCAN, SIGMA_MAX, SIGMA_MIN, STEPS_PER_UNIT
from .solver import SolverConfig
from .weight import WeightSpec

__all__ = ["ConfigError", "RunConfig", "load_config"]


class ConfigError(ValueError):
    """Schema or value error; message carries file/line diagnostics."""


# section -> key -> (type tag, required)
_SCHEMA = {
    "domain": {"kind": ("str", True), "bounds": ("floats", True)},
    "weight": {"form": ("str", True), "value": ("float", False),
               "exponent": ("float", False)},
    "space": {"p": ("float", True), "s": ("float", True),
              "zero_order_term": ("bool", False)},
    "mesh": {"h": ("float", True), "grading_depth": ("int", False)},
    "ball": {"x0": ("floats", True), "r1": ("float", True), "r2": ("float", True)},
    "constants": {"c": ("float", True), "d": ("float", True),
                  "gamma": ("float", False)},
    "nonlinearity_f": {"expr": ("f(x,t)", True), "primitive": ("f(x,t)", False),
                       "growth_h": ("h(x)", False)},
    "nonlinearity_g": {"expr": ("f(x,t)", True), "w_tau": ("w(x,tau)", False)},
    "lambda_grid": {"min": ("float", True), "max": ("float", True),
                    "count": ("int", True)},
    "mu": {"values": ("floats", True)},
    "solver": {"residual_tol": ("float", False), "max_iter": ("int", False),
               "eps_reg": ("float", False), "delta_dist": ("float", False)},
    "oracle": {"sigma_min": ("float", False), "sigma_max": ("float", False),
               "n_scan": ("int", False), "steps_per_unit": ("int", False)},
    "run": {"lambda": ("float", False), "mu": ("float", False),
            "seed": ("int", False)},
}
# expression type tags: the variables each may name besides x1 .. xN
_EXPRESSION_VARIABLES = {"f(x,t)": {"t"}, "h(x)": set(), "w(x,tau)": {"tau"}}
_REQUIRED_SECTIONS = ("domain", "weight", "space", "mesh", "nonlinearity_f")


@dataclass
class RunConfig:
    path: str
    domain: Domain
    weight: WeightSpec
    p: float
    s: float
    zero_order_term: bool
    h: float
    grading_depth: int
    nl_f: Nonlinearity
    nl_g: Nonlinearity | None
    ball: BallSpec | None
    c: float | None
    d: float | None
    gamma: float
    lambda_grid: list            # resolved grid values (may be empty if absent)
    mu_values: list
    solver: SolverConfig
    run_lambda: float
    run_mu: float
    sigma_range: tuple
    n_scan: int
    steps_per_unit: int


def _line_of(path: str, section: str, key: str | None = None) -> tuple | None:
    """(line, column) of key in section, or of its header without key, or None."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError:
        return None
    in_section = False
    for i, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            in_section = stripped[1:-1].strip() == section
            if in_section and key is None:
                return i, raw.index("[") + 1
        elif in_section and key is not None:
            name = stripped.split("=", 1)[0].split(":", 1)[0].strip()
            if name == key:
                return i, raw.index(name[0]) + 1
    return None


def _located(path: str, message: str, section: str | None = None, key: str | None = None,
             at: tuple | None = None) -> ConfigError:
    """The one config error, '<path>[ [<section>]]: <message>[ (line i, column j)]',
    at `at` (line, column), else at key in section or at its header; the
    file is searched only here, so only on error."""
    at = at or (section and _line_of(path, section, key))
    where = f" [{section}]" if section else ""
    line = f" (line {at[0]}, column {at[1]})" if at else ""
    return ConfigError(f"{path}{where}: {message}{line}")


@contextmanager
def config_errors(path: str, section: str | None = None, key: str | None = None,
                  template: str = "{}", errors: type = ValueError):
    """Re-raise an exception of type errors from the body (a ParseError is a
    ValueError) as _located's ConfigError, template filled with its message."""
    try:
        yield
    except errors as exc:
        raise _located(path, template.format(exc), section, key) from exc


def _parse_typed(raw: str, kind: str):
    """raw as the schema type kind; a bad value raises ValueError."""
    if kind == "float":
        v = float(raw)
        if not math.isfinite(v):
            raise ValueError(f"not finite: {raw.strip()!r}")
        return v
    if kind == "int":
        return int(raw)
    if kind == "bool":
        try:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        except KeyError:
            raise ValueError(f"not a boolean: {raw!r}") from None
    if kind == "floats":
        return [_parse_typed(tok, "float") for tok in raw.replace(",", " ").split()]
    if kind in _EXPRESSION_VARIABLES:
        return parse_expression(raw)
    return raw.strip()


def load_config(path: str) -> RunConfig:
    """Parse and validate; raises ConfigError with diagnostics on any issue."""
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise _located(path, f"cannot read: {getattr(exc, 'strerror', None) or exc}") from exc
    except configparser.Error as exc:
        # a ParsingError lists (line, text) pairs; the other errors carry lineno
        line = getattr(exc, "lineno", None) or exc.errors[0][0]
        raise _located(path, f"not valid INI ({type(exc).__name__})", at=(line, 1)) from exc

    vals: dict = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise _located(path, "unknown section", section)
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise _located(path, f"unknown key '{key}'", section, key)
            with config_errors(path, section, key, f"{key}: {{}}"):
                vals[(section, key)] = _parse_typed(cp[section][key], _SCHEMA[section][key][0])
    for section in _REQUIRED_SECTIONS:
        if section not in cp.sections():
            raise _located(path, "missing required section", section)
    for section in cp.sections():
        for key, (kind, required) in _SCHEMA[section].items():
            if required and (section, key) not in vals:
                raise _located(path, f"missing required key '{key}'", section)

    def get(section, key, default=None):
        return vals.get((section, key), default)

    with config_errors(path, "domain"):
        domain = Domain.of_kind(get("domain", "kind"), get("domain", "bounds"))
    coords = {f"x{i + 1}" for i in range(domain.dim)}
    for (section, key), val in vals.items():
        allowed = _EXPRESSION_VARIABLES.get(_SCHEMA[section][key][0], set()) | coords
        if isinstance(val, Expression) and not val.variables <= allowed:
            raise _located(path, f"variable {min(val.variables - allowed)!r} not available here;"
                                 f" {key} may use {', '.join(sorted(allowed))}", section, key)

    with config_errors(path, "weight"):
        weight = WeightSpec(**{key: val for (section, key), val in vals.items()
                               if section == "weight"})

    p = get("space", "p")
    s = get("space", "s")
    gamma = get("constants", "gamma", 1.0)
    primitive = get("nonlinearity_f", "primitive")
    # make_nonlinearity checks a primitive on the domain, else integrates f
    with config_errors(path, "nonlinearity_f", "expr" if primitive is None else "primitive",
                       "{}" if primitive is None else "{} on the configured domain"):
        nl_f = make_nonlinearity(get("nonlinearity_f", "expr"), primitive=primitive,
                                 growth_h=get("nonlinearity_f", "growth_h"), domain=domain)
    nl_g = None
    if "nonlinearity_g" in cp.sections():
        with config_errors(path, "nonlinearity_g", "expr"):
            nl_g = make_nonlinearity(get("nonlinearity_g", "expr"),
                                     caratheodory_w=get("nonlinearity_g", "w_tau"))

    ball = None
    if "ball" in cp.sections():
        with config_errors(path, "ball"):
            ball = BallSpec.create(get("ball", "x0"), get("ball", "r1"),
                                   get("ball", "r2"), domain)

    lam_min, lam_max, count = (get("lambda_grid", key, 0) for key in ("min", "max", "count"))
    lam_grid = [lam_min + (lam_max - lam_min) * i / max(count - 1, 1) for i in range(count)]

    with config_errors(path, "solver"):
        solver = SolverConfig(**{key: val for (section, key), val in vals.items()
                                 if section == "solver"})
    if ("run", "seed") in vals:
        with config_errors(path, "run", "seed"):
            solver = replace(solver, seed=vals[("run", "seed")])

    h = get("mesh", "h")
    mu_values = get("mu", "values", [0.0])
    sigma_range = (get("oracle", "sigma_min", SIGMA_MIN), get("oracle", "sigma_max", SIGMA_MAX))
    n_scan = get("oracle", "n_scan", N_SCAN)
    steps_per_unit = get("oracle", "steps_per_unit", STEPS_PER_UNIT)
    grading_depth = get("mesh", "grading_depth", 0)
    # p <= 1 is outside p > N for every N, and the flux system divides by
    # p - 1; a 1 < p <= N without [ball] still solves, so ProblemSpec checks that
    for bad, section, key, message in (
            ("lambda_grid" in cp.sections() and (count < 1 or lam_max < lam_min),
             "lambda_grid", None, "empty or inverted grid"),
            (h <= 0, "mesh", "h", "h must be positive"),
            (not p > 1, "space", "p", f"need p > N, got p={p}, N={domain.dim}"),
            (solver.max_iter < 1, "solver", "max_iter", "need max_iter >= 1"),
            (grading_depth < 0, "mesh", "grading_depth", "need grading_depth >= 0"),
            (not mu_values, "mu", "values", "values must not be empty"),
            (not sigma_range[0] < sigma_range[1], "oracle", None, "need sigma_min < sigma_max"),
            (n_scan < 2, "oracle", "n_scan", "need n_scan >= 2"),
            (steps_per_unit < 1, "oracle", "steps_per_unit", "need steps_per_unit >= 1")):
        if bad:
            raise _located(path, message, section, key)

    return RunConfig(
        path=path, domain=domain, weight=weight, p=p, s=s,
        zero_order_term=get("space", "zero_order_term", True),
        h=h, grading_depth=grading_depth,
        nl_f=nl_f, nl_g=nl_g, ball=ball,
        c=get("constants", "c"), d=get("constants", "d"), gamma=gamma,
        lambda_grid=lam_grid,
        mu_values=mu_values,
        solver=solver,
        run_lambda=get("run", "lambda", 0.0),
        run_mu=get("run", "mu", 0.0),
        sigma_range=sigma_range, n_scan=n_scan, steps_per_unit=steps_per_unit,
    )
