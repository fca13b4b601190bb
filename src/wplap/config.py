"""Run configuration: strict INI schema.

Sections and keys are validated against a fixed schema before any numerics
run; unknown sections or keys are rejected with the offending line number.
See the README for the full schema and the expression grammar.
"""
from __future__ import annotations

import configparser
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .energy import Nonlinearity, _check_primitive, make_nonlinearity
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
    "nonlinearity_f": {"expr": ("str", True), "primitive": ("str", False),
                       "growth_h": ("str", False)},
    "nonlinearity_g": {"expr": ("str", True), "w_tau": ("str", False)},
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


def _line_of(path: str, section: str, key: str | None = None) -> str:
    """Best-effort line/column diagnostics for schema errors."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError:
        return ""
    in_section = False
    for i, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            in_section = stripped[1:-1].strip() == section
            if in_section and key is None:
                return f" (line {i}, column {raw.index('[') + 1})"
        elif in_section and key is not None:
            name = stripped.split("=", 1)[0].split(":", 1)[0].strip()
            if name == key:
                return f" (line {i}, column {raw.index(name[0]) + 1})"
    return ""


def _located(path: str, section: str, message: str, key: str | None = None) -> ConfigError:
    """The ConfigError '<path> [<section>]: <message> (line i, column j)',
    located at key, or at the section header without one."""
    return ConfigError(f"{path} [{section}]: {message}" + _line_of(path, section, key))


@contextmanager
def config_errors(path: str, section: str, key: str | None = None, suffix: str = ""):
    """Re-raise a ValueError of the body (a ParseError is one) as _located's
    ConfigError, its message the error's followed by suffix."""
    try:
        yield
    except ValueError as exc:
        raise _located(path, section, f"{exc}{suffix}", key) from exc


def _parse_typed(raw: str, kind: str, path: str, section: str, key: str):
    """raw as the schema type kind; a bad value raises a ConfigError located
    at key, whose line is looked up only then."""
    try:
        if kind == "float":
            v = float(raw)
            if math.isnan(v):
                raise ValueError("nan not allowed")
            return v
        if kind == "int":
            return int(raw)
        if kind == "bool":
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "floats":
            return [float(tok) for tok in raw.replace(",", " ").split()]
        return raw.strip()
    except ValueError as exc:
        raise ConfigError(f"{path} [{section}] {key}"
                          f"{_line_of(path, section, key)}: {exc}") from exc


def load_config(path: str) -> RunConfig:
    """Parse and validate; raises ConfigError with diagnostics on any issue."""
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc

    vals: dict = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}] in {path}"
                              + _line_of(path, section))
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in [{section}] of {path}"
                                  + _line_of(path, section, key))
            kind, _ = _SCHEMA[section][key]
            vals[(section, key)] = _parse_typed(cp[section][key], kind, path, section, key)
    for section in _REQUIRED_SECTIONS:
        if section not in cp.sections():
            raise ConfigError(f"missing required section [{section}] in {path}")
    for section in cp.sections():
        for key, (kind, required) in _SCHEMA[section].items():
            if required and (section, key) not in vals:
                raise ConfigError(f"missing required key '{key}' in [{section}] of {path}"
                                  + _line_of(path, section))

    def get(section, key, default=None):
        return vals.get((section, key), default)

    with config_errors(path, "domain"):
        domain = Domain.of_kind(get("domain", "kind"), get("domain", "bounds"))

    form = get("weight", "form")
    with config_errors(path, "weight"):
        if form == "constant":
            weight = WeightSpec.constant(get("weight", "value", 1.0))
        elif form == "distance_power":
            weight = WeightSpec.distance_power(get("weight", "exponent", 0.0))
        else:
            raise ValueError(f"unknown weight form {form!r} (constant | distance_power)")

    p = get("space", "p")
    s = get("space", "s")
    gamma = get("constants", "gamma", 1.0)
    with config_errors(path, "nonlinearity_f"):
        nl_f = make_nonlinearity(get("nonlinearity_f", "expr"),
                                 primitive=get("nonlinearity_f", "primitive"),
                                 growth_h=get("nonlinearity_f", "growth_h"))
    if get("nonlinearity_f", "primitive") is not None:
        # make_nonlinearity checked the unit square; check the configured domain too
        lo, hi = domain.axes.T
        xs = lo + (hi - lo) * np.random.default_rng(42).uniform(size=(1000, domain.dim))
        with config_errors(path, "nonlinearity_f", "primitive", " on the configured domain"):
            _check_primitive(nl_f, xs)
    nl_g = None
    if "nonlinearity_g" in cp.sections():
        with config_errors(path, "nonlinearity_g"):
            nl_g = make_nonlinearity(get("nonlinearity_g", "expr"),
                                     caratheodory_w=get("nonlinearity_g", "w_tau"))

    ball = None
    if "ball" in cp.sections():
        with config_errors(path, "ball"):
            ball = BallSpec.create(get("ball", "x0"), get("ball", "r1"),
                                   get("ball", "r2"), domain)

    lam_grid: list = []
    if "lambda_grid" in cp.sections():
        lo, hi = get("lambda_grid", "min"), get("lambda_grid", "max")
        count = get("lambda_grid", "count")
        if count < 1 or hi < lo:
            raise _located(path, "lambda_grid", "empty or inverted grid")
        lam_grid = [lo + (hi - lo) * i / max(count - 1, 1) for i in range(count)]

    with config_errors(path, "solver"):
        solver = SolverConfig(**{key: val for (section, key), val in vals.items()
                                 if section == "solver" or (section, key) == ("run", "seed")})

    h = get("mesh", "h")
    mu_values = get("mu", "values", [0.0])
    sigma_range = (get("oracle", "sigma_min", SIGMA_MIN), get("oracle", "sigma_max", SIGMA_MAX))
    n_scan = get("oracle", "n_scan", N_SCAN)
    steps_per_unit = get("oracle", "steps_per_unit", STEPS_PER_UNIT)
    grading_depth = get("mesh", "grading_depth", 0)
    # p <= 1 is outside p > N for every N, and the flux system divides by
    # p - 1; a 1 < p <= N without [ball] still solves, so ProblemSpec checks that
    for bad, section, key, message in (
            (h <= 0, "mesh", "h", "h must be positive"),
            (not p > 1, "space", "p", f"need p > N, got p={p}, N={domain.dim}"),
            (solver.max_iter < 1, "solver", "max_iter", "need max_iter >= 1"),
            (grading_depth < 0, "mesh", "grading_depth", "need grading_depth >= 0"),
            (not mu_values, "mu", "values", "values must not be empty"),
            (not sigma_range[0] < sigma_range[1], "oracle", None, "need sigma_min < sigma_max"),
            (n_scan < 2, "oracle", "n_scan", "need n_scan >= 2"),
            (steps_per_unit < 1, "oracle", "steps_per_unit", "need steps_per_unit >= 1")):
        if bad:
            raise _located(path, section, message, key)

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
