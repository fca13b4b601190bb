"""Run configuration: strict INI schema.

Sections and keys are validated against a fixed schema before any numerics
run; unknown sections or keys are rejected with the offending line number.
See the README for the full schema and the expression grammar.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .energy import Nonlinearity, make_nonlinearity
from .expressions import ParseError
from .geometry import BallSpec, Domain
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
    sigma_range: tuple = (-50.0, 50.0)
    n_scan: int = 2001
    steps_per_unit: int = 1024


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


def _parse_typed(raw: str, kind: str, where: str):
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
        raise ConfigError(f"{where}: {exc}") from exc


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
            vals[(section, key)] = _parse_typed(
                cp[section][key], kind,
                f"{path} [{section}] {key}{_line_of(path, section, key)}")
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

    # domain
    kind = get("domain", "kind")
    bounds = get("domain", "bounds")
    try:
        if kind == "interval":
            domain = Domain.interval(*bounds)
        elif kind == "box":
            domain = Domain.box(*bounds)
        else:
            raise ValueError(f"unknown domain kind {kind!r}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path} [domain]: {exc}" + _line_of(path, "domain")) from exc

    # weight
    form = get("weight", "form")
    try:
        if form == "constant":
            weight = WeightSpec.constant(get("weight", "value", 1.0))
        elif form == "distance_power":
            weight = WeightSpec.distance_power(get("weight", "exponent", 0.0))
        else:
            raise ValueError(f"unknown weight form {form!r} (constant | distance_power)")
    except ValueError as exc:
        raise ConfigError(f"{path} [weight]: {exc}" + _line_of(path, "weight")) from exc

    p = get("space", "p")
    s = get("space", "s")
    gamma = get("constants", "gamma", 1.0)
    try:
        nl_f = make_nonlinearity(get("nonlinearity_f", "expr"),
                                 primitive=get("nonlinearity_f", "primitive"),
                                 growth_h=get("nonlinearity_f", "growth_h"))
    except (ParseError, ValueError) as exc:
        raise ConfigError(f"{path} [nonlinearity_f]: {exc}"
                          + _line_of(path, "nonlinearity_f")) from exc
    nl_g = None
    if "nonlinearity_g" in cp.sections():
        try:
            nl_g = make_nonlinearity(get("nonlinearity_g", "expr"),
                                     caratheodory_w=get("nonlinearity_g", "w_tau"))
        except (ParseError, ValueError) as exc:
            raise ConfigError(f"{path} [nonlinearity_g]: {exc}"
                              + _line_of(path, "nonlinearity_g")) from exc

    ball = None
    if "ball" in cp.sections():
        try:
            ball = BallSpec.create(get("ball", "x0"), get("ball", "r1"),
                                   get("ball", "r2"), domain)
        except ValueError as exc:
            raise ConfigError(f"{path} [ball]: {exc}" + _line_of(path, "ball")) from exc

    lam_grid: list = []
    if "lambda_grid" in cp.sections():
        lo, hi = get("lambda_grid", "min"), get("lambda_grid", "max")
        count = get("lambda_grid", "count")
        if count < 1 or hi < lo:
            raise ConfigError(f"{path} [lambda_grid]: empty or inverted grid"
                              + _line_of(path, "lambda_grid"))
        lam_grid = [lo + (hi - lo) * i / max(count - 1, 1) for i in range(count)]

    try:
        solver = SolverConfig(
            residual_tol=get("solver", "residual_tol", 1e-8),
            max_iter=get("solver", "max_iter", 5000),
            eps_reg=get("solver", "eps_reg", 1e-8),
            delta_dist=get("solver", "delta_dist", 1e-3),
            seed=get("run", "seed", 42),
        )
    except ValueError as exc:
        raise ConfigError(f"{path} [solver]: {exc}" + _line_of(path, "solver")) from exc

    h = get("mesh", "h")
    if h <= 0:
        raise ConfigError(f"{path} [mesh]: h must be positive" + _line_of(path, "mesh", "h"))

    return RunConfig(
        path=path, domain=domain, weight=weight, p=p, s=s,
        zero_order_term=get("space", "zero_order_term", True),
        h=h, grading_depth=get("mesh", "grading_depth", 0),
        nl_f=nl_f, nl_g=nl_g, ball=ball,
        c=get("constants", "c"), d=get("constants", "d"), gamma=gamma,
        lambda_grid=lam_grid,
        mu_values=get("mu", "values", [0.0]),
        solver=solver,
        run_lambda=get("run", "lambda", 0.0),
        run_mu=get("run", "mu", 0.0),
        sigma_range=(get("oracle", "sigma_min", -50.0), get("oracle", "sigma_max", 50.0)),
        n_scan=get("oracle", "n_scan", 2001),
        steps_per_unit=get("oracle", "steps_per_unit", 1024),
    )
