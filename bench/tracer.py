"""Spans around the public functions of each wplap layer, recorded from
outside the package.

Each wrapper is installed at every lookup site: the defining module, every
wplap module that imported the function by name, and the class for methods.
Spans are aggregated in memory (calls, total time, self time) rather than
stored one by one; self time is a span's duration minus the time covered by
its direct child spans.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np


def span_table(wplap_modules: dict) -> list:
    """(owner, attribute, span name, observer, only_inside) for every traced
    function.

    Observers turn a call's arguments and result into work counters; they run
    outside the span and their time is excluded from every span.  A function
    with only_inside set is recorded only while a span of that layer is open:
    numpy.linalg.solve counts inside the solver."""
    m = wplap_modules
    SolutionSet = m["solver"].SolutionSet
    shoot_sig = inspect.signature(m["oracle1d"].shoot)
    cell_sig = inspect.signature(m["solver"].solve_cell)

    def expr_points(counters, args, kwargs, result):
        counters["expressions.eval.points"] += getattr(result, "size", 1)

    def mesh_nv(counters, args, kwargs, result):
        counters["geometry.nv"] = max(counters["geometry.nv"], result.num_vertices)

    def shoot_work(counters, args, kwargs, result):
        # RK4 steps requested: batch marches times steps over the interval
        bound = shoot_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        domain, spu = bound.arguments["domain"], bound.arguments["steps_per_unit"]
        lo, hi = (domain.bounds[0], domain.bounds[1]) if domain.kind == "interval" else (
            domain.bounds[0] - domain.bounds[1], domain.bounds[0] + domain.bounds[1])
        counters["oracle1d.sigmas_marched"] += len(result[0])
        counters["oracle1d.rk4_steps"] += round((hi - lo) * spu)

    def mp_converged(counters, args, kwargs, result):
        counters["solver.mountain_pass.converged"] += bool(result.converged)

    def cell_records(counters, args, kwargs, result):
        records = result[0]
        bound = cell_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        delta = bound.arguments["config"].delta_dist
        counters["solver.records"] += len(records)
        counters["solver.distinct"] += SolutionSet(records, delta).count if records else 0

    table = [
        (np.linalg, "solve", "linalg.solve", None, "solver"),
        (m["config"], "load_config", "config.load_config", None),
        (m["geometry"], "build_mesh", "geometry.build_mesh", mesh_nv),
        (m["weight"], "eval_weight", "weight.eval_weight", None),
        (m["expressions"].Expression, "__call__", "expressions.eval", expr_points),
        (m["space"], "estimate_k", "space.estimate_k", None),
        (m["space"], "weighted_norm", "space.weighted_norm", None),
        (m["energy"].EnergyAssembler, "__init__", "energy.assembler_init", None),
        (m["energy"], "primitive_F", "energy.primitive_F", None),
        (m["solver"], "minimize_energy", "solver.minimize_energy", None),
        (m["solver"], "sublevel_minimize", "solver.sublevel_minimize", None),
        (m["solver"], "mountain_pass", "solver.mountain_pass", mp_converged),
        (m["solver"], "solve_cell", "solver.solve_cell", cell_records),
        (m["solver"], "scan", "solver.scan", None),
        (m["oracle1d"], "shoot", "oracle1d.shoot", shoot_work),
        (m["oracle1d"], "enumerate_solutions", "oracle1d.enumerate_solutions", None),
        (m["cli"], "main", "cli.main", None),
    ]
    for method in ("energy", "phi", "residual", "tangent"):
        table.append((m["energy"].EnergyAssembler, method, f"energy.{method}", None))
    for name in ("build_certificate", "sandwich_check", "check_H1", "check_H2",
                 "check_H3_H4_H5", "check_theorem_conditions", "ustar_norm_p",
                 "annulus_weight_mass"):
        table.append((m["certificate"], name, f"certificate.{name}", None))
    for name in sorted(n for n in vars(m["cli"]) if n.startswith("write_")):
        table.append((m["cli"], name, "cli.write", None))
    return [entry if len(entry) == 5 else entry + (None,) for entry in table]


class Tracer:
    """Aggregating span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self.active = defaultdict(int)   # open spans per layer
        self._stack = []                 # child time of each open span
        self._patches = []               # (owner, attribute, original)
        self.sites = defaultdict(int)    # span name -> lookup sites patched

    def _charge_parent(self, seconds: float):
        if self._stack:
            self._stack[-1] += seconds

    def wrap(self, fn, name: str, observe=None, only_inside: str | None = None):
        layer = name.split(".", 1)[0]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if only_inside is not None and not tracer.active[only_inside]:
                return fn(*args, **kwargs)
            tracer._stack.append(0.0)
            tracer.active[layer] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                tracer.active[layer] -= 1
                child = tracer._stack.pop()
                tracer.calls[name] += 1
                tracer.total[name] += dur
                tracer.self_time[name] += dur - child
                tracer._charge_parent(dur)
            if observe is not None:
                t1 = time.perf_counter()
                observe(tracer.counters, args, kwargs, result)
                tracer._charge_parent(time.perf_counter() - t1)
            return result

        return wrapper

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, table: list):
        """Patch every (owner, attr) of the table, and every wplap module
        global that refers to the same function object."""
        modules = [mod for n, mod in sorted(sys.modules.items())
                   if mod is not None and (n == "wplap" or n.startswith("wplap."))]
        for owner, attr, name, observe, only_inside in table:
            original = owner.__dict__[attr]
            wrapper = self.wrap(original, name, observe, only_inside)
            self._patch(owner, attr, wrapper)
            self.sites[name] += 1
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, wrapper)
                        self.sites[name] += 1

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
