"""Mesh-size sweep: the hot layers timed at three mesh sizes each, with the
fitted exponent of time in nv (the vertex count).

Each size gets a fresh mesh, so assembler construction and the first call of
each layer pay their full, uncached cost.  Times are medians over repeats.
"""
from __future__ import annotations

import math
import statistics
import time
import tracemalloc

import numpy as np

SIZES_1D = (256, 512, 1024)        # h = 1/n on the shipped 1D instance
SIZES_2D = (0.2, 0.14, 0.1)        # h on the 2D box instance
TINY_SIZES_1D = (32, 64, 128)
TINY_SIZES_2D = (0.5, 0.35, 0.25)
REPEATS = 5


def _median_time(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _exponent(nvs: list, times: list) -> float:
    """Least-squares slope of log(time) against log(nv)."""
    return float(np.polyfit(np.log(nvs), np.log(np.maximum(times, 1e-12)), 1)[0])


def _mesh_at(cli, cfg, h):
    cfg.h = h
    return cli.build_problem_mesh(cfg)


def _sweep_1d(wp, cfg, sizes) -> dict:
    cli, energy, space, certificate = wp["cli"], wp["energy"], wp["space"], wp["certificate"]
    lam, mu = cfg.run_lambda, cfg.run_mu
    times, mem, nvs = {}, {}, []

    def assembler(mesh):
        return energy.EnergyAssembler(mesh, cfg.weight, cfg.p, lam, mu, cfg.nl_f, cfg.nl_g,
                                      cfg.zero_order_term, cfg.solver.eps_reg)

    for n in sizes:
        h = 1.0 / n
        nv = _mesh_at(cli, cfg, h).num_vertices
        nvs.append(nv)
        t = times.setdefault
        t("geometry.build_mesh", []).append(_median_time(lambda: _mesh_at(cli, cfg, h)))
        fresh = iter([_mesh_at(cli, cfg, h) for _ in range(3)])
        t("energy.assembler_init", []).append(
            _median_time(lambda: assembler(next(fresh)), repeats=3))
        mesh = _mesh_at(cli, cfg, h)
        tracemalloc.start()
        asm = assembler(mesh)
        mem[nv] = tracemalloc.get_traced_memory()[1] / 2 ** 20
        tracemalloc.stop()
        v = certificate.build_ustar(cfg.d, cfg.ball, mesh).values
        t("energy.energy", []).append(_median_time(lambda: asm.energy(v)))
        t("energy.residual", []).append(_median_time(lambda: asm.residual(v)))
        t("energy.tangent", []).append(_median_time(lambda: asm.tangent(v)))
        J, rhs = asm.tangent(v), -asm.residual(v)
        t("linalg.solve", []).append(_median_time(lambda: np.linalg.solve(J, rhs)))
        t("space.estimate_k", []).append(_median_time(
            lambda: space.estimate_k(cfg.domain, cfg.weight, cfg.p, cfg.s, mesh), repeats=1))
    out = _report("1d", nvs, times)
    for nv, mb in mem.items():
        out[f"sweep.1d.energy.assembler_init.nv{nv}_mb"] = mb
    return out


def _sweep_2d(wp, cfg, sizes) -> dict:
    cli, space = wp["cli"], wp["space"]
    times, nvs = {}, []
    for h in sizes:
        mesh = _mesh_at(cli, cfg, h)
        nvs.append(mesh.num_vertices)
        times.setdefault("geometry.build_mesh", []).append(
            _median_time(lambda: _mesh_at(cli, cfg, h)))
        times.setdefault("space.estimate_k", []).append(_median_time(
            lambda: space.estimate_k(cfg.domain, cfg.weight, cfg.p, cfg.s, mesh), repeats=1))
    return _report("2d", nvs, times)


def _report(dim: str, nvs: list, times: dict) -> dict:
    out = {}
    for layer, ts in times.items():
        for nv, t in zip(nvs, ts):
            out[f"sweep.{dim}.{layer}.nv{nv}_s"] = t
        out[f"sweep.{dim}.{layer}.exponent"] = _exponent(nvs, ts)
    return out


def run_sweep(wp: dict, config_1d, config_2d, tiny: bool = False) -> dict:
    """All sweep metrics; wp maps module names to wplap modules, the configs
    are paths to the 1D and 2D instances (their mesh sizes are replaced)."""
    cfg1 = wp["config"].load_config(str(config_1d))
    cfg2 = wp["config"].load_config(str(config_2d))
    out = _sweep_1d(wp, cfg1, TINY_SIZES_1D if tiny else SIZES_1D)
    out.update(_sweep_2d(wp, cfg2, TINY_SIZES_2D if tiny else SIZES_2D))
    if not all(math.isfinite(v) for v in out.values()):
        raise RuntimeError("non-finite sweep metric")
    return out
