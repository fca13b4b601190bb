"""wplap benchmark: three CLI workloads, a traced run and a mesh-size sweep.

    python3 bench/run.py --workload scan1d --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from src/ next to this directory.
One process runs one workload: its op (the command sequence of
workloads.COMMANDS, through wplap.cli.main in-process) repeats until
--seconds have passed, and every op's outputs go through the correctness
gate.  --trace 0 reports the end-to-end metrics of BENCHMARK.json;
--trace 1 alternates untraced and traced ops, reports the per-layer
metrics and ends with the mesh-size sweep.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import os

# Pin BLAS threads before numpy loads: steadier timings on a shared host.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import hashlib
import importlib
import importlib.metadata
import io
import json
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import sweep
import workloads
from hostspeed import HostSpeed
from tracer import Tracer, span_table

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
LAYERS_PATH = BENCH_DIR / "layers.json"
MODULES = ("config", "geometry", "weight", "expressions", "space", "energy",
           "solver", "certificate", "oracle1d", "cli")
SETUP_REPEATS = 7
# argv: src dir, config, bench dir; prints raw and host-speed corrected seconds
SETUP_CODE = """
import sys, time
sys.path.append(sys.argv[3])
from hostspeed import HostSpeed
with HostSpeed(period_s=0.01) as speed:
    sys.path.insert(0, sys.argv[1])
    t0 = time.perf_counter()
    import wplap
    from wplap.config import load_config
    load_config(sys.argv[2])
    wall = time.perf_counter() - t0
print(repr(wall), repr(wall * speed.factor()))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing source, broken spans, ...)."""


def import_wplap() -> dict:
    """The wplap modules from SRC, never from an installed copy."""
    if not (SRC / "wplap" / "__init__.py").is_file():
        raise BenchError(f"no wplap package under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"wplap.{name}") for name in MODULES}
    where = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"wplap imported from {where}, not from {SRC}")
    return mods


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


# -- provenance ---------------------------------------------------------------

def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def provenance(workload: str, seed: int, loadavg: tuple) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "wplap").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "loadavg_start": [round(x, 2) for x in loadavg],
    }


# -- one op -------------------------------------------------------------------

class Op:
    """Timings and gate outcome of one workload op.  times and total are
    host-speed corrected (hostspeed.py); wall holds the raw wall times."""

    def __init__(self):
        self.times: dict = {}
        self.wall: dict = {}
        self.problems: list = []
        self.bytes_written = 0

    @property
    def total(self) -> float:
        return sum(self.times.values())


def run_op(wp: dict, workload: str, config, out: Path, seed: int, ref: dict) -> Op:
    op = Op()
    shutil.rmtree(out, ignore_errors=True)
    codes = {}
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for cmd in workloads.COMMANDS[workload]:
                argv = workloads.command_argv(workload, cmd, config, out / cmd, seed)
                with HostSpeed() as speed:
                    t0 = time.perf_counter()
                    codes[cmd] = wp["cli"].main(argv)
                    op.wall[cmd] = time.perf_counter() - t0
                op.times[cmd] = op.wall[cmd] * speed.factor()
    except Exception:  # the op fails; the run goes on
        op.problems.append("exception: " + traceback.format_exc())
    for cmd, code in codes.items():
        try:
            got = workloads.summarize(wp["cli"], cmd, out / cmd, code)
        except (OSError, KeyError, ValueError) as exc:
            op.problems.append(f"{cmd}: outputs unreadable: {exc!r}")
            continue
        op.problems += workloads.compare(cmd, got, ref[cmd])
    op.bytes_written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    if op.problems:
        print(f"op failed: {'; '.join(op.problems)[:2000]}", file=sys.stderr)
    return op


def measure_setup(config) -> list:
    """import wplap + load_config, each in a fresh interpreter: a list of
    (wall, host-speed corrected) seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(config),
                              str(BENCH_DIR)], cwd=ROOT, capture_output=True, text=True,
                             timeout=120)
        if out.returncode != 0:
            raise BenchError(f"setup probe failed: {out.stderr.strip()[-500:]}")
        wall, corrected = out.stdout.split()[-2:]
        times.append((float(wall), float(corrected)))
    return times


# -- metrics ------------------------------------------------------------------

def _median(xs) -> float:
    return statistics.median(xs) if xs else float("nan")


def _size_free(name: str) -> str:
    return re.sub(r"nv\d+", "nv#", name)


def emit(values: dict, spec_metrics: list, tiny: bool) -> dict:
    """{name: {value, unit}} in spec order.  A tiny run's sweep has other
    mesh sizes, so its names are matched with the vertex counts removed."""
    key = _size_free if tiny else str
    order = {key(m["name"]): (i, m["unit"]) for i, m in enumerate(spec_metrics)}
    want = Counter(key(m["name"]) for m in spec_metrics)
    have = Counter(key(n) for n in values)
    if want != have:
        raise BenchError(f"metric names differ from BENCHMARK.json: "
                         f"missing {sorted(want - have)}, extra {sorted(have - want)}")
    return {n: {"value": values[n], "unit": order[key(n)][1]}
            for n in sorted(values, key=lambda n: order[key(n)][0])}


def end_to_end(ops: list, workload: str, setup: list) -> dict:
    main_cmd = workloads.COMMANDS[workload][-1]
    return {
        "setup_s": _median([corrected for _, corrected in setup]),
        "total_s": _median([op.total for op in ops]),
        "main_s": _median([op.times[main_cmd] for op in ops if main_cmd in op.times]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: Tracer, traced: list, untraced: list, spec_metrics: list) -> dict:
    n = len(traced)
    c, calls = tracer.counters, tracer.calls
    derived = {
        "expressions.eval.points": c["expressions.eval.points"] / n,
        "geometry.nv": c["geometry.nv"],
        "oracle1d.sigmas_marched": c["oracle1d.sigmas_marched"] / n,
        "oracle1d.rk4_steps": c["oracle1d.rk4_steps"] / n,
        "solver.mountain_pass.converged_ratio":
            c["solver.mountain_pass.converged"] / calls["solver.mountain_pass"]
            if calls["solver.mountain_pass"] else 0.0,
        "solver.distinct_per_record":
            c["solver.distinct"] / c["solver.records"] if c["solver.records"] else 0.0,
        "solver.energy_per_tangent":
            calls["energy.energy"] / calls["energy.tangent"] if calls["energy.tangent"] else 0.0,
        "cli.bytes_written": _median([op.bytes_written for op in traced]),
        "trace.overhead_s": _median([op.total for op in traced])
        - _median([op.total for op in untraced]),
    }
    out = {}
    for m in spec_metrics:
        name = m["name"]
        if name.startswith("sweep."):
            continue
        if name.endswith(".calls"):
            out[name] = calls[name[:-len(".calls")]] / n
        elif name.endswith(".self_s"):
            out[name] = tracer.self_time[name[:-len(".self_s")]] / n
        else:
            out[name] = derived[name]
    return out


def check_coverage(tracer: Tracer, workload: str):
    """Every span the layer table expects on this workload must have fired."""
    with open(LAYERS_PATH) as fh:
        layers = json.load(fh)["layers"]
    silent = [s for entry in layers if workload in entry.get("fires_on", [])
              for s in entry.get("spans", []) if tracer.calls[s] == 0]
    if silent:
        raise BenchError(f"expected spans never fired on {workload}: {silent}")


# -- a run --------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    loadavg = os.getloadavg()
    spec = load_spec()
    wp = import_wplap()
    workdir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(wp, spec, workdir, workload, seed, seconds, trace, tiny, loadavg)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def _run(wp, spec, workdir, workload, seed, seconds, trace, tiny, loadavg) -> dict:
    print("provenance: " + json.dumps(provenance(workload, seed, loadavg)))
    configs = workloads.write_configs(workdir, tiny)
    ref = workloads.load_reference(workload, tiny)
    # warm-up at tiny size: lazy imports and first-call costs, not timed
    (workdir / "warm").mkdir()
    warm = workloads.write_configs(workdir / "warm", tiny=True)
    run_op(wp, workload, warm[workload], workdir / "warm_out", seed,
           workloads.load_reference(workload, tiny=True))

    ops, traced = [], []
    tracer = Tracer()
    setup = [] if trace else measure_setup(configs[workload])
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        ops.append(run_op(wp, workload, configs[workload], workdir / "out", seed, ref))
        if trace:
            tracer.install(span_table(wp))
            try:
                traced.append(run_op(wp, workload, configs[workload], workdir / "out", seed, ref))
            finally:
                tracer.uninstall()

    everything = ops + traced
    failed = sum(1 for op in everything if op.problems)
    _print_summary(workload, ops, failed, len(everything))
    if setup:
        print(f"setup wall = {_median([wall for wall, _ in setup]):.6g} s (median of {len(setup)})")
    if trace:
        check_coverage(tracer, workload)
        values = per_layer(tracer, traced, ops, spec["per_layer"])
        values.update(sweep.run_sweep(wp, workloads.SHIPPED_CONFIG, configs["box2d"], tiny))
        _print_spans(tracer, len(traced))
        metrics = emit(values, spec["per_layer"], tiny)
    else:
        metrics = emit(end_to_end(ops, workload, setup), spec["end_to_end"], tiny)
    samples = {"setup_s": len(setup), "total_s": len(ops), "main_s": len(ops)}
    for name, m in metrics.items():
        n = f" (median of {samples[name]})" if name in samples and not trace else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{n}")
    return {"correct": failed == 0, "attempted": len(everything), "failed": failed,
            "metrics": metrics}


def _print_summary(workload, ops, failed, attempted):
    print(f"{workload}: {attempted} ops, {failed} failed, failed_share = {failed / attempted:g}")
    for cmd in workloads.COMMANDS[workload]:
        xs = [op.times[cmd] for op in ops if cmd in op.times]
        raw = [op.wall[cmd] for op in ops if cmd in op.wall]
        print(f"{cmd}_s = {_median(xs):.6g} s corrected, {_median(raw):.6g} s wall "
              f"(medians of {len(xs)} untraced ops)")


def _print_spans(tracer: Tracer, n: int):
    print(f"spans per traced op (n = {n}), by self time:")
    for name in sorted((k for k, c in tracer.calls.items() if c), key=lambda k: -tracer.self_time[k]):
        print(f"  {name:40s} calls={tracer.calls[name] / n:10.1f} "
              f"self_s={tracer.self_time[name] / n:.4f} total_s={tracer.total[name] / n:.4f}")


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, one process each; returns an exit code."""
    worst = 0
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)], cwd=ROOT, capture_output=True,
                              text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        ok = proc.returncode == 0 and lines and json.loads(lines[-1])["correct"]
        worst = worst or (0 if ok else 1)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
