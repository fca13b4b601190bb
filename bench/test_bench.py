"""Self-tests of the benchmark (not part of the package's test suite):

    python3 -m pytest bench/test_bench.py -q

Tiny-size runs check the result schema against BENCHMARK.json, and
deliberately wrong references show that the correctness gate trips.
"""
from __future__ import annotations

import copy
import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import Tracer, span_table

SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture
def workdir():
    path = run.ROOT / ".bench_work" / f"test-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def wp():
    return run.import_wplap()


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["bench"] and SPEC["command"][1] == "bench/run.py"
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics + SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(SPEC["per_layer"]) <= 128


def test_layer_table_matches_spec_and_spans(wp):
    with open(run.LAYERS_PATH) as fh:
        layers = json.load(fh)["layers"]
    listed = [m for entry in layers for m in entry["metrics"]]
    assert sorted(listed) == sorted(m["name"] for m in SPEC["per_layer"])
    spans = {entry[2] for entry in span_table(wp)}
    for entry in layers:
        assert set(entry["spans"]) <= spans
        assert set(entry["fires_on"]) <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_schema(workload, trace):
    result = run.run(workload, seed=1, seconds=0.01, trace=trace, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= (2 if trace else 1)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {run._size_free(m["name"]): m["unit"] for m in spec}
    assert len(result["metrics"]) == len(spec)
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"} and m["unit"] == units[run._size_free(name)]
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
        if not trace:
            assert m["value"] > 0
    json.dumps(result)


def _perturbations(command: str, ref: dict):
    """(label, wrong reference) pairs the gate must reject."""
    def changed(fn):
        bad = copy.deepcopy(ref)
        fn(bad)
        return bad

    def shift_profile(bad):
        profiles = bad["profiles"]
        group = profiles[max(profiles, key=lambda k: len(profiles[k]))] \
            if isinstance(profiles, dict) else profiles
        group[-1] = [v + 1e-3 for v in group[-1]]

    yield "exit code", changed(lambda b: b.update(exit_code=2))
    if command == "check":
        yield "verdict", changed(lambda b: b["verdicts"].update(H1="fail"))
        yield "constant k", changed(lambda b: b["constants"].update(k=b["constants"]["k"] * 1.001))
        yield "k_lower bound", changed(lambda b: b.update(k_lower=b["k_lower"] * 1.1))
    else:
        yield "profile", changed(shift_profile)
    if command == "scan":
        yield "count", changed(lambda b: b["cells"][0].__setitem__(2, b["cells"][0][2] + 1))
        yield "window", changed(lambda b: b.update(window="(12, 0)"))
    if command == "solve":
        yield "count", changed(lambda b: b.update(count=2))
    if command == "oracle":
        yield "root sigma", changed(lambda b: b["sigmas"].__setitem__(1, b["sigmas"][1] + 1e-3))
        yield "root count", changed(lambda b: b["sigmas"].pop())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_gate_trips_on_wrong_reference(workload, wp, workdir):
    configs = workloads.write_configs(workdir, tiny=True)
    ref = workloads.load_reference(workload, tiny=True)
    op = run.run_op(wp, workload, configs[workload], workdir / "out", 1, ref)
    assert op.problems == []
    for cmd in workloads.COMMANDS[workload]:
        got = workloads.summarize(wp["cli"], cmd, workdir / "out" / cmd, 0)
        for label, bad in _perturbations(cmd, ref[cmd]):
            assert workloads.compare(cmd, got, bad), f"{cmd}: gate missed a wrong {label}"
        if cmd == "check":
            better = dict(ref[cmd], k_lower=ref[cmd]["k_lower"] * 0.9)
            assert workloads.compare(cmd, got, better) == []   # a larger k_lower is fine


def test_failed_ops_are_counted(monkeypatch):
    ref = workloads.load_reference("oracle1d", tiny=True)
    ref["oracle"]["sigmas"][0] += 1.0
    monkeypatch.setattr(workloads, "load_reference", lambda *a, **k: copy.deepcopy(ref))
    result = run.run("oracle1d", seed=1, seconds=0.01, trace=False, tiny=True)
    assert result["correct"] is False and result["failed"] == result["attempted"] >= 1


def test_wrappers_reach_every_lookup_site(wp):
    cert_original = wp["certificate"].build_certificate
    tracer = Tracer()
    tracer.install(span_table(wp))
    try:
        assert wp["cli"].build_certificate is wp["certificate"].build_certificate
        assert wp["cli"].build_certificate is not cert_original
        assert wp["certificate"].estimate_k is wp["space"].estimate_k
        assert tracer.sites["certificate.build_certificate"] >= 2
    finally:
        tracer.uninstall()
    assert wp["cli"].build_certificate is cert_original


def test_fails_without_the_package(workdir):
    """A directory holding only BENCHMARK.json and bench/ must not pass."""
    shutil.copy(run.SPEC_PATH, workdir / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, workdir / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "oracle1d", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=workdir,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
