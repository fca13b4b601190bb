"""Workload inputs, command sequences and the per-op correctness gate.

Every workload is generated here from the shipped 1D instance
(configs/three_solutions_1d.cfg); the workload seed reaches the program only
through the CLI's --seed flag (see FIXED_SEED).  A workload op is its command sequence, run
through wplap.cli.main in-process.

The gate compares what a user reads from the output files (exit codes,
verdicts, counts, roots, solution profiles) with references stored under
refs/, within the tolerances below, so a change that only reorders a
summation still passes.
"""
from __future__ import annotations

import configparser
import json
import math
import re
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SHIPPED_CONFIG = ROOT / "configs" / "three_solutions_1d.cfg"
REFS_DIR = BENCH_DIR / "refs"

WORKLOADS = ("scan1d", "oracle1d", "box2d")
# command names per workload; the last one is the workload's main command
COMMANDS = {
    "scan1d": ("check", "scan"),
    "oracle1d": ("oracle",),
    "box2d": ("check", "solve"),
}

# Tolerances of the gate.  Solutions converge to a scaled residual of 1e-8,
# so profiles agree far below PROFILE_RTOL across seeds and summation orders.
PROFILE_RTOL = 1e-6     # sup-norm error over max(1, sup |reference|)
SIGMA_ATOL = 1e-6       # oracle root slopes
FLOAT_RTOL = 1e-8       # certificate constants and margins
FLOAT_ATOL = 1e-12
COORD_ATOL = 1e-12


def _read_shipped() -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=("#", ";"))
    with open(SHIPPED_CONFIG) as fh:
        cp.read_file(fh)
    return cp


def _write(cp: configparser.ConfigParser, path: Path) -> Path:
    with open(path, "w") as fh:
        cp.write(fh)
    return path


def write_configs(workdir: Path, tiny: bool = False) -> dict:
    """Write the workload configs into workdir; returns {workload: path}.

    scan1d is the shipped instance at h = 1/512; oracle1d uses the shipped
    file unchanged; box2d lifts the shipped instance to the unit square with
    p = s = 3 and lambda = 2000.  tiny shrinks every size for self-tests and
    warm-up."""
    scan = _read_shipped()
    scan["mesh"]["h"] = repr(1.0 / (64 if tiny else 512))
    if tiny:
        scan["lambda_grid"].update({"min": "18.0", "max": "20.0", "count": "2"})
        scan["mu"]["values"] = "0.0"

    box = _read_shipped()
    box["domain"].update({"kind": "box", "bounds": "0.0 1.0 0.0 1.0"})
    box["space"].update({"p": "3.0", "s": "3.0"})
    box["ball"]["x0"] = "0.5 0.5"
    box["mesh"]["h"] = "0.15" if tiny else "0.1"
    box["run"]["lambda"] = "2000.0"

    paths = {"scan1d": _write(scan, workdir / "scan1d.cfg"),
             "box2d": _write(box, workdir / "box2d.cfg")}
    if tiny:
        oracle = _read_shipped()
        oracle["oracle"] = {"n_scan": "201", "steps_per_unit": "128"}
        paths["oracle1d"] = _write(oracle, workdir / "oracle1d.cfg")
    else:
        paths["oracle1d"] = SHIPPED_CONFIG
    return paths


# box2d keeps the shipped multistart seed (42).  About one seed in 20 (206
# among 200-219) sends minimize_energy's random start to the 5000-iteration
# cap without converging: 129k energy evaluations, a 131 s solve instead of
# 3.5 s, so a traced run could not finish in time.  That solver defect is
# left for a solver change; scan1d still takes its multistart from the seed.
FIXED_SEED = ("box2d",)


def command_argv(workload: str, command: str, config: Path, out: Path, seed: int) -> list:
    argv = [command, "--config", str(config), "--out", str(out)]
    return argv if workload in FIXED_SEED else argv + ["--seed", str(seed)]


# -- what a user reads from each command's outputs ---------------------------

def _report_values(path: Path) -> dict:
    """key = value lines of a report, first occurrence per key and section."""
    out, section = {}, ""
    for line in path.read_text().splitlines():
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1] + "."
        elif " = " in line:
            key, val = line.split(" = ", 1)
            out.setdefault(section + key, val)
    return out


def _profiles(cli, files) -> tuple:
    coords, values = None, []
    for f in sorted(files):
        xy, u = cli.read_solution_csv(f)
        coords = xy if coords is None else coords
        values.append(u.tolist())
    return (coords.tolist() if coords is not None else []), values


def summarize(cli, command: str, out: Path, exit_code: int) -> dict:
    """The user-visible results of one command, as stored in a reference."""
    s = {"exit_code": exit_code}
    if command == "check":
        cert = cli.read_certificate(out / "certificate.txt")
        s["overall"] = cert["meta"]["overall"]
        s["verdicts"] = {n: c["verdict"] for n, c in cert["checks"].items()}
        s["margins"] = {n: c["margin"] for n, c in cert["checks"].items()}
        consts = cert["constants"]
        s["k_lower"] = consts["k_lower"]
        s["constants"] = {k: v for k, v in consts.items() if k not in ("k_lower", "k_mode")}
        s["k_mode"] = consts["k_mode"]
    elif command == "scan":
        cells = cli.read_scan_summary(out / "scan_summary.csv")
        s["cells"] = [[c["lambda"], c["mu"], c["count"], c["count_nontrivial"]] for c in cells]
        s["window"] = _report_values(out / "scan_report.txt")["lambda_window"]
        s["profiles"] = {}
        for ci in range(len(cells)):
            coords, vals = _profiles(cli, out.glob(f"scan_c{ci:03d}_s*.csv"))
            s["coords"] = coords or s.get("coords", [])
            s["profiles"][str(ci)] = vals
    elif command == "solve":
        rep = _report_values(out / "solve_report.txt")
        s["count"] = int(rep["count"])
        s["count_nontrivial"] = int(rep["count_nontrivial"])
        s["coords"], s["profiles"] = _profiles(cli, out.glob("solution_*.csv"))
    elif command == "oracle":
        rep = _report_values(out / "oracle_report.txt")
        s["sigmas"] = [float(v) for k, v in rep.items() if re.fullmatch(r"root_\d+\.sigma", k)]
        s["coords"], s["profiles"] = _profiles(cli, out.glob("oracle_root_*.csv"))
    else:
        raise ValueError(f"unknown command {command!r}")
    return s


# -- the gate ----------------------------------------------------------------

def _close(a: float, b: float, rtol: float = FLOAT_RTOL, atol: float = FLOAT_ATOL) -> bool:
    return math.isfinite(a) and abs(a - b) <= atol + rtol * abs(b)


def _match_profiles(got: list, ref: list, where: str) -> list:
    """Each reference profile must be matched by its own output profile."""
    if len(got) != len(ref):
        return [f"{where}: {len(got)} solution profiles, reference has {len(ref)}"]
    problems, free = [], list(range(len(got)))
    for ri, r in enumerate(ref):
        r = np.asarray(r)
        tol = PROFILE_RTOL * max(1.0, float(np.max(np.abs(r)))) if r.size else 0.0
        hit = next((gi for gi in free if np.asarray(got[gi]).shape == r.shape
                    and float(np.max(np.abs(np.asarray(got[gi]) - r), initial=0.0)) <= tol),
                   None)
        if hit is None:
            problems.append(f"{where}: reference profile {ri} not matched within "
                            f"sup-norm {tol:.3g}")
        else:
            free.remove(hit)
    return problems


def compare(command: str, got: dict, ref: dict) -> list:
    """Problems found comparing one command's summary with its reference."""
    problems = []
    for key in ("exit_code", "overall", "verdicts", "k_mode", "cells", "window",
                "count", "count_nontrivial"):
        if key in ref and got.get(key) != ref[key]:
            problems.append(f"{command} {key}: got {got.get(key)!r}, expected {ref[key]!r}")
    if command == "check":
        for group in ("margins", "constants"):
            for name, val in ref[group].items():
                if name not in got[group] or not _close(got[group][name], val):
                    problems.append(f"check {group[:-1]} {name}: got "
                                    f"{got[group].get(name)!r}, expected {val!r}")
        # k_lower comes from an ascent that may improve: check it as a bound
        k_lo, k = got["k_lower"], got["constants"].get("k", math.inf)
        if not (k_lo >= ref["k_lower"] * (1.0 - 1e-9) and k_lo <= k * (1.0 + 1e-12)):
            problems.append(f"check k_lower {k_lo!r} outside [{ref['k_lower']!r}, k={k!r}]")
    if "sigmas" in ref:
        if len(got["sigmas"]) != len(ref["sigmas"]) or any(
                abs(a - b) > SIGMA_ATOL for a, b in zip(sorted(got["sigmas"]), sorted(ref["sigmas"]))):
            problems.append(f"oracle roots: got sigma {got['sigmas']}, expected {ref['sigmas']}")
    if "coords" in ref:
        gc, rc = np.asarray(got.get("coords", [])), np.asarray(ref["coords"])
        if gc.shape != rc.shape or not np.allclose(gc, rc, rtol=0.0, atol=COORD_ATOL):
            problems.append(f"{command}: solution coordinates differ from the reference mesh")
            return problems
    if command == "scan":
        for ci, vals in ref["profiles"].items():
            problems += _match_profiles(got["profiles"].get(ci, []), vals, f"scan cell {ci}")
    elif "profiles" in ref:
        problems += _match_profiles(got["profiles"], ref["profiles"], command)
    return problems


def reference_path(workload: str, tiny: bool = False) -> Path:
    return REFS_DIR / f"{workload}{'_tiny' if tiny else ''}.json"


def load_reference(workload: str, tiny: bool = False) -> dict:
    with open(reference_path(workload, tiny)) as fh:
        return json.load(fh)
