"""End-to-end command line driver tests (in-process, via main).

The four shipped-config runs, and `check` and `solve` on the shipped instance
lifted to the unit square, also compare every file they write with the
golden outputs under tests/golden/; `python3 tests/regen_golden.py <name>` rewrites
tests/golden/<name>/ from the current code."""
import csv
import inspect
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from wplap import certificate, cli, config, space
from wplap.cli import (
    main,
    read_certificate,
    read_constants_csv,
    read_oracle_profile,
    read_scan_summary,
    read_solution_csv,
)
from wplap.config import _SCHEMA, load_config
from wplap.oracle1d import enumerate_solutions
from wplap.solver import SolverConfig

REPO = Path(__file__).resolve().parents[1]
SHIPPED = REPO / "configs" / "three_solutions_1d.cfg"
LINEAR = REPO / "configs" / "linear_benchmark_1d.cfg"
GOLDEN = Path(__file__).resolve().parent / "golden"
# the shipped oracle on a coarser sigma scan, so the test stays quick
FAST_ORACLE = ("[run]", "[oracle]\nsigma_min = -10.0\nsigma_max = 10.0\n"
                        "n_scan = 401\n\n[run]")
# the shipped instance lifted to the unit square: p = s = 3, h = 0.1, lambda = 2000
BOX2D = (("kind = interval\nbounds = 0.0 1.0\n", "kind = box\nbounds = 0.0 1.0 0.0 1.0\n"),
         ("p = 2.0\ns = 2.0\n", "p = 3.0\ns = 3.0\n"),
         ("x0 = 0.5\n", "x0 = 0.5 0.5\n"),
         ("h = 0.00390625\n", "h = 0.1\n"),
         ("lambda = 18.0\n", "lambda = 2000.0\n"))

XI_REF = 1.4907119849998596
ETA_REF = 3.006474494967301
LOWER_REF = 8.888888888888889
UPPER_REF = 36.15555555555556


def run_cli(*argv):
    return main([str(a) for a in argv])


def variant(tmp_path, name, *replacements, base=SHIPPED):
    """Copy a shipped config applying exact text substitutions."""
    text = base.read_text()
    for old, new in replacements:
        assert old in text, old
        text = text.replace(old, new)
    path = tmp_path / name
    path.write_text(text)
    return path


_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan)")
_RESIDUAL_KEY = re.compile(r"\w*residual\w*\s*=\s*$")


def _normalised(path: Path) -> str:
    """File text with the `config = <path>` lines made path independent."""
    return re.sub(r"(?m)^config = .*$", "config = <config>", path.read_text())


def _check_number(got: str, want: str, residual: bool, where: str):
    """Residual fields need only meet the solver tolerance; every other
    number matches to 1e-10 relative with a 1e-12 absolute floor."""
    if residual:
        assert float(got) <= SolverConfig().residual_tol, f"{where}: {got}"
    else:
        assert math.isclose(float(got), float(want), rel_tol=1e-10, abs_tol=1e-12), \
            f"{where}: {got} != {want}"


def _compare_text(got: str, want: str, name: str):
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines), name
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        gp, wp = _NUMBER.split(g), _NUMBER.split(w)
        where = f"{name}:{i + 1}"
        # even entries are the text between numbers, odd ones the numbers
        assert gp[::2] == wp[::2], f"{where}: {g!r} != {w!r}"
        for j in range(1, len(wp), 2):
            _check_number(gp[j], wp[j], bool(_RESIDUAL_KEY.search(wp[j - 1])), where)


def _compare_csv(got: str, want: str, name: str):
    got_rows = list(csv.reader(got.splitlines()))
    want_rows = list(csv.reader(want.splitlines()))
    assert got_rows[0] == want_rows[0], name
    assert len(got_rows) == len(want_rows), name
    for i, (g, w) in enumerate(zip(got_rows[1:], want_rows[1:])):
        assert len(g) == len(w), f"{name}:{i + 2}"
        for col, gc, wc in zip(want_rows[0], g, w):
            if _NUMBER.fullmatch(wc):
                _check_number(gc, wc, "residual" in col, f"{name}:{i + 2}:{col}")
            else:
                assert gc == wc, f"{name}:{i + 2}:{col}"


def assert_matches_golden(out: Path, command: str):
    """Every file in out, and no other, matches tests/golden/<command>/."""
    golden = GOLDEN / command
    names = sorted(p.name for p in out.iterdir() if p.is_file())
    assert names == sorted(p.name for p in golden.iterdir())
    for name in names:
        compare = _compare_csv if name.endswith(".csv") else _compare_text
        compare(_normalised(out / name), _normalised(golden / name), f"{command}/{name}")


class TestCheck:
    def test_shipped_certificate_passes(self, tmp_path, capsys):
        code = run_cli("check", "--config", SHIPPED, "--out", tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "overall: pass" in out
        cert = read_certificate(tmp_path / "certificate.txt")
        assert cert["meta"]["overall"] == "pass"
        assert cert["meta"]["exit_code"] == "0"
        expected = {"sandwich": "pass", "H1": "pass", "H2": "pass",
                    "H3": "heuristic-pass", "H4": "pass", "H5": "pass",
                    "dxi_gt_c": "pass", "level_separation": "pass",
                    "bona1": "pass"}
        got = {name: entry["verdict"] for name, entry in cert["checks"].items()}
        assert got == expected
        assert_matches_golden(tmp_path, "check")

    def test_box2d_lift_matches_golden(self, tmp_path):
        # the 2D certificate path: box rule for H2, polar annulus integrals
        # and the point-load k_lower solve
        cfg = variant(tmp_path, "box2d.cfg", *BOX2D)
        assert run_cli("check", "--config", cfg, "--out", tmp_path / "out") == 0
        assert_matches_golden(tmp_path / "out", "check2d")

    def test_unconverged_annulus_quadrature_is_noted(self, tmp_path):
        # a distance-power weight on a 1.2 x 1 box has kinks in angle around
        # x0 = (0.6, 0.5), so the radial panel doubling behind a_L1_annulus
        # stops unconverged; every entry built from that mass must say so
        cfg = variant(tmp_path, "box_dp.cfg",
                      ("kind = interval\nbounds = 0.0 1.0\n",
                       "kind = box\nbounds = 0.0 1.2 0.0 1.0\n"),
                      ("form = constant\nvalue = 1.0\n",
                       "form = distance_power\nexponent = 0.3\n"),
                      ("p = 2.0\ns = 2.0\n", "p = 3.0\ns = 3.0\n"),
                      ("x0 = 0.5\n", "x0 = 0.6 0.5\n"),
                      ("h = 0.00390625\n", "h = 0.12\n"))
        assert run_cli("check", "--config", cfg, "--out", tmp_path / "out") == 0
        checks = read_certificate(tmp_path / "out" / "certificate.txt")["checks"]
        noted = {name for name, e in checks.items() if "unconverged" in e["note"]}
        assert noted == {"sandwich", "H2", "dxi_gt_c"}

    def test_constants_round_trip(self, tmp_path):
        run_cli("check", "--config", SHIPPED, "--out", tmp_path)
        consts = read_constants_csv(tmp_path / "constants.csv")
        assert consts["xi"] == pytest.approx(XI_REF, rel=1e-12)
        assert consts["eta"] == pytest.approx(ETA_REF, rel=1e-12)
        assert consts["r"] == pytest.approx(0.08, rel=1e-12)
        assert consts["sandwich_lower"] == pytest.approx(LOWER_REF, rel=1e-12)
        assert consts["sandwich_upper"] == pytest.approx(UPPER_REF, rel=1e-12)
        assert consts["ustar_norm_p"] == pytest.approx(21.0181339, rel=1e-3)
        assert consts["sandwich_margin_lower"] > 0
        assert consts["sandwich_margin_upper"] > 0
        cert = read_certificate(tmp_path / "certificate.txt")
        assert cert["constants"]["k_mode"] == "certified"
        assert cert["variants"]["k_upper"]["r"] == pytest.approx(consts["r"], rel=1e-12)
        assert consts["k[k_lower]"] <= consts["k[k_upper]"]

    def test_sub_unit_weight_k_is_certified(self, tmp_path):
        # k_upper is rigorous for every weight a > 0, so at a = 0.5 the checks
        # built from k (d^p xi^p > c^p, the level separation and bona1) pass
        cfg = variant(tmp_path, "half_weight.cfg", ("value = 1.0", "value = 0.5"))
        code = run_cli("check", "--config", cfg, "--out", tmp_path / "out")
        cert = read_certificate(tmp_path / "out" / "certificate.txt")
        assert cert["constants"]["k_mode"] == "certified"
        for name in ("dxi_gt_c", "level_separation", "bona1"):
            entry = cert["checks"][name]
            assert entry["verdict"] == "pass", name
            assert "is heuristic" not in entry["note"], name
        assert "k mode: certified; xi/eta/r per k variant recorded" in cert["notes"]
        assert cert["meta"]["overall"] == "pass"
        assert code == 0

    def test_oversized_c_fails_named_condition(self, tmp_path, capsys):
        cfg = variant(tmp_path, "bad_c.cfg", ("c = 0.2", "c = 1.5"))
        code = run_cli("check", "--config", cfg, "--out", tmp_path / "out")
        assert code == 2
        out = capsys.readouterr().out
        assert "failing or inconclusive conditions:" in out
        assert "dxi_gt_c" in out

    def test_missing_growth_bound_inconclusive(self, tmp_path):
        cfg = variant(tmp_path, "no_growth.cfg", ("growth_h = 1\n", ""))
        code = run_cli("check", "--config", cfg, "--out", tmp_path / "out")
        assert code == 3
        cert = read_certificate(tmp_path / "out" / "certificate.txt")
        assert cert["checks"]["H3"]["verdict"] == "inconclusive"
        assert cert["meta"]["overall"] == "inconclusive"

    def test_check_needs_ball_and_constants(self, tmp_path, capsys):
        code = run_cli("check", "--config", LINEAR, "--out", tmp_path)
        assert code == 64
        assert "check requires" in capsys.readouterr().err

    def test_coarse_mesh_rejected(self, tmp_path, capsys):
        cfg = variant(tmp_path, "coarse.cfg", ("h = 0.00390625", "h = 0.05"))
        code = run_cli("check", "--config", cfg, "--out", tmp_path / "out")
        assert code == 64
        assert "config error:" in capsys.readouterr().err

    def test_mesh_too_coarse_for_the_ball_fails_before_estimate_k(self, tmp_path, capsys,
                                                                 monkeypatch):
        # the box2d lift at h = 0.025 puts too few cells inside r1 = 0.012;
        # u* is built first, so check stops before the embedding estimate
        def forbidden(*args, **kwargs):
            raise AssertionError("check ran estimate_k")

        monkeypatch.setattr(space, "estimate_k", forbidden)
        monkeypatch.setattr(certificate, "estimate_k", forbidden)
        cfg = variant(tmp_path, "coarse2d.cfg", *BOX2D[:3], *BOX2D[4:],
                      ("h = 0.00390625\n", "h = 0.025\n"), ("r1 = 0.1\n", "r1 = 0.012\n"))
        assert run_cli("check", "--config", cfg, "--out", tmp_path / "out") == 64
        line = cfg.read_text().splitlines().index("h = 0.025") + 1
        assert re.fullmatch(rf"config error: {re.escape(str(cfg))} \[mesh\]: only \d+ cells "
                            rf"inside B\(x0, r1\); need at least 8 - refine the mesh "
                            rf"\(line {line}, column 1\)\n", capsys.readouterr().err)

    def test_seed_override_recorded(self, tmp_path):
        run_cli("check", "--config", SHIPPED, "--out", tmp_path, "--seed", "7")
        cert = read_certificate(tmp_path / "certificate.txt")
        assert cert["meta"]["seed"] == "7"


class TestSolve:
    def test_shipped_cell_three_solutions(self, tmp_path, capsys):
        code = run_cli("solve", "--config", SHIPPED, "--out", tmp_path)
        assert code == 0
        assert "3 distinct solution(s)" in capsys.readouterr().out
        report = (tmp_path / "solve_report.txt").read_text()
        assert "status = ok" in report
        assert "count = 3" in report
        assert "count_nontrivial = 2" in report
        files = sorted(tmp_path.glob("solution_*.csv"))
        assert len(files) == 3
        coords, vals = read_solution_csv(files[0])
        assert coords.shape[1] == 1
        assert coords.shape[0] == vals.size
        assert vals[0] == 0.0 and vals[-1] == 0.0
        assert_matches_golden(tmp_path, "solve")

    def test_solve_builds_no_certificate(self, tmp_path, monkeypatch):
        # r needs only the closed-form k_upper, and H3 is checked on its own
        def forbidden(*args, **kwargs):
            raise AssertionError("solve built the certificate")

        monkeypatch.setattr(cli, "build_certificate", forbidden)
        monkeypatch.setattr(space, "estimate_k", forbidden)
        monkeypatch.setattr(certificate, "estimate_k", forbidden)
        assert run_cli("solve", "--config", SHIPPED, "--out", tmp_path) == 0
        assert_matches_golden(tmp_path, "solve")

    def test_box2d_lift_matches_golden(self, tmp_path, capsys):
        cfg = variant(tmp_path, "box2d.cfg", *BOX2D)
        assert run_cli("solve", "--config", cfg, "--out", tmp_path / "out") == 0
        assert "at lambda=2000, mu=0" in capsys.readouterr().out
        assert_matches_golden(tmp_path / "out", "solve2d")

    def test_lambda_mu_overrides(self, tmp_path):
        code = run_cli("solve", "--config", SHIPPED, "--out", tmp_path,
                       "--lambda", "0.0", "--mu", "0.0")
        assert code == 0
        report = (tmp_path / "solve_report.txt").read_text()
        assert "lambda = 0.0" in report
        assert "count = 1" in report
        assert "count_nontrivial = 0" in report
        assert sorted(p.name for p in tmp_path.glob("solution_*.csv")) == \
            ["solution_000.csv"]
        _, vals = read_solution_csv(tmp_path / "solution_000.csv")
        assert np.max(np.abs(vals)) == 0.0

    def test_budget_exhaustion_reports_failure(self, tmp_path, capsys):
        cfg = variant(tmp_path, "starved.cfg", base=LINEAR,
                      *[("p = 2.0", "p = 3.0"),
                        ("[run]", "[solver]\nmax_iter = 1\n\n[run]")])
        code = run_cli("solve", "--config", cfg, "--out", tmp_path / "out")
        assert code == 4
        assert "solver failure" in capsys.readouterr().err
        report = (tmp_path / "out" / "solve_report.txt").read_text()
        assert "status = failed" in report
        # the best unconverged multistart iterate is dumped with its residual
        assert "best_iterate = best_iterate.csv\n" in report
        residual = float(re.search(r"^best_residual = (.*)$", report, re.M).group(1))
        assert 0.0 < residual < math.inf
        coords, vals = read_solution_csv(tmp_path / "out" / "best_iterate.csv")
        assert coords.shape == (257, 1) and np.any(vals != 0.0)

    def test_missing_growth_warns_but_solves(self, tmp_path, capsys):
        cfg = variant(tmp_path, "no_growth.cfg", ("growth_h = 1\n", ""))
        code = run_cli("solve", "--config", cfg, "--out", tmp_path / "out")
        assert code == 0
        assert "H3 growth bound not established" in capsys.readouterr().err


class TestScan:
    def test_shipped_grid_counts_and_window(self, tmp_path):
        code = run_cli("scan", "--config", SHIPPED, "--out", tmp_path)
        assert code == 0
        rows = read_scan_summary(tmp_path / "scan_summary.csv")
        assert len(rows) == 10
        counts = {(row["lambda"], row["mu"]): row["count"] for row in rows}
        for mu in (0.0, 0.05):
            for lam in (12.0, 14.0, 16.0):
                assert counts[(lam, mu)] == 1
            for lam in (18.0, 20.0):
                assert counts[(lam, mu)] == 3
        report = (tmp_path / "scan_report.txt").read_text()
        window = next(line for line in report.splitlines()
                      if line.startswith("lambda_window"))
        assert window.count("(") == 4
        assert "(18," in window and "(20," in window
        assert len(list(tmp_path.glob("scan_c*_s*.csv"))) == sum(counts.values())
        assert_matches_golden(tmp_path, "scan")

    def test_deterministic_reruns(self, tmp_path):
        run_cli("scan", "--config", SHIPPED, "--out", tmp_path / "a")
        run_cli("scan", "--config", SHIPPED, "--out", tmp_path / "b")
        for name in ("scan_summary.csv", "scan_report.txt"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_scan_builds_its_certificate_once(self, tmp_path, monkeypatch):
        built = []

        def counted(*args, **kwargs):
            built.append(1)
            return certificate.build_certificate(*args, **kwargs)

        monkeypatch.setattr(cli, "build_certificate", counted)
        cfg = variant(tmp_path, "one_cell.cfg", ("count = 5", "count = 1"),
                      ("values = 0.0, 0.05", "values = 0.0"))
        assert run_cli("scan", "--config", cfg, "--out", tmp_path / "out") == 0
        assert built == [1]
        assert "certificate_overall = pass" in (tmp_path / "out" / "scan_report.txt").read_text()

    def test_tables_keep_csv_writer_format(self, tmp_path):
        # CRLF line ends, nothing quoted, and every value field is repr of the
        # number its reader returns (an int for the counts)
        assert run_cli("check", "--config", SHIPPED, "--out", tmp_path) == 0
        assert run_cli("scan", "--config", SHIPPED, "--out", tmp_path) == 0
        tables = {"constants.csv": [[name, val] for name, val in
                                    read_constants_csv(tmp_path / "constants.csv").items()],
                  "scan_summary.csv": [list(row.values()) for row in
                                       read_scan_summary(tmp_path / "scan_summary.csv")]}
        for name, rows in tables.items():
            raw = (tmp_path / name).read_bytes()
            assert raw.endswith(b"\r\n") and raw.count(b"\n") == raw.count(b"\r\n"), name
            assert b'"' not in raw and b"'" not in raw, name
            lines = raw.decode().split("\r\n")[1:-1]
            assert [line.split(",") for line in lines] == \
                [[cell if isinstance(cell, str) else repr(cell) for cell in row]
                 for row in rows], name
        counts = [row[2:4] for row in tables["scan_summary.csv"]]
        assert all(type(n) is int for pair in counts for n in pair)

    def test_missing_grid_is_config_error(self, tmp_path, capsys):
        code = run_cli("scan", "--config", LINEAR, "--out", tmp_path)
        assert code == 64
        assert "non-empty [lambda_grid]" in capsys.readouterr().err


class TestOracle:
    def _fast_cfg(self, tmp_path):
        return variant(tmp_path, "fast_oracle.cfg", FAST_ORACLE)

    def test_shipped_roots(self, tmp_path, capsys):
        cfg = self._fast_cfg(tmp_path)
        code = run_cli("oracle", "--config", cfg, "--out", tmp_path / "out")
        assert code == 0
        assert "3 root(s)" in capsys.readouterr().out
        sigma, terminal, diverged = read_oracle_profile(
            tmp_path / "out" / "oracle_profile.csv")
        assert sigma.size == terminal.size == diverged.size == 401
        assert not diverged.all()
        report = (tmp_path / "out" / "oracle_report.txt").read_text()
        assert "roots = 3" in report
        assert "degenerate_flat = False\nunconverged_brackets = 0\n" in report
        assert len(list((tmp_path / "out").glob("oracle_root_*.csv"))) == 3
        assert_matches_golden(tmp_path / "out", "oracle")

    def test_planar_domain_unsupported(self, tmp_path, capsys):
        cfg = variant(tmp_path, "planar.cfg", base=LINEAR,
                      *[("kind = interval", "kind = box"),
                        ("bounds = 0.0 1.0", "bounds = 0.0 1.0 0.0 1.0")])
        code = run_cli("oracle", "--config", cfg, "--out", tmp_path / "out")
        assert code == 65
        assert "unsupported:" in capsys.readouterr().err


class TestConfigDiagnostics:
    def test_missing_required_key_names_location(self, tmp_path, capsys):
        cfg = variant(tmp_path, "no_p.cfg", ("p = 2.0\n", ""))
        code = run_cli("check", "--config", cfg, "--out", tmp_path / "out")
        assert code == 64
        err = capsys.readouterr().err
        assert "missing required key 'p'" in err
        assert "(line " in err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = variant(tmp_path, "bogus.cfg", ("[run]", "[bogus]\nz = 1\n\n[run]"))
        line = cfg.read_text().splitlines().index("[bogus]") + 1
        code = run_cli("check", "--config", cfg, "--out", tmp_path / "out")
        assert code == 64
        assert capsys.readouterr().err == \
            f"config error: {cfg} [bogus]: unknown section (line {line}, column 1)\n"

    # 2^t has no t-derivative in the expression language, and the Newton
    # tangent needs one
    POW_F = (("expr = min(max(t - 0.25, 0), 1)", "expr = 0.1*2^t"),
             ("primitive = 0.5*min(max(t - 0.25, 0), 1)^2 + max(t - 1.25, 0)\n", ""))

    # every config error names the file, then the section and the line where
    # there is one; (command, replacements, start of the line at fault or None)
    ERROR_PATHS = {
        "bad typed value": ("check", [("[run]", "[solver]\nresidual_tol = abc\n\n[run]")],
                            "residual_tol"),
        "unknown section": ("check", [("[run]", "[bogus]\nz = 1\n\n[run]")], "[bogus]"),
        "unknown key": ("check", [("[run]", "[solver]\nstring_images = 33\n\n[run]")],
                        "string_images"),
        "missing section": ("check", [("[domain]\nkind = interval\nbounds = 0.0 1.0\n", "")],
                            None),
        "missing key": ("check", [("p = 2.0\n", "")], "[space]"),
        "unreadable file": ("check", None, None),
        "file not UTF-8": ("check", b"[domain]\nkind = \xff\n", None),
        "INI syntax error": ("check", [("[run]", "not a key line\n\n[run]")], "not a key"),
        "bad value": ("solve", [("h = 0.00390625", "h = -1.0")], "h ="),
        "spec outside the regime": ("check", [("s = 2.0", "s = 0.5")], "s = 0.5"),
        "check without [ball]": ("check", [("[ball]\nx0 = 0.5\nr1 = 0.1\nr2 = 0.2\n", "")],
                                 None),
        "scan without a grid": ("scan", [("[lambda_grid]\nmin = 12.0\nmax = 20.0\n"
                                          "count = 5\n", "")], None),
        "f without a t-derivative": ("solve", list(POW_F), "expr = 0.1*2^t"),
        "unavailable variable": ("oracle", [("expr = min(max(t - 0.25, 0), 1)",
                                             "expr = x2*t")], "expr = x2*t"),
        "mesh too coarse for the ball": ("check", [("h = 0.00390625", "h = 0.1")], "h ="),
        "expression nested too deeply": ("check", [("growth_h = 1",
                                                    "growth_h = " + "-" * 2000 + "1")],
                                         "growth_h"),
        # without a supplied primitive, f and g are integrated at load time
        "f too deep to integrate": ("check", [
            ("expr = min(max(t - 0.25, 0), 1)", "expr = t" + " + 0*t" * 600),
            ("primitive = 0.5*min(max(t - 0.25, 0), 1)^2 + max(t - 1.25, 0)\n", "")],
            "expr = t + 0*t"),
        "g too deep to integrate": ("check", [("expr = sin(t)", "expr = sin(t)" + " + 0*t" * 600)],
                                    "expr = sin(t) + 0*t"),
    }

    @pytest.mark.parametrize("name", list(ERROR_PATHS))
    def test_every_config_error_has_one_format(self, tmp_path, capsys, name):
        command, replacements, start = self.ERROR_PATHS[name]
        if replacements is None:
            cfg = tmp_path / "absent.cfg"
        elif isinstance(replacements, bytes):
            cfg = tmp_path / "binary.cfg"
            cfg.write_bytes(replacements)
        else:
            cfg = variant(tmp_path, "error.cfg", *replacements)
        code = run_cli(command, "--config", cfg, "--out", tmp_path / "out")
        assert code == 64
        err = capsys.readouterr().err
        m = re.fullmatch(rf"config error: {re.escape(str(cfg))}( \[\w+\])?: .+?"
                         r"( \(line \d+, column \d+\))?\n", err)
        assert m is not None, err
        if start is None:
            assert m.group(2) is None, err
        else:
            lines = cfg.read_text().splitlines()
            line = next(i for i, text in enumerate(lines, start=1) if text.startswith(start))
            assert m.group(2) == f" (line {line}, column 1)", err
            # a key or a header at fault names its section; an INI syntax error has none
            assert (m.group(1) is None) == (name == "INI syntax error"), err

    def test_long_flat_expression_still_checks(self, tmp_path):
        # 600 terms nest 600 levels deep: every tree walk check makes stays
        # inside Python's recursion limit, so the text is accepted
        cfg = variant(tmp_path, "flat.cfg", ("expr = min(max(t - 0.25, 0), 1)",
                                             "expr = min(max(t - 0.25, 0), 1)" + " + 0*t" * 600))
        assert run_cli("check", "--config", cfg, "--out", tmp_path / "out") == 0

    @pytest.mark.parametrize("depth", [*range(983, 990), 2000])
    def test_expression_near_the_recursion_limit_checks_or_is_rejected(self, tmp_path,
                                                                       depth):
        # growth_h = -...-1 with depth minuses: a tree at about Python's
        # recursion limit either loads and checks, or is a config error;
        # a fresh interpreter, so the call depth is the command line's
        cfg = variant(tmp_path, "deep.cfg", ("growth_h = 1", "growth_h = " + "-" * depth + "1"))
        run = subprocess.run([sys.executable, "-m", "wplap.cli", "check", "--config", str(cfg),
                              "--out", str(tmp_path / "out")], capture_output=True, text=True,
                             timeout=120, env={**os.environ, "PYTHONPATH": str(REPO / "src")})
        assert run.returncode in (0, 2, 64), run.stderr
        assert "Traceback" not in run.stderr

    @pytest.mark.parametrize("command", ["solve", "scan"])
    def test_f_without_t_derivative_is_config_error(self, tmp_path, capsys, command):
        # rejected before the H3 check, whose panel doubling of F would warn
        # (F overflows at |t| = 1e4), and before scan's certificate
        cfg = variant(tmp_path, "pow_f.cfg", *self.POW_F)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(command, "--config", cfg, "--out", tmp_path / "out")
        assert code == 64
        err = capsys.readouterr().err
        assert ("config error: " + str(cfg) + " [nonlinearity_f]: t-dependent exponents"
                " are not differentiable here (line 34, column 1)") in err
        assert not (tmp_path / "out" / "certificate.txt").exists()

    def test_g_without_t_derivative_is_config_error_where_mu_is_nonzero(self, tmp_path,
                                                                        capsys):
        # the shipped [run] has mu = 0, so solve needs no g_t; scan's mu
        # values include 0.05
        cfg = variant(tmp_path, "pow_g.cfg", ("expr = sin(t)", "expr = 0.1*2^t"))
        assert run_cli("scan", "--config", cfg, "--out", tmp_path / "scan") == 64
        assert " [nonlinearity_g]: t-dependent exponents" in capsys.readouterr().err
        assert run_cli("solve", "--config", cfg, "--out", tmp_path / "solve") == 0

    @pytest.mark.parametrize("command", ["check", "oracle"])
    def test_f_without_t_derivative_runs_where_no_tangent_is_built(self, tmp_path, capsys,
                                                                    command):
        cfg = variant(tmp_path, "pow_f.cfg", *self.POW_F, FAST_ORACLE)
        with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.filterwarnings("ignore", "^primitive_F: ", RuntimeWarning)
            code = run_cli(command, "--config", cfg, "--out", tmp_path / "out")
        assert code != 64
        assert "config error" not in capsys.readouterr().err

    def test_ball_domain_rejected(self, tmp_path, capsys):
        cfg = variant(tmp_path, "ball.cfg", ("kind = interval\nbounds = 0.0 1.0",
                                             "kind = ball\nbounds = 0.5 0.5"))
        code = run_cli("check", "--config", cfg, "--out", tmp_path / "out")
        assert code == 64
        assert "unknown domain kind 'ball'" in capsys.readouterr().err

    def test_wrong_bounds_count_rejected(self, tmp_path, capsys):
        cfg = variant(tmp_path, "bounds.cfg", ("bounds = 0.0 1.0", "bounds = 0.0 1.0 2.0"))
        code = run_cli("check", "--config", cfg, "--out", tmp_path / "out")
        assert code == 64
        assert "[domain]: bad interval bounds (0.0, 1.0, 2.0)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "solve"])
    @pytest.mark.parametrize("old, new, message", [
        ("p = 2.0", "p = 1.0", "need p > N"),
        ("s = 2.0", "s = 0.5", "need s > N/(p-N)"),
        ("c = 0.2", "c = -0.2", "c, d, gamma must be positive"),
    ])
    def test_spec_outside_regime_is_config_error(self, tmp_path, capsys, command,
                                                 old, new, message):
        cfg = variant(tmp_path, "regime.cfg", (old, new))
        code = run_cli(command, "--config", cfg, "--out", tmp_path / "out")
        assert code == 64
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert message in err

    @pytest.mark.parametrize("replacements, section, start, message", [
        ([*BOX2D, ("p = 3.0", "p = 1.5")], "space", "p = 1.5", "need p > N, got p=1.5, N=2"),
        ([("s = 2.0", "s = 0.5")], "space", "s = 0.5", "need s > N/(p-N) = 1, got s=0.5"),
        ([("c = 0.2", "c = -0.2")], "constants", "c = -0.2", "c, d, gamma must be positive"),
        ([("\nd = 1.0\n", "\nd = 0.0\n")], "constants", "d = 0.0",
         "c, d, gamma must be positive"),
        ([("gamma = 1.0", "gamma = -1.0")], "constants", "gamma = -1.0",
         "c, d, gamma must be positive"),
    ], ids=["p", "s", "c", "d", "gamma"])
    def test_regime_error_names_its_key(self, tmp_path, capsys, replacements, section,
                                        start, message):
        cfg = variant(tmp_path, "regime.cfg", *replacements)
        assert run_cli("check", "--config", cfg, "--out", tmp_path / "out") == 64
        line = cfg.read_text().splitlines().index(start) + 1
        assert capsys.readouterr().err == \
            f"config error: {cfg} [{section}]: {message} (line {line}, column 1)\n"

    def test_removed_solver_key_names_its_line(self, tmp_path, capsys):
        cfg = variant(tmp_path, "old_key.cfg",
                      ("[run]", "[solver]\nstring_images = 33\n\n[run]"))
        line = cfg.read_text().splitlines().index("string_images = 33") + 1
        code = run_cli("solve", "--config", cfg, "--out", tmp_path / "out")
        assert code == 64
        err = capsys.readouterr().err
        assert err == (f"config error: {cfg} [solver]: unknown key 'string_images'"
                       f" (line {line}, column 1)\n")

    @pytest.mark.parametrize("command, old, new, message, key", [
        ("oracle", "[run]", "[oracle]\nn_scan = 1\n\n[run]", "need n_scan >= 2", "n_scan"),
        ("oracle", "[run]", "[oracle]\nsigma_min = 50.0\nsigma_max = -50.0\n\n[run]",
         "need sigma_min < sigma_max", "[oracle]"),
        ("oracle", "[run]", "[oracle]\nsteps_per_unit = 0\n\n[run]",
         "need steps_per_unit >= 1", "steps_per_unit"),
        ("scan", "values = 0.0, 0.05", "values =", "values must not be empty", "values"),
        ("oracle", "p = 2.0", "p = 1.0", "need p > N, got p=1.0, N=1", "p ="),
        ("solve", "[run]", "[solver]\nmax_iter = 0\n\n[run]", "need max_iter >= 1", "max_iter"),
        ("check", "h = 0.00390625\n", "h = 0.00390625\ngrading_depth = -1\n",
         "need grading_depth >= 0", "grading_depth"),
        ("scan", "max = 20.0", "max = 10.0", "empty or inverted grid", "[lambda_grid]"),
        ("scan", "count = 5", "count = 0", "empty or inverted grid", "[lambda_grid]"),
    ])
    def test_malformed_oracle_and_mu_values_rejected(self, tmp_path, capsys, command,
                                                     old, new, message, key):
        """A bad value exits 64 with the line of the key at fault (also for
        [space] p, [solver] max_iter and [mesh] grading_depth)."""
        cfg = variant(tmp_path, "malformed.cfg", (old, new))
        lines = cfg.read_text().splitlines()
        line = next(i for i, text in enumerate(lines, start=1) if text.startswith(key))
        code = run_cli(command, "--config", cfg, "--out", tmp_path / "out")
        assert code == 64
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert message in err and f"(line {line}, column 1)" in err

    def test_primitive_checked_over_the_configured_domain(self, tmp_path, capsys):
        # 0.5 t^2 min(x1, 1) is a primitive of x1 t on the unit square only
        cfg = variant(tmp_path, "primitive.cfg", ("bounds = 0.0 1.0", "bounds = 0.0 10.0"),
                      ("expr = min(max(t - 0.25, 0), 1)", "expr = x1*t"),
                      ("primitive = 0.5*min(max(t - 0.25, 0), 1)^2 + max(t - 1.25, 0)",
                       "primitive = 0.5*t^2*min(x1, 1)"))
        line = cfg.read_text().splitlines().index("primitive = 0.5*t^2*min(x1, 1)") + 1
        code = run_cli("solve", "--config", cfg, "--out", tmp_path / "out")
        assert code == 64
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "primitive does not differentiate to f" in err
        assert "on the configured domain" in err and f"(line {line}, column 1)" in err

    def test_bad_typed_value_names_key_and_line(self, tmp_path):
        cfg = variant(tmp_path, "typed.cfg", ("[run]", "[solver]\nresidual_tol = abc\n\n[run]"))
        line = cfg.read_text().splitlines().index("residual_tol = abc") + 1
        with pytest.raises(config.ConfigError) as exc:
            load_config(str(cfg))
        assert str(exc.value) == (f"{cfg} [solver]: residual_tol: could not convert string"
                                  f" to float: 'abc' (line {line}, column 1)")

    def test_valid_config_looks_up_no_line(self, monkeypatch):
        # a location is built only for a value that fails, so a valid file is read once
        calls = []
        line_of = config._line_of
        monkeypatch.setattr(config, "_line_of", lambda *a: calls.append(a) or line_of(*a))
        load_config(str(SHIPPED))
        assert calls == []

    def test_every_solver_and_oracle_key_reaches_run_config(self, tmp_path):
        solver = {"residual_tol": "1e-9", "max_iter": "77", "eps_reg": "1e-6",
                  "delta_dist": "0.002"}
        oracle = {"sigma_min": "-3.0", "sigma_max": "4.0", "n_scan": "11",
                  "steps_per_unit": "64"}
        assert set(solver) == set(_SCHEMA["solver"])
        assert set(oracle) == set(_SCHEMA["oracle"])
        # every SolverConfig field is settable: the [solver] keys plus [run] seed
        assert {f.name for f in fields(SolverConfig)} == set(solver) | {"seed"}
        sections = ""
        for name, keys in (("solver", solver), ("oracle", oracle)):
            sections += f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
        cfg = variant(tmp_path, "all_keys.cfg", ("[run]", sections + "[run]"),
                      ("seed = 42", "seed = 9"))
        run = load_config(str(cfg))
        want = SolverConfig(residual_tol=1e-9, max_iter=77, eps_reg=1e-6,
                            delta_dist=0.002, seed=9)
        assert run.solver == want
        default = SolverConfig()
        assert all(getattr(want, f.name) != getattr(default, f.name)
                   for f in fields(SolverConfig))
        assert (run.sigma_range, run.n_scan, run.steps_per_unit) == ((-3.0, 4.0), 11, 64)

    def test_unset_solver_and_oracle_keys_take_the_library_defaults(self, tmp_path):
        # the shipped config has no [solver] or [oracle]; drop its seed too
        run = load_config(str(variant(tmp_path, "no_seed.cfg", ("seed = 42\n", ""))))
        assert run.solver == SolverConfig()
        defaults = inspect.signature(enumerate_solutions).parameters
        assert (run.sigma_range, run.n_scan, run.steps_per_unit) == tuple(
            defaults[key].default for key in ("sigma_range", "n_scan", "steps_per_unit"))

    def test_reader_header_validation(self, tmp_path):
        junk = tmp_path / "junk.csv"
        junk.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_solution_csv(junk)
        with pytest.raises(ValueError):
            read_scan_summary(junk)
        with pytest.raises(ValueError):
            read_constants_csv(junk)
        with pytest.raises(ValueError):
            read_oracle_profile(junk)

