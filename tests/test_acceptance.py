"""Acceptance gate: nine end-to-end checks with pinned tolerances and runtime
budgets.  Each test is one criterion; the conftest hook prints a one-line
verdict per criterion after the run."""
import math
import time
from pathlib import Path

import numpy as np
import pytest

from wplap.certificate import (annulus_weight_mass, build_ustar, compute_eta,
                               compute_xi, ustar_norm_p)
from wplap.cli import (main, read_certificate, read_constants_csv,
                       read_scan_summary, read_solution_csv)
from wplap.energy import EnergyAssembler, gradient_check, make_nonlinearity
from wplap.geometry import BallSpec, Domain, build_mesh, unit_ball_volume
from wplap.oracle1d import shoot
from wplap.solver import SolverConfig, invert_phi_prime, minimize_energy
from wplap.space import DiscreteFunction, estimate_k
from wplap.weight import WeightSpec

REPO = Path(__file__).resolve().parents[1]
SHIPPED = REPO / "configs" / "three_solutions_1d.cfg"
UNIT = Domain.interval(0.0, 1.0)
ONE = WeightSpec.constant(1.0)
PI = math.pi


def test_criterion_1_vector_monotonicity():
    budget, t0 = 1.0, time.perf_counter()
    rng = np.random.default_rng(101)
    for N in (1, 2, 3):
        for p in (2.0, 2.5, 3.0, 4.0):
            x = rng.standard_normal((10_000, N)) * 3.0
            y = rng.standard_normal((10_000, N)) * 3.0
            fx = np.linalg.norm(x, axis=1) ** (p - 2.0)
            fy = np.linalg.norm(y, axis=1) ** (p - 2.0)
            lhs = np.einsum("ij,ij->i", fx[:, None] * x - fy[:, None] * y, x - y)
            rhs = 2.0 ** -p * np.linalg.norm(x - y, axis=1) ** p
            assert np.min(lhs - rhs) >= -1e-14, (N, p)
    assert time.perf_counter() - t0 < budget


def test_criterion_2_gradient_consistency():
    budget, t0 = 30.0, time.perf_counter()
    mesh = build_mesh(UNIT, 1 / 128)
    rng = np.random.default_rng(202)
    f = make_nonlinearity("sin(t) + 0.5*x1*t")
    g = make_nonlinearity("cos(t)*t")
    weights = (ONE, WeightSpec.constant(4.0), WeightSpec.distance_power(0.5))
    for i in range(20):
        p = float(rng.uniform(2.0, 4.0))
        w = weights[i % len(weights)]
        vals = rng.uniform(-1.0, 1.0, mesh.num_vertices)
        vals[mesh.boundary_vertices] = 0.0
        u = DiscreteFunction(mesh, vals)
        asm = EnergyAssembler(mesh, w, p, 0.7, 0.3, f, g, zero_order=bool(i % 2))
        err = gradient_check(asm, u)
        assert err <= 1e-4, (i, p, w.form, err)
    assert time.perf_counter() - t0 < budget


def test_criterion_3_linear_benchmark():
    budget, t0 = 5.0, time.perf_counter()
    mesh = build_mesh(UNIT, 1 / 256)
    f = make_nonlinearity(f"{1 + PI ** 2}*sin({PI}*x1)")
    exact = np.sin(PI * mesh.vertices[:, 0])

    asm = EnergyAssembler(mesh, ONE, 2.0, lam=1.0, f=f)
    rec = minimize_energy(asm)
    assert np.max(np.abs(rec.u.values - exact)) <= 1e-3

    rhs = -asm.residual(np.zeros(mesh.num_vertices))
    inv = invert_phi_prime(rhs, ONE, 2.0, mesh)
    assert np.max(np.abs(inv.values - exact)) <= 1e-4
    assert time.perf_counter() - t0 < budget


def test_criterion_4_norm_sandwich():
    budget, t0 = 10.0, time.perf_counter()
    rng = np.random.default_rng(404)
    w_N = unit_ball_volume(1)
    weights = (ONE, WeightSpec.distance_power(0.5))
    for i in range(100):
        x0 = rng.uniform(0.3, 0.7)
        r1 = rng.uniform(0.05, 0.1)
        r2 = r1 + rng.uniform(0.05, 0.1)
        d = rng.uniform(0.5, 2.0)
        p = (2.0, 3.0)[i % 2]
        w = weights[i % 2]
        ball = BallSpec(x0=(x0,), r1=r1, r2=r2)
        mesh = build_mesh(UNIT, 1 / 256,
                          breakpoints=(x0 - r2, x0 - r1, x0 + r1, x0 + r2))
        a_mass = annulus_weight_mass(w, ball, UNIT)[0]
        # evaluating at k = 1 cancels k out of xi^p d^p / k^p
        lower = compute_xi(p, r1, r2, 1.0, a_mass) ** p * d ** p
        upper = compute_eta(p, 1, r1, r2, 1.0, d, a_mass, w_N) ** p * d ** p
        direct = ustar_norm_p(d, ball, w, p, mesh).direct
        assert lower < direct < upper, (i, lower, direct, upper)

    ball = BallSpec(x0=(0.5,), r1=0.1, r2=0.2)
    mesh = build_mesh(UNIT, 1 / 256, breakpoints=(0.3, 0.4, 0.6, 0.7))
    a_mass = annulus_weight_mass(ONE, ball, UNIT)[0]
    lower = compute_xi(2.0, 0.1, 0.2, 1.0, a_mass) ** 2
    upper = compute_eta(2.0, 1, 0.1, 0.2, 1.0, 1.0, a_mass, w_N) ** 2
    direct = ustar_norm_p(1.0, ball, ONE, 2.0, mesh).direct
    assert lower == pytest.approx(8.889, rel=1e-3)
    assert direct == pytest.approx(21.019, rel=1e-3)
    assert upper == pytest.approx(36.156, rel=1e-3)
    assert lower < direct < upper
    assert time.perf_counter() - t0 < budget


def test_criterion_5_embedding_constant():
    budget, t0 = 2.0, time.perf_counter()
    mesh = build_mesh(UNIT, 1 / 64)
    est = estimate_k(UNIT, ONE, 2.0, 2.0, mesh)
    assert est.k_lower >= 0.4803
    assert est.k_upper == pytest.approx(0.5, abs=1e-12)
    assert est.k_lower <= est.k_upper
    assert time.perf_counter() - t0 < budget


def test_criterion_6_certificate_logic(tmp_path):
    budget, t0 = 5.0, time.perf_counter()
    assert main(["check", "--config", str(SHIPPED), "--out", str(tmp_path)]) == 0
    cert = read_certificate(tmp_path / "certificate.txt")
    verdicts = {name: e["verdict"] for name, e in cert["checks"].items()}
    assert verdicts["H1"] == "pass"
    assert verdicts["H2"] == "pass"
    assert verdicts["H3"] == "heuristic-pass"
    assert verdicts["H4"] == "pass"
    assert verdicts["H5"] == "pass"
    assert verdicts["dxi_gt_c"] == "pass"
    assert verdicts["level_separation"] == "pass"
    assert verdicts["bona1"] == "pass"

    # push c just past d*xi, where d^p xi^p <= c^p must flip the verdict
    xi = read_constants_csv(tmp_path / "constants.csv")["xi"]
    text = SHIPPED.read_text().replace("c = 0.2", f"c = {1.01 * xi}")
    bad_cfg = tmp_path / "flipped.cfg"
    bad_cfg.write_text(text)
    out2 = tmp_path / "flipped"
    assert main(["check", "--config", str(bad_cfg), "--out", str(out2)]) == 2
    cert2 = read_certificate(out2 / "certificate.txt")
    assert cert2["checks"]["dxi_gt_c"]["verdict"] == "fail"
    assert time.perf_counter() - t0 < budget


def test_criterion_7_three_solution_window(tmp_path):
    budget, t0 = 120.0, time.perf_counter()
    scan_dir, oracle_dir = tmp_path / "scan", tmp_path / "oracle"
    assert main(["scan", "--config", str(SHIPPED), "--out", str(scan_dir)]) == 0
    rows = read_scan_summary(scan_dir / "scan_summary.csv")
    rich = [(i, row) for i, row in enumerate(rows) if row["count"] >= 3]
    assert rich
    for _, row in rich:
        assert row["max_residual"] <= 1e-6
        assert row["min_pairwise_distance"] > 1e-3

    assert main(["oracle", "--config", str(SHIPPED), "--out", str(oracle_dir)]) == 0
    roots = sorted(oracle_dir.glob("oracle_root_*.csv"))
    assert len(roots) >= 3
    root_profiles = [read_solution_csv(path) for path in roots]

    # solver solutions at the run cell (lambda=18, mu=0) against the oracle
    ci = next(i for i, row in enumerate(rows)
              if row["lambda"] == 18.0 and row["mu"] == 0.0)
    sol_files = sorted(scan_dir.glob(f"scan_c{ci:03d}_s*.csv"))
    assert len(sol_files) >= 3
    for path in sol_files:
        coords, vals = read_solution_csv(path)
        best = min(
            np.max(np.abs(vals - np.interp(coords[:, 0], rx[:, 0], ru)))
            for rx, ru in root_profiles)
        assert best <= 5e-3, (path.name, best)
    assert time.perf_counter() - t0 < budget


def test_criterion_8_monotone_inversion_uniqueness():
    budget, t0 = 20.0, time.perf_counter()
    mesh = build_mesh(UNIT, 1 / 64)
    rng = np.random.default_rng(808)
    tol = 10 * SolverConfig().residual_tol
    for p in (2.0, 3.0):
        for _ in range(5):
            rhs = rng.standard_normal(mesh.num_vertices)
            rhs[mesh.boundary_vertices] = 0.0
            outs = []
            for _ in range(2):
                start = DiscreteFunction(
                    mesh, rng.uniform(-1.0, 1.0, mesh.num_vertices))
                outs.append(invert_phi_prime(rhs, ONE, p, mesh, u_init=start))
            diff = np.max(np.abs(outs[0].values - outs[1].values))
            assert diff <= tol, (p, diff)
    assert time.perf_counter() - t0 < budget


def test_criterion_9_oracle_order():
    budget, t0 = 2.0, time.perf_counter()
    exact = math.sinh(1.0)
    errs = []
    for n in (128, 256, 512):
        term, diverged = shoot(np.array([1.0]), UNIT, ONE, 2.0, 0.0, 0.0,
                               steps_per_unit=n)
        assert not diverged[0]
        errs.append(abs(term[0] - exact))
    for coarse, fine in zip(errs, errs[1:]):
        assert 12.0 <= coarse / fine <= 20.0
    assert time.perf_counter() - t0 < budget
