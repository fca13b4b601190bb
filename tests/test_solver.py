"""Critical-point search: inversion, minimization, mountain pass, and scan."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wplap import solver
from wplap.certificate import build_ustar, compute_r
from wplap.energy import (_SPIKE_BLOCK, EnergyAssembler, _densify, make_nonlinearity,
                          weak_form_gap)
from wplap.geometry import BallSpec, Domain, build_mesh
from wplap.solver import (
    SolutionRecord,
    SolutionSet,
    SolverConfig,
    SolverFailure,
    invert_phi_prime,
    minimize_energy,
    mountain_pass,
    scan,
    solve_cell,
    sublevel_minimize,
)
from wplap.space import DiscreteFunction, estimate_k, k_upper_bound, sup_norm
from wplap.weight import WeightSpec

UNIT = Domain.interval(0.0, 1.0)
ONE = WeightSpec.constant(1.0)
PI = math.pi
BALL = BallSpec(x0=(0.5,), r1=0.1, r2=0.2)


def shipped_f():
    return make_nonlinearity("min(max(t - 0.25, 0), 1)",
                             primitive="0.5*min(max(t - 0.25, 0), 1)^2 + max(t - 1.25, 0)",
                             growth_h="1")


def shipped_g():
    return make_nonlinearity("sin(t)", caratheodory_w="1")


def linear_f():
    # -u'' + u = (1+pi^2) sin(pi x) has the solution sin(pi x)
    return make_nonlinearity(f"{1 + PI ** 2}*sin({PI}*x1)")


def sin_load(mesh, p=2.0):
    """Assembled weak-form load vector of (1+pi^2) sin(pi x) scaled to rhs."""
    asm = EnergyAssembler(mesh, ONE, p, lam=1.0, f=linear_f())
    return -asm.residual(np.zeros(mesh.num_vertices))


@pytest.fixture(scope="module")
def shipped_cell():
    """Solved lambda=18, mu=0 cell of the shipped instance at h=1/256."""
    mesh = build_mesh(UNIT, 1 / 256, breakpoints=(0.3, 0.4, 0.6, 0.7))
    ustar = build_ustar(1.0, BALL, mesh)
    f, g = shipped_f(), shipped_g()
    asm = EnergyAssembler(mesh, ONE, 2.0, 18.0, 0.0, f, g)
    records, notes = solve_cell(asm, r=0.08, ustar=ustar)
    return asm, ustar, records, notes, f, g


@pytest.fixture(scope="module")
def box2d():
    """The shipped instance lifted to the unit square (p = s = 3, h = 0.1,
    lambda = 2000): (asm, u*, r), r from the closed-form k_upper as in
    `solve`."""
    square = Domain.box(0.0, 1.0, 0.0, 1.0)
    mesh = build_mesh(square, 0.1)
    ustar = build_ustar(1.0, BallSpec(x0=(0.5, 0.5), r1=0.1, r2=0.2), mesh)
    asm = EnergyAssembler(mesh, ONE, 3.0, 2000.0, 0.0, shipped_f(), shipped_g())
    k_upper = k_upper_bound(ONE, 3.0, 3.0, mesh)
    return asm, ustar, compute_r(0.2, k_upper, 3.0)


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name so that every call appends to the returned list."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


class TestSimonInequality:
    def test_random_pairs(self):
        rng = np.random.default_rng(2024)
        for N in (1, 2, 3):
            for p in (2.0, 2.5, 3.0, 4.0):
                x = rng.standard_normal((10_000, N)) * 3.0
                y = rng.standard_normal((10_000, N)) * 3.0
                fx = np.linalg.norm(x, axis=1) ** (p - 2.0)
                fy = np.linalg.norm(y, axis=1) ** (p - 2.0)
                lhs = np.einsum("ij,ij->i", fx[:, None] * x - fy[:, None] * y, x - y)
                rhs = 2.0 ** -p * np.linalg.norm(x - y, axis=1) ** p
                assert np.min(lhs - rhs) >= -1e-14, (N, p)


class TestInvertPhiPrime:
    def test_zero_rhs(self):
        mesh = build_mesh(UNIT, 1 / 16)
        u = invert_phi_prime(np.zeros(mesh.num_vertices), ONE, 2.0, mesh)
        assert sup_norm(u) == 0.0

    def test_linear_benchmark(self):
        # phi'(u) = load of (1+pi^2) sin(pi x) is solved by sin(pi x) itself
        mesh = build_mesh(UNIT, 1 / 256)
        u = invert_phi_prime(sin_load(mesh), ONE, 2.0, mesh)
        exact = np.sin(PI * mesh.vertices[:, 0])
        assert np.max(np.abs(u.values - exact)) < 1e-4

    def test_uniqueness_two_starts(self):
        # uniform monotonicity makes the inverse single-valued
        mesh = build_mesh(UNIT, 1 / 64)
        rhs = sin_load(mesh, p=3.0)
        rng = np.random.default_rng(0)
        outs = []
        for _ in range(2):
            start = DiscreteFunction(mesh, rng.uniform(-1, 1, mesh.num_vertices))
            outs.append(invert_phi_prime(rhs, ONE, 3.0, mesh, u_init=start))
        diff = sup_norm(DiscreteFunction(outs[0].mesh, outs[0].values - outs[1].values))
        assert diff <= 10 * SolverConfig().residual_tol

    def test_failure_carries_best_iterate(self):
        mesh = build_mesh(UNIT, 1 / 64)
        cfg = SolverConfig(max_iter=1)
        with pytest.raises(SolverFailure) as exc:
            invert_phi_prime(10.0 * sin_load(mesh, p=3.0), ONE, 3.0, mesh, config=cfg)
        assert exc.value.best is not None
        assert math.isfinite(exc.value.residual_norm)

    def test_rhs_shape_checked(self):
        mesh = build_mesh(UNIT, 1 / 16)
        with pytest.raises(ValueError):
            invert_phi_prime(np.zeros(3), ONE, 2.0, mesh)

    def test_point_load_converges_past_rounding_floor(self):
        # estimate_k's point-load solve for a = dist(x), p = 3, h = 1/256:
        # the descent reaches scaled residual ~1e-8, where no step changes
        # the energy, and the residual polish finishes it at the same point
        mesh = build_mesh(UNIT, 1 / 256)
        w = WeightSpec.distance_power(1.0)
        load = np.zeros(mesh.num_vertices)
        load[128] = 1.0                    # the node at x = 1/2
        u = invert_phi_prime(load, w, 3.0, mesh)
        asm = EnergyAssembler(mesh, w, 3.0, load=load)
        assert asm.residual_norm(asm.residual(u.values)) <= SolverConfig().residual_tol
        assert asm.energy(u.values) == pytest.approx(-0.11080269056119732, rel=1e-12)
        assert estimate_k(UNIT, w, 3.0, 4.0, mesh).k_lower == \
            pytest.approx(0.302292735210221, rel=1e-12)


class TestSolveTangent:
    """The Newton step solves the tangent's free block on the interior
    vertices and leaves the Dirichlet values fixed."""

    @pytest.mark.parametrize("domain,h", [(UNIT, 1 / 32), (Domain.box(0.0, 1.0, 0.0, 1.0), 0.2)],
                             ids=["1d", "2d"])
    @pytest.mark.parametrize("include_sources", [True, False])
    def test_zero_on_boundary_and_solves(self, domain, h, include_sources):
        mesh = build_mesh(domain, h)
        asm = EnergyAssembler(mesh, ONE, 3.0, 40.0, 0.5, shipped_f(), shipped_g())
        v = np.random.default_rng(4).uniform(-1.5, 1.5, mesh.num_vertices)
        v[mesh.boundary_vertices] = 0.0
        res = asm.residual(v)
        dv = solver._solve_tangent(asm, v, res, include_sources)
        assert np.all(dv[mesh.boundary_vertices] == 0.0)
        lhs = asm.tangent(v, include_sources) @ dv
        np.testing.assert_allclose(lhs, -res, rtol=0, atol=1e-10 * np.max(np.abs(res)))

    def test_mesh_without_interior_vertex(self):
        mesh = build_mesh(UNIT, 1.0)
        assert mesh.num_vertices == 2 and not mesh.interior_vertices.any()
        asm = EnergyAssembler(mesh, ONE, 2.0, lam=1.0, f=shipped_f())
        zero = np.zeros(2)
        assert np.array_equal(solver._solve_tangent(asm, zero, zero), zero)
        v, rn, ok, _ = solver._descend(asm, zero, SolverConfig())
        assert ok and rn == 0.0 and np.array_equal(v, zero)

    def test_singular_or_non_finite_solve_is_none(self, monkeypatch):
        mesh = build_mesh(UNIT, 1 / 8)
        asm = EnergyAssembler(mesh, ONE, 2.0)
        v = np.zeros(mesh.num_vertices)
        res = np.ones(mesh.num_vertices)
        shape = asm.tangent(v, free=True).shape
        for blocks in (np.zeros(shape), np.full(shape, np.nan)):
            monkeypatch.setattr(asm, "tangent", lambda *a, blocks=blocks, **kw: blocks)
            assert solver._solve_tangent(asm, v, res) is None

    def test_1d_step_is_one_lapack_call(self, monkeypatch):
        # the scan1d mesh: ni = 515 in nb = 65 blocks of m = 8, the last
        # padded; the block Thomas sweep made one np.linalg.solve call per block
        mesh = build_mesh(UNIT, 1 / 512, breakpoints=(0.3, 0.4, 0.6, 0.7))
        asm = EnergyAssembler(mesh, ONE, 2.0, 18.0, 0.0, shipped_f(), shipped_g())
        v = 0.75 * np.sin(PI * mesh.vertices[:, 0])
        res = asm.residual(v)
        solves = count_calls(monkeypatch, np.linalg, "solve")
        dv = solver._solve_tangent(asm, v, res)
        assert asm.tangent(v, free=True).shape[1:3] == (65, 8) and len(solves) == 1
        np.testing.assert_allclose(asm.tangent(v) @ dv, -res, rtol=0,
                                   atol=1e-10 * np.max(np.abs(res)))

    def test_zero_interface_pivot_is_none(self, monkeypatch):
        # ni = 16 in nb = 2 blocks of m = _SPIKE_BLOCK = 8, each invertible:
        # D_1 = L L^T for L = I minus the subdiagonal has (D_1^-1)_00 = 8, and
        # D_0, its flip, (D_0^-1)_77 = 8; the interface pivot
        # 1 - a_1 (D_1^-1)_00 c_0 (D_0^-1)_77 = 1 - (1/8) 8 (1/8) 8 is
        # exactly 0, so the whole block is singular
        mesh = build_mesh(UNIT, 1 / 17)
        asm = EnergyAssembler(mesh, ONE, 2.0)
        blocks = np.zeros(asm.tangent(np.zeros(mesh.num_vertices), free=True).shape)
        assert blocks.shape == (3, 2, _SPIKE_BLOCK, _SPIKE_BLOCK) and asm.band == 1
        lower = np.eye(_SPIKE_BLOCK) - np.eye(_SPIKE_BLOCK, k=-1)
        blocks[1, 1] = lower @ lower.T
        blocks[1, 0] = blocks[1, 1, ::-1, ::-1]
        blocks[0, 1, 0, -1] = blocks[2, 0, -1, 0] = 1 / 8
        monkeypatch.setattr(asm, "tangent", lambda *a, **kw: blocks)
        v = np.zeros(mesh.num_vertices)
        assert solver._solve_tangent(asm, v, np.ones(mesh.num_vertices)) is None

    @pytest.mark.parametrize("case", ["1d-indefinite", "1d-one-block", "1d-padded", "2d-p3",
                                      "2d-graded", "2d-long"])
    def test_block_solve_matches_dense_solve(self, case):
        # the graded mesh has ni = 324 and m = 19, so the last block is padded;
        # the long box has band 5 < m = 13, so only part of each block couples;
        # h = 1/3 gives ni = 2 in one block, with no interface to solve, and
        # h = 1/30 gives ni = 29 in 4 blocks of 8, the last padded
        if case.startswith("1d"):
            h = {"1d-indefinite": 1 / 256, "1d-one-block": 1 / 3, "1d-padded": 1 / 30}[case]
            mesh, p, lam = build_mesh(UNIT, h), 2.0, 60.0
            v = 0.75 * np.sin(PI * mesh.vertices[:, 0])
        else:
            box = (0.0, 3.0, 0.0, 0.3) if case == "2d-long" else (0.0, 1.0, 0.0, 1.0)
            mesh = build_mesh(Domain.box(*box), 0.1,
                              grading_depth=2 if case == "2d-graded" else 0)
            p, lam = 3.0, 2000.0
            v = np.random.default_rng(5).uniform(-1.5, 1.5, mesh.num_vertices)
            v[mesh.boundary_vertices] = 0.0
        asm = EnergyAssembler(mesh, ONE, p, lam, 0.5, shipped_f(), shipped_g())
        blocks = asm.tangent(v, free=True)
        ni = asm.interior.size
        dense = _densify(blocks, ni)
        if case == "1d-indefinite":
            assert np.sum(np.linalg.eigvalsh(dense) < 0) >= 1
        if case in ("2d-graded", "1d-padded"):
            assert ni % blocks.shape[2] != 0 and blocks.shape[1] > 2
        if case == "1d-one-block":
            assert blocks.shape[1] == 1 and ni == 2
        if case in ("1d-indefinite", "2d-long"):
            assert asm.band < blocks.shape[2]
        rhs = -asm.residual(v)[asm.interior]
        got = solver._block_solve(blocks, rhs, asm.band)
        want = np.linalg.solve(dense, rhs)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_block_sizes(self):
        # a tridiagonal block keeps m = _SPIKE_BLOCK at every 1D size (the
        # sweep's nv and 4101); a wider band keeps m = max(band, ceil(sqrt(ni))):
        # 15 on box2d, 13 on the long box
        for h, nv in ((1 / 256, 261), (1 / 512, 517), (1 / 1024, 1029), (1 / 4096, 4101)):
            mesh = build_mesh(UNIT, h, breakpoints=(0.3, 0.4, 0.6, 0.7))
            asm = EnergyAssembler(mesh, ONE, 2.0)
            assert mesh.num_vertices == nv and asm.band == 1
            assert asm._block_shape[2:] == (_SPIKE_BLOCK, _SPIKE_BLOCK)
        for box, m in (((0.0, 1.0, 0.0, 1.0), 15), ((0.0, 3.0, 0.0, 0.3), 13)):
            asm = EnergyAssembler(build_mesh(Domain.box(*box), 0.1), ONE, 3.0)
            assert asm._block_shape[2:] == (m, m)


class TestMinimizeEnergy:
    def test_unloaded_problem_returns_zero(self):
        mesh = build_mesh(UNIT, 1 / 32)
        asm = EnergyAssembler(mesh, ONE, 2.0)
        rec = minimize_energy(asm)
        assert sup_norm(rec.u) == 0.0
        assert rec.energy == 0.0
        assert rec.classification == "global-min-candidate"

    def test_linear_benchmark(self):
        mesh = build_mesh(UNIT, 1 / 256)
        asm = EnergyAssembler(mesh, ONE, 2.0, lam=1.0, f=linear_f())
        rec = minimize_energy(asm)
        exact = np.sin(PI * mesh.vertices[:, 0])
        assert rec.residual_norm < 1e-6
        assert np.max(np.abs(rec.u.values - exact)) < 1e-3
        # quadratic energy at the minimum is -(1/2) * load(u) = -(1+pi^2)/4
        assert rec.energy == pytest.approx(-(1 + PI ** 2) / 4.0, rel=1e-3)

    def test_beats_every_seed(self, shipped_cell):
        asm, ustar, records, _, _, _ = shipped_cell
        gmin = records[0]
        for seed in (np.zeros(asm.mesh.num_vertices), ustar.values, -ustar.values):
            assert gmin.energy <= asm.energy(seed) + 1e-12

    def test_starts_share_one_seed_list(self, monkeypatch):
        # u* with d = 2: the random start is the uniform draw scaled by
        # sup|u*| = 2; the sublevel search drops only -u*
        mesh = build_mesh(UNIT, 1 / 64)
        ustar = build_ustar(2.0, BALL, mesh)
        asm = EnergyAssembler(mesh, ONE, 2.0)
        config = SolverConfig(seed=5)
        rnd = 2.0 * numpy_uniform(5, mesh.num_vertices)
        rnd[mesh.boundary_vertices] = 0.0
        starts = []

        def recorded(asm_, v0, config_, level=None):
            starts.append(v0.copy())
            return v0, 0.0, True, 0.0

        monkeypatch.setattr(solver, "_descend", recorded)
        zero = np.zeros(mesh.num_vertices)
        for search, want in ((minimize_energy, [zero, ustar.values, -ustar.values, rnd]),
                             (lambda a, **kw: sublevel_minimize(a, 0.08, **kw),
                              [zero, ustar.values, rnd])):
            starts.clear()
            search(asm, config=config, ustar=ustar)
            assert len(starts) == len(want)
            for got, expected in zip(starts, want):
                assert np.array_equal(got, expected)

    @pytest.mark.parametrize("starts, winner", [
        # (energy, converged) per start: converged first, then lower energy
        ([(-5.0, False), (1.0, True)], 1),
        ([(1.0, True), (-5.0, False)], 0),
        ([(0.5, True), (0.5, True)], 0),      # a tie keeps the first start
        ([(0.5, False), (0.5, False)], 0),
        ([(2.0, True), (0.5, True), (1.0, True)], 1),
    ])
    def test_best_descent_ranks_converged_then_energy(self, monkeypatch, starts, winner):
        # the ranking reads the energy the descent returns, not the assembler
        monkeypatch.setattr(solver, "_descend",
                            lambda asm_, v0, config_, level=None:
                            (v0, 0.0, starts[int(v0[1])][1], v0[0]))
        seeds = [np.array([E, i]) for i, (E, _) in enumerate(starts)]
        v, _, ok, _ = solver._best_descent(None, seeds, SolverConfig())
        assert v[1] == winner and ok == starts[winner][1]

    def test_no_converged_start_raises(self, monkeypatch):
        monkeypatch.setattr(solver, "_descend",
                            lambda asm_, v0, config_, level=None: (v0, 1.0, False, 0.0))
        asm = EnergyAssembler(build_mesh(UNIT, 1 / 16), ONE, 2.0)
        with pytest.raises(SolverFailure, match="no multistart run converged"):
            minimize_energy(asm)

    def test_stall_at_energy_rounding_floor_ends_descent(self, monkeypatch, box2d):
        # on box2d, multistart seed 4's random start reaches
        # E = -3116.6000541843937 with scaled residual 1.34e-7 and then finds
        # only steps that leave E bitwise unchanged; taking them runs to
        # max_iter (5000) without converging, while the residual polish from
        # the stalled point converges at the same solution
        asm, ustar, _ = box2d
        config = SolverConfig(seed=4)
        start = solver._multistart_seeds(asm.mesh, ustar, config)[-1]
        iterations = 0
        tangent = asm.tangent

        def counted(v, include_sources=True, **kw):
            nonlocal iterations
            if include_sources:     # once per iteration
                iterations += 1
            assert iterations <= 100, "descent did not stop at the stall"
            return tangent(v, include_sources=include_sources, **kw)

        monkeypatch.setattr(asm, "tangent", counted)
        v, rn, ok, _ = solver._descend(asm, start, config)
        assert ok and rn <= config.residual_tol
        assert asm.energy(v) == pytest.approx(-3116.6000541843937, rel=1e-12)


class TestEulerStep:
    """At p > 2 a full Newton step is followed by the trial v + (p-1) dv.
    phi is p-homogeneous, so Euler's identity phi''(v) v = (p-1) phi'(v)
    makes the Newton step of phi alone dv = -v/(p-1): the full step only
    contracts v by (p-2)/(p-1), while the trial lands on u = 0."""

    def test_pure_phi_reaches_zero_in_one_step(self, monkeypatch):
        mesh = build_mesh(Domain.box(0.0, 1.0, 0.0, 1.0), 0.1)
        asm = EnergyAssembler(mesh, ONE, 3.0)
        solves = count_calls(monkeypatch, solver, "_solve_tangent")
        start = np.sin(PI * mesh.vertices).prod(axis=1)
        v, rn, ok, _ = solver._descend(asm, start, SolverConfig())
        assert ok and sup_norm(DiscreteFunction(mesh, v)) < 1e-12
        assert len(solves) <= 2      # 12 with the full step alone

    def test_box2d_descents_take_few_solves(self, monkeypatch, box2d):
        # minimize_energy starts from 0, u*, -u*, random; sublevel_minimize
        # from 0, u*, random.  The full step alone takes 15 solves from -u*,
        # and 10 from u* and from the random start under the level.
        asm, ustar, r = box2d
        solves = count_calls(monkeypatch, solver, "_solve_tangent")
        per_descent = []
        descend = solver._descend

        def counted(asm_, v0, config, level=None):
            before = len(solves)
            out = descend(asm_, v0, config, level)
            per_descent.append((level, len(solves) - before))
            return out

        monkeypatch.setattr(solver, "_descend", counted)
        solve_cell(asm, r, ustar=ustar)
        assert len(per_descent) == 7
        assert per_descent[2][1] <= 3
        assert all(level == r and n <= 2 for level, n in per_descent[4:])

    @pytest.mark.parametrize("seed", [200, 203, 206, 211, 217])
    def test_box2d_cell_keeps_three_solutions(self, box2d, seed):
        asm, ustar, r = box2d
        records, notes = solve_cell(asm, r, config=SolverConfig(seed=seed), ustar=ustar)
        found = SolutionSet(records, SolverConfig().delta_dist)
        assert (found.count, found.count_nontrivial) == (3, 2)
        assert notes == []

    @pytest.mark.parametrize("level, energies", [(None, 4), (0.08, 2)])
    def test_no_extra_energy_at_p2(self, monkeypatch, shipped_cell, level, energies):
        # the counts of the descent without the trial, which p = 2 never runs
        asm, ustar, *_ = shipped_cell
        calls = count_calls(monkeypatch, asm, "energy")
        v, rn, ok, _ = solver._descend(asm, ustar.values, SolverConfig(), level)
        assert ok and len(calls) == energies


class TestSublevelMinimize:
    def test_unloaded_interior_zero(self):
        mesh = build_mesh(UNIT, 1 / 32)
        asm = EnergyAssembler(mesh, ONE, 2.0)
        rec = sublevel_minimize(asm, r=0.08)
        assert sup_norm(rec.u) == 0.0
        assert rec.converged

    def test_huge_radius_matches_unconstrained(self):
        mesh = build_mesh(UNIT, 1 / 128)
        asm = EnergyAssembler(mesh, ONE, 2.0, lam=1.0, f=linear_f())
        free = minimize_energy(asm)
        capped = sublevel_minimize(asm, r=1e12)
        diff = sup_norm(DiscreteFunction(free.u.mesh, free.u.values - capped.u.values))
        assert diff <= 10 * SolverConfig().residual_tol

    def test_sup_bound_from_radius(self, shipped_cell):
        # phi(u) <= r = (1/p)(c/k)^p forces sup|u| <= k(p r)^{1/p} = c
        _, _, records, _, _, _ = shipped_cell
        sub = [r for r in records if r.classification == "sublevel-min"][0]
        assert sup_norm(sub.u) <= 0.2 + 1e-6

    def test_no_converged_start_returns_unconverged(self, monkeypatch):
        monkeypatch.setattr(solver, "_descend",
                            lambda asm_, v0, config_, level=None: (v0, 1.0, False, 0.0))
        asm = EnergyAssembler(build_mesh(UNIT, 1 / 16), ONE, 2.0)
        assert not sublevel_minimize(asm, r=0.08).converged

    def test_rejects_nonpositive_radius(self):
        mesh = build_mesh(UNIT, 1 / 32)
        asm = EnergyAssembler(mesh, ONE, 2.0)
        with pytest.raises(ValueError):
            sublevel_minimize(asm, r=0.0)


def _toy_assembler():
    """Two interior nodes with a double-well energy: brute-force verifiable."""
    mesh = build_mesh(UNIT, 1 / 3)
    f = make_nonlinearity("t - t^3 + 0.3*x1",
                          primitive="0.5*t^2 - 0.25*t^4 + 0.3*x1*t")
    return mesh, EnergyAssembler(mesh, ONE, 2.0, 30.0, 0.0, f)


def _toy_criticals(mesh, asm):
    """All critical points by dense multistart Newton on the 2-dof system,
    tagged with the negative-eigenvalue count of the reduced Hessian."""
    ii = np.flatnonzero(mesh.interior_vertices)
    out = []
    for c1 in np.linspace(-2, 2, 21):
        for c2 in np.linspace(-2, 2, 21):
            v = np.zeros(mesh.num_vertices)
            v[ii] = (c1, c2)
            ok = False
            for _ in range(100):
                res = asm.residual(v)[ii]
                if np.max(np.abs(res)) < 1e-13:
                    ok = True
                    break
                J = asm.tangent(v)[np.ix_(ii, ii)]
                try:
                    dv = np.linalg.solve(J, -res)
                except np.linalg.LinAlgError:
                    break
                v[ii] += dv
                if np.max(np.abs(v[ii])) > 50:
                    break
            if not ok:
                continue
            if any(np.max(np.abs(v[ii] - c0)) < 1e-8 for c0, _, _ in out):
                continue
            evs = np.linalg.eigvalsh(asm.tangent(v)[np.ix_(ii, ii)])
            out.append((v[ii].copy(), asm.energy(v), int(np.sum(evs < 0))))
    return ii, out


def _toy_minima(mesh, ii, crits):
    """Nodal vectors of the two lowest toy minima."""
    minima = sorted([c for c in crits if c[2] == 0], key=lambda c: c[1])
    assert len(minima) >= 2
    ua = np.zeros(mesh.num_vertices)
    ub = np.zeros(mesh.num_vertices)
    ua[ii], ub[ii] = minima[0][0], minima[1][0]
    return ua, ub


class TestMountainPass:
    def test_toy_saddle_matches_brute_force(self):
        mesh, asm = _toy_assembler()
        ii, crits = _toy_criticals(mesh, asm)
        saddles = [c for c in crits if c[2] == 1]
        assert len(saddles) == 1
        ua, ub = _toy_minima(mesh, ii, crits)
        rec = mountain_pass(asm, DiscreteFunction(mesh, ua),
                            DiscreteFunction(mesh, ub))
        assert rec.converged
        assert np.max(np.abs(rec.u.values[ii] - saddles[0][0])) < 1e-6
        assert rec.energy == pytest.approx(saddles[0][1], abs=1e-6)

    def test_failed_polish_returns_segment_peak(self):
        # no iterate reaches residual 1e-300, so the polish cannot succeed
        mesh, asm = _toy_assembler()
        ua, ub = _toy_minima(mesh, *_toy_criticals(mesh, asm))
        rec = mountain_pass(asm, DiscreteFunction(mesh, ua), DiscreteFunction(mesh, ub),
                            config=SolverConfig(residual_tol=1e-300))
        assert not rec.converged
        samples = [(1 - t) * ua + t * ub for t in np.linspace(0, 1, 33)]
        peak = samples[int(np.argmax([asm.energy(v) for v in samples]))]
        assert np.array_equal(rec.u.values, peak)
        assert rec.energy == asm.energy(peak)
        assert rec.residual_norm == asm.residual_norm(asm.residual(peak))

    def test_solve_cell_notes_failed_polish(self, monkeypatch):
        mesh = build_mesh(UNIT, 1 / 64, breakpoints=(0.3, 0.4, 0.6, 0.7))
        asm = EnergyAssembler(mesh, ONE, 2.0, 18.0, 0.0, shipped_f(), shipped_g())
        monkeypatch.setattr(solver, "_polish", lambda *args: None)
        records, notes = solve_cell(asm, r=0.08, ustar=build_ustar(1.0, BALL, mesh))
        assert [r.classification for r in records] == ["global-min-candidate",
                                                       "sublevel-min"]
        assert notes == ["mountain pass polish did not converge"]

    @pytest.mark.parametrize("failing", [None, "polish", "sublevel"])
    def test_solve_cell_returns_converged_records_only(self, monkeypatch, failing):
        # a search that ends unconverged (a failed mountain-pass polish, a
        # sublevel descent stuck on the constraint) is dropped with a note
        mesh = build_mesh(UNIT, 1 / 64, breakpoints=(0.3, 0.4, 0.6, 0.7))
        asm = EnergyAssembler(mesh, ONE, 2.0, 18.0, 0.0, shipped_f(), shipped_g())
        if failing == "polish":
            monkeypatch.setattr(solver, "_polish", lambda *args: None)
        elif failing == "sublevel":
            search = solver.sublevel_minimize
            monkeypatch.setattr(solver, "sublevel_minimize", lambda *args, **kwargs:
                                dataclasses.replace(search(*args, **kwargs), converged=False))
        records, notes = solve_cell(asm, r=0.08, ustar=build_ustar(1.0, BALL, mesh))
        assert len(records) == {None: 3, "polish": 2, "sublevel": 1}[failing]
        assert all(rec.converged for rec in records)
        assert len(notes) == (failing is not None)

    def test_identical_endpoints_rejected(self):
        mesh, asm = _toy_assembler()
        u = DiscreteFunction(mesh, np.ones(mesh.num_vertices))
        with pytest.raises(ValueError, match="distinct"):
            mountain_pass(asm, u, u)

    def test_pass_value_dominates_endpoints(self, shipped_cell):
        asm, _, records, _, _, _ = shipped_cell
        by_class = {r.classification: r for r in records}
        if "mountain-pass" not in by_class:
            pytest.skip("shipped cell produced no mountain pass")
        mp = by_class["mountain-pass"]
        ends = max(by_class["global-min-candidate"].energy,
                   by_class["sublevel-min"].energy)
        assert mp.energy >= ends - 1e-9


class TestShippedCell:
    def test_three_distinct_solutions(self, shipped_cell):
        _, _, records, notes, _, _ = shipped_cell
        assert notes == []
        sset = SolutionSet(records, SolverConfig().delta_dist)
        assert sset.count >= 3
        scale = max(sup_norm(r.u) for r in records)
        D = sset.distance_matrix
        n = len(records)
        assert all(D[i, j] > SolverConfig().delta_dist * scale
                   for i in range(n) for j in range(i + 1, n))

    def test_residuals_within_tolerance(self, shipped_cell):
        _, _, records, _, _, _ = shipped_cell
        for rec in records:
            assert rec.residual_norm <= SolverConfig().residual_tol

    def test_weak_form_against_random_test_functions(self, shipped_cell):
        asm, _, records, _, f, g = shipped_cell
        rng = np.random.default_rng(31)
        for rec in records:
            for _ in range(20):
                vals = rng.standard_normal(asm.mesh.num_vertices)
                v = DiscreteFunction(asm.mesh, vals)
                gap = weak_form_gap(asm, rec.u, v)
                assert abs(gap) <= 1e-6 * (1.0 + sup_norm(v))


class TestScan:
    def test_unloaded_grid_single_trivial_solution(self):
        mesh = build_mesh(UNIT, 1 / 64, breakpoints=(0.3, 0.4, 0.6, 0.7))
        ustar = build_ustar(1.0, BALL, mesh)
        asm = EnergyAssembler(mesh, ONE, 2.0, f=shipped_f(), g=shipped_g())
        result = scan(asm, [0.0], [0.0], r=0.08, ustar=ustar)
        cell = result.cells[0]
        assert cell.solutions.count == 1
        assert cell.solutions.count_nontrivial == 0
        assert result.lambda_window == []

    def test_failed_cell_recorded_and_scan_continues(self):
        # p = 3 keeps the problem nonlinear, so one iteration cannot converge
        mesh = build_mesh(UNIT, 1 / 64)
        cfg = SolverConfig(max_iter=1)
        asm = EnergyAssembler(mesh, ONE, 3.0, f=linear_f())
        result = scan(asm, [1.0, 2.0], [0.0], r=2.0, config=cfg)
        assert len(result.cells) == 2
        assert all(any("cell failed" in n for n in c.notes) for c in result.cells)

    def test_solve_cell_propagates_failure(self):
        mesh = build_mesh(UNIT, 1 / 64)
        asm = EnergyAssembler(mesh, ONE, 3.0, lam=1.0, f=linear_f())
        with pytest.raises(SolverFailure):
            solve_cell(asm, config=SolverConfig(max_iter=1))


class TestSolverConfig:
    def test_positive_tolerances(self):
        with pytest.raises(ValueError):
            SolverConfig(residual_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(delta_dist=-1.0)

    def test_non_negative_seed(self):
        # numpy's SeedSequence, which the random start reproduces, takes no negative seed
        assert SolverConfig(seed=0).seed == 0
        with pytest.raises(ValueError, match="need seed >= 0, got -1"):
            SolverConfig(seed=-1)


def numpy_uniform(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-1.0, 1.0, n)


def assert_same_bits(got: np.ndarray, want: np.ndarray):
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestUniformDraw:
    """The multistart's random start equals numpy's PCG64 uniform draw bit for
    bit: seeds one 32-bit word long, several words long (the SeedSequence
    pool takes four, and hashes in the rest), and past 2^128."""

    @pytest.mark.parametrize("n", [0, 1, 7, 517])
    @pytest.mark.parametrize("seed", [0, 1, 42, 206, 2**32 - 1, 2**32, 2**64 + 3,
                                      2**128 + 1, 2**200 + 12345])
    def test_matches_numpy_bitwise(self, seed, n):
        assert_same_bits(solver._uniform_draw(seed, n), numpy_uniform(seed, n))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**160 - 1), n=st.integers(0, 600))
    def test_matches_numpy_on_any_seed(self, seed, n):
        assert_same_bits(solver._uniform_draw(seed, n), numpy_uniform(seed, n))

    def test_memoized_and_read_only(self):
        solver._uniform_draw.cache_clear()
        first = solver._uniform_draw(42, 65)
        assert solver._uniform_draw(42, 65) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0
        assert solver._uniform_draw(43, 65) is not first


class TestSolutionSet:
    def _mesh(self):
        return build_mesh(UNIT, 1 / 8)

    def _record(self, mesh, values, norm=1.0):
        u = DiscreteFunction(mesh, values)
        return SolutionRecord(u=u, residual_norm=0.0,
                              energy=0.0, classification="global-min-candidate",
                              norm=norm)

    def test_duplicates_collapse(self):
        mesh = self._mesh()
        base = np.zeros(mesh.num_vertices)
        bump = base.copy()
        bump[mesh.num_vertices // 2] = 1.0
        recs = [self._record(mesh, bump), self._record(mesh, bump * (1 + 1e-9)),
                self._record(mesh, -bump)]
        sset = SolutionSet(recs, delta_dist=1e-3)
        assert sset.count == 2
        assert sset.distance_matrix.shape == (3, 3)
        assert np.allclose(sset.distance_matrix, sset.distance_matrix.T)
        assert np.all(np.diag(sset.distance_matrix) == 0.0)

    def test_nontrivial_excludes_zero(self):
        mesh = self._mesh()
        bump = np.zeros(mesh.num_vertices)
        bump[mesh.num_vertices // 2] = 1.0
        recs = [self._record(mesh, np.zeros(mesh.num_vertices), norm=0.0),
                self._record(mesh, bump, norm=2.0)]
        sset = SolutionSet(recs, delta_dist=1e-3)
        assert sset.count == 2
        assert sset.count_nontrivial == 1
        assert sset.rho_observed == 2.0

    def test_sup_distance_at_the_threshold_is_not_distinct(self):
        # delta_dist 0.5 and sup-norm 1.0 put the threshold at 0.5; heights
        # 1.0 and 0.5 sit exactly that far apart, 1.0 and 0.25 beyond it
        mesh = self._mesh()
        bump = np.zeros(mesh.num_vertices)
        bump[mesh.num_vertices // 2] = 1.0
        for second, count in ((0.5, 1), (0.25, 2)):
            pair = [self._record(mesh, bump), self._record(mesh, second * bump)]
            assert SolutionSet(pair, delta_dist=0.5).count == count, second
        asm = EnergyAssembler(mesh, ONE, 2.0)
        with pytest.raises(ValueError, match="distinct"):
            mountain_pass(asm, DiscreteFunction(mesh, bump), DiscreteFunction(mesh, 0.5 * bump),
                          config=SolverConfig(delta_dist=0.5))

    def test_sup_norm_at_the_threshold_is_trivial(self):
        mesh = self._mesh()
        bump = np.zeros(mesh.num_vertices)
        bump[mesh.num_vertices // 2] = 1.0
        sset = SolutionSet([self._record(mesh, bump), self._record(mesh, -0.5 * bump)],
                           delta_dist=0.5)
        assert sset.count == 2
        assert sset.count_nontrivial == 1

    def test_distinct_records_consistent_with_count(self):
        mesh = self._mesh()
        rng = np.random.default_rng(44)
        recs = [self._record(mesh, rng.standard_normal(mesh.num_vertices))
                for _ in range(5)]
        sset = SolutionSet(recs, delta_dist=1e-3)
        assert len(sset.distinct_records()) == sset.count

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_distance_matrix_is_every_pairwise_sup(self, n):
        mesh = self._mesh()
        rng = np.random.default_rng(n)
        vals = [rng.standard_normal(mesh.num_vertices) for _ in range(n)]
        sset = SolutionSet([self._record(mesh, v) for v in vals], delta_dist=1e-3)
        vals = [r.u.values for r in sset.records]
        want = [[float(np.max(np.abs(a - b))) for b in vals] for a in vals]
        assert sset.distance_matrix.shape == (n, n)
        assert sset.distance_matrix.tolist() == want
        assert sset.min_distance == min((want[i][j] for i in range(n)
                                         for j in range(i + 1, n)), default=0.0)
        assert sset.count == n


class TestMonotonicityAndCoercivity:
    def test_uniform_monotonicity(self):
        mesh = build_mesh(UNIT, 1 / 32)
        rng = np.random.default_rng(7)
        for p in (2.0, 3.0):
            asm = EnergyAssembler(mesh, ONE, p)
            for _ in range(50):
                u = rng.standard_normal(mesh.num_vertices)
                v = rng.standard_normal(mesh.num_vertices)
                u[mesh.boundary_vertices] = v[mesh.boundary_vertices] = 0.0
                pairing = float((asm.residual(u) - asm.residual(v)) @ (u - v))
                assert pairing >= 0.0
                assert pairing >= 2.0 ** -p * asm.norm_p(u - v) - 1e-10

    def test_coercivity_pairing(self):
        mesh = build_mesh(UNIT, 1 / 32)
        rng = np.random.default_rng(8)
        for p in (2.0, 3.0):
            asm = EnergyAssembler(mesh, ONE, p)
            for _ in range(50):
                u = rng.standard_normal(mesh.num_vertices)
                u[mesh.boundary_vertices] = 0.0
                norm_p = asm.norm_p(u)
                assert float(asm.residual(u) @ u) >= norm_p - 1e-8 * max(1.0, norm_p)


class TestMeshRefinement:
    def test_linear_instance_converges_with_h(self):
        sols = {}
        for n in (32, 64, 128):
            mesh = build_mesh(UNIT, 1 / n)
            asm = EnergyAssembler(mesh, ONE, 2.0, lam=1.0, f=linear_f())
            sols[n] = (mesh, minimize_energy(asm))
        for n in (32, 64):
            coarse_mesh, coarse = sols[n]
            fine_mesh, fine = sols[2 * n]
            fine_at_coarse = np.interp(coarse_mesh.vertices[:, 0],
                                       fine_mesh.vertices[:, 0], fine.u.values)
            diff = np.max(np.abs(coarse.u.values - fine_at_coarse))
            assert diff <= 1.0 / n  # C = 1 comfortably covers the h^2 trend
