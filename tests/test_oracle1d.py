"""Shooting oracle: RK4 accuracy, root enumeration, mesh interpolation."""
import math

import numpy as np
import pytest

from wplap.certificate import build_ustar
from wplap.energy import EnergyAssembler, make_nonlinearity
from wplap.geometry import BallSpec, Domain, UnsupportedDomainError, build_mesh
from wplap import oracle1d
from wplap.oracle1d import enumerate_solutions, profile_on_mesh, shoot
from wplap.solver import solve_cell
from wplap.space import sup_norm
from wplap.weight import WeightSpec, eval_weight

UNIT = Domain.interval(0.0, 1.0)
ONE = WeightSpec.constant(1.0)
SINH1 = math.sinh(1.0)

# slopes produced by the lambda = 18 shipped instance, frozen from a
# bisection run at the default scan resolution
SHIPPED_SIGMAS = (0.0, 2.218708133698, 6.120923662186)


def shipped_f():
    return make_nonlinearity("min(max(t - 0.25, 0), 1)",
                             primitive="0.5*min(max(t - 0.25, 0), 1)^2 + max(t - 1.25, 0)",
                             gamma=1.0, growth_h="1")


def shipped_g():
    return make_nonlinearity("sin(t)", caratheodory_w="1")


def reference_shoot(sigmas, w, p, lam, mu, f, g, steps_per_unit):
    """Plain RK4 on the unit interval that evaluates a(x), f and g through
    eval_weight and Nonlinearity.eval at every stage; returns (terminal, u
    history)."""
    n = steps_per_unit
    h = 1.0 / n
    grid = (np.linspace(h, 1.0 - h, n - 1) if w.form == "distance_power"
            else np.linspace(0.0, 1.0, n + 1))

    def a_at(x):
        return float(eval_weight(w, UNIT, np.array([[x]]))[0])

    def rhs(x, u, q):
        du = np.abs(q / a_at(x)) ** (1.0 / (p - 1.0)) * np.sign(q)
        dq = np.abs(u) ** (p - 2.0) * u
        xs = np.full((u.size, 1), x)
        if f is not None:
            dq = dq - lam * f.eval(xs, u)
        if g is not None:
            dq = dq - mu * g.eval(xs, u)
        return du, dq

    u = sigmas * grid[0]
    q = a_at(grid[0]) * np.abs(sigmas) ** (p - 1.0) * np.sign(sigmas)
    history = [u]
    for i in range(grid.size - 1):
        x, step = grid[i], grid[i + 1] - grid[i]
        k1u, k1q = rhs(x, u, q)
        k2u, k2q = rhs(x + 0.5 * step, u + 0.5 * step * k1u, q + 0.5 * step * k1q)
        k3u, k3q = rhs(x + 0.5 * step, u + 0.5 * step * k2u, q + 0.5 * step * k2q)
        k4u, k4q = rhs(x + step, u + step * k3u, q + step * k3q)
        u = u + (step / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
        q = q + (step / 6.0) * (k1q + 2 * k2q + 2 * k3q + k4q)
        history.append(u)
    slope = np.abs(q / a_at(grid[-1])) ** (1.0 / (p - 1.0)) * np.sign(q)
    terminal = u + slope * (1.0 - grid[-1])
    return terminal, np.array(history)


class TestShoot:
    def test_zero_slope_stays_zero(self):
        t, d = shoot(np.array([0.0]), UNIT, ONE, 2.0, 18.0, 0.0, f=shipped_f())
        assert t[0] == 0.0 and not d[0]

    def test_linear_problem_hits_sinh(self):
        # lam = mu = 0 reduces to u'' = u, so u(1) = sigma*sinh(1)
        t, d = shoot(np.array([1.0]), UNIT, ONE, 2.0, 0.0, 0.0,
                     steps_per_unit=10_000)
        assert not d[0]
        assert abs(t[0] - SINH1) < 1e-8

    def test_odd_symmetry_without_sources(self):
        t, _ = shoot(np.array([1.7, -1.7, 0.3, -0.3]), UNIT, ONE, 2.0, 0.0, 0.0)
        assert abs(t[0] + t[1]) < 1e-12
        assert abs(t[2] + t[3]) < 1e-12

    def test_rk4_fourth_order(self):
        errs = []
        for n in (128, 256, 512):
            t, _ = shoot(np.array([1.0]), UNIT, ONE, 2.0, 0.0, 0.0,
                         steps_per_unit=n)
            errs.append(abs(t[0] - SINH1))
        for coarse, fine in zip(errs, errs[1:]):
            assert 12.0 <= coarse / fine <= 20.0

    def test_singular_weight_interior_march(self):
        w = WeightSpec.distance_power(0.5)
        t, d = shoot(np.array([1.0]), UNIT, w, 2.0, 0.0, 0.0)
        assert not d[0]
        assert math.isfinite(t[0])

    def test_rejects_planar_domain(self):
        with pytest.raises(UnsupportedDomainError):
            shoot(np.array([1.0]), Domain.box(0, 1, 0, 1), ONE, 2.0, 0.0, 0.0)

    @pytest.mark.parametrize("w, p, f, g", [
        (WeightSpec.distance_power(0.5), 2.5, "x1*t", None),
        (WeightSpec.constant(2.0), 3.0, None, "sin(t) + x1"),
    ])
    def test_matches_per_stage_reference(self, w, p, f, g):
        # x-dependent f/g and a non-unit weight: paths the shipped config skips
        f = make_nonlinearity(f) if f else None
        g = make_nonlinearity(g) if g else None
        sigmas = np.array([-2.0, -0.3, 0.0, 0.7, 1.9])
        t, d, grid, hist = shoot(sigmas, UNIT, w, p, 3.0, 0.7, f=f, g=g,
                                 steps_per_unit=64, keep_trajectory=True)
        t_ref, hist_ref = reference_shoot(sigmas, w, p, 3.0, 0.7, f, g, 64)
        assert not d.any()
        assert hist.shape == hist_ref.shape == (grid.size, sigmas.size)
        np.testing.assert_allclose(t, t_ref, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(hist, hist_ref, rtol=0.0, atol=1e-13)

    def test_batched_trajectories_match_single_marches(self):
        batch = shoot(np.array(SHIPPED_SIGMAS), UNIT, ONE, 2.0, 18.0, 0.0,
                      f=shipped_f(), g=shipped_g(), keep_trajectory=True)
        for k, s in enumerate(SHIPPED_SIGMAS):
            t, d, grid, hist = shoot(np.array([s]), UNIT, ONE, 2.0, 18.0, 0.0,
                                     f=shipped_f(), g=shipped_g(),
                                     keep_trajectory=True)
            assert t[0] == batch[0][k] and d[0] == batch[1][k]
            np.testing.assert_array_equal(grid, batch[2])
            np.testing.assert_array_equal(hist[:, 0], batch[3][:, k])


class TestEnumerate:
    def test_unloaded_problem_single_trivial_root(self):
        prof = enumerate_solutions(UNIT, ONE, 2.0, 0.0, 0.0)
        assert not prof.degenerate_flat
        assert len(prof.roots) == 1
        assert prof.roots[0].sigma == 0.0

    def test_resonant_coefficient_flags_degenerate(self):
        # -u'' + u = (1+pi^2) u is solved by sigma*sin(pi x)/pi for every sigma
        f = make_nonlinearity("t", primitive="0.5*t^2")
        prof = enumerate_solutions(UNIT, ONE, 2.0, 1.0 + math.pi ** 2, 0.0, f=f)
        assert prof.degenerate_flat

    def test_shipped_instance_roots(self):
        prof = enumerate_solutions(UNIT, ONE, 2.0, 18.0, 0.0,
                                   f=shipped_f(), g=shipped_g())
        sigmas = sorted(r.sigma for r in prof.roots)
        assert len(sigmas) == 3
        for got, want in zip(sigmas, SHIPPED_SIGMAS):
            assert got == pytest.approx(want, abs=1e-6)
        for r in prof.roots:
            assert abs(r.terminal) <= 1e-8 * max(1.0, abs(r.sigma))

    def test_shipped_instance_needs_few_marches(self, monkeypatch):
        marches = []

        def counting_shoot(*args, **kwargs):
            marches.append(np.size(args[0]))
            return shoot(*args, **kwargs)

        monkeypatch.setattr(oracle1d, "shoot", counting_shoot)
        prof = enumerate_solutions(UNIT, ONE, 2.0, 18.0, 0.0,
                                   f=shipped_f(), g=shipped_g())
        assert len(marches) <= 8
        assert prof.unconverged == []
        sigmas = sorted(r.sigma for r in prof.roots)
        assert sigmas == pytest.approx(SHIPPED_SIGMAS, abs=1e-9)

    def test_refinement_converges_on_smooth_map(self):
        calls = []

        def shooter(ss):
            calls.append(ss.size)
            return np.tanh(ss - 0.3)

        converged, unconverged = oracle1d._refine_all([(0.0, 1.0), (-1.0, 0.5)],
                                                      [-0.3, -1.3], shooter)
        assert unconverged == []
        assert [s for s, _ in converged] == pytest.approx([0.3, 0.3], abs=1e-8)
        assert all(abs(t) <= 1e-8 for _, t in converged)
        assert calls[0] == 2 * oracle1d._SECTIONS and len(calls) <= 6

    def test_refinement_reports_jump_as_unconverged(self):
        # a sign change without a root: the bracket collapses onto the jump
        converged, unconverged = oracle1d._refine_all(
            [(0.0, 1.0)], [-1.0], lambda ss: np.where(ss < 1 / 3, -1.0, 1.0))
        assert converged == []
        assert len(unconverged) == 1
        sigma, terminal = unconverged[0]
        assert sigma == pytest.approx(1 / 3, abs=1e-13)
        assert abs(terminal) == 1.0

    def test_brackets_disjoint_and_ordered(self):
        prof = enumerate_solutions(UNIT, ONE, 2.0, 18.0, 0.0,
                                   f=shipped_f(), g=shipped_g(),
                                   sigma_range=(-10.0, 10.0), n_scan=401)
        for lo, hi in prof.brackets:
            assert lo < hi
        for (_, hi), (lo, _) in zip(prof.brackets, prof.brackets[1:]):
            assert hi <= lo

    def test_rejects_planar_domain(self):
        with pytest.raises(UnsupportedDomainError):
            enumerate_solutions(Domain.box(0, 1, 0, 1), ONE, 2.0, 0.0, 0.0)


class TestProfileOnMesh:
    def _shipped_profile(self):
        return enumerate_solutions(UNIT, ONE, 2.0, 18.0, 0.0,
                                   f=shipped_f(), g=shipped_g(),
                                   sigma_range=(-10.0, 10.0), n_scan=401)

    def test_boundary_values_vanish(self):
        prof = self._shipped_profile()
        mesh = build_mesh(UNIT, 1 / 64)
        for root in prof.roots:
            df = profile_on_mesh(root, mesh, UNIT)
            assert df.values[0] == 0.0 and df.values[-1] == 0.0

    def test_interpolated_profiles_nearly_solve_weak_form(self):
        prof = self._shipped_profile()
        mesh = build_mesh(UNIT, 1 / 256, breakpoints=(0.3, 0.4, 0.6, 0.7))
        asm = EnergyAssembler(mesh, ONE, 2.0, 18.0, 0.0, shipped_f(), shipped_g())
        for root in prof.roots:
            df = profile_on_mesh(root, mesh, UNIT)
            assert asm.residual_norm(asm.residual(df.values)) <= 5e-4

    def test_matches_variational_solver(self):
        prof = self._shipped_profile()
        mesh = build_mesh(UNIT, 1 / 256, breakpoints=(0.3, 0.4, 0.6, 0.7))
        f, g = shipped_f(), shipped_g()
        asm = EnergyAssembler(mesh, ONE, 2.0, 18.0, 0.0, f, g)
        ustar = build_ustar(1.0, BallSpec(x0=(0.5,), r1=0.1, r2=0.2), mesh)
        records, _ = solve_cell(asm, 18.0, 0.0, r=0.08, ustar=ustar)
        assert len(records) >= 3
        for rec in records:
            best = min(
                sup_norm(rec.u.copy_with(
                    rec.u.values - profile_on_mesh(root, mesh, UNIT).values))
                for root in prof.roots)
            assert best <= 5e-3

    def test_rejects_planar_mesh(self):
        prof = self._shipped_profile()
        mesh2d = build_mesh(Domain.box(0, 1, 0, 1), 1 / 4)
        with pytest.raises(UnsupportedDomainError):
            profile_on_mesh(prof.roots[0], mesh2d, UNIT)
