"""Shooting oracle: RK4 accuracy, root enumeration, mesh interpolation."""
import math
from collections import Counter

import numpy as np
import pytest

from wplap.certificate import build_ustar
from wplap.energy import EnergyAssembler, make_nonlinearity
from wplap.expressions import Expression
from wplap.geometry import BallSpec, Domain, UnsupportedDomainError, build_mesh
from wplap import oracle1d
from wplap.oracle1d import enumerate_solutions, profile_on_mesh, shoot
from wplap.solver import SolverConfig, _polish, solve_cell
from wplap.space import DiscreteFunction, sup_norm
from wplap.weight import WeightSpec, eval_weight

UNIT = Domain.interval(0.0, 1.0)
ONE = WeightSpec.constant(1.0)
SINH1 = math.sinh(1.0)

# slopes produced by the lambda = 18 shipped instance, frozen from the
# interpolation-centred multi-section at the default scan resolution; the
# terminal map is below 1e-15 in magnitude at both nontrivial ones
SHIPPED_SIGMAS = (0.0, 2.218708149747, 6.120923667383)


def shipped_f():
    return make_nonlinearity("min(max(t - 0.25, 0), 1)",
                             primitive="0.5*min(max(t - 0.25, 0), 1)^2 + max(t - 1.25, 0)",
                             growth_h="1")


def shipped_g():
    return make_nonlinearity("sin(t)", caratheodory_w="1")


def reference_shoot(sigmas, w, p, lam, mu, f, g, steps_per_unit):
    """Plain RK4 on the unit interval that evaluates a(x), f and g through
    eval_weight and Nonlinearity.eval at every stage; returns (terminal, u
    history)."""
    n = steps_per_unit
    h = 1.0 / n
    grid = (np.linspace(h, 1.0 - h, n - 1) if w.singular_on_boundary
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


def two_array_shoot(sigmas, domain, w, p, lam, mu, f=None, g=None, zero_order=True,
                    steps_per_unit=oracle1d.STEPS_PER_UNIT, keep_trajectory=False):
    """The RK4 march with u and q as two arrays, every stage input, update
    and guard formed anew, as shoot ran it before its (2, n) state; the
    operations and their order are shoot's, so the results must agree
    bitwise."""
    def signed_power(z, e):
        return z if e == 1.0 else np.copysign(np.abs(z) ** e, z)

    def rhs(x, a, u, q):
        du = signed_power(q / a, 1.0 / (p - 1.0))
        dq = signed_power(u, p - 1.0) if zero_order else np.zeros_like(u)
        if f is not None and lam != 0.0:
            dq = dq - lam * f.f(t=u, x1=x)
        if g is not None and mu != 0.0:
            dq = dq - mu * g.f(t=u, x1=x)
        return du, dq

    (x_a, x_b), = domain.axes.tolist()
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    grid = oracle1d._ode_grid(domain, w, steps_per_unit)
    step = grid[1:] - grid[:-1]
    x_mid = grid[:-1] + 0.5 * step
    x_end = grid[:-1] + step
    a_node, a_mid, a_end = (eval_weight(w, domain, xs[:, None]).tolist()
                            for xs in (grid, x_mid, x_end))
    u = sigmas * (grid[0] - x_a) if grid[0] > x_a else np.zeros_like(sigmas)
    q = a_node[0] * signed_power(sigmas, p - 1.0)
    diverged = np.zeros(sigmas.shape, dtype=bool)
    history = [u]
    for i, (x, xm, xe, hs) in enumerate(zip(grid[:-1].tolist(), x_mid.tolist(),
                                            x_end.tolist(), step.tolist())):
        k1u, k1q = rhs(x, a_node[i], u, q)
        k2u, k2q = rhs(xm, a_mid[i], u + 0.5 * hs * k1u, q + 0.5 * hs * k1q)
        k3u, k3q = rhs(xm, a_mid[i], u + 0.5 * hs * k2u, q + 0.5 * hs * k2q)
        k4u, k4q = rhs(xe, a_end[i], u + hs * k3u, q + hs * k3q)
        u = u + (hs / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
        q = q + (hs / 6.0) * (k1q + 2 * k2q + 2 * k3q + k4q)
        if not (np.abs(u).max(initial=0.0) <= 1e8 and np.isfinite(q).all()):
            bad = ~np.isfinite(u) | ~np.isfinite(q) | (np.abs(u) > 1e8)
            diverged |= bad
            u = np.where(bad, np.sign(np.where(np.isfinite(u), u, 1.0)) * 1e8, u)
            q = np.where(bad, 0.0, q)
        history.append(u)
    if grid[-1] < x_b:
        terminal = u + signed_power(q / a_node[-1], 1.0 / (p - 1.0)) * (x_b - grid[-1])
    else:
        terminal = u
    terminal = np.where(diverged, np.sign(terminal) * 1e8, terminal)
    if keep_trajectory:
        return terminal, diverged, grid, np.array(history).reshape(grid.size, sigmas.size)
    return terminal, diverged


def bits(a):
    """The bit patterns of a float array (NaN payloads and zero signs kept)."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


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
        (WeightSpec.constant(2.0), 2.0, "x1*t", "sin(t)"),
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
        if p == 2.0:
            # the linear flux map must round exactly as the general formula
            np.testing.assert_array_equal(t, t_ref)
            np.testing.assert_array_equal(hist, hist_ref)
        else:
            np.testing.assert_allclose(t, t_ref, rtol=0.0, atol=1e-13)
            np.testing.assert_allclose(hist, hist_ref, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("e", [0.5, 2 / 3, 1.0, 1.5, 2.0, 3.0])
    def test_signed_power(self, e):
        z = np.array([-3.0, -0.25, -0.0, 0.0, 1e-30, 0.7, 2.0])
        with np.errstate(all="raise"):
            got = oracle1d._signed_power(z, e)
            out = np.full_like(z, np.nan)
            into = oracle1d._signed_power(z, e, out=out)
            alias = z.copy()
            in_place = oracle1d._signed_power(alias, e, out=alias)
        np.testing.assert_allclose(got, np.sign(z) * np.abs(z) ** e, rtol=1e-15, atol=0.0)
        assert got[2] == got[3] == 0.0
        # the in-place form writes the returning form's bits, also over z itself
        np.testing.assert_array_equal(bits(into), bits(got))
        np.testing.assert_array_equal(bits(in_place), bits(got))
        assert in_place is alias
        if e == 1.0:
            assert got is z and into is z
            assert np.isnan(out).all()
        else:
            assert into is out

    # (domain, weight, p, lambda, mu, f, g): the shipped instance; mu != 0
    # with f and g both active; x-dependent f and g under a singular weight;
    # p < 2; and the three blow-up instances of the test above
    TWO_ARRAY_CASES = {
        "shipped": (UNIT, ONE, 2.0, 18.0, 0.0, "shipped", "shipped"),
        "f and g": (UNIT, ONE, 2.0, 18.0, 0.05, "shipped", "shipped"),
        "p = 3, distance power": (UNIT, WeightSpec.distance_power(0.5), 3.0, 3.0, 0.7,
                                  "x1*t", "sin(t) + x1"),
        "p = 1.5": (UNIT, WeightSpec.constant(2.0), 1.5, 18.0, 0.05, "shipped", "shipped"),
        "blow-up, linear": (UNIT, ONE, 2.0, 0.0, 0.0, None, None),
        "blow-up, cubic": (UNIT, ONE, 2.0, 1000.0, 0.0, "-t^3", None),
        "blow-up, cubic, p = 2.5": (UNIT, WeightSpec.distance_power(0.5), 2.5, 1000.0,
                                    0.0, "-t^3", None),
    }

    @pytest.mark.parametrize("keep_trajectory", [False, True])
    @pytest.mark.parametrize("case", list(TWO_ARRAY_CASES))
    def test_state_march_is_bitwise_the_two_array_march(self, case, keep_trajectory):
        domain, w, p, lam, mu, f, g = self.TWO_ARRAY_CASES[case]
        f = shipped_f() if f == "shipped" else (make_nonlinearity(f) if f else None)
        g = shipped_g() if g == "shipped" else (make_nonlinearity(g) if g else None)
        slopes = np.concatenate([np.linspace(-100.0, 100.0, 21), [1e9, -1e9, 0.01, -0.0],
                                 list(SHIPPED_SIGMAS), [np.nan, np.inf, -np.inf]])
        for sigmas in (slopes, np.empty(0)):
            with np.errstate(all="ignore"):
                got = shoot(sigmas, domain, w, p, lam, mu, f=f, g=g, steps_per_unit=256,
                            keep_trajectory=keep_trajectory)
                want = two_array_shoot(sigmas, domain, w, p, lam, mu, f=f, g=g,
                                       steps_per_unit=256, keep_trajectory=keep_trajectory)
            assert len(got) == len(want) == (4 if keep_trajectory else 2)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.dtype == b.dtype
                np.testing.assert_array_equal(bits(a) if a.dtype == float else a,
                                              bits(b) if b.dtype == float else b)

    def test_sub_quadratic_march_is_finite_at_zero(self):
        # p < 2: |u|^(p-2) u is read as sign(u)|u|^(p-1), which is 0 at u = 0
        t, d = shoot(np.array([0.0, 1.0]), UNIT, ONE, 1.5, 0.0, 0.0)
        assert t[0] == 0.0
        assert not d.any()
        assert math.isfinite(t[1]) and t[1] > 1.0

    @pytest.mark.parametrize("w, p, lam, f, sigmas", [
        # u'' = u: u(x) = sigma sinh(x) passes 1e8 near x = 0.1 at |sigma| = 1e9
        (ONE, 2.0, 0.0, None, [-1e9, -1.0, 0.0, 1.0, 1e9]),
        # u'' = u + 1000 u^3 blows up in finite x for the large slopes
        (ONE, 2.0, 1000.0, "-t^3", [-100.0, -0.01, 0.0, 0.01, 100.0]),
        (WeightSpec.distance_power(0.5), 2.5, 1000.0, "-t^3",
         [-100.0, -0.01, 0.0, 0.01, 100.0]),
    ])
    def test_blowup_clamps_only_the_diverging_slopes(self, w, p, lam, f, sigmas):
        sigmas = np.array(sigmas)
        f = make_nonlinearity(f) if f else None
        # the clamp at 1e8 must come before any overflow
        with np.errstate(all="raise"):
            t, d = shoot(sigmas, UNIT, w, p, lam, 0.0, f=f)
        np.testing.assert_array_equal(d, [True, False, False, False, True])
        np.testing.assert_array_equal(t[d], [-1e8, 1e8])
        assert t[2] == 0.0
        assert np.all(np.abs(t[~d]) < 2.0) and t[1] == -t[3] < 0.0

    def test_non_finite_slope_diverges_alone(self):
        # NaN fails the max(|u|) <= 1e8 comparison, so the guard takes the
        # clamp path; the finite slopes in the batch march on untouched
        with np.errstate(all="raise"):
            t, d = shoot(np.array([np.nan, 0.0, 1.0]), UNIT, ONE, 2.0, 0.0, 0.0)
        ref, _ = shoot(np.array([0.0, 1.0]), UNIT, ONE, 2.0, 0.0, 0.0)
        np.testing.assert_array_equal(d, [True, False, False])
        assert t[0] == 1e8
        np.testing.assert_array_equal(t[1:], ref)

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


@pytest.fixture
def marches(monkeypatch):
    """Batch size of every shoot call enumerate_solutions makes."""
    sizes = []

    def counting_shoot(*args, **kwargs):
        sizes.append(np.size(args[0]))
        return shoot(*args, **kwargs)

    monkeypatch.setattr(oracle1d, "shoot", counting_shoot)
    return sizes


class TestEnumerate:
    def test_unloaded_problem_single_trivial_root(self, marches):
        # no bracket: the near-zero scan root marches alone for its profile
        prof = enumerate_solutions(UNIT, ONE, 2.0, 0.0, 0.0)
        assert not prof.degenerate_flat
        assert prof.brackets == []
        assert marches == [2001, 1]
        assert len(prof.roots) == 1
        assert prof.roots[0].sigma == 0.0
        assert prof.roots[0].u.shape == prof.roots[0].x.shape
        assert not prof.roots[0].u.any()

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

    def test_unit_distance_power_marches_like_the_constant_weight(self):
        # distance_power with exponent 0 is a = 1: the full grid, the same roots
        flat = WeightSpec.distance_power(0.0)
        np.testing.assert_array_equal(oracle1d._ode_grid(UNIT, flat, 1024),
                                      oracle1d._ode_grid(UNIT, ONE, 1024))
        one, dp0 = (enumerate_solutions(UNIT, w, 2.0, 18.0, 0.0, f=shipped_f(), g=shipped_g())
                    for w in (ONE, flat))
        assert [r.sigma for r in dp0.roots] == [r.sigma for r in one.roots]

    def test_shipped_instance_needs_few_marches(self, marches):
        prof = enumerate_solutions(UNIT, ONE, 2.0, 18.0, 0.0,
                                   f=shipped_f(), g=shipped_g())
        # the scan and two refinement levels; the profiles come out of those
        assert len(marches) == 3
        assert prof.unconverged == []
        sigmas = sorted(r.sigma for r in prof.roots)
        assert sigmas == pytest.approx(SHIPPED_SIGMAS, abs=1e-9)

    def test_shipped_instance_evaluates_f_once_per_stage(self, monkeypatch):
        # the scan and two refinement levels, 1024 steps of four stages each,
        # every one a call of the function bound once per march
        f, g = shipped_f(), shipped_g()
        calls, keyword_calls = Counter(), []
        bind, call = Expression.bind, Expression.__call__

        def counting_bind(self, *names):
            fn = bind(self, *names)

            def counted(*args):
                calls[self] += 1
                return fn(*args)
            return counted

        def counting_call(self, **values):
            keyword_calls.append(self)
            return call(self, **values)
        monkeypatch.setattr(Expression, "bind", counting_bind)
        monkeypatch.setattr(Expression, "__call__", counting_call)
        prof = enumerate_solutions(UNIT, ONE, 2.0, 18.0, 0.0, f=f, g=g)
        assert len(prof.roots) == 3
        assert calls[f.f] == 3 * 1024 * 4 == 12_288
        assert calls[g.f] == 0
        assert keyword_calls == []

    def test_root_profiles_match_fresh_marches(self):
        f, g = shipped_f(), shipped_g()
        prof = enumerate_solutions(UNIT, ONE, 2.0, 18.0, 0.0, f=f, g=g)
        assert len(prof.roots) == 3
        for root in prof.roots:
            t, d, grid, hist = shoot(np.array([root.sigma]), UNIT, ONE, 2.0, 18.0,
                                     0.0, f=f, g=g, keep_trajectory=True)
            assert not d[0] and t[0] == root.terminal
            np.testing.assert_array_equal(root.x, grid)
            np.testing.assert_array_equal(root.u, hist[:, 0])

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

    @pytest.mark.parametrize("with_scan", [True, False])
    def test_refinement_converges_in_two_levels_on_curved_map(self, with_scan):
        # a 0.05-wide bracket as the scan leaves it; with_scan hands level 0
        # the scan's neighbours, without it level 0 centres on the midpoint
        def curved(ss):
            return np.exp(3.0 * ss) - 2.0

        scan = np.linspace(0.0, 0.5, 11)
        calls = []

        def shooter(ss):
            calls.append(ss.size)
            return curved(ss)

        known = (scan, curved(scan)) if with_scan else None
        converged, unconverged = oracle1d._refine_all(
            [(0.2, 0.25)], [float(curved(0.2))], shooter, known=known)
        assert unconverged == []
        assert len(calls) <= 2
        assert all(n <= oracle1d._SECTIONS for n in calls)
        (sigma, terminal), = converged
        assert abs(terminal) <= 1e-8
        assert sigma == pytest.approx(math.log(2.0) / 3.0, abs=1e-8)

    def test_refinement_reports_jump_as_unconverged(self):
        # a sign change without a root: the bracket collapses onto the jump
        converged, unconverged = oracle1d._refine_all(
            [(0.0, 1.0)], [-1.0], lambda ss: np.where(ss < 1 / 3, -1.0, 1.0))
        assert converged == []
        assert len(unconverged) == 1
        sigma, terminal = unconverged[0]
        assert sigma == pytest.approx(1 / 3, abs=1e-13)
        assert abs(terminal) == 1.0

    def test_scan_bookkeeping_matches_per_index_loops(self, monkeypatch):
        # a synthetic terminal map: zero runs at both ends of the scan, in the
        # middle and across a sign change, and a diverged band around another
        def fake_shoot(sigmas, *args, keep_trajectory=False, **kwargs):
            s = np.asarray(sigmas, dtype=float)
            zero = (np.abs(s) < 0.3) | (np.abs(s) >= 49.5) | (np.abs(s - 14.1) < 0.1)
            term, div = np.where(zero, 0.0, np.cos(s / 3.0)), (30.0 < s) & (s < 36.0)
            if keep_trajectory:
                return term, div, np.zeros(1), np.zeros((1, s.size))
            return term, div

        monkeypatch.setattr(oracle1d, "shoot", fake_shoot)
        prof = enumerate_solutions(UNIT, ONE, 2.0, 0.0, 0.0)
        grid, terminal, diverged = prof.sigma_grid, prof.terminal_values, prof.diverged
        near_zero = (np.abs(terminal) <= oracle1d._TERMINAL_TOL
                     * np.maximum(1.0, np.abs(grid))) & ~diverged
        # the loops enumerate_solutions ran before its array form
        mids, i, n = [], 0, grid.size
        while i < n:
            if near_zero[i]:
                j = i
                while j + 1 < n and near_zero[j + 1]:
                    j += 1
                mids.append(float(grid[(i + j) // 2]))
                i = j + 1
            else:
                i += 1
        brackets = [(float(grid[i]), float(grid[i + 1])) for i in range(n - 1)
                    if not (diverged[i] or diverged[i + 1] or near_zero[i] or near_zero[i + 1])
                    and (terminal[i] < 0) != (terminal[i + 1] < 0)]
        assert len(mids) == 4 and len(brackets) == 8
        assert prof.brackets == brackets
        assert set(mids) <= {root.sigma for root in prof.roots}

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

    def test_sub_quadratic_shipped_instance(self):
        # p = 1.5 on the shipped f, g and lambda: the trivial root and one
        # nontrivial root, which the FE Newton polish confirms on the CLI's
        # mesh (minimize/solve_cell alone find only u = 0 here)
        f, g = shipped_f(), shipped_g()
        prof = enumerate_solutions(UNIT, ONE, 1.5, 18.0, 0.0, f=f, g=g)
        assert not prof.diverged.any() and prof.unconverged == []
        sigmas = [r.sigma for r in prof.roots]
        assert sigmas[0] == 0.0
        assert sigmas[1:] == [pytest.approx(1.811144, abs=1e-5)]
        root = prof.roots[1]
        assert abs(root.terminal) <= 1e-8
        mesh = build_mesh(UNIT, 1 / 256, breakpoints=(0.3, 0.4, 0.6, 0.7))
        asm = EnergyAssembler(mesh, ONE, 1.5, 18.0, 0.0, f, g)
        v0 = profile_on_mesh(root, mesh).values
        polished = _polish(asm, v0, SolverConfig())
        assert polished is not None
        v, rn = polished
        assert rn <= SolverConfig().residual_tol
        assert np.max(np.abs(v - v0)) <= 1e-4
        assert np.max(np.abs(v)) > 0.5


class TestProfileOnMesh:
    def _shipped_profile(self):
        return enumerate_solutions(UNIT, ONE, 2.0, 18.0, 0.0,
                                   f=shipped_f(), g=shipped_g(),
                                   sigma_range=(-10.0, 10.0), n_scan=401)

    def test_boundary_values_vanish(self):
        prof = self._shipped_profile()
        mesh = build_mesh(UNIT, 1 / 64)
        for root in prof.roots:
            df = profile_on_mesh(root, mesh)
            assert df.values[0] == 0.0 and df.values[-1] == 0.0

    def test_interpolated_profiles_nearly_solve_weak_form(self):
        prof = self._shipped_profile()
        mesh = build_mesh(UNIT, 1 / 256, breakpoints=(0.3, 0.4, 0.6, 0.7))
        asm = EnergyAssembler(mesh, ONE, 2.0, 18.0, 0.0, shipped_f(), shipped_g())
        for root in prof.roots:
            df = profile_on_mesh(root, mesh)
            assert asm.residual_norm(asm.residual(df.values)) <= 5e-4

    def test_matches_variational_solver(self):
        prof = self._shipped_profile()
        mesh = build_mesh(UNIT, 1 / 256, breakpoints=(0.3, 0.4, 0.6, 0.7))
        f, g = shipped_f(), shipped_g()
        asm = EnergyAssembler(mesh, ONE, 2.0, 18.0, 0.0, f, g)
        ustar = build_ustar(1.0, BallSpec(x0=(0.5,), r1=0.1, r2=0.2), mesh)
        records, _ = solve_cell(asm, r=0.08, ustar=ustar)
        assert len(records) >= 3
        for rec in records:
            best = min(
                sup_norm(DiscreteFunction(
                    rec.u.mesh, rec.u.values - profile_on_mesh(root, mesh).values))
                for root in prof.roots)
            assert best <= 5e-3

    def test_fe_solutions_converge_at_second_order(self):
        # sup error at the vertices of the CLI's mesh against a fine oracle,
        # for the two nontrivial solutions at h = 1/64, 1/128, 1/256
        f, g = shipped_f(), shipped_g()
        prof = enumerate_solutions(UNIT, ONE, 2.0, 18.0, 0.0, f=f, g=g,
                                   sigma_range=(1.0, 7.0), n_scan=25,
                                   steps_per_unit=4096)
        assert len(prof.roots) == 2 and prof.unconverged == []
        errors = []
        for n in (64, 128, 256):
            mesh = build_mesh(UNIT, 1 / n, breakpoints=(0.3, 0.4, 0.6, 0.7))
            asm = EnergyAssembler(mesh, ONE, 2.0, 18.0, 0.0, f, g)
            ustar = build_ustar(1.0, BallSpec(x0=(0.5,), r1=0.1, r2=0.2), mesh)
            records, _ = solve_cell(asm, r=0.08, ustar=ustar)
            errors.append([min(np.max(np.abs(rec.u.values - profile_on_mesh(root, mesh).values))
                               for rec in records)
                           for root in prof.roots])
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders >= 1.8), orders

    def test_fe_solutions_converge_at_p3(self):
        # the shipped instance at p = 3, lambda = 60, mu = 0: each oracle
        # profile on the mesh, Newton-polished to the FE solution next to it.
        # Measured sup errors at h = 1/64 .. 1/512: 3.40e-4, 1.17e-4, 3.98e-5,
        # 1.39e-5 (sigma = 0.7577) and 7.93e-4, 2.93e-4, 1.06e-4, 3.91e-5
        # (sigma = 4.3296), orders 1.44 to 1.55
        f, g = shipped_f(), shipped_g()
        prof = enumerate_solutions(UNIT, ONE, 3.0, 60.0, 0.0, f=f, g=g,
                                   sigma_range=(0.1, 10.0), n_scan=100,
                                   steps_per_unit=4096)
        assert [round(r.sigma, 4) for r in prof.roots] == [0.7577, 4.3296]
        assert prof.unconverged == []
        errors = []
        for n in (64, 128, 256, 512):
            mesh = build_mesh(UNIT, 1 / n, breakpoints=(0.3, 0.4, 0.6, 0.7))
            asm = EnergyAssembler(mesh, ONE, 3.0, 60.0, 0.0, f, g)
            row = []
            for root in prof.roots:
                start = profile_on_mesh(root, mesh).values
                polished = _polish(asm, start, SolverConfig())
                assert polished is not None, (n, root.sigma)
                row.append(np.max(np.abs(polished[0] - start)))
            errors.append(row)
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders >= 1.3), orders

    def test_rejects_planar_mesh(self):
        prof = self._shipped_profile()
        mesh2d = build_mesh(Domain.box(0, 1, 0, 1), 1 / 4)
        with pytest.raises(UnsupportedDomainError):
            profile_on_mesh(prof.roots[0], mesh2d)
