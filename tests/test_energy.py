"""Energy functionals, primitives, and weak-form residuals."""
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from wplap.certificate import build_ustar
from wplap.cli import build_problem_mesh
from wplap.config import load_config
from wplap.energy import (
    _GL20,
    EnergyAssembler,
    _kronecker_points,
    gradient_check,
    make_nonlinearity,
    primitive_F,
    weak_form_gap,
)
from wplap.expressions import Expression
from wplap.geometry import _GL5_W, _GL5_X, BallSpec, Domain, build_mesh
from wplap.space import DiscreteFunction, _gather, weighted_norm
from wplap.weight import WeightSpec

UNIT = Domain.interval(0.0, 1.0)
ONE = WeightSpec.constant(1.0)
PI = 3.141592653589793


def interval_mesh(h, **kw):
    return build_mesh(UNIT, h, **kw)


def random_interior(mesh, rng):
    vals = rng.standard_normal(mesh.num_vertices)
    return DiscreteFunction(mesh, vals)


def hat_function(mesh, center, half_width):
    vals = np.maximum(0.0, 1.0 - np.abs(mesh.vertices[:, 0] - center) / half_width)
    return DiscreteFunction(mesh, vals)


def minus_int_F(asm, nl, v):
    """-int F(x, v(x)) dx on asm's quadrature: Phi(v) for nl = asm.f,
    Upsilon(v) for nl = asm.g, and 0 without a nonlinearity."""
    if nl is None:
        return 0.0
    return -asm._int_F(nl, _gather(asm.mesh, v)[0].reshape(-1))


def test_gauss_tables_are_leggauss_bit_for_bit():
    # the literal Gauss-Legendre tables: every quadrature rests on these bits
    bits = lambda a: np.asarray(a, dtype=float).view(np.uint64).tolist()
    x5, w5 = np.polynomial.legendre.leggauss(5)
    assert bits(_GL5_X) == bits(0.5 * (x5 + 1.0))
    assert bits(_GL5_W) == bits(0.5 * w5)
    x20, w20 = np.polynomial.legendre.leggauss(20)
    assert bits(_GL20[0]) == bits(x20)
    assert bits(_GL20[1]) == bits(w20)


class TestPrimitiveF:
    def test_linear_quadrature_path(self):
        # t/(1 + t^2) lies outside the closed-form subset: F = ln(1 + t^2)/2
        nl = make_nonlinearity("t/(1 + t^2)")
        assert nl.primitive is None
        x = np.array([[0.3]])
        ref = math.log(5.0) / 2.0
        assert primitive_F(nl, x, np.array([2.0]))[0] == pytest.approx(ref, abs=1e-10)
        # sign-aware for t < 0: int_0^{-2} s/(1 + s^2) ds = ln(5)/2
        assert primitive_F(nl, x, np.array([-2.0]))[0] == pytest.approx(ref, abs=1e-10)

    def test_cosine(self):
        # a power of cos(t) is outside the closed-form subset: quadrature
        nl = make_nonlinearity("cos(t)^2")
        assert nl.primitive is None
        val = primitive_F(nl, np.array([[0.1]]), np.array([math.pi / 2]))[0]
        assert val == pytest.approx(math.pi / 4, abs=1e-10)

    def test_gaussian_closed_form_agrees(self):
        # F(t) = (1 - e^{-t^2})/2; t = 1 gives (1 - 1/e)/2
        ref = (1.0 - math.exp(-1.0)) / 2.0
        x = np.array([[0.7]])
        quad = make_nonlinearity("t*exp(-t^2)")
        closed = make_nonlinearity("t*exp(-t^2)", primitive="0.5*(1-exp(-t^2))")
        assert primitive_F(quad, x, np.array([1.0]))[0] == pytest.approx(ref, abs=1e-10)
        assert primitive_F(closed, x, np.array([1.0]))[0] == pytest.approx(ref, abs=1e-12)

    def test_primitive_derivative_verified(self):
        # the constructor samples 1000 (x, t) pairs against the symbolic dt
        with pytest.raises(ValueError, match="differentiate"):
            make_nonlinearity("t", primitive="t^3")
        with pytest.raises(ValueError, match="vanish"):
            make_nonlinearity("t", primitive="0.5*t^2 + 1")
        make_nonlinearity("t", primitive="0.5*t^2")  # good one passes

    def test_primitive_wrong_only_near_the_end_of_the_t_range_rejected(self):
        # the derivative is wrong only for t in (4.5, 5], 5% of the t range
        with pytest.raises(ValueError, match="differentiate"):
            make_nonlinearity("t", primitive="0.5*t^2 + max(t - 4.5, 0)^2")

    def test_primitive_wrong_only_near_one_side_of_a_box_rejected(self):
        # 0.5 t^2 min(x1, 0.8) is a primitive of x1 t only where x1 <= 0.8
        box = Domain.box(0.0, 1.0, 0.0, 2.0)
        with pytest.raises(ValueError, match="differentiate"):
            make_nonlinearity("x1*t", primitive="0.5*t^2*min(x1, 0.8)", domain=box)
        make_nonlinearity("x1*t", primitive="0.5*t^2*min(x1, 1)", domain=box)

    def test_primitive_nonzero_at_t_zero_on_part_of_the_domain_rejected(self):
        # F(x, 0) = x1 - 0.9 > 0 only on the strip x1 > 0.9 of the unit square
        with pytest.raises(ValueError, match="vanish"):
            make_nonlinearity("t", primitive="0.5*t^2 + max(x1 - 0.9, 0)")

    def test_check_points_are_a_fixed_even_spread(self):
        # the same bits on every call; on each axis, and on the (x1, t) plane,
        # the 1000 points fill equal bins within 5% of the even share
        for dim in (2, 3):
            z = _kronecker_points(1000, dim)
            assert z.shape == (1000, dim)
            assert z.tobytes() == _kronecker_points(1000, dim).tobytes()
            assert np.all((z >= 0.0) & (z < 1.0))
            for axis in z.T:
                counts = np.bincount((10 * axis).astype(int), minlength=10)
                assert np.all(np.abs(counts - 100) <= 5), counts
            plane, _, _ = np.histogram2d(z[:, 0], z[:, -1], bins=4, range=[[0, 1], [0, 1]])
            assert np.all(np.abs(plane - 62.5) <= 0.1 * 62.5), plane

    def test_every_shipped_config_primitive_passes(self):
        for path in sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg")):
            load_config(str(path))

    def test_primitive_checked_on_the_given_domain(self):
        # 0.5 t^2 min(x1, 1) is a primitive of x1 t on the unit square only
        make_nonlinearity("x1*t", primitive="0.5*t^2*min(x1, 1)")
        make_nonlinearity("x1*t", primitive="0.5*t^2*min(x1, 1)",
                          domain=Domain.interval(0.2, 0.9))
        with pytest.raises(ValueError, match="differentiate"):
            make_nonlinearity("x1*t", primitive="0.5*t^2*min(x1, 1)",
                              domain=Domain.interval(0.0, 10.0))

    def test_primitive_checked_where_f_is_finite(self):
        # f is NaN for x1 < 0.25; the samples with x1 >= 0.25 still decide
        f = "(x1 - 0.25)^0.5 * t"
        with np.errstate(invalid="ignore"):
            make_nonlinearity(f, primitive="(x1 - 0.25)^0.5 * t^2/2")
            make_nonlinearity("t", primitive="0.5*t^2")
            with pytest.raises(ValueError, match="differentiate"):
                make_nonlinearity(f, primitive="(x1 - 0.25)^0.5 * t^2")
            # a finite f whose primitive differentiates to NaN fails
            with pytest.raises(ValueError, match="differentiate"):
                make_nonlinearity("t", primitive="0.5*t^2 + 0*(x1 - 2)^0.5")
            with pytest.raises(ValueError, match="not finite at any sample"):
                make_nonlinearity("(x1 - 2)^0.5 * t", primitive="(x1 - 2)^0.5 * t^2/2")

    def test_primitive_derived_in_closed_form(self):
        nl = make_nonlinearity("sin(t)")
        assert nl.primitive is not None
        t = np.linspace(-4.0, 4.0, 33)
        np.testing.assert_allclose(primitive_F(nl, np.zeros((t.size, 1)), t),
                                   1.0 - np.cos(t), rtol=0, atol=1e-15)

    def test_tiny_slope_primitive_keeps_relative_accuracy(self):
        nl = make_nonlinearity("exp(1e-12*t)")
        t = np.array([-3.0, 1.0, 3.0])
        # (exp(a t) - 1)/a = t + a t^2/2 + O(a^2 t^3)
        np.testing.assert_allclose(primitive_F(nl, np.zeros((3, 1)), t),
                                   t + 0.5e-12 * t ** 2, rtol=1e-15, atol=0)

    def test_x_dependent_primitive(self):
        nl = make_nonlinearity("x1*t", primitive="0.5*x1*t^2")
        out = primitive_F(nl, np.array([[0.5], [1.0]]), np.array([2.0, 2.0]))
        assert out == pytest.approx([1.0, 2.0], abs=1e-12)

    def test_kinked_integrand_warns(self):
        # the kink at s = 0.3 sits off every dyadic panel edge of [0, 1]; the
        # argument t^2 - 0.09 is not affine, so no closed form is derived
        nl = make_nonlinearity("max(t^2 - 0.09, 0)")
        assert nl.primitive is None
        with pytest.warns(RuntimeWarning, match="^primitive_F: .*unconverged at 64 panels"):
            primitive_F(nl, np.array([[0.5]]), np.array([1.0]))

    def test_large_values_converge_relative(self):
        # Gauss is exact for f = t*t (a product of two t-dependent factors,
        # so outside the closed-form subset), and the panel levels differ
        # only by rounding in F itself: far above 1e-10 absolute at
        # |t| = 1e8 but at rounding level relative to F
        nl = make_nonlinearity("t*t")
        assert nl.primitive is None
        t = np.linspace(-1e8, 1e8, 201)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = primitive_F(nl, np.zeros((t.size, 1)), t)
        assert out == pytest.approx(t ** 3 / 3.0, rel=1e-14)


class TestShippedPrimitives:
    def test_shipped_g_integrates_in_closed_form(self, monkeypatch):
        # g = sin(t) has no primitive key; the derived closed form makes one
        # Expression call per Upsilon, where Gauss panels make one per level
        cfg = load_config(Path(__file__).resolve().parents[1]
                          / "configs" / "three_solutions_1d.cfg")
        assert cfg.nl_g.primitive is not None
        mesh = build_problem_mesh(cfg)
        asm = EnergyAssembler(mesh, cfg.weight, cfg.p, cfg.run_lambda, 0.05,
                              cfg.nl_f, cfg.nl_g)
        u = np.sin(PI * mesh.vertices[:, 0])
        calls = []
        call = Expression.__call__

        def counted(self, **env):
            calls.append(self.source)
            return call(self, **env)

        monkeypatch.setattr(Expression, "__call__", counted)
        assert minus_int_F(asm, asm.g, u) < 0.0
        assert calls == ["int_0^t(sin(t))"]


class TestLamReads:
    """lam_reads moves on each evaluation that lambda's term could change:
    the shipped f is 0 for t < 0.25, so it stays put at 0.2 u* (sup 0.2)
    and moves at u* (sup 1) and at lambda = 0, where the term is skipped."""

    @pytest.fixture(scope="class")
    def shipped(self):
        cfg = load_config(Path(__file__).resolve().parents[1]
                          / "configs" / "three_solutions_1d.cfg")
        mesh = build_problem_mesh(cfg)
        ustar = build_ustar(cfg.d, cfg.ball, mesh)
        return cfg, mesh, ustar.values

    @staticmethod
    def reads(asm, kernel, v):
        before = asm.lam_reads
        kernel(asm, v)
        return asm.lam_reads - before

    KERNELS = {
        "energy": EnergyAssembler.energy,
        "residual": EnergyAssembler.residual,
        "tangent": lambda asm, v: asm.tangent(v, free=True),
    }

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("mu", [0.0, 0.05])
    def test_each_kernel(self, shipped, kernel, mu):
        cfg, mesh, ustar = shipped
        fn = self.KERNELS[kernel]
        asm = EnergyAssembler(mesh, cfg.weight, cfg.p, 18.0, mu, cfg.nl_f, cfg.nl_g)
        assert asm.lam_reads == 0
        assert self.reads(asm, fn, 0.2 * ustar) == 0
        assert self.reads(asm, fn, np.zeros(mesh.num_vertices)) == 0
        assert self.reads(asm, fn, ustar) == 1
        asm.lam = 0.0
        assert self.reads(asm, fn, 0.2 * ustar) == 1

    def test_without_f_or_its_linearization(self, shipped):
        cfg, mesh, ustar = shipped
        asm = EnergyAssembler(mesh, cfg.weight, cfg.p, 0.0, 0.05, g=cfg.nl_g)
        for fn in self.KERNELS.values():
            assert self.reads(asm, fn, ustar) == 0
        asm = EnergyAssembler(mesh, cfg.weight, cfg.p, 0.0, 0.0, cfg.nl_f)
        asm.tangent(ustar, include_sources=False, free=True)
        assert asm.lam_reads == 0


class TestPhi:
    def test_zero(self):
        mesh = interval_mesh(0.25)
        assert EnergyAssembler(mesh, ONE, 2.0).phi(np.zeros(mesh.num_vertices)) == 0.0

    def test_p_homogeneity(self):
        mesh = interval_mesh(1 / 32)
        u = random_interior(mesh, np.random.default_rng(1))
        for p in (2.0, 3.0):
            asm = EnergyAssembler(mesh, ONE, p)
            base = asm.phi(u.values)
            for c in (-2.0, 0.5):
                assert asm.phi(c * u.values) == pytest.approx(abs(c) ** p * base, rel=1e-12)

    def test_witness_profile_value(self):
        # quadratic bump of height 1 on B(0.5, 0.1) falling to 0 at radius 0.2:
        # ||u||^2 = 2*(0.056/0.0027) piecewise closed form = 21.0181339, phi = half
        ball = BallSpec(x0=(0.5,), r1=0.1, r2=0.2)
        mesh = interval_mesh(1 / 512, breakpoints=(0.3, 0.4, 0.6, 0.7))
        us = build_ustar(1.0, ball, mesh)
        assert EnergyAssembler(mesh, ONE, 2.0).phi(us.values) == \
            pytest.approx(10.5090669489, rel=1e-3)
        assert EnergyAssembler(mesh, ONE, 2.0, zero_order=False).phi(us.values) == \
            pytest.approx(20.7407407407 / 2.0, rel=1e-3)


class TestCapitalPhi:
    def test_zero_function(self):
        nl = make_nonlinearity("t", primitive="0.5*t^2")
        mesh = interval_mesh(0.25)
        asm = EnergyAssembler(mesh, ONE, 2.0, f=nl)
        assert minus_int_F(asm, asm.f, np.zeros(mesh.num_vertices)) == 0.0

    def test_constant_f(self):
        # f = 1 so F = t; Phi = -int u = -1/6 for u = x(1-x)
        nl = make_nonlinearity("1", primitive="t")
        mesh = interval_mesh(1 / 8192)
        u = DiscreteFunction(mesh, mesh.vertices[:, 0] * (1 - mesh.vertices[:, 0]))
        assert minus_int_F(EnergyAssembler(mesh, ONE, 2.0, f=nl), nl, u.values) == \
            pytest.approx(-1 / 6, abs=1e-8)

    def test_linear_f_on_hats(self):
        # F = t^2/2, so Phi = -(1/2) int u^2, exact for piecewise-linear u:
        # full-width hat has int u^2 = 1/3, half-width 1/4 hat has 1/6
        nl = make_nonlinearity("t", primitive="0.5*t^2")
        mesh = interval_mesh(1 / 8)
        asm = EnergyAssembler(mesh, ONE, 2.0, f=nl)
        assert minus_int_F(asm, asm.f, hat_function(mesh, 0.5, 0.5).values) == \
            pytest.approx(-1 / 6, abs=1e-8)
        assert minus_int_F(asm, asm.f, hat_function(mesh, 0.5, 0.25).values) == \
            pytest.approx(-1 / 12, abs=1e-8)

    def test_upsilon_quadrature_matches_closed_form(self):
        mesh = interval_mesh(1 / 64)
        u = hat_function(mesh, 0.5, 0.5)
        # a product of two t-dependent factors is left to quadrature
        quad = make_nonlinearity("sin(t)*cos(t)")
        assert quad.primitive is None
        closed = make_nonlinearity("sin(t)*cos(t)", primitive="0.5*sin(t)^2")
        assert minus_int_F(EnergyAssembler(mesh, ONE, 2.0, g=quad), quad, u.values) == \
            pytest.approx(minus_int_F(EnergyAssembler(mesh, ONE, 2.0, g=closed), closed,
                                      u.values), abs=1e-10)


class TestWeakResidual:
    def test_zero_at_origin(self):
        # f(x,0) = 0 and g(x,0) = 0 make every term vanish
        f = make_nonlinearity("t", primitive="0.5*t^2")
        g = make_nonlinearity("sin(t)")
        mesh = interval_mesh(1 / 16)
        asm = EnergyAssembler(mesh, ONE, 2.0, 1.5, 0.5, f, g)
        res = asm.residual(np.zeros(mesh.num_vertices))
        assert np.all(res == 0.0)
        assert asm.residual_norm(res) == 0.0

    def test_manufactured_linear_solution(self):
        # -u'' + u = (1+pi^2) sin(pi x) is solved by u = sin(pi x)
        f = make_nonlinearity(f"{1 + PI ** 2}*sin({PI}*x1)")
        mesh = interval_mesh(1 / 256)
        u = DiscreteFunction(mesh, np.sin(PI * mesh.vertices[:, 0]))
        asm = EnergyAssembler(mesh, ONE, 2.0, 1.0, 0.0, f)
        assert asm.residual_norm(asm.residual(u.values)) < 1e-3

    def test_matches_energy_gradient(self):
        f = make_nonlinearity("t", primitive="0.5*t^2")
        g = make_nonlinearity("sin(t)", primitive="1-cos(t)")
        mesh = interval_mesh(1 / 32)
        u = random_interior(mesh, np.random.default_rng(8))
        assert gradient_check(EnergyAssembler(mesh, ONE, 2.0, 0.7, 0.3, f, g), u) < 1e-5

    def test_residual_length_and_state(self):
        f = make_nonlinearity("t", primitive="0.5*t^2")
        mesh = interval_mesh(1 / 16)
        asm = EnergyAssembler(mesh, ONE, 2.0, lam=1.2, f=f)
        u = random_interior(mesh, np.random.default_rng(9))
        res = asm.residual(u.values)
        assert res.shape == (mesh.num_vertices,)
        assert np.all(res[mesh.boundary_vertices] == 0.0)
        recon = asm.phi(u.values) + 1.2 * minus_int_F(asm, asm.f, u.values) \
            + 0.0 * minus_int_F(asm, asm.g, u.values)
        assert asm.energy(u.values) == pytest.approx(recon, abs=1e-12)

    def test_load_is_a_linear_term(self):
        f = make_nonlinearity("t", primitive="0.5*t^2")
        mesh = interval_mesh(1 / 16)
        rng = np.random.default_rng(10)
        load = rng.standard_normal(mesh.num_vertices)
        plain = EnergyAssembler(mesh, ONE, 3.0, lam=0.7, f=f)
        loaded = EnergyAssembler(mesh, ONE, 3.0, lam=0.7, f=f, load=load)
        v = random_interior(mesh, rng).values
        assert loaded.energy(v) == plain.energy(v) - float(load @ v)
        want = plain.residual(v) - load
        want[mesh.boundary_vertices] = 0.0
        assert np.array_equal(loaded.residual(v), want)
        assert np.array_equal(loaded.tangent(v), plain.tangent(v))
        u, w = DiscreteFunction(mesh, v), random_interior(mesh, rng)
        assert weak_form_gap(loaded, u, w) == pytest.approx(
            weak_form_gap(plain, u, w) - float(load @ w.values), abs=1e-12)


class TestGradientCheck:
    def test_quadratic_case(self):
        f = make_nonlinearity(f"sin({PI}*x1)")
        mesh = interval_mesh(1 / 32)
        u = random_interior(mesh, np.random.default_rng(12))
        assert gradient_check(EnergyAssembler(mesh, ONE, 2.0, 1.0, 0.0, f), u) < 1e-6

    def test_zero_point_exact(self):
        f = make_nonlinearity("t", primitive="0.5*t^2")
        g = make_nonlinearity("sin(t)")
        mesh = interval_mesh(1 / 16)
        u = DiscreteFunction(mesh, np.zeros(mesh.num_vertices))
        assert gradient_check(EnergyAssembler(mesh, ONE, 2.0, 1.0, 1.0, f, g), u) < 1e-12

    def test_degenerate_weight_p3(self):
        w = WeightSpec.distance_power(0.5)
        mesh = interval_mesh(1 / 32)
        u = random_interior(mesh, np.random.default_rng(13))
        f = make_nonlinearity("t", primitive="0.5*t^2")
        assert gradient_check(EnergyAssembler(mesh, w, 3.0, 0.5, 0.0, f), u) < 1e-4

    def test_across_configurations(self):
        f = make_nonlinearity("t", primitive="0.5*t^2")
        g = make_nonlinearity("sin(t)", primitive="1-cos(t)")
        mesh = interval_mesh(1 / 16)
        rng = np.random.default_rng(14)
        for p in (2.0, 2.5, 3.0):
            for w in (ONE, WeightSpec.distance_power(0.5)):
                for zero_order in (True, False):
                    u = random_interior(mesh, rng)
                    asm = EnergyAssembler(mesh, w, p, 0.8, 0.2, f, g, zero_order)
                    gap = gradient_check(asm, u)
                    assert gap < 1e-4, (p, w.form, zero_order, gap)


class TestEnergyIdentities:
    def test_euler_identity_coercivity(self):
        # residual of phi dotted with u recovers ||u||^p (p-homogeneity),
        # which is the coercivity lower bound with the sources switched off
        mesh = interval_mesh(1 / 32)
        rng = np.random.default_rng(17)
        for p in (2.0, 3.0):
            asm = EnergyAssembler(mesh, ONE, p)
            for _ in range(5):
                u = random_interior(mesh, rng)
                res = asm.residual(u.values)
                pairing = float(res @ u.values)
                norm_p = asm.norm_p(u.values)
                assert pairing >= norm_p - 1e-8 * max(1.0, norm_p)
                assert pairing == pytest.approx(norm_p, rel=1e-10)

    def test_weak_form_gap_is_residual_pairing(self):
        f = make_nonlinearity("t", primitive="0.5*t^2")
        g = make_nonlinearity("sin(t)", primitive="1-cos(t)")
        mesh = interval_mesh(1 / 32)
        rng = np.random.default_rng(18)
        u = random_interior(mesh, rng)
        asm = EnergyAssembler(mesh, ONE, 3.0, 0.9, 0.1, f, g)
        res = asm.residual(u.values)
        for _ in range(20):
            v = random_interior(mesh, rng)
            gap = weak_form_gap(asm, u, v)
            ref = float(res @ v.values)
            assert gap == pytest.approx(ref, abs=1e-6 * (1 + abs(ref)))

    def test_weak_form_gap_matches_residual_below_p2(self):
        # p < 2: both regularize |u|^(p-2) u, so u = 0 gives 0, not 0 * inf
        f = make_nonlinearity("t", primitive="0.5*t^2")
        mesh = interval_mesh(1 / 32)
        rng = np.random.default_rng(19)
        asm = EnergyAssembler(mesh, ONE, 1.5, 0.9, 0.0, f)
        v = random_interior(mesh, rng)
        for u in (DiscreteFunction(mesh, np.zeros(mesh.num_vertices)), random_interior(mesh, rng)):
            ref = float(asm.residual(u.values) @ v.values)
            assert weak_form_gap(asm, u, v) == pytest.approx(ref, abs=1e-12)

    def test_caratheodory_bound_sampled(self):
        # shipped g = sin(t) with w_tau = 1: |g| <= w_tau on a 100x100 grid
        g = make_nonlinearity("sin(t)", caratheodory_w="1")
        xs = np.linspace(0.0, 1.0, 100)[:, None]
        for tau in (0.2, 1.0, 10.0):
            ts = np.linspace(-tau, tau, 100)
            for t in ts:
                gv = g.eval(xs, np.full(100, t))
                wv = g.caratheodory_w(x1=xs[:, 0], tau=tau)
                assert np.all(np.abs(gv) <= np.asarray(wv) + 1e-15)


class TestNonlinearityEval:
    def test_eval_and_derivative(self):
        nl = make_nonlinearity("x1*t^2", primitive="x1*t^3/3")
        x = np.array([[0.5], [2.0]])
        t = np.array([3.0, 1.0])
        assert nl.eval(x, t) == pytest.approx([4.5, 2.0])
        assert nl.eval_dt(x, t) == pytest.approx([3.0, 4.0])

    def test_derivative_sampling_invariant(self):
        # dF/dt = f on 1000 random samples for every shipped-style pair
        pairs = [("t", "0.5*t^2"), ("sin(t)", "1-cos(t)"),
                 ("t*exp(-t^2)", "0.5*(1-exp(-t^2))"),
                 ("min(max(t - 0.25, 0), 1)",
                  "0.5*min(max(t - 0.25, 0), 1)^2 + max(t - 1.25, 0)")]
        for f_expr, F_expr in pairs:
            make_nonlinearity(f_expr, primitive=F_expr)  # raises on mismatch

    def test_reads_x_from_f_or_its_primitive(self):
        assert not make_nonlinearity("min(max(t - 0.25, 0), 1)").reads_x
        assert not make_nonlinearity("sin(t)*cos(t)").reads_x      # F by quadrature
        assert make_nonlinearity("x2*sin(t)*cos(t)").reads_x
        assert make_nonlinearity("x1*t").reads_x
        # a supplied primitive may name x where f does not
        assert make_nonlinearity("1", primitive="t + 0*x1").reads_x
