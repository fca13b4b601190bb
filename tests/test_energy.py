"""Energy functionals, primitives, and weak-form residuals."""
import math
import warnings

import numpy as np
import pytest

from wplap.certificate import build_ustar
from wplap.energy import (
    EnergyAssembler,
    gradient_check,
    make_nonlinearity,
    primitive_F,
    weak_form_gap,
)
from wplap.geometry import BallSpec, Domain, build_mesh
from wplap.space import DiscreteFunction, weighted_norm
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


class TestPrimitiveF:
    def test_linear_quadrature_path(self):
        nl = make_nonlinearity("t")  # no closed form supplied
        x = np.array([[0.3]])
        assert primitive_F(nl, x, np.array([2.0]))[0] == pytest.approx(2.0, abs=1e-10)
        # sign-aware for t < 0: int_0^{-2} s ds = 2
        assert primitive_F(nl, x, np.array([-2.0]))[0] == pytest.approx(2.0, abs=1e-10)

    def test_cosine(self):
        nl = make_nonlinearity("cos(t)")
        val = primitive_F(nl, np.array([[0.1]]), np.array([math.pi / 2]))[0]
        assert val == pytest.approx(1.0, abs=1e-10)

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

    def test_x_dependent_primitive(self):
        nl = make_nonlinearity("x1*t", primitive="0.5*x1*t^2")
        out = primitive_F(nl, np.array([[0.5], [1.0]]), np.array([2.0, 2.0]))
        assert out == pytest.approx([1.0, 2.0], abs=1e-12)

    def test_kinked_integrand_warns(self):
        # the kink at s = 0.3 sits off every dyadic panel edge of [0, 1]
        nl = make_nonlinearity("max(t - 0.3, 0.3 - t)")
        with pytest.warns(RuntimeWarning, match="^primitive_F: .*unconverged at 64 panels"):
            primitive_F(nl, np.array([[0.5]]), np.array([1.0]))

    def test_large_values_converge_relative(self):
        # Gauss is exact for f = t, so the panel levels differ only by
        # rounding in F itself: up to ~1 at |t| = 1e8, far above 1e-10
        # absolute but at rounding level relative to F
        nl = make_nonlinearity("t")
        t = np.linspace(-1e8, 1e8, 201)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = primitive_F(nl, np.zeros((t.size, 1)), t)
        assert out == pytest.approx(0.5 * t ** 2, rel=1e-14)


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
        assert asm.capital_phi(np.zeros(mesh.num_vertices)) == 0.0

    def test_constant_f(self):
        # f = 1 so F = t; Phi = -int u = -1/6 for u = x(1-x)
        nl = make_nonlinearity("1", primitive="t")
        mesh = interval_mesh(1 / 8192)
        u = DiscreteFunction.from_callable(mesh, lambda x: x[:, 0] * (1 - x[:, 0]))
        assert EnergyAssembler(mesh, ONE, 2.0, f=nl).capital_phi(u.values) == \
            pytest.approx(-1 / 6, abs=1e-8)

    def test_linear_f_on_hats(self):
        # F = t^2/2, so Phi = -(1/2) int u^2, exact for piecewise-linear u:
        # full-width hat has int u^2 = 1/3, half-width 1/4 hat has 1/6
        nl = make_nonlinearity("t", primitive="0.5*t^2")
        mesh = interval_mesh(1 / 8)
        asm = EnergyAssembler(mesh, ONE, 2.0, f=nl)
        assert asm.capital_phi(hat_function(mesh, 0.5, 0.5).values) == \
            pytest.approx(-1 / 6, abs=1e-8)
        assert asm.capital_phi(hat_function(mesh, 0.5, 0.25).values) == \
            pytest.approx(-1 / 12, abs=1e-8)

    def test_upsilon_quadrature_matches_closed_form(self):
        mesh = interval_mesh(1 / 64)
        u = hat_function(mesh, 0.5, 0.5)
        quad = make_nonlinearity("sin(t)")
        closed = make_nonlinearity("sin(t)", primitive="1-cos(t)")
        assert EnergyAssembler(mesh, ONE, 2.0, g=quad).capital_upsilon(u.values) == \
            pytest.approx(EnergyAssembler(mesh, ONE, 2.0, g=closed).capital_upsilon(u.values),
                          abs=1e-10)


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
        u = DiscreteFunction.from_callable(mesh, lambda x: np.sin(PI * x[:, 0]))
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
        recon = asm.phi(u.values) + 1.2 * asm.capital_phi(u.values) \
            + 0.0 * asm.capital_upsilon(u.values)
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
        u = DiscreteFunction.zero(mesh)
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
