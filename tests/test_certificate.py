"""Constants, the witness bump u*, the norm sandwich, and hypothesis checks."""
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from wplap import certificate
from wplap.certificate import (
    Constants,
    ProblemSpec,
    RefinementRequiredError,
    annulus_weight_mass,
    build_certificate,
    build_ustar,
    check_H1,
    check_H2,
    check_H3,
    check_H3_H4_H5,
    check_theorem_conditions,
    compute_eta,
    compute_r,
    compute_xi,
    sandwich_check,
    ustar_norm_p,
)
from wplap.energy import Nonlinearity, _gauss_panels, make_nonlinearity, primitive_F
from wplap.geometry import BallSpec, Domain, build_mesh
from wplap.space import estimate_k, k_upper_bound
from wplap.weight import WeightSpec

UNIT = Domain.interval(0.0, 1.0)
SQUARE = Domain.box(0.0, 1.0, 0.0, 1.0)
ONE = WeightSpec.constant(1.0)
BALL = BallSpec(x0=(0.5,), r1=0.1, r2=0.2)
BALL_BREAKS = (0.3, 0.4, 0.6, 0.7)


def entry(report, name):
    """The check entry of the report called name."""
    return next(e for e in report.entries if e.name == name)

# running 1D instance: a=1, p=2, d=1, c=0.2, k=1/2
XI_REF = (0.1 / 0.03) * math.sqrt(0.2)                 # 1.4907120
ETA_REF = math.sqrt(8.888888888888889 + 0.1 + 0.05)    # 3.0064745
LOWER_REF = 8.888888888888889                          # (2 r1/(r2^2-r1^2))^2 a_mass
UPPER_REF = 36.15555555555556                          # lower*4.0681 terms, k-free
NORM_REF = 21.0181339                                  # piecewise closed form

F_SHIPPED = dict(primitive="0.5*min(max(t - 0.25, 0), 1)^2 + max(t - 1.25, 0)",
                 growth_h="1")


def shipped_f():
    return make_nonlinearity("min(max(t - 0.25, 0), 1)", **F_SHIPPED)


def shipped_g():
    return make_nonlinearity("sin(t)", caratheodory_w="1")


def shipped_spec(c=0.2, d=1.0, weight=ONE, p=2.0):
    return ProblemSpec(domain=UNIT, weight=weight, p=p, s=2.0, ball=BALL,
                       c=c, d=d, gamma=1.0, nl_f=shipped_f(), nl_g=shipped_g())


def ball_mesh(h=1 / 512, ball=BALL):
    x0 = ball.x0[0]
    bps = (x0 - ball.r2, x0 - ball.r1, x0 + ball.r1, x0 + ball.r2)
    return build_mesh(UNIT, h, breakpoints=bps)


class TestAnnulusWeightMass:
    def test_unit_weight_1d(self):
        assert annulus_weight_mass(ONE, BALL, UNIT) == (pytest.approx(0.2, abs=1e-12), True)

    def test_unit_weight_2d(self):
        box = Domain.box(-3.0, 3.0, -3.0, 3.0)
        ball = BallSpec(x0=(0.0, 0.0), r1=1.0, r2=2.0)
        assert annulus_weight_mass(ONE, ball, box) == \
            (pytest.approx(3.0 * math.pi, rel=1e-12), True)

    def test_singular_weight_vs_midpoint_oracle(self):
        w = WeightSpec.distance_power(0.5)
        val, converged = annulus_weight_mass(w, BALL, UNIT)
        assert converged
        M = 10 ** 6
        total = 0.0
        for lo, hi in ((0.3, 0.4), (0.6, 0.7)):
            xs = lo + (hi - lo) * (np.arange(M) + 0.5) / M
            total += (hi - lo) * np.mean(np.minimum(xs, 1.0 - xs) ** -0.5)
        assert val == pytest.approx(total, rel=1e-6)

    def test_kink_inside_annulus_matches_closed_form(self):
        # dist(x)^(-1/2) has its kink at x = 1/2, inside [x0 + r1, x0 + r2]:
        # the annulus is [0.32, 0.37] and [0.49, 0.54]
        w = WeightSpec.distance_power(0.5)
        exact = 2.0 * (math.sqrt(0.37) - math.sqrt(0.32)
                       + 2.0 * math.sqrt(0.5) - math.sqrt(0.49) - math.sqrt(0.46))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val, converged = annulus_weight_mass(w, BallSpec(x0=(0.43,), r1=0.06, r2=0.11),
                                                 UNIT)
            assert converged and annulus_weight_mass(w, BALL, UNIT)[1]
        assert val == pytest.approx(exact, rel=1e-12)

    def test_kinked_2d_weight_reports_unconverged(self):
        # dist(x)^(-0.3) on a 1.2 x 1 box changes its nearest side along
        # each circle around (0.6, 0.5); centred in the unit square it converges
        w = WeightSpec.distance_power(0.3)
        ball = BallSpec(x0=(0.6, 0.5), r1=0.1, r2=0.2)
        val, converged = annulus_weight_mass(w, ball, Domain.box(0.0, 1.2, 0.0, 1.0))
        assert not converged and val == pytest.approx(0.1249, rel=1e-3)
        centred = BallSpec(x0=(0.5, 0.5), r1=0.1, r2=0.2)
        assert annulus_weight_mass(w, centred, Domain.box(0.0, 1.0, 0.0, 1.0))[1]


class TestScalarConstants:
    def test_xi_running_example(self):
        assert compute_xi(2.0, 0.1, 0.2, 0.5, 0.2) == pytest.approx(XI_REF, rel=1e-12)
        assert XI_REF == pytest.approx(1.49071, abs=1e-5)

    def test_xi_linear_in_k(self):
        base = compute_xi(2.0, 0.1, 0.2, 0.5, 0.2)
        assert compute_xi(2.0, 0.1, 0.2, 1.0, 0.2) == pytest.approx(2 * base, rel=1e-15)

    def test_xi_vanishing_mass(self):
        assert compute_xi(2.0, 0.1, 0.2, 0.5, 1e-30) < 1e-14

    def test_eta_running_example(self):
        eta = compute_eta(2.0, 1, 0.1, 0.2, 0.5, 1.0, 0.2, 2.0)
        assert eta == pytest.approx(ETA_REF, rel=1e-12)
        assert eta == pytest.approx(3.00646, abs=1e-4)

    def test_eta_k_scaling(self):
        e1 = compute_eta(2.0, 1, 0.1, 0.2, 0.5, 1.0, 0.2, 2.0)
        e2 = compute_eta(2.0, 1, 0.1, 0.2, 1.0, 1.0, 0.2, 2.0)
        assert e2 == pytest.approx(2 * e1, rel=1e-15)

    def test_eta_third_term_vanishes_with_r1(self):
        r1 = 1e-12
        eta = compute_eta(2.0, 1, r1, 0.2, 0.5, 1.0, 0.2, 2.0)
        t1 = 4.0 * 0.25 * 0.04 / (0.04 - r1 ** 2) ** 2 * 0.2
        t2 = 0.25 * 2.0 * 0.2
        assert eta ** 2 - (t1 + t2) == pytest.approx(0.25 * 2.0 * r1, abs=1e-12)

    def test_r_values(self):
        assert compute_r(1.0, 0.5, 2.0) == pytest.approx(2.0, abs=1e-15)
        for p in (2.0, 3.0, 7.0):
            assert compute_r(0.7, 0.7, p) == pytest.approx(1.0 / p, rel=1e-15)
        assert compute_r(2.0, 1.0, 3.0) == pytest.approx(8.0 / 3.0, rel=1e-15)

    def test_r_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            compute_r(0.0, 0.5, 2.0)
        with pytest.raises(ValueError):
            compute_r(1.0, -1.0, 2.0)


class TestBuildUstar:
    def test_profile_values(self):
        mid = 0.5 + math.sqrt((0.1 ** 2 + 0.2 ** 2) / 2)
        mesh = build_mesh(UNIT, 1 / 64, breakpoints=BALL_BREAKS + (mid,))
        us = build_ustar(1.5, BALL, mesh)
        xv = mesh.vertices[:, 0]
        assert us.values[np.argmin(np.abs(xv - 0.5))] == pytest.approx(1.5)
        assert us.values[np.argmin(np.abs(xv - 0.7))] == pytest.approx(0.0, abs=1e-14)
        assert us.values[np.argmin(np.abs(xv - mid))] == pytest.approx(0.75, rel=1e-12)

    def test_range_and_boundary(self):
        mesh = ball_mesh(1 / 128)
        us = build_ustar(2.0, BALL, mesh)
        assert np.all(us.values >= 0.0) and np.all(us.values <= 2.0)
        assert np.all(us.values[mesh.boundary_vertices] == 0.0)

    def test_under_resolved_mesh(self):
        mesh = build_mesh(UNIT, 0.05)  # only 4 cells across the inner ball
        with pytest.raises(RefinementRequiredError, match="refine"):
            build_ustar(1.0, BALL, mesh)


class TestUstarNorm:
    def test_running_example_direct(self):
        norm3 = ustar_norm_p(1.0, BALL, ONE, 2.0, ball_mesh())
        assert norm3.direct == pytest.approx(NORM_REF, rel=1e-3)

    def test_d_scaling(self):
        mesh = ball_mesh(1 / 128)
        n1 = ustar_norm_p(1.0, BALL, ONE, 2.0, mesh)
        n2 = ustar_norm_p(2.0, BALL, ONE, 2.0, mesh)
        assert n2.direct == pytest.approx(4.0 * n1.direct, rel=1e-12)

    def test_formula_agrees_with_direct(self):
        norm3 = ustar_norm_p(1.0, BALL, ONE, 2.0, ball_mesh())
        assert norm3.formula_corrected == pytest.approx(norm3.direct, rel=1e-4)
        # N=1 is the regime where the printed surface factor w_N already
        # equals N*w_N, so both formula variants coincide
        assert norm3.formula == pytest.approx(norm3.formula_corrected, rel=1e-15)

    def test_gradient_only_variant(self):
        norm3 = ustar_norm_p(1.0, BALL, ONE, 2.0, ball_mesh(), zero_order_term=False)
        assert norm3.direct == pytest.approx(20.7407407407, rel=1e-3)
        assert norm3.formula == norm3.formula_corrected

    def test_unconverged_radial_integral_is_flagged(self):
        # (r2^2 - r^2)^1.1 has an unbounded second derivative at r = r2, so
        # the radial integral of the formula stops unconverged at 128 panels;
        # without the zero-order term only the (converged) annulus part runs
        domain = Domain.interval(0.0, 8.0)
        ball = BallSpec.create((4.0,), 1.0, 3.0, domain)
        mesh = build_mesh(domain, 0.1, breakpoints=(1.0, 3.0, 5.0, 7.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = ustar_norm_p(1.0, ball, ONE, 1.1, mesh)
            gradient_only = ustar_norm_p(1.0, ball, ONE, 1.1, mesh, zero_order_term=False)
        assert not norm.converged
        assert gradient_only.converged
        assert norm.formula == pytest.approx(norm.direct, rel=1e-3)


def make_constants(d=1.0, c=0.2, k=0.5, p=2.0, ball=BALL, w=ONE, h=1 / 512):
    mesh = ball_mesh(h, ball)
    a_mass = annulus_weight_mass(w, ball, UNIT)[0]
    norm3 = ustar_norm_p(d, ball, w, p, mesh)
    r1, r2 = ball.r1, ball.r2
    lower = (2.0 * r1 / (r2 ** 2 - r1 ** 2)) ** p * a_mass * d ** p
    upper = (2.0 ** p * r2 ** p / (r2 ** 2 - r1 ** 2) ** p * a_mass
             + d ** p * 2.0 * r2 + 2.0 * r1) * d ** p
    return Constants(
        w_N=2.0, a_L1_annulus=a_mass, k=k, k_lower=k,
        xi=compute_xi(p, r1, r2, k, a_mass),
        eta=compute_eta(p, 1, r1, r2, k, d, a_mass, 2.0),
        r=compute_r(c, k, p),
        ustar_norm_p=norm3.direct, ustar_norm_formula=norm3.formula,
        ustar_norm_formula_corrected=norm3.formula_corrected,
        sandwich_lower=lower, sandwich_upper=upper)


class TestSandwich:
    def test_running_example(self):
        consts = make_constants()
        assert consts.sandwich_lower == pytest.approx(LOWER_REF, rel=1e-9)
        assert consts.sandwich_upper == pytest.approx(UPPER_REF, rel=1e-9)
        entry = sandwich_check(consts)
        assert entry.verdict == "pass"
        assert consts.sandwich_lower < consts.ustar_norm_p < consts.sandwich_upper

    def test_k_cancellation(self):
        # lower/upper recomputed through xi, eta for two different k values
        # collapse to the same k-free numbers
        for k in (0.25, 0.5, 2.0):
            c = make_constants(k=k)
            assert (c.xi / k) ** 2 == pytest.approx(c.sandwich_lower, rel=1e-12)
            assert (c.eta / k) ** 2 == pytest.approx(c.sandwich_upper, rel=1e-12)

    def test_r2_sweep_stays_pass(self):
        for r2 in (0.11, 0.15, 0.2):
            ball = BallSpec(x0=(0.5,), r1=0.1, r2=r2)
            entry = sandwich_check(make_constants(ball=ball))
            assert entry.verdict == "pass", (r2, entry.margin)

    def test_random_instances(self):
        # the corrected three-term formula tracks direct quadrature at 1e-3
        # and the sandwich is strict across the sampler family
        rng = np.random.default_rng(99)
        for _ in range(20):
            w = ONE if rng.random() < 0.5 else WeightSpec.distance_power(0.5)
            r1 = rng.uniform(0.05, 0.1)
            ball = BallSpec(x0=(rng.uniform(0.3, 0.7),), r1=r1,
                            r2=r1 + rng.uniform(0.05, 0.1))
            consts = make_constants(d=rng.uniform(0.5, 2.0),
                                    p=float(rng.choice([2.0, 3.0])),
                                    ball=ball, w=w, h=1 / 256)
            assert sandwich_check(consts).verdict == "pass"
            assert consts.ustar_norm_formula_corrected == \
                pytest.approx(consts.ustar_norm_p, rel=1e-3)


class TestSampleLayout:
    """The x samples and corners the checks read, in the order they come."""
    BOX = Domain.box(0, 2, 0, 3)

    def test_interval_samples(self):
        np.testing.assert_array_equal(certificate._x_samples(UNIT, n=5),
                                      [[0.0], [0.25], [0.5], [0.75], [1.0]])
        ball = BallSpec.create([0.5], 0.25, 0.3, UNIT)
        np.testing.assert_array_equal(certificate._x_samples(UNIT, exclude_ball=ball, n=5),
                                      [[0.0], [1.0]])
        assert certificate._x_samples(UNIT).shape == (200, 1)

    def test_box_samples_run_x1_fastest(self):
        # n = 10 gives floor(sqrt(10)) = 3 points per axis
        np.testing.assert_array_equal(certificate._x_samples(self.BOX, n=10), [
            [0.0, 0.0], [1.0, 0.0], [2.0, 0.0],
            [0.0, 1.5], [1.0, 1.5], [2.0, 1.5],
            [0.0, 3.0], [1.0, 3.0], [2.0, 3.0]])
        ball = BallSpec.create([1.0, 1.5], 0.5, 0.6, self.BOX)
        np.testing.assert_array_equal(
            certificate._x_samples(self.BOX, exclude_ball=ball, n=10), [
                [0.0, 0.0], [1.0, 0.0], [2.0, 0.0],
                [0.0, 1.5], [2.0, 1.5],
                [0.0, 3.0], [1.0, 3.0], [2.0, 3.0]])
        assert certificate._x_samples(self.BOX).shape == (196, 2)

    def test_corner_points(self):
        np.testing.assert_array_equal(certificate._corner_points(UNIT), [[0.0], [1.0]])
        np.testing.assert_array_equal(certificate._corner_points(self.BOX),
                                      [[0.0, 0.0], [0.0, 3.0], [2.0, 0.0], [2.0, 3.0]])


def per_t_loop(values, nl, xs, ts, reduce, post=None):
    """Reference sampler: one values call per t on all of xs."""
    out = None
    for t in ts:
        v = values(nl, xs, np.full(xs.shape[0], t))
        if post is not None:
            v = post(v, t)
        out = v if out is None else reduce(out, v)
    return out


def same_bits(got, want):
    got = np.ascontiguousarray(np.broadcast_to(got, want.shape))
    want = np.ascontiguousarray(want)
    return np.array_equal(got.view(np.uint64), want.view(np.uint64))


SAMPLED_F = {
    "x-free": shipped_f,
    "x1*t": lambda: make_nonlinearity("x1*t"),
    "quadrature": lambda: make_nonlinearity("sin(t)*cos(t)"),
    "nan": lambda: make_nonlinearity("(x1 - 0.25)^0.5 * t",
                                     primitive="(x1 - 0.25)^0.5 * t^2/2"),
    # F is -0.0 below t = 0.999 and +0.0 from there: every extremum is a
    # tie of zeros, which the per-t loop resolves to the last one
    "signed-zero": lambda: make_nonlinearity("0", primitive="0*(t - 0.999)"),
}


class TestSampleOverT:
    """_sample_over_t against one call per t, and the work it does."""

    @pytest.mark.parametrize("name", sorted(SAMPLED_F))
    @pytest.mark.parametrize("domain", [UNIT, SQUARE], ids=["1d", "2d"])
    def test_bitwise_equal_to_per_t_loop(self, name, domain, monkeypatch):
        with np.errstate(invalid="ignore"):
            nl = SAMPLED_F[name]()
            assert nl.reads_x == (name in ("x1*t", "nan"))
            xs = certificate._x_samples(domain, n=200)
            hv = 1.0 + xs[:, 0]
            # (values, ts, reduce, post) as H1, sup F, H3, H4 and H5 sample;
            # 201 = 8k + 1 rows, where numpy's one-column min.reduce breaks
            # the signed-zero tie another way than the loop
            checks = [
                (primitive_F, np.linspace(0.0, 1.0, 201), np.minimum, None),
                (primitive_F, np.linspace(-1.0, 1.0, 400), np.maximum, None),
                (primitive_F, (1.0, 2.0, -1.0, -2.0), np.minimum,
                 lambda Fv, t: hv * (1.0 + abs(t) ** 1.5) - Fv),
                (primitive_F, (0.0,), np.maximum, lambda Fv, t: np.abs(Fv)),
                (Nonlinearity.eval, np.linspace(-10.0, 10.0, 101), np.maximum,
                 lambda gv, t: np.abs(gv)),
            ]
            # the default chunk (F by quadrature: 25 t per call when x-free),
            # and one that splits every t list above; not for F by quadrature,
            # whose Gauss sums round differently in calls of under 4 points
            for chunk in (certificate._CHUNK, 64)[:1 if nl.primitive is None else 2]:
                monkeypatch.setattr(certificate, "_CHUNK", chunk)
                for values, ts, reduce, post in checks:
                    want = per_t_loop(values, nl, xs, ts, reduce, post)
                    got = certificate._sample_over_t(values, nl, xs, ts, reduce, post)
                    assert got.shape == want.shape or not nl.reads_x and got.shape == (1,)
                    assert same_bits(got, want), (chunk, values.__name__, len(ts))
        if name == "nan":
            assert np.isnan(want).any()

    def test_shipped_spec_samples_t_alone(self, monkeypatch):
        # the shipped f and g read no x: one call per check (per tau for
        # H5), where one call per t made 910
        points = {"F": [], "g": []}

        def counted(values, key):
            def wrapped(nl, x, t):
                points[key].append(np.size(t))
                return values(nl, x, t)
            return wrapped

        # H3 reads F through _primitive_F, which also says whether it converged
        for name in ("primitive_F", "_primitive_F"):
            monkeypatch.setattr(certificate, name, counted(getattr(certificate, name), "F"))
        monkeypatch.setattr(Nonlinearity, "eval", counted(Nonlinearity.eval, "g"))
        spec = shipped_spec()
        check_H1(spec.nl_f, UNIT, BALL, spec.d)
        certificate._sup_F_box(spec.nl_f, UNIT, spec.c, ball_mesh().quadrature()[0])
        check_H3_H4_H5(spec.nl_f, spec.nl_g, spec.gamma, UNIT, spec.c, spec.d)
        assert points["F"] == [200, 400, 6, 1]       # H1, sup F, H3, H4
        assert points["g"] == [101, 101, 101]        # H5 at tau = c, 1 = d, 10
        assert len(points["F"]) + len(points["g"]) <= 8

    def test_x_reading_box_stays_in_chunks(self, monkeypatch):
        # sup F on the box2d mesh (3150 quadrature points) for an f that
        # reads x: every call within the chunk, a small peak
        nl = make_nonlinearity("x1*t")
        xs = build_mesh(SQUARE, 0.1).quadrature()[0]
        F = certificate.primitive_F
        sizes = []

        def counted(nl, x, t):
            sizes.append(np.size(t))
            return F(nl, x, t)

        monkeypatch.setattr(certificate, "primitive_F", counted)
        tracemalloc.start()
        try:
            sup = certificate._sup_F_box(nl, SQUARE, 1.0, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sup == 0.5                             # x1 = 1, t = +-1
        assert sum(sizes) == 400 * (xs.shape[0] + 4)
        assert max(sizes) <= certificate._CHUNK
        assert len(sizes) < 400
        assert peak < 4 * 2 ** 20


class TestHypothesisH1:
    def test_cubic_passes(self):
        nl = make_nonlinearity("t^3", primitive="t^4/4")
        assert check_H1(nl, UNIT, BALL, 1.0).verdict == "pass"

    def test_negative_f_fails_with_witness(self):
        entry = check_H1(make_nonlinearity("-1", primitive="-t"), UNIT, BALL, 1.0)
        assert entry.verdict == "fail"
        assert entry.margin < 0  # the witness minimum is carried in the margin
        assert "min sampled" in entry.note

    def test_sine_up_to_pi(self):
        nl = make_nonlinearity("sin(t)", primitive="1-cos(t)")
        assert check_H1(nl, UNIT, BALL, math.pi).verdict == "pass"


class TestHypothesisH2:
    def test_quartic_pass(self):
        # for F = t^4/4 (sup_F = c^4/4) the inequality reduces to d > eta c
        nl = make_nonlinearity("t^3", primitive="t^4/4")
        entry = check_H2(nl, UNIT, 1.2, 0.5, 2.0, 2.0, sup_F=0.5 ** 4 / 4)
        assert entry.verdict == "pass"
        # margin = (c^2 d^2/4)(d^2 - eta^2 c^2) for this F
        assert entry.margin == pytest.approx(0.91, rel=1e-9)

    def test_quartic_fail_when_c_equals_d(self):
        nl = make_nonlinearity("t^3", primitive="t^4/4")
        entry = check_H2(nl, UNIT, 1.5, 1.0, 1.0, 2.0, sup_F=0.25)
        assert entry.verdict == "fail"
        assert entry.margin < 0

    def test_zero_F_fails_strictness(self):
        entry = check_H2(make_nonlinearity("0", primitive="0*t"), UNIT, 1.0, 1.0, 1.0, 2.0,
                         sup_F=0.0)
        assert entry.verdict == "fail"
        assert entry.margin == 0.0


class TestHypothesesH3H4H5:
    def test_linear_f_heuristic_pass(self):
        nl = make_nonlinearity("t", primitive="0.5*t^2", growth_h="1")
        entries = {e.name: e for e in check_H3_H4_H5(nl, None, 2.0, UNIT, 0.2, 1.0)}
        assert entries["H3"].verdict == "heuristic-pass"
        # tightest sample is t = 100: (1 + t^2) - t^2/2 = 5001
        assert entries["H3"].margin == pytest.approx(5001.0, rel=1e-12)
        assert entries["H4"].verdict == "pass"
        assert entries["H5"].verdict == "pass"  # no g present

    def test_unconverged_F_is_named_in_the_note(self):
        # F by quadrature of an oscillating f at |t| = 1e4 stops at 64 panels;
        # the note says so, and no primitive_F warning escapes (tier-1 makes
        # one an error)
        entry = check_H3(make_nonlinearity("sin(t)*cos(t)", growth_h="1"), 1.0,
                         Domain.interval(0, 1))
        assert entry.verdict == "heuristic-pass"
        assert entry.note.endswith("; quadrature unconverged at 64 panels")
        linear = make_nonlinearity("t", primitive="0.5*t^2", growth_h="1")
        assert "unconverged" not in check_H3(linear, 2.0, Domain.interval(0, 1)).note

    def test_missing_growth_is_inconclusive(self):
        nl = make_nonlinearity("t", primitive="0.5*t^2")
        entries = {e.name: e for e in check_H3_H4_H5(nl, None, 1.0, UNIT, 0.2, 1.0)}
        assert entries["H3"].verdict == "inconclusive"
        assert math.isnan(entries["H3"].margin)

    def test_superlinear_growth_fails(self):
        nl = make_nonlinearity("t^3", primitive="t^4/4", growth_h="1")
        entries = {e.name: e for e in check_H3_H4_H5(nl, None, 2.0, UNIT, 0.2, 1.0)}
        assert entries["H3"].verdict == "fail"

    def test_h5_bounded_g(self):
        g = make_nonlinearity("sin(t)", caratheodory_w="1")
        entries = {e.name: e for e in
                   check_H3_H4_H5(shipped_f(), g, 1.0, UNIT, 0.2, 1.0)}
        assert entries["H5"].verdict == "pass"
        assert entries["H5"].margin >= 0.0

    def test_h5_inferred_envelope(self):
        g = make_nonlinearity("sin(t)")  # no w_tau supplied
        entries = {e.name: e for e in
                   check_H3_H4_H5(shipped_f(), g, 1.0, UNIT, 0.2, 1.0)}
        assert entries["H5"].verdict == "heuristic-pass"

    def test_h5_violated_envelope(self):
        g = make_nonlinearity("3*t", caratheodory_w="1")
        entries = {e.name: e for e in
                   check_H3_H4_H5(shipped_f(), g, 1.0, UNIT, 0.2, 1.0)}
        assert entries["H5"].verdict == "fail"


class TestTheoremConditions:
    def test_running_example(self):
        spec = shipped_spec()
        consts = make_constants()
        # the shipped F vanishes on [-c, c] = [-0.2, 0.2], so sup_F = 0
        entries = {e.name: e for e in
                   check_theorem_conditions(spec, consts, sup_F=0.0)}
        assert entries["dxi_gt_c"].verdict == "pass"
        assert entries["dxi_gt_c"].margin == pytest.approx(XI_REF ** 2 - 0.04, rel=1e-9)
        assert entries["level_separation"].verdict == "pass"
        # r = (1/2)(0.2/0.5)^2 = 0.08 sits between 0 and phi(u*)
        assert consts.r == pytest.approx(0.08, rel=1e-12)
        assert entries["level_separation"].margin == pytest.approx(0.08, rel=1e-9)
        assert entries["bona1"].verdict == "pass"

    def test_bona1_unconverged_integral_noted(self):
        # F(x, u*(x)) has kinks where u* crosses the ramp's corners, off every
        # dyadic panel edge, so 128 panels do not reach the tolerance; the
        # value is kept and the note says so
        spec = shipped_spec()
        consts = make_constants()
        entries = {e.name: e for e in
                   check_theorem_conditions(spec, consts, sup_F=0.0)}
        assert entries["bona1"].note.endswith("; quadrature unconverged at 128 panels")
        assert entries["bona1"].verdict == "pass"
        assert "unconverged" not in entries["dxi_gt_c"].note

    def test_r_positive_always(self):
        for c in (0.1, 1.0, 5.0):
            for k in (0.3, 0.5, 2.0):
                assert compute_r(c, k, 2.0) > 0.0

    def test_bona1_violation_named(self):
        # F = t^2/2 with c = d = 1 (sup_F = 1/2) sends the sup side far above
        # the integral side
        f = make_nonlinearity("t", primitive="0.5*t^2", growth_h="1")
        spec = ProblemSpec(domain=UNIT, weight=ONE, p=2.0, s=2.0, ball=BALL,
                           c=1.0, d=1.0, gamma=1.0, nl_f=f)
        consts = make_constants(c=1.0, d=1.0)
        entries = {e.name: e for e in
                   check_theorem_conditions(spec, consts, sup_F=0.5)}
        assert entries["bona1"].verdict == "fail"
        assert entries["bona1"].margin < 0


class TestProblemSpecValidation:
    def test_p_regime(self):
        with pytest.raises(ValueError, match="p > N"):
            shipped_spec(p=1.0)

    def test_s_regime(self):
        with pytest.raises(ValueError, match="s >"):
            ProblemSpec(domain=UNIT, weight=ONE, p=2.0, s=0.9, ball=BALL,
                        c=0.2, d=1.0, gamma=1.0, nl_f=shipped_f())

    def test_positive_constants(self):
        with pytest.raises(ValueError, match="positive"):
            shipped_spec(c=-0.5)

    def test_ball_containment(self):
        bad = BallSpec(x0=(0.05,), r1=0.1, r2=0.2)
        with pytest.raises(ValueError):
            ProblemSpec(domain=UNIT, weight=ONE, p=2.0, s=2.0, ball=bad,
                        c=0.2, d=1.0, gamma=1.0, nl_f=shipped_f())


class TestBuildCertificate:
    def test_shipped_instance_passes(self):
        rep = build_certificate(shipped_spec(), ball_mesh(1 / 256))
        assert rep.overall == "pass"
        assert rep.exit_code == 0
        verdicts = {e.name: e.verdict for e in rep.entries}
        assert verdicts == {"sandwich": "pass", "H1": "pass", "H2": "pass",
                            "H3": "heuristic-pass", "H4": "pass", "H5": "pass",
                            "dxi_gt_c": "pass", "level_separation": "pass",
                            "bona1": "pass"}

    def test_oversized_c_fails_dxi(self):
        rep = build_certificate(shipped_spec(c=1.5), ball_mesh(1 / 256))
        assert rep.overall == "fail"
        assert rep.exit_code == 2
        assert entry(rep, "dxi_gt_c").verdict == "fail"

    def test_missing_growth_goes_inconclusive(self):
        f = make_nonlinearity("min(max(t - 0.25, 0), 1)",
                              primitive=F_SHIPPED["primitive"])
        spec = ProblemSpec(domain=UNIT, weight=ONE, p=2.0, s=2.0, ball=BALL,
                           c=0.2, d=1.0, gamma=1.0, nl_f=f, nl_g=shipped_g())
        rep = build_certificate(spec, ball_mesh(1 / 256))
        assert entry(rep, "H3").verdict == "inconclusive"
        assert rep.overall == "inconclusive"
        assert rep.exit_code == 3

    def test_sup_F_sampled_once(self, monkeypatch):
        # H2 and bona1 share one sampled sup of F over the box
        calls = []
        sample = certificate._sup_F_box

        def counted(*args):
            calls.append(args)
            return sample(*args)

        monkeypatch.setattr(certificate, "_sup_F_box", counted)
        rep = build_certificate(shipped_spec(), ball_mesh(1 / 256))
        assert len(calls) == 1
        assert rep.overall == "pass"

    def test_nan_samples_read_inconclusive(self):
        # F is NaN wherever x1 < 0.25, so no sampled minimum, sup or integral
        # over the domain certifies anything
        with np.errstate(invalid="ignore"):
            f = make_nonlinearity("(x1 - 0.25)^0.5 * t",
                                  primitive="(x1 - 0.25)^0.5 * t^2/2", growth_h="1")
            spec = ProblemSpec(domain=UNIT, weight=ONE, p=2.0, s=2.0, ball=BALL,
                               c=0.2, d=1.0, gamma=1.0, nl_f=f, nl_g=shipped_g())
            rep = build_certificate(spec, ball_mesh(1 / 256))
        for name in ("H1", "H2", "H3"):
            assert entry(rep, name).verdict == "inconclusive"
        assert all(e.verdict == "inconclusive" for e in rep.entries
                   if not math.isfinite(e.margin))
        assert rep.overall == "inconclusive"

    @pytest.mark.parametrize("c", [0.2, 1.5])
    def test_no_verdict_reads_k_lower(self, c, monkeypatch):
        mesh = ball_mesh(1 / 256)
        emb = estimate_k(UNIT, ONE, 2.0, 2.0, mesh)
        reps = []
        for k_lower in (emb.k_lower, 1e-3 * emb.k_lower):
            monkeypatch.setattr(certificate, "estimate_k",
                                lambda *args, k_lower=k_lower:
                                dataclasses.replace(emb, k_lower=k_lower))
            reps.append(build_certificate(shipped_spec(c=c), mesh))
        assert reps[0].constants.k_lower != reps[1].constants.k_lower
        assert [vars(e) for e in reps[0].entries] == [vars(e) for e in reps[1].entries]
        assert reps[0].overall == reps[1].overall == ("pass" if c == 0.2 else "fail")

    @pytest.mark.parametrize("dim", [1, 2], ids=["shipped_1d", "box2d"])
    def test_constants_from_one_formula_at_one_k(self, dim):
        # the sandwich bounds are (xi d / k)^p and (eta d / k)^p written
        # through compute_xi and compute_eta at k = 1, and xi, eta and r are
        # theirs and compute_r's at k = k_upper, bit for bit
        if dim == 1:
            spec, mesh = shipped_spec(), ball_mesh(1 / 256)
        else:
            spec = ProblemSpec(domain=SQUARE, weight=ONE, p=3.0, s=3.0,
                               ball=BallSpec(x0=(0.5, 0.5), r1=0.1, r2=0.2),
                               c=0.2, d=1.0, gamma=1.0, nl_f=shipped_f(), nl_g=shipped_g())
            mesh = build_mesh(SQUARE, 0.1)
        consts = build_certificate(spec, mesh).constants
        p, d, (r1, r2) = spec.p, spec.d, (spec.ball.r1, spec.ball.r2)
        a_mass = consts.a_L1_annulus
        assert consts.sandwich_lower == (compute_xi(p, r1, r2, 1.0, a_mass) * d) ** p
        assert consts.sandwich_upper == \
            (compute_eta(p, dim, r1, r2, 1.0, d, a_mass, consts.w_N) * d) ** p
        k = k_upper_bound(spec.weight, p, spec.s, mesh)
        assert (consts.k, consts.xi, consts.eta, consts.r) == \
            (k, compute_xi(p, r1, r2, k, a_mass),
             compute_eta(p, dim, r1, r2, k, d, a_mass, consts.w_N), compute_r(spec.c, k, p))

    def test_implication_chain_random_instances(self, monkeypatch):
        # overall pass must imply every individual non-heuristic entry passed;
        # whenever the sandwich and d^p xi^p > c^p hold, 0 < r < phi(u*)
        rng = np.random.default_rng(5150)
        mesh64 = build_mesh(UNIT, 1 / 64)
        embeddings = {
            "constant": estimate_k(UNIT, ONE, 2.0, 2.0, mesh64),
            "distance_power": estimate_k(UNIT, WeightSpec.distance_power(0.5),
                                         2.0, 2.0, mesh64),
        }
        monkeypatch.setattr(certificate, "estimate_k",
                            lambda domain, w, *args: embeddings[w.form])
        for _ in range(100):
            w = ONE if rng.random() < 0.5 else WeightSpec.distance_power(0.5)
            r1 = rng.uniform(0.05, 0.1)
            ball = BallSpec(x0=(rng.uniform(0.3, 0.7),), r1=r1,
                            r2=r1 + rng.uniform(0.05, 0.1))
            c = rng.uniform(0.05, 1.5)
            d = rng.uniform(0.5, 2.0)
            spec = ProblemSpec(domain=UNIT, weight=w, p=2.0, s=2.0, ball=ball,
                               c=c, d=d, gamma=1.0, nl_f=shipped_f(), nl_g=shipped_g())
            x0 = ball.x0[0]
            mesh = build_mesh(UNIT, 1 / 64, breakpoints=(
                x0 - ball.r2, x0 - ball.r1, x0 + ball.r1, x0 + ball.r2))
            rep = build_certificate(spec, mesh)
            strict = [e for e in rep.entries if e.verdict != "heuristic-pass"]
            if rep.overall == "pass":
                assert all(e.verdict == "pass" for e in strict)
            consts = rep.constants
            if (entry(rep, "sandwich").verdict == "pass"
                    and entry(rep, "dxi_gt_c").verdict == "pass"):
                assert consts.r > 0.0
                assert consts.ustar_norm_p / 2.0 > consts.r


class TestGaussPanels:
    def test_smooth_integrand_converges(self):
        val, converged = _gauss_panels(np.cos, 0.0, 1.0)
        assert converged
        assert val == pytest.approx(math.sin(1.0), rel=1e-14)

    def test_kinked_integrand_flagged(self):
        # |x - 1/3| has its kink off every dyadic panel edge: O(h^2) error
        val, converged = _gauss_panels(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0)
        assert not converged
        assert val == pytest.approx(5.0 / 18.0, rel=1e-5)

    def test_scalar_integral_is_a_python_float(self):
        # numpy 2 reprs np.float64 as np.float64(...), so written notes and
        # reports need the plain float
        val, _ = _gauss_panels(np.cos, 0.0, 1.0)
        assert type(val) is float

    def test_values_converge_together(self):
        # one integral per row; the doubling stops once every row has settled
        rows = lambda x: np.stack([np.cos(x), x ** 2, np.exp(x)])
        val, converged = _gauss_panels(rows, 0.0, 1.0)
        assert converged and val.shape == (3,)
        np.testing.assert_allclose(val, [math.sin(1.0), 1.0 / 3.0, math.e - 1.0], rtol=1e-14)
        # a kinked row keeps the whole batch doubling to the panel cap
        kinked = lambda x: np.stack([np.cos(x), np.abs(x - 1.0 / 3.0)])
        val, converged = _gauss_panels(kinked, 0.0, 1.0)
        assert not converged
        assert val[1] == pytest.approx(5.0 / 18.0, rel=1e-5)

    def test_h2_note_clean_when_converged(self):
        entry = check_H2(shipped_f(), UNIT, 3.0, 0.2, 1.0, 2.0, sup_F=0.0)
        assert "unconverged" not in entry.note
