"""Constants, the witness bump u*, the norm sandwich, and hypothesis checks."""
import math
import warnings

import numpy as np
import pytest

from wplap import certificate
from wplap.certificate import (
    _gauss_panels,
    _gauss_value,
    Constants,
    ProblemSpec,
    RefinementRequiredError,
    annulus_weight_mass,
    build_certificate,
    build_ustar,
    check_H1,
    check_H2,
    check_H3_H4_H5,
    check_theorem_conditions,
    compute_eta,
    compute_r,
    compute_xi,
    sandwich_check,
    ustar_norm_p,
)
from wplap.energy import make_nonlinearity
from wplap.geometry import BallSpec, Domain, build_mesh
from wplap.space import estimate_k
from wplap.weight import WeightSpec

UNIT = Domain.interval(0.0, 1.0)
ONE = WeightSpec.constant(1.0)
BALL = BallSpec(x0=(0.5,), r1=0.1, r2=0.2)
BALL_BREAKS = (0.3, 0.4, 0.6, 0.7)

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
        assert annulus_weight_mass(ONE, BALL, UNIT) == pytest.approx(0.2, abs=1e-12)

    def test_unit_weight_2d(self):
        box = Domain.box(-3.0, 3.0, -3.0, 3.0)
        ball = BallSpec(x0=(0.0, 0.0), r1=1.0, r2=2.0)
        assert annulus_weight_mass(ONE, ball, box) == \
            pytest.approx(3.0 * math.pi, rel=1e-12)

    def test_singular_weight_vs_midpoint_oracle(self):
        w = WeightSpec.distance_power(0.5)
        val = annulus_weight_mass(w, BALL, UNIT)
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
            val = annulus_weight_mass(w, BallSpec(x0=(0.43,), r1=0.06, r2=0.11), UNIT)
            annulus_weight_mass(w, BALL, UNIT)
        assert val == pytest.approx(exact, rel=1e-12)


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


def make_constants(d=1.0, c=0.2, k=0.5, p=2.0, ball=BALL, w=ONE, h=1 / 512):
    mesh = ball_mesh(h, ball)
    a_mass = annulus_weight_mass(w, ball, UNIT)
    norm3 = ustar_norm_p(d, ball, w, p, mesh)
    r1, r2 = ball.r1, ball.r2
    lower = (2.0 * r1 / (r2 ** 2 - r1 ** 2)) ** p * a_mass * d ** p
    upper = (2.0 ** p * r2 ** p / (r2 ** 2 - r1 ** 2) ** p * a_mass
             + d ** p * 2.0 * r2 + 2.0 * r1) * d ** p
    return Constants(
        w_N=2.0, a_L1_annulus=a_mass, k=k, k_mode="certified", k_lower=k,
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
                   check_theorem_conditions(spec, consts, 0.0, consts.ustar_norm_p / 2.0,
                                            sup_F=0.0)}
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
                   check_theorem_conditions(spec, consts, 0.0, consts.ustar_norm_p / 2.0,
                                            sup_F=0.0)}
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
                   check_theorem_conditions(spec, consts, 0.0, consts.ustar_norm_p / 2.0,
                                            sup_F=0.5)}
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
        assert rep.entry("dxi_gt_c").verdict == "fail"

    def test_missing_growth_goes_inconclusive(self):
        f = make_nonlinearity("min(max(t - 0.25, 0), 1)",
                              primitive=F_SHIPPED["primitive"])
        spec = ProblemSpec(domain=UNIT, weight=ONE, p=2.0, s=2.0, ball=BALL,
                           c=0.2, d=1.0, gamma=1.0, nl_f=f, nl_g=shipped_g())
        rep = build_certificate(spec, ball_mesh(1 / 256))
        assert rep.entry("H3").verdict == "inconclusive"
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

    def test_k_variants_recorded(self):
        rep = build_certificate(shipped_spec(), ball_mesh(1 / 256))
        kv = rep.constants.k_variants
        assert set(kv) == {"k_upper", "k_lower"}
        for label in kv:
            k = kv[label]["k"]
            assert kv[label]["r"] == pytest.approx(compute_r(0.2, k, 2.0), rel=1e-12)

    def test_implication_chain_random_instances(self):
        # overall pass must imply every individual non-heuristic entry passed;
        # whenever the sandwich and d^p xi^p > c^p hold, 0 < r < phi(u*)
        rng = np.random.default_rng(5150)
        mesh64 = build_mesh(UNIT, 1 / 64)
        embeddings = {
            "constant": estimate_k(UNIT, ONE, 2.0, 2.0, mesh64),
            "distance_power": estimate_k(UNIT, WeightSpec.distance_power(0.5),
                                         2.0, 2.0, mesh64),
        }
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
            rep = build_certificate(spec, mesh, embedding=embeddings[w.form])
            strict = [e for e in rep.entries if e.verdict != "heuristic-pass"]
            if rep.overall == "pass":
                assert all(e.verdict == "pass" for e in strict)
            consts = rep.constants
            if (rep.entry("sandwich").verdict == "pass"
                    and rep.entry("dxi_gt_c").verdict == "pass"):
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

    def test_gauss_value_warns_when_unconverged(self):
        with pytest.warns(RuntimeWarning, match="^Gauss panel doubling .* at 128 panels"):
            _gauss_value(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0)

    def test_h2_note_clean_when_converged(self):
        entry = check_H2(shipped_f(), UNIT, 3.0, 0.2, 1.0, 2.0, sup_F=0.0)
        assert "unconverged" not in entry.note
