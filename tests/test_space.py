"""Discrete functions, weighted norms, and the embedding constant."""
import math
import tracemalloc

import numpy as np
import pytest

from wplap.geometry import Domain, build_mesh
from wplap.space import (
    DiscreteFunction,
    QuadratureError,
    estimate_k,
    k_upper_bound,
    sup_norm,
    talenti_bound,
    weighted_norm,
)
from wplap.weight import WeightSpec

UNIT = Domain.interval(0.0, 1.0)
SQUARE = Domain.box(0.0, 1.0, 0.0, 1.0)
ONE = WeightSpec.constant(1.0)


def interval_mesh(h, **kw):
    return build_mesh(UNIT, h, **kw)


def random_interior(mesh, rng, clip_cells=0):
    """Random boundary-zero nodal vector, optionally zeroed near the boundary."""
    vals = rng.standard_normal(mesh.num_vertices)
    if clip_cells:
        xv = mesh.vertices[:, 0]
        d = np.minimum(xv, 1.0 - xv)
        vals[d < clip_cells / 64.0 - 1e-12] = 0.0
    return DiscreteFunction(mesh, vals)


class TestDiscreteFunction:
    def test_boundary_zero_enforced(self):
        mesh = interval_mesh(0.25)
        u = DiscreteFunction(mesh, np.ones(mesh.num_vertices))
        assert np.all(u.values[mesh.boundary_vertices] == 0.0)
        assert np.all(u.values[mesh.interior_vertices] == 1.0)

    def test_wrong_length_rejected(self):
        mesh = interval_mesh(0.25)
        with pytest.raises(ValueError):
            DiscreteFunction(mesh, np.ones(mesh.num_vertices + 1))


class TestWeightedNorm:
    def test_zero_function(self):
        mesh = interval_mesh(0.25)
        u = DiscreteFunction(mesh, np.zeros(mesh.num_vertices))
        assert weighted_norm(u, ONE, 2.0).full_norm == 0.0

    def test_parabola_closed_form(self):
        # int u^2 = 1/30, int (u')^2 = 1/3 for u = x(1-x); the h = 1/512
        # interpolant carries an h^2/3 gradient defect, hence 1.5e-6 not 1e-6
        mesh = interval_mesh(1 / 512)
        u = DiscreteFunction(mesh, mesh.vertices[:, 0] * (1 - mesh.vertices[:, 0]))
        rep = weighted_norm(u, ONE, 2.0)
        assert rep.lp_term == pytest.approx(1 / 30, abs=1.5e-6)
        assert rep.grad_term == pytest.approx(1 / 3, abs=1.5e-6)
        assert rep.full_norm == pytest.approx(math.sqrt(11 / 30), abs=1.5e-6)

    def test_singular_weight_vs_midpoint_oracle(self):
        # support kept off the boundary-adjacent cells so the integrand stays
        # bounded; otherwise both quadratures chase the dist^(-1/2) spike
        mesh = interval_mesh(1 / 64)
        w = WeightSpec.distance_power(0.5)
        rng = np.random.default_rng(7)
        u = random_interior(mesh, rng, clip_cells=2)
        rep = weighted_norm(u, w, 2.0)

        M = 10 ** 6
        xs = (np.arange(M) + 0.5) / M
        xv = mesh.vertices[:, 0]
        uv = np.interp(xs, xv, u.values)
        slopes = np.diff(u.values) / np.diff(xv)
        idx = np.clip(np.searchsorted(xv, xs) - 1, 0, len(slopes) - 1)
        a = np.minimum(xs, 1.0 - xs) ** -0.5
        oracle = np.mean(np.abs(uv) ** 2) + np.mean(a * np.abs(slopes[idx]) ** 2)
        assert rep.lp_term + rep.grad_term == pytest.approx(oracle, rel=1e-4)

    def test_nonfinite_weight_reports_cell(self):
        # d^(-400) overflows at the quadrature points nearest the boundary
        mesh = interval_mesh(0.25)
        u = random_interior(mesh, np.random.default_rng(0))
        with np.errstate(over="ignore"), \
                pytest.raises(QuadratureError, match="non-finite weight contribution in cell 0"):
            weighted_norm(u, WeightSpec.distance_power(400.0), 2.0)

    def test_homogeneity(self):
        mesh = interval_mesh(1 / 32)
        rng = np.random.default_rng(3)
        u = random_interior(mesh, rng)
        for p in (2.0, 2.5, 3.0):
            base = weighted_norm(u, ONE, p)
            for c in (-2.0, 0.5, 3.0):
                scaled = weighted_norm(DiscreteFunction(u.mesh, c * u.values), ONE, p)
                assert scaled.lp_term == pytest.approx(abs(c) ** p * base.lp_term, rel=1e-12)
                assert scaled.grad_term == pytest.approx(abs(c) ** p * base.grad_term, rel=1e-12)
                assert scaled.full_norm == pytest.approx(abs(c) * base.full_norm, rel=1e-12)

    def test_triangle_inequality(self):
        mesh = interval_mesh(1 / 32)
        rng = np.random.default_rng(11)
        for p in (2.0, 3.0):
            for _ in range(20):
                u = random_interior(mesh, rng)
                v = random_interior(mesh, rng)
                s = weighted_norm(DiscreteFunction(u.mesh, u.values + v.values), ONE, p).full_norm
                assert s <= (weighted_norm(u, ONE, p).full_norm
                             + weighted_norm(v, ONE, p).full_norm + 1e-10)

    def test_report_ordering(self):
        mesh = interval_mesh(1 / 32)
        u = random_interior(mesh, np.random.default_rng(5))
        rep = weighted_norm(u, ONE, 2.0)
        assert rep.lp_term >= 0 and rep.grad_term >= 0
        assert rep.full_norm >= rep.a_norm


class TestSupNorm:
    def test_zero(self):
        mesh = interval_mesh(0.25)
        assert sup_norm(DiscreteFunction(mesh, np.zeros(mesh.num_vertices))) == 0.0

    def test_hat(self):
        mesh = interval_mesh(0.25)
        vals = np.zeros(mesh.num_vertices)
        vals[np.argmin(np.abs(mesh.vertices[:, 0] - 0.5))] = 1.0
        assert sup_norm(DiscreteFunction(mesh, vals)) == 1.0

    def test_parabola_vertex(self):
        mesh = interval_mesh(0.125)  # node at 0.5
        u = DiscreteFunction(mesh, mesh.vertices[:, 0] * (1 - mesh.vertices[:, 0]))
        assert sup_norm(u) == pytest.approx(0.25)


class TestTalentiBound:
    def test_reference_values(self):
        # Gamma(3/2) = sqrt(pi)/2 collapses every N=1, |Omega|=1 case to 1/2
        assert talenti_bound(1, 2.0, 1.0) == pytest.approx(0.5, abs=1e-14)
        assert talenti_bound(1, 1.5, 1.0) == pytest.approx(0.5, abs=1e-14)
        assert talenti_bound(1, 2.0, 4.0) == pytest.approx(1.0, abs=1e-14)

    def test_regime_error(self):
        with pytest.raises(ValueError):
            talenti_bound(1, 1.0, 1.0)
        with pytest.raises(ValueError):
            talenti_bound(2, 1.5, 1.0)


class TestEstimateK:
    def test_unit_weight_two_sided(self):
        # symmetric hat: sup = 1, int (u')^2 = 4, int u^2 = 1/3
        est = estimate_k(UNIT, ONE, 2.0, 2.0, interval_mesh(1 / 64))
        assert est.k_lower >= math.sqrt(3 / 13) - 1e-12
        assert est.k_upper == pytest.approx(0.5, abs=1e-12)
        assert est.k_lower <= est.k_upper
        assert est.k == est.k_upper

    def test_witness_achieves_lower(self):
        mesh = interval_mesh(1 / 64)
        est = estimate_k(UNIT, ONE, 2.0, 2.0, mesh)
        rep = weighted_norm(est.witness, ONE, 2.0)
        assert sup_norm(est.witness) / rep.full_norm == pytest.approx(est.k_lower, rel=1e-12)

    def test_ratio_scale_invariance(self):
        mesh = interval_mesh(1 / 32)
        u = random_interior(mesh, np.random.default_rng(2))
        r1 = sup_norm(u) / weighted_norm(u, ONE, 2.0).full_norm
        v = DiscreteFunction(u.mesh, -7.5 * u.values)
        r2 = sup_norm(v) / weighted_norm(v, ONE, 2.0).full_norm
        assert r1 == pytest.approx(r2, rel=1e-13)

    def test_monotone_in_weight(self):
        mesh = interval_mesh(1 / 64)
        k1 = estimate_k(UNIT, ONE, 2.0, 2.0, mesh)
        k4 = estimate_k(UNIT, WeightSpec.constant(4.0), 2.0, 2.0, mesh)
        assert k4.k_lower <= k1.k_lower
        assert k4.k_lower <= k4.k_upper

    def test_sub_unit_weights_keep_k_lower_below_k_upper(self):
        # Hoelder through int a^(-s) makes k_upper rigorous for every a > 0,
        # so the point-load k_lower stays below it where a < 1 too
        cases = [(UNIT, WeightSpec.constant(0.5), 2.0, 1 / 128, 0.65615, 1 / math.sqrt(2)),
                 (UNIT, WeightSpec.constant(0.25), 2.0, 1 / 128, 0.87269, 1.0),
                 (Domain.box(0.0, 3.0, 0.0, 3.0), WeightSpec.distance_power(0.5), 3.0, 0.3,
                  0.82356, 1.32790),
                 (SQUARE, WeightSpec.constant(0.25), 3.0, 0.1,
                  0.98175, 1.60930)]
        for domain, w, p, h, k_lower, k_upper in cases:
            est = estimate_k(domain, w, p, p, build_mesh(domain, h))
            assert est.k_lower <= est.k_upper
            assert est.k_lower == pytest.approx(k_lower, abs=1e-5)
            assert est.k_upper == pytest.approx(k_upper, abs=1e-5)

    def test_memory_is_linear_in_nv(self):
        # one point-load solve holds O(nv) vectors and the tangent's
        # block-tridiagonal storage; one cone hat per interior node, (nv, ni)
        # hats and their quadrature temporaries, would peak at 242 MB here
        domain = SQUARE
        mesh = build_mesh(domain, 0.05)
        assert mesh.num_vertices == 900
        tracemalloc.start()
        try:
            est = estimate_k(domain, ONE, 3.0, 3.0, mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20
        assert est.k_lower <= est.k_upper

    def test_point_load_beats_every_cone_hat(self):
        # with a distance_power weight at h = 1/512 the best cone hat over
        # every interior node reaches 0.3744713; the point-load solution
        # reaches 0.38698, still below k_upper
        est = estimate_k(UNIT, WeightSpec.distance_power(0.3), 2.0, 2.0, interval_mesh(1 / 512))
        assert 0.38698 <= est.k_lower <= est.k_upper

    def test_k_lower_pinned_1d_shipped(self):
        # the shipped instance (a = 1, p = s = 2) on its mesh at h = 1/256
        mesh = interval_mesh(1 / 256, breakpoints=(0.3, 0.4, 0.6, 0.7))
        est = estimate_k(UNIT, ONE, 2.0, 2.0, mesh)
        assert est.k_lower == pytest.approx(0.4806855074305207, rel=1e-12, abs=0)

    def test_k_lower_pinned_unit_square(self):
        est = estimate_k(SQUARE, ONE, 3.0, 3.0, build_mesh(SQUARE, 0.1))
        assert est.k_lower == pytest.approx(0.6243873620328089, rel=1e-12, abs=0)

    def test_p2_constant_weight_is_the_green_function_value(self):
        # at p = 2, a = 1 the maximizer is the Green function of -u'' + u on
        # (0, 1) with pole 1/2, and k^2 = G(1/2, 1/2) = sinh(1/2)^2 / sinh(1)
        est = estimate_k(UNIT, ONE, 2.0, 2.0, interval_mesh(1 / 512))
        exact = math.sqrt(math.sinh(0.5) ** 2 / math.sinh(1.0))
        assert est.k_lower == pytest.approx(exact, abs=1e-7)

    def test_large_p_starts_from_the_scaled_cone(self):
        # the tangent at u = 0 scales like eps^(p-2): a descent started there
        # stalls at once at p = 10 (k_lower 0.0117)
        est = estimate_k(UNIT, ONE, 10.0, 10.0, interval_mesh(1 / 256))
        assert 0.4999 <= est.k_lower <= est.k_upper

    def test_load_at_the_node_nearest_the_centre(self):
        # 1.2 x 1 box: the centre node gives 0.57285, the lowest-index node
        # farthest from the boundary 0.57123
        domain = Domain.box(0.0, 1.2, 0.0, 1.0)
        est = estimate_k(domain, WeightSpec.distance_power(0.3), 3.0, 3.0,
                         build_mesh(domain, 0.08))
        assert 0.5728 <= est.k_lower <= est.k_upper

    def test_unconverged_solve_still_gives_a_lower_bound(self):
        # at p = 1.5 with a = dist the solve stops at its 50-iteration cap
        # (scaled residual 2.4); its best iterate is admissible, so its ratio
        # bounds k from below all the same
        est = estimate_k(UNIT, WeightSpec.distance_power(1.0), 1.5, 4.0, interval_mesh(1 / 256))
        assert 0.2134 <= est.k_lower <= est.k_upper

    def test_refinement_raises_k_lower(self):
        # p = N + 1 on the unit square: the finer mesh resolves the pole better
        coarse, fine = (estimate_k(SQUARE, ONE, 3.0, 3.0, build_mesh(SQUARE, h)).k_lower
                        for h in (1 / 16, 1 / 32))
        assert fine > coarse

    @pytest.mark.parametrize("domain,p,h,breakpoints", [
        (UNIT, 2.0, 1 / 256, (0.3, 0.4, 0.6, 0.7)), (SQUARE, 3.0, 0.1, ())],
        ids=["shipped_1d", "box2d"])
    def test_witness_attains_the_point_capacity(self, domain, p, h, breakpoints):
        # the minimizer u of phi(u) - u(x_i) has ||u||^p = u(x_i), so its
        # ratio u(x_i) / ||u|| is u(x_i)^((p-1)/p)
        est = estimate_k(domain, ONE, p, p, build_mesh(domain, h, breakpoints=breakpoints))
        assert est.witness.values.max() ** ((p - 1) / p) == pytest.approx(
            est.k_lower, rel=0, abs=1e-8)

    def test_sup_dominated_by_upper_bound(self):
        # sup |u| <= k_upper ||u|| for every weight a > 0
        mesh = interval_mesh(1 / 64)
        rng = np.random.default_rng(19)
        for w in (ONE, WeightSpec.constant(4.0), WeightSpec.constant(0.25)):
            est = estimate_k(UNIT, w, 2.0, 2.0, mesh)
            for _ in range(25):
                u = random_interior(mesh, rng)
                assert sup_norm(u) <= est.k_upper * weighted_norm(u, w, 2.0).full_norm + 1e-12


@pytest.mark.parametrize("w", [ONE, WeightSpec.distance_power(0.5)],
                         ids=["constant", "distance_power"])
@pytest.mark.parametrize("domain,h,p,s", [(UNIT, 1 / 64, 2.0, 2.0),
                                          (SQUARE, 0.2, 3.0, 3.0)],
                         ids=["1d", "2d"])
def test_k_upper_bound_is_estimate_k_upper(domain, h, p, s, w):
    mesh = build_mesh(domain, h)
    est = estimate_k(domain, w, p, s, mesh)
    assert k_upper_bound(domain, w, p, s, mesh) == est.k_upper


def norm_ratios(family, w, p):
    """full_norm / a_norm of each function of the family."""
    return [rep.full_norm / rep.a_norm for rep in (weighted_norm(u, w, p) for u in family)]


class TestNormEquivalenceProbe:
    def test_random_family_bounds(self):
        mesh = interval_mesh(1 / 128)
        rng = np.random.default_rng(23)
        ratios = norm_ratios([random_interior(mesh, rng) for _ in range(100)], ONE, 2.0)
        assert min(ratios) >= 1.0
        # ratio^2 = 1 + int u^2 / int (u')^2 <= 1 + 1/pi^2 by the Poincare bound
        assert max(ratios) <= math.sqrt(1 + 1 / math.pi ** 2) * (1 + 1e-3)

    def test_constant_multiples_identical(self):
        mesh = interval_mesh(1 / 32)
        u = random_interior(mesh, np.random.default_rng(4))
        ratios = norm_ratios([DiscreteFunction(u.mesh, c * u.values)
                              for c in (1.0, -3.0, 0.1)], ONE, 2.0)
        assert min(ratios) == pytest.approx(max(ratios), rel=1e-13)
