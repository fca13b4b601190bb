import math

import numpy as np
import pytest

from wplap.geometry import Domain
from wplap.weight import (WeightSpec, check_admissibility, compute_ps,
                          eval_weight, weight_lower_bound)


def test_weightspec_validation():
    WeightSpec.constant(2.0)
    WeightSpec.distance_power(0.5)
    with pytest.raises(ValueError):
        WeightSpec.constant(0.0)
    with pytest.raises(ValueError):
        WeightSpec.constant(-1.0)
    with pytest.raises(ValueError):
        WeightSpec.distance_power(-0.1)


def test_eval_constant():
    w = WeightSpec.constant(1.0)
    dom = Domain.interval(0, 1)
    assert eval_weight(w, dom, 0.37) == 1.0
    np.testing.assert_allclose(eval_weight(w, dom, np.array([[0.1], [0.9]])), [1.0, 1.0])


def test_eval_distance_power():
    dom = Domain.interval(0, 1)
    assert eval_weight(WeightSpec.distance_power(1.0), dom, 0.25) == pytest.approx(4.0)
    assert eval_weight(WeightSpec.distance_power(0.5), dom, 0.5) == pytest.approx(
        1.0 / math.sqrt(0.5))


def test_eval_at_boundary_singularity():
    dom = Domain.interval(0, 1)
    w = WeightSpec.distance_power(0.5)
    with pytest.raises(ValueError):
        eval_weight(w, dom, 0.0)


def test_positive_everywhere():
    dom = Domain.interval(0, 1)
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.01, 0.99, size=(100, 1))
    for w in (WeightSpec.constant(0.3), WeightSpec.distance_power(0.5),
              WeightSpec.distance_power(1.0)):
        assert np.all(eval_weight(w, dom, xs) > 0)


def test_compute_ps():
    assert compute_ps(3, 2) == pytest.approx(2.0)
    assert compute_ps(2, 2) == pytest.approx(4.0 / 3.0)
    # monotone increasing in s, approaching p
    vals = [compute_ps(2, s) for s in (1, 2, 5, 50, 5000)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 2.0


def test_ps_regime():
    # s > N/(p-N) forces p > p_s > N
    for (p, n) in ((2.0, 1), (3.0, 1), (3.0, 2), (2.5, 2)):
        s = n / (p - n) + 0.5
        ps = compute_ps(p, s)
        assert n < ps < p


def test_admissibility_constant():
    rep = check_admissibility(WeightSpec.constant(1.0), Domain.interval(0, 1), 2.0, 2.0)
    assert rep.a_local == "pass" and rep.a_inv_local == "pass"
    assert rep.a_minus_s_global == "pass" and rep.regime_ok
    assert rep.p_s == pytest.approx(4.0 / 3.0)
    assert rep.mode == "closed-form"
    assert rep.admissible


def test_admissibility_constant_random_regimes():
    rng = np.random.default_rng(7)
    dom = Domain.interval(0, 1)
    for _ in range(10):
        p = rng.uniform(1.5, 4.0)
        s = 1.0 / (p - 1.0) + rng.uniform(0.1, 3.0)  # N=1
        rep = check_admissibility(WeightSpec.constant(1.0), dom, p, s)
        assert rep.admissible


def test_admissibility_distance_power_integrable():
    # a^{-s} = dist^{s l} with l=0.5, s=2: integral of dist on (0,1) is 1/4
    rep = check_admissibility(WeightSpec.distance_power(0.5),
                              Domain.interval(0, 1), 2.0, 2.0)
    assert rep.admissible
    assert rep.a_minus_s_estimates[-1] == pytest.approx(0.25, rel=1e-4)


def test_admissibility_l1_local_but_not_global():
    # dist^{-1} is locally integrable on compacts but the global integral
    # diverges; the exhaustion estimates keep growing and the report says so
    rep = check_admissibility(WeightSpec.distance_power(1.0),
                              Domain.interval(0, 1), 2.0, 2.0)
    assert rep.a_local == "pass"
    assert rep.a_local_estimates[-1] > rep.a_local_estimates[0] + 1.0
    assert any("diverges" in note for note in rep.notes)


def test_regime_violation_flagged():
    rep = check_admissibility(WeightSpec.constant(1.0), Domain.interval(0, 1),
                              2.0, 0.5)  # s <= N/(p-N) = 1
    assert not rep.regime_ok
    assert not rep.admissible


def test_weight_lower_bound():
    dom = Domain.interval(0, 1)
    assert weight_lower_bound(WeightSpec.constant(2.5), dom) == pytest.approx(2.5)
    assert weight_lower_bound(WeightSpec.distance_power(0.5), dom) >= 1.0
