import math

import numpy as np
import pytest

from wplap.geometry import Domain
from wplap.weight import WeightSpec, compute_ps, eval_weight, weight_lower_bound


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
    np.testing.assert_array_equal(eval_weight(w, dom, np.array([[0.37]])), [1.0])
    np.testing.assert_allclose(eval_weight(w, dom, np.array([[0.1], [0.9]])), [1.0, 1.0])


def test_eval_distance_power():
    dom = Domain.interval(0, 1)
    quarter = eval_weight(WeightSpec.distance_power(1.0), dom, np.array([[0.25]]))
    assert quarter.shape == (1,) and quarter[0] == pytest.approx(4.0)
    assert eval_weight(WeightSpec.distance_power(0.5), dom, np.array([[0.5]]))[0] == \
        pytest.approx(1.0 / math.sqrt(0.5))


def test_eval_at_boundary_singularity():
    dom = Domain.interval(0, 1)
    w = WeightSpec.distance_power(0.5)
    with pytest.raises(ValueError):
        eval_weight(w, dom, np.array([[0.0]]))


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


def test_weight_lower_bound():
    dom = Domain.interval(0, 1)
    assert weight_lower_bound(WeightSpec.constant(2.5), dom) == pytest.approx(2.5)
    assert weight_lower_bound(WeightSpec.distance_power(0.5), dom) >= 1.0


def test_unknown_form_lists_the_forms():
    with pytest.raises(ValueError,
                       match=r"unknown weight form 'power' \(constant \| distance_power\)"):
        WeightSpec("power")


def test_singular_on_boundary_is_distance_power_with_positive_exponent():
    assert WeightSpec.distance_power(0.5).singular_on_boundary
    assert not WeightSpec.distance_power(0.0).singular_on_boundary
    assert not WeightSpec.constant(2.0).singular_on_boundary


def test_exponent_zero_is_the_unit_weight():
    # d^(-0) is exactly 1, on the boundary and off it
    dom = Domain.box(0, 1, 0, 2)
    xs = np.array([[0.0, 0.0], [0.3, 1.7], [0.5, 1.0], [1.0, 0.4]])
    one, flat = WeightSpec.constant(1.0), WeightSpec.distance_power(0.0)
    np.testing.assert_array_equal(eval_weight(flat, dom, xs), eval_weight(one, dom, xs))
    assert weight_lower_bound(flat, dom) == weight_lower_bound(one, dom) == 1.0


@pytest.mark.parametrize("keys, unread", [
    ({"form": "distance_power", "exponent": 0.5, "value": 5.0}, "value"),
    ({"form": "constant", "value": 2.0, "exponent": 2.0}, "exponent"),
])
def test_weight_rejects_the_key_its_form_does_not_read(keys, unread):
    with pytest.raises(ValueError, match=f"does not read '{unread}'"):
        WeightSpec(**keys)
    WeightSpec(**{**keys, unread: getattr(WeightSpec, unread)})   # at its default it is accepted
