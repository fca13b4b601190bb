"""Weight functions a(x) and the effective Sobolev exponent p_s.

Both weight forms are admissible for exponents (p, s) on a bounded domain:
a > 0, a and a^(-1/(p-1)) are locally integrable, and a^(-s) is integrable
over the whole domain.  The regime p > p_s > N with p_s = p*s/(s+1), i.e.
s > N/(p-N), is enforced by ProblemSpec.  Only this module reads a weight's
form; the others ask WeightSpec.singular_on_boundary.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Domain, distance_to_boundary

__all__ = [
    "WeightSpec",
    "eval_weight",
    "compute_ps",
    "weight_lower_bound",
]


@dataclass(frozen=True)
class WeightSpec:
    """Weight a(x): 'constant' (value) or 'distance_power' (dist^(-l), l = exponent;
    l = 0 is a = 1).  The field a form does not read must keep its default,
    so that a value given for it is never silently dropped."""

    form: str
    value: float = 1.0
    exponent: float = 0.0

    def __post_init__(self):
        if self.form not in ("constant", "distance_power"):
            raise ValueError(f"unknown weight form {self.form!r} (constant | distance_power)")
        if self.form == "constant" and self.value <= 0:
            raise ValueError("constant weight must be positive")
        if self.form == "distance_power" and self.exponent < 0:
            raise ValueError("distance_power exponent must be >= 0")
        unread = "exponent" if self.form == "constant" else "value"
        given = getattr(self, unread)
        if given != getattr(WeightSpec, unread):      # the class attribute is the default
            raise ValueError(f"a {self.form} weight does not read {unread!r} (given {given})")

    @property
    def singular_on_boundary(self) -> bool:
        """Whether a blows up on the boundary: distance_power with exponent > 0."""
        return self.form == "distance_power" and self.exponent > 0

    @staticmethod
    def constant(value: float) -> "WeightSpec":
        return WeightSpec("constant", value=float(value))

    @staticmethod
    def distance_power(l: float) -> "WeightSpec":
        return WeightSpec("distance_power", exponent=float(l))


def eval_weight(w: WeightSpec, domain: Domain, x: np.ndarray) -> np.ndarray:
    """a(x) at the points x, an (m, N) array, as an (m,) array."""
    if w.form == "constant":
        return np.full(x.shape[0], w.value)
    d = distance_to_boundary(domain, x)
    if w.singular_on_boundary and np.any(d <= 0):
        raise ValueError("distance_power weight is singular on the boundary")
    return d ** -w.exponent


def weight_lower_bound(w: WeightSpec, domain: Domain) -> float:
    """Closed-form essential infimum of a over the domain."""
    if w.form == "constant":
        return w.value
    lo, hi = domain.axes.T
    inradius = 0.5 * float(np.min(hi - lo))
    return inradius ** -w.exponent


def compute_ps(p: float, s: float) -> float:
    """Effective Sobolev exponent p_s = p*s/(s+1)."""
    if p <= 1 or s <= 0:
        raise ValueError("need p > 1 and s > 0")
    return p * s / (s + 1.0)
