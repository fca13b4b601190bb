"""Weight functions a(x) and the admissibility conditions of the weighted space.

A weight is admissible for exponents (p, s) when a > 0 a.e.,
a and a^(-1/(p-1)) are locally integrable, and a^(-s) is integrable over the
whole domain.  The regime of interest additionally demands
p > p_s > N with p_s = p*s/(s+1), i.e. s > N/(p-N).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Domain, build_mesh, distance_to_boundary

__all__ = [
    "WeightSpec",
    "AdmissibilityReport",
    "eval_weight",
    "check_admissibility",
    "compute_ps",
    "weight_lower_bound",
]


@dataclass(frozen=True)
class WeightSpec:
    """Weight a(x): 'constant' (value) or 'distance_power' (dist^(-l), l = exponent)."""

    form: str
    value: float = 1.0
    exponent: float = 0.0

    def __post_init__(self):
        if self.form not in ("constant", "distance_power"):
            raise ValueError(f"unknown weight form {self.form!r}")
        if self.form == "constant" and self.value <= 0:
            raise ValueError("constant weight must be positive")
        if self.form == "distance_power" and self.exponent < 0:
            raise ValueError("distance_power exponent must be >= 0")

    @staticmethod
    def constant(value: float) -> "WeightSpec":
        return WeightSpec("constant", value=float(value))

    @staticmethod
    def distance_power(l: float) -> "WeightSpec":
        return WeightSpec("distance_power", exponent=float(l))


def eval_weight(w: WeightSpec, domain: Domain, x) -> np.ndarray:
    """Evaluate a(x) at points x ((m, N) array, (N,) point or scalar)."""
    if w.form == "constant":
        shape = np.asarray(x, dtype=float).reshape(-1, domain.dim).shape[0]
        out = np.full(shape, w.value)
    else:
        d = np.atleast_1d(distance_to_boundary(domain, x))
        if w.exponent > 0 and np.any(d <= 0):
            raise ValueError("distance_power weight is singular on the boundary")
        out = d ** (-w.exponent) if w.exponent > 0 else np.ones(d.shape)
    if np.isscalar(x) or np.asarray(x).ndim <= 1 and out.size == 1:
        return float(out[0])
    return out


def weight_lower_bound(w: WeightSpec, domain: Domain) -> float:
    """Closed-form essential infimum of a over the domain."""
    if w.form == "constant":
        return w.value
    b = domain.bounds
    if domain.kind == "interval":
        inradius = 0.5 * (b[1] - b[0])
    elif domain.kind == "box":
        inradius = 0.5 * min(b[1] - b[0], b[3] - b[2])
    else:
        inradius = b[-1]
    return inradius ** (-w.exponent) if w.exponent > 0 else 1.0


def compute_ps(p: float, s: float) -> float:
    """Effective Sobolev exponent p_s = p*s/(s+1)."""
    if p <= 1 or s <= 0:
        raise ValueError("need p > 1 and s > 0")
    return p * s / (s + 1.0)


@dataclass
class AdmissibilityReport:
    p: float
    s: float
    p_s: float
    regime_ok: bool              # p > p_s > N
    positivity: str
    a_local: str                 # a in L1_loc
    a_inv_local: str             # a^(-1/(p-1)) in L1_loc
    a_minus_s_global: str        # a^(-s) in L1(Omega)
    mode: str                    # 'closed-form'
    admissible: bool
    exhaustion_depth: int
    a_local_estimates: list = field(default_factory=list)
    a_inv_local_estimates: list = field(default_factory=list)
    a_minus_s_estimates: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def _shrunken_domain(domain: Domain, delta: float) -> Domain:
    b = domain.bounds
    if domain.kind == "interval":
        return Domain.interval(b[0] + delta, b[1] - delta)
    if domain.kind == "box":
        return Domain.box(b[0] + delta, b[1] - delta, b[2] + delta, b[3] - delta)
    return Domain.ball(b[:-1], b[-1] - delta)


def _integrate_over_compact(fn, domain: Domain, delta: float) -> float:
    """Integral of fn(points) over K = {dist >= delta}, graded toward the edge
    of K where the integrand may be steep."""
    if domain.dim == 1:
        a, b = domain.bounds
        mid = 0.5 * (a + b)
        xi, wq = np.polynomial.legendre.leggauss(10)
        total = 0.0
        for lo0, hi0, sign in ((a + delta, mid, 1.0), (mid, b - delta, -1.0)):
            # geometric panels away from the K-boundary
            if sign > 0:
                edges = [lo0]
                step = delta
                while edges[-1] + step < hi0:
                    edges.append(edges[-1] + step)
                    step *= 2.0
                edges.append(hi0)
            else:
                edges = [hi0]
                step = delta
                while edges[-1] - step > lo0:
                    edges.append(edges[-1] - step)
                    step *= 2.0
                edges.append(lo0)
                edges = edges[::-1]
            for lo, hi in zip(edges[:-1], edges[1:]):
                pts = 0.5 * (hi - lo) * (xi + 1.0) + lo
                total += 0.5 * (hi - lo) * float(wq @ fn(pts[:, None]))
        return total
    if domain.kind == "ball":
        # polar quadrature: geometric radial panels toward the rim, periodic
        # trapezoid in the angle
        center = np.asarray(domain.bounds[:-1])
        rmax = domain.bounds[-1] - delta
        edges = [rmax]
        step = delta
        while edges[-1] - step > 0.0:
            edges.append(edges[-1] - step)
            step *= 2.0
        edges.append(0.0)
        edges = edges[::-1]
        xi, wq = np.polynomial.legendre.leggauss(10)
        theta = np.linspace(0.0, 2.0 * math.pi, 33)[:-1]
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            r = 0.5 * (hi - lo) * (xi + 1.0) + lo
            wr = 0.5 * (hi - lo) * wq * r
            pts = center + np.stack([np.outer(r, np.cos(theta)),
                                     np.outer(r, np.sin(theta))], axis=-1).reshape(-1, 2)
            vals = fn(pts).reshape(r.size, theta.size)
            total += float(wr @ vals.mean(axis=1)) * 2.0 * math.pi
        return total
    shrunk = _shrunken_domain(domain, delta)
    mesh = build_mesh(shrunk, max(shrunk.diameter / 24.0, delta), grading_depth=6)
    pts, wts, _, _ = mesh.quadrature()
    return float(wts @ fn(pts))


def check_admissibility(w: WeightSpec, domain: Domain, p: float, s: float,
                        exhaustion_depth: int = 8) -> AdmissibilityReport:
    """Check the four admissibility conditions on a compact exhaustion
    K_j = {dist(x, boundary) >= 2^(-j) * diam / 4}, j = 1..exhaustion_depth.

    Both weight forms have closed-form verdicts; the quadrature sequence is
    attached as evidence.
    """
    p_s = compute_ps(p, s)
    n = domain.dim
    regime_ok = p > p_s > n
    diam = domain.diameter

    def a_at(x):
        return np.atleast_1d(eval_weight(w, domain, x))

    est_a, est_inv, est_ms = [], [], []
    for j in range(1, exhaustion_depth + 1):
        delta = 2.0 ** (-j) * diam / 4.0
        est_a.append(_integrate_over_compact(lambda x: a_at(x), domain, delta))
        est_inv.append(_integrate_over_compact(
            lambda x: a_at(x) ** (-1.0 / (p - 1.0)), domain, delta))
        est_ms.append(_integrate_over_compact(lambda x: a_at(x) ** (-s), domain, delta))

    notes = []
    if w.form == "distance_power" and w.exponent >= 1.0:
        notes.append(
            f"global integral of a diverges (exponent {w.exponent} >= 1): "
            f"exhaustion estimates {est_a[-2]:.6g} -> {est_a[-1]:.6g}; "
            "only local integrability is required")
    if not regime_ok:
        notes.append(f"regime violated: need p > p_s > N, got p={p}, p_s={p_s:.6g}, N={n}")

    # a > 0 is bounded on every K_j, and a^(-1/(p-1)) = d^(l/(p-1)) and
    # a^(-s) = d^(l*s) are bounded on the bounded domain
    return AdmissibilityReport(
        p=p, s=s, p_s=p_s, regime_ok=regime_ok, positivity="pass",
        a_local="pass", a_inv_local="pass", a_minus_s_global="pass",
        mode="closed-form", admissible=regime_ok, exhaustion_depth=exhaustion_depth,
        a_local_estimates=est_a, a_inv_local_estimates=est_inv,
        a_minus_s_estimates=est_ms, notes=notes)
