"""Hypothesis certificate: every constant and inequality behind the
three-solution argument, evaluated for one concrete problem instance.

The witness u* equals d on the inner ball, decays quadratically across the
annulus, and vanishes outside:

    u*(x) = d (r2^2 - |x - x0|^2) / (r2^2 - r1^2)   on r1 <= |x - x0| <= r2.

From it come the sandwich bounds xi^p d^p / k^p < ||u*||^p < eta^p d^p / k^p,
the level r = (1/p)(c/k)^p, and the checks H1..H5 plus the derived conditions
(level separation, d^p xi^p > c^p, and the sublevel inequality).  Verdicts use
the vocabulary pass / heuristic-pass / fail / inconclusive; "pass" for a
sampled check is accompanied by mode="sampled", "heuristic-pass" is reserved
for checks whose domain cannot be exhausted (unbounded t) or whose metadata
had to be inferred.  Strict inequalities with margin below 1e-9 come back
inconclusive rather than pass.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .energy import Nonlinearity, primitive_F
from .geometry import BallSpec, Domain, Mesh, domain_measure, unit_ball_volume
from .space import DiscreteFunction, EmbeddingEstimate, NormReport, estimate_k, weighted_norm
from .weight import WeightSpec, eval_weight

__all__ = [
    "ProblemSpec",
    "Constants",
    "CheckEntry",
    "CertificateReport",
    "RefinementRequiredError",
    "annulus_weight_mass",
    "compute_xi",
    "compute_eta",
    "compute_r",
    "build_ustar",
    "ustar_norm_p",
    "UstarNorm",
    "sandwich_check",
    "check_H1",
    "check_H2",
    "check_H3_H4_H5",
    "check_theorem_conditions",
    "build_certificate",
]

_GUARD = 1e-9       # strictness guard band: smaller margins are inconclusive
_GL = leggauss(20)


class RefinementRequiredError(ValueError):
    """Mesh too coarse to resolve the ball pair."""


@dataclass(frozen=True)
class ProblemSpec:
    domain: Domain
    weight: WeightSpec
    p: float
    s: float
    ball: BallSpec
    c: float
    d: float
    gamma: float
    nl_f: Nonlinearity
    nl_g: Nonlinearity | None = None
    zero_order_term: bool = True

    def __post_init__(self):
        N = self.domain.dim
        if not self.p > N:
            raise ValueError(f"need p > N, got p={self.p}, N={N}")
        if self.p - N > 0 and not self.s > N / (self.p - N):
            raise ValueError(f"need s > N/(p-N) = {N / (self.p - N):.6g}, got s={self.s}")
        if self.c <= 0 or self.d <= 0 or self.gamma <= 0:
            raise ValueError("c, d, gamma must be positive")
        # ball containment re-checked (BallSpec.create validates at build time)
        BallSpec.create(self.ball.x0, self.ball.r1, self.ball.r2, self.domain)


@dataclass
class Constants:
    w_N: float
    a_L1_annulus: float
    k: float
    k_mode: str
    k_lower: float
    xi: float
    eta: float
    r: float
    ustar_norm_p: float            # direct quadrature of the interpolated u*
    ustar_norm_formula: float      # three-term formula as printed (w_N factor)
    ustar_norm_formula_corrected: float  # with the N*w_N surface factor
    sandwich_lower: float          # k-free: (2 r1 / (r2^2-r1^2))^p a_mass d^p
    sandwich_upper: float
    k_variants: dict = field(default_factory=dict)  # k value -> (xi, eta, r)

    def validate(self):
        vals = [self.w_N, self.a_L1_annulus, self.k, self.xi, self.eta, self.r,
                self.ustar_norm_p, self.sandwich_lower, self.sandwich_upper]
        if not all(math.isfinite(v) and v > 0 for v in vals):
            raise ValueError("certificate constants must be finite and positive")


@dataclass
class CheckEntry:
    name: str
    verdict: str          # pass | heuristic-pass | fail | inconclusive
    margin: float
    mode: str = "sampled"  # closed-form | sampled
    note: str = ""


@dataclass
class CertificateReport:
    constants: Constants
    entries: list
    overall: str
    notes: list = field(default_factory=list)

    def entry(self, name: str) -> CheckEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    @property
    def exit_code(self) -> int:
        if self.overall == "pass":
            return 0
        if any(e.verdict == "fail" for e in self.entries):
            return 2
        return 3


def _strict_verdict(margin: float) -> str:
    if margin <= 0:
        return "fail"
    if margin < _GUARD:
        return "inconclusive"
    return "pass"


def _overall(entries) -> str:
    if any(e.verdict == "fail" for e in entries):
        return "fail"
    if any(e.verdict == "inconclusive" for e in entries):
        return "inconclusive"
    return "pass"


_MAX_PANELS = 128
_UNCONVERGED = f"; quadrature unconverged at {_MAX_PANELS} panels"


def _gauss_panels(fn, lo: float, hi: float, tol: float = 1e-11) -> tuple[float, bool]:
    """Composite 20-point Gauss with panel doubling to a relative tolerance.

    Returns (value, converged); when _MAX_PANELS panels still change the value
    by more than tol, the last value comes back with converged = False."""
    xg, wg = _GL
    prev = None
    for panels in (1, 2, 4, 8, 16, 32, 64, _MAX_PANELS):
        edges = np.linspace(lo, hi, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        pts = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
        wts = (half[:, None] * wg[None, :]).ravel()
        val = float(np.dot(fn(pts), wts))
        if prev is not None and abs(val - prev) <= tol * max(1.0, abs(val)):
            return val, True
        prev = val
    return val, False


def _gauss_value(fn, lo: float, hi: float) -> float:
    """_gauss_panels for integrals that carry no note: warn when unconverged."""
    val, converged = _gauss_panels(fn, lo, hi)
    if not converged:
        warnings.warn(f"Gauss panel doubling on [{lo:.6g}, {hi:.6g}] unconverged at "
                      f"{_MAX_PANELS} panels", RuntimeWarning, stacklevel=2)
    return val


def _annulus_integral(fn_radial, domain: Domain, ball: BallSpec) -> float:
    """Integral over the annulus of a function given pointwise as fn(points).

    1D: two intervals, each split where it crosses the domain midpoint (the
    kink of dist(x), so of distance-power weights).  2D: polar quadrature
    (trapezoid in angle is spectrally accurate for periodic integrands)."""
    x0 = np.asarray(ball.x0)
    r1, r2 = ball.r1, ball.r2
    if domain.dim == 1:
        mid = 0.5 * (domain.bounds[0] + domain.bounds[1])
        total = 0.0
        for sign in (-1.0, 1.0):
            def side(t, sign=sign):
                return fn_radial(np.column_stack([x0[0] + sign * t]))
            kink = sign * (mid - x0[0])
            cuts = [r1, kink, r2] if r1 < kink < r2 else [r1, r2]
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                total += _gauss_value(side, lo, hi)
        return total
    n_ang = 64
    theta = np.linspace(0.0, 2 * np.pi, n_ang, endpoint=False)
    ct, st = np.cos(theta), np.sin(theta)

    def ring(rr: np.ndarray) -> np.ndarray:
        pts = np.empty((rr.size * n_ang, 2))
        pts[:, 0] = (x0[0] + rr[:, None] * ct[None, :]).ravel()
        pts[:, 1] = (x0[1] + rr[:, None] * st[None, :]).ravel()
        vals = fn_radial(pts).reshape(rr.size, n_ang)
        return vals.mean(axis=1) * (2 * np.pi) * rr

    return _gauss_value(ring, r1, r2)


def annulus_weight_mass(w: WeightSpec, ball: BallSpec, domain: Domain) -> float:
    """||a||_{L^1} over B(x0, r2) \\ B(x0, r1)."""
    val = _annulus_integral(lambda pts: np.asarray(eval_weight(w, domain, pts)),
                            domain, ball)
    if not (math.isfinite(val) and val > 0):
        raise ValueError(f"annulus weight mass not finite/positive: {val}")
    return val


def compute_xi(p: float, r1: float, r2: float, k: float, a_mass: float) -> float:
    return (2.0 * k * r1 / (r2 ** 2 - r1 ** 2)) * a_mass ** (1.0 / p)


def compute_eta(p: float, N: int, r1: float, r2: float, k: float, d: float,
                a_mass: float, w_N: float) -> float:
    # as printed; the d^p factor in the middle term is flagged in the report
    t1 = 2.0 ** p * k ** p * r2 ** p / (r2 ** 2 - r1 ** 2) ** p * a_mass
    t2 = k ** p * d ** p * w_N * r2 ** N / N
    t3 = k ** p * w_N * r1 ** N
    return (t1 + t2 + t3) ** (1.0 / p)


def compute_r(c: float, k: float, p: float) -> float:
    if c <= 0 or k <= 0:
        raise ValueError("c and k must be positive")
    return (1.0 / p) * (c / k) ** p


def _ustar_values(pts: np.ndarray, d: float, ball: BallSpec) -> np.ndarray:
    x0 = np.asarray(ball.x0)
    rr = np.linalg.norm(np.atleast_2d(pts) - x0[None, :], axis=1)
    r1sq, r2sq = ball.r1 ** 2, ball.r2 ** 2
    vals = d * (r2sq - rr ** 2) / (r2sq - r1sq)
    vals = np.where(rr <= ball.r1, d, vals)
    return np.clip(vals, 0.0, d)


def build_ustar(d: float, ball: BallSpec, mesh: Mesh) -> DiscreteFunction:
    """Nodal interpolation of the quadratic bump; requires the mesh to put at
    least 8 cells across the inner ball."""
    x0 = np.asarray(ball.x0)
    dist = np.linalg.norm(mesh.vertices[mesh.cells].mean(axis=1) - x0[None, :], axis=1)
    inner_cells = int(np.count_nonzero(dist < ball.r1))
    if inner_cells < 8:
        raise RefinementRequiredError(
            f"only {inner_cells} cells inside B(x0, r1); need at least 8 - refine the mesh")
    return DiscreteFunction(mesh, _ustar_values(mesh.vertices, d, ball))


@dataclass
class UstarNorm:
    direct: float               # weighted_norm(interpolated u*)^p
    formula: float              # surface factor w_N as printed
    formula_corrected: float    # surface factor N*w_N


def ustar_norm_p(d: float, ball: BallSpec, w: WeightSpec, p: float, mesh: Mesh,
                 zero_order_term: bool = True) -> UstarNorm:
    """||u*||^p two ways: direct quadrature of the interpolant, and the
    three-term radial formula (gradient term + annulus mass + inner mass)."""
    domain = mesh.domain
    ustar = build_ustar(d, ball, mesh)
    rep: NormReport = weighted_norm(ustar, w, p)
    direct = (rep.full_norm if zero_order_term else rep.a_norm) ** p

    N = mesh.dim
    r1, r2 = ball.r1, ball.r2
    w_N = unit_ball_volume(N)
    denom = (r2 ** 2 - r1 ** 2) ** p
    grad = 2.0 ** p * d ** p / denom * _annulus_integral(
        lambda pts: np.asarray(eval_weight(w, domain, pts))
        * np.linalg.norm(np.atleast_2d(pts) - np.asarray(ball.x0)[None, :], axis=1) ** p,
        domain, ball)
    if zero_order_term:
        radial = _gauss_value(lambda rr: (r2 ** 2 - rr ** 2) ** p * rr ** (N - 1), r1, r2)
        annulus_mass = d ** p / denom * radial
        inner_mass = d ** p * w_N * r1 ** N
        formula = grad + w_N * annulus_mass + inner_mass
        corrected = grad + N * w_N * annulus_mass + inner_mass
    else:
        formula = corrected = grad
    return UstarNorm(direct=direct, formula=formula, formula_corrected=corrected)


def sandwich_check(constants: Constants) -> CheckEntry:
    """xi^p d^p / k^p < ||u*||^p < eta^p d^p / k^p against the direct norm.

    Both bounds are k-free after substitution, so the verdict does not depend
    on the embedding estimate."""
    lo, hi = constants.sandwich_lower, constants.sandwich_upper
    direct = constants.ustar_norm_p
    margin = min(direct - lo, hi - direct)
    verdict = _strict_verdict(margin)
    return CheckEntry(name="sandwich", verdict=verdict, margin=margin,
                      mode="closed-form",
                      note=f"lower={lo:.9g} direct={direct:.9g} upper={hi:.9g}")


def _x_samples(domain: Domain, exclude_ball: BallSpec | None = None,
               n: int = 200) -> np.ndarray:
    """Deterministic x grid over the closed domain, optionally dropping the
    inner ball; includes the corners."""
    if domain.dim == 1:
        a, b = domain.bounds
        xs = np.linspace(a, b, n)[:, None]
    else:
        m = max(2, int(math.isqrt(n)))
        x1 = np.linspace(domain.bounds[0], domain.bounds[1], m)
        x2 = np.linspace(domain.bounds[2], domain.bounds[3], m)
        xs = np.stack(np.meshgrid(x1, x2), axis=-1).reshape(-1, 2)
    if exclude_ball is not None:
        x0 = np.asarray(exclude_ball.x0)
        keep = np.linalg.norm(xs - x0[None, :], axis=1) > exclude_ball.r1
        xs = xs[keep]
    return xs


def check_H1(nl_f: Nonlinearity, domain: Domain, ball: BallSpec, d: float) -> CheckEntry:
    """F(x,t) >= 0 on (closure(Omega) minus B(x0,r1)) x [0,d], sampled on a
    200 x 200 grid."""
    xs = _x_samples(domain, exclude_ball=ball, n=200)
    ts = np.linspace(0.0, d, 200)
    worst = math.inf
    for t in ts:
        Fv = primitive_F(nl_f, xs, np.full(xs.shape[0], t))
        worst = min(worst, float(np.min(Fv)))
    if worst < -1e-9:
        verdict = "fail"
    elif worst >= -1e-12:
        verdict = "pass"
    else:
        verdict = "inconclusive"
    return CheckEntry(name="H1", verdict=verdict, margin=worst, mode="sampled",
                      note=f"min sampled F on (domain minus inner ball) x [0,d] = {worst:.3e}")


def _sup_F_box(nl_f: Nonlinearity, domain: Domain, c: float,
               xs: np.ndarray) -> float:
    """max F over the points xs (the domain corners appended) x 400 values of
    t in [-c, c]."""
    xs = np.vstack([xs, _corner_points(domain)])
    ts = np.linspace(-c, c, 400)
    sup = -math.inf
    for t in ts:
        Fv = primitive_F(nl_f, xs, np.full(xs.shape[0], t))
        sup = max(sup, float(np.max(Fv)))
    return sup


def check_H2(nl_f: Nonlinearity, domain: Domain, eta: float, c: float,
             d: float, p: float, sup_F: float) -> CheckEntry:
    """d^p eta^p |Omega| sup_{Omega x [-c,c]} F  <  c^p Int F(x,d) dx,
    with sup_F the sup of F over the domain x [-c, c] (build_certificate
    samples it with _sup_F_box)."""
    omega = domain_measure(domain)
    left = d ** p * eta ** p * omega * sup_F
    converged = True
    if domain.dim == 1:
        a, b = domain.bounds
        integral, converged = _gauss_panels(
            lambda t: primitive_F(nl_f, np.column_stack([t]), np.full(t.size, d)), a, b)
    else:
        integral = _box_integral(
            lambda pts: primitive_F(nl_f, pts, np.full(pts.shape[0], d)), domain)
    right = c ** p * integral
    margin = right - left
    verdict = _strict_verdict(margin)
    return CheckEntry(name="H2", verdict=verdict, margin=margin, mode="sampled",
                      note=f"left={left:.9g} right={right:.9g}"
                           + ("" if converged else _UNCONVERGED))


def _corner_points(domain: Domain) -> np.ndarray:
    if domain.dim == 1:
        a, b = domain.bounds
        return np.array([[a], [b]])
    x1a, x1b, x2a, x2b = domain.bounds
    return np.array([[x1a, x2a], [x1a, x2b], [x1b, x2a], [x1b, x2b]])


def _box_integral(fn, domain: Domain) -> float:
    xg, wg = _GL
    x1a, x1b, x2a, x2b = domain.bounds
    m1 = 0.5 * (x1a + x1b) + 0.5 * (x1b - x1a) * xg
    m2 = 0.5 * (x2a + x2b) + 0.5 * (x2b - x2a) * xg
    W = np.outer(wg, wg) * (0.25 * (x1b - x1a) * (x2b - x2a))
    P = np.stack(np.meshgrid(m1, m2), axis=-1).reshape(-1, 2)
    return float(np.dot(fn(P), W.ravel()))


def check_H3_H4_H5(nl_f: Nonlinearity, nl_g: Nonlinearity | None, gamma: float,
                   domain: Domain, c: float, d: float) -> list:
    """H3: F(x,t) < h(x)(1+|t|^gamma) sampled at |t| in {1e2, 1e3, 1e4};
    H4: F(x,0) = 0;  H5: sup_{|t|<=tau} |g| <= w_tau for tau in {1, c, d, 10}."""
    xs = _x_samples(domain, n=200)
    out = []

    # H3 (coercivity growth): unbounded t, so at best heuristic
    if nl_f.growth_h is None:
        out.append(CheckEntry(name="H3", verdict="inconclusive", margin=math.nan,
                              mode="sampled",
                              note="no growth envelope h(x) supplied; coercivity unknown"))
    else:
        worst = math.inf
        for t in (1e2, 1e3, 1e4, -1e2, -1e3, -1e4):
            Fv = primitive_F(nl_f, xs, np.full(xs.shape[0], t))
            hv = _eval_x_expr(nl_f.growth_h, xs)
            bound = hv * (1.0 + abs(t) ** gamma)
            worst = min(worst, float(np.min(bound - Fv)))
        verdict = "heuristic-pass" if worst > 0 else "fail"
        out.append(CheckEntry(name="H3", verdict=verdict, margin=worst, mode="sampled",
                              note="sampled at |t| in {1e2,1e3,1e4}; growth beyond the"
                                   " sampled range is not certified"))

    # H4: the primitive-integral construction gives F(x,0)=0 identically
    F0 = primitive_F(nl_f, xs, np.zeros(xs.shape[0]))
    m = float(np.max(np.abs(F0)))
    out.append(CheckEntry(name="H4", verdict="pass" if m <= 1e-12 else "fail",
                          margin=-m, mode="closed-form",
                          note="F(x,0) = 0 by construction of the primitive"))

    # H5: Caratheodory envelope for g
    if nl_g is None:
        out.append(CheckEntry(name="H5", verdict="pass", margin=0.0,
                              mode="closed-form", note="no g term present"))
        return out
    taus = sorted({1.0, c, d, 10.0})
    worst = math.inf
    inferred = nl_g.caratheodory_w is None
    for tau in taus:
        ts = np.linspace(-tau, tau, 101)
        sup_g = np.zeros(xs.shape[0])
        for t in ts:
            gv = np.abs(nl_g.eval(xs, np.full(xs.shape[0], t)))
            sup_g = np.maximum(sup_g, gv)
        if inferred:
            # envelope inferred from the samples themselves: always consistent,
            # reported as heuristic
            margin_tau = 0.0
        else:
            wv = _eval_x_expr(nl_g.caratheodory_w, xs, tau=tau)
            margin_tau = float(np.min(wv - sup_g))
        worst = min(worst, margin_tau)
    if inferred:
        out.append(CheckEntry(name="H5", verdict="heuristic-pass", margin=0.0,
                              mode="sampled",
                              note=f"no w_tau supplied; sampled envelope recorded for tau in {taus}"))
    else:
        verdict = "pass" if worst >= -1e-12 else "fail"
        out.append(CheckEntry(name="H5", verdict=verdict, margin=worst, mode="sampled",
                              note=f"tau list {taus}"))
    return out


def _eval_x_expr(expr, xs: np.ndarray, tau: float | None = None) -> np.ndarray:
    env = {"x1": xs[:, 0]}
    if xs.shape[1] > 1:
        env["x2"] = xs[:, 1]
    if tau is not None:
        env["tau"] = np.full(xs.shape[0], tau)
    out = expr(**{k: v for k, v in env.items() if k in expr.variables})
    return np.broadcast_to(np.asarray(out, dtype=float), (xs.shape[0],)).copy()


def check_theorem_conditions(spec: ProblemSpec, constants: Constants,
                             phi_zero: float, phi_ustar: float, sup_F: float) -> list:
    """The derived conditions: d^p xi^p > c^p, the level separation
    phi(0) < r < phi(u*), and the sublevel inequality with u0 = 0, u1 = u*:

        |Omega| max_{[-c,c]} F <= (c/(k ||u*||))^p Int F(x, u*) dx,

    with sup_F the sup of F over the domain x [-c, c] (as in check_H2)."""
    out = []
    p, c, d = spec.p, spec.c, spec.d
    m1 = d ** p * constants.xi ** p - c ** p
    out.append(CheckEntry(name="dxi_gt_c", verdict=_strict_verdict(m1), margin=m1,
                          mode="closed-form",
                          note=f"d^p xi^p = {d ** p * constants.xi ** p:.9g}, c^p = {c ** p:.9g}"))

    m2 = min(constants.r - phi_zero, phi_ustar - constants.r)
    out.append(CheckEntry(name="level_separation", verdict=_strict_verdict(m2),
                          margin=m2, mode="closed-form",
                          note=f"phi(0)={phi_zero:.9g} < r={constants.r:.9g} < "
                               f"phi(u*)={phi_ustar:.9g}"))

    omega = domain_measure(spec.domain)
    left = omega * sup_F
    ustar_norm = constants.ustar_norm_p ** (1.0 / p)

    def F_at_ustar(pts: np.ndarray) -> np.ndarray:
        pts2 = np.atleast_2d(pts)
        uvals = _ustar_values(pts2, d, spec.ball)
        return primitive_F(spec.nl_f, pts2, uvals)

    converged = True
    if spec.domain.dim == 1:
        a, b = spec.domain.bounds
        integral, converged = _gauss_panels(lambda t: F_at_ustar(np.column_stack([t])), a, b)
    else:
        integral = _box_integral(F_at_ustar, spec.domain)
    right = (c / (constants.k * ustar_norm)) ** p * integral
    m3 = right - left
    # this inequality is non-strict; zero margin still passes
    verdict = "pass" if m3 >= 0 else "fail"
    if 0 < m3 < _GUARD and left != 0.0:
        verdict = "inconclusive"
    out.append(CheckEntry(name="bona1", verdict=verdict, margin=m3, mode="sampled",
                          note=f"left={left:.9g} right={right:.9g}"
                               + ("" if converged else _UNCONVERGED)))
    return out


def build_certificate(spec: ProblemSpec, mesh: Mesh,
                      embedding: EmbeddingEstimate | None = None) -> CertificateReport:
    """Run the full pipeline: constants, sandwich, H1-H5, derived conditions."""
    N = spec.domain.dim
    p, c, d = spec.p, spec.c, spec.d
    w_N = unit_ball_volume(N)
    a_mass = annulus_weight_mass(spec.weight, spec.ball, spec.domain)
    if embedding is None:
        embedding = estimate_k(spec.domain, spec.weight, p, spec.s, mesh)
    k = embedding.k
    notes = []

    norm3 = ustar_norm_p(d, spec.ball, spec.weight, p, mesh,
                         zero_order_term=spec.zero_order_term)
    r1, r2 = spec.ball.r1, spec.ball.r2
    lower_kfree = (2.0 * r1 / (r2 ** 2 - r1 ** 2)) ** p * a_mass * d ** p
    eta_over_k_p = (2.0 ** p * r2 ** p / (r2 ** 2 - r1 ** 2) ** p * a_mass
                    + d ** p * w_N * r2 ** N / N + w_N * r1 ** N)
    upper_kfree = eta_over_k_p * d ** p

    variants = {}
    for label, kv in (("k_upper", embedding.k_upper), ("k_lower", embedding.k_lower)):
        variants[label] = {
            "k": kv,
            "xi": compute_xi(p, r1, r2, kv, a_mass),
            "eta": compute_eta(p, N, r1, r2, kv, d, a_mass, w_N),
            "r": compute_r(c, kv, p),
        }

    constants = Constants(
        w_N=w_N, a_L1_annulus=a_mass, k=k, k_mode=embedding.k_upper_mode,
        k_lower=embedding.k_lower,
        xi=compute_xi(p, r1, r2, k, a_mass),
        eta=compute_eta(p, N, r1, r2, k, d, a_mass, w_N),
        r=compute_r(c, k, p),
        ustar_norm_p=norm3.direct,
        ustar_norm_formula=norm3.formula,
        ustar_norm_formula_corrected=norm3.formula_corrected,
        sandwich_lower=lower_kfree,
        sandwich_upper=upper_kfree,
        k_variants=variants,
    )
    constants.validate()
    notes.append("eta carries a d^p factor in its middle term, so it depends on d; "
                 "formula implemented as printed")
    notes.append(f"k mode: {embedding.k_upper_mode}; xi/eta/r per k variant recorded")
    rel = abs(norm3.formula_corrected - norm3.direct) / norm3.direct
    notes.append(f"||u*||^p formula (surface factor corrected) vs direct: rel diff {rel:.3e}; "
                 "direct quadrature is authoritative")

    phi_ustar = norm3.direct / p
    sup_F = _sup_F_box(spec.nl_f, spec.domain, c, mesh.quadrature()[0])
    entries = [sandwich_check(constants),
               check_H1(spec.nl_f, spec.domain, spec.ball, d),
               check_H2(spec.nl_f, spec.domain, constants.eta, c, d, p, sup_F)]
    entries.extend(check_H3_H4_H5(spec.nl_f, spec.nl_g, spec.gamma, spec.domain, c, d))
    entries.extend(check_theorem_conditions(spec, constants, 0.0, phi_ustar, sup_F))
    return CertificateReport(constants=constants, entries=entries,
                             overall=_overall(entries), notes=notes)
