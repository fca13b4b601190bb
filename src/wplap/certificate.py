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
inconclusive rather than pass, and so does every check whose margin is not
finite (NaN samples, for one, decide nothing).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .energy import (_F_PANELS, _GL20, _MAX_PANELS, Nonlinearity, _gauss_panels,
                     _primitive_F, primitive_F)
from .geometry import BallSpec, Domain, Mesh, domain_measure, unit_ball_volume
from .space import DiscreteFunction, estimate_k, weighted_norm
from .weight import WeightSpec, eval_weight

__all__ = [
    "ProblemSpec",
    "Constants",
    "CheckEntry",
    "CertificateReport",
    "RefinementRequiredError",
    "RegimeError",
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
    "check_H3",
    "check_H3_H4_H5",
    "check_theorem_conditions",
    "build_certificate",
]

_GUARD = 1e-9       # strictness guard band: smaller margins are inconclusive
_ROUNDING = 1e-12   # rounding slack: H1, H4 and H5 pass a margin down to -_ROUNDING
_CHUNK = 2 ** 15    # (x, t) points per values call in _sample_over_t


class RefinementRequiredError(ValueError):
    """Mesh too coarse to resolve the ball pair."""


class RegimeError(ValueError):
    """A ProblemSpec outside the theorem's regime; key names the field at fault."""

    def __init__(self, message: str, key: str):
        super().__init__(message)
        self.key = key


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
            raise RegimeError(f"need p > N, got p={self.p}, N={N}", "p")
        if not self.s > N / (self.p - N):
            raise RegimeError(f"need s > N/(p-N) = {N / (self.p - N):.6g}, got s={self.s}", "s")
        for key in ("c", "d", "gamma"):
            if getattr(self, key) <= 0:
                raise RegimeError("c, d, gamma must be positive", key)
        # ball containment re-checked (BallSpec.create validates at build time)
        BallSpec.create(self.ball.x0, self.ball.r1, self.ball.r2, self.domain)


@dataclass
class Constants:
    w_N: float
    a_L1_annulus: float
    k: float
    k_lower: float
    xi: float
    eta: float
    r: float
    ustar_norm_p: float            # direct quadrature of the interpolated u*
    ustar_norm_formula: float      # three-term formula as printed (w_N factor)
    ustar_norm_formula_corrected: float  # with the N*w_N surface factor
    sandwich_lower: float          # k-free: (xi d / k)^p, xi at k = 1
    sandwich_upper: float          # k-free: (eta d / k)^p, eta at k = 1

    @property
    def sandwich_margins(self) -> tuple[float, float]:
        """(||u*||^p - sandwich_lower, sandwich_upper - ||u*||^p), direct norm."""
        return self.ustar_norm_p - self.sandwich_lower, self.sandwich_upper - self.ustar_norm_p

    def validate(self):
        vals = [self.w_N, self.a_L1_annulus, self.k, self.xi, self.eta, self.r,
                self.ustar_norm_p, self.sandwich_lower, self.sandwich_upper]
        if not all(math.isfinite(v) and v > 0 for v in vals):
            raise ValueError("certificate constants must be finite and positive")


@dataclass
class CheckEntry:
    """One check's verdict; a margin that is not finite reads inconclusive."""
    name: str
    verdict: str          # pass | heuristic-pass | fail | inconclusive
    margin: float
    mode: str = "sampled"  # closed-form | sampled
    note: str = ""

    def __post_init__(self):
        if not math.isfinite(self.margin):
            self.verdict = "inconclusive"


@dataclass
class CertificateReport:
    constants: Constants
    entries: list
    notes: list = field(default_factory=list)

    @property
    def overall(self) -> str:
        """fail if an entry fails, else inconclusive if one is, else pass."""
        verdicts = {e.verdict for e in self.entries}
        return next((v for v in ("fail", "inconclusive") if v in verdicts), "pass")

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


_UNCONVERGED = f"; quadrature unconverged at {_MAX_PANELS} panels"


def _annulus_integral(fn_radial, domain: Domain, ball: BallSpec) -> tuple[float, bool]:
    """Integral over the annulus of a function given pointwise as fn(points),
    as (value, converged) with converged from _gauss_panels (every piece).

    1D: two intervals, each split where it crosses the domain midpoint (the
    kink of dist(x), so of distance-power weights).  2D: polar quadrature
    (trapezoid in angle is spectrally accurate for periodic integrands; a
    weight with kinks in angle can leave the radial doubling unconverged)."""
    x0 = np.asarray(ball.x0)
    r1, r2 = ball.r1, ball.r2
    if domain.dim == 1:
        (lo, hi), = domain.axes
        mid = 0.5 * (lo + hi)
        total, converged = 0.0, True
        for sign in (-1.0, 1.0):
            def side(t, sign=sign):
                return fn_radial(np.column_stack([x0[0] + sign * t]))
            kink = sign * (mid - x0[0])
            cuts = [r1, kink, r2] if r1 < kink < r2 else [r1, r2]
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                val, ok = _gauss_panels(side, lo, hi)
                total += val
                converged &= ok
        return total, converged
    n_ang = 64
    theta = np.linspace(0.0, 2 * np.pi, n_ang, endpoint=False)
    ct, st = np.cos(theta), np.sin(theta)

    def ring(rr: np.ndarray) -> np.ndarray:
        pts = np.empty((rr.size * n_ang, 2))
        pts[:, 0] = (x0[0] + rr[:, None] * ct[None, :]).ravel()
        pts[:, 1] = (x0[1] + rr[:, None] * st[None, :]).ravel()
        vals = fn_radial(pts).reshape(rr.size, n_ang)
        return vals.mean(axis=1) * (2 * np.pi) * rr

    return _gauss_panels(ring, r1, r2)


def annulus_weight_mass(w: WeightSpec, ball: BallSpec,
                        domain: Domain) -> tuple[float, bool]:
    """||a||_{L^1} over B(x0, r2) \\ B(x0, r1), as (value, converged)."""
    val, converged = _annulus_integral(
        lambda pts: eval_weight(w, domain, pts), domain, ball)
    if not (math.isfinite(val) and val > 0):
        raise ValueError(f"annulus weight mass not finite/positive: {val}")
    return val, converged


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
    rr = np.linalg.norm(pts - x0[None, :], axis=1)
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
    converged: bool             # the formula's annulus and radial quadratures


def ustar_norm_p(d: float, ball: BallSpec, w: WeightSpec, p: float, mesh: Mesh,
                 zero_order_term: bool = True) -> UstarNorm:
    """||u*||^p two ways: direct quadrature of the interpolant, and the
    three-term radial formula (gradient term + annulus mass + inner mass)."""
    domain = mesh.domain
    ustar = build_ustar(d, ball, mesh)
    direct = weighted_norm(ustar, w, p).norm(zero_order_term) ** p

    N = mesh.dim
    r1, r2 = ball.r1, ball.r2
    w_N = unit_ball_volume(N)
    denom = (r2 ** 2 - r1 ** 2) ** p
    grad_int, converged = _annulus_integral(
        lambda pts: eval_weight(w, domain, pts)
        * np.linalg.norm(pts - np.asarray(ball.x0)[None, :], axis=1) ** p,
        domain, ball)
    grad = 2.0 ** p * d ** p / denom * grad_int
    if zero_order_term:
        radial, radial_converged = _gauss_panels(
            lambda rr: (r2 ** 2 - rr ** 2) ** p * rr ** (N - 1), r1, r2)
        converged &= radial_converged
        annulus_mass = d ** p / denom * radial
        inner_mass = d ** p * w_N * r1 ** N
        formula = grad + w_N * annulus_mass + inner_mass
        corrected = grad + N * w_N * annulus_mass + inner_mass
    else:
        formula = corrected = grad
    return UstarNorm(direct=direct, formula=formula, formula_corrected=corrected,
                     converged=converged)


def sandwich_check(constants: Constants) -> CheckEntry:
    """xi^p d^p / k^p < ||u*||^p < eta^p d^p / k^p against the direct norm.

    Both bounds are k-free after substitution, so the verdict does not depend
    on the embedding estimate."""
    margin = min(constants.sandwich_margins)
    return CheckEntry(name="sandwich", verdict=_strict_verdict(margin), margin=margin,
                      mode="closed-form", note=f"lower={constants.sandwich_lower:.9g} "
                      f"direct={constants.ustar_norm_p:.9g} upper={constants.sandwich_upper:.9g}")


def _x_samples(domain: Domain, exclude_ball: BallSpec | None = None,
               n: int = 200) -> np.ndarray:
    """Deterministic x grid over the closed domain, about n points with
    floor(n^(1/N)) per axis and x1 fastest, optionally dropping the inner
    ball; includes the corners."""
    m = max(2, int(n ** (1.0 / domain.dim) + 1e-9))
    grids = np.meshgrid(*(np.linspace(lo, hi, m) for lo, hi in domain.axes))
    xs = np.stack(grids, axis=-1).reshape(-1, domain.dim)
    if exclude_ball is not None:
        x0 = np.asarray(exclude_ball.x0)
        keep = np.linalg.norm(xs - x0[None, :], axis=1) > exclude_ball.r1
        xs = xs[keep]
    return xs


def _sample_over_t(values, nl: Nonlinearity, xs: np.ndarray, ts, reduce,
                   post=None) -> np.ndarray:
    """Pointwise reduce (np.minimum or np.maximum) over t in ts, in order, of
    post(values(nl, xs, t), t); NaN samples propagate into the result.

    values (primitive_F or Nonlinearity.eval) is called on the (x, t) grid
    np.tile(xs) by np.repeat(ts) in blocks of whole t rows: at most _CHUNK
    points per call, or one row when xs alone has more.  Without a
    closed-form primitive, a point counts as the 20 x _F_PANELS Gauss nodes
    primitive_F may evaluate for it.  When nl reads no x (Nonlinearity.reads_x),
    xs shrinks to its first point, and the one-entry result broadcasts in
    post and in the caller's final min or max over xs.  post, when given,
    maps each t row with its own element of ts.  reduce.accumulate folds a
    block's rows in the order of a per-t loop, so the result is bitwise that
    loop's, down to the sign of a zero extremum.  (F by quadrature shares one
    panel count per call, so its last bits can depend on the blocks.)"""
    if not nl.reads_x:
        xs = xs[:1]
    ts = list(ts)
    nodes = 1 if nl.primitive is not None else _GL20[0].size * _F_PANELS
    rows = max(1, _CHUNK // (nodes * xs.shape[0]))
    out = None
    for i in range(0, len(ts), rows):
        tb = ts[i:i + rows]
        v = values(nl, np.tile(xs, (len(tb), 1)), np.repeat(tb, xs.shape[0]))
        v = v.reshape(len(tb), xs.shape[0])
        if post is not None:
            v = [post(row, t) for row, t in zip(v, tb)]
        v = reduce.accumulate(v, axis=0)[-1]
        out = v if out is None else reduce(out, v)
    return out


def check_H1(nl_f: Nonlinearity, domain: Domain, ball: BallSpec, d: float) -> CheckEntry:
    """F(x,t) >= 0 on (closure(Omega) minus B(x0,r1)) x [0,d], sampled at
    200 values of t times the x grid of _x_samples(n=200): 200 points on an
    interval, 14 x 14 on a box, minus those in the inner ball; one
    _sample_over_t grid, on t alone when f reads no x."""
    xs = _x_samples(domain, exclude_ball=ball, n=200)
    worst = float(np.min(_sample_over_t(primitive_F, nl_f, xs, np.linspace(0.0, d, 200),
                                        np.minimum)))
    if worst < -_GUARD:
        verdict = "fail"
    elif worst >= -_ROUNDING:
        verdict = "pass"
    else:
        verdict = "inconclusive"
    return CheckEntry(name="H1", verdict=verdict, margin=worst, mode="sampled",
                      note=f"min sampled F on (domain minus inner ball) x [0,d] = {worst:.3e}")


def _sup_F_box(nl_f: Nonlinearity, domain: Domain, c: float,
               xs: np.ndarray) -> float:
    """max F over the points xs (the domain corners appended) x 400 values of
    t in [-c, c]: one _sample_over_t grid, on t alone when f reads no x,
    else in blocks of at most _CHUNK points."""
    xs = np.vstack([xs, _corner_points(domain)])
    return float(np.max(_sample_over_t(primitive_F, nl_f, xs, np.linspace(-c, c, 400),
                                       np.maximum)))


def _F_balance(nl_f: Nonlinearity, domain: Domain, sup_F: float, A: float, B: float,
               t_of) -> tuple[float, float, str]:
    """The margin right - left of left = A |Omega| sup_F <= right =
    B Int F(x, t_of(x)) dx (H2 and bona1), with left and the note naming both
    sides."""
    left = A * domain_measure(domain) * sup_F
    integral, converged = _domain_integral(
        lambda pts: primitive_F(nl_f, pts, t_of(pts)), domain)
    right = B * integral
    return right - left, left, (f"left={left:.9g} right={right:.9g}"
                                + ("" if converged else _UNCONVERGED))


def check_H2(nl_f: Nonlinearity, domain: Domain, eta: float, c: float,
             d: float, p: float, sup_F: float) -> CheckEntry:
    """d^p eta^p |Omega| sup_{Omega x [-c,c]} F  <  c^p Int F(x,d) dx,
    with sup_F the sup of F over the domain x [-c, c] (build_certificate
    samples it with _sup_F_box)."""
    margin, _, note = _F_balance(nl_f, domain, sup_F, d ** p * eta ** p, c ** p,
                                 lambda pts: np.full(pts.shape[0], d))
    return CheckEntry(name="H2", verdict=_strict_verdict(margin), margin=margin,
                      mode="sampled", note=note)



def _corner_points(domain: Domain) -> np.ndarray:
    return np.array(list(itertools.product(*domain.axes)))


def _domain_integral(fn, domain: Domain) -> tuple[float, bool]:
    """Integral over the domain of fn(points), as (value, converged):
    _gauss_panels on an interval, a 20 x 20 Gauss rule on a box (converged
    is then always True)."""
    if domain.dim == 1:
        (a, b), = domain.axes
        return _gauss_panels(lambda t: fn(np.column_stack([t])), a, b)
    xg, wg = _GL20
    (x1a, x1b), (x2a, x2b) = domain.axes
    m1 = 0.5 * (x1a + x1b) + 0.5 * (x1b - x1a) * xg
    m2 = 0.5 * (x2a + x2b) + 0.5 * (x2b - x2a) * xg
    W = np.outer(wg, wg) * (0.25 * (x1b - x1a) * (x2b - x2a))
    P = np.stack(np.meshgrid(m1, m2), axis=-1).reshape(-1, 2)
    return float(np.dot(fn(P), W.ravel())), True


def check_H3(nl_f: Nonlinearity, gamma: float, domain: Domain) -> CheckEntry:
    """H3 (coercivity growth): F(x,t) < h(x)(1+|t|^gamma) sampled at |t| in
    {1e2, 1e3, 1e4}.  The range of t is unbounded, so at best heuristic.  F
    by quadrature that stops unconverged is named in the note, not warned."""
    if nl_f.growth_h is None:
        return CheckEntry(name="H3", verdict="inconclusive", margin=math.nan,
                          mode="sampled",
                          note="no growth envelope h(x) supplied; coercivity unknown")
    xs = _x_samples(domain, n=200)
    hv = nl_f.growth_h.at(xs, tau=np.full(xs.shape[0], math.nan))
    converged = []

    def F(nl, x, t):
        val, ok = _primitive_F(nl, x, t)
        converged.append(ok)
        return val
    worst = float(np.min(_sample_over_t(
        F, nl_f, xs, (1e2, 1e3, 1e4, -1e2, -1e3, -1e4), np.minimum,
        post=lambda Fv, t: hv * (1.0 + abs(t) ** gamma) - Fv)))
    verdict = "heuristic-pass" if worst > 0 else "fail"
    return CheckEntry(name="H3", verdict=verdict, margin=worst, mode="sampled",
                      note="sampled at |t| in {1e2,1e3,1e4}; growth beyond the"
                           " sampled range is not certified"
                           + ("" if all(converged) else
                              f"; quadrature unconverged at {_F_PANELS} panels"))


def check_H3_H4_H5(nl_f: Nonlinearity, nl_g: Nonlinearity | None, gamma: float,
                   domain: Domain, c: float, d: float) -> list:
    """H3 (check_H3); H4: F(x,0) = 0;  H5: sup_{|t|<=tau} |g| <= w_tau for
    tau in {1, c, d, 10}.  Each samples the x grid of _x_samples(n=200) by
    _sample_over_t, H5 over 101 values of t per tau; a check whose
    nonlinearity reads no x samples t alone, and h(x) and w_tau(x) are still
    evaluated on the whole grid."""
    xs = _x_samples(domain, n=200)
    out = [check_H3(nl_f, gamma, domain)]

    # H4: the primitive-integral construction gives F(x,0)=0 identically
    m = float(np.max(_sample_over_t(primitive_F, nl_f, xs, (0.0,), np.maximum,
                                    post=lambda Fv, t: np.abs(Fv))))
    out.append(CheckEntry(name="H4", verdict="pass" if m <= _ROUNDING else "fail",
                          margin=-m, mode="closed-form",
                          note="F(x,0) = 0 by construction of the primitive"))

    # H5: Caratheodory envelope for g
    if nl_g is None:
        out.append(CheckEntry(name="H5", verdict="pass", margin=0.0,
                              mode="closed-form", note="no g term present"))
        return out
    taus = sorted({1.0, c, d, 10.0})
    if nl_g.caratheodory_w is None:
        out.append(CheckEntry(name="H5", verdict="heuristic-pass", margin=0.0,
                              mode="sampled",
                              note=f"no w_tau supplied; sup |g| not checked for tau in {taus}"))
        return out
    margins = []
    for tau in taus:
        sup_g = _sample_over_t(Nonlinearity.eval, nl_g, xs, np.linspace(-tau, tau, 101),
                               np.maximum, post=lambda gv, t: np.abs(gv))
        w_tau = nl_g.caratheodory_w.at(xs, tau=np.full(xs.shape[0], tau))
        margins.append(np.min(w_tau - sup_g))
    worst = float(np.min(margins))
    verdict = "pass" if worst >= -_ROUNDING else "fail"
    out.append(CheckEntry(name="H5", verdict=verdict, margin=worst, mode="sampled",
                          note=f"tau list {taus}"))
    return out


def check_theorem_conditions(spec: ProblemSpec, constants: Constants,
                             sup_F: float) -> list:
    """The derived conditions: d^p xi^p > c^p, the level separation
    0 = phi(0) < r < phi(u*) = ||u*||^p / p, and the sublevel inequality
    with u0 = 0, u1 = u*:

        |Omega| max_{[-c,c]} F <= (c/(k ||u*||))^p Int F(x, u*) dx,

    with sup_F the sup of F over the domain x [-c, c] (as in check_H2)."""
    out = []
    p, c, d = spec.p, spec.c, spec.d
    phi_ustar = constants.ustar_norm_p / p
    m1 = d ** p * constants.xi ** p - c ** p
    out.append(CheckEntry(name="dxi_gt_c", verdict=_strict_verdict(m1), margin=m1,
                          mode="closed-form",
                          note=f"d^p xi^p = {d ** p * constants.xi ** p:.9g}, c^p = {c ** p:.9g}"))

    m2 = min(constants.r, phi_ustar - constants.r)
    out.append(CheckEntry(name="level_separation", verdict=_strict_verdict(m2),
                          margin=m2, mode="closed-form",
                          note=f"phi(0)=0 < r={constants.r:.9g} < "
                               f"phi(u*)={phi_ustar:.9g}"))

    ustar_norm = constants.ustar_norm_p ** (1.0 / p)
    m3, left, note = _F_balance(spec.nl_f, spec.domain, sup_F, 1.0,
                                (c / (constants.k * ustar_norm)) ** p,
                                lambda pts: _ustar_values(pts, d, spec.ball))
    # this inequality is non-strict; zero margin still passes
    verdict = "pass" if m3 >= 0 else "fail"
    if 0 < m3 < _GUARD and left != 0.0:
        verdict = "inconclusive"
    out.append(CheckEntry(name="bona1", verdict=verdict, margin=m3, mode="sampled",
                          note=note))
    return out


def build_certificate(spec: ProblemSpec, mesh: Mesh) -> CertificateReport:
    """Run the full pipeline: constants, sandwich, H1-H5, derived conditions."""
    N = spec.domain.dim
    p, c, d = spec.p, spec.c, spec.d
    w_N = unit_ball_volume(N)
    # u* first: a mesh too coarse for the ball pair fails before estimate_k
    norm3 = ustar_norm_p(d, spec.ball, spec.weight, p, mesh,
                         zero_order_term=spec.zero_order_term)
    a_mass, a_converged = annulus_weight_mass(spec.weight, spec.ball, spec.domain)
    embedding = estimate_k(spec.domain, spec.weight, p, spec.s, mesh, spec.zero_order_term)
    r1, r2 = spec.ball.r1, spec.ball.r2
    k = embedding.k_upper    # the certificate's k; k_lower is a diagnostic
    constants = Constants(
        w_N=w_N, a_L1_annulus=a_mass, k=k, k_lower=embedding.k_lower,
        xi=compute_xi(p, r1, r2, k, a_mass), eta=compute_eta(p, N, r1, r2, k, d, a_mass, w_N),
        r=compute_r(c, k, p),
        ustar_norm_p=norm3.direct,
        ustar_norm_formula=norm3.formula,
        ustar_norm_formula_corrected=norm3.formula_corrected,
        # the bounds (xi d / k)^p and (eta d / k)^p do not depend on k
        sandwich_lower=(compute_xi(p, r1, r2, 1.0, a_mass) * d) ** p,
        sandwich_upper=(compute_eta(p, N, r1, r2, 1.0, d, a_mass, w_N) * d) ** p,
    )
    constants.validate()
    rel = abs(norm3.formula_corrected - norm3.direct) / norm3.direct
    notes = ["eta carries a d^p factor in its middle term, so it depends on d; "
             "formula implemented as printed",
             f"||u*||^p formula (surface factor corrected) vs direct: rel diff {rel:.3e}; "
             "direct quadrature is authoritative" + ("" if norm3.converged else _UNCONVERGED)]

    sup_F = _sup_F_box(spec.nl_f, spec.domain, c, mesh.quadrature()[0])
    entries = [sandwich_check(constants),
               check_H1(spec.nl_f, spec.domain, spec.ball, d),
               check_H2(spec.nl_f, spec.domain, constants.eta, c, d, p, sup_F)]
    entries.extend(check_H3_H4_H5(spec.nl_f, spec.nl_g, spec.gamma, spec.domain, c, d))
    entries.extend(check_theorem_conditions(spec, constants, sup_F))
    if not a_converged:
        # the sandwich bounds, eta (H2) and xi (dxi_gt_c) are built from a_mass
        for e in entries:
            if e.name in ("sandwich", "H2", "dxi_gt_c"):
                e.note += _UNCONVERGED
    return CertificateReport(constants=constants, entries=entries, notes=notes)
