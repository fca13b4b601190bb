"""Independent 1D solver: shooting on the first-order flux system.

With q = a(x) |u'|^(p-2) u' the equation becomes

    u' = |q / a(x)|^(1/(p-1)) sign(q)
    q' = |u|^(p-2) u - lambda f(x, u) - mu g(x, u)

integrated by classical RK4 from u(x_a) = 0, q(x_a) = a(x_a)|sigma|^(p-2)sigma.
Roots of the terminal map sigma -> u(x_b) enumerate the solutions of the
boundary value problem.  Everything here is independent of the finite element
machinery except for the final interpolation onto a mesh.

Every signed power of the march (the initial flux, the flux map, the
zero-order term and the terminal slope) goes through one map,
_signed_power(z, e) = sign(z)|z|^e.  At p = 2 both exponents are 1, and the
march runs the linear flux u' = q/a, q' = u - ... directly.  The zero-order
term is sign(u)|u|^(p-1), which is 0 at u = 0, so p in (1, 2) marches too.

A march holds its state as one (2, n) array y = (u, q) for a batch of n
slopes, with one stage-input buffer and four stage buffers of the same
shape, all allocated once per march.  Each stage input y + c k_i, the
update y + (h/6)(k1 + 2 k2 + 2 k3 + k4) and the blow-up guard run over both
rows at once, in place, with the operands and order of the two-array
formulas, so the results are bitwise those of marching u and q apart.

The march binds f and g once (Expression.bind) and each stage calls the
compiled function of (t, x1) by position, so no stage passes keywords or
goes through Expression.__call__; the guard reduces with np.maximum.reduce,
the ufunc under ndarray.max, without that method's Python wrapper.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import Nonlinearity
from .geometry import Domain, Mesh, UnsupportedDomainError
from .space import DiscreteFunction
from .weight import WeightSpec, eval_weight

__all__ = ["ShootingRoot", "ShootingProfile", "shoot", "enumerate_solutions",
           "profile_on_mesh"]

_BLOWUP = 1e8
_TERMINAL_TOL = 1e-8
_SECTIONS = 31     # interior slopes per bracket and refinement level
_MAX_LEVELS = 16   # 65 halvings' worth of shrinkage at the least
# 16 of the _SECTIONS slopes are evenly spaced; the other 15 sit at the root
# estimate and at +-w 4^-k, k = 1..7, around it
_EVEN = np.arange(1, _SECTIONS // 2 + 2) / (_SECTIONS // 2 + 2)
_OFFSETS = 4.0 ** -np.arange(1, _SECTIONS // 4 + 1)
# the defaults of enumerate_solutions' slope scan and of the march's steps
# per unit length; a config's [oracle] overrides each
SIGMA_MIN, SIGMA_MAX = -50.0, 50.0
N_SCAN = 2001
STEPS_PER_UNIT = 1024


@dataclass
class ShootingRoot:
    sigma: float
    terminal: float
    x: np.ndarray
    u: np.ndarray


@dataclass
class ShootingProfile:
    sigma_grid: np.ndarray
    terminal_values: np.ndarray
    diverged: np.ndarray           # bool per sigma
    brackets: list
    roots: list = field(default_factory=list)
    degenerate_flat: bool = False  # terminal map vanished on a whole sigma run
    unconverged: list = field(default_factory=list)  # (sigma, terminal), bracket short of tol


def _interval(domain: Domain):
    if domain.dim != 1:
        raise UnsupportedDomainError("shooting oracle handles one dimension only")
    (x_a, x_b), = domain.axes.tolist()
    return x_a, x_b


def _signed_power(z: np.ndarray, e: float, out: np.ndarray | None = None) -> np.ndarray:
    """sign(z) |z|^e for e > 0, and 0 at z = 0, written into out when given
    (out may be z).  z itself at e = 1, where |z|^1 sign(z) rounds to z; out
    is then left alone."""
    return z if e == 1.0 else np.copysign(np.abs(z) ** e, z, out=out)


def _rhs_factory(p: float, lam: float, mu: float, f: Nonlinearity | None,
                 g: Nonlinearity | None, zero_order: bool):
    """Right-hand side at one abscissa x with the weight value a = a(x): reads
    the rows u and q of a stage input and writes du and dq into the rows of
    a stage buffer.  f and g are bound here, once per march, as functions
    of (t, x1) by position."""
    inv_pm1 = 1.0 / (p - 1.0)
    sources = [(coef, nl.f.bind("t", "x1")) for coef, nl in ((lam, f), (mu, g))
               if nl is not None and coef != 0.0]

    def rhs(x: float, a: float, u: np.ndarray, q: np.ndarray, du: np.ndarray,
            dq: np.ndarray):
        _signed_power(np.divide(q, a, out=du), inv_pm1, out=du)
        # |u|^(p-2) u written so that it is 0, not inf * 0, at u = 0 for p < 2
        acc = _signed_power(u, p - 1.0, out=dq) if zero_order else 0.0
        for coef, fn in sources:
            acc = np.subtract(acc, coef * fn(u, x), out=dq)
        if acc is not dq:
            dq[...] = acc

    return rhs


def _ode_grid(domain: Domain, w: WeightSpec, steps_per_unit: int):
    """Integration nodes; a weight singular on the boundary blows up at the
    ends, so the march starts one step in and the boundary values are
    linearly extrapolated.  Any other weight, distance_power with exponent
    0 among them, is marched over the whole interval."""
    x_a, x_b = _interval(domain)
    n = max(4, int(round((x_b - x_a) * steps_per_unit)))
    h = (x_b - x_a) / n
    if w.singular_on_boundary:
        return np.linspace(x_a + h, x_b - h, n - 1)
    return np.linspace(x_a, x_b, n + 1)


def shoot(sigmas: np.ndarray, domain: Domain, w: WeightSpec, p: float,
          lam: float, mu: float, f: Nonlinearity | None = None,
          g: Nonlinearity | None = None, zero_order: bool = True,
          steps_per_unit: int = STEPS_PER_UNIT, keep_trajectory: bool = False):
    """March the flux system for a batch of slopes sigma.

    The state is one (2, n) array y = (u, q); the right-hand side writes
    each RK4 stage into the rows of one of four (2, n) stage buffers, and
    the stage inputs go to one (2, n) buffer.  A step clamps the slopes
    whose |u| passes 1e8 or whose u or q is not finite, and flags them
    diverged.

    Returns (terminal values of u at x_b, diverged flags) and, when
    keep_trajectory is set, the grid and the full u history."""
    x_a, x_b = _interval(domain)
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    grid = _ode_grid(domain, w, steps_per_unit)
    rhs = _rhs_factory(p, lam, mu, f, g, zero_order)

    # the abscissae the RK4 stages see, and a(x) tabulated on each of them
    step = grid[1:] - grid[:-1]
    x_mid = grid[:-1] + 0.5 * step
    x_end = grid[:-1] + step
    a_node, a_mid, a_end = (eval_weight(w, domain, xs[:, None]).tolist()
                            for xs in (grid, x_mid, x_end))

    y, y_in, k1, k2, k3, k4 = np.empty((6, 2, sigmas.size))
    (u, q), (u_in, q_in) = y, y_in
    (k1u, k1q), (k2u, k2q), (k3u, k3q), (k4u, k4q) = k1, k2, k3, k4
    if grid[0] > x_a:
        # start just inside; u grows linearly with slope sigma over the layer
        np.multiply(sigmas, grid[0] - x_a, out=u)
    else:
        u.fill(0.0)
    np.multiply(a_node[0], _signed_power(sigmas, p - 1.0), out=q)

    diverged = np.zeros(sigmas.shape, dtype=bool)
    history = np.empty((grid.size, sigmas.size)) if keep_trajectory else None
    if keep_trajectory:
        history[0] = u
    for i, (x, xm, xe, hs) in enumerate(zip(grid[:-1].tolist(), x_mid.tolist(),
                                            x_end.tolist(), step.tolist())):
        rhs(x, a_node[i], u, q, k1u, k1q)
        np.multiply(k1, 0.5 * hs, out=y_in)
        y_in += y
        rhs(xm, a_mid[i], u_in, q_in, k2u, k2q)
        np.multiply(k2, 0.5 * hs, out=y_in)
        y_in += y
        rhs(xm, a_mid[i], u_in, q_in, k3u, k3q)
        np.multiply(k3, hs, out=y_in)
        y_in += y
        rhs(xe, a_end[i], u_in, q_in, k4u, k4q)
        # y + (hs/6)(k1 + 2 k2 + 2 k3 + k4), in the order of the formula
        k2 *= 2
        k1 += k2
        k3 *= 2
        k1 += k3
        k1 += k4
        k1 *= hs / 6.0
        y += k1
        # NaN fails the comparison, so max_u also catches a non-finite u;
        # max_q is finite exactly when every q is
        max_u, max_q = np.maximum.reduce(np.abs(y, out=y_in), axis=1, initial=0.0).tolist()
        if not (max_u <= _BLOWUP and math.isfinite(max_q)):
            bad = ~np.isfinite(u) | ~np.isfinite(q) | (np.abs(u) > _BLOWUP)
            diverged |= bad
            u[...] = np.where(bad, np.sign(np.where(np.isfinite(u), u, 1.0)) * _BLOWUP, u)
            q[bad] = 0.0
        if keep_trajectory:
            history[i + 1] = u
    if grid[-1] < x_b:
        # extrapolate the boundary layer with the local slope
        slope = _signed_power(q / a_node[-1], 1.0 / (p - 1.0))
        terminal = u + slope * (x_b - grid[-1])
    else:
        terminal = u
    terminal = np.where(diverged, np.sign(terminal) * _BLOWUP, terminal)
    if keep_trajectory:
        return terminal, diverged, grid, history
    return terminal, diverged


def _root_estimate(lo, hi, ps, pt):
    """Safeguarded inverse interpolation for the root in (lo, hi) from the
    sorted marched slopes ps with values pt.  The four of them nearest the
    bracket give sigma as a cubic in t (Lagrange form, sigma centred on the
    bracket and scaled by its width) when their values are strictly
    monotone; the secant through the ends is next, the midpoint last.  An
    estimate outside (lo, hi) falls through to the next rule."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    m = int(np.searchsorted(ps, lo))
    start = max(0, min(m - 1, ps.size - 4))
    x, y = (ps[start:start + 4] - mid) / half, pt[start:start + 4]
    steps = np.diff(y)
    if y.size == 4 and (np.all(steps > 0) or np.all(steps < 0)):
        basis = [np.prod(np.delete(y, i) / (np.delete(y, i) - y[i])) for i in range(4)]
        est = mid + half * float(np.dot(x, basis))
        if lo < est < hi:
            return est
    if m + 1 < ps.size and ps[m] == lo and ps[m + 1] == hi:
        est = lo - pt[m] * (hi - lo) / (pt[m + 1] - pt[m])
        if lo < est < hi:
            return est
    return mid


def _refine_all(brackets, t_lo, shooter_batch, known=None):
    """Multi-section of every bracket at once: each level marches up to
    _SECTIONS interior slopes per bracket in one batched call and keeps the
    subinterval holding the first sign change.  Sixteen of the slopes are
    evenly spaced, so a bracket shrinks at least 17x per level; the others
    sit at a root estimate (`_root_estimate`) and at +-w 4^-k, k = 1..7,
    around it, where w is the bracket width.  Level 0 interpolates the
    already marched slopes ``known`` = (sigmas, terminals), sorted, nearest
    each bracket (the midpoint stands in without them); later levels use the
    previous level's slopes nearest the sign change.

    A bracket stops when an interior slope has |t| <= _TERMINAL_TOL
    (converged) or when it is narrower than 1e-15 max(1, |sigma|) or the
    level cap is reached (not converged).  Returns (converged, unconverged),
    each a list of (sigma, terminal) at the slope of least |t| marched last.
    """
    active = []
    for (lo, hi), t in zip(brackets, t_lo):
        ps, pt = known if known is not None else (np.array([lo]), np.array([t]))
        active.append([lo, hi, t, ps, pt])
    converged, unconverged = [], []
    for level in range(_MAX_LEVELS):
        if not active:
            break
        batch = []
        for lo, hi, _, ps, pt in active:
            w, est = hi - lo, _root_estimate(lo, hi, ps, pt)
            pts = np.concatenate([lo + w * _EVEN, [est], est - w * _OFFSETS,
                                  est + w * _OFFSETS])
            pts = np.sort(pts[(pts > lo) & (pts < hi)])
            batch.append(pts[np.diff(pts, prepend=lo) > 0])
        marched = shooter_batch(np.concatenate(batch))
        ts = np.split(marched, np.cumsum([b.size for b in batch])[:-1])
        still = []
        for (lo, hi, tl, ps, pt), sig, t in zip(active, batch, ts):
            best = int(np.argmin(np.abs(t)))
            found = (float(sig[best]), float(t[best]))
            if abs(found[1]) <= _TERMINAL_TOL:
                converged.append(found)
                continue
            # the first interior slope past the sign change (hi if none)
            far = (t < 0) != (tl < 0)
            j = int(np.argmax(far)) if far.any() else sig.size
            new_lo, t_new = (lo, tl) if j == 0 else (float(sig[j - 1]), float(t[j - 1]))
            new_hi = hi if j == sig.size else float(sig[j])
            if (new_hi - new_lo < 1e-15 * max(1.0, abs(found[0]))
                    or level == _MAX_LEVELS - 1):
                unconverged.append(found)
                continue
            # the next estimate interpolates this level's slopes and the ends
            ends = (ps >= lo) & (ps <= hi)
            pool_s = np.concatenate([ps[ends], sig])
            order = np.argsort(pool_s)
            still.append([new_lo, new_hi, t_new, pool_s[order],
                          np.concatenate([pt[ends], t])[order]])
        active = still
    return converged, unconverged


def enumerate_solutions(domain: Domain, w: WeightSpec, p: float, lam: float,
                        mu: float, f: Nonlinearity | None = None,
                        g: Nonlinearity | None = None, zero_order: bool = True,
                        sigma_range: tuple[float, float] = (SIGMA_MIN, SIGMA_MAX),
                        n_scan: int = N_SCAN,
                        steps_per_unit: int = STEPS_PER_UNIT) -> ShootingProfile:
    """Scan the terminal map over the slope range, bracket its sign changes
    and refine each bracket by interpolation-centred multi-section
    (`_refine_all`) to |u(x_b)| <= 1e-8.  Brackets that stop short of the
    tolerance are listed in ``unconverged``.

    Exact and near-zero scan values are kept as roots directly; a long run of
    vanishing terminals raises the degenerate_flat flag (the map carries no
    bracketing information there).  The refinement marches keep their
    trajectories, and each root's profile is the column of the march that
    found it; near-zero roots ride along in the first refinement march, or
    march on their own when there is no bracket."""
    sigma_grid = np.linspace(sigma_range[0], sigma_range[1], n_scan)
    terminal, diverged = shoot(sigma_grid, domain, w, p, lam, mu, f, g,
                               zero_order, steps_per_unit)

    # integration error grows with |sigma|, so "vanishing" is sigma-relative
    near_zero = (np.abs(terminal) <= _TERMINAL_TOL * np.maximum(1.0, np.abs(sigma_grid))) \
        & ~diverged
    degenerate = bool(near_zero.sum() > max(3, n_scan // 100))

    # representative of each exact-zero run [first, last]: its middle
    edges = np.diff(near_zero.astype(np.int8), prepend=0, append=0)
    first, last = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1
    root_sigmas: list[float] = sigma_grid[(first + last) // 2].tolist()
    # sign-change brackets between usable neighbours
    usable = ~(diverged | near_zero)
    i = np.flatnonzero(usable[:-1] & usable[1:] & ((terminal[:-1] < 0) != (terminal[1:] < 0)))
    brackets = list(zip(sigma_grid[i].tolist(), sigma_grid[i + 1].tolist()))
    t_lo = terminal[i].tolist()

    # profiles of the slopes that end within tolerance, by sigma; the
    # near-zero scan roots ride along in the next march
    profiles: dict[float, ShootingRoot] = {}
    pending = np.array(root_sigmas)

    def shooter_batch(ss: np.ndarray) -> np.ndarray:
        nonlocal pending
        batch = np.concatenate([pending, ss])
        term, div, grid, hist = shoot(batch, domain, w, p, lam, mu, f, g,
                                      zero_order, steps_per_unit,
                                      keep_trajectory=True)
        keep = ~div & (np.abs(term) <= _TERMINAL_TOL)
        keep[:pending.size] = ~div[:pending.size]
        for k in np.flatnonzero(keep):
            s = float(batch[k])
            profiles[s] = ShootingRoot(sigma=s, terminal=float(term[k]),
                                       x=grid.copy(), u=hist[:, k].copy())
        out = term[pending.size:]
        pending = pending[:0]
        return out

    converged, unconverged = _refine_all(brackets, t_lo, shooter_batch,
                                         known=(sigma_grid[~diverged],
                                                terminal[~diverged]))
    if pending.size:
        shooter_batch(np.empty(0))
    root_sigmas += [s for s, _ in converged]

    # dedupe (a zero run adjacent to a bracket can double-report)
    root_sigmas.sort()
    spacing = (sigma_range[1] - sigma_range[0]) / (n_scan - 1)
    kept: list[float] = []
    for s in root_sigmas:
        if not kept or s - kept[-1] > 0.5 * spacing:
            kept.append(s)
    # a diverged near-zero march has no profile and is dropped
    roots = [profiles[s] for s in kept if s in profiles]
    return ShootingProfile(sigma_grid=sigma_grid, terminal_values=terminal,
                           diverged=diverged, brackets=brackets, roots=roots,
                           degenerate_flat=degenerate, unconverged=unconverged)


def profile_on_mesh(root: ShootingRoot, mesh: Mesh) -> DiscreteFunction:
    """Sample a shooting trajectory at the mesh vertices, zero at the ends of
    mesh.domain (linear interpolation; with matching steps_per_unit every
    interior vertex is an integration node)."""
    if mesh.dim != 1:
        raise UnsupportedDomainError("profiles interpolate onto 1D meshes only")
    x_a, x_b = _interval(mesh.domain)
    xs = np.concatenate([[x_a], root.x, [x_b]])
    us = np.concatenate([[0.0], root.u, [0.0]])
    vals = np.interp(mesh.vertices[:, 0], xs, us)
    return DiscreteFunction(mesh, vals)
