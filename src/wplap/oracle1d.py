"""Independent 1D solver: shooting on the first-order flux system.

With q = a(x) |u'|^(p-2) u' the equation becomes

    u' = |q / a(x)|^(1/(p-1)) sign(q)
    q' = |u|^(p-2) u - lambda f(x, u) - mu g(x, u)

integrated by classical RK4 from u(x_a) = 0, q(x_a) = a(x_a)|sigma|^(p-2)sigma.
Roots of the terminal map sigma -> u(x_b) enumerate the solutions of the
boundary value problem.  Everything here is independent of the finite element
machinery except for the final interpolation onto a mesh.
"""
from __future__ import annotations

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
_MAX_LEVELS = 16   # 80 halvings' worth of shrinkage


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


def _check_domain(domain: Domain):
    if domain.kind != "interval":
        raise UnsupportedDomainError("shooting oracle handles one dimension only")


def _interval(domain: Domain):
    return float(domain.bounds[0]), float(domain.bounds[1])


def _rhs_factory(p: float, lam: float, mu: float, f: Nonlinearity | None,
                 g: Nonlinearity | None, zero_order: bool):
    """Right-hand side at one abscissa x with the weight value a = a(x)."""
    inv_pm1 = 1.0 / (p - 1.0)
    use_f = f is not None and lam != 0.0
    use_g = g is not None and mu != 0.0

    def rhs(x: float, a: float, u: np.ndarray, q: np.ndarray):
        du = np.abs(q / a) ** inv_pm1 * np.sign(q)
        dq = np.abs(u) ** (p - 2.0) * u if zero_order else np.zeros_like(u)
        if use_f:
            dq = dq - lam * f.f(t=u, x1=x)
        if use_g:
            dq = dq - mu * g.f(t=u, x1=x)
        return du, dq

    return rhs


def _ode_grid(domain: Domain, w: WeightSpec, steps_per_unit: int):
    """Integration nodes; distance-power weights blow up at the ends, so the
    march starts one step in and the boundary values are linearly
    extrapolated."""
    x_a, x_b = _interval(domain)
    n = max(4, int(round((x_b - x_a) * steps_per_unit)))
    h = (x_b - x_a) / n
    if w.form == "distance_power":
        grid = np.linspace(x_a + h, x_b - h, n - 1)
    else:
        grid = np.linspace(x_a, x_b, n + 1)
    return grid, h


def shoot(sigmas: np.ndarray, domain: Domain, w: WeightSpec, p: float,
          lam: float, mu: float, f: Nonlinearity | None = None,
          g: Nonlinearity | None = None, zero_order: bool = True,
          steps_per_unit: int = 1024, keep_trajectory: bool = False):
    """March the flux system for a batch of slopes sigma.

    Returns (terminal values of u at x_b, diverged flags) and, when
    keep_trajectory is set, the grid and the full u history."""
    _check_domain(domain)
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    x_a, x_b = _interval(domain)
    grid, h = _ode_grid(domain, w, steps_per_unit)
    rhs = _rhs_factory(p, lam, mu, f, g, zero_order)

    # the abscissae the RK4 stages see, and a(x) tabulated on each of them
    step = grid[1:] - grid[:-1]
    x_mid = grid[:-1] + 0.5 * step
    x_end = grid[:-1] + step
    a_node, a_mid, a_end = (eval_weight(w, domain, xs[:, None]).tolist()
                            for xs in (grid, x_mid, x_end))

    if grid[0] > x_a:
        # start just inside; u grows linearly with slope sigma over the layer
        u = sigmas * (grid[0] - x_a)
    else:
        u = np.zeros_like(sigmas)
    q = a_node[0] * np.abs(sigmas) ** (p - 1.0) * np.sign(sigmas)

    diverged = np.zeros(sigmas.shape, dtype=bool)
    history = np.empty((grid.size, sigmas.size)) if keep_trajectory else None
    if keep_trajectory:
        history[0] = u
    for i, (x, xm, xe, hs) in enumerate(zip(grid[:-1].tolist(), x_mid.tolist(),
                                            x_end.tolist(), step.tolist())):
        k1u, k1q = rhs(x, a_node[i], u, q)
        k2u, k2q = rhs(xm, a_mid[i], u + 0.5 * hs * k1u, q + 0.5 * hs * k1q)
        k3u, k3q = rhs(xm, a_mid[i], u + 0.5 * hs * k2u, q + 0.5 * hs * k2q)
        k4u, k4q = rhs(xe, a_end[i], u + hs * k3u, q + hs * k3q)
        u = u + (hs / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
        q = q + (hs / 6.0) * (k1q + 2 * k2q + 2 * k3q + k4q)
        bad = ~np.isfinite(u) | ~np.isfinite(q) | (np.abs(u) > _BLOWUP)
        if bad.any():
            diverged |= bad
            u = np.where(bad, np.sign(np.where(np.isfinite(u), u, 1.0)) * _BLOWUP, u)
            q = np.where(bad, 0.0, q)
        if keep_trajectory:
            history[i + 1] = u
    if grid[-1] < x_b:
        # extrapolate the boundary layer with the local slope
        slope = np.abs(q / a_node[-1]) ** (1.0 / (p - 1.0)) * np.sign(q)
        terminal = u + slope * (x_b - grid[-1])
    else:
        terminal = u
    terminal = np.where(diverged, np.sign(terminal) * _BLOWUP, terminal)
    if keep_trajectory:
        return terminal, diverged, grid, history
    return terminal, diverged


def _refine_all(brackets, t_lo, shooter_batch):
    """Multi-section of every bracket at once: each level marches _SECTIONS
    interior slopes per bracket in one batched call and keeps the subinterval
    holding the first sign change, so a bracket shrinks by _SECTIONS + 1 per
    march.  A bracket stops when an interior slope has |t| <= _TERMINAL_TOL
    (converged) or when it is narrower than 1e-15 max(1, |sigma|) or the
    level cap is reached (not converged).  Returns (converged, unconverged),
    each a list of (sigma, terminal) at the slope of least |t| marched last.
    """
    frac = np.arange(1, _SECTIONS + 1) / (_SECTIONS + 1)
    active = [[lo, hi, t] for (lo, hi), t in zip(brackets, t_lo)]
    converged, unconverged = [], []
    for level in range(_MAX_LEVELS):
        if not active:
            break
        lo = np.array([b[0] for b in active])
        hi = np.array([b[1] for b in active])
        pts = lo[:, None] + (hi - lo)[:, None] * frac
        ts = shooter_batch(pts.ravel()).reshape(pts.shape)
        still = []
        for b, sig, t in zip(active, pts, ts):
            best = int(np.argmin(np.abs(t)))
            found = (float(sig[best]), float(t[best]))
            if abs(found[1]) <= _TERMINAL_TOL:
                converged.append(found)
                continue
            # the first interior slope past the sign change (hi if none)
            far = (t < 0) != (b[2] < 0)
            j = int(np.argmax(far)) if far.any() else _SECTIONS
            new_lo, t_new = (b[0], b[2]) if j == 0 else (float(sig[j - 1]), float(t[j - 1]))
            new_hi = b[1] if j == _SECTIONS else float(sig[j])
            if (new_hi - new_lo < 1e-15 * max(1.0, abs(found[0]))
                    or level == _MAX_LEVELS - 1):
                unconverged.append(found)
            else:
                still.append([new_lo, new_hi, t_new])
        active = still
    return converged, unconverged


def enumerate_solutions(domain: Domain, w: WeightSpec, p: float, lam: float,
                        mu: float, f: Nonlinearity | None = None,
                        g: Nonlinearity | None = None, zero_order: bool = True,
                        sigma_range: tuple[float, float] = (-50.0, 50.0),
                        n_scan: int = 2001,
                        steps_per_unit: int = 1024) -> ShootingProfile:
    """Scan the terminal map over the slope range, bracket its sign changes,
    refine each bracket by multi-section to |u(x_b)| <= 1e-8 and store the
    root profiles.  Brackets that stop short of the tolerance are listed in
    ``unconverged``.

    Exact and near-zero scan values are kept as roots directly; a long run of
    vanishing terminals raises the degenerate_flat flag (the map carries no
    bracketing information there)."""
    _check_domain(domain)
    sigma_grid = np.linspace(sigma_range[0], sigma_range[1], n_scan)
    terminal, diverged = shoot(sigma_grid, domain, w, p, lam, mu, f, g,
                               zero_order, steps_per_unit)

    # integration error grows with |sigma|, so "vanishing" is sigma-relative
    near_zero = (np.abs(terminal) <= _TERMINAL_TOL * np.maximum(1.0, np.abs(sigma_grid))) \
        & ~diverged
    degenerate = bool(near_zero.sum() > max(3, n_scan // 100))

    def shooter_batch(ss: np.ndarray) -> np.ndarray:
        return shoot(ss, domain, w, p, lam, mu, f, g, zero_order, steps_per_unit)[0]

    root_sigmas: list[float] = []
    # representative of each exact-zero run
    i = 0
    while i < n_scan:
        if near_zero[i]:
            j = i
            while j + 1 < n_scan and near_zero[j + 1]:
                j += 1
            root_sigmas.append(float(sigma_grid[(i + j) // 2]))
            i = j + 1
        else:
            i += 1
    # sign-change brackets between usable neighbours
    brackets, t_lo = [], []
    for i in range(n_scan - 1):
        if diverged[i] or diverged[i + 1] or near_zero[i] or near_zero[i + 1]:
            continue
        if (terminal[i] < 0) != (terminal[i + 1] < 0):
            brackets.append((float(sigma_grid[i]), float(sigma_grid[i + 1])))
            t_lo.append(float(terminal[i]))
    converged, unconverged = _refine_all(brackets, t_lo, shooter_batch)
    root_sigmas += [s for s, _ in converged]

    # dedupe (a zero run adjacent to a bracket can double-report)
    root_sigmas.sort()
    spacing = (sigma_range[1] - sigma_range[0]) / (n_scan - 1)
    kept: list[float] = []
    for s in root_sigmas:
        if not kept or s - kept[-1] > 0.5 * spacing:
            kept.append(s)

    roots = []
    if kept:
        term, div, grid, hist = shoot(np.array(kept), domain, w, p, lam, mu, f,
                                      g, zero_order, steps_per_unit,
                                      keep_trajectory=True)
        for k, s in enumerate(kept):
            if not div[k]:
                roots.append(ShootingRoot(sigma=s, terminal=float(term[k]),
                                          x=grid.copy(), u=hist[:, k].copy()))
    return ShootingProfile(sigma_grid=sigma_grid, terminal_values=terminal,
                           diverged=diverged, brackets=brackets, roots=roots,
                           degenerate_flat=degenerate, unconverged=unconverged)


def profile_on_mesh(root: ShootingRoot, mesh: Mesh, domain: Domain) -> DiscreteFunction:
    """Sample a shooting trajectory at the mesh vertices (linear interpolation;
    with matching steps_per_unit every interior vertex is an integration node)."""
    if mesh.dim != 1:
        raise UnsupportedDomainError("profiles interpolate onto 1D meshes only")
    x_a, x_b = _interval(domain)
    xs = np.concatenate([[x_a], root.x, [x_b]])
    us = np.concatenate([[0.0], root.u, [0.0]])
    vals = np.interp(mesh.vertices[:, 0], xs, us)
    return DiscreteFunction(mesh, vals)
