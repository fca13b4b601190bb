"""Critical-point solvers for E = phi + lambda*Phi + mu*Upsilon.

Three search modes: damped-Newton energy descent with multistart (global
minimizer candidate), projected descent on the sublevel set {phi <= r}
(small local minimizer), and an elastic-string mountain pass between two
distinct critical points.  phi' is uniformly monotone for p >= 2, which
makes invert_phi_prime single-valued; that inverse is the same energy
descent on phi with a linear load.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import EnergyAssembler
from .geometry import Mesh
from .space import DiscreteFunction, sup_norm
from .weight import WeightSpec

__all__ = [
    "SolverConfig",
    "SolutionRecord",
    "SolutionSet",
    "SolverFailure",
    "CoercivityError",
    "invert_phi_prime",
    "minimize_energy",
    "sublevel_minimize",
    "mountain_pass",
    "solve_cell",
    "scan",
]


class SolverFailure(RuntimeError):
    """Non-convergence; carries the best iterate found."""

    def __init__(self, message: str, best: DiscreteFunction | None = None,
                 residual_norm: float = math.inf):
        super().__init__(message)
        self.best = best
        self.residual_norm = residual_norm


class CoercivityError(RuntimeError):
    """Energy diverged below -1/tolerance; growth hypothesis likely violated."""


_BACKTRACK = 0.5              # step shrink factor of the Armijo line search
_SUFFICIENT_DECREASE = 1e-4   # Armijo constant
_STRING_IMAGES = 33           # images on the mountain-pass string (odd)
_STRING_MAX_SWEEPS = 600      # relaxation sweeps of the string


@dataclass(frozen=True)
class SolverConfig:
    residual_tol: float = 1e-8        # on the h^(N/2)-scaled residual norm
    max_iter: int = 5000
    eps_reg: float = 1e-8
    delta_dist: float = 1e-3          # sup-norm, relative to max sup-norm
    seed: int = 42

    def __post_init__(self):
        if min(self.residual_tol, self.eps_reg, self.delta_dist) <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class SolutionRecord:
    u: DiscreteFunction
    lam: float
    mu: float
    residual_norm: float
    energy: float
    classification: str   # global-min-candidate | sublevel-min | mountain-pass
    norm: float           # ||u|| in the weighted space
    converged: bool = True
    inconclusive: bool = False


@dataclass
class SolutionSet:
    records: list
    delta_dist: float
    distance_matrix: np.ndarray = field(init=False)
    kept: list = field(init=False, repr=False)   # indices of the distinct records
    count: int = field(init=False)
    count_nontrivial: int = field(init=False)
    rho_observed: float = field(init=False)

    def __post_init__(self):
        n = len(self.records)
        D = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                D[i, j] = D[j, i] = sup_norm(self.records[i].u.copy_with(
                    self.records[i].u.values - self.records[j].u.values))
        self.distance_matrix = D
        scale = max([sup_norm(r.u) for r in self.records], default=0.0)
        thresh = self.delta_dist * max(scale, 1e-30)
        keep: list[int] = []
        for i in range(n):
            if all(D[i, j] > thresh for j in keep):
                keep.append(i)
        self.kept = keep
        self.count = len(keep)
        self.count_nontrivial = sum(1 for i in keep if sup_norm(self.records[i].u) > thresh)
        self.rho_observed = max([r.norm for r in self.records], default=0.0)

    def distinct_records(self) -> list:
        return [self.records[i] for i in self.kept]


def _solve_tangent(J: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    try:
        dv = np.linalg.solve(J, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(dv)):
        return None
    return dv


def _descend(asm: EnergyAssembler, v0: np.ndarray, config: SolverConfig,
             project=None):
    """Monotone energy descent: damped Newton direction when it helps,
    backtracking gradient step otherwise.  Returns (v, scaled residual,
    converged flag)."""
    v = v0.copy()
    if project is not None:
        v = project(v)
    E = asm.energy(v)
    for _ in range(config.max_iter):
        if E < -1.0 / config.residual_tol:
            raise CoercivityError(f"energy diverged to {E:.3e}")
        res = asm.residual(v)
        rn = asm.residual_norm(res)
        interior_ok = project is None or not _constraint_active(asm, v, project)
        if rn <= config.residual_tol and interior_ok:
            return v, rn, True
        dv = _solve_tangent(asm.tangent(v), -res)
        if dv is None or float(res @ dv) >= 0.0:
            # full Jacobian indefinite: precondition the gradient with the
            # monotone part, which is positive definite, so res.dv < 0
            dv = _solve_tangent(asm.tangent(v, include_sources=False), -res)
            if dv is None or float(res @ dv) >= 0.0:
                dv = -res
        slope = float(res @ dv)
        alpha, accepted = 1.0, False
        while alpha > 1e-14:
            cand = v + alpha * dv
            if project is not None:
                cand = project(cand)
            Ec = asm.energy(cand)
            if Ec <= E + _SUFFICIENT_DECREASE * alpha * min(slope, 0.0):
                v, E, accepted = cand, Ec, True
                break
            alpha *= _BACKTRACK
        if not accepted:
            # stationary for this line search (possibly constrained)
            return v, rn, rn <= config.residual_tol
    res = asm.residual(v)
    rn = asm.residual_norm(res)
    return v, rn, rn <= config.residual_tol


def _constraint_active(asm: EnergyAssembler, v: np.ndarray, project) -> bool:
    return asm.phi(v) >= project.level * (1.0 - 1e-10)


class _SublevelProjection:
    """Radial rescaling onto {phi <= level}: phi is p-homogeneous, so
    u -> (level/phi(u))^(1/p) u lands exactly on the level set."""

    def __init__(self, asm: EnergyAssembler, level: float):
        self.asm = asm
        self.level = level

    def __call__(self, v: np.ndarray) -> np.ndarray:
        ph = self.asm.phi(v)
        if ph > self.level:
            return v * (self.level / ph) ** (1.0 / self.asm.p)
        return v


def _record(asm: EnergyAssembler, v: np.ndarray, classification: str,
            converged: bool = True, inconclusive: bool = False) -> SolutionRecord:
    u = DiscreteFunction(asm.mesh, v)
    res = asm.residual(u.values)
    return SolutionRecord(
        u=u, lam=asm.lam, mu=asm.mu, residual_norm=asm.residual_norm(res),
        energy=asm.energy(u.values), classification=classification,
        norm=asm.norm_p(u.values) ** (1.0 / asm.p), converged=converged,
        inconclusive=inconclusive)


def invert_phi_prime(rhs: np.ndarray, w: WeightSpec, p: float, mesh: Mesh,
                     config: SolverConfig = SolverConfig(), zero_order: bool = True,
                     u_init: DiscreteFunction | None = None) -> DiscreteFunction:
    """Solve phi'(u) = rhs (rhs in residual space, zero at boundary nodes).

    Uniform monotonicity of phi' (p >= 2) makes the solution unique; it is
    the minimizer of the convex merit phi(u) - rhs.u, found by _descend
    (which raises CoercivityError should the merit drop below
    -1/residual_tol)."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (mesh.num_vertices,):
        raise ValueError("rhs must have one entry per mesh vertex")
    rhs = rhs.copy()
    rhs[mesh.boundary_vertices] = 0.0
    asm = EnergyAssembler(mesh, w, p, zero_order=zero_order, eps_reg=config.eps_reg,
                          load=rhs)
    v0 = np.zeros(mesh.num_vertices) if u_init is None else u_init.values
    v, rn, ok = _descend(asm, v0, config)
    if ok:
        return DiscreteFunction(mesh, v)
    raise SolverFailure(f"invert_phi_prime stalled at residual {rn:.3e}",
                        best=DiscreteFunction(mesh, v), residual_norm=rn)


def _multistart_seeds(mesh: Mesh, ustar: DiscreteFunction | None,
                      config: SolverConfig, scale: float = 1.0):
    seeds = [np.zeros(mesh.num_vertices)]
    if ustar is not None:
        seeds.append(ustar.values.copy())
        seeds.append(-ustar.values.copy())
    rng = np.random.default_rng(config.seed)
    rnd = scale * rng.uniform(-1.0, 1.0, mesh.num_vertices)
    rnd[mesh.boundary_vertices] = 0.0
    seeds.append(rnd)
    return seeds


def minimize_energy(asm: EnergyAssembler, config: SolverConfig = SolverConfig(),
                    ustar: DiscreteFunction | None = None) -> SolutionRecord:
    """Best local minimizer over the multistart seeds {0, u*, -u*, random};
    classification 'global-min-candidate'."""
    scale = sup_norm(ustar) if ustar is not None else 1.0
    best = None
    for seed in _multistart_seeds(asm.mesh, ustar, config, scale):
        v, rn, ok = _descend(asm, seed, config)
        if not ok:
            continue
        E = asm.energy(v)
        if best is None or E < best[1]:
            best = (v, E)
    if best is None:
        raise SolverFailure("no multistart run converged")
    return _record(asm, best[0], "global-min-candidate")


def sublevel_minimize(asm: EnergyAssembler, r: float,
                      config: SolverConfig = SolverConfig(),
                      ustar: DiscreteFunction | None = None) -> SolutionRecord:
    """Projected descent on {phi <= r}; converged means an interior critical
    point (constraint inactive), otherwise the best boundary point is
    returned with converged=False."""
    if r <= 0:
        raise ValueError("sublevel radius must be positive")
    proj = _SublevelProjection(asm, r)
    best = None
    seeds = [np.zeros(asm.mesh.num_vertices)]
    if ustar is not None:
        seeds.append(ustar.values.copy())
    rng = np.random.default_rng(config.seed)
    rnd = rng.uniform(-1.0, 1.0, asm.mesh.num_vertices)
    rnd[asm.mesh.boundary_vertices] = 0.0
    seeds.append(rnd)
    for seed in seeds:
        v, rn, ok = _descend(asm, seed, config, project=proj)
        E = asm.energy(v)
        interior = asm.phi(v) < r * (1.0 - 1e-10)
        cand = (v, E, ok and interior)
        if best is None or (cand[2] and not best[2]) or (cand[2] == best[2] and E < best[1]):
            best = cand
    v, _, ok = best
    return _record(asm, v, "sublevel-min", converged=ok)


def _reparametrize(images: list) -> list:
    pts = np.stack(images)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    if s[-1] == 0.0:
        return images
    targets = np.linspace(0.0, s[-1], len(images))
    out = []
    for tgt in targets:
        j = min(np.searchsorted(s, tgt), len(s) - 1)
        if j == 0:
            out.append(pts[0].copy())
            continue
        t = (tgt - s[j - 1]) / max(s[j] - s[j - 1], 1e-300)
        out.append((1 - t) * pts[j - 1] + t * pts[j])
    return out


def mountain_pass(asm: EnergyAssembler, u_a: DiscreteFunction, u_b: DiscreteFunction,
                  config: SolverConfig = SolverConfig()) -> SolutionRecord:
    """Elastic-string search for the lowest saddle between u_a and u_b.

    Interior images relax along -grad E orthogonal to the string, the string
    is rebalanced by arclength each sweep, the max-energy image is then
    Newton-polished to residual tolerance."""
    dist = sup_norm(u_a.copy_with(u_a.values - u_b.values))
    scale = max(sup_norm(u_a), sup_norm(u_b), 1e-30)
    if dist <= config.delta_dist * scale:
        raise ValueError("mountain pass endpoints must be distinct")

    E_end = max(asm.energy(u_a.values), asm.energy(u_b.values))

    def _polish(v0: np.ndarray):
        # Newton on the residual norm; indefinite Hessian is fine at a saddle
        v = v0.copy()
        for _ in range(60):
            res = asm.residual(v)
            rn = asm.residual_norm(res)
            if rn <= config.residual_tol:
                return v
            dv = _solve_tangent(asm.tangent(v), -res)
            if dv is None:
                return None
            beta, ok = 1.0, False
            while beta > 1e-12:
                cand = v + beta * dv
                if asm.residual_norm(asm.residual(cand)) < rn:
                    v, ok = cand, True
                    break
                beta *= 0.5
            if not ok:
                return None
        return v if asm.residual_norm(asm.residual(v)) <= config.residual_tol else None

    def _acceptable(v: np.ndarray) -> bool:
        if asm.energy(v) < E_end - 1e-9 * (1.0 + abs(E_end)):
            return False
        for end in (u_a.values, u_b.values):
            if sup_norm(DiscreteFunction(asm.mesh, v - end)) <= config.delta_dist * scale:
                return False
        return True

    M = _STRING_IMAGES
    images = [(1 - t) * u_a.values + t * u_b.values for t in np.linspace(0, 1, M)]
    alpha = 0.05
    prev_peak = math.inf
    for sweep in range(_STRING_MAX_SWEEPS):
        energies = [asm.energy(v) for v in images]
        peak_idx = int(np.argmax(energies))
        peak = energies[peak_idx]
        if sweep % 20 == 0:
            cand = _polish(images[peak_idx])
            if cand is not None and _acceptable(cand):
                return _record(asm, cand, "mountain-pass")
        residuals = [asm.residual(v) for v in images]
        forces = []
        fmax = 0.0
        for j in range(1, M - 1):
            tau = images[j + 1] - images[j - 1]
            tn = np.linalg.norm(tau)
            if tn > 0:
                tau = tau / tn
            Fj = -residuals[j]
            Fj = Fj - float(Fj @ tau) * tau
            forces.append(Fj)
            fmax = max(fmax, asm.residual_norm(Fj))
        if fmax <= max(100.0 * config.residual_tol, 1e-7) and sweep > 2:
            break
        step = alpha / (1.0 + max(np.linalg.norm(f) for f in forces))
        trial = [images[0]] + [images[j + 1] + step * forces[j] for j in range(M - 2)] \
            + [images[-1]]
        trial = _reparametrize(trial)
        trial_peak = max(asm.energy(v) for v in trial)
        if trial_peak <= peak + 1e-12 * (1.0 + abs(peak)) or trial_peak < prev_peak:
            images = trial
            prev_peak = min(prev_peak, trial_peak)
            alpha = min(alpha * 1.05, 0.5)
        else:
            alpha *= 0.5
            if alpha < 1e-12:
                break

    energies = [asm.energy(v) for v in images]
    v = images[int(np.argmax(energies))].copy()
    cand = _polish(v)
    if cand is not None and _acceptable(cand):
        return _record(asm, cand, "mountain-pass")
    return _record(asm, v, "mountain-pass", converged=False, inconclusive=True)


@dataclass
class ScanCell:
    lam: float
    mu: float
    count: int
    count_nontrivial: int
    rho: float
    min_distance: float
    max_residual: float
    notes: list
    records: list         # the cell's distinct records, in solve order


@dataclass
class ScanResult:
    cells: list
    lambda_window: list   # (lam, mu) cells with count >= 3


def solve_cell(asm: EnergyAssembler, r: float | None = None,
               config: SolverConfig = SolverConfig(),
               ustar: DiscreteFunction | None = None):
    """The cell (asm.lam, asm.mu): minimize_energy, then (when r is given)
    sublevel_minimize, then mountain_pass between the two when distinct.
    Returns (records, notes); solver errors propagate to the caller."""
    notes = []
    records = [minimize_energy(asm, config=config, ustar=ustar)]
    if r is None:
        return records, notes
    gmin = records[0]
    sub = sublevel_minimize(asm, r, config=config, ustar=ustar)
    if not sub.converged:
        notes.append("sublevel minimizer stuck on the constraint boundary")
        return records, notes
    records.append(sub)
    scale = max(sup_norm(gmin.u), sup_norm(sub.u), 1e-30)
    dist = sup_norm(gmin.u.copy_with(gmin.u.values - sub.u.values))
    if dist > config.delta_dist * scale:
        mp = mountain_pass(asm, sub.u, gmin.u, config=config)
        if mp.converged:
            records.append(mp)
        else:
            notes.append("mountain pass polish did not converge")
    return records, notes


def scan(asm: EnergyAssembler, lam_grid, mu_list, r: float,
         config: SolverConfig = SolverConfig(),
         ustar: DiscreteFunction | None = None) -> ScanResult:
    """Sweep the (lambda, mu) grid on the one assembler asm, setting asm.lam
    and asm.mu per cell (asm is left at the last cell); per cell run
    minimize_energy, sublevel_minimize and, when the two are distinct,
    mountain_pass.  Cells that error are recorded and the scan continues."""
    cells = []
    window = []
    for lam in lam_grid:
        for mu in mu_list:
            asm.lam, asm.mu = float(lam), float(mu)
            notes = []
            records = []
            try:
                records, notes = solve_cell(asm, r, config=config, ustar=ustar)
            except (SolverFailure, CoercivityError) as exc:
                notes.append(f"cell failed: {exc}")
            cell_set = SolutionSet(records, config.delta_dist)
            D = cell_set.distance_matrix
            mind = float(np.min(D[np.triu_indices(len(records), 1)])) if len(records) > 1 else 0.0
            cells.append(ScanCell(
                lam=lam, mu=mu, count=cell_set.count,
                count_nontrivial=cell_set.count_nontrivial, rho=cell_set.rho_observed,
                min_distance=mind,
                max_residual=max([r_.residual_norm for r_ in records], default=0.0),
                notes=notes, records=cell_set.distinct_records()))
            if cell_set.count >= 3:
                window.append((lam, mu))
    return ScanResult(cells=cells, lambda_window=window)
