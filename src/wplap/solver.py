"""Critical-point solvers for E = phi + lambda*Phi + mu*Upsilon.

Three search modes: damped-Newton energy descent with multistart (global
minimizer candidate), the same descent held to the sublevel set {phi <= r}
(small local minimizer), and a mountain pass between two distinct critical
points, Newton-polished from the energy peak on the segment joining them.
phi' is uniformly monotone for p >= 2, which makes invert_phi_prime
single-valued; that inverse is the same energy descent on phi with a linear
load.  Every Newton step (_solve_tangent) solves for the interior vertices
only, on the tangent's free block; the Dirichlet values stay 0.  That block
comes in block-tridiagonal storage (the mesh numbers its vertices
lexicographically, so the block is banded), and a block Thomas solve
(_block_solve) runs on it with numpy alone, never forming the dense block;
it costs O(ni m^2) for blocks of size m against O(ni^3) dense.  For p > 2
phi'' degenerates at u = 0, and Euler's identity phi''(v) v = (p-1) phi'(v)
for the p-homogeneous phi makes the full Newton step only contract v by
(p-2)/(p-1) where phi dominates; after a full step the descent also tries
the Euler-exact step (p-1) dv.
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
_SEGMENT_SAMPLES = 33         # points on the mountain-pass segment searched for its peak


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


def _block_solve(blocks: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the system held in the block-tridiagonal storage blocks
    (3, nb, m, m) of EnergyAssembler.tangent(free=True) against rhs (n,),
    n <= nb m, by block LU without pivoting between blocks (the block
    Thomas algorithm; Golub & Van Loan, Matrix Computations, 4.5).

    The forward pass forms S_k = D_k - L_k S_{k-1}^{-1} U_{k-1} and solves
    S_k [X_k | y_k] = [U_k | z_k - L_k y_{k-1}] in one np.linalg.solve call,
    looked up at call time; back substitution takes x_k = y_k - X_k x_{k+1}.
    A singular S_k raises np.linalg.LinAlgError."""
    sub, diag, sup = blocks
    nb, m = diag.shape[:2]
    rhs_k = np.empty((nb, m, m + 1))
    rhs_k[:, :, :m] = sup
    rhs_k[:, :, m] = np.pad(rhs, (0, nb * m - rhs.size)).reshape(nb, m)
    xy = np.empty_like(rhs_k)           # [X_k | y_k]
    for k in range(nb):
        S = diag[k]
        if k:
            lxy = sub[k] @ xy[k - 1]
            S = S - lxy[:, :m]
            rhs_k[k, :, m] -= lxy[:, m]
        xy[k] = np.linalg.solve(S, rhs_k[k])
    x = np.zeros((nb + 1, m))           # x[nb] = 0 starts the recursion
    for k in range(nb - 1, -1, -1):
        x[k] = xy[k, :, m] - xy[k, :, :m] @ x[k + 1]
    return x.reshape(-1)[:rhs.size]


def _solve_tangent(asm: EnergyAssembler, v: np.ndarray, res: np.ndarray,
                   include_sources: bool = True) -> np.ndarray | None:
    """Newton direction at v: the tangent's free block, in its
    block-tridiagonal storage, solved by _block_solve against -res on the
    interior vertices, 0 on the boundary (the Dirichlet values stay fixed).
    None when a block solve is singular or the result is not finite."""
    dv = np.zeros(v.size)
    try:
        dv[asm.interior] = _block_solve(asm.tangent(v, include_sources, free=True),
                                        -res[asm.interior])
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(dv)):
        return None
    return dv


def _descend(asm: EnergyAssembler, v0: np.ndarray, config: SolverConfig,
             level: float | None = None):
    """Monotone energy descent: damped Newton direction when it helps,
    backtracking gradient step otherwise.  At p > 2, when the full step
    (alpha = 1) passes Armijo, the step (p-1) dv is tried too and kept if
    its energy is strictly lower: for phi alone dv = -v/(p-1) by Euler's
    identity, so that step lands on the minimizer u = 0, which the full
    step only approaches geometrically.  With a level, every iterate is
    rescaled radially onto {phi <= level} (phi is p-homogeneous, so
    u -> (level/phi(u))^(1/p) u lands exactly on the level set), and
    converged also requires the constraint to be inactive.  Returns
    (v, scaled residual, converged flag)."""

    def onto_level(u):
        if level is not None:
            ph = asm.phi(u)
            if ph > level:
                return u * (level / ph) ** (1.0 / asm.p)
        return u

    def converged(v, rn):
        return rn <= config.residual_tol and (
            level is None or asm.phi(v) < level * (1.0 - 1e-10))

    v = onto_level(v0.copy())
    E = asm.energy(v)
    for _ in range(config.max_iter):
        if E < -1.0 / config.residual_tol:
            raise CoercivityError(f"energy diverged to {E:.3e}")
        res = asm.residual(v)
        rn = asm.residual_norm(res)
        if converged(v, rn):
            return v, rn, True
        dv = _solve_tangent(asm, v, res)
        if dv is None or float(res @ dv) >= 0.0:
            # full Jacobian indefinite: precondition the gradient with the
            # monotone part, which is positive definite, so res.dv < 0
            dv = _solve_tangent(asm, v, res, include_sources=False)
            if dv is None or float(res @ dv) >= 0.0:
                dv = -res
        slope = float(res @ dv)
        alpha, accepted = 1.0, False
        while alpha > 1e-14:
            cand = onto_level(v + alpha * dv)
            Ec = asm.energy(cand)
            if Ec <= E + _SUFFICIENT_DECREASE * alpha * min(slope, 0.0):
                # a step that leaves E bitwise unchanged sits at the energy's
                # rounding floor, where taking it would repeat until max_iter
                accepted = Ec < E
                if accepted and alpha == 1.0 and asm.p > 2.0:
                    ext = onto_level(v + (asm.p - 1.0) * dv)
                    Ee = asm.energy(ext)
                    if Ee < Ec:
                        cand, Ec = ext, Ee
                if accepted:
                    v, E = cand, Ec
                break
            alpha *= _BACKTRACK
        if not accepted:
            # stationary for this line search (possibly constrained) or stalled
            return v, rn, converged(v, rn)
    res = asm.residual(v)
    rn = asm.residual_norm(res)
    return v, rn, converged(v, rn)


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
                      config: SolverConfig):
    """[0, u*, random]: the random start is uniform in [-1, 1], scaled by
    sup|u*| (by 1 without u*), with zeros on the boundary."""
    seeds = [np.zeros(mesh.num_vertices)]
    scale = 1.0
    if ustar is not None:
        seeds.append(ustar.values.copy())
        scale = sup_norm(ustar)
    rng = np.random.default_rng(config.seed)
    rnd = scale * rng.uniform(-1.0, 1.0, mesh.num_vertices)
    rnd[mesh.boundary_vertices] = 0.0
    seeds.append(rnd)
    return seeds


def _best_descent(asm: EnergyAssembler, seeds, config: SolverConfig,
                  level: float | None = None):
    """Descend from every seed and keep the best result: converged before
    unconverged, then strictly lower energy, so the first seed wins a tie.
    Returns (v, converged)."""
    best = None
    for seed in seeds:
        v, _, ok = _descend(asm, seed, config, level)
        rank = (not ok, asm.energy(v))
        if best is None or rank < best[0]:
            best = (rank, v, ok)
    return best[1], best[2]


def minimize_energy(asm: EnergyAssembler, config: SolverConfig = SolverConfig(),
                    ustar: DiscreteFunction | None = None) -> SolutionRecord:
    """Best local minimizer over the multistart seeds {0, u*, -u*, random};
    classification 'global-min-candidate'."""
    seeds = _multistart_seeds(asm.mesh, ustar, config)
    if ustar is not None:
        seeds.insert(2, -ustar.values)
    v, ok = _best_descent(asm, seeds, config)
    if not ok:
        raise SolverFailure("no multistart run converged")
    return _record(asm, v, "global-min-candidate")


def sublevel_minimize(asm: EnergyAssembler, r: float,
                      config: SolverConfig = SolverConfig(),
                      ustar: DiscreteFunction | None = None) -> SolutionRecord:
    """Descent on {phi <= r} from the seeds {0, u*, random}; converged means
    an interior critical point (constraint inactive), otherwise the best
    boundary point is returned with converged=False."""
    if r <= 0:
        raise ValueError("sublevel radius must be positive")
    v, ok = _best_descent(asm, _multistart_seeds(asm.mesh, ustar, config), config, r)
    return _record(asm, v, "sublevel-min", converged=ok)


def _polish(asm: EnergyAssembler, v0: np.ndarray, config: SolverConfig):
    # Newton on the residual norm; indefinite Hessian is fine at a saddle
    v = v0.copy()
    for _ in range(60):
        res = asm.residual(v)
        rn = asm.residual_norm(res)
        if rn <= config.residual_tol:
            return v
        dv = _solve_tangent(asm, v, res)
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


def mountain_pass(asm: EnergyAssembler, u_a: DiscreteFunction, u_b: DiscreteFunction,
                  config: SolverConfig = SolverConfig()) -> SolutionRecord:
    """Saddle between u_a and u_b, Newton-polished from the energy peak on
    the segment joining them.

    The highest of _SEGMENT_SAMPLES equispaced points (1 - t) u_a + t u_b is
    polished to residual tolerance.  A result below the higher endpoint
    energy, or within delta_dist of an endpoint, is rejected; the segment
    peak then comes back with converged=False, inconclusive=True."""
    dist = sup_norm(u_a.copy_with(u_a.values - u_b.values))
    scale = max(sup_norm(u_a), sup_norm(u_b), 1e-30)
    if dist <= config.delta_dist * scale:
        raise ValueError("mountain pass endpoints must be distinct")

    E_end = max(asm.energy(u_a.values), asm.energy(u_b.values))

    def _acceptable(v: np.ndarray) -> bool:
        if asm.energy(v) < E_end - 1e-9 * (1.0 + abs(E_end)):
            return False
        for end in (u_a.values, u_b.values):
            if sup_norm(DiscreteFunction(asm.mesh, v - end)) <= config.delta_dist * scale:
                return False
        return True

    samples = [(1 - t) * u_a.values + t * u_b.values
               for t in np.linspace(0, 1, _SEGMENT_SAMPLES)]
    peak = samples[int(np.argmax([asm.energy(v) for v in samples]))]
    cand = _polish(asm, peak, config)
    if cand is not None and _acceptable(cand):
        return _record(asm, cand, "mountain-pass")
    return _record(asm, peak, "mountain-pass", converged=False, inconclusive=True)


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
