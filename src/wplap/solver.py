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
it carries only the band columns through which neighbouring block rows
couple, so it costs O(ni m (m + band)) for blocks of size m >= band (the
half-bandwidth) against O(ni^3) dense.  A tridiagonal block (band == 1,
every 1D mesh) comes in blocks of the fixed size m = energy._SPIKE_BLOCK
and is solved by the SPIKE partition instead (_spike_solve; Polizzi &
Sameh, Parallel Computing 32 (2006) 177-194): one LAPACK call for all
nb = ni/m diagonal blocks at once, O(ni m^2) work, and O(nb) Python steps
on the block-end values, in place of nb sequential block solves, so the
1D Newton solve is O(ni).  For p > 2 phi'' degenerates at u = 0, and
Euler's identity phi''(v) v = (p-1) phi'(v) for the p-homogeneous phi
makes the full Newton step only contract v by (p-2)/(p-1) where phi
dominates; after a full step the descent also tries the Euler-exact step
(p-1) dv.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .energy import EPS_REG, EnergyAssembler
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
    eps_reg: float = EPS_REG
    delta_dist: float = 1e-3          # sup-norm, relative to max sup-norm
    seed: int = 42                    # in [0, 2**64): the random start's 64-bit key

    def __post_init__(self):
        if min(self.residual_tol, self.eps_reg, self.delta_dist) <= 0:
            raise ValueError("tolerances must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"need 0 <= seed < 2**64, got {self.seed}")


@dataclass
class SolutionRecord:
    u: DiscreteFunction
    residual_norm: float
    energy: float
    classification: str   # global-min-candidate | sublevel-min | mountain-pass
    norm: float           # ||u|| in the weighted space
    converged: bool = True


def _sup(v: np.ndarray) -> float:
    return float(np.max(np.abs(v)))


def _apart(delta_dist: float, values):
    """The distinctness rule, as a test of a sup-distance dist: dist >
    delta_dist * max(S, 1e-30), S the largest sup-norm among values."""
    thresh = delta_dist * max(max(map(_sup, values), default=0.0), 1e-30)
    return lambda dist: dist > thresh


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
        vals = [r.u.values for r in self.records]
        n = len(vals)
        # max|a - b| is exact, so one broadcast gives every pairwise _sup bitwise
        V = np.array(vals)
        self.distance_matrix = D = (np.abs(V[:, None] - V[None, :]).max(axis=2) if n
                                    else np.zeros((0, 0)))
        apart = _apart(self.delta_dist, vals)
        self.kept = []
        for i in range(n):
            if all(apart(D[i, j]) for j in self.kept):
                self.kept.append(i)
        self.count = len(self.kept)
        self.count_nontrivial = sum(1 for i in self.kept if apart(_sup(vals[i])))
        self.rho_observed = max([r.norm for r in self.records], default=0.0)

    @property
    def min_distance(self) -> float:
        """Smallest sup-distance between two records; 0 with fewer than two."""
        return min(self.distance_matrix[np.triu_indices(len(self.records), 1)].tolist(),
                   default=0.0)

    @property
    def max_residual(self) -> float:
        return max([r.residual_norm for r in self.records], default=0.0)

    def distinct_records(self) -> list:
        return [self.records[i] for i in self.kept]


def _block_solve(blocks: np.ndarray, rhs: np.ndarray, band: int) -> np.ndarray:
    """Solve the system held in the block-tridiagonal storage blocks
    (3, nb, m, m) of EnergyAssembler.tangent(free=True) against rhs (n,),
    n <= nb m, by block LU without pivoting between blocks (the block
    Thomas algorithm; Golub & Van Loan, Matrix Computations, 4.5).

    The forward pass forms S_k = D_k - L_k S_{k-1}^{-1} U_{k-1} and solves
    S_k [X_k | y_k] = [U_k | z_k - L_k y_{k-1}] in one np.linalg.solve call,
    looked up at call time; back substitution takes x_k = y_k - X_k x_{k+1}.
    With half-bandwidth band <= m, U_k is zero outside its first band
    columns and L_k outside its last band columns, so only those are carried:
    each solve has band + 1 right-hand sides, and L_k X_{k-1} touches only
    S_k's first band columns, for O(nb m^2 (m + band)) work in all.
    A singular S_k raises np.linalg.LinAlgError.

    With band == 1 (every 1D mesh) the system is tridiagonal and goes to
    _spike_solve (the SPIKE partition; Polizzi & Sameh, Parallel Computing
    32 (2006) 177-194): one LAPACK call over all nb diagonal blocks and
    O(nb) Python steps, in place of nb sequential np.linalg.solve calls.
    With the fixed 1D block size m = energy._SPIKE_BLOCK that is
    O(nb m^3) = O(ni m^2) LAPACK work and O(ni/m) Python steps: O(ni)."""
    if band == 1:
        return _spike_solve(blocks, rhs)
    sub, diag, sup = blocks
    nb, m = diag.shape[:2]
    lo = m - band                       # first column of L_k that can be nonzero
    rhs_k = np.zeros((nb, m, band + 1))
    rhs_k[:, :, :band] = sup[:, :, :band]
    rhs_k.reshape(nb * m, band + 1)[:rhs.size, band] = rhs
    xy = np.empty_like(rhs_k)           # [X_k | y_k], X_k's first band columns
    for k in range(nb):
        S = diag[k].copy()
        if k:
            lxy = sub[k, :, lo:] @ xy[k - 1, lo:]
            S[:, :band] -= lxy[:, :band]
            rhs_k[k, :, band] -= lxy[:, band]
        xy[k] = np.linalg.solve(S, rhs_k[k])
    x = np.zeros((nb + 1, m))           # x[nb] = 0 starts the recursion
    for k in range(nb - 1, -1, -1):
        x[k] = xy[k, :, band] - xy[k, :, :band] @ x[k + 1, :band]
    return x.reshape(-1)[:rhs.size]


def _spike_solve(blocks: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """_block_solve for a tridiagonal system (band == 1) by the SPIKE
    partition.

    Block row k couples to its neighbours only through a_k = L_k[0, m-1] and
    c_k = U_k[m-1, 0], so D_k x_k = z_k - a_k s_{k-1} e_0 - c_k t_{k+1} e_{m-1}
    with t_k = x_k[0] and s_k = x_k[m-1].  One np.linalg.solve call, looked
    up at call time, gives D_k^{-1} [e_0 | e_{m-1} | z_k] for every k at
    once (LAPACK pivots inside each block); a forward and a backward scalar
    recurrence on the 2 nb block-end values, s_{k-1} = alpha + beta t_k and
    t_k = gamma_k + delta_k t_{k+1}, then fix the couplings, and one
    broadcast forms every x_k: one LAPACK call of O(nb m^3) work and O(nb)
    Python steps, O(ni) in all for the fixed m of a 1D mesh.
    A singular D_k raises np.linalg.LinAlgError, an exactly zero interface
    pivot ZeroDivisionError."""
    sub, diag, sup = blocks
    nb, m = diag.shape[:2]
    r = np.zeros((nb, m, 3))
    r[:, 0, 0] = 1.0
    r[:, m - 1, 1] = 1.0
    r.reshape(nb * m, 3)[:rhs.size, 2] = rhs
    y = np.linalg.solve(diag, r)        # [D_k^-1 e_0 | D_k^-1 e_{m-1} | D_k^-1 z_k]
    a = sub[:, 0, m - 1].tolist()       # a_0 meets s_{-1} = 0
    c = sup[:, m - 1, 0].tolist()       # c_{nb-1} meets t_nb = 0
    (p0, q0, w0), (pm, qm, wm) = y[:, 0].T.tolist(), y[:, m - 1].T.tolist()
    ends, alpha, beta = [], 0.0, 0.0    # s_{k-1} = alpha + beta t_k; s_{-1} = 0
    for k in range(nb):
        # put s_{k-1} into the equations for t_k and s_k
        ap0, apm = a[k] * p0[k], a[k] * pm[k]
        piv = 1.0 + ap0 * beta
        gamma, delta = (w0[k] - ap0 * alpha) / piv, -c[k] * q0[k] / piv
        ends.append((alpha, beta, gamma, delta))
        alpha, beta = (wm[k] - apm * (alpha + beta * gamma),
                       -(apm * beta * delta + c[k] * qm[k]))
    s_prev, t_next, t = [0.0] * nb, [0.0] * nb, 0.0    # t = t_{k+1}; t_nb = 0
    for k in range(nb - 1, -1, -1):
        alpha, beta, gamma, delta = ends[k]
        t_next[k] = t
        t = gamma + delta * t
        s_prev[k] = alpha + beta * t
    x = (y[:, :, 2] - (np.array(a) * s_prev)[:, None] * y[:, :, 0]
         - (np.array(c) * t_next)[:, None] * y[:, :, 1])
    return x.reshape(-1)[:rhs.size]


def _solve_tangent(asm: EnergyAssembler, v: np.ndarray, res: np.ndarray,
                   include_sources: bool = True) -> np.ndarray | None:
    """Newton direction at v: the tangent's free block, in its
    block-tridiagonal storage, solved by _block_solve against -res on the
    interior vertices, 0 on the boundary (the Dirichlet values stay fixed).
    None when a block solve or an interface pivot is singular or the result
    is not finite."""
    dv = np.zeros(v.size)
    try:
        dv[asm.interior] = _block_solve(asm.tangent(v, include_sources, free=True),
                                        -res[asm.interior], asm.band)
    except (np.linalg.LinAlgError, ZeroDivisionError):
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
    converged also requires the constraint to be inactive; a stalled descent
    (no step lowers E) ends with _polish, kept if converged at the same solution.
    Returns (v, scaled residual, converged flag, energy at v)."""

    def onto_level(u):
        """(u moved onto the level set, phi(u) when u was not moved else None)."""
        if level is None:
            return u, None
        ph = asm.phi(u)
        if ph > level:
            return u * (level / ph) ** (1.0 / asm.p), None
        return u, ph

    def converged(v, rn, ph=None):
        return rn <= config.residual_tol and (level is None or (
            asm.phi(v) if ph is None else ph) < level * (1.0 - 1e-10))

    v, ph = onto_level(v0.copy())
    E = asm.energy(v)
    for _ in range(config.max_iter):
        if E < -1.0 / config.residual_tol:
            raise CoercivityError(f"energy diverged to {E:.3e}")
        res = asm.residual(v)
        rn = asm.residual_norm(res)
        if converged(v, rn, ph):
            return v, rn, True, E
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
            cand, phc = onto_level(v + alpha * dv)
            Ec = asm.energy(cand)
            if Ec <= E + _SUFFICIENT_DECREASE * alpha * min(slope, 0.0):
                # a step that leaves E bitwise unchanged sits at the energy's
                # rounding floor, where taking it would repeat until max_iter
                accepted = Ec < E
                if accepted and alpha == 1.0 and asm.p > 2.0:
                    ext, phe = onto_level(v + (asm.p - 1.0) * dv)
                    Ee = asm.energy(ext)
                    if Ee < Ec:
                        cand, phc, Ec = ext, phe, Ee
                if accepted:
                    v, ph, E = cand, phc, Ec
                break
            alpha *= _BACKTRACK
        if not accepted:
            # stationary for this line search (possibly constrained) or stalled
            polished = _polish(asm, v, config)
            if polished is not None:
                vp, rp = polished
                if converged(vp, rp) and not _apart(config.delta_dist, [v])(_sup(vp - v)):
                    return vp, rp, True, asm.energy(vp)
            return v, rn, False, E
    rn = asm.residual_norm(asm.residual(v))
    return v, rn, converged(v, rn, ph), E


def _record(asm: EnergyAssembler, v: np.ndarray, residual_norm: float, energy: float,
            classification: str, converged: bool = True) -> SolutionRecord:
    """The record of v, whose scaled residual and energy its search computed."""
    return SolutionRecord(
        u=DiscreteFunction(asm.mesh, v), residual_norm=residual_norm, energy=energy,
        classification=classification, norm=asm.norm_p(v) ** (1.0 / asm.p),
        converged=converged)


def invert_phi_prime(rhs: np.ndarray, w: WeightSpec, p: float, mesh: Mesh,
                     config: SolverConfig = SolverConfig(),
                     u_init: DiscreteFunction | None = None,
                     zero_order: bool = True) -> DiscreteFunction:
    """Solve phi'(u) = rhs (rhs in residual space, zero at boundary nodes);
    phi holds (1/p) int |u|^p when zero_order is set.

    Uniform monotonicity of phi' (p >= 2) makes the solution unique; it is
    the minimizer of the convex merit phi(u) - rhs.u, found by _descend
    (which raises CoercivityError should the merit drop below
    -1/residual_tol)."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (mesh.num_vertices,):
        raise ValueError("rhs must have one entry per mesh vertex")
    rhs = rhs.copy()
    rhs[mesh.boundary_vertices] = 0.0
    asm = EnergyAssembler(mesh, w, p, zero_order=zero_order, eps_reg=config.eps_reg, load=rhs)
    v0 = np.zeros(mesh.num_vertices) if u_init is None else u_init.values
    v, rn, ok, _ = _descend(asm, v0, config)
    if ok:
        return DiscreteFunction(mesh, v)
    raise SolverFailure(f"invert_phi_prime stalled at residual {rn:.3e}",
                        best=DiscreteFunction(mesh, v), residual_norm=rn)


_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15   # splitmix64's state increment


def _splitmix64(z: int) -> int:
    """splitmix64's output mix of the 64-bit int z (Steele, Lea & Flood,
    OOPSLA 2014): a bijection of [0, 2**64) with no visible structure."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK64
    return z ^ z >> 31


@functools.lru_cache(maxsize=1)
def _uniform_draw(seed: int, n: int) -> np.ndarray:
    """n doubles uniform in [-1, 1), read-only, fixed by seed in [0, 2**64):
    the splitmix64 stream from state _splitmix64(seed), value i the mix of
    state + i * _GOLDEN_GAMMA, each double from its top 53 bits.  Memoized,
    since every search of a scan draws the same start."""
    key = _splitmix64(seed)
    out = np.array([-1.0 + 2.0 * ((_splitmix64(key + i * _GOLDEN_GAMMA & _MASK64) >> 11)
                                  * 2.0 ** -53) for i in range(1, n + 1)], dtype=float)
    out.flags.writeable = False
    return out


def _multistart_seeds(mesh: Mesh, ustar: DiscreteFunction | None,
                      config: SolverConfig):
    """[0, u*, random]: the random start is uniform in [-1, 1) (_uniform_draw),
    scaled by sup|u*| (by 1 without u*), with zeros on the boundary."""
    seeds = [np.zeros(mesh.num_vertices)]
    scale = 1.0
    if ustar is not None:
        seeds.append(ustar.values.copy())
        scale = sup_norm(ustar)
    rnd = scale * _uniform_draw(config.seed, mesh.num_vertices)
    rnd[mesh.boundary_vertices] = 0.0
    seeds.append(rnd)
    return seeds


def _best_descent(asm: EnergyAssembler, seeds, config: SolverConfig,
                  level: float | None = None):
    """Descend from every seed and keep the best result: converged before
    unconverged, then strictly lower energy, so the first seed wins a tie.
    Returns _descend's (v, scaled residual, converged, energy) of the best.

    A descent during which asm.lam_reads did not move never saw lambda's
    term, so at any lambda of the same sign it runs bit for bit the same:
    its result, v read-only, goes into asm.descents, and the other cells of
    a scan replay it.  lam = 0 has sign 0 and neither stores nor replays."""
    sign = (asm.lam > 0.0) - (asm.lam < 0.0)
    best = None
    for seed in seeds:
        key = (seed.tobytes(), level, asm.mu, sign, config)
        out = asm.descents.get(key)
        if out is None:
            reads = asm.lam_reads
            out = _descend(asm, seed, config, level)
            if sign and asm.lam_reads == reads:
                # a copy, allocated once the descent's temporaries are
                # freed: keeping the descent's own array instead raised
                # scan1d's peak RSS by 0.1-1.2 MB (heap fragmentation)
                v = out[0].copy()
                v.flags.writeable = False
                out = asm.descents[key] = (v, *out[1:])
        if best is None or (not out[2], out[3]) < (not best[2], best[3]):
            best = out
    return best


def minimize_energy(asm: EnergyAssembler, config: SolverConfig = SolverConfig(),
                    ustar: DiscreteFunction | None = None) -> SolutionRecord:
    """Best local minimizer over the multistart seeds {0, u*, -u*, random};
    classification 'global-min-candidate'."""
    seeds = _multistart_seeds(asm.mesh, ustar, config)
    if ustar is not None:
        seeds.insert(2, -ustar.values)
    v, rn, ok, E = _best_descent(asm, seeds, config)
    if not ok:
        raise SolverFailure("no multistart run converged",
                            best=DiscreteFunction(asm.mesh, v), residual_norm=rn)
    return _record(asm, v, rn, E, "global-min-candidate")


def sublevel_minimize(asm: EnergyAssembler, r: float,
                      config: SolverConfig = SolverConfig(),
                      ustar: DiscreteFunction | None = None) -> SolutionRecord:
    """Descent on {phi <= r} from the seeds {0, u*, random}; converged means
    an interior critical point (constraint inactive), otherwise the best
    boundary point is returned with converged=False."""
    if r <= 0:
        raise ValueError("sublevel radius must be positive")
    v, rn, ok, E = _best_descent(asm, _multistart_seeds(asm.mesh, ustar, config), config, r)
    return _record(asm, v, rn, E, "sublevel-min", converged=ok)


def _polish(asm: EnergyAssembler, v0: np.ndarray, config: SolverConfig):
    """Newton on the residual norm from v0 (an indefinite Hessian is fine at
    a saddle): (v, scaled residual) at residual tolerance, else None."""
    v = v0.copy()
    res = asm.residual(v)
    rn = asm.residual_norm(res)
    for _ in range(60):
        if rn <= config.residual_tol:
            return v, rn
        dv = _solve_tangent(asm, v, res)
        if dv is None:
            return None
        beta = 1.0
        while beta > 1e-12:
            cand = v + beta * dv
            res_c = asm.residual(cand)
            rn_c = asm.residual_norm(res_c)
            if rn_c < rn:
                break
            beta *= 0.5
        else:
            return None
        v, res, rn = cand, res_c, rn_c
    return (v, rn) if rn <= config.residual_tol else None


def mountain_pass(asm: EnergyAssembler, u_a: DiscreteFunction, u_b: DiscreteFunction,
                  config: SolverConfig = SolverConfig()) -> SolutionRecord:
    """Saddle between u_a and u_b, Newton-polished from the energy peak on
    the segment joining them.

    The highest of _SEGMENT_SAMPLES equispaced points (1 - t) u_a + t u_b is
    polished to residual tolerance.  A result below the higher endpoint
    energy, or within delta_dist of an endpoint, is rejected; the segment
    peak then comes back with converged=False, which solve_cell drops."""
    ends = (u_a.values, u_b.values)
    apart = _apart(config.delta_dist, ends)
    if not apart(_sup(u_a.values - u_b.values)):
        raise ValueError("mountain pass endpoints must be distinct")

    samples = [(1 - t) * u_a.values + t * u_b.values
               for t in np.linspace(0, 1, _SEGMENT_SAMPLES)]
    energies = [asm.energy(v) for v in samples]
    E_end = max(energies[0], energies[-1])     # the samples at t = 0, 1 are u_a, u_b
    k = int(np.argmax(energies))
    polished = _polish(asm, samples[k], config)
    if polished is not None:
        v, rn = polished
        E = asm.energy(v)
        if E >= E_end - 1e-9 * (1.0 + abs(E_end)) and all(apart(_sup(v - end)) for end in ends):
            return _record(asm, v, rn, E, "mountain-pass")
    rn = asm.residual_norm(asm.residual(samples[k]))
    return _record(asm, samples[k], rn, energies[k], "mountain-pass", converged=False)


@dataclass
class ScanCell:
    lam: float
    mu: float
    solutions: SolutionSet   # of every record solve_cell returned (none if it failed)
    notes: list


@dataclass
class ScanResult:
    cells: list

    @property
    def lambda_window(self) -> list:
        """The (lam, mu) cells with count >= 3."""
        return [(c.lam, c.mu) for c in self.cells if c.solutions.count >= 3]


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
    if SolutionSet(records, config.delta_dist).count == 2:
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
    solve_cell and keep the SolutionSet of its records.  A cell that errors
    keeps an empty set and the error as a note, and the scan continues."""
    cells = []
    for lam in lam_grid:
        for mu in mu_list:
            asm.lam, asm.mu = float(lam), float(mu)
            records, notes = [], []
            try:
                records, notes = solve_cell(asm, r, config=config, ustar=ustar)
            except (SolverFailure, CoercivityError) as exc:
                notes.append(f"cell failed: {exc}")
            cells.append(ScanCell(lam, mu, SolutionSet(records, config.delta_dist), notes))
    return ScanResult(cells=cells)
