"""Discrete functions and the weighted Sobolev norm machinery.

Norms are (int |u|^p + int a |grad u|^p)^(1/p) for piecewise-linear u, with
per-cell Gauss quadrature of order >= 5.  The module also estimates the
sup-norm embedding constant k = sup max|u| / ||u|| from below (cone hats at
the few nodes deepest inside the domain, then gradient ascent, in O(nv)
memory) and from above (Talenti's constant combined with a Hoelder bound
through int a^(-s), rigorous for every weight a > 0)."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Domain, Mesh, distance_to_boundary, domain_measure
from .weight import WeightSpec, compute_ps, eval_weight

__all__ = [
    "DiscreteFunction",
    "NormReport",
    "EmbeddingEstimate",
    "QuadratureError",
    "weighted_norm",
    "sup_norm",
    "talenti_bound",
    "k_upper_bound",
    "estimate_k",
]


class QuadratureError(RuntimeError):
    """Non-finite quadrature contribution (weight singularity hit a node)."""


@dataclass
class DiscreteFunction:
    """Piecewise-linear function given by one value per mesh vertex; the
    values on boundary vertices are set to zero."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.array(self.values, dtype=float)
        if self.values.shape != (self.mesh.num_vertices,):
            raise ValueError("need one value per vertex")
        self.values[self.mesh.boundary_vertices] = 0.0


@dataclass(frozen=True)
class NormReport:
    lp_term: float     # int |u|^p
    grad_term: float   # int a |grad u|^p
    p: float

    @property
    def full_norm(self) -> float:
        return (self.lp_term + self.grad_term) ** (1.0 / self.p)

    @property
    def a_norm(self) -> float:
        return self.grad_term ** (1.0 / self.p)


def _gather(mesh: Mesh, V: np.ndarray):
    """Quadrature-point values (nc, nqc[, m]) and cell gradients (nc, N[, m])
    of nodal values V (nv,) or (nv, m), read from each cell's own vertices."""
    bary = mesh.quadrature()[2]
    Vc = V[mesh.cells]                                         # (nc, N+1[, m])
    sg = mesh.shape_gradients                                  # (nc, N+1, N)
    if V.ndim == 1:     # one vector: plain products beat nc tiny matmuls
        return Vc @ bary.T, np.einsum("cbk,cb->ck", sg, Vc)
    return bary @ Vc, sg.swapaxes(1, 2) @ Vc


def _cell_terms(wq: np.ndarray, cellA: np.ndarray, p: float, uq: np.ndarray,
                g: np.ndarray):
    """Per-cell int |u|^p and int a |grad u|^p from gathered values; trailing
    axes of uq (nc, nqc, ...) and g (nc, N, ...) are batch axes."""
    lp = np.einsum("cq,cq...->c...", wq, np.abs(uq) ** p)
    gnorm = np.linalg.norm(g, axis=1)
    return lp, cellA.reshape(cellA.shape + (1,) * (gnorm.ndim - 1)) * gnorm ** p


def _norm_terms(mesh: Mesh, cellA: np.ndarray, p: float, V: np.ndarray):
    """Per-cell (lp, grad) contributions, (nc,) or (nc, m), for V (nv,) or (nv, m)."""
    return _cell_terms(mesh.quadrature()[1], cellA, p, *_gather(mesh, V))


def _cell_weight_integrals(mesh: Mesh, w: WeightSpec) -> np.ndarray:
    """int_cell a dx for every cell (order-5 Gauss), with a finiteness guard."""
    pts, wq, _ = mesh.quadrature()
    contrib = wq * eval_weight(w, mesh.domain, pts).reshape(wq.shape)
    finite = np.isfinite(contrib).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise QuadratureError(f"non-finite weight contribution in cell {bad}")
    return contrib.sum(axis=1)


def weighted_norm(u: DiscreteFunction, w: WeightSpec, p: float) -> NormReport:
    """Weighted Sobolev norm terms of u: int |u|^p and int a |grad u|^p."""
    lp, grad = _norm_terms(u.mesh, _cell_weight_integrals(u.mesh, w), p, u.values)
    lp, grad = float(lp.sum()), float(grad.sum())
    if not (math.isfinite(lp) and math.isfinite(grad)):
        raise QuadratureError("non-finite norm contribution")
    return NormReport(lp_term=lp, grad_term=grad, p=p)


def sup_norm(u: DiscreteFunction) -> float:
    """max |u| over the vertices (exact for piecewise-linear u)."""
    return float(np.max(np.abs(u.values)))


def talenti_bound(n: int, p_s: float, measure: float) -> float:
    """Sharp constant for max|u| <= C ||grad u||_{L^{p_s}}, valid for p_s > N:

    C = N^(-1/p_s) / sqrt(pi) * Gamma(1 + N/2)^(1/N)
        * ((p_s - 1)/(p_s - N))^(1 - 1/p_s) * |Omega|^(1/N - 1/p_s)
    """
    if p_s <= n:
        raise ValueError(f"Talenti bound needs p_s > N, got p_s={p_s}, N={n}")
    return (n ** (-1.0 / p_s) / math.sqrt(math.pi)
            * math.gamma(1.0 + n / 2.0) ** (1.0 / n)
            * ((p_s - 1.0) / (p_s - n)) ** (1.0 - 1.0 / p_s)
            * measure ** (1.0 / n - 1.0 / p_s))


@dataclass
class EmbeddingEstimate:
    k_lower: float
    k_upper: float
    witness: DiscreteFunction  # maximizer found for the lower bound

    @property
    def k(self) -> float:
        """Value used by certificates: the upper bound (conservative)."""
        return self.k_upper


def _ratio_batch(mesh: Mesh, cellA: np.ndarray, p: float, V: np.ndarray) -> np.ndarray:
    lp, grad = _norm_terms(mesh, cellA, p, V)
    sup = np.max(np.abs(V), axis=0)
    denom = (lp.sum(axis=0) + grad.sum(axis=0)) ** (1.0 / p)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denom > 0, sup / denom, 0.0)


def _star_fd_gradient(mesh: Mesh, cellA: np.ndarray, p: float, v: np.ndarray,
                      eps: float) -> np.ndarray:
    """Central differences (r(v + eps e_i) - r(v - eps e_i)) / (2 eps) of the
    ratio r = sup|v| / ||v|| at every node i.

    Moving node i changes only the cells of its star, so the norm terms of
    the nc (N+1) single-vertex moves each way are evaluated cell by cell and
    their changes summed into the nodes; the sup of a moved vector comes from
    the two largest |v_j|."""
    _, wq, bary = mesh.quadrature()
    uq, g = _gather(mesh, v)
    lp, grad = _cell_terms(wq, cellA, p, uq, g)
    base = lp + grad                                            # (nc,)
    signs = np.array([eps, -eps])
    # value and gradient of v +- eps e_b on each cell, for each local vertex b
    uq_moved = uq[:, :, None, None] + bary[None, :, :, None] * signs
    g_moved = (g[:, :, None, None]
               + mesh.shape_gradients.swapaxes(1, 2)[:, :, :, None] * signs)
    lp_m, grad_m = _cell_terms(wq, cellA, p, uq_moved, g_moved)  # (nc, N+1, 2)
    change = (lp_m + grad_m) - base[:, None, None]
    nv = v.size
    node = mesh.cells.ravel()
    denom = (float(base.sum()) + np.stack(
        [np.bincount(node, change[:, :, j].ravel(), minlength=nv) for j in (0, 1)])) ** (1.0 / p)

    av = np.abs(v)
    top = np.argsort(av)[-2:]
    others = np.full(nv, av[top[-1]])          # max_{j != i} |v_j|
    others[top[-1]] = av[top[0]]
    sup = np.maximum(np.abs(v[None, :] + signs[:, None]), others)      # (2, nv)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where(denom > 0, sup / denom, 0.0)
    return (r[0] - r[1]) / (2.0 * eps)


def k_upper_bound(domain: Domain, w: WeightSpec, p: float, s: float,
                  mesh: Mesh) -> float:
    """Talenti's constant for p_s = p*s/(s+1) times
    (int a^(-s))^(1/((s+1) p_s)), the integral taken with the mesh quadrature.

    Rigorous for every weight a > 0: Hoelder with exponents p/p_s and s+1
    gives ||grad u||_{p_s} <= (int a^(-s))^(1/((s+1) p_s)) (int a |grad u|^p)^(1/p),
    and Talenti bounds max|u| by ||grad u||_{p_s}."""
    p_s = compute_ps(p, s)
    pts, wq, _ = mesh.quadrature()
    aq = eval_weight(w, mesh.domain, pts)
    int_a_ms = float(wq.ravel() @ aq ** (-s))
    return float(talenti_bound(domain.dim, p_s, domain_measure(domain))
                 * int_a_ms ** (1.0 / ((s + 1.0) * p_s)))


_HATS = 8               # cone hats tried, at the nodes deepest inside the domain
_ASCENT_STEPS = 50      # gradient-ascent steps of the lower bound
_FD_STEP_REL = 1e-3     # finite-difference step relative to ||v||_2


def estimate_k(domain: Domain, w: WeightSpec, p: float, s: float,
               mesh: Mesh) -> EmbeddingEstimate:
    """Two-sided estimate of k = sup max|u| / ||u||.

    Lower bound: cone hats (apex 1 at a node, radius = its boundary distance)
    at the _HATS interior nodes farthest from the boundary (ties to the lower
    index), then up to _ASCENT_STEPS steps of gradient ascent on the best one.
    Every admissible function's ratio is a lower bound on k, so the hats
    tried only choose the ascent's start; the deepest nodes carry the widest
    hats, and only (nv, _HATS) hat values are ever held, so memory is O(nv).
    The ascent direction is the central difference of the ratio in each
    interior nodal value, step _FD_STEP_REL * ||v||_2; each difference is
    evaluated on the node's star (the cells touching it), so one step costs
    O(nc).  Upper bound: k_upper_bound."""
    k_upper = k_upper_bound(domain, w, p, s, mesh)
    interior = np.flatnonzero(mesh.interior_vertices)
    if interior.size == 0:
        raise ValueError("mesh has no interior vertices")
    cellA = _cell_weight_integrals(mesh, w)

    verts = mesh.vertices
    rho = distance_to_boundary(domain, verts)
    # cone hats, one column per deepest interior node, in index order
    far = np.sort(interior[np.argsort(-rho[interior], kind="stable")[:_HATS]])
    dists = np.linalg.norm(verts[:, None, :] - verts[None, far, :], axis=2)
    hats = np.maximum(0.0, 1.0 - dists / rho[far][None, :])
    hats[mesh.boundary_vertices, :] = 0.0
    ratios = _ratio_batch(mesh, cellA, p, hats)
    best = int(np.argmax(ratios))
    k_lower = float(ratios[best])
    v = hats[:, best].copy()

    # gradient ascent on the ratio, free interior nodes only
    step = 0.1
    for _ in range(_ASCENT_STEPS):
        eps = _FD_STEP_REL * float(np.linalg.norm(v))
        g = np.zeros_like(v)
        g[interior] = _star_fd_gradient(mesh, cellA, p, v, eps)[interior]
        gn = float(np.linalg.norm(g))
        if gn == 0.0:
            break
        improved = False
        while step > 1e-12:
            cand = v + step * float(np.linalg.norm(v)) * g / gn
            rc = float(_ratio_batch(mesh, cellA, p, cand[:, None])[0])
            if rc > k_lower:
                v, k_lower, improved = cand, rc, True
                step *= 1.3
                break
            step *= 0.5
        if not improved:
            break

    return EmbeddingEstimate(k_lower=k_lower, k_upper=k_upper,
                             witness=DiscreteFunction(mesh, v))

