"""Discrete functions and the weighted Sobolev norm machinery.

Norms are (int |u|^p + int a |grad u|^p)^(1/p) for piecewise-linear u, with
per-cell Gauss quadrature of order >= 5.  The module also estimates the
sup-norm embedding constant k = sup max|u| / ||u|| from below (the ratio of
the discrete p-Green function of the node nearest the centre, from one
point-load solve) and from above (Talenti's constant combined with a
Hoelder bound through int a^(-s), rigorous for every weight a > 0)."""
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

    def norm(self, zero_order: bool = True) -> float:
        """(int |u|^p + int a |grad u|^p)^(1/p), without int |u|^p unless zero_order."""
        return ((self.lp_term if zero_order else 0.0) + self.grad_term) ** (1.0 / self.p)


def _gather(mesh: Mesh, v: np.ndarray):
    """Quadrature-point values (nc, nqc) and cell gradients (nc, N) of nodal
    values v (nv,), read from each cell's own vertices."""
    bary = mesh.quadrature()[2]
    vc = v[mesh.cells]                                         # (nc, N+1)
    # plain products beat nc tiny matmuls
    return vc @ bary.T, np.einsum("cbk,cb->ck", mesh.shape_gradients, vc)


def _cell_terms(wq: np.ndarray, cellA: np.ndarray, p: float, uq: np.ndarray,
                g: np.ndarray):
    """Per-cell int |u|^p and int a |grad u|^p from gathered values uq
    (nc, nqc) and g (nc, N)."""
    lp = np.einsum("cq,cq->c", wq, np.abs(uq) ** p)
    return lp, cellA * np.linalg.norm(g, axis=1) ** p


def _norm_terms(mesh: Mesh, cellA: np.ndarray, p: float, v: np.ndarray):
    """Per-cell (lp, grad) contributions (nc,) for v (nv,)."""
    return _cell_terms(mesh.quadrature()[1], cellA, p, *_gather(mesh, v))


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
    witness: DiscreteFunction  # point-load solution whose ratio is k_lower


def k_upper_bound(w: WeightSpec, p: float, s: float, mesh: Mesh) -> float:
    """Talenti's constant for p_s = p*s/(s+1) on mesh.domain times
    (int a^(-s))^(1/((s+1) p_s)), the integral taken with the mesh quadrature.

    Rigorous for every weight a > 0: Hoelder with exponents p/p_s and s+1
    gives ||grad u||_{p_s} <= (int a^(-s))^(1/((s+1) p_s)) (int a |grad u|^p)^(1/p),
    and Talenti bounds max|u| by ||grad u||_{p_s}."""
    p_s = compute_ps(p, s)
    pts, wq, _ = mesh.quadrature()
    aq = eval_weight(w, mesh.domain, pts)
    int_a_ms = float(wq.ravel() @ aq ** (-s))
    return float(talenti_bound(mesh.dim, p_s, domain_measure(mesh.domain))
                 * int_a_ms ** (1.0 / ((s + 1.0) * p_s)))


def estimate_k(domain: Domain, w: WeightSpec, p: float, s: float,
               mesh: Mesh, zero_order: bool = True) -> EmbeddingEstimate:
    """Two-sided estimate of k = sup max|u| / ||u||, ||u|| = NormReport.norm(zero_order).

    Lower bound: the ratio of the discrete p-Green function of the interior
    node x_i nearest the centre of the domain, i.e. the minimizer u of
    phi(u) - u(x_i), found by one invert_phi_prime solve with a unit load
    at x_i.  That minimizer attains max v(x_i) / ||v|| over all v (the point
    p-capacity of x_i), and u(x_i)^((p-1)/p) equals that maximum.  The solve
    starts from the cone hat at x_i (apex 1, radius = its boundary distance)
    scaled by ||cone||^(-p/(p-1)), the minimizer of the merit along that
    ray since phi is p-homogeneous; a zero start stalls at large p, where
    the tangent at 0 vanishes like eps^(p-2).  It runs at most 50
    iterations; should it stop unconverged, its best iterate is used, as
    the ratio of any admissible function is a lower bound on k.
    Upper bound: k_upper_bound."""
    # solver imports this module, so it is imported here, at call time
    from .solver import SolverConfig, SolverFailure, invert_phi_prime

    k_upper = k_upper_bound(w, p, s, mesh)
    interior = np.flatnonzero(mesh.interior_vertices)
    if interior.size == 0:
        raise ValueError("mesh has no interior vertices")
    verts = mesh.vertices
    centre = domain.axes.mean(axis=1)
    node = interior[np.argmin(np.linalg.norm(verts[interior] - centre, axis=1))]
    radius = distance_to_boundary(domain, verts[node:node + 1])[0]
    cone = DiscreteFunction(
        mesh, np.maximum(0.0, 1.0 - np.linalg.norm(verts - verts[node], axis=1) / radius))
    cone.values *= weighted_norm(cone, w, p).norm(zero_order) ** (-p / (p - 1.0))
    load = np.zeros(mesh.num_vertices)
    load[node] = 1.0
    try:
        u = invert_phi_prime(load, w, p, mesh, SolverConfig(max_iter=50), cone, zero_order)
    except SolverFailure as exc:
        u = exc.best
    return EmbeddingEstimate(k_lower=sup_norm(u) / weighted_norm(u, w, p).norm(zero_order),
                             k_upper=k_upper, witness=u)
