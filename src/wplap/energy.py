"""Energy functionals and weak residuals for the perturbed p-Laplacian problem.

The total energy of a nodal function u is

    E(u) = phi(u) + lambda*Phi(u) + mu*Upsilon(u),
    phi(u) = (1/p) (int a |grad u|^p + int |u|^p),
    Phi(u) = -int F(x, u(x)) dx,   Upsilon(u) = -int G(x, u(x)) dx,

with F, G primitives in t of the nonlinearities f, g.  Residuals are the
nodal gradients of E (weak form tested against the hat basis), assembled
with the same quadrature as the energies so finite differences of E
reproduce the residual to rounding accuracy.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .expressions import Expression, parse_expression
from .geometry import Mesh
from .space import (DiscreteFunction, QuadratureError, _cell_weight_integrals,
                    _gather, _norm_terms)
from .weight import WeightSpec

__all__ = [
    "Nonlinearity",
    "EnergyAssembler",
    "make_nonlinearity",
    "primitive_F",
    "weak_form_gap",
    "gradient_check",
]

_GL20 = np.polynomial.legendre.leggauss(20)


def _as_expr(e) -> Expression | None:
    if e is None or isinstance(e, Expression):
        return e
    return parse_expression(e)


def _point_env(x, t, extra_axis: bool = False):
    """Evaluation environment for m points x (m, N) and values t (m, ...)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    x1 = x[:, 0]
    env = {"t": np.asarray(t, dtype=float), "x1": x1[:, None] if extra_axis else x1}
    if x.shape[1] > 1:
        env["x2"] = x[:, 1][:, None] if extra_axis else x[:, 1]
    return env


def _eval_expr(expr: Expression, env) -> np.ndarray:
    out = np.asarray(expr(**env), dtype=float)
    shape = np.broadcast_shapes(*(np.shape(v) for v in env.values()))
    return out if out.shape == shape else np.broadcast_to(out, shape).copy()


@dataclass(frozen=True)
class Nonlinearity:
    """Carathéodory nonlinearity f(x, t) with optional metadata.

    primitive      : closed form of F(x, t) = int_0^t f(x, s) ds
    growth_h       : growth envelope h(x), F(x, t) < h(x) (1 + |t|^gamma) with
                     gamma from the problem constants
    caratheodory_w : w_tau(x), bound for sup_{|t|<=tau} |f(x, t)|; may use 'tau'
    """

    f: Expression
    primitive: Expression | None = None
    growth_h: Expression | None = None
    caratheodory_w: Expression | None = None

    def eval(self, x, t) -> np.ndarray:
        """f at m points x (m, N) with values t (m,)."""
        return _eval_expr(self.f, _point_env(x, t))

    def eval_dt(self, x, t) -> np.ndarray:
        if "_dft" not in self.__dict__:
            object.__setattr__(self, "_dft", self.f.diff_t())
        return _eval_expr(self.__dict__["_dft"], _point_env(x, t))


def make_nonlinearity(f, primitive=None, growth_h=None,
                      caratheodory_w=None) -> Nonlinearity:
    """Build a Nonlinearity, verifying a supplied primitive against f.

    The check samples 1000 (x, t) pairs and compares the symbolic
    t-derivative of the primitive with f (relative error < 1e-6), and
    requires F(x, 0) = 0.
    """
    nl = Nonlinearity(f=_as_expr(f), primitive=_as_expr(primitive),
                      growth_h=_as_expr(growth_h), caratheodory_w=_as_expr(caratheodory_w))
    if nl.primitive is not None:
        rng = np.random.default_rng(42)
        x = rng.uniform(0.0, 1.0, size=(1000, 2))
        t = rng.uniform(-5.0, 5.0, size=1000)
        env = {"t": t, "x1": x[:, 0], "x2": x[:, 1]}
        dF = nl.primitive.diff_t()(**env)
        fv = nl.f(**env)
        err = np.max(np.abs(np.asarray(dF) - fv) / (1.0 + np.abs(fv)))
        if err > 1e-6:
            raise ValueError(f"primitive does not differentiate to f (max rel err {err:.3e})")
        F0 = np.asarray(nl.primitive(**{"t": np.zeros(100), "x1": x[:100, 0], "x2": x[:100, 1]}))
        if np.max(np.abs(F0)) > 1e-12:
            raise ValueError("primitive must vanish at t = 0")
    return nl


def primitive_F(nl: Nonlinearity, x, t) -> np.ndarray:
    """F(x, t) = int_0^t f(x, s) ds at m points x (m, N), values t (m,).

    Closed form when supplied; otherwise composite Gauss on [0, t] with
    panel doubling until every value changes by at most 1e-10 * max(1, |F|)
    (the map s = t * node keeps the orientation right for t < 0).  When 64
    panels still miss that, the last values come back with a RuntimeWarning."""
    t = np.asarray(t, dtype=float)
    if nl.primitive is not None:
        return _eval_expr(nl.primitive, _point_env(x, t))
    xi, wq = _GL20
    prev = None
    for panels in (1, 2, 4, 8, 16, 32, 64):
        nodes = ((np.arange(panels)[:, None] + 0.5 * (xi[None, :] + 1.0)) / panels).reshape(-1)
        wts = np.tile(0.5 * wq / panels, panels)
        s = t[:, None] * nodes              # (m, panels*20) points along [0, t]
        fx = _eval_expr(nl.f, _point_env(x, s, extra_axis=True))
        val = t * (fx @ wts)
        if prev is not None and np.all(np.abs(val - prev)
                                       <= 1e-10 * np.maximum(1.0, np.abs(val))):
            return val
        prev = val
    warnings.warn("primitive_F: Gauss panel doubling unconverged at 64 panels",
                  RuntimeWarning, stacklevel=2)
    return val


class EnergyAssembler:
    """Precomputed quadrature data for one problem instance on one mesh.

    Evaluates energies, residuals and tangent matrices on raw nodal vectors;
    the p < 2 gradient term is regularized with eps_reg.  An optional nodal
    load adds the linear term -load.v to the energy (its tangent is zero)."""

    def __init__(self, mesh: Mesh, w: WeightSpec, p: float, lam: float = 0.0,
                 mu: float = 0.0, f: Nonlinearity | None = None,
                 g: Nonlinearity | None = None, zero_order: bool = True,
                 eps_reg: float = 1e-8, load: np.ndarray | None = None):
        self.mesh = mesh
        self.w = w
        self.p = float(p)
        self.lam = float(lam)
        self.mu = float(mu)
        self.f = f
        self.g = g
        self.zero_order = zero_order
        self.eps_reg = float(eps_reg)
        self.load = load
        self.pts, self.wq, self.bary = mesh.quadrature()
        self.cellA = _cell_weight_integrals(mesh, w)
        # flat (row, col) index of every cell-matrix entry in the dense tangent
        self._pairs = (mesh.cells[:, :, None] * mesh.num_vertices
                       + mesh.cells[:, None, :]).reshape(-1)
        self.interior = np.flatnonzero(mesh.interior_vertices)
        self.h_scale = mesh.max_cell_size ** (mesh.dim / 2.0)

    # -- pointwise helpers ------------------------------------------------
    def _gpow(self, gnorm: np.ndarray, expo: float) -> np.ndarray:
        if self.p >= 2.0:
            return gnorm ** expo
        return (gnorm ** 2 + self.eps_reg ** 2) ** (expo / 2.0)

    # -- energies ----------------------------------------------------------
    def norm_terms(self, v: np.ndarray):
        lp, grad = _norm_terms(self.mesh, self.cellA, self.p, v)
        return float(lp.sum()), float(grad.sum())

    def phi(self, v: np.ndarray) -> float:
        lp, grad = self.norm_terms(v)
        return (grad + (lp if self.zero_order else 0.0)) / self.p

    def norm_p(self, v: np.ndarray) -> float:
        lp, grad = self.norm_terms(v)
        return grad + (lp if self.zero_order else 0.0)

    def _int_F(self, nl: Nonlinearity, v: np.ndarray) -> float:
        uq = _gather(self.mesh, v)[0].reshape(-1)
        Fq = primitive_F(nl, self.pts, uq)
        out = float(self.wq.ravel() @ Fq)
        if not math.isfinite(out):
            raise QuadratureError("non-finite nonlinearity integral")
        return out

    def capital_phi(self, v: np.ndarray) -> float:
        return -self._int_F(self.f, v) if self.f is not None else 0.0

    def capital_upsilon(self, v: np.ndarray) -> float:
        return -self._int_F(self.g, v) if self.g is not None else 0.0

    def energy(self, v: np.ndarray) -> float:
        e = self.phi(v)
        if self.f is not None and self.lam != 0.0:
            e += self.lam * self.capital_phi(v)
        if self.g is not None and self.mu != 0.0:
            e += self.mu * self.capital_upsilon(v)
        if self.load is not None:
            e -= float(self.load @ v)
        return e

    # -- residual and tangent ----------------------------------------------
    def residual(self, v: np.ndarray) -> np.ndarray:
        """Nodal gradient of the energy; zero on boundary vertices."""
        uqc, g = _gather(self.mesh, v)
        uq = uqc.reshape(-1)
        gnorm = np.linalg.norm(g, axis=1)
        flux = (self.cellA * self._gpow(gnorm, self.p - 2.0))[:, None] * g   # (nc, N)
        cellsums = np.einsum("ck,cbk->cb", flux, self.mesh.shape_gradients)
        source = np.zeros(uq.size)
        if self.zero_order:
            if self.p >= 2.0:
                source += np.abs(uq) ** (self.p - 2.0) * uq
            else:
                source += (uq ** 2 + self.eps_reg ** 2) ** ((self.p - 2.0) / 2.0) * uq
        if self.f is not None and self.lam != 0.0:
            source -= self.lam * self.f.eval(self.pts, uq)
        if self.g is not None and self.mu != 0.0:
            source -= self.mu * self.g.eval(self.pts, uq)
        if np.any(source):
            cellsums += (self.wq * source.reshape(self.wq.shape)) @ self.bary
        res = np.bincount(self.mesh.cells.reshape(-1), weights=cellsums.reshape(-1),
                          minlength=v.size)
        if self.load is not None:
            res -= self.load
        res[self.mesh.boundary_vertices] = 0.0
        return res

    def residual_norm(self, res: np.ndarray) -> float:
        return float(np.linalg.norm(res[self.interior])) * self.h_scale

    def tangent(self, v: np.ndarray, include_sources: bool = True) -> np.ndarray:
        """Dense Jacobian of the residual (regularized for the p-Laplacian
        part), rows/cols of boundary vertices set to identity.

        include_sources=False drops the f/g linearizations, leaving the
        monotone (positive definite) part; solvers use it as a descent
        preconditioner when the full Jacobian is indefinite."""
        nv = v.size
        p, eps = self.p, self.eps_reg
        uqc, g = _gather(self.mesh, v)
        uq = uqc.reshape(-1)
        gn2 = np.einsum("ck,ck->c", g, g)
        base = (gn2 + eps ** 2) ** ((p - 2.0) / 2.0)
        sg = self.mesh.shape_gradients                     # (nc, b, k)
        # grad part: cellA * base * (delta_kl + (p-2) g_k g_l / (gn2+eps^2))
        iso = self.cellA * base
        aniso = iso * (p - 2.0) / (gn2 + eps ** 2)
        sgg = np.einsum("cbk,ck->cb", sg, g)               # (nc, b)
        M = (iso[:, None, None] * np.einsum("cbk,cdk->cbd", sg, sg)
             + aniso[:, None, None] * sgg[:, :, None] * sgg[:, None, :])
        # pointwise parts
        coef = np.zeros(uq.size)
        if self.zero_order:
            u2 = uq ** 2
            coef += (u2 + eps ** 2) ** ((p - 2.0) / 2.0) * (1.0 + (p - 2.0) * u2 / (u2 + eps ** 2))
        if include_sources and self.f is not None and self.lam != 0.0:
            coef -= self.lam * self.f.eval_dt(self.pts, uq)
        if include_sources and self.g is not None and self.mu != 0.0:
            coef -= self.mu * self.g.eval_dt(self.pts, uq)
        if np.any(coef):
            wcoef = self.wq * coef.reshape(self.wq.shape)
            M += np.einsum("cq,qb,qd->cbd", wcoef, self.bary, self.bary)
        A = np.bincount(self._pairs, weights=M.reshape(-1), minlength=nv * nv).reshape(nv, nv)
        bnd = self.mesh.boundary_vertices
        A[bnd, :] = 0.0
        A[:, bnd] = 0.0
        A[np.flatnonzero(bnd), np.flatnonzero(bnd)] = 1.0
        return A


def weak_form_gap(asm: EnergyAssembler, u: DiscreteFunction, v: DiscreteFunction) -> float:
    """Weak form of asm's equation at u tested against an arbitrary
    piecewise-linear v (direct quadrature, not a residual dot product)."""
    p = asm.p
    uq, gu = _gather(asm.mesh, u.values)
    vq, gv = _gather(asm.mesh, v.values)
    uq, vq = uq.reshape(-1), vq.reshape(-1)
    gnorm = np.linalg.norm(gu, axis=1)
    gap = float(asm.cellA @ (asm._gpow(gnorm, p - 2.0) * np.einsum("ck,ck->c", gu, gv)))
    source = np.zeros(uq.size)
    if asm.zero_order:
        source += np.abs(uq) ** (p - 2.0) * uq
    if asm.f is not None and asm.lam != 0.0:
        source -= asm.lam * asm.f.eval(asm.pts, uq)
    if asm.g is not None and asm.mu != 0.0:
        source -= asm.mu * asm.g.eval(asm.pts, uq)
    gap += float(asm.wq.ravel() @ (source * vq))
    if asm.load is not None:
        gap -= float(asm.load @ v.values)
    return gap


def gradient_check(asm: EnergyAssembler, u: DiscreteFunction) -> float:
    """Max over interior nodes of |residual_i - central FD of the energy| /
    (1 + |residual_i|) for asm at u, FD step 1e-6 * (1 + sup|u|).

    For p < 2 the flux is non-differentiable where grad u = 0, so nodes with
    an adjacent cell gradient below 1e-8 are skipped."""
    res = asm.residual(u.values)
    eps = 1e-6 * (1.0 + float(np.max(np.abs(u.values))))
    skip = np.zeros(u.values.size, dtype=bool)
    if asm.p < 2.0:
        gnorm = np.linalg.norm(_gather(asm.mesh, u.values)[1], axis=1)
        for c in np.flatnonzero(gnorm < 1e-8):
            skip[asm.mesh.cells[c]] = True
    worst = 0.0
    for i in asm.interior:
        if skip[i]:
            continue
        vp = u.values.copy()
        vm = u.values.copy()
        vp[i] += eps
        vm[i] -= eps
        fd = (asm.energy(vp) - asm.energy(vm)) / (2.0 * eps)
        worst = max(worst, abs(res[i] - fd) / (1.0 + abs(res[i])))
    return worst
