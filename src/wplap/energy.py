"""Energy functionals and weak residuals for the perturbed p-Laplacian problem.

The total energy of a nodal function u is

    E(u) = phi(u) + lambda*Phi(u) + mu*Upsilon(u),
    phi(u) = (1/p) (int a |grad u|^p + int |u|^p),
    Phi(u) = -int F(x, u(x)) dx,   Upsilon(u) = -int G(x, u(x)) dx,

with F, G primitives in t of the nonlinearities f, g.  Residuals are the
nodal gradients of E (weak form tested against the hat basis), assembled
with the same quadrature as the energies so finite differences of E
reproduce the residual to rounding accuracy.

At p = 2 the operator -div(a grad u) + u is linear, so the residual, the
tangent and the pointwise source skip the factors the exponent makes
trivial: the flux is cellA grad u without |grad u|^0, the gradient tangent
cellA times the mesh's Gram table without the (p-2) g g^T term, the
zero-order coefficient 1 and the zero-order source u.  Each skipped factor
is an exact identity in floating point (x**0.0 == 1.0, 1.0*x == x, and the
anisotropic term adds a signed zero that the bincount into zeros washes
out), so every output is bitwise the one the general formula gives, for
any iterate whose squared values stay finite and eps_reg > 0 (the general
formula's 0 * inf or 0/0 would be NaN).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expressions import Expression, parse_expression
from .geometry import Domain, Mesh
from .space import (DiscreteFunction, QuadratureError, _cell_terms,
                    _cell_weight_integrals, _gather, _norm_terms)
from .weight import WeightSpec

__all__ = [
    "Nonlinearity",
    "EnergyAssembler",
    "make_nonlinearity",
    "primitive_F",
    "weak_form_gap",
    "gradient_check",
]

# 20-point Gauss-Legendre nodes and weights on [-1, 1],
# numpy.polynomial.legendre.leggauss(20) bit for bit (tests/test_energy.py
# compares them)
_GL20 = (np.array([
    -0.993128599185095, -0.9639719272779138, -0.912234428251326, -0.8391169718222188,
    -0.7463319064601508, -0.636053680726515, -0.5108670019508271, -0.37370608871541955,
    -0.22778585114164507, -0.07652652113349734, 0.07652652113349734, 0.22778585114164507,
    0.37370608871541955, 0.5108670019508271, 0.636053680726515, 0.7463319064601508,
    0.8391169718222188, 0.912234428251326, 0.9639719272779138, 0.993128599185095,
]), np.array([
    0.017614007139150893, 0.040601429800386446, 0.06267204833410879, 0.08327674157670471,
    0.1019301198172407, 0.1181945319615186, 0.1316886384491769, 0.1420961093183824,
    0.14917298647260424, 0.15275338713072628, 0.15275338713072628, 0.14917298647260424,
    0.1420961093183824, 0.1316886384491769, 0.1181945319615186, 0.1019301198172407,
    0.08327674157670471, 0.06267204833410879, 0.040601429800386446, 0.017614007139150893,
]))
_MAX_PANELS = 128
_F_PANELS = 64      # primitive_F's panel cap when F is left to quadrature
EPS_REG = 1e-8      # default regularization of the p < 2 terms (SolverConfig's too)
_SPIKE_BLOCK = 8    # block size of a tridiagonal free block (the SPIKE solve's)


def _as_expr(e) -> Expression | None:
    if e is None or isinstance(e, Expression):
        return e
    return parse_expression(e)


@dataclass(frozen=True)
class Nonlinearity:
    """Carathéodory nonlinearity f(x, t) with optional metadata.

    primitive      : closed form of F(x, t) = int_0^t f(x, s) ds, supplied
                     or derived from f; None leaves F to quadrature
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
        return self.f.at(x, t=t)

    @cached_property
    def f_t(self) -> Expression:
        """The t-derivative of f, formed on first use; raises ParseError
        when f lies outside the expression language's differentiable subset."""
        return self.f.diff_t()

    def eval_dt(self, x, t) -> np.ndarray:
        return self.f_t.at(x, t=t)

    @property
    def reads_x(self) -> bool:
        """Whether f or its closed-form primitive names an x variable; when
        neither does, f(x, t) and F(x, t) are the same at every x."""
        return any(v.startswith("x") for e in (self.f, self.primitive)
                   if e is not None for v in e.variables)


def make_nonlinearity(f, primitive=None, growth_h=None, caratheodory_w=None,
                      domain: Domain = Domain.box(0.0, 1.0, 0.0, 1.0)) -> Nonlinearity:
    """Build a Nonlinearity, verifying a supplied primitive against f on
    domain (the unit square unless given) with _check_primitive, at a fixed
    quasi-random set of 1000 points (x, t).

    Without a supplied primitive, F comes from Expression.antidiff_t when f
    lies in its closed-form subset; otherwise it stays None and primitive_F
    integrates f numerically.
    """
    f, supplied = _as_expr(f), _as_expr(primitive)
    nl = Nonlinearity(f=f, primitive=f.antidiff_t() if supplied is None else supplied,
                      growth_h=_as_expr(growth_h), caratheodory_w=_as_expr(caratheodory_w))
    if supplied is not None:
        _check_primitive(nl, domain)
    return nl


def _kronecker_points(n: int, dim: int) -> np.ndarray:
    """The points frac(0.5 + i*alpha), i = 1 .. n, of the R_d sequence in
    [0, 1)^dim, as an (n, dim) array: alpha_j = phi^-j (j = 1 .. dim), with
    phi > 1 the root of phi^(dim+1) = phi + 1.  Those alpha are rationally
    independent, so the sequence is equidistributed (Weyl 1916); it is a
    fixed set, the same on every call."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alpha = phi ** -np.arange(1.0, dim + 1)
    return (0.5 + np.arange(1.0, n + 1)[:, None] * alpha) % 1.0


def _check_primitive(nl: Nonlinearity, domain: Domain):
    """Raise ValueError unless nl.primitive is a t-primitive of nl.f at 1000
    points (x, t) of domain x [-5, 5], the fixed quasi-random set
    _kronecker_points(1000, N + 1) scaled there: the symbolic t-derivative
    of the primitive must match f (relative error <= 1e-6) wherever f is
    finite; at the first 100 x, F(x, 0) = 0 is required wherever f(x, 0)
    is finite."""
    lo, hi = domain.axes.T
    z = _kronecker_points(1000, domain.dim + 1)
    x = lo + (hi - lo) * z[:, :-1]
    t = 10.0 * z[:, -1] - 5.0
    fv = nl.f.at(x, t=t)
    finite = np.isfinite(fv)
    if not finite.any():
        raise ValueError("f is not finite at any sample (x, t); cannot check the primitive")
    dF = nl.primitive.diff_t().at(x, t=t)[finite]
    err = np.max(np.abs(dF - fv[finite]) / (1.0 + np.abs(fv[finite])))
    if not err <= 1e-6:
        raise ValueError(f"primitive does not differentiate to f (max rel err {err:.3e})")
    x0, t0 = x[:100], np.zeros(100)
    F0 = nl.primitive.at(x0, t=t0)[np.isfinite(nl.f.at(x0, t=t0))]
    if not np.all(np.abs(F0) <= 1e-12):
        raise ValueError("primitive must vanish at t = 0")


def _gauss_panels(fn, lo: float, hi: float, tol: float = 1e-11,
                  max_panels: int = _MAX_PANELS):
    """Composite 20-point Gauss on [lo, hi] with panel doubling to a relative
    tolerance.

    fn maps the nodes (n,) to values (..., n); each value along the leading
    axes is one integral, a Python float when there are none.  Returns
    (value, converged); converged once every value changes by at most
    tol * max(1, |value|) from the previous level, and False (with the last
    value) when max_panels panels still miss that."""
    xg, wg = _GL20
    prev = None
    panels = 1
    while panels <= max_panels:
        edges = np.linspace(lo, hi, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        pts = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
        wts = (half[:, None] * wg[None, :]).ravel()
        val = fn(pts) @ wts
        val = float(val) if np.ndim(val) == 0 else val
        if prev is not None and np.all(np.abs(val - prev)
                                       <= tol * np.maximum(1.0, np.abs(val))):
            return val, True
        prev = val
        panels *= 2
    return val, False


def primitive_F(nl: Nonlinearity, x, t) -> np.ndarray:
    """F(x, t) = int_0^t f(x, s) ds at m points x (m, N), values t (m,).

    Closed form when nl has one; otherwise F = int_0^1 t f(x, t tau) dtau by
    _gauss_panels, until every value changes by at most 1e-10 * max(1, |F|)
    (the map s = t tau keeps the orientation right for t < 0).  When 64
    panels still miss that, the last values come back with a RuntimeWarning."""
    val, converged = _primitive_F(nl, x, t)
    if not converged:
        warnings.warn(f"primitive_F: Gauss panel doubling unconverged at {_F_PANELS} panels",
                      RuntimeWarning, stacklevel=2)
    return val


def _primitive_F(nl: Nonlinearity, x, t) -> tuple:
    """primitive_F's (values, converged), without its warning."""
    t = np.asarray(t, dtype=float)
    if nl.primitive is not None:
        return nl.primitive.at(x, t=t), True
    col = t[:, None]
    return _gauss_panels(
        lambda tau: col * nl.f.at(x[:, None], t=col * tau),
        0.0, 1.0, tol=1e-10, max_panels=_F_PANELS)


class EnergyAssembler:
    """Precomputed quadrature data for one problem instance on one mesh.

    Evaluates energies, residuals and tangent matrices on raw nodal vectors;
    the p < 2 gradient term is regularized with eps_reg.  An optional nodal
    load adds the linear term -load.v to the energy (its tangent is zero).

    lam_reads counts the energy, residual and tangent evaluations whose
    value lambda's term could change: lam = 0 (the f term is skipped, so
    its value is unknown), or int F, f or f_t at the quadrature values not
    all zeros.  Where it does not move, lambda x (+-0) leaves each value as
    it is for every lambda of the same sign.  descents holds the solver's
    descents that did not move it (solver._best_descent), keyed on the
    start, level, mu, the sign of lambda and the SolverConfig, and replayed
    at any lam of that sign.  That relies on lam and mu being the only
    fields that change after __init__, and on solver.scan alone changing
    them, as it runs every cell of a scan on one assembler
    (tests/test_single_home.py keeps it so)."""

    def __init__(self, mesh: Mesh, w: WeightSpec, p: float, lam: float = 0.0,
                 mu: float = 0.0, f: Nonlinearity | None = None,
                 g: Nonlinearity | None = None, zero_order: bool = True,
                 eps_reg: float = EPS_REG, load: np.ndarray | None = None):
        self.mesh = mesh
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
        self.interior = np.flatnonzero(mesh.interior_vertices)
        self.h_scale = mesh.max_cell_size ** (mesh.dim / 2.0)
        self.lam_reads = 0
        self.descents = {}
        # the mesh-constant part of the gradient tangent: grad phi_b . grad phi_d
        sg = mesh.shape_gradients
        self._gram = np.einsum("cbk,cdk->cbd", sg, sg)
        # the mass term's bary_b bary_d at each quadrature point, (nqc, (N+1)^2)
        self._bary_outer = np.einsum("qb,qd->qbd", self.bary, self.bary).reshape(
            self.bary.shape[0], -1)
        # flat cell-matrix entries joining two interior vertices, with their
        # flat index in the block-tridiagonal storage of the free (ni x ni)
        # block: vertices are numbered lexicographically on a tensor grid, so
        # the block has a small half-bandwidth, and a block row of m >= that
        # width couples only to the block rows next to it.  A tridiagonal
        # block (band == 1, every 1D mesh) takes the fixed m = _SPIKE_BLOCK,
        # so its SPIKE solve costs O(ni m^2) in LAPACK and O(ni/m) Python
        # steps; a wider band takes m >= sqrt(ni), which keeps the block
        # count, the block Thomas solve's sequential steps, <= sqrt(ni)
        ni = self.interior.size
        free = np.full(mesh.num_vertices, -1)
        free[self.interior] = np.arange(ni)
        fc = free[mesh.cells]
        rows = np.broadcast_to(fc[:, :, None], self._gram.shape).reshape(-1)
        cols = np.broadcast_to(fc[:, None, :], self._gram.shape).reshape(-1)
        self._entries = np.flatnonzero((rows >= 0) & (cols >= 0))
        rows, cols = rows[self._entries], cols[self._entries]
        self.band = int(np.max(np.abs(rows - cols), initial=0))   # _block_solve reads it
        if self.band == 1:
            m = min(ni, _SPIKE_BLOCK)
        else:
            m = max(self.band, math.ceil(math.sqrt(ni)), 1)
        nb = -(-ni // m)
        self._block_shape = (3, nb, m, m)
        self._block_index = ((((cols // m - rows // m + 1) * nb + rows // m) * m
                              + rows % m) * m + cols % m)
        # identity on the diagonal slots past ni that pad the last block
        pad = np.arange(ni - (nb - 1) * m, m)
        self._block_pad = ((2 * nb - 1) * m + pad) * m + pad

    # -- pointwise helpers ------------------------------------------------
    def _gpow(self, gnorm: np.ndarray, expo: float) -> np.ndarray:
        if self.p >= 2.0:
            return gnorm ** expo
        return (gnorm ** 2 + self.eps_reg ** 2) ** (expo / 2.0)

    def _source(self, uq: np.ndarray) -> np.ndarray:
        """Pointwise zero-order part of the residual at the quadrature values
        uq: |u|^(p-2) u (regularized with eps_reg for p < 2), minus lambda f
        and mu g."""
        source = np.zeros(uq.size)
        if self.zero_order:
            if self.p == 2.0:
                source += uq
            elif self.p > 2.0:
                source += np.abs(uq) ** (self.p - 2.0) * uq
            else:
                source += (uq ** 2 + self.eps_reg ** 2) ** ((self.p - 2.0) / 2.0) * uq
        if self.f is not None and self.lam != 0.0:
            fv = self.f.eval(self.pts, uq)
            self.lam_reads += bool(fv.any())
            source -= self.lam * fv
        elif self.f is not None:
            self.lam_reads += 1
        if self.g is not None and self.mu != 0.0:
            source -= self.mu * self.g.eval(self.pts, uq)
        return source

    # -- energies ----------------------------------------------------------
    def phi(self, v: np.ndarray) -> float:
        """norm_p(v) / p; it reads the mesh, the weight and p, never lam or mu."""
        return self.norm_p(v) / self.p

    def norm_p(self, v: np.ndarray) -> float:
        lp, grad = _norm_terms(self.mesh, self.cellA, self.p, v)
        return float(grad.sum()) + (float(lp.sum()) if self.zero_order else 0.0)

    def _int_F(self, nl: Nonlinearity, uq: np.ndarray) -> float:
        """int F(x, u) from the flat quadrature-point values uq of u."""
        out = float(self.wq.ravel() @ primitive_F(nl, self.pts, uq))
        if not math.isfinite(out):
            raise QuadratureError("non-finite nonlinearity integral")
        return out

    def energy(self, v: np.ndarray) -> float:
        """phi + lambda Phi + mu Upsilon (- load.v) from one gather of v."""
        uqc, g = _gather(self.mesh, v)
        lp, grad = _cell_terms(self.wq, self.cellA, self.p, uqc, g)
        e = (float(grad.sum()) + (float(lp.sum()) if self.zero_order else 0.0)) / self.p
        uq = uqc.reshape(-1)
        if self.f is not None and self.lam != 0.0:
            int_F = self._int_F(self.f, uq)
            self.lam_reads += int_F != 0.0
            e += self.lam * -int_F
        elif self.f is not None:
            self.lam_reads += 1     # lam = 0 skips the term: its value is unknown
        if self.g is not None and self.mu != 0.0:
            e += self.mu * -self._int_F(self.g, uq)
        if self.load is not None:
            e -= float(self.load @ v)
        return e

    # -- residual and tangent ----------------------------------------------
    def residual(self, v: np.ndarray) -> np.ndarray:
        """Nodal gradient of the energy; zero on boundary vertices."""
        uqc, g = _gather(self.mesh, v)
        uq = uqc.reshape(-1)
        if self.p == 2.0:
            flux = self.cellA[:, None] * g                                   # (nc, N)
        else:
            gnorm = np.linalg.norm(g, axis=1)
            flux = (self.cellA * self._gpow(gnorm, self.p - 2.0))[:, None] * g
        cellsums = np.einsum("ck,cbk->cb", flux, self.mesh.shape_gradients)
        source = self._source(uq)
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

    def tangent(self, v: np.ndarray, include_sources: bool = True,
                free: bool = False) -> np.ndarray:
        """Jacobian of the residual (regularized for the p-Laplacian part).

        free=True returns the block on the interior vertices asm.interior,
        the unknowns of the Dirichlet problem, in block-tridiagonal storage
        (3, nb, m, m): blocks[0, k], blocks[1, k] and blocks[2, k] are the
        sub-, diagonal and super-diagonal blocks of block row k, m is at
        least the block's half-bandwidth, and the nb m - ni slots past ni
        carry the identity (see _densify).  Otherwise the dense (nv x nv)
        matrix bordered by identity rows and columns on the boundary
        vertices: that block placed inside np.eye(nv).

        include_sources=False drops the f/g linearizations, leaving the
        monotone (positive definite) part; solvers use it as a descent
        preconditioner when the full Jacobian is indefinite.

        At p = 2 the gradient block is cellA * _gram and the zero-order
        coefficient 1, with no power of |grad u| or |u| and no anisotropic
        product: (.)**0.0 is exactly 1 and (p-2) * (.) exactly 0, so the
        bits are those of the general formula (see the module docstring)."""
        p, eps = self.p, self.eps_reg
        uqc, g = _gather(self.mesh, v)
        uq = uqc.reshape(-1)
        # grad part: cellA * base * (delta_kl + (p-2) g_k g_l / (gn2+eps^2)),
        # base = (gn2+eps^2)^((p-2)/2); at p = 2 that is cellA * delta_kl
        if p == 2.0:
            M = self.cellA[:, None, None] * self._gram
        else:
            gn2 = np.einsum("ck,ck->c", g, g)
            base = (gn2 + eps ** 2) ** ((p - 2.0) / 2.0)
            iso = self.cellA * base
            aniso = iso * (p - 2.0) / (gn2 + eps ** 2)
            sgg = np.einsum("cbk,ck->cb", self.mesh.shape_gradients, g)   # (nc, b)
            M = (iso[:, None, None] * self._gram
                 + aniso[:, None, None] * sgg[:, :, None] * sgg[:, None, :])
        # pointwise parts
        coef = np.zeros(uq.size)
        if self.zero_order and p == 2.0:
            coef += 1.0
        elif self.zero_order:
            u2 = uq ** 2
            coef += (u2 + eps ** 2) ** ((p - 2.0) / 2.0) * (1.0 + (p - 2.0) * u2 / (u2 + eps ** 2))
        if include_sources and self.f is not None and self.lam != 0.0:
            ft = self.f.eval_dt(self.pts, uq)
            self.lam_reads += bool(ft.any())
            coef -= self.lam * ft
        elif include_sources and self.f is not None:
            self.lam_reads += 1
        if include_sources and self.g is not None and self.mu != 0.0:
            coef -= self.mu * self.g.eval_dt(self.pts, uq)
        if np.any(coef):
            wcoef = self.wq * coef.reshape(self.wq.shape)
            M += (wcoef @ self._bary_outer).reshape(M.shape)
        blocks = np.bincount(self._block_index, weights=M.reshape(-1)[self._entries],
                             minlength=math.prod(self._block_shape))
        blocks[self._block_pad] = 1.0
        blocks = blocks.reshape(self._block_shape)
        if free:
            return blocks
        A = np.eye(v.size)
        A[np.ix_(self.interior, self.interior)] = _densify(blocks, self.interior.size)
        return A


def _densify(blocks: np.ndarray, n: int) -> np.ndarray:
    """The dense (n x n) matrix held in the block-tridiagonal storage blocks
    (3, nb, m, m) of EnergyAssembler.tangent, without the padding past n."""
    _, nb, m, _ = blocks.shape
    A = np.zeros((nb, m, nb, m))
    k = np.arange(nb)
    A[k, :, k, :] = blocks[1]
    A[k[1:], :, k[:-1], :] = blocks[0, 1:]
    A[k[:-1], :, k[1:], :] = blocks[2, :-1]
    return A.reshape(nb * m, nb * m)[:n, :n]


def weak_form_gap(asm: EnergyAssembler, u: DiscreteFunction, v: DiscreteFunction) -> float:
    """Weak form of asm's equation at u tested against an arbitrary
    piecewise-linear v (direct quadrature, not a residual dot product)."""
    p = asm.p
    uq, gu = _gather(asm.mesh, u.values)
    vq, gv = _gather(asm.mesh, v.values)
    uq, vq = uq.reshape(-1), vq.reshape(-1)
    gnorm = np.linalg.norm(gu, axis=1)
    gap = float(asm.cellA @ (asm._gpow(gnorm, p - 2.0) * np.einsum("ck,ck->c", gu, gv)))
    gap += float(asm.wq.ravel() @ (asm._source(uq) * vq))
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
