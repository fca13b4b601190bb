"""The per-cell gather kernel and the Newton system against dense
reference maps."""
import tracemalloc

import numpy as np
import pytest

from wplap.energy import EnergyAssembler, _densify, make_nonlinearity, primitive_F
from wplap.geometry import Domain, build_mesh
from wplap.space import DiscreteFunction, _cell_weight_integrals, _gather, weighted_norm
from wplap.weight import WeightSpec

UNIT = Domain.interval(0.0, 1.0)
SQUARE = Domain.box(0.0, 1.0, 0.0, 1.0)
MESHES = {"1d": (UNIT, 1 / 24), "2d": (SQUARE, 0.25)}
WEIGHTS = {"constant": WeightSpec.constant(1.0), "dist^0.5": WeightSpec.distance_power(0.5)}
RTOL = 1e-13


# -- dense reference: the (nq, nv) value map and the (nc, N, nv) gradient map --

def flat_quadrature(mesh):
    """Weights (nq,), owning cell (nq,) and shape values (nq, N+1) of every
    quadrature point, rebuilt from the per-cell layout of mesh.quadrature()."""
    _, wq, shp = mesh.quadrature()
    nc, nqc = wq.shape
    return wq.ravel(), np.repeat(np.arange(nc), nqc), np.tile(shp, (nc, 1))


def dense_maps(mesh):
    _, cid, shp = flat_quadrature(mesh)
    nv, nc = mesh.num_vertices, mesh.num_cells
    B = np.zeros((cid.size, nv))
    rows = np.arange(cid.size)
    for b in range(mesh.dim + 1):
        np.add.at(B, (rows, mesh.cells[cid, b]), shp[:, b])
    G = np.zeros((nc, mesh.dim, nv))
    sg = mesh.shape_gradients
    for b in range(mesh.dim + 1):
        for k in range(mesh.dim):
            np.add.at(G, (np.arange(nc), k, mesh.cells[:, b]), sg[:, b, k])
    return B, G


def ref_norm_terms(mesh, cellA, p, V):
    """lp and gradient terms of every column of V (nv, m) through the dense maps."""
    wts, _, _ = flat_quadrature(mesh)
    B, G = dense_maps(mesh)
    lp = wts @ np.abs(B @ V) ** p
    grad = cellA @ np.linalg.norm(np.einsum("ckv,vm->ckm", G, V), axis=1) ** p
    return lp, grad


def ref_energy(asm, v):
    B, _ = dense_maps(asm.mesh)
    lp, grad = ref_norm_terms(asm.mesh, asm.cellA, asm.p, v[:, None])
    e = (grad[0] + lp[0]) / asm.p
    uq = B @ v
    wts, _, _ = flat_quadrature(asm.mesh)
    e -= asm.lam * float(wts @ primitive_F(asm.f, asm.pts, uq))
    e -= asm.mu * float(wts @ primitive_F(asm.g, asm.pts, uq))
    return e


def ref_residual(asm, v):
    mesh, p, eps = asm.mesh, asm.p, asm.eps_reg
    B, G = dense_maps(mesh)
    wts, cid, shp = flat_quadrature(mesh)
    uq = B @ v
    g = np.einsum("ckv,v->ck", G, v)
    gnorm = np.linalg.norm(g, axis=1)
    gpow = gnorm ** (p - 2.0) if p >= 2.0 else (gnorm ** 2 + eps ** 2) ** ((p - 2.0) / 2.0)
    flux = (asm.cellA * gpow)[:, None] * g
    res = np.zeros(v.size)
    np.add.at(res, mesh.cells, np.einsum("ck,cbk->cb", flux, mesh.shape_gradients))
    source = (uq ** 2 + eps ** 2) ** ((p - 2.0) / 2.0) * uq if p < 2.0 \
        else np.abs(uq) ** (p - 2.0) * uq
    source = source - asm.lam * asm.f.eval(asm.pts, uq) - asm.mu * asm.g.eval(asm.pts, uq)
    np.add.at(res, mesh.cells[cid], (wts * source)[:, None] * shp)
    res[mesh.boundary_vertices] = 0.0
    return res


def ref_tangent(asm, v):
    mesh, p, eps = asm.mesh, asm.p, asm.eps_reg
    B, G = dense_maps(mesh)
    wts, cid, shp = flat_quadrature(mesh)
    nv, nb = v.size, mesh.dim + 1
    uq = B @ v
    g = np.einsum("ckv,v->ck", G, v)
    gn2 = np.einsum("ck,ck->c", g, g)
    iso = asm.cellA * (gn2 + eps ** 2) ** ((p - 2.0) / 2.0)
    aniso = iso * (p - 2.0) / (gn2 + eps ** 2)
    sg = mesh.shape_gradients
    sgg = np.einsum("cbk,ck->cb", sg, g)
    M = (iso[:, None, None] * np.einsum("cbk,cdk->cbd", sg, sg)
         + aniso[:, None, None] * sgg[:, :, None] * sgg[:, None, :])
    A = np.zeros((nv, nv))
    np.add.at(A, (mesh.cells[:, :, None].repeat(nb, 2), mesh.cells[:, None, :].repeat(nb, 1)), M)
    u2 = uq ** 2
    coef = (u2 + eps ** 2) ** ((p - 2.0) / 2.0) * (1.0 + (p - 2.0) * u2 / (u2 + eps ** 2))
    coef = coef - asm.lam * asm.f.eval_dt(asm.pts, uq) - asm.mu * asm.g.eval_dt(asm.pts, uq)
    Mq = (wts * coef)[:, None, None] * shp[:, :, None] * shp[:, None, :]
    qc = mesh.cells[cid]
    np.add.at(A, (qc[:, :, None].repeat(nb, 2), qc[:, None, :].repeat(nb, 1)), Mq)
    bnd = np.flatnonzero(mesh.boundary_vertices)
    A[bnd, :] = 0.0
    A[:, bnd] = 0.0
    A[bnd, bnd] = 1.0
    return A


def close(got, ref, rtol=RTOL):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    np.testing.assert_allclose(got, ref, rtol=rtol, atol=rtol * float(np.max(np.abs(ref))))


@pytest.fixture(scope="module")
def nonlinearities():
    f = make_nonlinearity("x1*t^3 + sin(t)", primitive="0.25*x1*t^4 + 1 - cos(t)")
    g = make_nonlinearity("t/(1 + t^2)")          # primitive by panel quadrature
    return f, g


def random_vector(mesh, seed):
    v = np.random.default_rng(seed).uniform(-1.5, 1.5, mesh.num_vertices)
    v[mesh.boundary_vertices] = 0.0
    return v


class TestGatherKernel:
    @pytest.mark.parametrize("dim", sorted(MESHES))
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("wname", sorted(WEIGHTS))
    def test_matches_dense_maps(self, dim, p, wname, nonlinearities):
        domain, h = MESHES[dim]
        mesh = build_mesh(domain, h)
        w = WEIGHTS[wname]
        f, g = nonlinearities
        asm = EnergyAssembler(mesh, w, p, lam=0.7, mu=-0.3, f=f, g=g)
        v = random_vector(mesh, seed=int(10 * p) + len(wname))
        cellA = _cell_weight_integrals(mesh, w)
        lp, grad = ref_norm_terms(mesh, cellA, p, v[:, None])

        rep = weighted_norm(DiscreteFunction(mesh, v), w, p)
        close([rep.lp_term, rep.grad_term], [lp[0], grad[0]])
        close(asm.norm_p(v), lp[0] + grad[0])
        close(asm.energy(v), ref_energy(asm, v))
        close(asm.residual(v), ref_residual(asm, v))
        close(asm.tangent(v), ref_tangent(asm, v))


# -- the Newton system on the interior vertices --------------------------------

def bordered_reference(asm, v, include_sources):
    """The tangent as assembled before condensation: every cell-matrix entry
    (Gram rebuilt per call; mass term one matmul of the weighted coefficients
    against the bary_b bary_d table, the product EnergyAssembler.tangent
    forms, so the bits agree) summed into nv x nv, then the boundary rows and
    columns zeroed and 1 put on their diagonal."""
    mesh, p, eps, nv = asm.mesh, asm.p, asm.eps_reg, v.size
    uqc, g = _gather(mesh, v)
    uq = uqc.reshape(-1)
    gn2 = np.einsum("ck,ck->c", g, g)
    iso = asm.cellA * (gn2 + eps ** 2) ** ((p - 2.0) / 2.0)
    aniso = iso * (p - 2.0) / (gn2 + eps ** 2)
    sg = mesh.shape_gradients
    sgg = np.einsum("cbk,ck->cb", sg, g)
    M = (iso[:, None, None] * np.einsum("cbk,cdk->cbd", sg, sg)
         + aniso[:, None, None] * sgg[:, :, None] * sgg[:, None, :])
    u2 = uq ** 2
    coef = (u2 + eps ** 2) ** ((p - 2.0) / 2.0) * (1.0 + (p - 2.0) * u2 / (u2 + eps ** 2))
    if include_sources:
        coef -= asm.lam * asm.f.eval_dt(asm.pts, uq)
        coef -= asm.mu * asm.g.eval_dt(asm.pts, uq)
    wcoef = asm.wq * coef.reshape(asm.wq.shape)
    outer = np.einsum("qb,qd->qbd", asm.bary, asm.bary).reshape(asm.bary.shape[0], -1)
    M += (wcoef @ outer).reshape(M.shape)
    pairs = (mesh.cells[:, :, None] * nv + mesh.cells[:, None, :]).reshape(-1)
    A = np.bincount(pairs, weights=M.reshape(-1), minlength=nv * nv).reshape(nv, nv)
    bnd = np.flatnonzero(mesh.boundary_vertices)
    A[bnd, :] = 0.0
    A[:, bnd] = 0.0
    A[bnd, bnd] = 1.0
    return A


def minus_int_F(asm, nl, v):
    """-int F(x, v(x)) dx on asm's quadrature from a gather of its own:
    Phi(v) for nl = asm.f, Upsilon(v) for nl = asm.g."""
    return -asm._int_F(nl, _gather(asm.mesh, v)[0].reshape(-1))


def same_bits(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    return got.shape == want.shape and np.array_equal(got.view(np.uint64),
                                                      want.view(np.uint64))


class TestCondensedTangent:
    @pytest.mark.parametrize("dim", sorted(MESHES))
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("include_sources", [True, False])
    def test_free_block_and_bordered_matrix_bitwise(self, dim, p, include_sources,
                                                    nonlinearities):
        domain, h = MESHES[dim]
        mesh = build_mesh(domain, h)
        f, g = nonlinearities
        asm = EnergyAssembler(mesh, WEIGHTS["dist^0.5"], p, lam=0.7, mu=-0.3, f=f, g=g)
        v = random_vector(mesh, seed=int(10 * p))
        full = asm.tangent(v, include_sources)
        free = _densify(asm.tangent(v, include_sources, free=True), asm.interior.size)
        ii = asm.interior
        assert free.shape == (ii.size, ii.size)
        assert same_bits(free, full[np.ix_(ii, ii)])
        assert same_bits(full, bordered_reference(asm, v, include_sources))

    @pytest.mark.parametrize("dim", sorted(MESHES))
    def test_energy_from_one_gather_bitwise(self, dim, nonlinearities):
        domain, h = MESHES[dim]
        mesh = build_mesh(domain, h)
        f, g = nonlinearities
        load = random_vector(mesh, seed=3)
        for p in (1.5, 2.0, 3.0):
            for kw in ({}, {"load": load}, {"zero_order": False}):
                asm = EnergyAssembler(mesh, WEIGHTS["dist^0.5"], p, lam=0.7, mu=-0.3,
                                      f=f, g=g, **kw)
                v = random_vector(mesh, seed=int(10 * p))
                want = asm.phi(v) + asm.lam * minus_int_F(asm, f, v) \
                    + asm.mu * minus_int_F(asm, g, v)
                if asm.load is not None:
                    want -= float(load @ v)
                assert asm.energy(v) == want, (p, kw)


def residual_reference(asm, v):
    """The residual with every operand of the general formula, at p = 2 as
    well: the flux (cellA * |grad u|^(p-2))[:, None] * grad u and the source
    |u|^(p-2) u (regularized below p = 2) less lam f and mu g, scattered into
    the vertices by one bincount as EnergyAssembler.residual scatters."""
    mesh, p = asm.mesh, asm.p
    uqc, g = _gather(mesh, v)
    uq = uqc.reshape(-1)
    flux = (asm.cellA * asm._gpow(np.linalg.norm(g, axis=1), p - 2.0))[:, None] * g
    cellsums = np.einsum("ck,cbk->cb", flux, mesh.shape_gradients)
    source = np.zeros(uq.size)
    if asm.zero_order:
        if p >= 2.0:
            source += np.abs(uq) ** (p - 2.0) * uq
        else:
            source += (uq ** 2 + asm.eps_reg ** 2) ** ((p - 2.0) / 2.0) * uq
    source -= asm.lam * asm.f.eval(asm.pts, uq)
    source -= asm.mu * asm.g.eval(asm.pts, uq)
    cellsums += (asm.wq * source.reshape(asm.wq.shape)) @ asm.bary
    res = np.bincount(mesh.cells.reshape(-1), weights=cellsums.reshape(-1), minlength=v.size)
    res -= asm.load
    res[mesh.boundary_vertices] = 0.0
    return res


class TestGeneralFormulaBits:
    """The p = 2 kernels skip factors that are exactly 1 or 0; the bits stay
    those of the general formula, at p = 2 and on either side of it."""

    @pytest.mark.parametrize("dim", sorted(MESHES))
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("zero_order", [True, False])
    def test_residual_bitwise(self, dim, p, zero_order, nonlinearities):
        domain, h = MESHES[dim]
        mesh = build_mesh(domain, h)
        f, g = nonlinearities
        asm = EnergyAssembler(mesh, WEIGHTS["dist^0.5"], p, lam=0.7, mu=-0.3, f=f, g=g,
                              zero_order=zero_order, load=random_vector(mesh, seed=3))
        v = random_vector(mesh, seed=int(10 * p))
        assert same_bits(asm.residual(v), residual_reference(asm, v))

    @pytest.mark.parametrize("dim", sorted(MESHES))
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_tangent_is_independent_of_earlier_calls(self, dim, p, nonlinearities):
        # a kernel that wrote into its cached tables would show in the third call
        domain, h = MESHES[dim]
        mesh = build_mesh(domain, h)
        f, g = nonlinearities
        asm = EnergyAssembler(mesh, WEIGHTS["dist^0.5"], p, lam=0.7, mu=-0.3, f=f, g=g)
        v1, v2 = random_vector(mesh, seed=1), random_vector(mesh, seed=2)
        for free in (False, True):
            first = asm.tangent(v1, free=free)
            asm.tangent(v2, include_sources=False, free=free)
            assert same_bits(asm.tangent(v1, free=free), first)


def test_assembler_memory_is_linear():
    """Set-up plus one residual at nv = 2049 stays small; a dense (nq, nv)
    value map alone would take about 170 MB here."""
    mesh = build_mesh(UNIT, 1 / 2048)
    assert mesh.num_vertices == 2049
    v = np.sin(np.pi * mesh.vertices[:, 0])
    tracemalloc.start()
    try:
        asm = EnergyAssembler(mesh, WEIGHTS["constant"], 3.0)
        asm.residual(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
