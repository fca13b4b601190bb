"""Domains, simplicial meshes and the geometric constants used by the certificates.

Supported domains are bounded intervals (N=1) and axis-aligned boxes (N=2),
both read through their per-axis bounds Domain.axes; this is the only module
that tells the two apart.  Meshes are segment/triangle meshes with optional
geometric grading toward the boundary (ratio 2), which is where the
distance-power weights blow up.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Domain",
    "BallSpec",
    "Mesh",
    "UnsupportedDomainError",
    "build_mesh",
    "distance_to_boundary",
    "unit_ball_volume",
    "domain_measure",
]


class UnsupportedDomainError(ValueError):
    """Raised for domain kinds/dimensions the mesher cannot handle."""


_KIND_DIM = {"interval": 1, "box": 2}


@dataclass(frozen=True)
class Domain:
    """Bounded open domain: an interval (N=1) or an axis-aligned box (N=2).

    kind   : 'interval' | 'box'
    bounds : interval -> (a, b); box -> (x1min, x1max, x2min, x2max)
    dim    : spatial dimension N (1 or 2)

    Everything that measures or samples the domain reads `axes`, the per-axis
    (lo, hi) pairs, so the interval/box distinction stays in this module.
    """

    kind: str
    bounds: tuple
    dim: int

    def __post_init__(self):
        if self.kind not in _KIND_DIM:
            raise UnsupportedDomainError(f"unknown domain kind {self.kind!r}")
        if self.dim not in (1, 2):
            raise UnsupportedDomainError(f"dimension {self.dim} not supported (N must be 1 or 2)")
        if (self.dim != _KIND_DIM[self.kind] or len(self.bounds) != 2 * self.dim
                or not np.all(self.axes[:, 0] < self.axes[:, 1])):
            raise ValueError(f"bad {self.kind} bounds {self.bounds}")

    @staticmethod
    def of_kind(kind: str, bounds) -> "Domain":
        """The domain a config names by its kind string and flat bounds list;
        an unknown kind raises UnsupportedDomainError, a wrong bounds count
        ValueError."""
        return Domain(kind, tuple(float(b) for b in bounds), _KIND_DIM.get(kind, 0))

    @staticmethod
    def interval(a: float, b: float) -> "Domain":
        return Domain.of_kind("interval", (a, b))

    @staticmethod
    def box(x1min: float, x1max: float, x2min: float, x2max: float) -> "Domain":
        return Domain.of_kind("box", (x1min, x1max, x2min, x2max))

    @property
    def axes(self) -> np.ndarray:
        """(N, 2) array of per-axis (lo, hi)."""
        return np.array(self.bounds, dtype=float).reshape(-1, 2)

    @property
    def diameter(self) -> float:
        return math.hypot(*(self.axes[:, 1] - self.axes[:, 0]))


def unit_ball_volume(n: int) -> float:
    """Volume w_n of the unit ball in R^n: pi^(n/2) / Gamma(n/2 + 1).

    Evaluated by the recurrence w_n = w_{n-2} * 2*pi/n, which is exact in
    floating point for the small n used here (w_1 = 2, w_2 = pi, ...)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    v = [1.0, 2.0][n % 2]
    for m in range(2 + n % 2, n + 1, 2):
        v *= 2.0 * math.pi / m
    return v


def domain_measure(domain: Domain) -> float:
    """Lebesgue measure |Omega| in closed form."""
    lo, hi = domain.axes.T
    return float(np.prod(hi - lo))


def distance_to_boundary(domain: Domain, x: np.ndarray) -> np.ndarray:
    """dist(x, boundary of Omega) at the points x, an (m, N) array, as an
    (m,) array.  Negative values mean x lies outside the closure."""
    lo, hi = domain.axes.T
    return np.minimum(x - lo, hi - x).min(axis=1)


@dataclass(frozen=True)
class BallSpec:
    """Concentric ball pair B(x0, r1) inside B(x0, r2), compactly inside Omega."""

    x0: tuple
    r1: float
    r2: float

    def __post_init__(self):
        if not 0.0 < self.r1 < self.r2:
            raise ValueError(f"need 0 < r1 < r2, got r1={self.r1}, r2={self.r2}")

    @staticmethod
    def create(x0, r1: float, r2: float, domain: Domain) -> "BallSpec":
        """Validated constructor: requires r2 + 1e-9 < dist(x0, boundary)."""
        x0 = tuple(float(c) for c in np.atleast_1d(x0))
        if len(x0) != domain.dim:
            raise ValueError(f"ball center dimension {len(x0)} != domain dimension {domain.dim}")
        margin = float(distance_to_boundary(domain, np.array([x0]))[0])
        if not r2 + 1e-9 < margin:
            raise ValueError(
                f"ball B(x0, r2) not compactly contained: r2={r2}, dist(x0, boundary)={margin:.6g}")
        return BallSpec(x0, float(r1), float(r2))


# 5-point Gauss-Legendre on [-1, 1], numpy.polynomial.legendre.leggauss(5)
# bit for bit (tests/test_energy.py compares them), then mapped to [0, 1]
_GL5_X = np.array([-0.906179845938664, -0.5384693101056831, 0.0,
                   0.5384693101056831, 0.906179845938664])
_GL5_W = np.array([0.23692688505618928, 0.4786286704993663, 0.5688888888888887,
                   0.4786286704993663, 0.23692688505618928])
_GL5_X, _GL5_W = 0.5 * (_GL5_X + 1.0), 0.5 * _GL5_W
# degree-5 rule on the reference triangle (Radon 7 point), barycentric coords
_TRI7_BARY = np.array([
    [1 / 3, 1 / 3, 1 / 3],
    [0.0597158717897698, 0.4701420641051151, 0.4701420641051151],
    [0.4701420641051151, 0.0597158717897698, 0.4701420641051151],
    [0.4701420641051151, 0.4701420641051151, 0.0597158717897698],
    [0.7974269853530873, 0.1012865073234563, 0.1012865073234563],
    [0.1012865073234563, 0.7974269853530873, 0.1012865073234563],
    [0.1012865073234563, 0.1012865073234563, 0.7974269853530873],
])
_TRI7_W = np.array([
    0.225,
    0.1323941527885062, 0.1323941527885062, 0.1323941527885062,
    0.1259391805448271, 0.1259391805448271, 0.1259391805448271,
])


class Mesh:
    """Segment (N=1) or triangle (N=2) mesh of a polytope domain.

    vertices : (nv, N) coordinates
    cells    : (nc, N+1) vertex indices, positively oriented

    The cell measures, shape-function gradients, boundary masks, largest
    cell edge and quadrature are computed once, here."""

    def __init__(self, domain: Domain, vertices: np.ndarray, cells: np.ndarray):
        self.domain = domain
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.cells = np.ascontiguousarray(cells, dtype=np.intp)
        self.dim = domain.dim
        v = self.vertices[self.cells]
        if self.dim == 1:
            h = v[:, 1, 0] - v[:, 0, 0]
            self.cell_measures = h
            g = np.empty((self.num_cells, 2, 1))
            g[:, 0, 0] = -1.0
            g[:, 1, 0] = 1.0
            g /= h[:, None, None]
            pts = (v[:, 0, 0][:, None] + np.outer(h, _GL5_X)).reshape(-1, 1)
            self._quadrature = (pts, np.outer(h, _GL5_W),
                                np.column_stack([1.0 - _GL5_X, _GL5_X]))
        else:
            e1 = v[:, 1] - v[:, 0]
            e2 = v[:, 2] - v[:, 0]
            det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
            self.cell_measures = 0.5 * det
            # rows of the inverse affine map transpose
            g = np.empty((self.num_cells, 3, 2))
            g[:, 1, 0] = e2[:, 1]
            g[:, 1, 1] = -e2[:, 0]
            g[:, 2, 0] = -e1[:, 1]
            g[:, 2, 1] = e1[:, 0]
            g[:, 1:] /= det[:, None, None]
            g[:, 0] = -g[:, 1] - g[:, 2]
            pts = np.einsum("qb,cbk->cqk", _TRI7_BARY, v).reshape(-1, 2)
            self._quadrature = (pts, np.outer(self.cell_measures, _TRI7_W), _TRI7_BARY)
        self.shape_gradients = g    # (nc, N+1, N) gradients of the linear shape functions
        edges = np.roll(v, -1, axis=1) - v
        self.max_cell_size = float(np.max(np.linalg.norm(edges, axis=2)))
        tol = 1e-12 * max(1.0, domain.diameter)
        self.boundary_vertices = distance_to_boundary(domain, self.vertices) <= tol
        self.interior_vertices = ~self.boundary_vertices

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]

    def quadrature(self):
        """Per-cell quadrature: points (nq, N) in cell-major order, weights
        (nc, nqc) including the cell Jacobian, and the shape-function values
        (nqc, N+1) shared by every cell.  5-point Gauss-Legendre on segments,
        a degree-5 rule on triangles."""
        return self._quadrature


def _graded_axis(lo: float, hi: float, h_target: float, depth: int,
                 breakpoints=()) -> np.ndarray:
    """1D point set: uniform at h_target, optional exact breakpoints, then
    geometric ratio-2 subdivision of the two boundary cells, `depth` times."""
    n = max(1, int(math.ceil((hi - lo) / h_target - 1e-12)))
    pts = set(np.linspace(lo, hi, n + 1).tolist())
    for b in breakpoints:
        if lo < b < hi:
            pts.add(float(b))
    # merge near-duplicates introduced by breakpoints, keep endpoints exact
    tol = 1e-12 * (hi - lo)
    merged = [lo]
    for q in sorted(pts):
        if q - merged[-1] > tol:
            merged.append(q)
    pts = np.array(merged)
    pts[-1] = hi
    for _ in range(depth):
        pts = np.concatenate([[lo, lo + 0.5 * (pts[1] - lo)], pts[1:]])
        pts = np.concatenate([pts[:-1], [hi - 0.5 * (hi - pts[-2]), hi]])
    return pts


def build_mesh(domain: Domain, h_target: float, grading_depth: int = 0,
               breakpoints=()) -> Mesh:
    """Mesh the domain with cell size <= h_target.

    Every axis is a _graded_axis at step h_target / sqrt(N), since a cell's
    diameter is the diagonal of its axis-aligned grid cell.  grading_depth > 0
    repeatedly halves the boundary-adjacent cells toward the boundary
    (geometric ratio 2), for weights singular there.  Breakpoints are
    inserted as exact vertex coordinates on every axis.  Vertices run in
    C order over the per-axis index (the last axis fastest); each grid
    square (i, j) splits into (00, 10, 11) and (00, 11, 01).
    """
    if h_target <= 0:
        raise ValueError("h_target must be positive")
    axes = [_graded_axis(lo, hi, h_target / math.sqrt(domain.dim), grading_depth, breakpoints)
            for lo, hi in domain.axes]
    verts = np.column_stack([c.ravel() for c in np.meshgrid(*axes, indexing="ij")])
    ids = np.arange(verts.shape[0]).reshape([ax.size for ax in axes])
    if domain.dim == 1:
        cells = np.column_stack([ids[:-1], ids[1:]])
    else:
        v00, v10, v01, v11 = ids[:-1, :-1], ids[1:, :-1], ids[:-1, 1:], ids[1:, 1:]
        cells = np.stack([v00, v10, v11, v00, v11, v01], axis=-1).reshape(-1, 3)
    return Mesh(domain, verts, cells)
