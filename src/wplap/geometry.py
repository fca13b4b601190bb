"""Domains, simplicial meshes and the geometric constants used by the certificates.

Supported domains are bounded intervals (N=1) and axis-aligned boxes (N=2).
Meshes are segment/triangle meshes with optional geometric grading
toward the boundary (ratio 2), which is where the distance-power weights blow
up.
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


@dataclass(frozen=True)
class Domain:
    """Bounded open domain.

    kind   : 'interval' | 'box'
    bounds : interval -> (a, b); box -> (x1min, x1max, x2min, x2max)
    dim    : spatial dimension N (1 or 2)
    """

    kind: str
    bounds: tuple
    dim: int

    def __post_init__(self):
        if self.kind not in ("interval", "box"):
            raise UnsupportedDomainError(f"unknown domain kind {self.kind!r}")
        if self.dim not in (1, 2):
            raise UnsupportedDomainError(f"dimension {self.dim} not supported (N must be 1 or 2)")
        b = self.bounds
        if self.kind == "interval":
            if self.dim != 1 or len(b) != 2 or not b[0] < b[1]:
                raise ValueError(f"bad interval bounds {b}")
        elif self.dim != 2 or len(b) != 4 or not (b[0] < b[1] and b[2] < b[3]):
            raise ValueError(f"bad box bounds {b}")

    @staticmethod
    def interval(a: float, b: float) -> "Domain":
        return Domain("interval", (float(a), float(b)), 1)

    @staticmethod
    def box(x1min: float, x1max: float, x2min: float, x2max: float) -> "Domain":
        return Domain("box", (float(x1min), float(x1max), float(x2min), float(x2max)), 2)

    @property
    def diameter(self) -> float:
        if self.kind == "interval":
            return self.bounds[1] - self.bounds[0]
        return math.hypot(self.bounds[1] - self.bounds[0], self.bounds[3] - self.bounds[2])


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
    b = domain.bounds
    if domain.kind == "interval":
        return b[1] - b[0]
    return (b[1] - b[0]) * (b[3] - b[2])


def distance_to_boundary(domain: Domain, x) -> np.ndarray:
    """dist(x, boundary of Omega); vectorized over trailing point axis.

    Accepts a scalar (N=1), an (N,) point or an (m, N) array.  Negative
    values mean x lies outside the closure.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float).reshape(-1, domain.dim))
    b = domain.bounds
    if domain.kind == "interval":
        d = np.minimum(pts[:, 0] - b[0], b[1] - pts[:, 0])
    else:
        d = np.minimum.reduce([pts[:, 0] - b[0], b[1] - pts[:, 0],
                               pts[:, 1] - b[2], b[3] - pts[:, 1]])
    if np.isscalar(x) or np.asarray(x).ndim <= 1:
        return d[0] if d.size == 1 else d
    return d


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
        margin = float(distance_to_boundary(domain, np.asarray(x0)))
        if not r2 + 1e-9 < margin:
            raise ValueError(
                f"ball B(x0, r2) not compactly contained: r2={r2}, dist(x0, boundary)={margin:.6g}")
        return BallSpec(x0, float(r1), float(r2))


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
    """

    def __init__(self, domain: Domain, vertices: np.ndarray, cells: np.ndarray):
        self.domain = domain
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.cells = np.ascontiguousarray(cells, dtype=np.intp)
        self.dim = domain.dim
        self._cache: dict = {}

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def cell_measures(self) -> np.ndarray:
        if "measures" not in self._cache:
            v = self.vertices[self.cells]
            if self.dim == 1:
                m = v[:, 1, 0] - v[:, 0, 0]
            else:
                e1 = v[:, 1] - v[:, 0]
                e2 = v[:, 2] - v[:, 0]
                m = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
            self._cache["measures"] = m
        return self._cache["measures"]

    @property
    def max_cell_size(self) -> float:
        v = self.vertices[self.cells]
        if self.dim == 1:
            return float(np.max(v[:, 1, 0] - v[:, 0, 0]))
        a = np.linalg.norm(v[:, 1] - v[:, 0], axis=1)
        b = np.linalg.norm(v[:, 2] - v[:, 1], axis=1)
        c = np.linalg.norm(v[:, 0] - v[:, 2], axis=1)
        return float(np.max(np.maximum(a, np.maximum(b, c))))

    @property
    def boundary_vertices(self) -> np.ndarray:
        """Boolean mask of vertices on the domain boundary."""
        if "boundary" not in self._cache:
            tol = 1e-12 * max(1.0, self.domain.diameter)
            d = distance_to_boundary(self.domain, self.vertices)
            self._cache["boundary"] = np.asarray(d) <= tol
        return self._cache["boundary"]

    @property
    def interior_vertices(self) -> np.ndarray:
        return ~self.boundary_vertices

    @property
    def shape_gradients(self) -> np.ndarray:
        """(nc, N+1, N) gradients of the linear shape functions per cell."""
        if "grads" not in self._cache:
            v = self.vertices[self.cells]
            if self.dim == 1:
                h = (v[:, 1, 0] - v[:, 0, 0])[:, None]
                g = np.empty((self.num_cells, 2, 1))
                g[:, 0, 0] = -1.0
                g[:, 1, 0] = 1.0
                g /= h[:, None]
            else:
                # rows of the inverse affine map transpose
                e1 = v[:, 1] - v[:, 0]
                e2 = v[:, 2] - v[:, 0]
                det = (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])[:, None]
                g = np.empty((self.num_cells, 3, 2))
                g[:, 1, 0] = e2[:, 1]
                g[:, 1, 1] = -e2[:, 0]
                g[:, 2, 0] = -e1[:, 1]
                g[:, 2, 1] = e1[:, 0]
                g[:, 1:] /= det[:, None]
                g[:, 0] = -g[:, 1] - g[:, 2]
            self._cache["grads"] = g
        return self._cache["grads"]

    def quadrature(self):
        """Per-cell quadrature: points (nq, N) in cell-major order, weights
        (nc, nqc) including the cell Jacobian, and the shape-function values
        (nqc, N+1) shared by every cell.  5-point Gauss-Legendre on segments,
        a degree-5 rule on triangles."""
        if "quad" not in self._cache:
            v = self.vertices[self.cells]
            if self.dim == 1:
                xi, w = np.polynomial.legendre.leggauss(5)
                xi = 0.5 * (xi + 1.0)  # to [0, 1]
                w = 0.5 * w
                h = v[:, 1, 0] - v[:, 0, 0]
                pts = (v[:, 0, 0][:, None] + np.outer(h, xi)).reshape(-1, 1)
                wq = np.outer(h, w)
                shp = np.column_stack([1.0 - xi, xi])
            else:
                shp, w = _TRI7_BARY, _TRI7_W
                pts = np.einsum("qb,cbk->cqk", shp, v).reshape(-1, 2)
                wq = np.outer(self.cell_measures, w)
            self._cache["quad"] = (pts, wq, shp)
        return self._cache["quad"]


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

    grading_depth > 0 repeatedly halves the boundary-adjacent cells toward
    the boundary (geometric ratio 2), for weights singular there.
    1D breakpoints are inserted as exact vertices.
    """
    if h_target <= 0:
        raise ValueError("h_target must be positive")

    if domain.dim == 1:
        lo, hi = domain.bounds
        x = _graded_axis(lo, hi, h_target, grading_depth, breakpoints)
        cells = np.column_stack([np.arange(x.size - 1), np.arange(1, x.size)])
        return Mesh(domain, x[:, None], cells)

    x1min, x1max, x2min, x2max = domain.bounds
    # triangle diameter is the quad diagonal; shrink the axis step to honor h_target
    ax_h = h_target / math.sqrt(2.0)
    xs = _graded_axis(x1min, x1max, ax_h, grading_depth)
    ys = _graded_axis(x2min, x2max, ax_h, grading_depth)
    nx, ny = xs.size, ys.size
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([xx.ravel(), yy.ravel()])

    def vid(i, j):
        return i * ny + j

    tris = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return Mesh(domain, verts, np.array(tris, dtype=np.intp))
