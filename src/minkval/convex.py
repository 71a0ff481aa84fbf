"""Convex polytopes in R^3 with full face lattices, area measures, intrinsic
volumes, and slicing.

Lower-dimensional bodies (polygons, segments, points from plane sections)
are first class: their lattice is built in the ambient space, so the normal
cones fatten to arcs, lunes and hemispheres and the area measures remain
exact.  Area measure pieces are point atoms (facet normals), great-circle
arcs (edge normal cones) and triangulated spherical regions (vertex normal
cones).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull

from .harmonics import legendre_rows

__all__ = [
    "Polytope",
    "AreaMeasure",
    "SphericalArc",
    "SphericalPatch",
    "IntrinsicVolumes",
    "area_measure",
    "steiner_area_measure",
    "intrinsic_volumes",
    "clip_halfspace",
    "section_plane",
    "section_line",
    "intersect",
    "cube",
    "simplex",
    "octahedron",
    "ball_polytope",
    "random_hull",
]

MERGE_TOL = 1e-10
POINT_TOL = 1e-9
# Bytes of temporaries per chunk of work: Monte-Carlo samples (see
# integral_geom.run_shards) or node-direction pairs of the zonal sums.
CHUNK_BYTES = 1 << 20
# The zonal sums keep about eight float64 arrays of shape (nodes, directions)
# alive: cosines, two Legendre rows, the running sum and their temporaries.
_PAIR_BYTES = 8 * 8


def _unit(v: np.ndarray) -> np.ndarray:
    """v scaled to unit length along its last axis."""
    return v / _norms(v)[..., None]


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of v, each equal to np.linalg.norm(row):
    vecdot sums with the same BLAS dot as the 1-d norm, so threshold tests
    decide as they would row by row."""
    return np.sqrt(np.vecdot(v, v))


def _dedupe_points(pts: np.ndarray, tol: float = POINT_TOL) -> np.ndarray:
    """The points farther than tol from every earlier point kept, in order."""
    kept = np.empty((pts.shape[0], 3))
    k = 0
    for p in pts:
        if not np.any(_norms(kept[:k] - p) <= tol):
            kept[k] = p
            k += 1
    return kept[:k]


def _distinct_axes(vectors) -> np.ndarray:
    """The unit vectors of `vectors` that are distinct up to sign, in order:
    each is kept unless | |a . b| - 1 | < 1e-9 for an earlier kept b."""
    vecs = np.asarray(vectors, dtype=float).reshape(-1, 3)
    kept = np.empty_like(vecs)
    k = 0
    for a in vecs:
        if not np.any(np.abs(np.abs(np.vecdot(kept[:k], a)) - 1.0) < 1e-9):
            kept[k] = a
            k += 1
    return kept[:k]


def _plane_basis(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors b1, b2 with (b1, b2, normal) right-handed, for one unit
    normal or a stack of them along the last axis."""
    a = np.where(np.abs(normal[..., :1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    b1 = _unit(np.cross(normal, a))
    return b1, np.cross(normal, b1)


def _prune_collinear(cycle: np.ndarray, pts: np.ndarray, tol: float = MERGE_TOL) -> np.ndarray:
    """Drop, one at a time and first in cycle order, a vertex b whose
    neighbours a, c make |(b - a) x (c - a)| <= tol |c - a|^2."""
    while len(cycle) > 2:
        a, b, c = pts[np.roll(cycle, 1)], pts[cycle], pts[np.roll(cycle, -1)]
        flat = np.flatnonzero(_norms(np.cross(b - a, c - a)) <= tol * _norms(c - a) ** 2)
        if not flat.size:
            break
        cycle = np.delete(cycle, flat[0])
    return cycle


class Polytope:
    """Convex polytope in R^3, possibly of lower dimension or empty.

    Full-dimensional bodies carry merged facets (outward unit normal,
    ordered vertex cycle, area) and the edge graph; planar bodies carry the
    polygon cycle, plane normal, and in-plane outward edge normals.
    """

    def __init__(self):
        self.n = 3
        self.dim = -1
        self.vertices = np.zeros((0, 3))
        # dim 3 lattice
        self.facet_normals = np.zeros((0, 3))
        self.facet_offsets = np.zeros(0)
        self.facet_cycles: list[list[int]] = []
        self.facet_areas = np.zeros(0)
        self.edges: list[tuple[int, int, int, int]] = []  # (i, j, facet1, facet2)
        # dim 2 lattice
        self.plane_normal: np.ndarray | None = None
        self.polygon_cycle: list[int] = []
        self.edge_normals_inplane = np.zeros((0, 3))

    # -- construction -----------------------------------------------------

    @classmethod
    def empty(cls) -> "Polytope":
        return cls()

    @classmethod
    def from_vertices(cls, points) -> "Polytope":
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        if not np.isfinite(pts).all():
            raise ValueError("vertex coordinates must be finite")
        pts = _dedupe_points(pts)
        P = cls()
        if pts.shape[0] == 0:
            return P
        center = pts.mean(axis=0)
        centered = pts - center
        scale = max(1.0, float(np.abs(centered).max()))
        sv = np.linalg.svd(centered, compute_uv=False) if pts.shape[0] > 1 else np.zeros(3)
        dim = int(np.sum(sv > 1e-9 * scale * math.sqrt(pts.shape[0])))
        if dim >= 3:
            P._build_3d(pts)
        elif dim == 2:
            P._build_2d(pts)
        elif dim == 1:
            P._build_1d(pts)
        else:
            P.dim = 0
            P.vertices = pts[:1]
        return P

    def _build_3d(self, pts: np.ndarray):
        """The face lattice from qhull's simplices.  Facets are the simplices
        joined across ridges where their equations agree within 1e-8 (max
        norm), numbered and oriented by their first simplex; a facet's cycle
        is the boundary of its union, walked counterclockwise from outside
        and started at the vertex of least angle about its vertex mean in
        _plane_basis; edges are the boundary ridges."""
        hull = ConvexHull(pts)
        tri, nbr, eqs = hull.simplices, hull.neighbors, hull.equations
        # counterclockwise from outside: ridge k runs from tri[k+1] to
        # tri[k+2], and nbr[s, k] lies across it
        p0, p1, p2 = pts[tri[:, 0]], pts[tri[:, 1]], pts[tri[:, 2]]
        flip = np.vecdot(np.cross(p1 - p0, p2 - p0), eqs[:, :3]) < 0
        tri[flip], nbr[flip] = tri[flip][:, [0, 2, 1]], nbr[flip][:, [0, 2, 1]]
        # facets: components of the simplices joined across agreeing ridges, by
        # hooking roots and compressing paths, labelled by their first simplex
        rows, cols = np.repeat(np.arange(len(tri)), 3), nbr.ravel()
        join = np.abs(eqs[rows] - eqs[cols]).max(axis=1) <= 1e-8
        rows, cols, label = rows[join], cols[join], np.arange(len(tri))
        while not np.array_equal(label[rows], label[cols]):
            np.minimum.at(label, label[rows], label[cols])
            while not np.array_equal(label[label], label):
                label = label[label]
        first, facet = np.unique(label, return_inverse=True)
        normals = _unit(eqs[first, :3])  # qhull normals point outward
        # each facet's vertices, grouped by one sort: their mean and plane
        # basis (np.add.at sums rows in order, as ndarray.sum(axis=0) does)
        fv_facet, fv_vertex = np.divmod(np.unique(facet[:, None] * len(pts) + tri), len(pts))
        centroid = np.zeros((len(first), 3))
        np.add.at(centroid, fv_facet, pts[fv_vertex])
        centroid /= np.bincount(fv_facet)[:, None]
        b1, b2 = _plane_basis(normals)
        # boundary ridges, tail to head, and each one's successor in its facet
        s, k = np.nonzero(facet[nbr] != facet[:, None])
        f, g = facet[s], facet[nbr[s, k]]
        tail, head = tri[s, (k + 1) % 3], tri[s, (k + 2) % 3]
        key = f * len(pts) + tail
        by_key = np.argsort(key)
        if np.any(np.diff(key[by_key]) == 0):
            raise ValueError("facet boundary touches itself")
        succ = by_key[np.searchsorted(key[by_key], f * len(pts) + head)].tolist()
        local = pts[tail] - centroid[f]
        ang = np.arctan2(np.vecdot(local, b2[f]), np.vecdot(local, b1[f]))
        by_angle = np.lexsort((ang, f))
        walk = []
        for r in by_angle[np.searchsorted(f[by_angle], np.arange(len(first)))].tolist():
            walk.append(r)
            while succ[walk[-1]] != r:
                walk.append(succ[walk[-1]])
        if len(walk) != len(tail):
            raise ValueError("facet boundary is not a single cycle")
        walk = np.array(walk)
        lens = np.bincount(f)
        cyc_start = np.cumsum(lens) - lens
        cyc = tail[walk]
        # fan areas about each cycle's first vertex, summed in cycle order; the
        # products with that vertex, and across cycles, are exact zeros
        rel = pts[cyc] - np.repeat(pts[cyc[cyc_start]], lens, axis=0)
        fan = np.zeros((len(first), 3))
        np.add.at(fan, f[walk[:-1]], np.cross(rel[:-1], rel[1:]))
        # re-index to extreme vertices only
        used = np.unique(cyc)
        remap = np.empty(pts.shape[0], dtype=int)
        remap[used] = np.arange(used.size)
        cyc = remap[cyc].tolist()
        self.vertices = pts[used]
        self.facet_normals = normals
        self.facet_offsets = np.vecdot(normals, pts[tail[walk[cyc_start]]])
        self.facet_cycles = [cyc[a:a + n] for a, n in zip(cyc_start.tolist(), lens.tolist())]
        self.facet_areas = 0.5 * _norms(fan)
        # each edge once, where the walk of its lower facet crosses it
        r = walk[f[walk] < g[walk]]
        a, b = remap[tail[r]], remap[head[r]]
        self.edges = list(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist(),
                              f[r].tolist(), g[r].tolist()))
        self.dim = 3
        ne, nf = len(self.edges), len(self.facet_cycles)
        if len(self.vertices) - ne + nf != 2:
            raise ValueError(
                f"Euler relation violated: V={len(self.vertices)} E={ne} F={nf}")

    def _build_2d(self, pts: np.ndarray):
        center = pts.mean(axis=0)
        _, _, vt = np.linalg.svd(pts - center)
        normal = _unit(vt[2])
        b1, b2 = _plane_basis(normal)
        xy = np.column_stack(((pts - center) @ b1, (pts - center) @ b2))
        hull = ConvexHull(xy)
        cyc = _prune_collinear(hull.vertices, pts)  # counterclockwise in (b1, b2)
        self.vertices = pts[cyc]
        self.polygon_cycle = list(range(len(cyc)))
        self.plane_normal = np.cross(b1, b2)
        m = len(self.polygon_cycle)
        normals = []
        for k in range(m):
            a = self.vertices[self.polygon_cycle[k]]
            b = self.vertices[self.polygon_cycle[(k + 1) % m]]
            d = b - a
            d2 = np.array([np.dot(d, b1), np.dot(d, b2)])
            out2 = np.array([d2[1], -d2[0]])  # outward for a CCW cycle
            out2 /= np.linalg.norm(out2)
            normals.append(out2[0] * b1 + out2[1] * b2)
        self.edge_normals_inplane = np.array(normals)
        self.dim = 2

    def _build_1d(self, pts: np.ndarray):
        d = _unit(pts[np.argmax(np.linalg.norm(pts - pts.mean(axis=0), axis=1))] - pts.mean(axis=0))
        proj = pts @ d
        lo, hi = int(np.argmin(proj)), int(np.argmax(proj))
        self.vertices = pts[[lo, hi]]
        self.dim = 1

    # -- queries -----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.dim < 0

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def enclosing_radius(self) -> float:
        if self.is_empty:
            return 0.0
        return float(np.max(np.linalg.norm(self.vertices, axis=1)))

    def support(self, u) -> float:
        if self.is_empty:
            raise ValueError("support function of the empty body is undefined")
        u = np.asarray(u, dtype=float)
        return float(np.max(self.vertices @ u))

    def edge_index_pairs(self) -> list[tuple[int, int]]:
        if self.dim == 3:
            return [(a, b) for a, b, _, _ in self.edges]
        if self.dim == 2:
            cyc = self.polygon_cycle
            return [(cyc[k], cyc[(k + 1) % len(cyc)]) for k in range(len(cyc))]
        if self.dim == 1:
            return [(0, 1)]
        return []

    def inequalities(self) -> tuple[np.ndarray, np.ndarray]:
        """Facet inequalities A x <= b of a full-dimensional body."""
        if self.dim != 3:
            raise ValueError("facet inequalities require a full-dimensional body")
        return self.facet_normals, self.facet_offsets

    def edge_directions(self) -> np.ndarray:
        """Distinct unit edge directions (up to sign)."""
        return _distinct_axes([_unit(self.vertices[b] - self.vertices[a])
                              for a, b in self.edge_index_pairs()])

    # -- transforms ---------------------------------------------------------

    def scaled(self, lam: float) -> "Polytope":
        return Polytope.from_vertices(lam * self.vertices)

    def translated(self, x) -> "Polytope":
        return Polytope.from_vertices(self.vertices + np.asarray(x, dtype=float))

    def rotated(self, R) -> "Polytope":
        return Polytope.from_vertices(self.vertices @ np.asarray(R, dtype=float).T)

    def to_json(self) -> dict:
        return {"dimension": 3, "vertices": [list(map(float, v)) for v in self.vertices]}

    @classmethod
    def from_json(cls, data) -> "Polytope":
        import json as _json
        if isinstance(data, str):
            data = _json.loads(data)
        if int(data.get("dimension", 3)) != 3:
            raise ValueError("only ambient dimension 3 bodies are supported")
        return cls.from_vertices(data["vertices"])

    def __repr__(self):
        return f"Polytope(dim={self.dim}, vertices={self.num_vertices})"


def _polygon_area3d(pts: np.ndarray) -> float:
    if pts.shape[0] < 3:
        return 0.0
    # a sum over axis 0 adds the fan's cross products row after row
    s = np.cross(pts[1:-1] - pts[0], pts[2:] - pts[0]).sum(axis=0)
    return 0.5 * float(np.linalg.norm(s))


# -- area measure pieces ---------------------------------------------------

@dataclass(frozen=True)
class SphericalArc:
    """Great-circle arc from a to b (angle < pi) carrying a linear density."""

    a: np.ndarray
    b: np.ndarray
    density: float

    @property
    def angle(self) -> float:
        return float(_arc_angles(self.a, self.b))

    @property
    def mass(self) -> float:
        return self.density * self.angle

    def points(self, s: np.ndarray) -> np.ndarray:
        """Arc points at parameters s in [0, 1] (slerp)."""
        th = self.angle
        if th < 1e-14:
            return np.tile(self.a, (len(s), 1))
        return _slerp(self.a[None], self.b[None], np.array([th]), s)[0]


def _arc_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angles between the rows of a and b."""
    return np.arctan2(_norms(np.cross(a, b)), np.vecdot(a, b))


def _slerp(a: np.ndarray, b: np.ndarray, th: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Points at parameters s in [0, 1] of the great-circle arcs from a[r]
    to b[r] (R, 3) of angles th[r] > 0: (R, len(s), 3)."""
    return ((np.sin(np.multiply.outer(th, 1.0 - s))[..., None] * a[:, None, :]
             + np.sin(np.multiply.outer(th, s))[..., None] * b[:, None, :])
            / np.sin(th)[:, None, None])


@dataclass(frozen=True)
class SphericalPatch:
    """Union of spherical triangles with a scalar density per unit area."""

    triangles: np.ndarray  # (m, 3, 3) rows of unit vectors
    weight: float

    @property
    def area(self) -> float:
        return sum(_spherical_triangle_area(self.triangles).tolist())

    @property
    def mass(self) -> float:
        return self.weight * self.area


def _spherical_triangle_area(tri: np.ndarray) -> np.ndarray:
    """Spherical excess E of triangles stacked on the leading axes of an
    (..., 3, 3) array of unit vectors, by the formula of Van Oosterom and
    Strackee (IEEE Trans. Biomed. Eng. 30, 1983),

        tan(E/2) = |A . (B x C)| / (1 + A . B + B . C + C . A).

    The triple product is taken as A . ((B - A) x (C - B)), each triangle
    turned so that B C is its shortest side: the cross product of the
    shortest side with another is accurate on thin triangles, where
    l'Huilier's formula lost up to 1e-8 relative."""
    tri = np.asarray(tri, dtype=float)
    side = np.stack([_norms(tri[..., (k + 2) % 3, :] - tri[..., (k + 1) % 3, :])
                     for k in range(3)], axis=-1)         # the side opposite each vertex
    first = np.argmin(side, axis=-1)[..., None, None]
    tri = np.take_along_axis(tri, (first + np.arange(3)[:, None]) % 3, axis=-2)
    A, B, C = tri[..., 0, :], tri[..., 1, :], tri[..., 2, :]
    num = np.abs(np.vecdot(A, np.cross(B - A, C - B)))
    return 2.0 * np.arctan2(num, 1.0 + np.vecdot(A, B) + np.vecdot(B, C) + np.vecdot(C, A))


def _fan_triangles(cycle_pts: np.ndarray) -> np.ndarray:
    """Triangulate a geodesically convex spherical polygon by fanning from
    the normalized vertex mean."""
    c = _unit(cycle_pts.sum(axis=0))
    nxt = np.roll(cycle_pts, -1, axis=0)
    keep = _norms(np.cross(cycle_pts - c, nxt - c)) > 1e-14
    return np.stack([np.broadcast_to(c, cycle_pts.shape), cycle_pts, nxt], axis=1)[keep]


def _gauss01(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def _collapsed_square(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes (alpha, beta) and weights of the order x order Gauss rule on the
    triangle alpha, beta >= 0, alpha + beta <= 1: the unit square in
    (alpha, eta) collapsed by beta = eta (1 - alpha)."""
    xi, wx = _gauss01(order)
    alpha = np.repeat(xi, order)
    return (alpha, np.tile(xi, order) * (1.0 - alpha),
            np.repeat(wx, order) * np.tile(wx, order) * (1.0 - alpha))


# The quadrature rule of the area measures: Gauss-Legendre on ARC_NODES
# points per arc, and the TRI_ORDER x TRI_ORDER collapsed square on each
# vertex-cone triangle after one uniform split.  The coarse cloud (arcs on
# COARSE_ARC_NODES points, triangles unsplit) backs the error estimate of
# AreaMeasure.integrate.
ARC_NODES = 24
COARSE_ARC_NODES = 12
TRI_ORDER = 10
_ARC_RULE = _gauss01(ARC_NODES)
_COARSE_ARC_RULE = _gauss01(COARSE_ARC_NODES)
_TRI_RULE = _collapsed_square(TRI_ORDER)


def _triangle_nodes(tri: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature nodes (unit vectors) and weights, (K, TRI_ORDER^2, 3) and
    (K, TRI_ORDER^2), of the spherical triangles tri (T, 3, 3), via radial
    projection of the planar triangles; the spherical area element is
    |det(A, u, v)| / |x|^3 dalpha dbeta.  The K triangles with
    |det(A, u, v)| >= 1e-16 get nodes; the third array (T,) marks them."""
    A = tri[:, 0]
    u, v = tri[:, 1] - A, tri[:, 2] - A
    triple = np.abs(np.vecdot(A, np.cross(u, v)))
    keep = triple >= 1e-16
    A, u, v, triple = A[keep, None], u[keep, None], v[keep, None], triple[keep, None]
    alpha, beta, w = _TRI_RULE
    x = A + alpha[:, None] * u + beta[:, None] * v
    r = np.linalg.norm(x, axis=-1)   # rounds each square, unlike the dot of _norms
    return x / r[..., None], w * triple / r ** 3, keep


def _split_triangle(tri: np.ndarray) -> np.ndarray:
    """Split spherical triangles (..., 3, 3) at their edge midpoints into
    four each: (..., 4, 3, 3)."""
    A, B, C = tri[..., 0, :], tri[..., 1, :], tri[..., 2, :]
    ab, bc, ca = _unit(A + B), _unit(B + C), _unit(C + A)
    return np.stack([np.stack(t, axis=-2)
                     for t in ((A, ab, ca), (ab, B, bc), (ca, bc, C), (ab, bc, ca))], axis=-3)


@dataclass
class AreaMeasure:
    """Area measure S_i(P, .) on the unit sphere, split into atoms, arcs and
    triangulated regions; all masses and densities are non-negative."""

    n: int
    degree: int
    atoms: list[tuple[np.ndarray, float]] = field(default_factory=list)
    arcs: list[SphericalArc] = field(default_factory=list)
    patches: list[SphericalPatch] = field(default_factory=list)

    @property
    def total_mass(self) -> float:
        return (sum(m for _, m in self.atoms)
                + sum(arc.mass for arc in self.arcs)
                + sum(p.mass for p in self.patches))

    def node_cloud(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened quadrature nodes and weights: atoms exact, arcs by
        Gauss-Legendre on ARC_NODES points, patch triangles by the
        TRI_ORDER x TRI_ORDER collapsed square after one uniform split."""
        return self._cloud(_ARC_RULE, split=True)

    def _cloud(self, arc_rule: tuple[np.ndarray, np.ndarray],
               split: bool) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights of the atoms, the arcs by the Gauss-Legendre
        rule arc_rule on [0, 1], and the patch triangles, split once if
        `split`, by the collapsed square."""
        atom_pts = np.array([u for u, _ in self.atoms], dtype=float).reshape(-1, 3)
        atom_wts = np.array([m for _, m in self.atoms], dtype=float)
        a = np.array([arc.a for arc in self.arcs], dtype=float).reshape(-1, 3)
        b = np.array([arc.b for arc in self.arcs], dtype=float).reshape(-1, 3)
        th = _arc_angles(a, b)
        live = th >= 1e-14
        s, w = arc_rule
        dens = np.array([arc.density for arc in self.arcs], dtype=float)[live]
        arc_pts = _slerp(a[live], b[live], th[live], s).reshape(-1, 3)
        arc_wts = ((dens * th[live])[:, None] * w).ravel()
        tris = np.concatenate([p.triangles for p in self.patches] + [np.zeros((0, 3, 3))])
        weight = np.repeat([p.weight for p in self.patches],
                           [len(p.triangles) for p in self.patches])
        if split:
            tris, weight = _split_triangle(tris).reshape(-1, 3, 3), np.repeat(weight, 4)
        tri_pts, tri_wts, keep = _triangle_nodes(tris)
        return (np.concatenate([atom_pts, arc_pts, tri_pts.reshape(-1, 3)]),
                np.concatenate([atom_wts, arc_wts, (weight[keep, None] * tri_wts).ravel()]))

    def integrate(self, fn, with_error: bool = False):
        """Integral of fn (vectorized on (m, 3) arrays of unit vectors)
        against the measure, over node_cloud().  With with_error, also the
        estimate |fine - coarse| of its error, the coarse value coming from
        arcs on COARSE_ARC_NODES points and unsplit triangles."""
        pts, wts = self.node_cloud()
        total = float(wts @ fn(pts))
        if not with_error:
            return total
        pts, wts = self._cloud(_COARSE_ARC_RULE, split=False)
        return total, abs(total - float(wts @ fn(pts)))

    def zonal_moments(self, dirs: np.ndarray, kmax: int) -> np.ndarray:
        """Moments M_k(w) = int P_k^n(u . w) dS(u) for every direction w in
        dirs; returns an array of shape (kmax+1, len(dirs))."""
        return self._zonal_sums(dirs, kmax + 1, lambda t: legendre_rows(self.n, kmax, t))

    def integrate_zonal(self, profile, dirs: np.ndarray) -> np.ndarray:
        """Values of w -> int profile(u . w) dS(u) for each direction."""
        return self._zonal_sums(dirs, 1, lambda t: [np.asarray(profile(t), dtype=float)])[0]

    def _zonal_sums(self, dirs, nrows: int, rows) -> np.ndarray:
        """sum_u wts_u r(u . w) over node_cloud() for the nrows functions r
        that rows(cosines) yields, at every direction w: (nrows, len(dirs)).
        Directions run in blocks of bounded memory."""
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        pts, wts = self.node_cloud()
        out = np.zeros((nrows, dirs.shape[0]))
        for block in _direction_blocks(pts.shape[0], dirs.shape[0]):
            dots = np.clip(pts @ dirs[block].T, -1.0, 1.0)
            for k, row in enumerate(rows(dots)):
                out[k, block] = wts @ row
        return out

    def scaled_mass(self, c: float) -> "AreaMeasure":
        return AreaMeasure(
            self.n, self.degree,
            atoms=[(u, c * m) for u, m in self.atoms],
            arcs=[SphericalArc(a.a, a.b, c * a.density) for a in self.arcs],
            patches=[SphericalPatch(p.triangles, c * p.weight) for p in self.patches])

    def merged(self, other: "AreaMeasure") -> "AreaMeasure":
        return AreaMeasure(self.n, self.degree,
                           atoms=self.atoms + other.atoms,
                           arcs=self.arcs + other.arcs,
                           patches=self.patches + other.patches)


def _direction_blocks(nodes: int, ndirs: int) -> list[slice]:
    """Consecutive blocks of directions whose (nodes, block) temporaries of
    the zonal sums fit in CHUNK_BYTES (one direction at least); none when
    there are no nodes."""
    if nodes == 0:
        return []
    step = max(1, CHUNK_BYTES // (_PAIR_BYTES * nodes))
    return [slice(j, j + step) for j in range(0, ndirs, step)]


# -- area measures of polytopes ---------------------------------------------

def _vertex_cone_cycle(P: Polytope, incident: list[tuple[int, int, int, int]]) -> np.ndarray:
    """Facet normals around a vertex in cyclic order, from its incident
    edges (in the order of P.edges)."""
    if not incident:
        raise ValueError("vertex has no incident edges")
    # walk the facet cycle: consecutive facets share an edge at v
    edge_of: dict[int, list[int]] = {}
    for idx, (_, _, f1, f2) in enumerate(incident):
        edge_of.setdefault(f1, []).append(idx)
        edge_of.setdefault(f2, []).append(idx)
    cycle = [incident[0][2]]
    used = {0}
    while len(cycle) < len(edge_of):
        f = cycle[-1]
        nxt = next((idx for idx in edge_of[f] if idx not in used), None)
        if nxt is None:
            break
        used.add(nxt)
        _, _, f1, f2 = incident[nxt]
        cycle.append(f2 if f1 == f else f1)
    return P.facet_normals[cycle]


def area_measure(P: Polytope, i: int) -> AreaMeasure:
    """Area measure S_i(P, .) for 0 <= i <= 2 in ambient dimension 3.

    S_i = C(2, i)^(-1) * sum over i-faces F of vol_i(F) times the spherical
    Hausdorff measure on the normal cone of F; the binomial normalization
    makes the total mass equal to n V(P[i]; B[n-i]).
    """
    if not 0 <= i <= 2:
        raise ValueError(f"degree must satisfy 0 <= i <= n-1 = 2, got {i}")
    meas = AreaMeasure(3, i)
    if P.is_empty:
        return meas
    binom = math.comb(2, i)
    if P.dim == 3:
        if i == 2:
            meas.atoms = [(P.facet_normals[f], float(P.facet_areas[f]))
                          for f in range(len(P.facet_cycles))]
        elif i == 1:
            for a, b, f1, f2 in P.edges:
                length = float(np.linalg.norm(P.vertices[b] - P.vertices[a]))
                meas.arcs.append(SphericalArc(P.facet_normals[f1],
                                              P.facet_normals[f2],
                                              length / binom))
        else:
            incident: list[list] = [[] for _ in range(P.num_vertices)]
            for e in P.edges:
                incident[e[0]].append(e)
                incident[e[1]].append(e)
            for v in range(P.num_vertices):
                cyc = _vertex_cone_cycle(P, incident[v])
                tris = _fan_triangles(cyc)
                if tris.size:
                    meas.patches.append(SphericalPatch(tris, 1.0))
    elif P.dim == 2:
        w = P.plane_normal
        area = _polygon_area3d(P.vertices[P.polygon_cycle])
        cyc = P.polygon_cycle
        m = len(cyc)
        if i == 2:
            meas.atoms = [(w.copy(), area), (-w, area)]
        elif i == 1:
            for k in range(m):
                a, b = P.vertices[cyc[k]], P.vertices[cyc[(k + 1) % m]]
                length = float(np.linalg.norm(b - a))
                me = P.edge_normals_inplane[k]
                meas.arcs.append(SphericalArc(w.copy(), me, length / binom))
                meas.arcs.append(SphericalArc(me, -w, length / binom))
        else:
            for k in range(m):
                m_prev = P.edge_normals_inplane[(k - 1) % m]
                m_next = P.edge_normals_inplane[k]
                c = m_prev + m_next
                if np.linalg.norm(c) < 1e-12:
                    continue
                c = _unit(c)
                tris = np.array([(c, w, m_prev), (c, m_prev, -w),
                                 (c, -w, m_next), (c, m_next, w)])
                meas.patches.append(SphericalPatch(tris, 1.0))
    elif P.dim == 1:
        d = _unit(P.vertices[1] - P.vertices[0])
        length = float(np.linalg.norm(P.vertices[1] - P.vertices[0]))
        p, q = _plane_basis(d)
        ring = [p, q, -p, -q]
        if i == 1:
            for k in range(4):
                meas.arcs.append(SphericalArc(ring[k], ring[(k + 1) % 4], length / binom))
        elif i == 0:
            for pole in (d, -d):
                tris = np.array([(pole, ring[k], ring[(k + 1) % 4]) for k in range(4)])
                meas.patches.append(SphericalPatch(tris, 1.0))
    elif P.dim == 0:
        if i == 0:
            e = np.eye(3)
            tris = []
            for sx in (1, -1):
                for sy in (1, -1):
                    for sz in (1, -1):
                        tri = np.array([sx * e[0], sy * e[1], sz * e[2]])
                        if np.dot(np.cross(tri[1] - tri[0], tri[2] - tri[0]), tri.sum(axis=0)) < 0:
                            tri = tri[::-1]
                        tris.append(tri)
            meas.patches.append(SphericalPatch(np.array(tris), 1.0))
    return meas


def steiner_area_measure(P: Polytope, i: int, t: float) -> AreaMeasure:
    """S_i(P + tB, .) = sum_j t^(i-j) C(i, j) S_j(P, .), t >= 0."""
    if t < 0:
        raise ValueError("outer parallel radius t must be >= 0")
    out = AreaMeasure(3, i)
    for j in range(i + 1):
        coef = t ** (i - j) * math.comb(i, j)
        if coef == 0.0:
            continue
        out = out.merged(area_measure(P, j).scaled_mass(coef))
    return out


# -- intrinsic volumes --------------------------------------------------------

@dataclass(frozen=True)
class IntrinsicVolumes:
    v0: float
    v1: float
    v2: float
    v3: float

    def __getitem__(self, i: int) -> float:
        return (self.v0, self.v1, self.v2, self.v3)[i]

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.v0, self.v1, self.v2, self.v3)


def intrinsic_volumes(P: Polytope) -> IntrinsicVolumes:
    """Intrinsic volumes (V0, V1, V2, V3) from the face lattice: volume by
    the divergence theorem about the vertex centroid, V2 = surface/2, V1
    from edge lengths and exterior dihedral angles; lower-dimensional bodies
    use their own closed forms (V1 of a planar body is half its perimeter)."""
    if P.is_empty:
        return IntrinsicVolumes(0.0, 0.0, 0.0, 0.0)
    if P.dim == 3:
        # cones from the vertex centroid: terms stay of the body's size
        # wherever it sits
        center = P.vertices.mean(axis=0)
        vol = 0.0
        for f, cyc in enumerate(P.facet_cycles):
            centroid = P.vertices[cyc].mean(axis=0) - center
            vol += P.facet_areas[f] * float(np.dot(P.facet_normals[f], centroid)) / 3.0
        surf = float(np.sum(P.facet_areas))
        v1 = 0.0
        for a, b, f1, f2 in P.edges:
            length = float(np.linalg.norm(P.vertices[b] - P.vertices[a]))
            n1, n2 = P.facet_normals[f1], P.facet_normals[f2]
            ang = math.atan2(float(np.linalg.norm(np.cross(n1, n2))), float(np.dot(n1, n2)))
            v1 += length * ang
        return IntrinsicVolumes(1.0, v1 / (2.0 * math.pi), surf / 2.0, float(vol))
    if P.dim == 2:
        cyc = P.polygon_cycle
        area = _polygon_area3d(P.vertices[cyc])
        per = sum(float(np.linalg.norm(P.vertices[cyc[(k + 1) % len(cyc)]] - P.vertices[cyc[k]]))
                  for k in range(len(cyc)))
        return IntrinsicVolumes(1.0, per / 2.0, area, 0.0)
    if P.dim == 1:
        return IntrinsicVolumes(1.0, float(np.linalg.norm(P.vertices[1] - P.vertices[0])), 0.0, 0.0)
    return IntrinsicVolumes(1.0, 0.0, 0.0, 0.0)


# -- slicing ------------------------------------------------------------------

def _cut(P: Polytope, d: np.ndarray, keep: np.ndarray, tol: float) -> Polytope:
    """Hull of the vertices of P where `keep` and of the edge crossings of a
    plane, d being the signed distances of the vertices to the plane."""
    ij = np.array(P.edge_index_pairs(), dtype=int).reshape(-1, 2)
    di, dj = d[ij[:, 0]], d[ij[:, 1]]
    cross = ((di > tol) & (dj < -tol)) | ((di < -tol) & (dj > tol))
    vi, vj = P.vertices[ij[cross, 0]], P.vertices[ij[cross, 1]]
    lam = di[cross] / (di[cross] - dj[cross])
    return Polytope.from_vertices(np.vstack([P.vertices[keep], vi + lam[:, None] * (vj - vi)]))


def clip_halfspace(P: Polytope, normal, offset: float, tol: float = POINT_TOL) -> Polytope:
    """Intersection of P with the halfspace {x : normal . x <= offset}."""
    d = P.vertices @ np.asarray(normal, dtype=float) - offset
    return _cut(P, d, d <= tol, tol)


def section_plane(P: Polytope, point, normal, tol: float = POINT_TOL) -> Polytope:
    """Intersection of P with the plane through `point` normal to `normal`.
    Signed distances are taken about the vertex centroid, so that a body far
    from the origin loses no digits to its position."""
    if P.is_empty:
        return P
    a = _unit(np.asarray(normal, dtype=float))
    centre = P.vertices.mean(axis=0)
    d = (P.vertices - centre) @ a - float(np.dot(a, np.asarray(point, dtype=float) - centre))
    return _cut(P, d, np.abs(d) <= tol, tol)


def section_line(P: Polytope, point, direction, tol: float = 1e-12) -> Polytope:
    """Intersection of a full-dimensional P with the line point + t*direction:
    the tests' reference for the batched chords of integral_geom.LineSections."""
    if P.is_empty:
        return Polytope.empty()
    if P.dim != 3:
        raise ValueError("line sections are implemented for full-dimensional bodies")
    p = np.asarray(point, dtype=float)
    d = _unit(np.asarray(direction, dtype=float))
    A, b = P.inequalities()
    den = A @ d
    num = b - A @ p
    lo, hi = -math.inf, math.inf
    for dn, nm in zip(den, num):
        if dn > tol:
            hi = min(hi, nm / dn)
        elif dn < -tol:
            lo = max(lo, nm / dn)
        elif nm < -tol:
            return Polytope.empty()
    if lo > hi + tol:
        return Polytope.empty()
    return Polytope.from_vertices(np.array([p + lo * d, p + hi * d]))


def intersect(P: Polytope, Q: Polytope) -> Polytope:
    """Intersection of P with a full-dimensional Q by successive clipping."""
    if P.is_empty or Q.is_empty:
        return Polytope.empty()
    if Q.dim != 3:
        raise ValueError("intersect requires the second body to be full-dimensional")
    out = P
    A, b = Q.inequalities()
    for k in range(A.shape[0]):
        out = clip_halfspace(out, A[k], float(b[k]))
        if out.is_empty:
            return out
    return out


# -- canonical bodies ---------------------------------------------------------

def cube() -> Polytope:
    """The unit cube [0, 1]^3."""
    pts = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)])
    return Polytope.from_vertices(pts)


def simplex() -> Polytope:
    return Polytope.from_vertices(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                            [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))


def octahedron() -> Polytope:
    return Polytope.from_vertices(np.vstack([np.eye(3), -np.eye(3)]))


def ball_polytope(subdiv: int = 3) -> Polytope:
    """Inscribed polytopal approximation of the unit ball, by repeated
    midpoint subdivision of the octahedron projected to the sphere."""
    e = np.eye(3)
    tris = np.array([[sx * e[0], sy * e[1], sz * e[2]]
                     for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)])
    for _ in range(subdiv):
        tris = _split_triangle(tris).reshape(-1, 3, 3)
    pts = tris.reshape(-1, 3)
    pts = pts / np.linalg.norm(pts, axis=1)[:, None]
    return Polytope.from_vertices(_dedupe_points(pts, 1e-12))


def random_hull(seed: int, num_points: int = 14, scale: float = 1.0) -> Polytope:
    """Convex hull of points drawn uniformly in the ball of the given radius
    (deterministic in the seed)."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((num_points, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    r = rng.uniform(0.3, 1.0, num_points) ** (1.0 / 3.0)
    return Polytope.from_vertices(scale * u * r[:, None])
