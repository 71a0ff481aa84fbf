"""Convex polytopes in R^3 with full face lattices, area measures, intrinsic
volumes, and slicing.

Lower-dimensional bodies (polygons, segments, points from plane sections)
are first class: their lattice is built in the ambient space, so the normal
cones fatten to arcs, lunes and hemispheres and the area measures remain
exact.  Area measure pieces are point atoms (facet normals), great-circle
arcs (edge normal cones) and a uniform part: S_0 is the spherical Lebesgue
measure for every nonempty body, and is held exactly as such.  One
AreaMeasure may hold the measures of many bodies, its pieces tagged by body.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy.spatial import ConvexHull

from .constants import CHUNK_BYTES
from .harmonics import ZonalPolynomial, harmonic_orders, jacobi_quadrature, legendre_rows
from .zonal import BERG_NATIVE_KMAX

__all__ = [
    "Polytope",
    "AreaMeasure",
    "Atoms",
    "Arcs",
    "IntrinsicVolumes",
    "area_measure",
    "normal_cone_masses",
    "steiner_area_measure",
    "intrinsic_volumes",
    "clip_halfspace",
    "section_plane",
    "cube",
    "simplex",
    "octahedron",
    "ball_polytope",
    "random_hull",
]

MERGE_TOL = 1e-10
POINT_TOL = 1e-9    # lengths below POINT_TOL times the body's _extent are 0
# The zonal sums keep about eight 8-byte arrays of shape (nodes, directions)
# alive: cosines, bins, two Legendre rows, the row times the weights and their
# temporaries; building a node of an arc takes about twice that.
_PAIR_BYTES = 8 * 8
# The addition theorem keeps about a dozen float64 values per node or
# direction alive: coordinates, c and s of the order, three rows, c and s
# times the weights, temporaries; a direction also holds its kmax + 1 moments.
_POINT_BYTES = 8 * 12
# The cost model that chooses between the direct zonal sums and the addition
# theorem, in seconds, fitted to both routes' times on one core (2-vCPU VM,
# numpy 2.4, OpenBLAS 0.3.31) over 137 cases of 288-14040 nodes, 1-1000
# directions and degrees 4-64; it picks the slower route in 4 of them, by
# at most 13 %.  Direct: per Legendre row, per (node, direction) pair and
# per direction block.  Addition theorem: per (degree, order) pair, per node,
# per direction, per node block and per direction block.
_DIRECT_PAIR_S, _DIRECT_BLOCK_S = 3.1e-9, 1.1e-5
_HARMONIC_NODE_S, _HARMONIC_DIR_S = 1.8e-9, 3.8e-9
_HARMONIC_NODE_BLOCK_S, _HARMONIC_DIR_BLOCK_S = 2.3e-5, 6e-6


def _unit(v: np.ndarray) -> np.ndarray:
    """v scaled to unit length along its last axis."""
    return v / _norms(v)[..., None]


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of v, each equal to np.linalg.norm(row):
    vecdot sums with the same BLAS dot as the 1-d norm, so threshold tests
    decide as they would row by row."""
    return np.sqrt(np.vecdot(v, v))


def _dots(a: np.ndarray, v) -> np.ndarray:
    """a . v for the rows of a (m, 3) and the vectors of v, an array (3, ...)
    or three coordinate arrays of one shape: (m, ...).  Elementwise
    multiply-adds in a fixed order, the last two products through one
    temporary, not a BLAS product, whose rounding depends on the number of
    rows."""
    a = a.reshape(a.shape + (1,) * v[0].ndim)
    d = a[:, 0] * v[0]
    t = a[:, 1] * v[1]
    d += t
    d += np.multiply(a[:, 2], v[2], out=t)
    return d


def _cross(a, b) -> list[np.ndarray]:
    """a x b for the vectors of the three coordinate arrays (or scalars) a
    and b, broadcast against each other: three coordinate arrays, each
    a_j b_k - a_k b_j as np.cross forms it, so with its bits."""
    out = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        c = a[j] * b[k]
        c -= a[k] * b[j]
        out.append(c)
    return out


# A generic direction: points within tol of each other lie within tol along
# it, and on it even the points of symmetric bodies rarely tie.
_DEDUPE_AXIS = np.array([0.5772733045463205, 0.588818770637247, 0.5657278384553941])


def _dedupe_points(pts: np.ndarray, tol: float = POINT_TOL) -> np.ndarray:
    """The points farther than tol from every earlier point kept, in order.
    Only pairs within 2 tol (plus rounding) along _DEDUPE_AXIS can be that
    close; the rule runs over those candidate pairs alone, in input order."""
    n = pts.shape[0]
    proj = pts @ _DEDUPE_AXIS
    order = np.argsort(proj, kind="stable")
    proj = proj[order]
    window = 2.0 * tol + 1e-12 * float(np.abs(pts).max(initial=0.0))
    ends = np.searchsorted(proj, proj + window, side="right")
    count = ends - np.arange(n) - 1     # candidates after each point in sorted order
    a = np.repeat(np.arange(n), count)
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(count) - count, count)
    first, later = np.minimum(order[a], order[b]), np.maximum(order[a], order[b])
    close = _norms(pts[first] - pts[later]) <= tol
    first, later = first[close], later[close]
    drop = np.zeros(n, dtype=bool)
    # by the later point: each point's fate is settled before it is compared
    for late, early in sorted(zip(later.tolist(), first.tolist())):
        if not drop[early]:
            drop[late] = True
    return pts[~drop]


def _extent(pts: np.ndarray) -> float:
    """The largest coordinate about the centroid: the size of a body wherever it lies."""
    return float(np.abs(pts - pts.mean(axis=0)).max())


def _plane_basis(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors b1, b2 with (b1, b2, normal) right-handed, for one unit
    normal (3,) or the rows of normal (m, 3): b1 = normal x e_x normalised
    where |normal_x| < 0.9, else normal x e_y, and b2 = normal x b1, with
    np.cross's bits (`_cross`).  The axis enters as its coordinates per
    normal, not as a broadcast array of vectors."""
    n = normal.T
    e_x = (np.abs(n[0]) < 0.9).astype(float)
    b1 = _unit(np.stack(_cross(n, (e_x, 1.0 - e_x, 0.0)), axis=-1))
    return b1, np.stack(_cross(n, b1.T), axis=-1)


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
    ordered vertex cycle, area) and the edge graph; planar bodies carry
    their vertices in cycle order, the plane normal, and in-plane outward
    edge normals.
    """

    def __init__(self):
        self.dim = -1
        self.vertices = np.zeros((0, 3))
        # dim 3 lattice
        self.facet_normals = np.zeros((0, 3))
        self.facet_offsets = np.zeros(0)
        self.facet_cycles: list[list[int]] = []
        self.facet_areas = np.zeros(0)
        self.edges = np.zeros((0, 4), dtype=int)   # (i, j, facet1, facet2) per edge, i < j
        # dim 2 lattice: the vertices in counterclockwise order about the normal
        self.plane_normal: np.ndarray | None = None
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
        P = cls()
        if pts.shape[0] == 0:
            return P
        # both tolerances are relative to _extent, so that a body's lattice
        # does not depend on its size or position; the dimension test also
        # clears the rounding of the coordinates (about one ulp of the
        # largest), which a tiny body far from the origin would read as extent
        scale = _extent(pts)
        pts = _dedupe_points(pts, POINT_TOL * scale)
        centered = pts - pts.mean(axis=0)
        sv = np.linalg.svd(centered, compute_uv=False) if pts.shape[0] > 1 else np.zeros(3)
        flat = max(1e-9 * scale, 4.0 * np.finfo(float).eps * float(np.abs(pts).max()))
        dim = int(np.sum(sv > flat * math.sqrt(pts.shape[0])))
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
        joined across ridges where their unit normals agree within MERGE_TOL
        (max norm), numbered and oriented by their first simplex; a facet's
        cycle is the boundary of its union, walked counterclockwise from outside
        and started at the vertex of least angle about its vertex mean in
        _plane_basis; edges are the boundary ridges.  qhull takes the cloud
        about its mean: on the coordinates of a small body far from the
        origin it dropped vertices."""
        hull = ConvexHull(pts - pts.mean(axis=0))
        tri, nbr, eqs = hull.simplices, hull.neighbors, hull.equations
        # counterclockwise from outside: ridge k runs from tri[k+1] to
        # tri[k+2], and nbr[s, k] lies across it
        p0, p1, p2 = pts[tri[:, 0]], pts[tri[:, 1]], pts[tri[:, 2]]
        flip = np.vecdot(np.cross(p1 - p0, p2 - p0), eqs[:, :3]) < 0
        tri[flip], nbr[flip] = tri[flip][:, [0, 2, 1]], nbr[flip][:, [0, 2, 1]]
        # facets: components of the simplices joined across agreeing ridges, by
        # hooking roots and compressing paths, labelled by their first simplex;
        # two simplices that share a ridge and whose normals differ by d have
        # their far vertices at most about d times the diameter off each
        # other's plane, so the test needs no offsets (which carry length
        # units and grow with the distance from the origin)
        rows, cols = np.repeat(np.arange(len(tri)), 3), nbr.ravel()
        join = np.abs(eqs[rows, :3] - eqs[cols, :3]).max(axis=1) <= MERGE_TOL
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
        self.edges = np.column_stack([np.minimum(a, b), np.maximum(a, b), f[r], g[r]])
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
        self.plane_normal = np.cross(b1, b2)
        m = len(cyc)
        normals = []
        for k in range(m):
            a, b = self.vertices[k], self.vertices[(k + 1) % m]
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

    def support(self, u) -> float:
        if self.is_empty:
            raise ValueError("support function of the empty body is undefined")
        u = np.asarray(u, dtype=float)
        return float(np.max(self.vertices @ u))

    def edge_index_pairs(self) -> np.ndarray:
        """The ends (E, 2) of the edges, as vertex indices."""
        if self.dim == 3:
            return self.edges[:, :2]
        if self.dim == 2:
            k = np.arange(self.num_vertices)
            return np.column_stack([k, np.roll(k, -1)])
        return np.array([[0, 1]] if self.dim == 1 else [], dtype=int).reshape(-1, 2)

    def inequalities(self) -> tuple[np.ndarray, np.ndarray]:
        """Facet inequalities A x <= b of a full-dimensional body."""
        if self.dim != 3:
            raise ValueError("facet inequalities require a full-dimensional body")
        return self.facet_normals, self.facet_offsets

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
        if not isinstance(data, dict) or "vertices" not in data:
            raise ValueError('a body is a JSON object with a "vertices" list')
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

def _arc_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angles between the rows of a and b."""
    return np.arctan2(_norms(np.cross(a, b)), np.vecdot(a, b))


def _slerp(a: np.ndarray, b: np.ndarray, th: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Points at parameters s in [0, 1] of the great-circle arcs from a[r]
    to b[r] (R, 3) of angles th[r] > 0: (R, len(s), 3)."""
    return ((np.sin(np.multiply.outer(th, 1.0 - s))[..., None] * a[:, None, :]
             + np.sin(np.multiply.outer(th, s))[..., None] * b[:, None, :])
            / np.sin(th)[:, None, None])


def _gauss01(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def _split_triangle(tri: np.ndarray) -> np.ndarray:
    """Split spherical triangles (..., 3, 3) at their edge midpoints into
    four each: (..., 4, 3, 3)."""
    A, B, C = tri[..., 0, :], tri[..., 1, :], tri[..., 2, :]
    ab, bc, ca = _unit(A + B), _unit(B + C), _unit(C + A)
    return np.stack([np.stack(t, axis=-2)
                     for t in ((A, ab, ca), (ab, B, bc), (ca, bc, C), (ab, bc, ca))], axis=-3)


# The quadrature rules of the area measures: Gauss-Legendre on ARC_NODES
# points per arc, and for the uniform part the UNIFORM_ORDER-point Gauss rule
# on each of [-1, 0] and [0, 1] (the kink of abs_half), exact for polynomial
# profiles up to the degree BERG_NATIVE_KMAX of the Berg expansions.
ARC_NODES = 24
UNIFORM_ORDER = BERG_NATIVE_KMAX // 2 + 1
_ARC_RULE = _gauss01(ARC_NODES)


def _arc_nodes(a: np.ndarray, b: np.ndarray,
              density: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The quadrature rule of arcs from a[r] to b[r] (R, 3) with densities
    (R,): Gauss-Legendre on ARC_NODES points of each arc of angle at least
    1e-14 (shorter arcs carry no mass), as nodes (R', ARC_NODES, 3) and
    weights (R', ARC_NODES), and the mask (R,) of the arcs kept.  An arc
    with a NaN end is kept, so that the NaN shows in every sum over it."""
    th = _arc_angles(a, b)
    live = ~(th < 1e-14)
    s, w = _ARC_RULE
    return (_slerp(a[live], b[live], th[live], s),
            (density[live] * th[live])[:, None] * w, live)


class Atoms(NamedTuple):
    """Point masses: body (T,), unit normal (T, 3) and mass (T,) of each."""
    body: np.ndarray
    normal: np.ndarray
    mass: np.ndarray


class Arcs(NamedTuple):
    """Great-circle arcs (angle < pi): body (R,), ends a, b (R, 3), density (R,)."""
    body: np.ndarray
    a: np.ndarray
    b: np.ndarray
    density: np.ndarray


@dataclass
class AreaMeasure:
    """Area measure S_i(P, .) on the unit sphere: atoms, great-circle arcs
    and a uniform part `uniform` times sigma, the spherical Lebesgue
    measure; all masses and densities are non-negative.  Atoms and arcs are
    tagged by body: `bodies` is None for one body (every tag 0), whose
    integrals carry no body axis, or the number m of bodies held at once,
    each with the uniform part.  Several atoms may share a normal.

    area_measure gives S_0 as the uniform part with coefficient 1, and the
    t^i S_0 term of a parallel body rides along in scaled_mass and merged.
    The normal cones of the vertices, which tile the sphere, appear only in
    the `area-measure --i 0` report, through normal_cone_masses."""

    degree: int
    atoms: Atoms = field(default_factory=lambda: Atoms(
        np.zeros(0, dtype=int), np.zeros((0, 3)), np.zeros(0)))
    arcs: Arcs = field(default_factory=lambda: Arcs(
        np.zeros(0, dtype=int), np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0)))
    uniform: float = 0.0
    bodies: int | None = None

    @property
    def total_mass(self):
        """The atom masses, plus the arc masses, each summed in piece order,
        plus 4 pi times the uniform part: a float, or (m,) over m bodies."""
        m = self.bodies or 1
        atom, arc = self.piece_masses()
        total = (np.bincount(self.atoms.body, atom, m) + np.bincount(self.arcs.body, arc, m)
                 + 4.0 * math.pi * self.uniform)
        return float(total[0]) if self.bodies is None else total

    def piece_masses(self) -> tuple[np.ndarray, np.ndarray]:
        """Masses of the atoms and of the arcs (density times angle)."""
        return self.atoms.mass, self.arcs.density * _arc_angles(self.arcs.a, self.arcs.b)

    def node_cloud(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Quadrature nodes (N, 3), weights (N,) and bodies (N,): the atoms
        (exact), then the arcs (Gauss-Legendre on ARC_NODES points); the
        uniform part is integrated exactly and has no nodes."""
        arc_pts, arc_wts, live = _arc_nodes(*self.arcs[1:])
        return (np.concatenate([self.atoms.normal, arc_pts.reshape(-1, 3)]),
                np.concatenate([self.atoms.mass, arc_wts.ravel()]),
                np.concatenate([self.atoms.body, np.repeat(self.arcs.body[live], ARC_NODES)]))

    def _parts(self) -> list["AreaMeasure"]:
        """The measure cut into runs of consecutive pieces, atoms first, of
        about CHUNK_BYTES / (2 _PAIR_BYTES) nodes each."""
        ta, ra = len(self.atoms.mass), len(self.arcs.density)
        count = np.cumsum(np.concatenate([np.ones(ta, dtype=int), np.full(ra, ARC_NODES)]))
        part = max(1, CHUNK_BYTES // (2 * _PAIR_BYTES))
        cuts = np.flatnonzero(np.diff((count - 1) // part)) + 1
        return [replace(self, atoms=Atoms(*(x[min(lo, ta):min(hi, ta)] for x in self.atoms)),
                        arcs=Arcs(*(x[max(lo - ta, 0):max(hi - ta, 0)] for x in self.arcs)))
                for lo, hi in zip([0, *cuts], [*cuts, len(count)])]

    def _node_sums(self, dirs: np.ndarray, nrows: int, rows) -> np.ndarray:
        """The direct route: sum_u wts_u r(u . w) over each body's nodes u,
        for the nrows functions r that rows(cosines) yields, at every
        direction w: (nrows, D), or (nrows, m, D) over m bodies.  Nodes come
        in parts (_parts), directions in blocks; the cosines are elementwise
        products, and one np.bincount over the (node, direction) pairs adds
        to each (body, direction) bin its sum so far, then the part's nodes
        in order.  So a value depends on its body and its direction alone:
        not on the others, the parts, the blocks or the BLAS threads."""
        m = self.bodies or 1
        out = np.zeros((nrows, m, len(dirs)))
        for part in self._parts():
            pts, wts, body = part.node_cloud()
            for block in _direction_blocks(len(wts), len(dirs)):
                d, nb = dirs[block], len(dirs[block])
                cos = np.clip(_dots(pts, d.T), -1.0, 1.0)
                at = (body[:, None] * nb + np.arange(nb)).ravel()
                at = np.concatenate([np.arange(m * nb), at])   # the sums so far come first
                for k, r in enumerate(rows(cos)):
                    sums = np.concatenate([out[k, :, block].ravel(), (wts[:, None] * r).ravel()])
                    out[k, :, block] = np.bincount(at, sums, m * nb).reshape(m, nb)
        return out[:, 0] if self.bodies is None else out

    def _addition_theorem(self, dirs: np.ndarray, kmax: int) -> np.ndarray | None:
        """The moments of degree <= kmax (kmax+1, D) by the addition theorem
        where that is the cheaper route for one body in R^3, else None."""
        nodes = len(self.atoms.mass) + ARC_NODES * len(self.arcs.density)
        if self.bodies is None and _harmonic_is_cheaper(nodes, len(dirs), kmax):
            return _harmonic_moments(*self.node_cloud()[:2], dirs, kmax)
        return None

    def zonal_moments(self, dirs: np.ndarray, kmax: int) -> np.ndarray:
        """Moments M_k(w) = int P_k^n(u . w) dS(u) for every direction w in
        dirs: (kmax+1, D), or (kmax+1, m, D) over m bodies.  The uniform
        part adds 4 pi c to M_0 and, P_k being orthogonal to 1 for k >= 1,
        nothing to the other rows.

        One body takes the direct sums (_node_sums) or the addition theorem
        (_harmonic_moments), whichever _harmonic_is_cheaper finds cheaper:
        the direct sums at few directions (at D = 1 by 6-40x), the addition
        theorem at hundreds of directions on thousands of nodes (5-35x).
        The two routes may differ by about 1e-15 of the total mass, so a
        direction alone or among many may move its last bits; each route is
        deterministic.  Several bodies always take the direct sums."""
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        out = self._addition_theorem(dirs, kmax)
        if out is None:
            out = self._node_sums(dirs, kmax + 1, lambda t: legendre_rows(3, kmax, t))
        out[0] += 4.0 * math.pi * self.uniform
        return out

    def integrate_zonal(self, profile, dirs: np.ndarray) -> np.ndarray:
        """Values of w -> int profile(u . w) dS(u) at each direction: (D,), or
        (m, D) over m bodies; the uniform part adds 2 pi c int profile(t) dt.
        A Legendre series (a ZonalPolynomial) is the series of the moments,
        sum_k coeffs[k] M_k(w), where the addition theorem is the cheaper
        route (see zonal_moments); any other profile is summed at the nodes."""
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        moments = (self._addition_theorem(dirs, profile.degree)
                   if isinstance(profile, ZonalPolynomial) and profile.n == 3 else None)
        if moments is not None:
            out = sum(c * row for c, row in zip(profile.coeffs, moments))
        else:
            out = self._node_sums(dirs, 1, lambda t: [np.asarray(profile(t), dtype=float)])[0]
        if self.uniform:
            q = jacobi_quadrature(3, UNIFORM_ORDER)    # Gauss-Legendre: the weight is 1 at n = 3
            t = np.concatenate([q.nodes - 1.0, q.nodes + 1.0]) / 2.0
            w = np.concatenate([q.weights, q.weights]) / 2.0
            out += 2.0 * math.pi * self.uniform * float(w @ np.asarray(profile(t), dtype=float))
        return out

    def scaled_mass(self, c: float) -> "AreaMeasure":
        return replace(self, atoms=self.atoms._replace(mass=c * self.atoms.mass),
                       arcs=self.arcs._replace(density=c * self.arcs.density),
                       uniform=c * self.uniform)

    def merged(self, other: "AreaMeasure") -> "AreaMeasure":
        return replace(self, atoms=Atoms(*map(np.concatenate, zip(self.atoms, other.atoms))),
                       arcs=Arcs(*map(np.concatenate, zip(self.arcs, other.arcs))),
                       uniform=self.uniform + other.uniform)


def _direction_blocks(nodes: int, ndirs: int) -> list[slice]:
    """Consecutive blocks of directions whose (nodes, block) temporaries of
    the zonal sums fit in CHUNK_BYTES (one direction at least); none when
    there are no nodes."""
    if nodes == 0:
        return []
    return _blocks(ndirs, CHUNK_BYTES // (_PAIR_BYTES * nodes))


def _blocks(count: int, step: int) -> list[slice]:
    """Consecutive slices of at most max(step, 1) of range(count)."""
    step = max(1, step)
    return [slice(j, j + step) for j in range(0, count, step)]


def _harmonic_is_cheaper(nodes: int, ndirs: int, kmax: int) -> bool:
    """Whether the addition theorem costs less than the direct sums for the
    moments of degree <= kmax of `nodes` nodes at `ndirs` directions, by the
    cost model of _DIRECT_PAIR_S and the constants after it:

        direct   = (K+1) (N D _DIRECT_PAIR_S + B _DIRECT_BLOCK_S),
        harmonic = (K+1)(K+2)/2 (N _HARMONIC_NODE_S + D _HARMONIC_DIR_S
                                 + B_N _HARMONIC_NODE_BLOCK_S + B_D _HARMONIC_DIR_BLOCK_S),

    with K = kmax and B, B_N, B_D the direction blocks of the direct route
    and the node and direction blocks of the addition theorem.  At degree 32
    it takes the addition theorem from 28 directions on 6336 nodes, 73 on
    2016 and 192 on 720."""
    if nodes == 0:
        return False
    rows, pairs = kmax + 1, (kmax + 1) * (kmax + 2) // 2
    direct = rows * (nodes * ndirs * _DIRECT_PAIR_S
                     + len(_direction_blocks(nodes, ndirs)) * _DIRECT_BLOCK_S)
    node_blocks, dir_blocks = _harmonic_blocks(nodes, ndirs, kmax)
    harmonic = pairs * (nodes * _HARMONIC_NODE_S + ndirs * _HARMONIC_DIR_S
                        + len(node_blocks) * _HARMONIC_NODE_BLOCK_S
                        + len(dir_blocks) * _HARMONIC_DIR_BLOCK_S)
    return harmonic < direct


def _harmonic_blocks(nodes: int, ndirs: int, kmax: int) -> tuple[list[slice], list[slice]]:
    """The node and direction blocks of the addition theorem, whose
    temporaries (and a direction's kmax + 1 moments) fit in CHUNK_BYTES."""
    return (_blocks(nodes, CHUNK_BYTES // _POINT_BYTES),
            _blocks(ndirs, CHUNK_BYTES // (_POINT_BYTES + 8 * (kmax + 1))))


def _harmonic_moments(pts: np.ndarray, wts: np.ndarray, dirs: np.ndarray, kmax: int):
    """The route of the addition theorem: the moments sum_u wts_u P_k(u . w)
    (kmax+1, len(dirs)).

    With (c_m + i s_m, r_km) from harmonic_orders, the coefficients

        C_km = sum_u wts_u r_km(u_z) c_m(u) / (2k+1),  S_km likewise with s_m,

    are summed once over the nodes, in node blocks under CHUNK_BYTES, and

        M_k(w) = sum_{m <= k} r_km(w_z) (C_km c_m(w) + S_km s_m(w)).

    Each direction's moments are elementwise in the directions, so they do
    not depend on the other directions or on the blocks; the coefficients
    depend on the nodes alone."""
    node_blocks, dir_blocks = _harmonic_blocks(len(wts), len(dirs), kmax)
    coef = np.zeros((2, kmax + 1, kmax + 1))          # (C or S, k, m)
    for part in node_blocks:
        w = wts[part]
        for m, (c, s), rows in harmonic_orders(pts[part], kmax):
            wcs = np.stack([w * c, w * s])
            # einsum, not a BLAS dot: its sums do not depend on the threads
            coef[:, m:, m] += np.array([wcs.sum(axis=1)]
                                       + [np.einsum("jn,n->j", wcs, r) for r in rows]).T
    coef /= (2 * np.arange(kmax + 1) + 1.0)[:, None]
    out = np.zeros((kmax + 1, len(dirs)))
    for block in dir_blocks:
        for m, (c, s), rows in harmonic_orders(dirs[block], kmax):
            out[m, block] += coef[0, m, m] * c + coef[1, m, m] * s
            for k, r in enumerate(rows, m + 1):
                out[k, block] += r * (coef[0, k, m] * c + coef[1, k, m] * s)
    return out


# -- area measures of polytopes ---------------------------------------------

def _facet_entries(P: Polytope) -> tuple[np.ndarray, np.ndarray]:
    """The facet cycles of a full-dimensional P, concatenated in order: the
    vertex and the facet of each entry."""
    lens = [len(c) for c in P.facet_cycles]
    cyc = np.fromiter(itertools.chain.from_iterable(P.facet_cycles), dtype=int, count=sum(lens))
    return cyc, np.repeat(np.arange(len(lens)), lens)


def normal_cone_masses(P: Polytope) -> np.ndarray:
    """The solid angle of the normal cone of each vertex of P, in vertex
    order.  The cones tile the sphere, so the masses add up to 4 pi; they
    make the pieces of the `area-measure --i 0` report.  A full body's cone
    at v is its angle defect 2 pi - sum_F theta_F(v), theta_F(v) the angle
    of facet F at v between its neighbours in F's cycle (Gauss-Bonnet: the
    cone's spherical polygon has the angles pi - theta_F(v)), clipped at 0
    for a vertex flat to rounding.  The angles are taken in [0, 2 pi) in the
    facets' planes: a facet merged within MERGE_TOL is planar only that far,
    and in its plane its angles still add up to (k - 2) pi, so that the
    defects add up to 4 pi by Euler's relation (Descartes' theorem) even on
    a facet merged across a fold.  A polygon's cones are lunes of twice the
    angle between the normals of a vertex's two edges; a segment has two
    hemispheres and a point the whole sphere."""
    if P.dim == 3:
        cyc, facet = _facet_entries(P)
        lens = np.bincount(facet)
        first = (np.cumsum(lens) - lens)[facet]
        pos = np.arange(len(cyc)) - first
        v, n = P.vertices[cyc], P.facet_normals[facet]
        a = P.vertices[cyc[first + (pos - 1) % lens[facet]]] - v
        b = P.vertices[cyc[first + (pos + 1) % lens[facet]]] - v
        # the angle from b round n to a, of the sides as projected on the facet's plane
        angle = np.arctan2(np.vecdot(n, np.cross(b, a)),
                           np.vecdot(a, b) - np.vecdot(n, a) * np.vecdot(n, b)) % (2.0 * math.pi)
        # the double 2 pi lies 2.449e-16 below 2 pi: add the remainder back
        defect = 2.0 * math.pi - np.bincount(cyc, angle, P.num_vertices)
        defect += 2.4492935982947064e-16
        return np.maximum(defect, 0.0)
    if P.dim == 2:
        me = P.edge_normals_inplane
        return 2.0 * _arc_angles(np.roll(me, 1, axis=0), me)
    if P.dim == 1:
        return np.array([2.0 * math.pi, 2.0 * math.pi])
    if P.dim == 0:
        return np.array([4.0 * math.pi])
    return np.zeros(0)


def area_measure(P: Polytope, i: int) -> AreaMeasure:
    """Area measure S_i(P, .) for 0 <= i <= 2 in ambient dimension 3.

    S_i = C(2, i)^(-1) * sum over i-faces F of vol_i(F) times the spherical
    Hausdorff measure on the normal cone of F; the binomial normalization
    makes the total mass equal to n V(P[i]; B[n-i]).  The normal cones of
    the vertices tile the sphere, so S_0 is the uniform measure sigma for
    every nonempty P.  The faces' lengths and cones are computed for all
    faces at once.
    """
    if not 0 <= i <= 2:
        raise ValueError(f"degree must satisfy 0 <= i <= n-1 = 2, got {i}")
    meas = AreaMeasure(i)
    if P.is_empty:
        return meas
    if i == 0:
        meas.uniform = 1.0
        return meas
    binom = math.comb(2, i)
    if P.dim == 3:
        if i == 2:
            normals, masses = P.facet_normals, P.facet_areas
        else:
            tail, head, f, g = P.edges.T
            a, b = P.facet_normals[f], P.facet_normals[g]
            density = _norms(P.vertices[head] - P.vertices[tail]) / binom
    elif P.dim == 2:
        w, pts = P.plane_normal, P.vertices
        if i == 2:
            normals, masses = np.array([w, -w]), np.full(2, _polygon_area3d(pts))
        else:
            # per edge the quarter arcs w -> m_e -> -w of its in-plane normal m_e
            me = P.edge_normals_inplane
            a = np.stack([np.broadcast_to(w, me.shape), me], axis=1).reshape(-1, 3)
            b = np.stack([me, np.broadcast_to(-w, me.shape)], axis=1).reshape(-1, 3)
            density = np.repeat(_norms(np.roll(pts, -1, axis=0) - pts) / binom, 2)
    elif P.dim == 1 and i == 1:
        d = _unit(P.vertices[1] - P.vertices[0])
        length = float(np.linalg.norm(P.vertices[1] - P.vertices[0]))
        p, q = _plane_basis(d)
        a = np.array([p, q, -p, -q])
        b, density = np.roll(a, -1, axis=0), np.full(4, length / binom)
    else:
        return meas
    if i == 2:
        meas.atoms = Atoms(np.zeros(len(masses), dtype=int), normals, masses)
    else:
        meas.arcs = Arcs(np.zeros(len(density), dtype=int), a, b, density)
    return meas


def steiner_area_measure(P: Polytope, i: int, t: float) -> AreaMeasure:
    """S_i(P + tB, .) = sum_j t^(i-j) C(i, j) S_j(P, .), t >= 0."""
    if t < 0:
        raise ValueError("outer parallel radius t must be >= 0")
    out = AreaMeasure(i)
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
    use their own closed forms (V1 of a planar body is half its perimeter).

    Each sum over faces is one batched pass over the lattice's arrays: the
    per-face terms are computed for all faces at once and added in face
    order (facet centroids add their vertices in cycle order), so the sums
    are those of a loop over the faces."""
    if P.is_empty:
        return IntrinsicVolumes(0.0, 0.0, 0.0, 0.0)
    if P.dim == 3:
        # cones from the vertex centroid: terms stay of the body's size
        # wherever it sits
        cyc, facet = _facet_entries(P)
        centroid = np.zeros((len(P.facet_cycles), 3))
        np.add.at(centroid, facet, P.vertices[cyc])
        centroid = centroid / np.bincount(facet)[:, None] - P.vertices.mean(axis=0)
        vol = sum((P.facet_areas * np.vecdot(P.facet_normals, centroid) / 3.0).tolist())
        surf = float(np.sum(P.facet_areas))
        tail, head, f, g = P.edges.T
        length = _norms(P.vertices[head] - P.vertices[tail])
        n1, n2 = P.facet_normals[f], P.facet_normals[g]
        # math.atan2, not np.arctan2 (as in _arc_angles): numpy's array
        # arctan2 differs from libm's by one ulp on some arguments, which
        # moves V1 in its last bit on 7 of the 220 full-dimensional bodies
        # of tests/test_face_sums.py
        angle = list(map(math.atan2, _norms(np.cross(n1, n2)).tolist(),
                         np.vecdot(n1, n2).tolist()))
        v1 = sum((length * angle).tolist())
        return IntrinsicVolumes(1.0, v1 / (2.0 * math.pi), surf / 2.0, float(vol))
    if P.dim == 2:
        pts = P.vertices
        per = sum(_norms(np.roll(pts, -1, axis=0) - pts).tolist())
        return IntrinsicVolumes(1.0, per / 2.0, _polygon_area3d(pts), 0.0)
    if P.dim == 1:
        return IntrinsicVolumes(1.0, float(np.linalg.norm(P.vertices[1] - P.vertices[0])), 0.0, 0.0)
    return IntrinsicVolumes(1.0, 0.0, 0.0, 0.0)


# -- slicing ------------------------------------------------------------------

def _cut(P: Polytope, d: np.ndarray, halfspace: bool) -> Polytope:
    """Hull of the vertices of P on a plane, or below it for the halfspace,
    and of the edge crossings of the plane, d being the signed distances of
    the vertices to it.  Vertices closer than POINT_TOL times the body's
    _extent lie on the plane."""
    tol = POINT_TOL * _extent(P.vertices)
    keep = (d if halfspace else np.abs(d)) <= tol
    ij = P.edge_index_pairs()
    di, dj = d[ij[:, 0]], d[ij[:, 1]]
    cross = ((di > tol) & (dj < -tol)) | ((di < -tol) & (dj > tol))
    vi, vj = P.vertices[ij[cross, 0]], P.vertices[ij[cross, 1]]
    lam = di[cross] / (di[cross] - dj[cross])
    return Polytope.from_vertices(np.vstack([P.vertices[keep], vi + lam[:, None] * (vj - vi)]))


def clip_halfspace(P: Polytope, normal, offset: float) -> Polytope:
    """Intersection of P with the halfspace {x : normal . x <= offset}, for
    a unit normal."""
    if P.is_empty:
        return P
    return _cut(P, P.vertices @ np.asarray(normal, dtype=float) - offset, halfspace=True)


def section_plane(P: Polytope, point, normal) -> Polytope:
    """Intersection of P with the plane through `point` normal to `normal`.
    Signed distances are taken about the vertex centroid, so that a body far
    from the origin loses no digits to its position."""
    if P.is_empty:
        return P
    a = _unit(np.asarray(normal, dtype=float))
    centre = P.vertices.mean(axis=0)
    d = (P.vertices - centre) @ a - float(np.dot(a, np.asarray(point, dtype=float) - centre))
    return _cut(P, d, halfspace=False)


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
