"""References of the Crofton checks, as motion_reference.py keeps the motion
law and the kernels that the closed forms replaced: the law of flats in the
ball about the origin, which the checks drew before their flats were drawn
about the body, and the section kernels of the terms that now integrate
over the offsets in closed form (`FlatIntegrals`): the one plane-section
reference (`DenseSections`, the dense kernel that the scatter of
`integral_geom.PlaneSections` replaced), with the perimeters, areas, area
measures as pieces and S_1 moments of plane sections, and the chords and
area measures of line sections.  Tests that pin estimates taken under the
old laws and kernels run on these."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from minkval.constants import kappa
from minkval.convex import AreaMeasure, Arcs, Atoms, _dots, _extent, _plane_basis, _unit
from minkval.harmonics import legendre_rows
from minkval.integral_geom import _clip_lines, _uniform, direction_map, rotation_map
from minkval.valuation import MeasurePieces

FACET_PARALLEL_TOL = 1e-12   # |n_F - (n_F . a) a| up to which facet F lies in the plane


@dataclass(frozen=True)
class IIDLaw:
    """A law of iid doubles, none stratified: per sample, `uniforms` doubles
    handed to the kernel as they are, after the direction (2 doubles,
    `direction_map`) or the rotation (3 doubles, `rotation_map`) made of
    the sample's last doubles, as the laws of `integral_geom` make them.
    It draws nothing per shard."""

    rotations: bool = False
    uniforms: int = 0
    shard_doubles = 0

    @property
    def sample_doubles(self) -> int:
        return self.uniforms + (3 if self.rotations else 2)

    @property
    def bytes(self) -> int:
        """The bytes of one sample's doubles and draw, at most those of the
        lattice's point and its direction or rotation."""
        return 8 * (self.sample_doubles + (28 if self.rotations else 13))

    def draw(self, u: np.ndarray, strata=None, shifts=None) -> tuple[np.ndarray, ...]:
        make = rotation_map if self.rotations else direction_map
        return (make(*u[:, self.uniforms:].T), *u[:, :self.uniforms].T)


# uniform directions and rotations from iid doubles: the iid sides of the
# variance comparisons and the calibration table, of the laws that
# `integral_geom.DIRECTIONS` and `ROTATIONS`, shifted lattices per shard,
# replaced
IID_DIRECTIONS = IIDLaw()
IID_ROTATIONS = IIDLaw(rotations=True)


def origin_radius(P) -> float:
    """The largest |v| over P's vertices: the radius of the ball about the
    origin that holds P."""
    return float(np.linalg.norm(P.vertices, axis=1).max())


@dataclass(frozen=True)
class BallFlats:
    """Flats of codimension `codim` uniform among those meeting the ball of
    `radius` about the origin: a uniform direction and an offset uniform in
    the codim-ball of that radius, from the doubles that `law` draws after
    the direction.  The weight, the invariant measure
    C(n, n - codim) kappa_n / kappa_(n - codim) R^codim of the flats meeting
    the ball, is the same for every sample; `kernel` applies it to each."""

    codim: int
    radius: float

    @classmethod
    def about_origin(cls, P, codim: int) -> "BallFlats":
        """The ball of P's enclosing radius about the origin, with a margin
        of 1e-12 relative, as the Crofton checks drew it."""
        return cls(codim, origin_radius(P) * (1.0 + 1e-12))

    @property
    def law(self) -> IIDLaw:
        """A direction, then the doubles of the offset (codim 1), the
        radius (codim 2, 3) and the angle (codim 2), all iid."""
        return IIDLaw(uniforms=2 if self.codim == 2 else 1)

    @property
    def weight(self) -> float:
        return (math.comb(3, self.codim) * kappa(3) / kappa(3 - self.codim)
                * self.radius ** self.codim)

    def flats(self, dirs: np.ndarray, *u: np.ndarray) -> tuple[np.ndarray, ...]:
        """(normals, offsets) of planes, (directions, points) of lines, or
        (points,), from the law's draws; the doubles are overwritten."""
        R = self.radius
        if self.codim == 3:
            r, = u
            np.power(r, 1.0 / 3.0, out=r)
            r *= R
            return (dirs * r[:, None],)
        if self.codim == 1:
            return dirs, _uniform(u[0], -R, R)
        r, ang = u
        _uniform(ang, 0.0, 2.0 * math.pi)
        aux = np.where(np.abs(dirs[:, :1]) < 0.9, [1.0, 0, 0], [0, 1.0, 0])
        e1 = _unit(np.cross(dirs, aux))
        e2 = np.cross(dirs, e1)
        rad = R * np.sqrt(r)
        return dirs, rad[:, None] * (np.cos(ang)[:, None] * e1 + np.sin(ang)[:, None] * e2)

    def kernel(self, f):
        """The kernel of f(*flats) under `law`: each value times `weight`."""
        weight = self.weight
        return lambda *draws: weight * np.asarray(f(*self.flats(*draws)), dtype=float)


class DenseSections:
    """The plane kernel before `integral_geom.PlaneSections` scattered the
    crossed edges, for sections by planes {x . a = s}: a crossing point for
    every edge, (m, 3, E), and the facet segments v_F and their midpoints
    for every plane and facet, (m, 3, F), from two dense products with the
    signed incidence B (E, F) (+1 where the ccw cycle of F runs along
    e = (i, j) from i to j, else -1) and with |B|.  Each v_F sums at most
    two nonzero terms, so the products round as the scatter does.  It gives
    the crossing points of the planes (`crossings`), V_1 and V_2 of each
    section (`volumes`), its area measures (`pieces`) and their S_1 moments
    (`s1_moments`), as the checks took them per plane and offset before
    they integrated over the offsets in closed form.  A crossed facet F has
    the outward normal m_F = unit(n_F - (n_F . a) a) of its segment in the
    plane, or unit(a x v_F) where n_F is parallel to a up to rounding."""

    def __init__(self, P):
        self.normals = P.facet_normals
        ij = np.array([(i, j) for i, j, _, _ in P.edges])
        self.vi, self.vj = ij[:, 0], ij[:, 1]
        self.centre = P.vertices.mean(axis=0)
        self.local = local = P.vertices - self.centre
        self.start, self.step = local[self.vi].T, (local[self.vj] - local[self.vi]).T
        self.cut = 1e-12 * _extent(P.vertices)
        index = {(i, j): e for e, (i, j) in enumerate(ij.tolist())}
        B = np.zeros((len(ij), len(P.facet_cycles)))
        for f, cyc in enumerate(P.facet_cycles):
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if (a, b) in index:
                    B[index[a, b], f] = 1.0
                else:
                    B[index[b, a], f] = -1.0
        self.incidence, self.touches = B, np.abs(B)
        V, E, F = len(P.vertices), len(ij), len(P.facet_cycles)
        # per plane: the distances, the (E,) arrays and the (3, E) points and
        # products of segments(), the (3, F) segments, midpoints and moments
        self.sample_bytes = 8 * (2 * V + 24 * E + 12 * F)
        # in pieces(), per crossed facet and per section: the facets'
        # arrays, two arcs, two atoms (the arcs' nodes run in the bounded
        # parts of AreaMeasure's node sums)
        self.piece_bytes = 8 * (32 * F + 16)

    def distances(self, a, s):
        """The signed distances (m, V) of the vertices to the planes
        {x . a[t] = s[t]}, about the centroid, row by row."""
        return _dots(a, self.local.T) - (s - _dots(a, self.centre[:, None])[:, 0])[:, None]

    def _edge_points(self, a, s):
        """The crossing sign c (m, E) of each edge, +1 where its end i lies
        above the plane and j not, -1 the other way round, 0 where the plane
        does not cross it, and its crossing point p (m, 3, E) about the
        centroid."""
        d = self.distances(a, s)
        above = d > self.cut
        c = above[:, self.vi].astype(float) - above[:, self.vj]
        di, dj = d[:, self.vi], d[:, self.vj]
        lam = np.divide(di, di - dj, out=np.zeros_like(di), where=c != 0)
        return c, self.start + np.clip(lam, 0.0, 1.0)[:, None, :] * self.step

    def crossings(self, a, s):
        """The points where the planes cross the edges: plane index t (K,)
        and world point (K, 3), grouped by plane."""
        c, p = self._edge_points(a, s)
        rows, e = np.nonzero(c)
        return rows, p[rows, :, e] + self.centre

    def segments(self, a, s):
        """The segments v_F and midpoints (m, 3, F) of every plane and facet."""
        c, p = self._edge_points(a, s)
        m, c = a.shape[0], c[:, None, :]
        v = ((c * p).reshape(3 * m, -1) @ self.incidence).reshape(m, 3, -1)
        mid = 0.5 * ((np.abs(c) * p).reshape(3 * m, -1) @ self.touches).reshape(m, 3, -1)
        return v, mid

    def volumes(self, a, s):
        """V_1 (half the perimeter) and V_2 (the area) of each section, 0
        where the plane misses the body."""
        v, mid = self.segments(a, s)
        return np.linalg.norm(v, axis=1).sum(axis=1) / 2.0, self.area(a, v, mid)

    @staticmethod
    def area(a, v, mid):
        return 0.5 * np.abs(np.einsum("mi,mif->m", a, np.cross(mid, v, axis=1)))

    def crossed_facets(self, a, v):
        """The crossed facets' planes (K,), segment lengths |v_F| (K,) and
        segment normals m_F (K, 3), by plane, then facet."""
        length = np.linalg.norm(v, axis=1)
        rows, cols = np.nonzero(length > 0.0)
        nf, ar = self.normals[cols], a[rows]
        m_f = nf - np.sum(nf * ar, axis=1)[:, None] * ar
        # a facet in the plane up to rounding: the normal a x v_F of its segment
        flat = np.linalg.norm(m_f, axis=1) <= FACET_PARALLEL_TOL
        m_f[flat] = np.cross(ar[flat], v[rows[flat], :, cols[flat]])
        return rows, length[rows, cols], _unit(m_f)

    def pieces(self, a, s) -> MeasurePieces:
        """The area measures of the sections, as area_measure gives them for
        a polygon: S_2 the atoms a and -a, each with the section's area, and
        S_1 per crossed facet F the quarter arcs a -> m_F and m_F -> -a, of
        density |v_F| / 2 each."""
        v, mid = self.segments(a, s)
        rows, length, m_f = self.crossed_facets(a, v)
        hit = np.bincount(rows, minlength=a.shape[0]) > 0
        ar, t = a[rows], np.flatnonzero(hit)
        arcs = (np.repeat(rows, 2), np.stack([ar, m_f], axis=1).reshape(-1, 3),
                np.stack([m_f, -ar], axis=1).reshape(-1, 3), np.repeat(0.5 * length, 2))
        atoms = (np.repeat(t, 2), np.stack([a[t], -a[t]], axis=1).reshape(-1, 3),
                 np.repeat(self.area(a[t], v[t], mid[t]), 2))
        m = a.shape[0]
        return MeasurePieces(hit, AreaMeasure(1, arcs=Arcs(*arcs), bodies=m),
                             AreaMeasure(2, atoms=Atoms(*atoms), bodies=m))

    def s1_moments(self, a, s, w, kmax: int) -> np.ndarray:
        """Moments int P_k(u . w) dS_1(u), k <= kmax, of each section (m, kmax+1):
        S_1 has one half circle a -> m_F -> -a of density |v_F| / 2 per
        crossed facet.  The points u(theta) = cos(theta) a + sin(theta) m_F
        of each half circle are reduced on their own, so that no value
        depends on the batch."""
        rows, length, m_f = self.crossed_facets(a, self.segments(a, s)[0])
        arc_cos, arc_sin, arc_weights = half_circle_rule(kmax)
        w = w[:, None]
        dots = arc_cos[None, :] * _dots(a[rows], w) + arc_sin[None, :] * _dots(m_f, w)
        arc = np.array([np.multiply(pk, arc_weights[k % 2]).sum(axis=1) for k, pk in
                        enumerate(legendre_rows(3, kmax, np.clip(dots, -1, 1)))])
        out = np.zeros((a.shape[0], kmax + 1))
        np.add.at(out, rows, (arc * (0.5 * length)).T)
        return out


@functools.lru_cache(maxsize=None)
def half_circle_rule(kmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cosines, sines and weights (2, M) of the rule in theta on [0, pi]
    that is exact for the moments of degree <= kmax over a half circle.
    On u(theta) = cos(theta) a + sin(theta) m, P_k(u . w) is a trigonometric
    polynomial of degree k in theta, with even frequencies only for even k
    and odd ones only for odd k (u(theta + pi) = -u(theta)).  Over [0, pi],
    cos(m theta) integrates to pi for m = 0 and to 0 else, sin(m theta) to
    2/m for odd m and to 0 for even m.  On the M = kmax + 1 nodes
    theta_j = j pi / M, the weights pi / M (row 0, even k) integrate the
    even frequencies below 2M exactly, and the weights
    (4/M) sum_(odd m <= kmax) sin(m theta_j) / m (row 1, odd k) the odd
    frequencies up to kmax: sum_j sin(m theta_j) sin(m' theta_j) = M/2
    for m = m' and 0 else, and sum_j cos(m theta_j) sin(m' theta_j) = 0,
    for odd m, m' <= kmax < M."""
    M = kmax + 1
    theta = np.arange(M) * (math.pi / M)
    odd = np.arange(1, kmax + 1, 2)
    weights = np.empty((2, M))
    weights[0] = math.pi / M
    weights[1] = 4.0 / M * (np.sin(np.multiply.outer(theta, odd)) / odd).sum(axis=1)
    return np.cos(theta), np.sin(theta), weights


class LineSections:
    """Chords of a full-dimensional polytope by lines p + s u, from its
    facets, and the area measures of each chord (`pieces`), as the checks
    took them per line before they integrated over the lines' offsets in
    closed form."""

    def __init__(self, P):
        A, self.b = P.inequalities()
        self.AT = np.ascontiguousarray(A.T)   # (3, F): faster products than the view
        self.cut = 1e-12 * _extent(P.vertices)
        self.sample_bytes = 8 * (8 * len(self.b) + 16)   # the (m, F) arrays of _clip_lines
        self.piece_bytes = 8 * 48   # pieces(): the basis, the ring and four arcs per line

    def chords(self, u, p):
        """Clipped [lo, hi] of each line, and whether it meets the body."""
        return _clip_lines(u @ self.AT, self.b[None, :] - p @ self.AT, -math.inf, math.inf,
                           self.cut)

    def pieces(self, u, p) -> MeasurePieces:
        """The area measures of the chords, as area_measure gives them for a
        segment of length l along u: S_1 the four quarter arcs p1 -> p2 ->
        -p1 -> -p2 -> p1 of the great circle orthogonal to u, with the basis
        (p1, p2) of _plane_basis, of density l / 2 each, and no S_2."""
        lo, hi, hit = self.chords(u, p)
        t = np.flatnonzero(hit)
        p1, p2 = _plane_basis(u[t])
        ring = np.stack([p1, p2, -p1, -p2], axis=1)       # (K, 4, 3)
        arcs = Arcs(np.repeat(t, 4), ring.reshape(-1, 3),
                    np.roll(ring, -1, axis=1).reshape(-1, 3), np.repeat(0.5 * (hi[t] - lo[t]), 4))
        return MeasurePieces(hit, AreaMeasure(1, arcs=arcs, bodies=len(hit)),
                             AreaMeasure(2, bodies=len(hit)))


def offset_sum(kernel, a, lo, hi, offsets: int):
    """2 int kernel(a, s) ds over s in [lo, hi] for one direction a (3,),
    by the midpoint rule on `offsets` offsets: the integral under the
    invariant measure of the planes of normal a."""
    h = (hi - lo) / offsets
    s = lo + h * (np.arange(offsets) + 0.5)
    vals = np.asarray(kernel(np.repeat(a[None, :], offsets, axis=0), s), dtype=float)
    return 2.0 * h * vals.sum(axis=0)
