"""Reference kernels of rigid motions, kept for the tests: rotations from
quaternions, the box law of translations, the
intersections P n (R L + x) edge by edge, the exact separating-axis test
and the lattice intersection by successive clipping.

kinematic_check and kinematic_minkowski_check integrate the translations in
closed form (integral_geom.TranslativeIntegrals) and draw rotations only;
these kernels sample whole motions.  The tests use them to check the closed
form by Monte Carlo over the translations, and to keep the estimates pinned
under the laws they were taken with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from minkval.convex import CHUNK_BYTES, AreaMeasure, Arcs, Atoms, Polytope, _unit, clip_halfspace
from minkval.integral_geom import _clip_lines
from minkval.valuation import MeasurePieces

from flat_reference import IIDLaw

SAT_TOL = 1e-12   # slack of the separating-axis test, per unit axis length


def rotations_from_quaternions(q: np.ndarray) -> np.ndarray:
    """Rotation matrices from unit quaternions (m, 4) -> (m, 3, 3)."""
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    R = np.empty((q.shape[0], 3, 3))
    R[:, 0, 0] = 1 - 2 * (y * y + z * z)
    R[:, 0, 1] = 2 * (x * y - z * w)
    R[:, 0, 2] = 2 * (x * z + y * w)
    R[:, 1, 0] = 2 * (x * y + z * w)
    R[:, 1, 1] = 1 - 2 * (x * x + z * z)
    R[:, 1, 2] = 2 * (y * z - x * w)
    R[:, 2, 0] = 2 * (x * z - y * w)
    R[:, 2, 1] = 2 * (y * z + x * w)
    R[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return R


@dataclass(frozen=True)
class BoxMotions:
    """Rigid-motion law of g L = R L + x against a fixed body P, the box
    law: uniform rotations R (the probability law), and x uniform in the
    coordinate box of P - R L for the rotation drawn,
    [lo_P - max_v R v, hi_P - min_v R v] over the vertices v of L, with
    [lo_P, hi_P] = `box` the coordinate box of P.  Every x at which R L + x
    meets P lies in it, so the box volume as a per-sample weight keeps the
    motion integral unbiased (conditional Monte Carlo: Asmussen & Glynn,
    Stochastic Simulation, 2007, ch. V), wherever P and L lie.  The law
    draws the translations' doubles and the rotation's, all iid; the
    window and the weight are the kernel's (`kernel`)."""

    law: ClassVar[IIDLaw] = IIDLaw(rotations=True, uniforms=3)

    box: np.ndarray      # (2, 3): [lo_P, hi_P]
    moving: np.ndarray   # (V, 3): the vertices of L

    @classmethod
    def tight(cls, P: Polytope, L: Polytope) -> "BoxMotions":
        """The box law of motions of L against P."""
        return cls(np.array([P.vertices.min(axis=0), P.vertices.max(axis=0)]), L.vertices)

    def motions(self, R: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The translations (m, 3) of the rotations R, from their doubles t,
        which they overwrite, and the box volumes (m,)."""
        proj = R @ self.moving.T                     # (m, 3, V): coordinates of R v
        lo = self.box[0] - proj.max(axis=2)
        width = self.box[1] - proj.min(axis=2)
        width -= lo
        t *= width
        t += lo
        return t, np.prod(width, axis=1)

    def kernel(self, f):
        """The kernel of f(R, x) under `law`, which hands it the columns of
        the translations' doubles: each value times its box volume."""
        def kernel(R, *t):
            x, volume = self.motions(R, np.stack(t, axis=1))
            vals = np.asarray(f(R, x), dtype=float)
            return vals * volume.reshape(volume.shape + (1,) * (vals.ndim - 1))
        return kernel


# -- intersections with a moving body ---------------------------------------

@dataclass(frozen=True)
class _Lattice:
    """Facet and edge arrays of a full-dimensional polytope, points taken
    about a given centre."""

    normals: np.ndarray      # (F, 3) outward unit normals
    heights: np.ndarray      # (F,) offsets of the facet planes about the centre
    start: np.ndarray        # (E, 3) first vertex of each edge
    unit: np.ndarray         # (E, 3) unit edge directions
    length: np.ndarray       # (E,)
    facets: np.ndarray       # (E, 2) the two facets of each edge
    centres: np.ndarray      # (F, 3) vertex means of the facets
    radii: np.ndarray        # (F,) distance from a facet's centre to its farthest vertex
    neighbours: np.ndarray   # (F, D) facets across the edges of each facet, padded with F
    radius: float            # distance from the centre to the farthest vertex

    @classmethod
    def of(cls, P: Polytope, centre: np.ndarray) -> "_Lattice":
        v = P.vertices - centre
        ij = np.array([(i, j) for i, j, _, _ in P.edges])
        facets = np.array([(f, g) for _, _, f, g in P.edges])
        step = v[ij[:, 1]] - v[ij[:, 0]]
        length = np.linalg.norm(step, axis=1)
        centres = np.array([v[cyc].mean(axis=0) for cyc in P.facet_cycles])
        radii = np.array([np.linalg.norm(v[cyc] - c, axis=1).max()
                          for cyc, c in zip(P.facet_cycles, centres)])
        nf = len(P.facet_cycles)
        adjacent = [[] for _ in range(nf)]
        for f, g in facets.tolist():
            adjacent[f].append(g)
            adjacent[g].append(f)
        neighbours = np.full((nf, max(map(len, adjacent))), nf)
        for f, fs in enumerate(adjacent):
            neighbours[f, :len(fs)] = fs
        return cls(normals=P.facet_normals, heights=P.facet_offsets - P.facet_normals @ centre,
                   start=v[ij[:, 0]], unit=step / length[:, None], length=length,
                   facets=facets, centres=centres, radii=radii, neighbours=neighbours,
                   radius=float(np.linalg.norm(v, axis=1).max()))


class MotionIntersections:
    """Intersections of a full-dimensional polytope P with moved copies
    g L = R L + x of another, edge by edge, with no hull per motion.  Stack
    the facet inequalities of P and of g L: in general position every edge
    of P n gL lies on exactly two constraint planes k, l and is the segment
    of their common line cut out by the other constraints.  Only three kinds
    of lines can carry one: an edge of P clipped by the facets of g L, an
    edge of g L clipped by the facets of P, and the line of a facet F of P
    and a facet G of g L clipped by the neighbours of F and of G.  From the
    segments (length l, midpoint t about the centre c of P) and the in-plane
    outward normals m_kl = unit(n_l - (n_l . n_k) n_k), the divergence
    theorem gives the facet areas A_k = 1/2 sum l m_kl . t, and

        V_1 = sum l angle(n_k, n_l) / 2 pi,   V_2 = 1/2 sum_k A_k,
        V_3 = 1/3 sum_k A_k (n_k . t)

    (Schneider, Convex Bodies, 2nd ed. 2014, ch. 4).  Motions whose
    bounding spheres miss, and facet pairs whose polygons' bounding spheres
    miss each other or the other facet's plane, are skipped."""

    def __init__(self, P: Polytope, L: Polytope):
        self.centre = P.vertices.mean(axis=0)
        self.L_centre = L.vertices.mean(axis=0)
        self.P, self.L = _Lattice.of(P, self.centre), _Lattice.of(L, self.L_centre)
        # P's facets with the padding row of `neighbours`: no constraint
        self.pad_normals = np.vstack([self.P.normals, np.zeros(3)])
        self.pad_heights = np.append(self.P.heights, math.inf)
        # slack of the pruning tests, relative to the bodies
        self.slack = 1e-9 * (self.P.radius + self.L.radius)
        self.cut = 1e-12 * (self.P.radius + self.L.radius)   # the parallel cut of _clip_lines
        fp, fl = len(self.P.normals), len(self.L.normals)
        ep, el = len(self.P.length), len(self.L.length)
        d = self.P.neighbours.shape[1] + self.L.neighbours.shape[1]
        # per motion whose bounding spheres meet: world copies of L, the
        # (m, E, F) edge clips and the (m, F, F) pair tests; the (K, D) clips
        # of the facet pairs that survive the tests run in pieces of their own
        self.piece = max(1, CHUNK_BYTES // (8 * (7 * fl + 6 * el + 8 * (ep * fl + el * fp)
                                                 + 8 * fp * fl)))
        self.pair_piece = max(1, CHUNK_BYTES // (8 * (9 * d + 28)))
        # per motion: the draws, the sphere test, and the arrays over the at
        # most 3 (F_P + F_L) edges of P n gL in segments() and volumes()
        self.sample_bytes = 96 + 8 * (16 + 34 * 3 * (fp + fl))
        # and the two atoms per edge of pieces()
        self.piece_bytes = 8 * 12 * 3 * (fp + fl)

    def segments(self, R: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, ...]:
        """Edges of P n (R[t] L + x[t]) over the motions t: motion index
        (K,), length (K,), midpoint about `centre` (K, 3), unit direction
        (K, 3), and the outward normals n_k, n_l (K, 3) of its two planes.
        The motions whose bounding spheres meet run in pieces of bounded
        memory."""
        g = R @ self.L_centre + x - self.centre              # centres of g L about c
        live = np.flatnonzero(np.linalg.norm(g, axis=1)
                              <= self.P.radius + self.L.radius + self.slack)
        parts = []
        for lo in range(0, max(live.size, 1), self.piece):  # one empty piece if none
            idx = live[lo:lo + self.piece]
            parts += [(idx[t], *rest) for t, *rest in self._edges(R[idx], g[idx])]
        rows, length, mid, unit, nk, nl = (np.concatenate(a) for a in zip(*parts))
        return rows, length, mid, unit, nk, nl

    def ends(self, R: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ends of the edges of P n (R[t] L + x[t]): motion index (K,)
        and world point (K, 3)."""
        rows, length, mid, unit, _, _ = self.segments(R, x)
        half = 0.5 * length[:, None] * unit
        return np.concatenate([rows, rows]), self.centre + np.concatenate([mid - half, mid + half])

    def _edges(self, R: np.ndarray, g: np.ndarray) -> list[tuple[np.ndarray, ...]]:
        """The edges of P n gL, as in segments(), in three parts by the kind
        of their line, for motions R and centres g of g L about c."""
        P, L = self.P, self.L
        fl = len(L.normals)
        m = R.shape[0]
        # facets of g L about c, with the padding row of `neighbours`
        N = np.zeros((m, fl + 1, 3))
        N[:, :fl] = np.einsum("mij,fj->mfi", R, L.normals)
        H = np.full((m, fl + 1), math.inf)
        H[:, :fl] = L.heights + np.einsum("mfi,mi->mf", N[:, :fl], g)
        NL, HL = N[:, :fl], H[:, :fl]
        parts = []
        # edges of P clipped by the facets of g L
        lo, hi, hit = _clip_lines(np.einsum("ei,mfi->mef", P.unit, NL),
                                  HL[:, None, :] - np.einsum("ei,mfi->mef", P.start, NL),
                                  0.0, P.length, self.cut)
        t, e = np.nonzero(hit & (hi > lo))
        parts.append((t, (hi - lo)[t, e], P.start[e] + 0.5 * (lo + hi)[t, e, None] * P.unit[e],
                      P.unit[e], P.normals[P.facets[e, 0]], P.normals[P.facets[e, 1]]))
        # edges of g L clipped by the facets of P
        start = np.einsum("mij,ej->mei", R, L.start) + g[:, None, :]
        unit = np.einsum("mij,ej->mei", R, L.unit)
        lo, hi, hit = _clip_lines(unit @ P.normals.T, P.heights - start @ P.normals.T,
                                  0.0, L.length, self.cut)
        t, e = np.nonzero(hit & (hi > lo))
        parts.append((t, (hi - lo)[t, e], start[t, e] + 0.5 * (lo + hi)[t, e, None] * unit[t, e],
                      unit[t, e], N[t, L.facets[e, 0]], N[t, L.facets[e, 1]]))
        # lines of facet pairs F of P, G of g L whose polygons' bounding
        # spheres meet each other and the other facet's plane
        cG = np.einsum("mij,fj->mfi", R, L.centres) + g[:, None, :]
        gap = (np.sum(P.centres ** 2, axis=1)[None, :, None] + np.sum(cG ** 2, axis=2)[:, None, :]
               - 2.0 * np.einsum("fi,mgi->mfg", P.centres, cG))
        reach = P.radii[None, :, None] + L.radii[None, None, :] + self.slack
        near = gap <= reach ** 2
        near &= (np.abs(np.einsum("fi,mgi->mfg", P.centres, NL) - HL[:, None, :])
                 <= P.radii[None, :, None] + self.slack)
        near &= (np.abs(np.einsum("fi,mgi->mfg", P.normals, cG) - P.heights[None, :, None])
                 <= L.radii[None, None, :] + self.slack)
        t, F, G = np.nonzero(near)
        for lo in range(0, t.size, self.pair_piece):
            part = slice(lo, lo + self.pair_piece)
            parts.append(self._pair_edges(t[part], F[part], G[part], N, H))
        return parts

    def _pair_edges(self, t: np.ndarray, F: np.ndarray, G: np.ndarray, N: np.ndarray,
                    H: np.ndarray) -> tuple[np.ndarray, ...]:
        """The edges of P n gL on the lines of the facet pairs F of P, G of
        g L of motions t, clipped by the neighbours of F and of G, given the
        facets N, H of g L about c as in _edges()."""
        P, L = self.P, self.L
        n, NG = P.normals[F], N[t, G]
        d = np.cross(n, NG)
        dd = np.einsum("ki,ki->k", d, d)
        keep = dd > 1e-24                                   # parallel planes share no line
        t, F, G, n, NG, d, dd = t[keep], F[keep], G[keep], n[keep], NG[keep], d[keep], dd[keep]
        # the point of the line nearest to c, and the neighbours of F and G
        y = (P.heights[F, None] * np.cross(NG, d) + H[t, G, None] * np.cross(d, n)) / dd[:, None]
        u = d / np.sqrt(dd)[:, None]
        cn = np.concatenate([self.pad_normals[P.neighbours[F]], N[t[:, None], L.neighbours[G]]],
                            axis=1)
        ch = np.concatenate([self.pad_heights[P.neighbours[F]], H[t[:, None], L.neighbours[G]]],
                            axis=1)
        lo, hi, hit = _clip_lines(np.einsum("kci,ki->kc", cn, u),
                                  ch - np.einsum("kci,ki->kc", cn, y), -math.inf, math.inf,
                                  self.cut)
        ok = hit & (hi > lo)
        return t[ok], (hi - lo)[ok], y[ok] + 0.5 * (lo + hi)[ok, None] * u[ok], u[ok], n[ok], NG[ok]

    def _shares(self, R: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, ...]:
        """The edges of P n (R[t] L + x[t]) as in segments(), with the cosine
        and sine of the angle between n_k and n_l, the edge's shares a_k,
        a_l of the areas of the facets on planes k and l, and its share of
        the volume (cones from c over those facets): motion index, length,
        n_k, n_l, cosine, sine, a_k, a_l, volume share."""
        rows, length, mid, _, nk, nl = self.segments(R, x)
        cos = np.einsum("ki,ki->k", nk, nl)
        sin = np.linalg.norm(np.cross(nk, nl), axis=1)
        ak = 0.5 * length * np.einsum("ki,ki->k", nl - cos[:, None] * nk, mid) / sin
        al = 0.5 * length * np.einsum("ki,ki->k", nk - cos[:, None] * nl, mid) / sin
        hk, hl = np.einsum("ki,ki->k", nk, mid), np.einsum("ki,ki->k", nl, mid)
        return rows, length, nk, nl, cos, sin, ak, al, (ak * hk + al * hl) / 3.0

    def volumes(self, R: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Intrinsic volumes V_0..V_3 (m, 4) of P n (R[t] L + x[t]), 0 where
        the bodies miss."""
        m = R.shape[0]
        rows, length, _, _, cos, sin, ak, al, cone = self._shares(R, x)
        out = np.zeros((m, 4))
        out[:, 0] = np.bincount(rows, minlength=m) > 0
        out[:, 1] = np.bincount(rows, length * np.arctan2(sin, cos), m) / (2.0 * math.pi)
        out[:, 2] = np.bincount(rows, 0.5 * (ak + al), m)
        out[:, 3] = np.bincount(rows, cone, m)
        return out

    def pieces(self, R: np.ndarray, x: np.ndarray) -> MeasurePieces:
        """The area measures of P n (R[t] L + x[t]) and their volumes, edge
        by edge: each edge of length l on planes k and l gives the S_1 arc
        n_k -> n_l, of tangent (n_l - cos n_k) / sin and density l / 2, and
        the S_2 atoms (n_k, a_k) and (n_l, a_l), its shares of the facet
        areas; a facet's shares add up to its area."""
        m = R.shape[0]
        rows, length, nk, nl, cos, sin, ak, al, cone = self._shares(R, x)
        atoms = (np.repeat(rows, 2), np.stack([nk, nl], axis=1).reshape(-1, 3),
                 np.stack([ak, al], axis=1).ravel())
        arcs = Arcs(rows, nk, (nl - cos[:, None] * nk) / sin[:, None], np.arctan2(sin, cos),
                    0.5 * length)
        return MeasurePieces(np.bincount(rows, minlength=m) > 0,
                             AreaMeasure(1, arcs=arcs, bodies=m),
                             AreaMeasure(2, atoms=Atoms(*atoms), bodies=m),
                             np.bincount(rows, cone, m))


# -- the separating-axis test -------------------------------------------------

def distinct_axes(vectors) -> np.ndarray:
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


def edge_directions(P: Polytope) -> np.ndarray:
    """Distinct unit edge directions of P (up to sign)."""
    return distinct_axes([_unit(P.vertices[b] - P.vertices[a])
                          for a, b in P.edge_index_pairs()])


class SeparatingAxes:
    """Exact separating-axis test of P against moved copies R L + x.  The
    axes are tried in three stages, each only on the motions that no earlier
    stage separated: the facet normals of P, the rotated facet normals of L,
    and the cross products of edge directions.  Axes are stored as columns,
    (3, A) for all motions or (m, 3, A) per motion, so that each projection
    is one matmul to (m, vertices, A), reduced over the vertex axis
    (`_vertex_major`)."""

    def __init__(self, P: Polytope, L: Polytope):
        self.vp, self.vl = P.vertices, L.vertices
        self.axesP = distinct_axes(P.facet_normals).T               # (3, A)
        self.axesL = distinct_axes(L.facet_normals).T               # (3, AL)
        self.dirsP, self.dirsL = edge_directions(P), edge_directions(L)
        self.cross_axes = len(self.dirsP) * len(self.dirsL)
        # the (m, vertices, axes) projections dominate: per motion of the
        # first two stages, and per motion that reaches the cross products,
        # which run on those motions in pieces
        per_axis = 8 * (len(self.vp) + len(self.vl) + 12)
        self.sample_bytes = per_axis * (self.axesP.shape[1] + self.axesL.shape[1])
        self.piece = max(1, CHUNK_BYTES // (per_axis * max(1, self.cross_axes)))

    def hits(self, R: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Does P meet R[t] L + x[t], per motion t."""
        vlw = self.vl @ R.transpose(0, 2, 1)                        # (m, VL, 3)
        vlw += x[:, None, :]
        hit = ~self._separated(self.axesP, vlw)
        live = np.flatnonzero(hit)
        hit[live] = ~self._separated(R[live] @ self.axesL, vlw[live])
        live = live[hit[live]]
        for lo in range(0, live.size, self.piece):
            idx = live[lo:lo + self.piece]
            hit[idx] = ~self._separated(self._cross(R[idx]), vlw[idx])
        return hit

    def _cross(self, R: np.ndarray) -> np.ndarray:
        """The axes d_P x R d_L (m, 3, EP * EL) of every pair of edge
        directions."""
        a, b = self.dirsP.T, self.dirsL @ R.transpose(0, 2, 1)       # (3, EP), (m, EL, 3)
        out = np.empty((len(R), 3, a.shape[1], b.shape[1]))
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            np.subtract(a[j, None, :, None] * b[:, None, :, k],
                        a[k, None, :, None] * b[:, None, :, j], out=out[:, i])
        return out.reshape(len(R), 3, -1)

    def _separated(self, axes: np.ndarray, vlw: np.ndarray) -> np.ndarray:
        """Does one of the axes, (3, AA) or (m, 3, AA), separate P from the
        moved vertices vlw (m, VL, 3)."""
        pp = _vertex_major(self.vp, axes)                            # (VP, [m,] AA)
        qq = _vertex_major(vlw, axes)                                # (VL, m, AA)
        nrm = np.sqrt(np.sum(axes * axes, axis=-2))
        slack = SAT_TOL * nrm
        sep = ((qq.min(axis=0) > pp.max(axis=0) + slack)
               | (qq.max(axis=0) < pp.min(axis=0) - slack)) & (nrm > 1e-12)
        return np.any(sep, axis=-1)


def _vertex_major(v: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """The projections v @ axes, (m, V, A) for v (m, V, 3) or (V, 3), stored
    vertex-major as (V, m, A), so that the extremes over the vertices run
    over whole (m, A) rows rather than A values at a time."""
    lead = np.broadcast_shapes(v.shape[:-2], axes.shape[:-2])
    out = np.empty((v.shape[-2],) + lead + (axes.shape[-1],))
    np.matmul(v, axes, out=np.moveaxis(out, 0, -2))
    return out


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
