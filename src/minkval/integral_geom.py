"""Monte-Carlo integral geometry: Crofton and kinematic formulas for
intrinsic volumes and the Crofton formula for Minkowski valuations.

Affine planes of codimension i are sampled as a rotation-invariant direction
plus an offset uniform in the i-ball of radius R in the orthogonal
complement; the estimator weight C(n, n-i) kappa_n / kappa_(n-i) * R^i is
the invariant measure of the sampling window, normalized so that the planes
meeting the unit ball have measure C(n, d) kappa_n / kappa_d (d the plane
dimension).  Rigid motions combine a uniform rotation (probability law) with
a translation uniform in a cube that covers all contact positions.

Every estimator runs through one shard loop, `run_shards`: shard k draws its
random numbers (`variates`) from the k-th spawned seed sequence, in chunks
of bounded memory that may span several shards; each chunk's variates are
transformed into flats or motions at once (`draw`, elementwise, so the
samples do not depend on the chunking), a kernel evaluates them, and the
per-shard means are reduced in fixed order; the standard error comes from
the per-shard spread.  Results are deterministic in (seed, shards).  Sections
come from batched kernels: plane sections and line chords of a fixed body
(`PlaneSections`, `LineSections`), the intersections of a body with moved
copies of another from the edges of the intersection, clipped out of the
stacked facet inequalities (`MotionIntersections`), and the hit test of the
kinematic formula from separating axes.  Only the valuation-valued check
builds a lattice per sample, from the points these kernels give.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .constants import crofton_q, flag, kappa
from .convex import (
    CHUNK_BYTES,
    Polytope,
    area_measure,
    _distinct_axes,
    _gauss01,
    intrinsic_volumes,
)
from .harmonics import legendre_rows
from .zonal import DEFAULT_KMAX, ZonalObject, box_j_apply, box_n_apply, builtin_zonal

__all__ = [
    "EstimateReport",
    "PlaneSampler",
    "MotionSampler",
    "PlaneSections",
    "LineSections",
    "MotionIntersections",
    "run_shards",
    "crofton_intrinsic",
    "crofton_target",
    "kinematic_check",
    "kinematic_target",
    "kinematic_minkowski_check",
    "hadwiger_check",
    "crofton_minkowski",
    "crofton_minkowski_rhs",
]

DEFAULT_SHARDS = 20
HALF_CIRCLE_NODES = 20  # Gauss-Legendre nodes per half circle of PlaneSections
PARALLEL_TOL = 1e-12    # |u . n| up to which _clip_lines takes a line as parallel
SAT_TOL = 1e-12         # slack of the separating-axis test, per unit axis length


@dataclass
class EstimateReport:
    """One Monte-Carlo estimate with its per-shard standard error and the
    analytic target it is checked against."""

    estimate: float
    stderr: float
    target: float
    n_samples: int
    seed: int
    wall_time_s: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def z(self) -> float:
        if self.stderr == 0.0:
            return 0.0 if self.estimate == self.target else math.inf
        return (self.estimate - self.target) / self.stderr

    def within(self, sigmas: float = 3.0, slack: float = 0.0) -> bool:
        return bool(abs(self.estimate - self.target) <= sigmas * self.stderr + slack)

    def to_json(self) -> dict:
        return {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "target": self.target,
            "z": self.z if math.isfinite(self.z) else None,   # JSON has no inf
            "N": self.n_samples,
            "seed": self.seed,
            "wall_time_s": self.wall_time_s,
            **self.extra,
        }


@dataclass(frozen=True)
class PlaneSampler:
    """Plane sampling law: codimension, enclosing radius, seed, count."""

    n: int
    codim: int
    radius: float
    seed: int
    n_samples: int
    shards: int = DEFAULT_SHARDS

    @property
    def weight(self) -> float:
        """Invariant measure of the sampled window of planes."""
        return (math.comb(self.n, self.codim)
                * kappa(self.n) / kappa(self.n - self.codim)
                * self.radius ** self.codim)

    def variates(self, rng: np.random.Generator, m: int) -> tuple[np.ndarray, ...]:
        """The random numbers of m flats, in the generator's call order:
        normal directions (m, 3), then the uniform offsets (codim 1), radii
        (codim 2, 3) and angles (codim 2)."""
        g = rng.standard_normal((m, 3))
        if self.codim == 1:
            return g, rng.uniform(-self.radius, self.radius, m)
        if self.codim == 3:
            return g, rng.uniform(0.0, 1.0, m)
        return g, rng.uniform(0.0, 1.0, m), rng.uniform(0.0, 2.0 * math.pi, m)

    def draw(self, g: np.ndarray, *rest: np.ndarray) -> tuple[np.ndarray, ...]:
        """Flats from their variates: (normals a, offsets s) of planes
        {x . a = s}, (directions, points) of lines, or (points,).  Points
        overwrite their variates, so that a chunk holds one copy."""
        R = self.radius
        if self.codim == 3:
            u, = rest
            g /= np.linalg.norm(g, axis=-1, keepdims=True)
            np.power(u, 1.0 / 3.0, out=u)
            u *= R
            g *= u[:, None]
            return (g,)
        dirs = _unit_rows(g)
        if self.codim == 1:
            return dirs, rest[0]
        # uniform offsets in the disc of radius R orthogonal to the line
        u, ang = rest
        aux = np.where(np.abs(dirs[:, :1]) < 0.9, [1.0, 0, 0], [0, 1.0, 0])
        e1 = _unit_rows(np.cross(dirs, aux))
        e2 = np.cross(dirs, e1)
        rad = R * np.sqrt(u)
        return dirs, rad[:, None] * (np.cos(ang)[:, None] * e1 + np.sin(ang)[:, None] * e2)


@dataclass(frozen=True)
class MotionSampler:
    """Rigid-motion law: uniform rotations (probability) and translations
    uniform in the centered cube of side `window`; weight = window^n."""

    n: int
    window: float
    seed: int
    n_samples: int
    shards: int = DEFAULT_SHARDS

    @property
    def weight(self) -> float:
        return self.window ** self.n

    def variates(self, rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The random numbers of m motions: normal quaternions (m, 4), then
        the translations (m, 3)."""
        return (rng.standard_normal((m, 4)),
                rng.uniform(-self.window / 2.0, self.window / 2.0, (m, 3)))

    def draw(self, q: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Motions x -> R x + t from their variates: rotations (m, 3, 3),
        translations (m, 3)."""
        return _rotations_from_quaternions(_unit_rows(q)), t


def _shard_rngs(seed: int, shards: int):
    # child k of SeedSequence(seed).spawn(shards), built only when drawn
    return (np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
            for k in range(shards))


def _shard_sizes(n_samples: int, shards: int) -> list[int]:
    base = n_samples // shards
    sizes = [base] * shards
    for k in range(n_samples - base * shards):
        sizes[k] += 1
    return sizes


def _reduce_shards(shard_means: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    est = shard_means.mean(axis=0)
    se = shard_means.std(axis=0, ddof=1) / math.sqrt(shard_means.shape[0])
    return est, se


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _rotations_from_quaternions(q: np.ndarray) -> np.ndarray:
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


def run_shards(sampler, kernel, sample_bytes: int) -> tuple[np.ndarray, np.ndarray]:
    """Estimate of sampler.weight * E[kernel(sample)]: the mean of the
    per-shard means, with its standard error.  Shard k takes its variates
    (`sampler.variates`) from the k-th spawned seed sequence; a chunk of
    whole shards (or of one large shard) is transformed into samples at once
    (`sampler.draw`), and `kernel(*draws)` maps it to values (m,) or
    (m, width).  A chunk holds at most CHUNK_BYTES / sample_bytes samples,
    sample_bytes being the kernel's temporary memory per sample."""
    if sampler.shards < 2 or sampler.n_samples < 2 * sampler.shards:
        raise ValueError(f"need shards >= 2 and n_samples >= 2 * shards; got "
                         f"n_samples={sampler.n_samples}, shards={sampler.shards}")
    sizes = _shard_sizes(sampler.n_samples, sampler.shards)
    chunk = max(1, CHUNK_BYTES // sample_bytes)
    sums, parts, first, count = None, [], 0, 0
    for k, rng in enumerate(_shard_rngs(sampler.seed, sampler.shards)):
        parts.append(sampler.variates(rng, sizes[k]))
        count += sizes[k]
        if k + 1 < len(sizes) and count + sizes[k + 1] <= chunk:
            continue
        # each array goes as soon as it is used, to bound the peak memory:
        # the per-shard variates before the transform, the chunk's variates
        # before the kernel, and its samples before the next chunk
        variates = parts[0] if len(parts) == 1 else [np.concatenate(a) for a in zip(*parts)]
        parts = []
        draws = sampler.draw(*variates)
        del variates
        starts = np.cumsum([0] + sizes[first:k])   # shards first..k within the chunk
        for lo in range(0, count, chunk):  # several pieces only for one large shard
            vals = np.asarray(kernel(*(d[lo:lo + chunk] for d in draws)), dtype=float)
            if sums is None:
                sums = np.zeros((sampler.shards,) + vals.shape[1:])
            sums[first:k + 1] += np.add.reduceat(vals, starts, axis=0)
        del draws, vals
        first, count = k + 1, 0
    sizes = np.array(sizes, dtype=float).reshape((-1,) + (1,) * (sums.ndim - 1))
    return _reduce_shards(sampler.weight * (sums / sizes))


def _clip_lines(den: np.ndarray, num: np.ndarray, lo,
                hi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clip lines p + s u, s in [lo, hi], by constraints n . x <= b given
    along the last axis as den = u . n and num = b - p . n.  Returns the
    clipped [lo, hi] and whether it is non-empty; a constraint parallel to
    the line (|den| <= PARALLEL_TOL) empties it when p violates it."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = num / den
    hi = np.minimum(hi, np.where(den > PARALLEL_TOL, ratio, math.inf).min(axis=-1))
    lo = np.maximum(lo, np.where(den < -PARALLEL_TOL, ratio, -math.inf).max(axis=-1))
    feasible = ~np.any((np.abs(den) <= PARALLEL_TOL) & (num < -PARALLEL_TOL), axis=-1)
    return lo, hi, feasible & (hi >= lo)


def _hull_kernel(phi, points):
    """Kernel of phi of the hull of each sample's points, which
    `points(*draws)` gives as sample index (K,) and point (K, 3); 0 for a
    sample without points.  One lattice per sample that has points."""
    def kernel(*draws):
        rows, pts = points(*draws)
        order = np.argsort(rows, kind="stable")
        hit, first = np.unique(rows[order], return_index=True)
        vals = np.zeros(len(draws[0]))
        for t, group in zip(hit, np.split(pts[order], first[1:])):
            vals[t] = phi(Polytope.from_vertices(group))
        return vals
    return kernel


# -- plane sections of a fixed body -----------------------------------------

class PlaneSections:
    """Sections of a full-dimensional polytope by planes {x . a = s}, facet
    by facet, with no ordering of the section polygon.  A plane cuts facet F
    in at most one segment between crossing points p_e of its edges.  With
    the signed incidence B (+1 where the ccw cycle of F runs along edge
    e = (i, j) from i to j, else -1) and crossing signs c_e in {-1, 0, +1},
    the segment is v_F = sum_e B_eF c_e p_e, its midpoint
    1/2 sum_e |B_eF c_e| p_e and its outward normal in the plane
    m_F = unit(n_F - (n_F . a) a); the divergence theorem in the plane gives
    perimeter, area and S_1 (Schneider, Convex Bodies, 2nd ed. 2014, ch. 4).
    The crossing points p_e themselves span the section (`crossings`).
    Points are taken about the vertex centroid; S_1 moments integrate each
    half circle by Gauss-Legendre on HALF_CIRCLE_NODES points."""

    def __init__(self, P: Polytope):
        self.vertices, self.normals = P.vertices, P.facet_normals
        s, wts = _gauss01(HALF_CIRCLE_NODES)
        self.arc_cos, self.arc_sin = np.cos(math.pi * s), np.sin(math.pi * s)
        self.arc_weights = math.pi * wts
        ij = np.array([(i, j) for i, j, _, _ in P.edges])
        self.vi, self.vj = ij[:, 0], ij[:, 1]
        self.centre = P.vertices.mean(axis=0)
        self.local = local = P.vertices - self.centre
        self.start, self.step = local[self.vi].T, (local[self.vj] - local[self.vi]).T
        index = {(i, j): e for e, (i, j) in enumerate(ij.tolist())}
        B = np.zeros((len(ij), len(P.facet_cycles)))
        for f, cyc in enumerate(P.facet_cycles):
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if (a, b) in index:
                    B[index[a, b], f] = 1.0
                else:
                    B[index[b, a], f] = -1.0
        self.incidence, self.touches = B, np.abs(B)
        # the (m, V), (m, E), (m, 3, E) and (m, 3, F) temporaries of segments()
        self.sample_bytes = 8 * (2 * len(P.vertices) + 12 * len(ij) + 12 * B.shape[1])

    def _cross(self, a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Crossing signs c_e (m, E) of the edges by the planes {x . a[t] = s[t]}
        and crossing points p_e (m, 3, E), used where c_e != 0, all about the centroid."""
        d = a @ self.local.T - (s - a @ self.centre)[:, None]   # (m, V)
        above = d > 1e-12
        c = above[:, self.vi].astype(float) - above[:, self.vj]
        di, dj = d[:, self.vi], d[:, self.vj]
        lam = np.divide(di, di - dj, out=np.zeros_like(di), where=c != 0)
        return c, self.start + np.clip(lam, 0.0, 1.0)[:, None, :] * self.step

    def crossings(self, a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The points where the planes {x . a[t] = s[t]} cross the edges:
        plane index t (K,) and world point (K, 3), grouped by plane."""
        c, p = self._cross(a, s)
        rows, e = np.nonzero(c)
        return rows, p[rows, :, e] + self.centre

    def segments(self, a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Facet segments v_F and their midpoints, (m, 3, F) each, of the
        sections by the planes {x . a[t] = s[t]}."""
        m = a.shape[0]
        c, p = self._cross(a, s)
        c = c[:, None, :]
        v = ((c * p).reshape(3 * m, -1) @ self.incidence).reshape(m, 3, -1)
        mid = 0.5 * ((np.abs(c) * p).reshape(3 * m, -1) @ self.touches).reshape(m, 3, -1)
        return v, mid

    def volumes(self, a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Intrinsic volumes V_1 (half the perimeter) and V_2 (the area) of
        each section, 0 where the plane misses the body."""
        v, mid = self.segments(a, s)
        twice_area = np.einsum("mi,mif->m", a, np.cross(mid, v, axis=1))
        return np.linalg.norm(v, axis=1).sum(axis=1) / 2.0, 0.5 * np.abs(twice_area)

    def s1_moments(self, a: np.ndarray, s: np.ndarray, w: np.ndarray,
                   kmax: int) -> np.ndarray:
        """Moments int P_k(u . w) dS_1(u), k <= kmax, of each section (m, kmax+1):
        S_1 has one half circle a -> m_F -> -a of density |v_F| / 2 per
        crossed facet."""
        length = np.linalg.norm(self.segments(a, s)[0], axis=1)   # (m, F)
        rows, cols = np.nonzero(length > 0.0)
        nf, ar = self.normals[cols], a[rows]
        m_f = _unit_rows(nf - np.sum(nf * ar, axis=1)[:, None] * ar)
        out = np.zeros((a.shape[0], kmax + 1))
        # per half circle: its cosines, two Legendre rows, temporaries, moments
        per_call = max(1, CHUNK_BYTES // (8 * (6 * self.arc_cos.size + kmax + 1)))
        for lo in range(0, rows.size, per_call):
            part = slice(lo, lo + per_call)
            # points u(theta) = cos(theta) a + sin(theta) m_F
            dots = (self.arc_cos[None, :] * (ar[part] @ w)[:, None]
                    + self.arc_sin[None, :] * (m_f[part] @ w)[:, None])
            arc = np.array([pk @ self.arc_weights
                            for pk in legendre_rows(3, kmax, np.clip(dots, -1, 1))])
            np.add.at(out, rows[part], (arc * (0.5 * length[rows[part], cols[part]])).T)
        return out


class LineSections:
    """Chords of a full-dimensional polytope by lines p + s u, from its facets."""

    def __init__(self, P: Polytope):
        A, self.b = P.inequalities()
        self.AT = np.ascontiguousarray(A.T)   # (3, F): faster products than the view
        self.sample_bytes = 8 * (8 * len(self.b) + 16)   # the (m, F) arrays of _clip_lines

    def chords(self, u: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Clipped [lo, hi] of each line, and whether it meets the body."""
        return _clip_lines(u @ self.AT, self.b[None, :] - p @ self.AT, -math.inf, math.inf)

    def ends(self, u: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ends of the chords: line index (K,) and world point (K, 3)."""
        lo, hi, hit = self.chords(u, p)
        t = np.flatnonzero(hit)
        return (np.concatenate([t, t]),
                np.concatenate([p[t] + lo[t, None] * u[t], p[t] + hi[t, None] * u[t]]))


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
        fp, fl = len(self.P.normals), len(self.L.normals)
        ep, el = len(self.P.length), len(self.L.length)
        d = self.P.neighbours.shape[1] + self.L.neighbours.shape[1]
        # per motion whose bounding spheres meet, when every facet pair is a
        # candidate: world copies of L, the (m, E, F) edge clips, the
        # (m, F, F) pair tests and the (K, D) facet-pair clips
        self.piece = max(1, CHUNK_BYTES // (8 * (7 * fl + 6 * el + 8 * (ep * fl + el * fp)
                                                 + fp * fl * (9 * d + 28))))
        # per motion: the draws, the sphere test, and the arrays over the at
        # most 3 (F_P + F_L) edges of P n gL in segments() and volumes()
        self.sample_bytes = 96 + 8 * (16 + 34 * 3 * (fp + fl))

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
                                  0.0, P.length)
        t, e = np.nonzero(hit & (hi > lo))
        parts.append((t, (hi - lo)[t, e], P.start[e] + 0.5 * (lo + hi)[t, e, None] * P.unit[e],
                      P.unit[e], P.normals[P.facets[e, 0]], P.normals[P.facets[e, 1]]))
        # edges of g L clipped by the facets of P
        start = np.einsum("mij,ej->mei", R, L.start) + g[:, None, :]
        unit = np.einsum("mij,ej->mei", R, L.unit)
        lo, hi, hit = _clip_lines(unit @ P.normals.T, P.heights - start @ P.normals.T,
                                  0.0, L.length)
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
                                  ch - np.einsum("kci,ki->kc", cn, y), -math.inf, math.inf)
        ok = hit & (hi > lo)
        parts.append((t[ok], (hi - lo)[ok], y[ok] + 0.5 * (lo + hi)[ok, None] * u[ok],
                      u[ok], n[ok], NG[ok]))
        return parts

    def volumes(self, R: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Intrinsic volumes V_0..V_3 (m, 4) of P n (R[t] L + x[t]), 0 where
        the bodies miss."""
        m = R.shape[0]
        rows, length, mid, _, nk, nl = self.segments(R, x)
        cos = np.einsum("ki,ki->k", nk, nl)
        sin = np.linalg.norm(np.cross(nk, nl), axis=1)
        # facet areas: the segment's share of the facets on plane k and on l
        ak = 0.5 * length * np.einsum("ki,ki->k", nl - cos[:, None] * nk, mid) / sin
        al = 0.5 * length * np.einsum("ki,ki->k", nk - cos[:, None] * nl, mid) / sin
        hk, hl = np.einsum("ki,ki->k", nk, mid), np.einsum("ki,ki->k", nl, mid)
        out = np.zeros((m, 4))
        out[:, 0] = np.bincount(rows, minlength=m) > 0
        out[:, 1] = np.bincount(rows, length * np.arctan2(sin, cos), m) / (2.0 * math.pi)
        out[:, 2] = np.bincount(rows, 0.5 * (ak + al), m)
        out[:, 3] = np.bincount(rows, (ak * hk + al * hl) / 3.0, m)
        return out


def crofton_target(P: Polytope, i: int, j: int) -> float:
    """Analytic value [i+j; j] V_(i+j)(P) of the Crofton integral."""
    return flag(i + j, j) * intrinsic_volumes(P)[i + j]


def crofton_intrinsic(P: Polytope, i: int, j: int, n_samples: int, seed: int,
                      shards: int = DEFAULT_SHARDS) -> EstimateReport:
    """Monte-Carlo estimate of the integral of V_j over the codimension-i
    planes meeting P, against the target [i+j; j] V_(i+j)(P)."""
    n = 3
    if not (0 <= j and 1 <= i and i + j <= n):
        raise ValueError(f"need i >= 1, j >= 0, i + j <= {n}; got i={i}, j={j}")
    if P.dim != 3:
        raise ValueError("crofton sampling expects a full-dimensional body")
    R = P.enclosing_radius * (1.0 + 1e-12)
    sampler = PlaneSampler(n=n, codim=i, radius=R, seed=seed,
                           n_samples=n_samples, shards=shards)
    t0 = time.perf_counter()
    if i == 1 and j == 0:
        def kernel(dirs, offs):
            proj = P.vertices @ dirs.T
            return (proj.min(axis=0) <= offs) & (offs <= proj.max(axis=0))
        sample_bytes = 8 * (len(P.vertices) + 8)
    elif i == 1:
        sections = PlaneSections(P)

        def kernel(dirs, offs):
            return sections.volumes(dirs, offs)[j - 1]
        sample_bytes = sections.sample_bytes
    elif i == 2:
        lines = LineSections(P)

        def kernel(dirs, p):
            lo, hi, hit = lines.chords(dirs, p)
            return hit if j == 0 else np.where(hit, np.clip(hi - lo, 0.0, None), 0.0)
        sample_bytes = lines.sample_bytes
    else:  # i == 3: points
        A, b = P.inequalities()
        AT, bound = np.ascontiguousarray(A.T), b + 1e-12

        def kernel(x):
            return np.all(x @ AT <= bound, axis=1)
        sample_bytes = 9 * len(b) + 80
    est, se = run_shards(sampler, kernel, sample_bytes)
    return EstimateReport(
        estimate=float(est), stderr=float(se), target=crofton_target(P, i, j),
        n_samples=n_samples, seed=seed, wall_time_s=time.perf_counter() - t0,
        extra={"i": i, "j": j, "radius": R, "weight": sampler.weight,
               "shards": shards})


# -- kinematic formula --------------------------------------------------------

def kinematic_target(P: Polytope, L: Polytope, j: int) -> float:
    """Right side of the principal kinematic formula:
    sum_i [i+j; j] [n; i]^(-1) V_(i+j)(P) V_(n-i)(L)."""
    n = 3
    vp, vl = intrinsic_volumes(P), intrinsic_volumes(L)
    return float(sum(flag(i + j, j) / flag(n, i) * vp[i + j] * vl[n - i]
                     for i in range(0, n - j + 1)))


class _SeparatingAxes:
    """Exact separating-axis test of P against moved copies R L + x.  The
    axes are tried in three stages, each only on the motions that no earlier
    stage separated: the facet normals of P (P projected once), the rotated
    facet normals of L, and the cross products of edge directions."""

    def __init__(self, P: Polytope, L: Polytope):
        self.vp, self.vl = P.vertices, L.vertices
        self.axesP, self.axesL = _distinct_axes(P.facet_normals), _distinct_axes(L.facet_normals)
        self.dirsP, self.dirsL = P.edge_directions(), L.edge_directions()
        pp = self.vp @ self.axesP.T                            # (VP, A)
        self.plo, self.phi = pp.min(axis=0), pp.max(axis=0)
        self.cross_axes = len(self.dirsP) * len(self.dirsL)
        # the (m, axes, vertices) projections of the last stage dominate
        axes = len(self.axesP) + len(self.axesL) + self.cross_axes
        self.sample_bytes = 8 * axes * (len(self.vp) + len(self.vl) + 12)

    def hits(self, R: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Does P meet R[t] L + x[t], per motion t."""
        vlw = np.einsum("mij,vj->mvi", R, self.vl) + x[:, None, :]     # (m, VL, 3)
        ql = np.einsum("ai,mvi->mav", self.axesP, vlw)                  # (m, A, VL)
        hit = ~np.any((ql.min(axis=2) > self.phi[None, :] + SAT_TOL)
                      | (ql.max(axis=2) < self.plo[None, :] - SAT_TOL), axis=1)
        live = np.flatnonzero(hit)
        axL = np.einsum("mij,aj->mai", R[live], self.axesL)            # (m', AL, 3)
        hit[live] = ~self._separated(axL, vlw[live])
        live = live[hit[live]]
        crs = np.cross(self.dirsP[None, :, None, :],
                       np.einsum("mij,ej->mei", R[live], self.dirsL)[:, None, :, :])
        hit[live] = ~self._separated(crs.reshape(live.size, self.cross_axes, 3), vlw[live])
        return hit

    def _separated(self, axes: np.ndarray, vlw: np.ndarray) -> np.ndarray:
        """Does one of the axes (m, AA, 3) separate P from the moved vertices."""
        pp = np.einsum("mai,vi->mav", axes, self.vp)                    # (m, AA, VP)
        qq = np.einsum("mai,mvi->mav", axes, vlw)                       # (m, AA, VL)
        nrm = np.linalg.norm(axes, axis=2)
        sep = ((qq.min(axis=2) > pp.max(axis=2) + SAT_TOL * nrm)
               | (qq.max(axis=2) < pp.min(axis=2) - SAT_TOL * nrm)) & (nrm > 1e-12)
        return np.any(sep, axis=1)


def kinematic_check(P: Polytope, L: Polytope, j: int, n_samples: int, seed: int,
                    shards: int = DEFAULT_SHARDS,
                    window: float | None = None) -> EstimateReport:
    """Monte-Carlo check of the principal kinematic formula: average of
    V_j(P n gL) over rigid motions g against the bilinear target.

    j = 0 runs a vectorized exact separating-axis test; j >= 1 reads V_j of
    the intersection from its edges (`MotionIntersections`), with no hull
    per motion."""
    n = 3
    if not 0 <= j <= n:
        raise ValueError(f"need 0 <= j <= {n}")
    if P.dim != 3 or L.dim != 3:
        raise ValueError("kinematic sampling expects full-dimensional bodies")
    safe = 2.0 * (P.enclosing_radius + L.enclosing_radius)
    W = window if window is not None else safe
    sampler = MotionSampler(n=n, window=W, seed=seed, n_samples=n_samples, shards=shards)
    t0 = time.perf_counter()
    boundary_hits = 0
    if j == 0:
        test = _SeparatingAxes(P, L)
        sample_bytes = test.sample_bytes
    else:
        inter = MotionIntersections(P, L)
        sample_bytes = inter.sample_bytes

    def kernel(R, x):
        nonlocal boundary_hits
        if j == 0:
            hits = test.hits(R, x)
            vals = hits.astype(float)
        else:
            vols = inter.volumes(R, x)
            hits, vals = vols[:, 0] > 0, vols[:, j]
        shell = np.max(np.abs(x), axis=1) >= 0.98 * (W / 2.0)
        boundary_hits += int(np.count_nonzero(hits & shell))
        return vals

    est, se = run_shards(sampler, kernel, sample_bytes)
    if W < safe * (1.0 - 1e-12) and boundary_hits > 0:
        raise ValueError(
            f"translation window {W:.4g} too small for the contact set "
            f"(needs {safe:.4g}): {boundary_hits} boundary hits")
    return EstimateReport(
        estimate=float(est), stderr=float(se), target=kinematic_target(P, L, j),
        n_samples=n_samples, seed=seed, wall_time_s=time.perf_counter() - t0,
        extra={"j": j, "window": W, "weight": sampler.weight, "shards": shards,
               "boundary_hits": boundary_hits})


def hadwiger_check(P: Polytope, L: Polytope, j: int, n_samples: int, seed: int,
                   shards: int = DEFAULT_SHARDS) -> dict:
    """Consistency of the kinematic integral with its Hadwiger decomposition
    into Crofton integrals:

        int V_j(P n gL) dg = sum_i V_(n-i)(L) [n; i]^(-1)
                             int V_j(P n E) dsigma_(n-i)(E).

    Both sides are estimated by Monte Carlo (the i = 0 term is exact); the
    report carries the combined standard error."""
    n = 3
    lhs = kinematic_check(P, L, j, n_samples, seed, shards=shards)
    vp, vl = intrinsic_volumes(P), intrinsic_volumes(L)
    rhs = vl[n] * vp[j]  # i = 0: the whole space
    rhs_var = 0.0
    terms = [{"i": 0, "estimate": vp[j], "stderr": 0.0, "coef": vl[n]}]
    for i in range(1, n - j + 1):
        rep = crofton_intrinsic(P, i, j, n_samples, seed + i, shards=shards)
        coef = vl[n - i] / flag(n, i)
        rhs += coef * rep.estimate
        rhs_var += (coef * rep.stderr) ** 2
        terms.append({"i": i, "estimate": rep.estimate, "stderr": rep.stderr,
                      "coef": coef})
    combined = math.sqrt(lhs.stderr ** 2 + rhs_var)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "rhs_stderr": math.sqrt(rhs_var),
        "combined_stderr": combined,
        "difference": lhs.estimate - rhs,
        "consistent_3sigma": abs(lhs.estimate - rhs) <= 3.0 * combined,
        "terms": terms,
        "target": lhs.target,
    }


def kinematic_minkowski_check(spec, P: Polytope, L: Polytope, direction,
                              n_samples: int, seed: int,
                              shards: int = DEFAULT_SHARDS) -> dict:
    """Kinematic formula for a Minkowski valuation at a fixed direction u:
    the motion average of h(Phi(P n gL))(u) against its Hadwiger
    decomposition into Crofton integrals,

        int h(P n gL) dg = sum_i V_(n-i)(L) [n; i]^(-1)
                           int h(P n E) dsigma_(n-i)(E),

    with the i = 0 (whole space) and i = n (points, only the constant piece
    of the valuation survives) terms exact and the plane/line terms
    estimated by Monte Carlo.  Both sides carry standard errors; the report
    states their 3-sigma consistency.  Each sample that meets P builds one
    lattice (`_hull_kernel`) from points of a batched kernel: the edge ends
    of P n gL, the edge crossings of a plane or the ends of a chord
    (`MotionIntersections.ends`, `PlaneSections.crossings`, `LineSections.ends`)."""
    from .valuation import evaluate  # deferred: valuation builds on this module's siblings

    n = 3
    if P.dim != 3 or L.dim != 3:
        raise ValueError("kinematic sampling expects full-dimensional bodies")
    u = np.asarray(direction, dtype=float)
    u = (u / np.linalg.norm(u))[None, :]

    def phi(body) -> float:
        return float(evaluate(spec, body, u).values[0])

    t0 = time.perf_counter()
    inter, planes, lines = MotionIntersections(P, L), PlaneSections(P), LineSections(P)
    W = 2.0 * (P.enclosing_radius + L.enclosing_radius)
    sampler = MotionSampler(n=n, window=W, seed=seed, n_samples=n_samples, shards=shards)
    lhs, lhs_se = run_shards(sampler, _hull_kernel(phi, inter.ends), inter.sample_bytes)

    vl = intrinsic_volumes(L)
    rhs = vl[n] * phi(P)                       # i = 0
    rhs += vl[0] * spec.c0 * intrinsic_volumes(P)[n]  # i = n: points keep c0
    rhs_var = 0.0
    R_enc = P.enclosing_radius * (1.0 + 1e-12)
    for i, sections, points in ((1, planes, planes.crossings), (2, lines, lines.ends)):
        sampler = PlaneSampler(n=n, codim=i, radius=R_enc, seed=seed + i,
                               n_samples=n_samples, shards=shards)
        est_i, se_i = run_shards(sampler, _hull_kernel(phi, points), sections.sample_bytes)
        coef = vl[n - i] / flag(n, i)
        rhs += coef * float(est_i)
        rhs_var += (coef * float(se_i)) ** 2
    combined = math.sqrt(lhs_se ** 2 + rhs_var)
    return {
        "direction": list(map(float, u[0])),
        "lhs": float(lhs),
        "lhs_stderr": float(lhs_se),
        "rhs": float(rhs),
        "rhs_stderr": math.sqrt(rhs_var),
        "combined_stderr": combined,
        "difference": float(lhs) - rhs,
        "consistent_3sigma": bool(abs(float(lhs) - rhs) <= 3.0 * combined),
        "N": n_samples,
        "seed": seed,
        "window": W,
        "wall_time_s": time.perf_counter() - t0,
    }


# -- Crofton formula for Minkowski valuations ---------------------------------

def crofton_minkowski_rhs(n: int, i: int, j: int, mu: ZonalObject,
                          kmax: int = DEFAULT_KMAX) -> ZonalObject:
    """Multiplier-level right side of the Crofton formula for a degree-j
    datum mu and codimension i: q_(n,i,j) * (mu * box_(n-j+1) berg_(n-i-j+1)),
    returned as a zonal object with propagated Berg truncation bars."""
    if i == 0:
        # formal case: the box/Berg pair collapses to the centered identity
        return mu.centered()
    kmax = min(kmax, mu.kmax)
    jj = n - i - j + 1
    bb = n - j + 1
    g = builtin_zonal(f"berg:{jj}", n=n, kmax=kmax)
    boxed = box_n_apply(g) if bb == n else box_j_apply(g, bb)
    q = crofton_q(n, i, j)
    mult = q * mu.multipliers[:kmax + 1] * boxed.multipliers[:kmax + 1]
    err = None
    if boxed.mult_error is not None:
        err = q * np.abs(mu.multipliers[:kmax + 1]) * boxed.mult_error[:kmax + 1]
    return ZonalObject(n, kmax=kmax, multipliers=mult, mult_error=err)


def crofton_minkowski(P: Polytope, mu: ZonalObject, i: int, j: int,
                      n_samples: int, seed: int, degrees=(0, 2, 3, 4),
                      probe=(0.36, -0.48, 0.8),
                      shards: int = DEFAULT_SHARDS, kmax: int = DEFAULT_KMAX) -> dict:
    """Per-harmonic-degree Monte-Carlo check of the Crofton formula for the
    degree-j valuation generated by the zonal measure mu, at codimension i
    (geometric path: n = 3, i = j = 1).

    Both sides are compared through their zonal transfer coefficients
    M_k(w) = int P_k(u . w) d(.)(u) at the probe direction w: the left side
    averages the moments of S_(j+i wedge ...)(P n E) * mu over planes E, the
    right side is q_(n,i,j) a_k[mu] a_k[box berg] M_k[S_(i+j)(P)](w).  Rows
    report lhs, stderr, rhs, and the Berg truncation bar."""
    n = 3
    if (i, j) != (1, 1):
        raise ValueError("the geometric Monte-Carlo path is implemented for "
                         "i = j = 1 (use crofton_minkowski_rhs for the "
                         "multiplier-level right side)")
    if P.dim != 3:
        raise ValueError("need a full-dimensional body")
    degrees = list(degrees)
    kk = max(degrees)
    if min(degrees) < 0 or kk > min(kmax, mu.kmax):
        raise ValueError(f"degrees must lie in [0, {min(kmax, mu.kmax)}], got {degrees}")
    w = np.asarray(probe, dtype=float)
    w = w / np.linalg.norm(w)
    R = P.enclosing_radius * (1.0 + 1e-12)
    sampler = PlaneSampler(n=n, codim=i, radius=R, seed=seed,
                           n_samples=n_samples, shards=shards)
    t0 = time.perf_counter()
    sections = PlaneSections(P)
    est, se = run_shards(sampler, lambda a, s: sections.s1_moments(a, s, w, kk),
                         sections.sample_bytes + 8 * (kk + 1))
    # moments of S_1(Q) * mu pick up the Funk-Hecke factor of mu per degree
    a_mu = mu.multipliers[:kk + 1]
    est = est * a_mu
    se = se * np.abs(a_mu)
    # right side: multipliers against the moments of S_(i+j)(P)
    rhs_obj = crofton_minkowski_rhs(n, i, j, mu, kmax=kmax)
    target_meas = area_measure(P, i + j)
    Mk = target_meas.zonal_moments(w[None, :], kk)[:, 0]
    rows = []
    for k in degrees:
        rhs = rhs_obj.multipliers[k] * Mk[k]
        bar = (rhs_obj.mult_error[k] * abs(Mk[k])
               if rhs_obj.mult_error is not None else 0.0)
        rows.append({
            "k": k,
            "lhs": float(est[k]),
            "stderr": float(se[k]),
            "rhs": float(rhs),
            "berg_bar": float(bar),
            "pass": bool(abs(est[k] - rhs) <= 3.0 * se[k] + bar),
        })
    return {
        "rows": rows,
        "probe": list(map(float, w)),
        "N": n_samples,
        "seed": seed,
        "weight": sampler.weight,
        "wall_time_s": time.perf_counter() - t0,
        "all_pass": all(r["pass"] for r in rows),
    }
