"""Monte-Carlo integral geometry: Crofton and kinematic formulas for
intrinsic volumes and the Crofton formula for Minkowski valuations.

Affine flats of codimension i are sampled as a rotation-invariant direction
plus an offset in the orthogonal complement.  The invariant measure is
normalized so that the flats meeting the unit ball have measure
C(n, d) kappa_n / kappa_d (d the flat dimension).  Planes (i = 1) take
their offset s uniform in the support interval [min a . v, max a . v] of
the body over its vertices v, for the normal a drawn, weighted per sample
by 2 (max - min), the measure of the planes with normal a that meet the
body: every plane meets it (conditional Monte Carlo).  Lines and points
take it uniform in the i-ball of radius R, weighted by the measure
C(n, n-i) kappa_n / kappa_(n-i) * R^i of the flats meeting that ball.
Rigid motions g L = R L + x combine a uniform rotation
(probability law) with a translation uniform in the coordinate box of
P - R L for the rotation drawn, weighted per sample by the box volume
(conditional Monte Carlo; the box holds every contact position, wherever
the bodies lie).  Both kinematic checks compare the motion integral with
one Hadwiger decomposition into Crofton integrals (`_hadwiger`): the whole
space (i = 0) and the points (i = n) give exact terms, and only the plane
and line terms on which the integrand can be nonzero run by Monte Carlo.

Every estimator runs through one shard loop, `run_shards`: shard k draws its
random numbers (`variates`) from the k-th spawned seed sequence, in chunks
of bounded memory that may span several shards; each chunk's variates are
transformed into flats or motions at once (`draw`, elementwise, so the
samples do not depend on the chunking), a kernel evaluates them, and each
shard's values are summed in fixed blocks from its start, so that the sums
do not depend on the chunking either; the standard error comes from the
per-shard spread.  Results are deterministic in (seed, shards).  The
streams are numpy's SeedSequence children; only their seeding is batched
(`_shard_rngs` hashes the seeds of SEED_BLOCK shards in one numpy pass), and
the variates are Generator.random doubles that `draw` scales to the
uniform ranges as Generator.uniform would.  Sections
come from batched kernels: plane sections of a fixed body from the edges
each plane crosses, scattered onto their facets, at a cost that grows with
the crossed edges rather than with edges times facets (`PlaneSections`),
line chords of a fixed body (`LineSections`), the intersections of a body
with moved copies of another from the edges of the intersection, clipped
out of the stacked facet inequalities (`MotionIntersections`), and the hit
test of the kinematic formula from separating axes.  No sample builds a face
lattice: the valuation-valued check takes the area measures of the sections
and intersections of a whole chunk as pieces from the same kernels and
integrates the valuation's data against them at once
(`valuation.PieceEvaluator`).
"""

from __future__ import annotations

import functools
import math
import operator
import time
from dataclasses import KW_ONLY, dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .constants import crofton_q, flag, kappa
from .convex import (
    CHUNK_BYTES,
    Polytope,
    area_measure,
    _distinct_axes,
    _gauss01,
    _plane_basis,
    intrinsic_volumes,
)
from .harmonics import legendre_rows
from .valuation import MeasurePieces, PieceEvaluator, evaluate
from .zonal import DEFAULT_KMAX, ZonalObject, box_j_apply, box_n_apply, builtin_zonal

__all__ = [
    "EstimateReport",
    "PlaneSampler",
    "MotionSampler",
    "PlaneSections",
    "LineSections",
    "MotionIntersections",
    "run_shards",
    "check_full_dimensional",
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
HALF_CIRCLE_NODES = 20  # least Gauss-Legendre nodes per half circle of PlaneSections
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
    """Law of affine flats of codimension `codim`: a uniform direction (the
    probability law) and an offset under one of two laws.

    - The ball law (`radius` given): offsets uniform in the codim-ball of
      that radius about the origin; the weight, the invariant measure of
      the flats meeting that ball, is the same for every sample.
    - The body-tight law of planes (`radius` None, `vertices` given; codim
      1 only): the offset s of the plane {x . a = s} uniform in the
      support interval [min a . v, max a . v] over the vertices v of the
      body, weighted per sample by 2 (max - min), the measure of the planes
      with normal a that meet the body (4R for the ball of radius R).
      Every plane meets the body, and none that meets it is left out, so
      the Crofton integral stays unbiased (conditional Monte Carlo, as
      for the box law of `MotionSampler`)."""

    n: int
    codim: int
    radius: float | None
    seed: int
    n_samples: int
    shards: int = DEFAULT_SHARDS
    vertices: np.ndarray | None = None   # (V, 3): the body of the tight law

    @classmethod
    def tight(cls, P: Polytope, seed: int, n_samples: int,
              shards: int = DEFAULT_SHARDS) -> "PlaneSampler":
        """The body-tight law of planes against P."""
        return cls(n=3, codim=1, radius=None, seed=seed, n_samples=n_samples,
                   shards=shards, vertices=P.vertices)

    @property
    def weighted(self) -> bool:
        """Whether `draw` ends with per-sample weights (the tight law)."""
        return self.radius is None

    @property
    def weight(self) -> float:
        """The weight common to all samples: the invariant measure of the
        flats meeting the ball, or 1 under the tight law, whose weights
        come per sample from `draw`."""
        if self.weighted:
            return 1.0
        return (math.comb(self.n, self.codim)
                * kappa(self.n) / kappa(self.n - self.codim)
                * self.radius ** self.codim)

    def variates(self, rng: np.random.Generator, m: int) -> tuple[np.ndarray, ...]:
        """The random numbers of m flats, in the generator's call order:
        normal directions (m, 3), then doubles in [0, 1) for the offsets
        (codim 1), radii (codim 2, 3) and angles (codim 2).  The stream is
        that of rng.uniform for each of them; `draw` scales them."""
        g = rng.standard_normal((m, 3))
        if self.codim == 2:
            u = rng.random((2, m))   # the radii's doubles, then the angles'
            return g, u[0], u[1]
        return g, rng.random(m)

    def draw(self, g: np.ndarray, *rest: np.ndarray) -> tuple[np.ndarray, ...]:
        """Flats from their variates: (normals a, offsets s) of planes
        {x . a = s}, with the weights (m,) under the tight law, (directions,
        points) of lines, or (points,).  Offsets, angles and points
        overwrite their variates, so that a chunk holds one copy; radii in
        [0, 1) are the variates themselves."""
        if self.weighted:
            a = _unit_rows(g)
            lo, hi = _support_interval(a, self.vertices)
            return a, _uniform(rest[0], lo, hi), 2.0 * (hi - lo)
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
            return dirs, _uniform(rest[0], -R, R)
        # uniform offsets in the disc of radius R orthogonal to the line
        u, ang = rest
        _uniform(ang, 0.0, 2.0 * math.pi)
        aux = np.where(np.abs(dirs[:, :1]) < 0.9, [1.0, 0, 0], [0, 1.0, 0])
        e1 = _unit_rows(np.cross(dirs, aux))
        e2 = np.cross(dirs, e1)
        rad = R * np.sqrt(u)
        return dirs, rad[:, None] * (np.cos(ang)[:, None] * e1 + np.sin(ang)[:, None] * e2)


@dataclass(frozen=True)
class MotionSampler:
    """Rigid-motion law of g L = R L + x against a fixed body P, the box
    law: uniform rotations R (the probability law), and x uniform in the
    coordinate box of P - R L for the rotation drawn,
    [lo_P - max_v R v, hi_P - min_v R v] over the vertices v of L, with
    [lo_P, hi_P] = `box` the coordinate box of P.  Every x at which R L + x
    meets P lies in it, so the box volume as a per-sample weight keeps the
    motion integral unbiased (conditional Monte Carlo: Asmussen & Glynn,
    Stochastic Simulation, 2007, ch. V), wherever P and L lie, and far
    fewer motions miss than in a cube about the origin."""

    # what run_shards reads: `draw` ends with per-sample weights, the box
    # volumes, and no weight is common to all samples
    weighted = True
    weight = 1.0

    n: int
    seed: int
    n_samples: int
    shards: int = DEFAULT_SHARDS
    _: KW_ONLY
    box: np.ndarray      # (2, 3): [lo_P, hi_P]
    moving: np.ndarray   # (V, 3): the vertices of L

    @classmethod
    def tight(cls, P: Polytope, L: Polytope, seed: int, n_samples: int,
              shards: int = DEFAULT_SHARDS) -> "MotionSampler":
        """The box law of motions of L against P."""
        return cls(n=3, seed=seed, n_samples=n_samples, shards=shards,
                   box=np.array([P.vertices.min(axis=0), P.vertices.max(axis=0)]),
                   moving=L.vertices)

    def variates(self, rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The random numbers of m motions: normal quaternions (m, 4), then
        doubles in [0, 1) for the translations (m, 3)."""
        return rng.standard_normal((m, 4)), rng.random((m, 3))

    def draw(self, q: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, ...]:
        """Motions x -> R x + t from their variates: rotations (m, 3, 3),
        translations (m, 3), which overwrite their variates, and the box
        volumes (m,)."""
        R = _rotations_from_quaternions(_unit_rows(q))
        proj = R @ self.moving.T                     # (m, 3, V): coordinates of R v
        lo = self.box[0] - proj.max(axis=2)
        width = self.box[1] - proj.min(axis=2)
        width -= lo
        t *= width
        t += lo
        return R, t, np.prod(width, axis=1)


def _support_interval(a: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """min and max of a . v over the points v (V, 3), per row of a (m, 3).
    The products are elementwise multiply-adds in a fixed order, not a BLAS
    product, so that they do not depend on the BLAS threads; rows run in
    blocks of at most CHUNK_BYTES of projections, because `draw` transforms
    a large shard at once."""
    lo, hi = np.empty(len(a)), np.empty(len(a))
    step = max(1, CHUNK_BYTES // (16 * len(v)))
    for i in range(0, len(a), step):
        b = a[i:i + step]
        proj = b[:, :1] * v[:, 0]
        proj += b[:, 1:2] * v[:, 1]
        proj += b[:, 2:] * v[:, 2]
        proj.min(axis=1, out=lo[i:i + step])
        proj.max(axis=1, out=hi[i:i + step])
    return lo, hi


def _uniform(u: np.ndarray, lo, hi) -> np.ndarray:
    """lo + (hi - lo) * u, in place: of the doubles u of Generator.random,
    the values that Generator.uniform(lo, hi) draws from the same stream."""
    u *= hi - lo
    u += lo
    return u


# numpy's SeedSequence hash (O'Neill's seed_seq_fe): a pool of four uint32
# words, hashmix and mix constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF
SEED_BLOCK = 128   # shards seeded per numpy pass
SUM_BLOCK = 1 << 14   # samples per block of a shard's sum (_ShardSums)


def _hashmix(value, h: int, mult: int = _MULT_A):
    """SeedSequence's hashmix of uint32 values (a Python int or a uint32
    array) under hash constant h: the hashed value and the next constant."""
    h_next = h * mult & _M32
    value = (value ^ h) * h_next & _M32
    return value ^ value >> 16, h_next


def _mix(x, y):
    """SeedSequence's mix of pool word x with hashed word y."""
    r = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return r ^ r >> 16


def _mix_in(pool: list, word, h: int) -> tuple[list, int]:
    """The pool with one more entropy word mixed into each of its words."""
    out = []
    for x in pool:
        v, h = _hashmix(word, h)
        out.append(_mix(x, v))
    return out, h


class _Words(ISeedSequence):
    """A seed sequence that hands out one precomputed state, the row
    SeedSequence.generate_state(4, np.uint64) of a shard: PCG64 seeds itself
    from it exactly as from that SeedSequence."""

    __slots__ = ("row",)

    def __init__(self, row: np.ndarray):
        self.row = row

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.row


def _shard_rngs(seed: int, shards: int):
    """The generators of shards 0..shards-1, built as they are drawn: shard k
    draws the stream of default_rng(SeedSequence(seed, spawn_key=(k,))),
    child k of SeedSequence(seed).spawn(shards).  Only its seeding is
    batched: the run entropy (the 32-bit words of seed, padded to the pool)
    is mixed once, with Python ints; then the spawn-key word k (k < 2^32)
    and the hash of the state run as uint32 arithmetic over SEED_BLOCK
    shards at a time."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"expected a non-negative seed, got {seed}")
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL - len(words))
    pool, h = [], _INIT_A
    for w in words[:_POOL]:
        v, h = _hashmix(w, h)
        pool.append(v)
    for s in range(_POOL):   # every word into every other, as SeedSequence does
        for d in range(_POOL):
            if s != d:
                v, h = _hashmix(pool[s], h)
                pool[d] = _mix(pool[d], v)
    for w in words[_POOL:]:
        pool, h = _mix_in(pool, w, h)

    def generators():
        for lo in range(0, shards, SEED_BLOCK):
            mixed, _ = _mix_in(pool, np.arange(lo, min(lo + SEED_BLOCK, shards),
                                               dtype=np.uint32), h)
            state = np.empty((len(mixed[0]), 2 * _POOL), dtype=np.uint32)
            hb = _INIT_B
            for i in range(2 * _POOL):
                state[:, i], hb = _hashmix(mixed[i % _POOL], hb, _MULT_B)
            # uint64 words from little-endian pairs, as generate_state does
            for row in state.astype("<u4").view("<u8").astype(np.uint64):
                yield np.random.Generator(np.random.PCG64(_Words(row)))
    return generators()


def _shard_sizes(n_samples: int, shards: int) -> list[int]:
    base = n_samples // shards
    sizes = [base] * shards
    for k in range(n_samples - base * shards):
        sizes[k] += 1
    return sizes


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


class _ShardSums:
    """Per-shard sums of the kernel values, in an order that depends on the
    shards only, not on the pieces the kernel runs on.  A shard's values are
    cut into blocks of SUM_BLOCK from its start; each block is summed by one
    np.add.reduceat over its values, and a shard's block sums are added in
    order.  A block that spans pieces keeps its values until it is complete
    (at most SUM_BLOCK values), never the samples.  A shard of at most
    SUM_BLOCK samples is a single block, whose sum is the plain reduceat."""

    def __init__(self, sizes: list[int]):
        ends = np.cumsum(sizes)
        # 0 and the ends of the blocks, as sample positions, and their shards
        self.cuts = np.sort(np.concatenate(
            [[0], ends] + [np.arange(e - s + SUM_BLOCK, e, SUM_BLOCK)
                           for s, e in zip(sizes, ends) if s > SUM_BLOCK]))
        self.shard = np.searchsorted(ends, self.cuts, side="left")
        self.shards, self.sums, self.pending, self.pos, self.next = len(sizes), None, [], 0, 1

    def add(self, vals: np.ndarray) -> None:
        """Take the values of the next len(vals) samples."""
        if self.sums is None:
            self.sums = np.zeros((self.shards,) + vals.shape[1:])
        lo, i0 = self.pos, self.next          # cuts[i0 - 1] <= lo < cuts[i0]
        self.pos += len(vals)
        self.next = i1 = int(self.cuts.searchsorted(self.pos, side="right"))
        if i1 == i0:                          # no block ends in these values
            self.pending.append(vals)
            return
        bounds = self.cuts[i0 - 1:i1] - lo    # the blocks ending here: starts, last end
        bounds[0] = 0
        block = np.add.reduceat(vals[:bounds[-1]], bounds[:-1], axis=0)
        if self.pending:                      # the first block began before these values
            self.pending.append(vals[:bounds[1]])
            block[0] = np.add.reduceat(np.concatenate(self.pending), [0], axis=0)[0]
        self.pending = [vals[bounds[-1]:]] if bounds[-1] < len(vals) else []
        first, last = self.shard[i0], self.shard[i1 - 1]
        if last - first == i1 - i0 - 1:       # one block per shard
            self.sums[first:last + 1] += block
        else:                                 # in order, per shard
            np.add.at(self.sums, self.shard[i0:i1], block)


def run_shards(sampler, kernel, sample_bytes: int) -> tuple[np.ndarray, np.ndarray]:
    """Estimate of sampler.weight * E[kernel(sample)] (times the per-sample
    weight of a `weighted` sampler): the mean of the per-shard means, with
    its standard error.  Shard k takes its variates (`sampler.variates`) from
    the k-th spawned seed sequence, the stream of
    SeedSequence(seed, spawn_key=(k,)), whose seeding `_shard_rngs` batches;
    a chunk of whole shards (or of one large shard) is transformed into
    samples at once (`sampler.draw`, whose last array is the per-sample
    weight of a weighted sampler), and `kernel(*draws)` maps it to values
    (m,) or (m, width).  A chunk holds at most CHUNK_BYTES / sample_bytes
    samples, sample_bytes being the kernel's temporary memory per sample;
    the sums do not depend on the chunking (`_ShardSums`)."""
    if sampler.shards < 2 or sampler.n_samples < 2 * sampler.shards:
        raise ValueError(f"need shards >= 2 and n_samples >= 2 * shards; got "
                         f"n_samples={sampler.n_samples}, shards={sampler.shards}")
    sizes = _shard_sizes(sampler.n_samples, sampler.shards)
    chunk = max(1, CHUNK_BYTES // sample_bytes)
    totals, parts, count = _ShardSums(sizes), [], 0
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
        if sampler.weighted:
            *draws, weights = draws
        for lo in range(0, count, chunk):  # several pieces only for one large shard
            vals = np.asarray(kernel(*(d[lo:lo + chunk] for d in draws)), dtype=float)
            if sampler.weighted:
                w = weights[lo:lo + chunk]
                vals = vals * w.reshape(w.shape + (1,) * (vals.ndim - 1))
            totals.add(vals)
        del draws, vals
        count = 0
    sums = totals.sums
    sizes = np.array(sizes, dtype=float).reshape((-1,) + (1,) * (sums.ndim - 1))
    means = sampler.weight * (sums / sizes)
    return means.mean(axis=0), means.std(axis=0, ddof=1) / math.sqrt(len(means))


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


# -- plane sections of a fixed body -----------------------------------------

class PlaneSections:
    """Sections of a full-dimensional polytope by planes {x . a = s}, facet
    by facet, with no ordering of the section polygon, from the edges that
    each plane crosses.  The signed distances of the vertices to the plane
    flag the edges whose ends lie on opposite sides, and only those get a
    crossing point p_e (`_crossings`).  A plane cuts facet F in at most one
    segment, between the crossing points of its crossed edges: with
    B_eF = +1 where the ccw cycle of F runs along edge e = (i, j) from i to
    j, else -1, and the crossing sign c_e = +1 where i lies above the plane,
    else -1, the segment is v_F = sum_e B_eF c_e p_e and its midpoint
    1/2 sum_e p_e, over the crossed edges e of F.  So each crossing adds
    +p_e to one facet of its edge and -p_e to the other, a scatter by plane
    and facet (`_facets`).  The facets with v_F != 0 are the crossed ones;
    with the outward normal m_F = unit(n_F - (n_F . a) a) of the segment in
    the plane, the divergence theorem in the plane gives perimeter, area
    and S_1 (Schneider, Convex Bodies, 2nd ed. 2014, ch. 4).  Points are
    taken about the vertex centroid; S_1 moments integrate each half circle
    by Gauss-Legendre (`_half_circle_rule`)."""

    def __init__(self, P: Polytope):
        self.vertices, self.normals = P.vertices, P.facet_normals
        edges = np.array(P.edges).reshape(-1, 4)
        self.vi, self.vj = edges[:, 0], edges[:, 1]
        self.centre = P.vertices.mean(axis=0)
        self.local = local = P.vertices - self.centre
        self.start = np.ascontiguousarray(local[self.vi].T)                 # (3, E)
        self.step = np.ascontiguousarray((local[self.vj] - local[self.vi]).T)
        # per edge, the facet whose ccw cycle runs along it from i to j, then
        # the other one, flat: entry 2 e + (i below) takes +p_e
        runs = {(i, j): f for f, cyc in enumerate(P.facet_cycles)
                for i, j in zip(cyc, cyc[1:] + cyc[:1])}
        self.facets = np.array([(f, g) if runs[i, j] == f else (g, f)
                                for i, j, f, g in P.edges], dtype=int).ravel()
        V, E, F = len(P.vertices), len(edges), len(P.facet_cycles)
        # the temporaries of _facets() per plane: the (m, V) distances, the
        # (m, E) distances of the ends and their flags, the (m, F) sums of the
        # scatter and the arrays of the at most F crossings and crossed facets
        # (peaks of 3.5 kB for random_hull(5, 30), 8.4 kB for a 40-gon prism
        # whose planes cross all 40 side edges, tracemalloc)
        self.sample_bytes = 8 * (V + 3 * E + 20 * F)
        # and in pieces(), per crossed facet and per section: the facets'
        # arrays, two arcs, two atoms (the arcs' nodes run in PieceEvaluator's
        # blocks)
        self.piece_bytes = 8 * (32 * F + 16)

    def _crossings(self, a: np.ndarray,
                   s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The edges that the planes {x . a[t] = s[t]} cross, by plane, then
        edge: plane index t (K,), edge e (K,), whether its end i lies above
        the plane (K,), and the crossing point about the centroid (3, K)."""
        d = a @ self.local.T - (s - a @ self.centre)[:, None]   # (m, V)
        di, dj = d[:, self.vi], d[:, self.vj]                     # (m, E)
        above = di > 1e-12
        flat = np.flatnonzero(above != (dj > 1e-12))
        rows, e = np.divmod(flat, len(self.vi))
        di, dj = di.ravel()[flat], dj.ravel()[flat]
        lam = np.clip(di / (di - dj), 0.0, 1.0)
        p = np.take(self.start, e, axis=1) + lam * np.take(self.step, e, axis=1)
        return rows, e, above.ravel()[flat], p

    def crossings(self, a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The points where the planes {x . a[t] = s[t]} cross the edges:
        plane index t (K,) and world point (K, 3), grouped by plane."""
        rows, _, _, p = self._crossings(a, s)
        return rows, p.T + self.centre

    def _facets(self, a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, ...]:
        """The facets that the planes {x . a[t] = s[t]} cross, by plane, then
        facet: plane index (K,), facet (K,) and segment length |v_F| (K,);
        and V_1 (half the perimeter) and V_2 (the area) of each section
        (m,), 0 where the plane misses the body."""
        m, nf = a.shape[0], len(self.normals)
        rows, e, above, p = self._crossings(a, s)
        # plane * F + facet of the facets that take +p_e, then of those that take -p_e
        at = np.concatenate([self.facets[2 * e + ~above], self.facets[2 * e + above]])
        at += np.tile(rows * nf, 2)
        v = [np.bincount(at, np.concatenate([x, -x]), m * nf) for x in p]
        length = np.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])   # as np.linalg.norm sums
        crossed = np.flatnonzero(length > 0.0)
        rows, facet = np.divmod(crossed, nf)
        vx, vy, vz = (x[crossed] for x in v)
        mx, my, mz = (0.5 * np.bincount(at, np.tile(x, 2), m * nf)[crossed] for x in p)
        moment = np.empty((crossed.size, 3))   # mid_F x v_F, as np.cross forms it
        moment[:, 0] = my * vz - mz * vy
        moment[:, 1] = mz * vx - mx * vz
        moment[:, 2] = mx * vy - my * vx
        area = np.bincount(rows, np.einsum("ki,ki->k", np.take(a, rows, axis=0), moment), m)
        return (rows, facet, length[crossed], length.reshape(m, nf).sum(axis=1) / 2.0,
                0.5 * np.abs(area))

    def volumes(self, a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Intrinsic volumes V_1 (half the perimeter) and V_2 (the area) of
        each section, 0 where the plane misses the body."""
        return self._facets(a, s)[3:]

    def _segment_normals(self, a: np.ndarray, rows: np.ndarray,
                         facet: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The plane normals a[rows] (K, 3) of crossed facets and the
        outward normals m_F (K, 3) of their segments in the plane."""
        nf, ar = self.normals[facet], np.take(a, rows, axis=0)
        return ar, _unit_rows(nf - np.sum(nf * ar, axis=1)[:, None] * ar)

    def pieces(self, a: np.ndarray, s: np.ndarray) -> MeasurePieces:
        """The area measures of the sections by the planes {x . a[t] = s[t]},
        as area_measure gives them for a polygon: S_2 the atoms a and -a,
        each with the section's area, and S_1 per crossed facet F the
        quarter arcs a -> m_F and m_F -> -a, of density |v_F| / 2 each."""
        rows, facet, length, v1, area = self._facets(a, s)
        hit = v1 > 0.0
        ar, m_f = self._segment_normals(a, rows, facet)
        t = np.flatnonzero(hit)
        arcs = (np.repeat(rows, 2), np.stack([ar, m_f], axis=1).reshape(-1, 3),
                np.stack([m_f, -ar], axis=1).reshape(-1, 3), np.repeat(0.5 * length, 2))
        atoms = (np.repeat(t, 2), np.stack([a[t], -a[t]], axis=1).reshape(-1, 3),
                 np.repeat(area[t], 2))
        return MeasurePieces(hit, arcs, atoms)

    def s1_moments(self, a: np.ndarray, s: np.ndarray, w: np.ndarray,
                   kmax: int) -> np.ndarray:
        """Moments int P_k(u . w) dS_1(u), k <= kmax, of each section (m, kmax+1):
        S_1 has one half circle a -> m_F -> -a of density |v_F| / 2 per
        crossed facet."""
        rows, facet, length, _, _ = self._facets(a, s)
        ar, m_f = self._segment_normals(a, rows, facet)
        arc_cos, arc_sin, arc_weights = _half_circle_rule(kmax)
        m, width = a.shape[0], kmax + 1
        out = np.zeros(m * width)
        # per half circle: its cosines, two Legendre rows, temporaries, moments;
        # parts of whole planes, so that each plane's moments are one sum over
        # its facets in order, as np.add.at added them
        per_call = max(1, CHUNK_BYTES // (8 * (6 * arc_cos.size + width)))
        cuts = np.unique(np.append(np.searchsorted(rows, rows[::per_call]), rows.size))
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            # points u(theta) = cos(theta) a + sin(theta) m_F
            dots = (arc_cos[None, :] * (ar[lo:hi] @ w)[:, None]
                    + arc_sin[None, :] * (m_f[lo:hi] @ w)[:, None])
            arc = np.array([pk @ arc_weights
                            for pk in legendre_rows(3, kmax, np.clip(dots, -1, 1))])
            at = (rows[lo:hi, None] * width + np.arange(width)).ravel()
            out += np.bincount(at, (arc * (0.5 * length[lo:hi])).T.ravel(), out.size)
        return out.reshape(m, width)


@functools.lru_cache(maxsize=None)
def _half_circle_rule(kmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cosines, sines and weights of the Gauss-Legendre rule in theta on
    [0, pi] for the moments of degree <= kmax over a half circle: on
    HALF_CIRCLE_NODES points, or on kmax + 12 where that is more.  On the
    sections of a 30-point hull, k + 12 points reach 1e-15 of M_0 at
    degree k <= 32, while 20 points err by 3e-4 at k = 20 and 1e-2 at 24."""
    s, wts = _gauss01(max(HALF_CIRCLE_NODES, kmax + 12))
    return np.cos(math.pi * s), np.sin(math.pi * s), math.pi * wts


class LineSections:
    """Chords of a full-dimensional polytope by lines p + s u, from its facets."""

    def __init__(self, P: Polytope):
        A, self.b = P.inequalities()
        self.AT = np.ascontiguousarray(A.T)   # (3, F): faster products than the view
        self.sample_bytes = 8 * (8 * len(self.b) + 16)   # the (m, F) arrays of _clip_lines
        self.piece_bytes = 8 * 48   # pieces(): the basis, the ring and four arcs per line

    def chords(self, u: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Clipped [lo, hi] of each line, and whether it meets the body."""
        return _clip_lines(u @ self.AT, self.b[None, :] - p @ self.AT, -math.inf, math.inf)

    def pieces(self, u: np.ndarray, p: np.ndarray) -> MeasurePieces:
        """The area measures of the chords, as area_measure gives them for a
        segment of length l along u: S_1 the four quarter arcs p1 -> p2 ->
        -p1 -> -p2 -> p1 of the great circle orthogonal to u, with the basis
        (p1, p2) of _plane_basis, of density l / 2 each, and no S_2."""
        lo, hi, hit = self.chords(u, p)
        t = np.flatnonzero(hit)
        p1, p2 = _plane_basis(u[t])
        ring = np.stack([p1, p2, -p1, -p2], axis=1)       # (K, 4, 3)
        arcs = (np.repeat(t, 4), ring.reshape(-1, 3), np.roll(ring, -1, axis=1).reshape(-1, 3),
                np.repeat(0.5 * (hi[t] - lo[t]), 4))
        return MeasurePieces(hit, arcs, (t[:0], np.zeros((0, 3)), np.zeros(0)))


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
                                  ch - np.einsum("kci,ki->kc", cn, y), -math.inf, math.inf)
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
        n_k -> n_l of density l / 2 and the S_2 atoms (n_k, a_k) and
        (n_l, a_l), its shares of the facet areas; a facet's shares add up
        to its area."""
        m = R.shape[0]
        rows, length, nk, nl, _, _, ak, al, cone = self._shares(R, x)
        atoms = (np.repeat(rows, 2), np.stack([nk, nl], axis=1).reshape(-1, 3),
                 np.stack([ak, al], axis=1).ravel())
        return MeasurePieces(np.bincount(rows, minlength=m) > 0, (rows, nk, nl, 0.5 * length),
                             atoms, np.bincount(rows, cone, m))


def crofton_target(P: Polytope, i: int, j: int) -> float:
    """Analytic value [i+j; j] V_(i+j)(P) of the Crofton integral."""
    return flag(i + j, j) * intrinsic_volumes(P)[i + j]


def check_full_dimensional(*bodies: Polytope) -> None:
    """Monte-Carlo sampling reads the bodies' facets: each must be full-dimensional."""
    for B in bodies:
        if B.dim != 3:
            raise ValueError("Monte-Carlo sampling needs full-dimensional bodies, "
                             f"got dimension {B.dim}")


def _flats(P: Polytope, i: int, seed: int, n_samples: int, shards: int) -> PlaneSampler:
    """The law of the codimension-i flats against P: the body-tight law of
    planes for i = 1, and for lines and points the ball of P's enclosing
    radius about the origin."""
    if i == 1:
        return PlaneSampler.tight(P, seed, n_samples, shards)
    return PlaneSampler(n=3, codim=i, radius=P.enclosing_radius * (1.0 + 1e-12),
                        seed=seed, n_samples=n_samples, shards=shards)


def _intrinsic_kernel(P: Polytope, j: int, i: int):
    """The term of V_j at codimension i: the kernel that maps flats of
    `_flats(P, i, ...)` to V_j of their sections with P, and its temporary
    bytes per sample."""
    if i == 1 and j == 0:   # every plane of the tight law meets P
        return (lambda dirs, offs: np.ones(len(offs))), 80   # variates, draws, weights
    if i == 1:
        sections = PlaneSections(P)
        return (lambda dirs, offs: sections.volumes(dirs, offs)[j - 1]), sections.sample_bytes
    if i == 2:
        lines = LineSections(P)

        def kernel(dirs, p):
            lo, hi, hit = lines.chords(dirs, p)
            return hit if j == 0 else np.where(hit, np.clip(hi - lo, 0.0, None), 0.0)
        return kernel, lines.sample_bytes
    A, b = P.inequalities()   # i == 3: points
    AT, bound = np.ascontiguousarray(A.T), b + 1e-12
    return (lambda x: np.all(x @ AT <= bound, axis=1)), 9 * len(b) + 80


def crofton_intrinsic(P: Polytope, i: int, j: int, n_samples: int, seed: int,
                      shards: int = DEFAULT_SHARDS) -> EstimateReport:
    """Monte-Carlo estimate of the integral of V_j over the codimension-i
    planes meeting P, against the target [i+j; j] V_(i+j)(P).  Planes
    (i = 1) follow the body-tight law of `PlaneSampler`; lines and points
    the ball of P's enclosing radius about the origin."""
    n = 3
    if not (0 <= j and 1 <= i and i + j <= n):
        raise ValueError(f"need i >= 1, j >= 0, i + j <= {n}; got i={i}, j={j}")
    check_full_dimensional(P)
    sampler = _flats(P, i, seed, n_samples, shards)
    t0 = time.perf_counter()
    est, se = run_shards(sampler, *_intrinsic_kernel(P, j, i))
    return EstimateReport(
        estimate=float(est), stderr=float(se), target=crofton_target(P, i, j),
        n_samples=n_samples, seed=seed, wall_time_s=time.perf_counter() - t0,
        extra={"i": i, "j": j, "radius": sampler.radius,
               "weight": None if sampler.weighted else sampler.weight,
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
    stage separated: the facet normals of P, the rotated facet normals of L,
    and the cross products of edge directions.  Axes are stored as columns,
    (3, A) for all motions or (m, 3, A) per motion, so that each projection
    is one matmul to (m, vertices, A), reduced over the vertex axis
    (`_vertex_major`)."""

    def __init__(self, P: Polytope, L: Polytope):
        self.vp, self.vl = P.vertices, L.vertices
        self.axesP = _distinct_axes(P.facet_normals).T              # (3, A)
        self.axesL = _distinct_axes(L.facet_normals).T              # (3, AL)
        self.dirsP, self.dirsL = P.edge_directions(), L.edge_directions()
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


def _motions(P: Polytope, L: Polytope, kernel, sample_bytes: int, seed: int, n_samples: int,
             shards: int) -> tuple[np.ndarray, np.ndarray]:
    """run_shards of the kernel over the box law of motions of L against P,
    whose draw adds the (m, 3, V) coordinates of R L to sample_bytes."""
    sampler = MotionSampler.tight(P, L, seed, n_samples, shards)
    return run_shards(sampler, kernel, sample_bytes + 24 * len(L.vertices))


def kinematic_check(P: Polytope, L: Polytope, j: int, n_samples: int, seed: int,
                    shards: int = DEFAULT_SHARDS) -> EstimateReport:
    """Monte-Carlo check of the principal kinematic formula: average of
    V_j(P n gL) over rigid motions g against the bilinear target.

    Motions follow the box law of `MotionSampler` (translations in the
    coordinate box of P - R L per rotation, weighted by its volume).  j = 0
    runs a vectorized exact separating-axis test; j >= 1 reads V_j of the
    intersection from its edges (`MotionIntersections`), with no hull per
    motion."""
    n = 3
    if not 0 <= j <= n:
        raise ValueError(f"need 0 <= j <= {n}")
    check_full_dimensional(P, L)
    t0 = time.perf_counter()
    if j == 0:
        test = _SeparatingAxes(P, L)
        kernel, sample_bytes = (lambda R, x: test.hits(R, x).astype(float)), test.sample_bytes
    else:
        inter = MotionIntersections(P, L)
        kernel, sample_bytes = (lambda R, x: inter.volumes(R, x)[:, j]), inter.sample_bytes
    est, se = _motions(P, L, kernel, sample_bytes, seed, n_samples, shards)
    return EstimateReport(
        estimate=float(est), stderr=float(se), target=kinematic_target(P, L, j),
        n_samples=n_samples, seed=seed, wall_time_s=time.perf_counter() - t0,
        extra={"j": j, "shards": shards})


def _hadwiger(P: Polytope, L: Polytope, lhs: float, lhs_se: float, degree: int, on_P: float,
              on_point: float, kernel_of, seed: int, n_samples: int, shards: int) -> dict:
    """The Crofton side of the Hadwiger decomposition (see hadwiger_check)
    of an integrand f that vanishes on bodies of dimension below `degree`,
    against the motion integral lhs +- lhs_se.  The terms run for
    i = 0..n - degree: i = 0 is f(P) = on_P and i = n is on_point V_n(P),
    both exact; the planes and lines between run at seed + i under the law
    `_flats`, with the kernel and bytes per sample of kernel_of(i)."""
    n = 3
    vl = intrinsic_volumes(L)
    rhs, rhs_var, terms = 0.0, 0.0, []
    for i in range(n - degree + 1):
        if i == 0:
            est, se = on_P, 0.0
        elif i == n:
            est, se = on_point * intrinsic_volumes(P)[n], 0.0
        else:
            est, se = map(float, run_shards(_flats(P, i, seed + i, n_samples, shards),
                                            *kernel_of(i)))
        coef = vl[n - i] / flag(n, i)
        rhs += coef * est
        rhs_var += (coef * se) ** 2
        terms.append({"i": i, "estimate": est, "stderr": se, "coef": coef})
    combined = math.sqrt(lhs_se ** 2 + rhs_var)
    return {"rhs": rhs, "rhs_stderr": math.sqrt(rhs_var), "combined_stderr": combined,
            "difference": lhs - rhs,
            "consistent_3sigma": bool(abs(lhs - rhs) <= 3.0 * combined), "terms": terms}


def hadwiger_check(P: Polytope, L: Polytope, j: int, n_samples: int, seed: int,
                   shards: int = DEFAULT_SHARDS) -> dict:
    """Consistency of the kinematic integral (`kinematic_check`) with its
    Hadwiger decomposition into Crofton integrals:

        int V_j(P n gL) dg = sum_i V_(n-i)(L) [n; i]^(-1)
                             int V_j(P n E) dsigma_(n-i)(E),   i = 0..n-j.

    The i = 0 term V_j(P) and, for j = 0, the i = n term V_n(P) are exact;
    the plane and line terms are estimated as by `crofton_intrinsic`.  The
    report carries the terms and the combined standard error."""
    lhs = kinematic_check(P, L, j, n_samples, seed, shards=shards)
    side = _hadwiger(P, L, lhs.estimate, lhs.stderr, j, intrinsic_volumes(P)[j], float(j == 0),
                     functools.partial(_intrinsic_kernel, P, j), seed, n_samples, shards)
    return {"lhs": lhs, **side, "target": lhs.target}


def _valuation_kernel(P: Polytope, value: PieceEvaluator, i: int):
    """The kernel that maps planes (i = 1) or lines (i = 2) to the
    valuation's value on their sections with P, and its bytes per sample."""
    sections = PlaneSections(P) if i == 1 else LineSections(P)
    return (lambda *flats: value(sections.pieces(*flats)),
            sections.sample_bytes + sections.piece_bytes)


def kinematic_minkowski_check(spec, P: Polytope, L: Polytope, direction,
                              n_samples: int, seed: int,
                              shards: int = DEFAULT_SHARDS) -> dict:
    """Kinematic formula for a Minkowski valuation at a fixed direction u:
    the motion average of h(Phi(P n gL))(u) against its Hadwiger
    decomposition into Crofton integrals, as in `hadwiger_check` with h in
    place of V_j.  The i = 0 term (`evaluate` on P) and the i = n term
    (points, where only the constant c0 survives) are exact; the plane and
    line terms are estimated by Monte Carlo where the valuation can be
    nonzero on flats of dimension n - i: c0 != 0 or a datum of degree
    <= n - i.  Both sides carry standard errors; the report states their
    3-sigma consistency.  No sample builds a lattice: the batched kernels
    give the area measures of all the intersections or sections of a chunk
    as pieces (`MotionIntersections.pieces`, `PlaneSections.pieces`,
    `LineSections.pieces`), and `PieceEvaluator` integrates the valuation's
    data against them, with the pointwise or spectral path that `evaluate`
    would take.  Motions and flats follow the laws of `kinematic_check` and
    `crofton_intrinsic`."""
    n = 3
    check_full_dimensional(P, L)
    value = PieceEvaluator(spec, direction)
    u = value.u[None, :]

    t0 = time.perf_counter()
    inter = MotionIntersections(P, L)
    lhs, lhs_se = _motions(P, L, lambda R, x: value(inter.pieces(R, x)),
                           inter.sample_bytes + inter.piece_bytes, seed, n_samples, shards)
    degree = 0 if spec.c0 != 0.0 else min((i for i, _ in spec.degrees()), default=n)
    side = _hadwiger(P, L, float(lhs), float(lhs_se), degree,
                     float(evaluate(spec, P, u).values[0]), spec.c0,
                     functools.partial(_valuation_kernel, P, value), seed, n_samples, shards)
    del side["terms"]
    return {"direction": list(map(float, u[0])), "lhs": float(lhs), "lhs_stderr": float(lhs_se),
            **side, "N": n_samples, "seed": seed, "wall_time_s": time.perf_counter() - t0}


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
    check_full_dimensional(P)
    degrees = list(degrees)
    kk = max(degrees)
    if min(degrees) < 0 or kk > min(kmax, mu.kmax):
        raise ValueError(f"degrees must lie in [0, {min(kmax, mu.kmax)}], got {degrees}")
    w = np.asarray(probe, dtype=float)
    w = w / np.linalg.norm(w)
    sampler = _flats(P, 1, seed, n_samples, shards)
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
        "weight": None,   # per sample, from the tight law of planes
        "wall_time_s": time.perf_counter() - t0,
        "all_pass": all(r["pass"] for r in rows),
    }
