"""Monte-Carlo integral geometry: Crofton and kinematic formulas for
intrinsic volumes and the Crofton formula for Minkowski valuations.

The invariant measure of affine flats is normalized so that the flats
meeting the unit ball have measure C(n, d) kappa_n / kappa_d (d the flat
dimension).  A Crofton term of V_j at codimension i with i + j < n draws
only a uniform direction (`DIRECTIONS`) and integrates over the offsets in
closed form (`FlatIntegrals`).  A term with i + j = n, whose closed form
V_n of the body would read as an estimate with stderr 0, draws its offsets
too, and its kernel owns the window they fall in and its weight, the
measure of the flats through that window: planes (`PlaneSections.areas`)
take an offset in the support interval [lo, hi] of their normal, of weight
2 (hi - lo); lines (`_LineChords`) a point in the disc of radius R about
the centre of the body's coordinate box, of weight 2 pi R^2; points
(`_BoxPoints`) lie in that box, whose volume is their weight.  For every
direction these integrands integrate over the offset to V_n of the body,
so their variance is the offset's: each shard stratifies its samples'
first offset double (the plane's offset, the line's squared radius in the
disc, the point's x), one sample per stratum (`Law`).
Rigid motions g L = R L + x draw only their rotation R, uniform
(`ROTATIONS`): the integral over the translations x has a closed form
for each rotation, the translative integral formulas
(`TranslativeIntegrals`).  It is vol(P - R L) for the Euler
characteristic and a sum over the facet pairs of P and R L for V_1; for
j = 2, 3 it is V_j(P) V_3(L) + V_3(P) V_j(L), which does not depend on R,
so those checks are exact and draw nothing.  Both kinematic checks compare
the motion integral with one Hadwiger decomposition into Crofton integrals
(`_hadwiger`): the whole space (i = 0) and the points (i = n) give exact
terms, and only the plane and line terms on which the integrand can be
nonzero run by Monte Carlo.

Every estimator runs through one shard loop, `run_shards`, which averages
a kernel's values under a law (`Lattice` or `Law`) and knows no weight.  A
run draws its random numbers from one stream of doubles seeded once from
its seed: first the lattices' shift of each shard, then each sample's
doubles in sample order; shard k is simply the samples [start_k, end_k)
of the run.  Each random object comes from its doubles through one map: a
direction through the equal-area map (`direction_map`), a rotation
through its Hopf matrix (`rotation_map`), and an offset, a radius or a
coordinate scaled to its window as Generator.uniform would scale it
(`_uniform`).  The run goes in chunks of bounded memory, cut without
regard to the shards: each chunk's samples are drawn from their doubles
and their places in their shards (the lattice point, the stratum of a
stratified double), a kernel evaluates them, and each shard's values are
summed in fixed blocks from its start.  The draws, the kernels and the
sums are elementwise or blocked per shard, so no value depends on the
chunking, and the standard error comes from the per-shard spread.
Results are deterministic in (seed, N, shards), and memory is bounded by
CHUNK_BYTES whatever the number or size of the shards.
The kernels build no face lattice: the valuation-valued check integrates
the profiles of `evaluate` (`valuation.PieceEvaluator`) against the area
measures of a whole chunk, integrated over the offsets or the
translations.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import crofton_q, flag, kappa
from .convex import (
    CHUNK_BYTES,
    AreaMeasure,
    Arcs,
    Atoms,
    Polytope,
    _cross,
    _dots,
    _extent,
    _norms,
    _plane_basis,
    _unit,
    area_measure,
    intrinsic_volumes,
)
from .harmonics import legendre_rows
from .valuation import MeasurePieces, PieceEvaluator, evaluate
from .zonal import DEFAULT_KMAX, ZonalObject, box_j_apply, box_n_apply, builtin_zonal

__all__ = [
    "EstimateReport",
    "agrees",
    "Law",
    "Lattice",
    "FlatIntegrals",
    "PlaneSections",
    "TranslativeIntegrals",
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
PARALLEL_TOL = 1e-12    # |u . n| up to which _clip_lines takes a line as parallel
# How far two sides of a check may lie apart by rounding alone, relative
# to their size.  A kernel that is constant under the law (every point of a
# box-shaped body hits; the kinematic integrals of j >= 2 do not depend on
# the rotation) gives S equal shard means, whose spread reads 0, or a few
# units u = 2^-53 of the estimate where numpy's pairwise mean of the S
# copies rounds off them.  The two sides are then two closed forms of one
# quantity, evaluated in other orders, and differ by their rounding, in
# units u relative: the estimate by one for each of its few products and
# quotients (the box volume), plus at most ceil(log2 S) for the mean; the
# target, a sum of F non-negative facet terms (the cones from the vertex
# centroid of intrinsic_volumes), by at most F - 1 for the sum (Higham,
# Accuracy and Stability of Numerical Algorithms, 2002, sec. 4.2) plus a
# few for each term.  1e-12, about 4500 u, covers bodies of a few thousand
# facets, and is far below the stderr of any estimate that varies.
ROUNDING_RTOL = 1e-12


def agrees(gap: float, bound: float, scale: float, rtol: float = ROUNDING_RTOL) -> bool:
    """The pass rule of every check: |gap| <= bound + rtol * scale, with the
    bound the error the check allows for (3 sigma, a truncation tail, 0) and
    scale the size of the values compared, whatever the size of the body."""
    return bool(abs(gap) <= bound + rtol * scale)


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
        """(estimate - target) / stderr, and 0 within rounding of the target."""
        if agrees(self.estimate - self.target, 0.0, abs(self.target)):
            return 0.0
        if self.stderr == 0.0:
            return math.inf
        return (self.estimate - self.target) / self.stderr

    def within(self, sigmas: float = 3.0) -> bool:
        return agrees(self.estimate - self.target, sigmas * self.stderr, abs(self.target))

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


def _polar(u0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1 - u_0 and r = 2 sqrt(u_0 (1 - u_0)), the radius sqrt(1 - z^2) at
    the height z = 1 - 2 u_0 = (1 - u_0) - u_0."""
    p = 1.0 - u0
    r = u0 * p
    np.sqrt(r, out=r)
    r *= 2.0
    return p, r


def direction_map(u0: np.ndarray, u1: np.ndarray) -> np.ndarray:
    """The directions (m, 3) of the doubles u_0, u_1 (m,) by the equal-area
    map z = 1 - 2 u_0, phi = 2 pi u_1 (Marques et al., Comput. Graph. Forum
    32, 2013): uniform on the sphere when (u_0, u_1) is uniform on the unit
    square."""
    p, r = _polar(u0)
    phi = u1 * (2.0 * math.pi)
    return np.stack([r * np.cos(phi), r * np.sin(phi), p - u0], axis=1)


def rotation_map(u0: np.ndarray, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """The rotation matrices (m, 3, 3) of the doubles u_0, u_1, u_2 (m,):
    those of the unit quaternions of Hopf coordinates (u_0, phi = 2 pi u_1,
    psi = 2 pi u_2), (sqrt(1 - u_0) cos psi/2, sqrt(1 - u_0) sin psi/2,
    sqrt(u_0) cos(phi + psi/2), sqrt(u_0) sin(phi + psi/2)), uniform on
    SO(3) when u is uniform on the unit cube (Yershova et al., IJRR 29,
    2010).  Entry by entry in the layout (3, 3, m) that the kernels read,
    from e^(i phi), e^(i psi), their product e^(i (phi + psi)) and
    e^(i chi), chi = 2 phi + psi: the first row is the direction (z, -y, x)
    of direction_map(u_0, u_1), the lower right block
    (1 - u_0) Rot(psi) + u_0 Refl(chi)."""
    p, r = _polar(u0)
    z = np.zeros((2, len(u0)), dtype=complex)
    np.multiply(u1, 2.0 * math.pi, out=z.imag[0])
    np.multiply(u2, 2.0 * math.pi, out=z.imag[1])
    np.exp(z, out=z)
    phi, psi = z
    both = phi * psi
    chi = phi * both
    psi *= p
    chi *= u0
    phi *= r
    both *= r
    e = np.empty((3, 3, len(u0)))
    np.subtract(p, u0, out=e[0, 0])
    np.negative(phi.imag, out=e[0, 1])
    e[0, 2] = phi.real
    e[1, 0] = both.imag
    np.negative(both.real, out=e[2, 0])
    np.add(psi.real, chi.real, out=e[1, 1])
    np.subtract(chi.imag, psi.imag, out=e[1, 2])
    np.add(chi.imag, psi.imag, out=e[2, 1])
    np.subtract(psi.real, chi.real, out=e[2, 2])
    return e.transpose(2, 0, 1)


@dataclass(frozen=True)
class Law:
    """The laws of offsets (PLANES, LINES, POINTS): per sample, `uniforms`
    doubles in [0, 1) that the kernel scales to its window, the first
    stratified, then, for flats with a `direction`, the two doubles that
    `direction_map` makes a plane's normal or a line's direction.  A law
    draws nothing per shard.  `draw` makes the first double of sample j of
    a shard's m samples (j + U_j) / m, with U_j that sample's double of the
    stream: one sample in each stratum [j / m, (j + 1) / m), in stream
    order, every other double iid (Owen, Monte Carlo theory, methods and
    examples, 2013, ch. 8).  The shard mean stays unbiased, the shards stay
    independent replicates, and the per-shard standard error stays valid.
    A law knows no body: a kernel scales the doubles to its window about
    the body, as Generator.uniform would (`_uniform`), and weights its
    values by the window's measure."""

    uniforms: int
    direction: bool = False
    shard_doubles = 0

    @property
    def sample_doubles(self) -> int:
        return self.uniforms + 2 * self.direction

    @property
    def bytes(self) -> int:
        """The bytes of one sample's draw at its peak: its strata and
        doubles, and the direction with the temporaries of its map."""
        return 8 * (3 + self.sample_doubles + 9 * self.direction)

    def draw(self, u: np.ndarray, strata, shifts=None) -> tuple[np.ndarray, ...]:
        """The kernel's arguments from the doubles u (m, sample_doubles) of
        the samples of strata (j, m, shard) (`_chunk_strata`): the
        direction, then the columns of the doubles, the first stratified in
        place.  The last stratum's (m - 1 + u) / m rounds to 1 for u near 1
        and m >= 2, as Generator.uniform may round to its upper end; the
        kernels take it."""
        first = u[:, 0]
        first += strata[0]
        first /= strata[1]
        out = (direction_map(u[:, -2], u[:, -1]),) if self.direction else ()
        return out + tuple(u[:, :self.uniforms].T)


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Lattice:
    """Uniform directions, or uniform rotations, from one randomly shifted
    lattice per shard.  Sample j of a shard of m samples is the point
    u = ((j + 1/2) / m, j g) + s mod 1 of the spherical Fibonacci rank-1
    lattice, g = (sqrt 5 - 1) / 2, shifted by the shard's s, the two
    doubles that run_shards draws per shard, in shard order, before the
    first chunk: a Cranley-Patterson rotation (Cranley & Patterson, SIAM J.
    Numer. Anal. 13, 1976).  A direction is the point's `direction_map`; a
    rotation takes the point as the axis of its Hopf coordinates and the
    sample's one iid double u_2 for its angle (`rotation_map`).  Every
    point is uniform, so a shard's mean is unbiased; the shards' shifts are
    independent, so the shards stay independent replicates and the
    per-shard standard error stays valid.  A sample's point depends on its
    j, m and shard only, not on how the run is chunked."""

    rotations: bool = False
    shard_doubles = 2

    @property
    def sample_doubles(self) -> int:
        return int(self.rotations)

    @property
    def bytes(self) -> int:
        """The bytes of one sample's draws: its strata and point, and the
        direction, or its four unit complex numbers and rotation matrix."""
        return 8 * (28 if self.rotations else 13)

    def draw(self, u: np.ndarray, strata, shifts: np.ndarray) -> tuple[np.ndarray]:
        """The directions (m, 3) or rotation matrices (m, 3, 3) of the
        samples of strata (j, m, shard) (`_chunk_strata`), with the
        rotations' angle doubles u (m, 1)."""
        j, size, shard = strata
        w = np.empty((2, len(j)))
        u0, u1 = w
        np.add(j, 0.5, out=u0)
        u0 /= size
        np.multiply(j, GOLDEN, out=u1)
        w += shifts.take(shard, axis=0).T
        w -= np.floor(w)
        return (rotation_map(u0, u1, u[:, 0]) if self.rotations else direction_map(u0, u1),)


DIRECTIONS = Lattice()            # plane normals and line directions
ROTATIONS = Lattice(rotations=True)
# the stratified double of a plane's offset, then its normal's two
PLANES = Law(1, direction=True)
# the doubles of a line's point's squared radius (stratified) and angle, then its direction's two
LINES = Law(2, direction=True)
# the doubles of a point's coordinates, x stratified
POINTS = Law(3)


def _stream(seed: int) -> np.random.Generator:
    """The run's stream of doubles: a PCG64 generator of the second child
    of SeedSequence(seed).  The first child gave the normals that planes
    and lines once drew their directions from; the second keeps the bits of
    every draw of the lattices, the points and the rotations' angles."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(2)[1]))


def _uniform(u: np.ndarray, lo, hi) -> np.ndarray:
    """lo + (hi - lo) * u, in place: of the doubles u of Generator.random,
    the values that Generator.uniform(lo, hi) draws from the same stream,
    and of a stratified double (j + u) / m (`Law.draw`) the same map of
    it, a value in the j-th of m equal parts of [lo, hi]."""
    u *= hi - lo
    u += lo
    return u


SUM_BLOCK = 1 << 12   # samples per block of a shard's sum, and most values held (_ShardSums)


def _shard_sizes(n_samples: int, shards: int) -> list[int]:
    base = n_samples // shards
    sizes = [base] * shards
    for k in range(n_samples - base * shards):
        sizes[k] += 1
    return sizes


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
        # a copy of the rest, not a view that would hold all the values
        self.pending = [vals[bounds[-1]:].copy()] if bounds[-1] < len(vals) else []
        first, last = self.shard[i0], self.shard[i1 - 1]
        if last - first == i1 - i0 - 1:       # one block per shard
            self.sums[first:last + 1] += block
        else:                                 # in order, per shard
            np.add.at(self.sums, self.shard[i0:i1], block)


def _chunk_strata(sizes: np.ndarray, ends: np.ndarray, lo: int,
                  m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The index j of the run's samples lo, ..., lo + m - 1 in their shards,
    their shards' sizes and their shards (`Law.draw`, `Lattice.draw`), for
    the shards of `sizes` samples ending at `ends`."""
    i = np.arange(lo, lo + m)
    k = ends.searchsorted(i, side="right")
    size = sizes.take(k)
    i -= ends.take(k)
    i += size
    return i, size, k


def _check_shards(n_samples: int, shards: int) -> None:
    """Every shard needs two samples, and the spread two shards."""
    if shards < 2 or n_samples < 2 * shards:
        raise ValueError(f"need shards >= 2 and n_samples >= 2 * shards; got "
                         f"n_samples={n_samples}, shards={shards}")


def run_shards(law: Law | Lattice, kernel, sample_bytes: int, seed: int, n_samples: int,
               shards: int) -> tuple[np.ndarray, np.ndarray]:
    """Estimate of E[kernel(sample)] over n_samples samples of the law: the
    mean of the per-shard means, with its standard error.  The run draws
    its doubles from the stream of `_stream(seed)`: first the law's
    shard_doubles per shard, in shard order, then its sample_doubles per
    sample, in sample order, and shard k is its samples [start_k, end_k).
    A chunk holds at most CHUNK_BYTES / max(sample_bytes, law.bytes)
    samples, wherever the shards end, sample_bytes being the kernel's
    memory per sample, the draws it is handed included, and law.bytes the
    draw's: it is drawn (`law.draw`) from its doubles, its samples' places
    in their shards (`_chunk_strata`) and the shifts, which frees the
    draw's temporaries, and mapped by `kernel(*draws)` to values (m,) or
    (m, width).  Memory is bounded by CHUNK_BYTES whatever the size of the
    shards, and neither the draws nor the sums (`_ShardSums`) depend on
    the chunking."""
    _check_shards(n_samples, shards)
    sizes = np.array(_shard_sizes(n_samples, shards))
    ends = np.cumsum(sizes)
    chunk = max(1, CHUNK_BYTES // max(sample_bytes, law.bytes))
    stream, totals = _stream(seed), _ShardSums(sizes)
    shifts = stream.random((shards, law.shard_doubles))
    for lo in range(0, n_samples, chunk):
        m = min(chunk, n_samples - lo)
        u = stream.random((m, law.sample_doubles))
        # each array goes as soon as it is used, to bound the peak memory:
        # the doubles before the kernel, the samples before the sums and
        # the values before the next chunk
        draws = law.draw(u, _chunk_strata(sizes, ends, lo, m), shifts)
        del u
        vals = np.asarray(kernel(*draws), dtype=float)
        del draws
        totals.add(vals)
        del vals
    sums = totals.sums
    sizes = sizes.astype(float).reshape((-1,) + (1,) * (sums.ndim - 1))
    means = sums / sizes
    return means.mean(axis=0), means.std(axis=0, ddof=1) / math.sqrt(len(means))


def _clip_lines(den: np.ndarray, num: np.ndarray, lo, hi,
                cut: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clip lines p + s u, s in [lo, hi], by constraints n . x <= b given
    along the last axis as den = u . n and num = b - p . n.  Returns the
    clipped [lo, hi] and whether it is non-empty; a constraint parallel to
    the line (|den| <= PARALLEL_TOL, a cosine) empties it when p violates
    it by more than cut, a length the caller takes relative to its body."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = num / den
    hi = np.minimum(hi, np.where(den > PARALLEL_TOL, ratio, math.inf).min(axis=-1))
    lo = np.maximum(lo, np.where(den < -PARALLEL_TOL, ratio, -math.inf).max(axis=-1))
    feasible = ~np.any((np.abs(den) <= PARALLEL_TOL) & (num < -cut), axis=-1)
    return lo, hi, feasible & (hi >= lo)


# -- plane sections of a fixed body -----------------------------------------

class PlaneSections:
    """The areas of the sections of a full-dimensional polytope by planes
    {x . a = s}, facet by facet, with no ordering of the section polygon,
    from the edges that each plane crosses.  The signed distances of the
    vertices to the plane flag the edges whose ends lie on opposite sides,
    and only those get a crossing point p_e (`_crossings`).  A plane cuts
    facet F in at most one segment, between the crossing points of its
    crossed edges: with B_eF = +1 where the ccw cycle of F runs along edge
    e = (i, j) from i to j, else -1, and the crossing sign c_e = +1 where i
    lies above the plane, else -1, the segment is v_F = sum_e B_eF c_e p_e
    and its midpoint 1/2 sum_e p_e, over the crossed edges e of F.  So each
    crossing adds +p_e to one facet of its edge and -p_e to the other, a
    scatter by plane and facet (`_areas`).  The facets with v_F != 0 are
    the crossed ones, and the divergence theorem in the plane gives the
    area (Schneider, Convex Bodies, 2nd ed. 2014, ch. 4).  Points are taken
    about the vertex centroid."""

    def __init__(self, P: Polytope):
        self.vi, self.vj = P.edges[:, 0], P.edges[:, 1]
        local = P.vertices - P.vertices.mean(axis=0)
        self.local_t = np.ascontiguousarray(local.T)                       # (3, V)
        self.cut = 1e-12 * _extent(P.vertices)
        self.start = np.ascontiguousarray(local[self.vi].T)                 # (3, E)
        self.step = np.ascontiguousarray((local[self.vj] - local[self.vi]).T)
        # per edge, the facet whose ccw cycle runs along it from i to j, then
        # the other one, flat: entry 2 e + (i below) takes +p_e
        runs = {(i, j): f for f, cyc in enumerate(P.facet_cycles)
                for i, j in zip(cyc, cyc[1:] + cyc[:1])}
        self.facets = np.array([(f, g) if runs[i, j] == f else (g, f)
                                for i, j, f, g in P.edges.tolist()], dtype=int).ravel()
        V, E, self.nf = len(P.vertices), len(P.edges), len(P.facet_cycles)
        # the temporaries of areas() per plane: the (m, V) distances, the
        # (m, E) distances of the ends and their flags, then the (m, F) sums
        # of the scatter and their flags, with the arrays of the at most F
        # crossings and F crossed facets (peaks of 3.9 kB for a 30-point
        # ellipsoid hull, 7.0 kB for a 40-gon prism whose planes cross all 40
        # side edges, tracemalloc), and the normal and three doubles of
        # PLANES that it is handed
        self.sample_bytes = 8 * (V + 3 * E + 12 * self.nf + 6)

    def _crossings(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The edges that planes cross, by plane, then edge, from the signed
        distances d (m, V) of the vertices to the planes: plane index t
        (K,), edge e (K,), whether its end i lies above the plane (K,), and
        the crossing point about the centroid (3, K).  A vertex lies above a
        plane where its distance exceeds `cut`, 1e-12 of the body's extent
        (convex._extent), so that the same planes cross the same edges of
        lam P + t."""
        di, dj = d[:, self.vi], d[:, self.vj]                     # (m, E)
        above = di > self.cut
        flat = np.flatnonzero(above != (dj > self.cut))
        rows, e = np.divmod(flat, len(self.vi))
        di, dj = di.ravel()[flat], dj.ravel()[flat]
        lam = np.clip(di / (di - dj), 0.0, 1.0)
        p = np.take(self.start, e, axis=1) + lam * np.take(self.step, e, axis=1)
        return rows, e, above.ravel()[flat], p

    def tight(self, a: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The planes of normals a whose offsets about the centroid are
        uniform in the support interval [lo, hi] of a . (v - centroid) over
        the vertices v, from the doubles u of Generator.random, stratified
        under PLANES (scaled in place): the signed distances (m, V) of the
        vertices to them, from the one projection that gives the interval,
        and their weights 2 (hi - lo), the measure of the planes of normal a
        that meet the body.  Every plane meets it."""
        d = _dots(a, self.local_t)
        lo, hi = d.min(axis=1), d.max(axis=1)
        d -= _uniform(u, lo, hi)[:, None]
        return d, 2.0 * (hi - lo)

    def _areas(self, a: np.ndarray, d: np.ndarray) -> np.ndarray:
        """The areas (m,) of the sections by the planes of normals a and
        vertex distances d, 0 where a plane misses the body: the moments
        mid_F x v_F of the crossed facets, dotted with a and summed by
        plane, facet after facet."""
        m, nf = len(a), self.nf
        rows, e, above, p = self._crossings(d)
        # plane * F + facet of the facets that take +p_e, then of those that take -p_e
        at = np.concatenate([self.facets[2 * e + ~above], self.facets[2 * e + above]])
        at += np.tile(rows * nf, 2)
        v = [np.bincount(at, np.concatenate([x, -x]), m * nf) for x in p]
        crossed = np.flatnonzero((v[0] != 0.0) | (v[1] != 0.0) | (v[2] != 0.0))
        mid = [0.5 * np.bincount(at, np.tile(x, 2), m * nf)[crossed] for x in p]
        moment = np.stack(_cross(mid, [x[crossed] for x in v]), axis=1)
        rows = crossed // nf
        area = np.bincount(rows, np.einsum("ki,ki->k", np.take(a, rows, axis=0), moment), m)
        return 0.5 * np.abs(area)

    def areas(self, a: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The kernel of the term of V_2 at codimension 1 (i + j = n), under
        PLANES: the areas of the `tight` planes' sections times their
        weights."""
        d, weight = self.tight(a, u)
        return weight * self._areas(a, d)


class _LineChords:
    """The kernel of the term of V_1 at codimension 2 (i + j = n), under
    LINES: the lines along the unit rows u through points uniform in the
    disc orthogonal to u, their squared radius in units of R^2 stratified
    by the law, about the centre c = (lo + hi) / 2 of the body's coordinate
    box [lo, hi], of the radius R = max |v - c| over the vertices v (times
    1 + 1e-12) of the ball about c that holds the body.  Each chord's
    length is multiplied by 2 pi R^2, the measure of the lines meeting that
    ball."""

    def __init__(self, P: Polytope):
        A, self.b = P.inequalities()
        self.AT = np.ascontiguousarray(A.T)   # (3, F): contiguous rows for _dots
        lo, hi = P.vertices.min(axis=0), P.vertices.max(axis=0)
        self.centre = (lo + hi) / 2.0
        reach = _norms(P.vertices - self.centre)
        self.radius = float(np.max(reach)) * (1.0 + 1e-12)
        self.weight = math.comb(3, 2) * kappa(3) / kappa(1) * self.radius ** 2
        self.cut = 1e-12 * _extent(P.vertices)
        # at the peak of _clip_lines: den, num and their ratio, (m, F) doubles,
        # and one np.where of the ratio with its (m, F) mask; then the points
        # and the clipped ends; and the direction and four doubles of LINES
        # that it is handed
        self.sample_bytes = 33 * len(self.b) + 184

    def points(self, u: np.ndarray, r: np.ndarray, ang: np.ndarray) -> np.ndarray:
        """The lines' points (m, 3) from the doubles r of their radii and ang
        of their angles, which it scales in place."""
        _uniform(ang, 0.0, 2.0 * math.pi)
        e1, e2 = _plane_basis(u)
        rad = self.radius * np.sqrt(r)
        return rad[:, None] * (np.cos(ang)[:, None] * e1 + np.sin(ang)[:, None] * e2) + self.centre

    def chords(self, u: np.ndarray, p: np.ndarray) -> np.ndarray:
        """The chords' lengths of the lines p + s u, 0 where a line misses
        the body; a line parallel to a facet misses it when it lies outside
        by more than 1e-12 of the body's extent (convex._extent).  The
        products with the facet normals are elementwise (`_dots`), so that no
        line's chord depends on the batch."""
        lo, hi, hit = _clip_lines(_dots(u, self.AT), self.b - _dots(p, self.AT), -math.inf,
                                  math.inf, self.cut)
        return np.where(hit, np.clip(hi - lo, 0.0, None), 0.0)

    def __call__(self, u: np.ndarray, r: np.ndarray, ang: np.ndarray) -> np.ndarray:
        return self.weight * self.chords(u, self.points(u, r, ang))


class _BoxPoints:
    """The kernel of the term of V_0 at codimension 3, under POINTS: points
    uniform in the body's coordinate box [lo, hi], their x stratified by
    the law; a hit counts the box's volume.  The cut is relative to the
    diameter 2 max |v - m| of the ball about the vertex centroid m that
    holds the vertices v."""

    def __init__(self, P: Polytope):
        self.A, b = P.inequalities()
        size = 2.0 * float(np.max(_norms(P.vertices - P.vertices.mean(axis=0))))
        self.bound = b + 1e-12 * size
        # the gaps a . p - bound of the facets as one product with the
        # points' rows (x, y, z, -1)
        self.gaps = np.column_stack([self.A, self.bound])
        self.lo, self.hi = P.vertices.min(axis=0), P.vertices.max(axis=0)
        self.volume = float(np.prod(self.hi - self.lo))
        # A product of four terms, by BLAS in any order, or _dots of three,
        # lies within 4u sum_i |a_i p_i| of its exact value (Higham, Accuracy
        # and Stability of Numerical Algorithms, 2002, sec. 3.1), far inside
        # this band for every point of the box
        reach = np.maximum(np.abs(self.lo), np.abs(self.hi))
        self.band = 1e-12 * float(np.max(np.abs(self.A) @ reach + np.abs(self.bound)))
        # the (F, m) gaps, the points, their maxima, and the three doubles handed
        self.sample_bytes = 9 * len(b) + 104

    def points(self, *x: np.ndarray) -> np.ndarray:
        """The points from the doubles x of their coordinates, as the rows
        (x, y, z, -1) of a (4, m) array."""
        p = np.stack([*x, np.full(len(x[0]), -1.0)])
        _uniform(p[:3], self.lo[:, None], self.hi[:, None])
        return p

    def __call__(self, *x: np.ndarray) -> np.ndarray:
        """The hits times the box's volume.  A hit is that of the elementwise
        products (`_dots`), so that no point's value depends on the batch:
        a point whose largest gap, by the BLAS product, lies beyond the band
        on either side hits or misses by both products alike, and only the
        points within it are taken again by _dots."""
        p = self.points(*x)
        top = (self.gaps @ p).max(axis=0)
        hits = top < -self.band
        near = np.flatnonzero(~hits & (top <= self.band))
        hits[near] = np.all(_dots(self.A, p[:3, near]) <= self.bound[:, None], axis=0)
        return self.volume * hits


# -- integrals over the offsets of parallel planes and lines ----------------

class FlatIntegrals:
    """For directions, the integrals over the offsets of functionals of the
    sections of P by the planes {x . a = s} or lines p + R u, under twice
    Lebesgue measure (the invariant measure), in closed form.  By the coarea
    formula (Federer, Geometric Measure Theory, 1969, 3.2) the plane's
    segment in a facet F, of area A_F and normal n_F, integrates over s to
    A_F |n_F x a|: 2 int V_1 ds = sum_F A_F |n_F x a|; 2 int V_0 ds is twice
    the width, and 2 int V_0 dp = sum_F A_F |n_F . u| twice the projection's
    area.  The area measures integrate alike.  Values are elementwise in
    the directions, each one's facet terms summed along its own row."""

    def __init__(self, P: Polytope):
        self.vertices, self.areas, self.volume = P.vertices, P.facet_areas, intrinsic_volumes(P)[3]
        self.normals = np.ascontiguousarray(P.facet_normals.T)            # (3, F)
        # per direction: itself, the vertices' projections, the (F, m) arrays; the arcs
        self.sample_bytes = 8 * (2 * len(P.vertices) + 16 * len(self.areas) + 19)
        self.piece_bytes = self.sample_bytes + 8 * (24 * len(self.areas) + 16)

    def widths(self, a: np.ndarray) -> np.ndarray:
        """2 int V_0 ds = 2 (h(a) + h(-a)) per normal a (m,), from the
        elementwise projections of the vertices (`_dots`)."""
        proj = _dots(a, self.vertices.T)
        return 2.0 * (proj.max(axis=1) - proj.min(axis=1))

    def _sines(self, a: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """n_F x a (three (F, m) coordinate arrays) and its length, the sine
        of the angle of n_F and a."""
        c = _cross(self.normals[:, :, None], a.T)
        return c, np.sqrt(c[0] * c[0] + c[1] * c[1] + c[2] * c[2])

    def mean_widths(self, a: np.ndarray) -> np.ndarray:
        """2 int V_1 ds = sum_F A_F |n_F x a| per normal a (m,)."""
        return _row_sums(self._sines(a)[1], self.areas)

    def hits(self, u: np.ndarray) -> np.ndarray:
        """2 int V_0 dp = sum_F A_F |n_F . u| per direction u (m,)."""
        return _row_sums(np.abs(_dots(u, self.normals)).T, self.areas)

    def plane_pieces(self, a: np.ndarray, degrees) -> MeasurePieces:
        """The area measures of the sections by the planes of normal a,
        integrated: S_1 the quarter arcs a -> m_F -> -a of density
        A_F |n_F x a| per facet with n_F x a != 0, m_F = unit(a x (n_F x a))
        the outward normal of its segments; S_2 the atoms +-a of mass
        2 V_3(P) (Cavalieri); and twice the width in place of the hit.
        Only the measures of the given degrees are built, the others left
        empty."""
        m = len(a)
        s1, s2 = AreaMeasure(1, bodies=m), AreaMeasure(2, bodies=m)
        if 1 in degrees:
            c, sin = self._sines(a)
            rows, facet = np.nonzero(sin.T > 0.0)
            ar = np.take(a, rows, axis=0)
            m_f = _unit(np.stack(_cross(ar.T, [x[facet, rows] for x in c]), axis=1))
            s1 = AreaMeasure(1, bodies=m, arcs=Arcs(
                np.repeat(rows, 2), np.stack([ar, m_f], axis=1).reshape(-1, 3),
                np.stack([m_f, -ar], axis=1).reshape(-1, 3),
                np.repeat(self.areas[facet] * sin[facet, rows], 2)))
        if 2 in degrees:
            s2 = AreaMeasure(2, bodies=m, atoms=Atoms(
                np.repeat(np.arange(m), 2), np.stack([a, -a], axis=1).reshape(-1, 3),
                np.full(2 * m, 2.0 * self.volume)))
        return MeasurePieces(self.widths(a), s1, s2)

    def line_pieces(self, u: np.ndarray, degrees) -> MeasurePieces:
        """The area measures of the chords along u, integrated: S_1 the
        quarter arcs p1 -> p2 -> -p1 -> -p2 -> p1 orthogonal to u, (p1, p2)
        of _plane_basis, of density V_3(P) (Fubini), built where degree 1
        is asked for; and the hits' integral."""
        m = len(u)
        s1 = AreaMeasure(1, bodies=m)
        if 1 in degrees:
            p1, p2 = _plane_basis(u)
            ring = np.stack([p1, p2, -p1, -p2], axis=1)       # (m, 4, 3)
            s1 = AreaMeasure(1, bodies=m, arcs=Arcs(
                np.repeat(np.arange(m), 4), ring.reshape(-1, 3),
                np.roll(ring, -1, axis=1).reshape(-1, 3), np.full(4 * m, self.volume)))
        return MeasurePieces(self.hits(u), s1, AreaMeasure(2, bodies=m))

    def moments(self, a: np.ndarray, w: np.ndarray, kmax: int) -> np.ndarray:
        """The moments int P_k(v . w) dS_1(v), k <= kmax, of the sections by
        the planes of normal a, integrated as above (m, kmax + 1):
        sum_F A_F |n_F x a| H_k(a . w, m_F . w), with
        H_k(x, y) = int_0^pi P_k(x cos t + y sin t) dt the moment of the half
        circle a -> m_F -> -a.  With w = x a + y m_F + z e, e = a x m_F,
        an even moment is half the circle's, H_k = pi P_k(0) P_k(z) (the
        addition theorem), and an odd one is H_k = y G_k: integrating the
        Legendre recurrence by parts along the half circle gives, for even k,

            (k + 1) T_k = 2 P_k(x) - z^2 D_k + k G_(k-1),
            (k + 1) G_(k+1) = (2k + 1) T_k - k G_(k-1),

        G_1 = 2, D_k = sum_(odd l < k) (2l + 1) G_l: stable up to degree 512."""
        c, sin = self._sines(a)
        wa = _cross(w, a.T)
        ys = c[0] * wa[0] + c[1] * wa[1] + c[2] * wa[2]               # |n_F x a| y
        z = np.divide(c[0] * w[0] + c[1] * w[1] + c[2] * w[2], sin,   # -z
                      out=np.zeros_like(sin), where=sin > 0.0)
        z2, out, g_prev, d = z * z, np.empty((len(a), kmax + 1)), 0.0, 0.0
        for k, (p0, px, pz) in enumerate(zip(legendre_rows(3, kmax, 0.0),
                                              legendre_rows(3, kmax, _dots(a, w[:, None])[:, 0]),
                                              legendre_rows(3, kmax, z))):
            if k % 2:
                out[:, k] = _row_sums(ys * g, self.areas)
                g_prev, d = g, d + (2 * k + 1) * g
            else:
                out[:, k] = _row_sums(sin * (math.pi * p0 * pz), self.areas)
                g = ((2 * k + 1) * (2.0 * px - z2 * d + k * g_prev) / (k + 1) - k * g_prev) / (k + 1)
        return out


# -- integrals over the translations of a moving body ------------------------

def _row_sums(terms: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k weights[k] terms[k, t] per sample t, for terms (K, m): the
    products of each sample are laid out as one contiguous row and summed
    along it, whatever the number of samples (reduced along the samples'
    axis, numpy sums a batch of one pairwise and larger ones row by row)."""
    return np.multiply(terms.T, weights, order="C").sum(axis=1)


class TranslativeIntegrals:
    """For rotations R, the integrals over all translations x of functionals
    of P n (R L + x), in closed form: the translative integral formulas
    (Schneider & Weil, Stochastic and Integral Geometry, 2008, ch. 6;
    Schneider, Convex Bodies, 2nd ed. 2014, ch. 5).  With A_F the facet
    areas and n_F the outward facet normals of P, A_G and n_G those of L,
    and theta_FG the angle between n_F and R n_G,

        int V_0 dx = vol(P - R L) = V_3(P) + V_3(L) + sum_F A_F h_(-RL)(n_F)
                                    + sum_G A_G h_P(-R n_G),
        int V_1 dx = V_1(P) V_3(L) + V_3(P) V_1(L)
                     + 1/(2 pi) sum_(F,G) A_F A_G sin(theta_FG) theta_FG,

    where the facet pair F, R G + x meets in a segment whose length
    integrates to A_F A_G sin(theta_FG) over x, on an edge of exterior angle
    theta_FG.  The area measures integrate alike (`pieces`).  Support
    functions are taken about each body's vertex centroid, so that every
    term is non-negative and no large offsets cancel; each rotation's terms
    are products summed along its own row, never by a BLAS product, so that
    the values depend neither on the batch nor on the BLAS threads."""

    def __init__(self, P: Polytope, L: Polytope):
        ivp, ivl = intrinsic_volumes(P), intrinsic_volumes(L)
        self.volume_p, self.volume_l = ivp[3], ivl[3]
        self.volume_sum = ivp[3] + ivl[3]
        self.v1_sum = ivp[1] * ivl[3] + ivp[3] * ivl[1]
        self.v_p = P.vertices - P.vertices.mean(axis=0)
        self.v_l = L.vertices - L.vertices.mean(axis=0)
        self.n_p, self.n_l = P.facet_normals, L.facet_normals
        self.a_p, self.a_l = P.facet_areas, L.facet_areas
        self.pair_areas = np.multiply.outer(self.a_p, self.a_l)         # (F_P, F_L)
        # S_1 and S_2 of P scaled by V_3(L), and of L by V_3(P)
        self.s_p, self.s_l = ({i: area_measure(B, i).scaled_mass(c) for i in (1, 2)}
                              for B, c in ((P, self.volume_l), (L, self.volume_p)))
        fp, fl, vp, vl = len(self.a_p), len(self.a_l), len(self.v_p), len(self.v_l)
        el = len(self.s_l[1].arcs.density)
        # temporaries per rotation: its matrix and draws (13 doubles), the turned
        # normals of both bodies, the (V_L, F_P) and (V_P, F_L) projections,
        # and the (F_P, F_L) arrays of the facet pairs
        self.sample_bytes = 8 * (13 + 6 * (fp + fl) + 2 * (fp * vl + fl * vp) + 6 * fp * fl)
        # and in pieces(), per rotation: the arcs of the edges of L and of
        # the facet pairs, and the atoms of the facets of L
        self.piece_bytes = 8 * (16 * (el + fp * fl) + 10 * fl)

    def _turned(self, R: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """The entries (3, 3, m) of the rotations R (m, 3, 3), each entry's
        row contiguous, and the coordinates g of the turned normals R n_G of
        L (three (F_L, m) arrays), by `_dots`.  Rotations run along the last
        axis, here and in the arrays built from these."""
        entries = np.ascontiguousarray(R.transpose(1, 2, 0))
        return entries, [_dots(self.n_l, row) for row in entries]

    def _volumes(self, entries: np.ndarray, g: list[np.ndarray]) -> np.ndarray:
        """vol(P - R L) (m,), given the rotations' entries and the turned
        normals g (`_turned`): h_(-RL)(n_F) = -min_w (R^T n_F) . w over the
        vertices w of L, and h_P(-R n_G) = -min_v (R n_G) . v over those of
        P, from the (V, F, m) projections."""
        turned_p = [_dots(self.n_p, entries[:, i]) for i in range(3)]    # R^T n_F
        low_l = _dots(self.v_l, turned_p).min(axis=0)                   # (F_P, m)
        low_p = _dots(self.v_p, g).min(axis=0)                          # (F_L, m)
        return self.volume_sum - _row_sums(low_l, self.a_p) - _row_sums(low_p, self.a_l)

    def volumes(self, R: np.ndarray) -> np.ndarray:
        """int V_0(P n (R L + x)) dx = vol(P - R L), per rotation (m,)."""
        return self._volumes(*self._turned(R))

    def _pair_sines(self, g: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """sin and cos of theta_FG (F_P, F_L, m), |n_F x R n_G| and
        n_F . R n_G, given the coordinates g of R n_G."""
        sin, y, z = _cross([x[:, None, None] for x in self.n_p.T], g)
        sin *= sin
        sin += np.square(y, out=y)
        sin += np.square(z, out=z)
        del y, z
        return np.sqrt(sin, out=sin), _dots(self.n_p, g)

    def mean_widths(self, R: np.ndarray) -> np.ndarray:
        """int V_1(P n (R L + x)) dx, per rotation (m,)."""
        sin, cos = self._pair_sines(self._turned(R)[1])
        term = np.arctan2(sin, cos)
        term *= sin
        return (self.v1_sum
                + _row_sums(term.reshape(-1, len(R)), self.pair_areas.ravel()) / (2.0 * math.pi))

    def pieces(self, R: np.ndarray, degrees) -> MeasurePieces:
        """The integrals over x of the area measures of P n (R L + x), per
        rotation, as pieces, less those of P's own faces (`fixed_pieces`):
        S_1 and S_2 of L scaled by V_3(P) and turned by R, the arcs of the
        edges of R L (density l / 2) and the atoms A_G V_3(P) at R n_G, and
        per facet pair the arc n_F -> R n_G of density
        A_F A_G sin(theta_FG) / 2 (S_1); only the measures of the given
        degrees are built, the others left empty.  `hit` carries
        int V_0 dx = vol(P - R L), and `volume` int V_3 dx = V_3(P) V_3(L).
        Each rotation's pieces run in that order, whatever the batch."""
        m = len(R)
        entries, g = self._turned(R)
        turned = np.stack(g, axis=-1).transpose(1, 0, 2)              # (m, F_L, 3)
        fp, fl = len(self.a_p), len(self.a_l)
        s1, s2 = AreaMeasure(1, bodies=m), AreaMeasure(2, bodies=m)
        if 1 in degrees:
            sin, _ = self._pair_sines(g)
            sin *= 0.5 * self.pair_areas[:, :, None]
            arcs = self.s_l[1].arcs
            # the arcs' ends turned by the _dots of _turned, (m, E_L, 3)
            a, b = (np.stack([_dots(end, row) for row in entries], axis=-1).transpose(1, 0, 2)
                    for end in (arcs.a, arcs.b))
            a = np.concatenate([a, np.broadcast_to(
                np.repeat(self.n_p, fl, axis=0), (m, fp * fl, 3))], axis=1)
            b = np.concatenate([b, np.broadcast_to(
                turned[:, None], (m, fp, fl, 3)).reshape(m, -1, 3)], axis=1)
            density = np.concatenate([np.broadcast_to(arcs.density, (m, len(arcs.density))),
                                      sin.reshape(-1, m).T], axis=1)
            s1 = AreaMeasure(1, bodies=m, arcs=Arcs(
                np.repeat(np.arange(m), density.shape[1]), a.reshape(-1, 3), b.reshape(-1, 3),
                density.ravel()))
        if 2 in degrees:   # the atoms' normals are those of L's facets, turned in g
            s2 = AreaMeasure(2, bodies=m, atoms=Atoms(
                np.repeat(np.arange(m), fl), turned.reshape(-1, 3),
                np.tile(self.s_l[2].atoms.mass, m)))
        return MeasurePieces(self._volumes(entries, g), s1, s2,
                             np.full(m, self.volume_p * self.volume_l))

    def fixed_pieces(self, degrees) -> MeasurePieces:
        """The pieces that `pieces` leaves out, the same for every rotation,
        as one body: S_1 and S_2 of P scaled by V_3(L), of the given
        degrees, with no hit and no volume."""
        s1, s2 = (replace(self.s_p[i], bodies=1) if i in degrees else AreaMeasure(i, bodies=1)
                  for i in (1, 2))
        return MeasurePieces(np.zeros(1), s1, s2)


def crofton_target(P: Polytope, i: int, j: int) -> float:
    """Analytic value [i+j; j] V_(i+j)(P) of the Crofton integral."""
    return flag(i + j, j) * intrinsic_volumes(P)[i + j]


def check_full_dimensional(*bodies: Polytope) -> None:
    """Monte-Carlo sampling reads the bodies' facets: each must be full-dimensional."""
    for B in bodies:
        if B.dim != 3:
            raise ValueError("Monte-Carlo sampling needs full-dimensional bodies, "
                             f"got dimension {B.dim}")


def _intrinsic_kernel(P: Polytope, j: int, i: int):
    """The term of V_j at codimension i: its law, the kernel that maps the
    law's samples to V_j of their sections with P, and its temporary bytes
    per sample.  Where i + j < n the law draws directions only, and the
    kernel integrates over the offsets in closed form (`FlatIntegrals`);
    else the kernel draws its flats' offsets in a window about P and
    weights each value by the window's measure."""
    if i + j < 3:
        flats = FlatIntegrals(P)
        kernel = {(1, 0): flats.widths, (1, 1): flats.mean_widths, (2, 0): flats.hits}[i, j]
        return DIRECTIONS, kernel, flats.sample_bytes
    if i == 1:
        sections = PlaneSections(P)
        return PLANES, sections.areas, sections.sample_bytes
    kernel = _LineChords(P) if i == 2 else _BoxPoints(P)
    return LINES if i == 2 else POINTS, kernel, kernel.sample_bytes


def crofton_intrinsic(P: Polytope, i: int, j: int, n_samples: int, seed: int,
                      shards: int = DEFAULT_SHARDS) -> EstimateReport:
    """Monte-Carlo estimate of the integral of V_j over the codimension-i
    planes meeting P, against the target [i+j; j] V_(i+j)(P), over their
    directions only where i + j < n (`FlatIntegrals`), else with their
    offsets drawn about P (`_intrinsic_kernel`)."""
    n = 3
    if not (0 <= j and 1 <= i and i + j <= n):
        raise ValueError(f"need i >= 1, j >= 0, i + j <= {n}; got i={i}, j={j}")
    check_full_dimensional(P)
    t0 = time.perf_counter()
    law, kernel, sample_bytes = _intrinsic_kernel(P, j, i)
    est, se = run_shards(law, kernel, sample_bytes, seed, n_samples, shards)
    return EstimateReport(
        estimate=float(est), stderr=float(se), target=crofton_target(P, i, j),
        n_samples=n_samples, seed=seed, wall_time_s=time.perf_counter() - t0,
        extra={"i": i, "j": j, "shards": shards})


# -- kinematic formula --------------------------------------------------------

def kinematic_target(P: Polytope, L: Polytope, j: int) -> float:
    """Right side of the principal kinematic formula:
    sum_i [i+j; j] [n; i]^(-1) V_(i+j)(P) V_(n-i)(L)."""
    n = 3
    vp, vl = intrinsic_volumes(P), intrinsic_volumes(L)
    return float(sum(flag(i + j, j) / flag(n, i) * vp[i + j] * vl[n - i]
                     for i in range(0, n - j + 1)))


def kinematic_check(P: Polytope, L: Polytope, j: int, n_samples: int, seed: int,
                    shards: int = DEFAULT_SHARDS) -> EstimateReport:
    """Monte-Carlo check of the principal kinematic formula: average of
    V_j(P n gL) over rigid motions g against the bilinear target.

    Only the rotations are drawn (`ROTATIONS`); the integral over the
    translations is taken in closed form for each (`TranslativeIntegrals`):
    vol(P - R L) for j = 0 and the facet pairs' angles for j = 1.  For
    j = 2, 3 that integral, V_j(P) V_3(L) + V_3(P) V_j(L), does not depend
    on the rotation: the estimate is the target, with stderr 0."""
    n = 3
    if not 0 <= j <= n:
        raise ValueError(f"need 0 <= j <= {n}")
    check_full_dimensional(P, L)
    _check_shards(n_samples, shards)
    t0 = time.perf_counter()
    target = kinematic_target(P, L, j)
    if j >= 2:
        est, se = target, 0.0
    else:
        integrals = TranslativeIntegrals(P, L)
        est, se = run_shards(ROTATIONS, integrals.volumes if j == 0 else integrals.mean_widths,
                             integrals.sample_bytes, seed, n_samples, shards)
    return EstimateReport(
        estimate=float(est), stderr=float(se), target=target,
        n_samples=n_samples, seed=seed, wall_time_s=time.perf_counter() - t0,
        extra={"j": j, "shards": shards})


def _hadwiger(P: Polytope, L: Polytope, lhs: float, lhs_se: float, degree: int, on_P: float,
              on_point: float, kernel_of, seed: int, n_samples: int, shards: int) -> dict:
    """The Crofton side of the Hadwiger decomposition (see hadwiger_check)
    of an integrand f that vanishes on bodies of dimension below `degree`,
    against the motion integral lhs +- lhs_se.  The terms run for
    i = 0..n - degree: i = 0 is f(P) = on_P and i = n is on_point V_n(P),
    both exact; the planes and lines between run at seed + i under the law,
    with the kernel and bytes per sample, of kernel_of(i)."""
    n = 3
    vl = intrinsic_volumes(L)
    rhs, rhs_var, terms = 0.0, 0.0, []
    for i in range(n - degree + 1):
        if i == 0:
            est, se = on_P, 0.0
        elif i == n:
            est, se = on_point * intrinsic_volumes(P)[n], 0.0
        else:
            est, se = map(float, run_shards(*kernel_of(i), seed + i, n_samples, shards))
        coef = vl[n - i] / flag(n, i)
        rhs += coef * est
        rhs_var += (coef * se) ** 2
        terms.append({"i": i, "estimate": est, "stderr": se, "coef": coef})
    combined = math.sqrt(lhs_se ** 2 + rhs_var)
    ok = agrees(lhs - rhs, 3.0 * combined, abs(lhs) + abs(rhs))
    return {"rhs": rhs, "rhs_stderr": math.sqrt(rhs_var), "combined_stderr": combined,
            "difference": lhs - rhs, "consistent_3sigma": ok, "terms": terms}


def hadwiger_check(P: Polytope, L: Polytope, j: int, n_samples: int, seed: int,
                   shards: int = DEFAULT_SHARDS) -> dict:
    """Consistency of the kinematic integral (`kinematic_check`) with its
    Hadwiger decomposition into Crofton integrals:

        int V_j(P n gL) dg = sum_i V_(n-i)(L) [n; i]^(-1)
                             int V_j(P n E) dsigma_(n-i)(E),   i = 0..n-j.

    The i = 0 term V_j(P) and, for j = 0, the i = n term V_n(P) are exact;
    the plane and line terms are estimated as by `crofton_intrinsic`, over
    directions only where i + j < n.  The
    report carries the terms and the combined standard error."""
    lhs = kinematic_check(P, L, j, n_samples, seed, shards=shards)
    side = _hadwiger(P, L, lhs.estimate, lhs.stderr, j, intrinsic_volumes(P)[j], float(j == 0),
                     functools.partial(_intrinsic_kernel, P, j), seed, n_samples, shards)
    return {"lhs": lhs, **side, "target": lhs.target}


def _valuation_kernel(P: Polytope, value: PieceEvaluator, i: int):
    """The law of the directions of planes (i = 1) or lines (i = 2), the
    kernel that maps them to the valuation's value on the area measures of
    their sections with P integrated over the offsets (`FlatIntegrals`),
    and its bytes per sample."""
    flats = FlatIntegrals(P)
    pieces = flats.plane_pieces if i == 1 else flats.line_pieces
    return DIRECTIONS, (lambda dirs: value(pieces(dirs, value.degrees))), flats.piece_bytes


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
    3-sigma consistency.  Only rotations and directions are drawn: the
    integrals of the area measures over the offsets of each direction's
    flats (`FlatIntegrals`) and the translations of each rotation
    (`TranslativeIntegrals`) come as pieces, against which `PieceEvaluator`
    integrates the valuation's data on the path `evaluate` would take."""
    n = 3
    check_full_dimensional(P, L)
    value = PieceEvaluator(spec, direction)
    u = value.u[None, :]

    t0 = time.perf_counter()
    integrals = TranslativeIntegrals(P, L)
    lhs, lhs_se = run_shards(ROTATIONS, lambda R: value(integrals.pieces(R, value.degrees)),
                             integrals.sample_bytes + integrals.piece_bytes, seed, n_samples,
                             shards)
    lhs += value(integrals.fixed_pieces(value.degrees))[0]
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


def moment_row(k: int, lhs: float, stderr: float, rhs: float, bar: float, mass: float) -> dict:
    """A row of `crofton_minkowski`: it passes within 3 stderr plus the Berg
    bar and rounding of the moments' mass (a row that vanishes is rounding)."""
    return {"k": k, "lhs": float(lhs), "stderr": float(stderr), "rhs": float(rhs),
            "berg_bar": float(bar), "pass": agrees(lhs - rhs, 3.0 * stderr + bar, mass)}


def crofton_minkowski(P: Polytope, mu: ZonalObject, i: int, j: int,
                      n_samples: int, seed: int, degrees=(0, 2, 3, 4),
                      probe=(0.36, -0.48, 0.8),
                      shards: int = DEFAULT_SHARDS, kmax: int = DEFAULT_KMAX) -> dict:
    """Per-harmonic-degree Monte-Carlo check of the Crofton formula for the
    degree-j valuation generated by the zonal measure mu, at codimension i
    (geometric path: n = 3, i = j = 1).

    Both sides are compared through their zonal transfer coefficients
    M_k(w) = int P_k(u . w) d(.)(u) at the probe direction w: the left side
    averages the moments of S_(j+i wedge ...)(P n E) * mu over planes E,
    drawing their normals only (`FlatIntegrals.moments`); the right side is
    q_(n,i,j) a_k[mu] a_k[box berg] M_k[S_(i+j)(P)](w).  Rows
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
    w = _unit(np.asarray(probe, dtype=float))
    t0 = time.perf_counter()
    flats = FlatIntegrals(P)
    moments, se = run_shards(DIRECTIONS, lambda a: flats.moments(a, w, kk),
                             flats.sample_bytes + 8 * (kk + 1), seed, n_samples, shards)
    # moments of S_1(Q) * mu pick up the Funk-Hecke factor of mu per degree
    a_mu = mu.multipliers[:kk + 1]
    est = moments * a_mu
    se = se * np.abs(a_mu)
    # right side: multipliers against the moments of S_2(P), each an exactly
    # rounded sum over the facets, 0 where it vanishes by symmetry
    rhs_obj = crofton_minkowski_rhs(n, i, j, mu, kmax=kmax)
    Mk = [math.fsum(P.facet_areas * pk)
          for pk in legendre_rows(3, kk, _dots(P.facet_normals, w[:, None])[:, 0])]
    rows = []
    for k in degrees:
        rhs = rhs_obj.multipliers[k] * Mk[k]
        bar = (rhs_obj.mult_error[k] * abs(Mk[k])
               if rhs_obj.mult_error is not None else 0.0)
        # |P_k| <= 1: a side's k = 0 moment bounds its degree-k moment
        mass = abs(a_mu[k]) * abs(moments[0]) + abs(rhs_obj.multipliers[k]) * abs(Mk[0])
        rows.append(moment_row(k, est[k], se[k], rhs, bar, mass))
    return {
        "rows": rows,
        "probe": list(map(float, w)),
        "N": n_samples,
        "seed": seed,
        "wall_time_s": time.perf_counter() - t0,
        "all_pass": all(r["pass"] for r in rows),
    }
