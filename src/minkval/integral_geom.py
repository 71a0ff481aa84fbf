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
samples from the k-th spawned seed sequence, a kernel evaluates them in
chunks of bounded memory that may span several shards, and the per-shard
means are reduced in fixed order; the standard error comes from the
per-shard spread.  Results are deterministic in (seed, shards).  Plane
sections of a fixed body use an ordering-free kernel (`PlaneSections`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .constants import crofton_q, flag, kappa
from .convex import (
    Polytope,
    area_measure,
    _distinct_axes,
    intersect,
    intrinsic_volumes,
    section_line,
    section_plane,
)
from .harmonics import legendre_recurrence
from .zonal import DEFAULT_KMAX, ZonalObject, box_j_apply, box_n_apply, builtin_zonal

__all__ = [
    "EstimateReport",
    "PlaneSampler",
    "MotionSampler",
    "PlaneSections",
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
# Bytes of kernel temporaries per chunk of samples (see run_shards).
CHUNK_BYTES = 1 << 20


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
            "z": self.z,
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

    def draw(self, rng: np.random.Generator, m: int) -> tuple[np.ndarray, ...]:
        """m flats: (normals a, offsets s) of planes {x . a = s},
        (directions, points) of lines, or (points,)."""
        R = self.radius
        dirs = _unit_rows(rng.standard_normal((m, 3)))
        if self.codim == 1:
            return dirs, rng.uniform(-R, R, m)
        if self.codim == 3:
            return (dirs * (R * rng.uniform(0.0, 1.0, m) ** (1.0 / 3.0))[:, None],)
        # uniform offsets in the disc of radius R orthogonal to the line
        aux = np.where(np.abs(dirs[:, :1]) < 0.9, [1.0, 0, 0], [0, 1.0, 0])
        e1 = _unit_rows(np.cross(dirs, aux))
        e2 = np.cross(dirs, e1)
        rad = R * np.sqrt(rng.uniform(0.0, 1.0, m))
        ang = rng.uniform(0.0, 2.0 * math.pi, m)
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

    def draw(self, rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
        """m motions x -> R x + t: rotations (m, 3, 3), translations (m, 3)."""
        R = _rotations_from_quaternions(_unit_rows(rng.standard_normal((m, 4))))
        return R, rng.uniform(-self.window / 2.0, self.window / 2.0, (m, 3))


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
    per-shard means, with its standard error.  Shard k draws with
    `sampler.draw` from the k-th spawned seed sequence; `kernel(*draws)` maps
    a chunk of whole shards (or of one large shard) to values (m,) or
    (m, width).  A chunk holds at most CHUNK_BYTES / sample_bytes samples,
    sample_bytes being the kernel's temporary memory per sample."""
    if sampler.shards < 2 or sampler.n_samples < 2 * sampler.shards:
        raise ValueError(f"need shards >= 2 and n_samples >= 2 * shards; got "
                         f"n_samples={sampler.n_samples}, shards={sampler.shards}")
    sizes = _shard_sizes(sampler.n_samples, sampler.shards)
    chunk = max(1, CHUNK_BYTES // sample_bytes)
    sums, parts, first, count = None, [], 0, 0
    for k, rng in enumerate(_shard_rngs(sampler.seed, sampler.shards)):
        parts.append(sampler.draw(rng, sizes[k]))
        count += sizes[k]
        if k + 1 < len(sizes) and count + sizes[k + 1] <= chunk:
            continue
        draws = parts[0] if len(parts) == 1 else [np.concatenate(a) for a in zip(*parts)]
        starts = np.cumsum([0] + sizes[first:k])   # shards first..k within the chunk
        parts = []
        for lo in range(0, count, chunk):  # several pieces only for one large shard
            vals = np.asarray(kernel(*(d[lo:lo + chunk] for d in draws)), dtype=float)
            if sums is None:
                sums = np.zeros((sampler.shards,) + vals.shape[1:])
            sums[first:k + 1] += np.add.reduceat(vals, starts, axis=0)
        first, count = k + 1, 0
    sizes = np.array(sizes, dtype=float).reshape((-1,) + (1,) * (sums.ndim - 1))
    return _reduce_shards(sampler.weight * (sums / sizes))


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
    Points are taken about the vertex centroid; S_1 moments integrate each
    half circle by Gauss-Legendre on `arc_nodes` points."""

    def __init__(self, P: Polytope, arc_nodes: int = 20):
        self.vertices, self.normals = P.vertices, P.facet_normals
        x, wts = np.polynomial.legendre.leggauss(arc_nodes)
        theta = 0.5 * math.pi * (x + 1.0)
        self.arc_cos, self.arc_sin = np.cos(theta), np.sin(theta)
        self.arc_weights = 0.5 * math.pi * wts
        ij = np.array([(i, j) for i, j, _, _ in P.edges])
        self.vi, self.vj = ij[:, 0], ij[:, 1]
        local = P.vertices - P.vertices.mean(axis=0)
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

    def segments(self, a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Facet segments v_F and their midpoints, (m, 3, F) each, of the
        sections by the planes {x . a[t] = s[t]}."""
        m = a.shape[0]
        d = a @ self.vertices.T - s[:, None]                  # (m, V)
        above = d > 1e-12
        c = (above[:, self.vi].astype(float) - above[:, self.vj])[:, None, :]
        di, dj = d[:, self.vi], d[:, self.vj]
        lam = np.divide(di, di - dj, out=np.zeros_like(di), where=c[:, 0] != 0)
        p = self.start + np.clip(lam, 0.0, 1.0)[:, None, :] * self.step  # (m, 3, E)
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
        # Legendre values and two derivatives of one half circle's nodes
        per_call = max(1, CHUNK_BYTES // (24 * (kmax + 1) * self.arc_cos.size))
        for lo in range(0, rows.size, per_call):
            part = slice(lo, lo + per_call)
            # points u(theta) = cos(theta) a + sin(theta) m_F
            dots = (self.arc_cos[None, :] * (ar[part] @ w)[:, None]
                    + self.arc_sin[None, :] * (m_f[part] @ w)[:, None])
            Pk, _, _ = legendre_recurrence(3, kmax, np.clip(dots, -1, 1).ravel())
            arc = Pk.reshape(kmax + 1, *dots.shape) @ self.arc_weights
            np.add.at(out, rows[part], (arc * (0.5 * length[rows[part], cols[part]])).T)
        return out


def crofton_target(P: Polytope, i: int, j: int) -> float:
    """Analytic value [i+j; j] V_(i+j)(P) of the Crofton integral."""
    return flag(i + j, j) * intrinsic_volumes(P)[i + j]


def crofton_intrinsic(P: Polytope, i: int, j: int, n_samples: int, seed: int,
                      radius: float | None = None,
                      shards: int = DEFAULT_SHARDS) -> EstimateReport:
    """Monte-Carlo estimate of the integral of V_j over the codimension-i
    planes meeting P, against the target [i+j; j] V_(i+j)(P)."""
    n = 3
    if not (0 <= j and 1 <= i and i + j <= n):
        raise ValueError(f"need i >= 1, j >= 0, i + j <= {n}; got i={i}, j={j}")
    if P.dim != 3:
        raise ValueError("crofton sampling expects a full-dimensional body")
    R = P.enclosing_radius * (1.0 + 1e-12) if radius is None else radius
    sampler = PlaneSampler(n=n, codim=i, radius=R, seed=seed,
                           n_samples=n_samples, shards=shards)
    t0 = time.perf_counter()
    A, b = P.inequalities()
    AT = np.ascontiguousarray(A.T)         # (3, F): faster products than the view
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
        def kernel(dirs, p):
            den = dirs @ AT                        # (m, F)
            num = b[None, :] - p @ AT
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = num / den
            hi = np.where(den > 1e-12, ratio, math.inf).min(axis=1)
            lo = np.where(den < -1e-12, ratio, -math.inf).max(axis=1)
            feasible = ~np.any((np.abs(den) <= 1e-12) & (num < -1e-12), axis=1)
            hit = feasible & (hi >= lo)
            return hit if j == 0 else np.where(hit, np.clip(hi - lo, 0.0, None), 0.0)
        sample_bytes = 8 * (8 * len(b) + 16)
    else:  # i == 3: points
        bound = b + 1e-12

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


def _sat_batch(vp: np.ndarray, axesP: np.ndarray, dirsP: np.ndarray,
               vl: np.ndarray, axesL: np.ndarray, dirsL: np.ndarray,
               R: np.ndarray, x: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Vectorized separating-axis test: does P intersect R@L + x, per sample."""
    m = R.shape[0]
    vlw = np.einsum("mij,vj->mvi", R, vl) + x[:, None, :]     # (m, VL, 3)
    hit = np.ones(m, dtype=bool)
    # fixed axes of P
    pp = vp @ axesP.T                                          # (VP, A)
    plo, phi = pp.min(axis=0), pp.max(axis=0)
    ql = np.einsum("ai,mvi->mav", axesP, vlw)                  # (m, A, VL)
    hit &= ~np.any((ql.min(axis=2) > phi[None, :] + tol)
                   | (ql.max(axis=2) < plo[None, :] - tol), axis=1)
    # axes carried by L (rotated facet normals)
    axL = np.einsum("mij,aj->mai", R, axesL)                   # (m, AL, 3)
    # axes from edge-direction cross products
    crs = np.cross(dirsP[None, :, None, :],
                   np.einsum("mij,ej->mei", R, dirsL)[:, None, :, :])
    crs = crs.reshape(m, -1, 3)
    axall = np.concatenate([axL, crs], axis=1)                 # (m, AA, 3)
    pp2 = np.einsum("mai,vi->mav", axall, vp)                  # (m, AA, VP)
    qq2 = np.einsum("mai,mvi->mav", axall, vlw)                # (m, AA, VL)
    nrm = np.linalg.norm(axall, axis=2)
    valid = nrm > 1e-12
    sep = ((qq2.min(axis=2) > pp2.max(axis=2) + tol * nrm)
           | (qq2.max(axis=2) < pp2.min(axis=2) - tol * nrm)) & valid
    hit &= ~np.any(sep, axis=1)
    return hit


def kinematic_check(P: Polytope, L: Polytope, j: int, n_samples: int, seed: int,
                    shards: int = DEFAULT_SHARDS,
                    window: float | None = None) -> EstimateReport:
    """Monte-Carlo check of the principal kinematic formula: average of
    V_j(P n gL) over rigid motions g against the bilinear target.

    j = 0 runs a vectorized exact separating-axis test; j >= 1 clips the
    moving body and evaluates intrinsic volumes per sample (slower)."""
    n = 3
    if not 0 <= j <= n:
        raise ValueError(f"need 0 <= j <= {n}")
    if P.dim != 3 or L.dim != 3:
        raise ValueError("kinematic sampling expects full-dimensional bodies")
    safe = 2.0 * (P.enclosing_radius + L.enclosing_radius)
    W = window if window is not None else safe
    sampler = MotionSampler(n=n, window=W, seed=seed, n_samples=n_samples, shards=shards)
    t0 = time.perf_counter()
    axesP, axesL = _distinct_axes(P.facet_normals), _distinct_axes(L.facet_normals)
    dirsP, dirsL = P.edge_directions(), L.edge_directions()
    boundary_hits = 0

    def kernel(R, x):
        nonlocal boundary_hits
        if j == 0:
            hits = _sat_batch(P.vertices, axesP, dirsP,
                              L.vertices, axesL, dirsL, R, x)
            vals = hits.astype(float)
        else:
            m = R.shape[0]
            vals = np.zeros(m)
            hits = np.zeros(m, dtype=bool)
            for t in range(m):
                moved = Polytope.from_vertices(L.vertices @ R[t].T + x[t])
                body = intersect(moved, P)
                if not body.is_empty:
                    hits[t] = True
                    vals[t] = intrinsic_volumes(body)[j]
        shell = np.max(np.abs(x), axis=1) >= 0.98 * (W / 2.0)
        boundary_hits += int(np.count_nonzero(hits & shell))
        return vals

    # the (m, axes, vertices) arrays of the separating-axis test dominate
    axes = len(axesP) + len(axesL) + len(dirsP) * len(dirsL)
    est, se = run_shards(sampler, kernel, 8 * axes * (len(P.vertices) + len(L.vertices) + 12))
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
    vl = intrinsic_volumes(L)
    rhs = vl[n] * intrinsic_volumes(P)[j]  # i = 0: the whole space
    rhs_var = 0.0
    terms = [{"i": 0, "estimate": intrinsic_volumes(P)[j], "stderr": 0.0,
              "coef": vl[n]}]
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
        "target": kinematic_target(P, L, j),
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
    states their 3-sigma consistency."""
    from .valuation import evaluate  # deferred: valuation builds on this module's siblings

    n = 3
    if P.dim != 3 or L.dim != 3:
        raise ValueError("kinematic sampling expects full-dimensional bodies")
    u = np.asarray(direction, dtype=float)
    u = (u / np.linalg.norm(u))[None, :]

    def phi(body) -> float:
        return 0.0 if body.is_empty else float(evaluate(spec, body, u).values[0])

    def motions(R, x):
        return [phi(intersect(Polytope.from_vertices(L.vertices @ Rt.T + xt), P))
                for Rt, xt in zip(R, x)]

    def planes(dirs, offs):
        return [phi(section_plane(P, s * a, normal=a)) for a, s in zip(dirs, offs)]

    def lines(dirs, p):
        return [phi(section_line(P, pt, a)) for a, pt in zip(dirs, p)]

    t0 = time.perf_counter()
    W = 2.0 * (P.enclosing_radius + L.enclosing_radius)
    # one body per sample: the chunks only hold the draws
    lhs, lhs_se = run_shards(MotionSampler(n=n, window=W, seed=seed, n_samples=n_samples,
                                           shards=shards), motions, 96)

    vl = intrinsic_volumes(L)
    rhs = vl[n] * phi(P)                       # i = 0
    rhs += vl[0] * spec.c0 * intrinsic_volumes(P)[n]  # i = n: points keep c0
    rhs_var = 0.0
    R_enc = P.enclosing_radius * (1.0 + 1e-12)
    for i, kernel in ((1, planes), (2, lines)):
        sampler = PlaneSampler(n=n, codim=i, radius=R_enc, seed=seed + i,
                               n_samples=n_samples, shards=shards)
        est_i, se_i = run_shards(sampler, kernel, 96)
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
                      probe=(0.36, -0.48, 0.8), radius: float | None = None,
                      shards: int = DEFAULT_SHARDS, arc_nodes: int = 20,
                      kmax: int = DEFAULT_KMAX) -> dict:
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
    w = np.asarray(probe, dtype=float)
    w = w / np.linalg.norm(w)
    R = P.enclosing_radius * (1.0 + 1e-12) if radius is None else radius
    sampler = PlaneSampler(n=n, codim=i, radius=R, seed=seed,
                           n_samples=n_samples, shards=shards)
    t0 = time.perf_counter()
    sections = PlaneSections(P, arc_nodes)
    kernel = partial(sections.s1_moments, w=w, kmax=kk)
    est, se = run_shards(sampler, kernel, sections.sample_bytes + 8 * (kk + 1))
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
