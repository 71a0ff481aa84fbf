"""The ordering-free plane-section kernel's areas, and the dense-incidence
kernel it replaced (tests/flat_reference.py, with the perimeters, pieces and
S_1 moments that the old laws' pins run on), against the section polygons
of convex.section_plane and against each other, and the sharded
Monte-Carlo loop run_shards: pinned estimates, the chunked run against the
whole run drawn and evaluated in one step, input checks and bounded memory,
also of one kernel call."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from minkval.convex import (
    Polytope,
    area_measure,
    cube,
    intrinsic_volumes,
    random_hull,
    section_plane,
)
from minkval import integral_geom
from minkval.constants import CHUNK_BYTES
from minkval.convex import _dots, _extent, _unit
from minkval.integral_geom import (
    DIRECTIONS,
    LINES,
    PLANES,
    POINTS,
    ROTATIONS,
    FlatIntegrals,
    Law,
    PlaneSections,
    TranslativeIntegrals,
    _BoxPoints,
    _intrinsic_kernel,
    _LineChords,
    _shard_sizes,
    _valuation_kernel,
    crofton_intrinsic,
    crofton_minkowski,
    kinematic_check,
    run_shards,
)
from minkval.valuation import MeasurePieces, PieceEvaluator, builtin_spec
from minkval.zonal import ZonalObject

from flat_reference import IID_ROTATIONS, BallFlats, DenseSections
from motion_reference import BoxMotions

KMAX = 4
PROBE = np.array([0.36, -0.48, 0.8])

BASES = {"cube": cube(), "hull14": random_hull(77), "hull30": random_hull(5, 30)}
# (scale, shift) of the copies the kernel runs on; section_plane cuts the base
# body
COPIES = {"unit": (1.0, 0.0), "small": (1e-3, 0.0), "large": (1e3, 0.0), "far": (1.0, 1e3)}
SHIFT = np.array([1.0, -1.0, 1.0])
BODIES = {(b, c): P.scaled(lam).translated(shift * SHIFT)
          for b, P in BASES.items() for c, (lam, shift) in COPIES.items()}
SECTIONS = {key: PlaneSections(P) for key, P in BODIES.items()}
REFERENCE = {key: DenseSections(P) for key, P in BODIES.items()}


def areas(key, a, s):
    """The kernel's areas of the sections of BODIES[key] by the planes
    {x . a[t] = s[t]}, from the reference's distances of the vertices."""
    return SECTIONS[key]._areas(a, REFERENCE[key].distances(a, s))


unit_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(lambda v: v / np.linalg.norm(v))


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from(sorted(BASES)), copy=st.sampled_from(sorted(COPIES)),
       a=unit_vectors, t=st.floats(0.02, 0.98))
def test_sections_match_section_polygon(base, copy, a, t):
    P = BASES[base]
    lam, shift = COPIES[copy]
    size = float(np.linalg.norm(np.ptp(P.vertices, axis=0)))
    proj = P.vertices @ a
    s = proj.min() + t * (proj.max() - proj.min())
    # section_plane snaps vertices within 1e-9 of the body's extent of the
    # plane; keep away from vertices so both sides cut the same polygon
    assume(np.min(np.abs(proj - s)) > 1e-6 * size)
    Q = section_plane(P, s * a, normal=a)
    assert Q.dim == 2
    ref = intrinsic_volumes(Q)
    # the same plane relative to the copy lam * P + shift
    sections = REFERENCE[base, copy]
    planes = a[None, :], np.array([lam * s + shift * a @ SHIFT])
    v1, v2 = sections.volumes(*planes)
    assert abs(v1[0] / lam - ref.v1) <= 1e-9 * size
    assert abs(v2[0] / lam ** 2 - ref.v2) <= 1e-9 * size ** 2
    assert abs(areas((base, copy), *planes)[0] / lam ** 2 - ref.v2) <= 1e-9 * size ** 2
    for kmax in (KMAX, 24):   # 24: where a 20-node Gauss rule per half circle erred by 1e-2
        expect = area_measure(Q, 1).zonal_moments(PROBE[None, :], kmax)[:, 0]
        moments = sections.s1_moments(*planes, PROBE, kmax)[0] / lam
        assert np.allclose(moments, expect, rtol=0.0, atol=1e-9 * size), kmax


@settings(max_examples=100, deadline=None)
@given(base=st.sampled_from(sorted(BASES)), a=unit_vectors, t=st.floats(0.02, 0.98))
def test_sections_of_small_body_match_its_section_polygon(base, a, t):
    # section_plane cuts the copy of size 1e-3 itself
    P = BODIES[base, "small"]
    size = float(np.linalg.norm(np.ptp(P.vertices, axis=0)))
    proj = P.vertices @ a
    s = proj.min() + t * (proj.max() - proj.min())
    # section_plane snaps vertices within 1e-9 of the body's extent of the plane
    assume(np.min(np.abs(proj - s)) > 1e-5 * size)
    Q = section_plane(P, s * a, normal=a)
    assert Q.dim == 2
    ref = intrinsic_volumes(Q)
    v1, v2 = REFERENCE[base, "small"].volumes(a[None, :], np.array([s]))
    assert abs(v1[0] - ref.v1) <= 1e-9 * size
    assert abs(v2[0] - ref.v2) <= 1e-9 * size ** 2
    assert abs(areas((base, "small"), a[None, :], np.array([s]))[0] - ref.v2) <= 1e-9 * size ** 2


def test_sections_of_far_body_match_sections_about_its_centre():
    # planes {x . a = s} with s - a . centre = t exactly (a . centre taken
    # as the kernel takes it), t on a grid of 2^-20 and 1e-4 clear of the
    # vertices: the same planes for the cube shifted by SHIFT * 1e3 and for
    # the cube centred at the origin.  With signed distances taken in world
    # coordinates the volumes differed by up to 4.5e-12.
    near = Polytope.from_vertices(cube().vertices - 0.5)
    far = Polytope.from_vertices(cube().vertices + 1e3 * SHIFT)
    centre = far.vertices.mean(axis=0)
    rng = np.random.default_rng(12)
    a = rng.standard_normal((4000, 3))
    a /= np.linalg.norm(a, axis=1)[:, None]
    t = np.round(rng.uniform(-0.9, 0.9, len(a)) * 2 ** 20) / 2 ** 20
    along = _dots(a, centre[:, None])[:, 0]
    s = along + t
    keep = (s - along == t) & (np.abs(a @ near.vertices.T - t[:, None]).min(axis=1) > 1e-4)
    a, s, t = a[keep], s[keep], t[keep]
    near_sections, far_sections = DenseSections(near), DenseSections(far)
    assert np.abs(np.subtract(far_sections.volumes(a, s), near_sections.volumes(a, t))).max() <= 1e-12
    assert np.array_equal(PlaneSections(far)._areas(a, far_sections.distances(a, s)),
                          far_sections.volumes(a, s)[1])
    rows, pts = far_sections.crossings(a, s)
    near_rows, near_pts = near_sections.crossings(a, t)
    assert np.array_equal(rows, near_rows)
    assert np.abs(pts - (centre - near.vertices.mean(axis=0)) - near_pts).max() <= 1e-12


def test_section_plane_of_far_body_matches_section_about_its_centre():
    # planes through centre + t a, with a and t on a grid of 2^-20, so that
    # point - centre = t a exactly: the same planes for the cube shifted by
    # SHIFT * 1e3 and for the cube centred at the origin.  With signed
    # distances taken in world coordinates V_1 and V_2 of the sections
    # differed by up to 1.4e-11.
    near = Polytope.from_vertices(cube().vertices - 0.5)
    far = Polytope.from_vertices(cube().vertices + 1e3 * SHIFT)
    centre = far.vertices.mean(axis=0)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((300, 3))
    a = np.round(a / np.linalg.norm(a, axis=1)[:, None] * 2 ** 20) / 2 ** 20
    t = np.round(rng.uniform(-0.9, 0.9, len(a)) * 2 ** 20) / 2 ** 20
    unit = a / np.linalg.norm(a, axis=1)[:, None]
    keep = np.abs(unit @ near.vertices.T - t[:, None]).min(axis=1) > 1e-4
    for ak, tk in zip(a[keep], t[keep]):
        assert np.array_equal(centre + tk * ak - centre, tk * ak)
        ref = intrinsic_volumes(section_plane(near, tk * ak, ak))
        got = intrinsic_volumes(section_plane(far, centre + tk * ak, ak))
        assert abs(got.v1 - ref.v1) <= 1e-12 and abs(got.v2 - ref.v2) <= 1e-12


def special_planes(P, a, t, vertex, edge, facet, delta):
    """Planes {x . a = s} of P: one at the fraction t of the support interval
    along a, one through a vertex, one through an edge (its normal the part
    of a orthogonal to the edge) and one through a facet, the last three
    moved off by delta times the body's extent, inside the kernel's cut
    tolerance of 1e-12 of the extent."""
    v = P.vertices
    i, j = P.edges[edge % len(P.edges)][:2]
    along = _unit((v[j] - v[i])[None, :])[0]
    normals = np.array([a, a, _unit((a - (a @ along) * along)[None, :])[0],
                        P.facet_normals[facet % len(P.facet_normals)]])
    proj = v @ a
    s = np.array([proj.min() + t * np.ptp(proj), v[vertex % len(v)] @ a,
                  v[i] @ normals[2], P.facet_offsets[facet % len(P.facet_normals)]])
    s[1:] += delta * _extent(v)
    return normals, s


def same_bits(got, ref):
    # no NaN either: a facet that lies in the plane up to rounding takes the
    # normal of its segment
    return all(np.array_equal(x, y) for x, y in zip(got, ref))


def piece_arrays(pieces):
    return [pieces.hit, *pieces.s1.arcs, *pieces.s2.atoms]


@settings(max_examples=200, deadline=None)
@given(base=st.sampled_from(sorted(BASES)), copy=st.sampled_from(sorted(COPIES)),
       a=unit_vectors.filter(lambda v: np.min(np.abs(v)) > 1e-3), t=st.floats(0.0, 1.0),
       vertex=st.integers(0, 100), edge=st.integers(0, 200), facet=st.integers(0, 100),
       delta=st.sampled_from([0.0, 1e-13, -1e-13, 9e-13, -9e-13]))
def test_sections_match_dense_incidence_kernel(base, copy, a, t, vertex, edge, facet, delta):
    # the scatter over the crossed edges adds each facet's terms as the dense
    # products did, so the areas agree bit for bit, also for planes through a
    # vertex, an edge or a facet
    planes = special_planes(BODIES[base, copy], a, t, vertex, edge, facet, delta)
    assert same_bits([areas((base, copy), *planes)], REFERENCE[base, copy].volumes(*planes)[1:])


def tight_planes(P, rng, m):
    """m planes {x . a = s} of normals a uniform and offsets s uniform in
    the support interval of P's vertices along a."""
    a = _unit(rng.standard_normal((m, 3)))
    proj = _dots(a, P.vertices.T)
    return a, rng.uniform(proj.min(axis=1), proj.max(axis=1))


def test_sections_match_dense_incidence_kernel_on_tight_planes():
    # a batch of 2000 planes of the body-tight law per body, a few chunks'
    # worth in one call
    for key, P in BODIES.items():
        a, s = tight_planes(P, np.random.default_rng(41), 2000)
        assert same_bits([areas(key, a, s)], REFERENCE[key].volumes(a, s)[1:]), key


# planes of random_hull(77) at the cut tolerance of a facet F,
# {x . n_F = h_F - cut} with cut 1e-12 of the body's extent, which cross F
# itself: its normal is a, and its segment normal was unit(0), NaN in the
# moments and in the pieces, whose arcs then vanished from the values
# (455.98 for 912.93 on facet 4 of the copy scaled by 1e3).  Which planes
# cross F depends on the last bits of the distances: at the cut, facets 13,
# 15 and 18 of the unit copy do, 6 of the copy scaled by 1e-3 and 5, 7, 11,
# 12 and 13 of the copy scaled by 1e3.  With a cut of 1e-12 whatever the
# body, facets 13 and 5 of the large copy crossed at 0.9 of it.
@pytest.mark.parametrize("copy,facet", [("unit", 13), ("small", 6), ("large", 13), ("large", 5)])
def test_planes_in_a_facet_plane_match_the_plane_inside(copy, facet):
    P = BODIES["hull14", copy]
    sections = REFERENCE["hull14", copy]
    a = P.facet_normals[facet][None, :]
    value = PieceEvaluator(builtin_spec("difference_body"), PROBE)
    w = PROBE / np.linalg.norm(PROBE)
    offsets = [np.array([P.facet_offsets[facet] - d * _extent(P.vertices)]) for d in (1e-12, 1e-9)]
    got, inside = ([value(sections.pieces(a, s)), sections.s1_moments(a, s, w, KMAX),
                    areas(("hull14", copy), a, s)] for s in offsets)
    assert np.linalg.norm(sections.segments(a, offsets[0])[0][0, :, facet]) > 0.0
    for x, ref in zip(got, inside):
        assert np.all(np.isfinite(x))
        assert np.abs(x - ref).max() <= 1e-6 * np.abs(ref).max()


def in_batches(kernel, a, s, size):
    """The arrays of kernel(a, s) over the planes in batches of `size`, each
    batch's arrays joined, the pieces' plane indices made global."""
    parts = []
    for lo in range(0, len(a), size):
        out = kernel(a[lo:lo + size], s[lo:lo + size])
        if isinstance(out, MeasurePieces):
            out = piece_arrays(out)
            out[1] = out[1] + lo          # the arcs' planes
            out[6] = out[6] + lo          # the atoms' planes
        elif isinstance(out, np.ndarray):
            out = [out]
        parts.append(out)
    return [np.concatenate(x) for x in zip(*parts)]


@pytest.mark.parametrize("body", ["cube", "hull30-far-large"])
def test_kernel_values_do_not_depend_on_the_batch(body):
    # 400 tight planes in batches of 1, 7 and all: the distances, the
    # segment normals and the half circles' sums reduce each plane's row on
    # its own; with BLAS products the same planes differed by up to 1.8e-9
    # in V_2 and by 1.1e-13 in the moments on the large hull far away
    P = cube() if body == "cube" else random_hull(5, 30).scaled(1e3).translated(1e3 * SHIFT)
    a, s = tight_planes(P, np.random.default_rng(43), 400)
    sections, reference = PlaneSections(P), DenseSections(P)
    w = PROBE / np.linalg.norm(PROBE)
    for kernel in (lambda a, s: sections._areas(a, reference.distances(a, s)), reference.volumes,
                   reference.pieces, lambda a, s: reference.s1_moments(a, s, w, 16)):
        whole = in_batches(kernel, a, s, len(a))
        for size in (1, 7):
            assert same_bits(in_batches(kernel, a, s, size), whole), size


@pytest.mark.parametrize("body", ["cube", "hull30-far-large"])
def test_line_and_point_values_do_not_depend_on_the_batch(body):
    # 400 lines and points of the laws, and points on the bounds of the hit
    # test (the facets pushed out by the cut), all at once and one at a
    # time: the products with the facet normals are elementwise, or read off
    # a BLAS product only where its rounding cannot flip a hit.  With BLAS
    # products 106 of these chords on the large hull far away differed, by
    # up to 1.1e-12
    P = cube() if body == "cube" else random_hull(5, 30).scaled(1e3).translated(1e3 * SHIFT)
    rng = np.random.default_rng(44)
    lines, points = _LineChords(P), _BoxPoints(P)
    A, b = P.inequalities()
    centres = np.array([P.vertices[cycle].mean(axis=0) for cycle in P.facet_cycles])
    on_bound = centres + (points.bound - b)[:, None] * A
    doubles = np.vstack([rng.random((400, 3)), (on_bound - points.lo) / (points.hi - points.lo)])
    strata = (np.arange(400), 400, None)
    for kernel, draws in ((lines, LINES.draw(rng.random((400, LINES.sample_doubles)), strata)),
                          (points, tuple(doubles.T))):
        whole = kernel(*(d.copy() for d in draws))   # the kernels scale the doubles in place
        one = [kernel(*(d[t:t + 1].copy() for d in draws)) for t in range(len(draws[0]))]
        assert np.array_equal(np.concatenate(one), whole), kernel
    # the hits are those of the elementwise products, also on the bounds,
    # which lie within the band
    p = points.points(*(d.copy() for d in doubles.T))[:3].T
    assert np.all(np.abs((p[400:] @ A.T - points.bound).max(axis=1)) <= points.band)
    assert np.array_equal(whole, points.volume * np.all(_dots(p, A.T) <= points.bound, axis=1))


def test_sections_of_missed_planes_vanish():
    sections = REFERENCE["hull30", "unit"]
    a = np.array([[0.0, 0.6, 0.8]] * 2)
    v1, v2 = sections.volumes(a, np.array([5.0, -5.0]))
    assert np.all(v1 == 0.0) and np.all(v2 == 0.0)
    assert np.all(areas(("hull30", "unit"), a, np.array([5.0, -5.0])) == 0.0)
    assert np.all(sections.s1_moments(a, np.array([5.0, -5.0]), PROBE, KMAX) == 0.0)


# the planes of crofton_intrinsic and crofton_minkowski before their
# body-tight law: offsets uniform in [-R, R], R the enclosing radius
BALL = BallFlats.about_origin(cube(), 1)


# estimates of the per-sample section loop that PlaneSections replaced,
# under the ball law of planes that loop drew, with normals made from
# doubles (`direction_map`)
@pytest.mark.parametrize("j,estimate,stderr", [
    (1, 4.647725246605731, 0.08798265603467756),
    (2, 1.967552119579771, 0.04016431567660521),
])
def test_crofton_section_estimates_pinned(j, estimate, stderr):
    sections = DenseSections(cube())
    est, se = run_shards(BALL.law, BALL.kernel(lambda a, s: sections.volumes(a, s)[j - 1]),
                         sections.sample_bytes, 99, 5000, 20)
    assert est == pytest.approx(estimate, rel=1e-12)
    assert se == pytest.approx(stderr, rel=1e-12)


def test_crofton_minkowski_estimates_pinned():
    # the lhs rows k = 0, 2, 3, 4 of crofton_minkowski, under the ball law
    sections = DenseSections(cube())
    a_mu = ZonalObject.dirac_pole(3, kmax=8).multipliers[:KMAX + 1]
    est, se = run_shards(BALL.law, BALL.kernel(
        lambda a, s: sections.s1_moments(a, s, PROBE / np.linalg.norm(PROBE), KMAX)),
        sections.sample_bytes + 8 * (KMAX + 1), 8, 4000, 20)
    pinned = [(14.517989397329696, 0.29974993889080664),
              (-0.011904330941561984, 0.05220569359655613),
              (0.005406182135684485, 0.02219381399107627),
              (-0.3428014395715833, 0.027688603573605686)]
    for k, (lhs, stderr) in zip((0, 2, 3, 4), pinned):
        assert est[k] * a_mu[k] == pytest.approx(lhs, rel=1e-12)
        assert se[k] * abs(a_mu[k]) == pytest.approx(stderr, rel=1e-12)


@pytest.mark.parametrize("n_samples,shards", [(100, 1), (10, 20), (39, 20)])
def test_run_shards_rejects_degenerate_shards(n_samples, shards):
    with pytest.raises(ValueError, match="shards"):
        crofton_intrinsic(cube(), 1, 1, n_samples, seed=1, shards=shards)


def per_shard_loop(law, kernel, seed, n_samples, shards):
    """run_shards in one step: the run's doubles drawn at once from the
    second child of SeedSequence(seed), the lattices' shifts of all shards
    first, then sample by sample; the first double u_j of the j-th of a
    shard's m samples made (j + u_j) / m where the law is stratified (a
    `Law`); the kernel run on all samples, each lattice point from its j, m
    and shard; and each shard's values summed as a whole in blocks of
    SUM_BLOCK from its start (one reduceat each), the block sums added in
    order."""
    doubles = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
    sizes = _shard_sizes(n_samples, shards)
    starts = np.cumsum([0] + sizes[:-1])
    strata = (np.concatenate([np.arange(size) for size in sizes]), np.repeat(sizes, sizes),
              np.repeat(np.arange(shards), sizes))
    shifts = doubles.random((shards, law.shard_doubles))
    u = doubles.random((n_samples, law.sample_doubles))
    if isinstance(law, Law):
        first = u[:, 0]
        for start, size in zip(starts, sizes):
            first[start:start + size] = (np.arange(size) + first[start:start + size]) / size
        strata = (0, 1)   # the strata of a shard of one sample leave the doubles as they are
    vals = kernel(*law.draw(u, strata, shifts))
    sums = []
    for start, size in zip(starts, sizes):
        total = 0.0
        for lo in range(start, start + size, integral_geom.SUM_BLOCK):
            block = vals[lo:min(lo + integral_geom.SUM_BLOCK, start + size)]
            total = total + np.add.reduceat(block, [0], axis=0)[0]
        sums.append(total)
    means = np.array(sums) / np.array(sizes, dtype=float)[:, None]
    return means.mean(axis=0), means.std(axis=0, ddof=1) / np.sqrt(shards)


def every_coordinate(*draws):
    return np.hstack([d.reshape(len(d), -1) for d in draws])


FAR_HULL = random_hull(52).translated([1e3, -1e3, 1e3])
TIGHT, CHORDS, HITS = PlaneSections(random_hull(5, 30)), _LineChords(FAR_HULL), _BoxPoints(FAR_HULL)
# (law, kernel, seed) of each kind: every coordinate of the flats or
# motions in the kernel's window, with the window's weight
SAMPLERS = {
    # the ball law of planes, with a weight common to all samples
    "planes": (BallFlats(1, 1.3).law, BallFlats(1, 1.3).kernel(every_coordinate), 21),
    "tight": (PLANES, lambda a, u: every_coordinate(a, *TIGHT.tight(a, u)), 26),
    "lines": (LINES,
              lambda u, r, ang: CHORDS.weight * every_coordinate(u, CHORDS.points(u, r, ang)), 22),
    "points": (POINTS, lambda *x: HITS.volume * every_coordinate(HITS.points(*x)[:3].T), 23),
    # the box law of a point: translations uniform in the centred cube of side 2.5
    "motions": (BoxMotions.law, BoxMotions(np.array([[-1.25] * 3, [1.25] * 3]),
                                           np.zeros((1, 3))).kernel(every_coordinate), 24),
    "box": (BoxMotions.law, BoxMotions.tight(cube(), random_hull(51)).kernel(every_coordinate),
            25),
    "rotations": (ROTATIONS, every_coordinate, 27),
    "directions": (DIRECTIONS, every_coordinate, 28),
    "iid rotations": (IID_ROTATIONS, every_coordinate, 29),
}


def chunks_of(monkeypatch, law, chunk):
    """Make run_shards cut its runs in chunks of `chunk` samples, for
    kernels of 8 bytes per sample."""
    monkeypatch.setattr(integral_geom, "CHUNK_BYTES", max(8, law.bytes) * chunk)


@pytest.mark.parametrize("kind", sorted(SAMPLERS))
@pytest.mark.parametrize("n_samples,shards,chunk", [
    (1003, 20, 10 ** 6),   # uneven shards, all in one chunk
    (1003, 20, 130),       # chunks of two and a half shards
    (1003, 20, 17),        # every shard in pieces
    (1003, 2, 100),        # two large shards, the chunk [500, 600) across both
    (1003, 501, 40),       # shards of 2 and 3 samples, many per chunk
])
def test_run_shards_matches_per_shard_transform(monkeypatch, kind, n_samples, shards, chunk):
    law, kernel, seed = SAMPLERS[kind]
    chunks_of(monkeypatch, law, chunk)
    est, se = run_shards(law, kernel, 8, seed, n_samples, shards)
    ref_est, ref_se = per_shard_loop(law, kernel, seed, n_samples, shards)
    assert np.array_equal(est, ref_est) and np.array_equal(se, ref_se)


@pytest.mark.parametrize("kind", ["planes", "tight", "box"])
@pytest.mark.parametrize("block", [1, 7, 100, 600])
def test_shard_sums_do_not_depend_on_the_pieces(monkeypatch, kind, block):
    # shards of 502 and 501 samples in blocks of `block`, run in chunks of
    # every size from one sample to the whole run, most of them cutting a
    # shard, a block or both mid-way
    monkeypatch.setattr(integral_geom, "SUM_BLOCK", block)
    law, kernel, seed = SAMPLERS[kind]
    ref = per_shard_loop(law, kernel, seed, 1003, 2)
    for chunk in (1, 3, 64, 100, 333, 501, 502, 503, 700, 10 ** 6):
        chunks_of(monkeypatch, law, chunk)
        est, se = run_shards(law, kernel, 8, seed, 1003, 2)
        assert np.array_equal(est, ref[0]) and np.array_equal(se, ref[1]), chunk


def estimator(kind: str):
    """The law, kernel and bytes per sample of one of the library's
    Monte-Carlo estimators on a hull, or on the hull and the cube."""
    P, L = random_hull(5, 30), cube()
    if kind.startswith("crofton-i"):
        i, j = int(kind[9]), int(kind[-1])
        return _intrinsic_kernel(P, j, i)
    flats, integrals = FlatIntegrals(P), TranslativeIntegrals(P, L)
    value = PieceEvaluator(builtin_spec("projection_body"), PROBE)
    return {
        "crofton-mv": (DIRECTIONS, lambda a: flats.moments(a, PROBE / np.linalg.norm(PROBE), 4),
                       flats.sample_bytes + 40),
        "kinematic-j0": (ROTATIONS, integrals.volumes, integrals.sample_bytes),
        "kinematic-j1": (ROTATIONS, integrals.mean_widths, integrals.sample_bytes),
        "kinematic-spec-lhs": (ROTATIONS, lambda R: value(integrals.pieces(R, value.degrees)),
                               integrals.sample_bytes + integrals.piece_bytes),
        "kinematic-spec-planes": _valuation_kernel(P, value, 1),
        "kinematic-spec-lines": _valuation_kernel(P, value, 2),
    }[kind]


# every law: directions, planes, lines, points and rotations
@pytest.mark.parametrize("kind", ["crofton-i1-j0", "crofton-i1-j1", "crofton-i2-j0",
                                  "crofton-i1-j2", "crofton-i2-j1", "crofton-i3-j0",
                                  "crofton-mv", "kinematic-j0", "kinematic-j1",
                                  "kinematic-spec-lhs", "kinematic-spec-planes",
                                  "kinematic-spec-lines"])
def test_estimates_do_not_depend_on_the_chunk_size(monkeypatch, kind):
    # 300 samples in 7 shards, in chunks of 1, 7 and the default (the whole
    # run): the draws, kernels and sums are elementwise or per shard
    law, kernel, sample_bytes = estimator(kind)
    ref = run_shards(law, kernel, sample_bytes, 31, 300, 7)
    for chunk in (1, 7):
        monkeypatch.setattr(integral_geom, "CHUNK_BYTES", chunk * max(sample_bytes, law.bytes))
        est, se = run_shards(law, kernel, sample_bytes, 31, 300, 7)
        assert np.array_equal(est, ref[0]) and np.array_equal(se, ref[1]), chunk


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_crofton_minkowski_memory_is_bounded():
    # the acceptance run: one unchunked Legendre evaluation over its arcs
    # would take about 2 GB
    peak = _peak_bytes(lambda: crofton_minkowski(
        cube(), ZonalObject.dirac_pole(3, kmax=16), 1, 1, 200_000, seed=5))
    assert peak < 16 * 2 ** 20


def test_plane_section_memory_is_bounded():
    # chunks sized by PlaneSections.sample_bytes (a peak of about 2 MB):
    # the 200000 planes of this 38-facet hull in one chunk would take about
    # 0.7 GB of temporaries
    peak = _peak_bytes(lambda: crofton_intrinsic(random_hull(5, 30), 1, 2, 200_000, seed=13))
    assert peak < 16 * 2 ** 20


def prism(sides: int) -> Polytope:
    """The prism of height 3 over the regular polygon of `sides` in the unit circle."""
    t = 2.0 * np.pi * np.arange(sides) / sides
    ring = np.column_stack([np.cos(t), np.sin(t), np.zeros(sides)])
    return Polytope.from_vertices(np.vstack([ring, ring + [0.0, 0.0, 3.0]]))


# the cube; 30 points on the ellipsoid of semi-axes 1, 0.8, 0.6, every one a
# vertex (84 edges, 56 facets); and a 40-gon prism, whose planes of normals
# near its axis cross all 40 side edges, the most crossings a plane can have
KERNEL_BODIES = {
    "cube": cube(),
    "hull": Polytope.from_vertices(
        _unit(np.random.default_rng(1).standard_normal((30, 3))) * [1.0, 0.8, 0.6]),
    "prism": prism(40),
}


@pytest.mark.parametrize("body,i,j", [("cube", 1, 2), ("hull", 1, 2), ("prism", 1, 2),
                                      ("cube", 2, 1), ("hull", 2, 1),
                                      ("cube", 3, 0), ("hull", 3, 0)])
def test_one_kernel_call_stays_within_its_bytes(body, i, j):
    # the plane, line and point kernels on a whole chunk of run_shards: the
    # tracemalloc peak of the draw, its doubles included, stays within the
    # law's bytes, and that of the kernel, with the draws it is handed,
    # within its sample_bytes, both within CHUNK_BYTES; the line kernel's
    # count is no more than twice its peak (it counted 64 bytes a facet
    # where _clip_lines holds 33, and ran chunks half full)
    law, kernel, sample_bytes = _intrinsic_kernel(KERNEL_BODIES[body], j, i)
    m = CHUNK_BYTES // max(sample_bytes, law.bytes)
    u = integral_geom._stream(5).random((m, law.sample_doubles))
    if body == "prism":   # normals within 2 sqrt(u_0) <= 0.05 of the z axis
        u[:, -2] *= 0.000625
    strata = (np.arange(m), m, None)
    assert _peak_bytes(lambda: law.draw(u.copy(), strata)) <= m * law.bytes <= CHUNK_BYTES
    draws = law.draw(u, strata)
    held = u.nbytes + sum(d.nbytes for d in draws if not np.shares_memory(d, u))
    peak = _peak_bytes(lambda: kernel(*draws)) + held
    assert peak <= m * sample_bytes <= CHUNK_BYTES
    if law is LINES:
        assert m * sample_bytes <= 2 * peak


@pytest.mark.parametrize("m", [20, 52, None])
@pytest.mark.parametrize("law", [DIRECTIONS, ROTATIONS], ids=["directions", "rotations"])
def test_lattice_draw_stays_within_its_bytes(law, m):
    # the draw of a chunk of m samples, at small chunks and at the full one:
    # its tracemalloc peak, the strata and doubles included, stays within
    # the law's bytes; numpy's fixed cost per array weighs most at small
    # chunks, where the rotations took 246-257 bytes a sample against the
    # 224 once counted, and the directions' 104 fell short at every size
    m = m or CHUNK_BYTES // law.bytes
    sizes = np.array(_shard_sizes(m + 7, 3))
    ends = np.cumsum(sizes)
    stream = integral_geom._stream(5)
    shifts = stream.random((3, law.shard_doubles))
    u = stream.random((m, law.sample_doubles))

    def draw():
        return law.draw(u.copy(), integral_geom._chunk_strata(sizes, ends, 2, m), shifts)

    draw()      # the first call's one-time allocations are not the draw's
    assert _peak_bytes(draw) <= m * law.bytes <= CHUNK_BYTES


def test_point_sampling_memory_not_above_per_shard_loop():
    runs = {
        # the per-shard loop that run_shards replaced peaked at 0.93-0.98 MB
        # on this call (numpy 2.4): it held the generators of all 1000 shards
        "points, 1000 shards": lambda: crofton_intrinsic(cube(), 3, 0, 300_000, seed=3,
                                                         shards=1000),
        # two shards of 200000 samples, whose variates took 8.7 MB and 30 MB
        # where each shard drew them at once
        "points, 2 shards": lambda: crofton_intrinsic(cube(), 3, 0, 400_000, seed=3, shards=2),
        "rotations, 2 shards": lambda: kinematic_check(cube(), cube(), 0, 400_000, seed=3,
                                                       shards=2),
    }
    for name, run in runs.items():
        assert _peak_bytes(run) < 900_000, name
