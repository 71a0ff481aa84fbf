"""The ordering-free plane-section kernel against the section polygons of
convex.section_plane, and the sharded Monte-Carlo loop run_shards: pinned
estimates, the per-chunk transform of the variates against a per-shard
one, input checks and bounded memory."""

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
from minkval.integral_geom import (
    MotionSampler,
    PlaneSampler,
    PlaneSections,
    _shard_rngs,
    _shard_sizes,
    crofton_intrinsic,
    crofton_minkowski,
    run_shards,
)
from minkval.zonal import ZonalObject

KMAX = 4
PROBE = np.array([0.36, -0.48, 0.8])

BASES = {"cube": cube(), "hull14": random_hull(77), "hull30": random_hull(5, 30)}
# (scale, shift) of the copies the kernel runs on; section_plane cuts the base
# body, whose absolute tolerances suit bodies of unit size
COPIES = {"unit": (1.0, 0.0), "small": (1e-3, 0.0), "large": (1e3, 0.0), "far": (1.0, 1e3)}
SHIFT = np.array([1.0, -1.0, 1.0])
SECTIONS = {(b, c): PlaneSections(P.scaled(lam).translated(shift * SHIFT))
            for b, P in BASES.items() for c, (lam, shift) in COPIES.items()}

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
    # section_plane snaps vertices within an absolute 1e-9 of the plane; keep
    # away from vertices so both sides cut the same polygon
    assume(np.min(np.abs(proj - s)) > 1e-6 * size)
    Q = section_plane(P, s * a, normal=a)
    assert Q.dim == 2
    ref = intrinsic_volumes(Q)
    expect = area_measure(Q, 1).zonal_moments(PROBE[None, :], KMAX)[:, 0]
    # the same plane relative to the copy lam * P + shift
    sections = SECTIONS[base, copy]
    planes = a[None, :], np.array([lam * s + shift * a @ SHIFT])
    v1, v2 = sections.volumes(*planes)
    assert abs(v1[0] / lam - ref.v1) <= 1e-9 * size
    assert abs(v2[0] / lam ** 2 - ref.v2) <= 1e-9 * size ** 2
    moments = sections.s1_moments(*planes, PROBE, KMAX)[0] / lam
    assert np.allclose(moments, expect, rtol=0.0, atol=1e-9 * size)


@settings(max_examples=100, deadline=None)
@given(base=st.sampled_from(sorted(BASES)), a=unit_vectors, t=st.floats(0.02, 0.98))
def test_sections_of_small_body_match_its_section_polygon(base, a, t):
    # section_plane cuts the copy of size 1e-3 itself
    sections = SECTIONS[base, "small"]
    P = Polytope.from_vertices(sections.vertices)
    size = float(np.linalg.norm(np.ptp(P.vertices, axis=0)))
    proj = P.vertices @ a
    s = proj.min() + t * (proj.max() - proj.min())
    # section_plane snaps vertices within an absolute 1e-9 of the plane
    assume(np.min(np.abs(proj - s)) > 1e-5 * size)
    Q = section_plane(P, s * a, normal=a)
    assert Q.dim == 2
    ref = intrinsic_volumes(Q)
    v1, v2 = sections.volumes(a[None, :], np.array([s]))
    assert abs(v1[0] - ref.v1) <= 1e-9 * size
    assert abs(v2[0] - ref.v2) <= 1e-9 * size ** 2


def test_sections_of_far_body_match_sections_about_its_centre():
    # planes {x . a = s} with s - a . centre = t exactly, t on a grid of
    # 2^-20 and 1e-4 clear of the vertices: the same planes for the cube
    # shifted by SHIFT * 1e3 and for the cube centred at the origin.  With
    # signed distances taken in world coordinates the volumes differed by
    # up to 4.5e-12.
    near = Polytope.from_vertices(cube().vertices - 0.5)
    far = Polytope.from_vertices(cube().vertices + 1e3 * SHIFT)
    centre = far.vertices.mean(axis=0)
    rng = np.random.default_rng(12)
    a = rng.standard_normal((4000, 3))
    a /= np.linalg.norm(a, axis=1)[:, None]
    t = np.round(rng.uniform(-0.9, 0.9, len(a)) * 2 ** 20) / 2 ** 20
    s = a @ centre + t
    keep = (s - a @ centre == t) & (np.abs(a @ near.vertices.T - t[:, None]).min(axis=1) > 1e-4)
    a, s, t = a[keep], s[keep], t[keep]
    near_sections, far_sections = PlaneSections(near), PlaneSections(far)
    assert np.abs(np.subtract(far_sections.volumes(a, s), near_sections.volumes(a, t))).max() <= 1e-12
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


def test_sections_of_missed_planes_vanish():
    sections = SECTIONS["hull30", "unit"]
    a = np.array([[0.0, 0.6, 0.8]] * 2)
    v1, v2 = sections.volumes(a, np.array([5.0, -5.0]))
    assert np.all(v1 == 0.0) and np.all(v2 == 0.0)
    assert np.all(sections.s1_moments(a, np.array([5.0, -5.0]), PROBE, KMAX) == 0.0)


# estimates of the per-sample section loop that PlaneSections replaced
@pytest.mark.parametrize("j,estimate,stderr", [
    (1, 4.762343084617497, 0.06693660774724093),
    (2, 2.0322276667655634, 0.03630133202249817),
])
def test_crofton_section_estimates_pinned(j, estimate, stderr):
    rep = crofton_intrinsic(cube(), 1, j, 5000, seed=99)
    assert rep.estimate == pytest.approx(estimate, rel=1e-12)
    assert rep.stderr == pytest.approx(stderr, rel=1e-12)


def test_crofton_minkowski_estimates_pinned():
    res = crofton_minkowski(cube(), ZonalObject.dirac_pole(3, kmax=8), 1, 1, 4000, seed=8)
    pinned = [(14.621091948926448, 0.22325336625730796),
              (0.00039370874769912857, 0.04104177519206521),
              (-0.040802731405611525, 0.02632972550279611),
              (-0.32686802756669003, 0.016371667558405814)]
    for row, (lhs, stderr) in zip(res["rows"], pinned):
        assert row["lhs"] == pytest.approx(lhs, rel=1e-12)
        assert row["stderr"] == pytest.approx(stderr, rel=1e-12)


@pytest.mark.parametrize("n_samples,shards", [(100, 1), (10, 20), (39, 20)])
def test_run_shards_rejects_degenerate_shards(n_samples, shards):
    with pytest.raises(ValueError, match="shards"):
        crofton_intrinsic(cube(), 1, 1, n_samples, seed=1, shards=shards)


def per_shard_loop(sampler, kernel, chunk: int):
    """run_shards with each shard's variates transformed on their own, the
    chunks and reductions otherwise the same."""
    sizes = _shard_sizes(sampler.n_samples, sampler.shards)
    sums, parts, first, count = None, [], 0, 0
    for k, rng in enumerate(_shard_rngs(sampler.seed, sampler.shards)):
        parts.append(sampler.draw(*sampler.variates(rng, sizes[k])))
        count += sizes[k]
        if k + 1 < len(sizes) and count + sizes[k + 1] <= chunk:
            continue
        draws = [np.concatenate(a) for a in zip(*parts)]
        starts = np.cumsum([0] + sizes[first:k])
        parts = []
        for lo in range(0, count, chunk):
            vals = kernel(*(d[lo:lo + chunk] for d in draws))
            if sums is None:
                sums = np.zeros((sampler.shards,) + vals.shape[1:])
            sums[first:k + 1] += np.add.reduceat(vals, starts, axis=0)
        first, count = k + 1, 0
    means = sampler.weight * (sums / np.array(sizes, dtype=float)[:, None])
    return means.mean(axis=0), means.std(axis=0, ddof=1) / np.sqrt(sampler.shards)


def every_coordinate(*draws):
    return np.hstack([d.reshape(len(d), -1) for d in draws])


SAMPLERS = {
    "planes": lambda n, shards: PlaneSampler(3, 1, 1.3, 21, n, shards),
    "lines": lambda n, shards: PlaneSampler(3, 2, 1.3, 22, n, shards),
    "points": lambda n, shards: PlaneSampler(3, 3, 1.3, 23, n, shards),
    "motions": lambda n, shards: MotionSampler(3, 2.5, 24, n, shards),
}


@pytest.mark.parametrize("kind", sorted(SAMPLERS))
@pytest.mark.parametrize("n_samples,shards,chunk", [
    (1003, 20, 10 ** 6),   # uneven shards, all in one chunk
    (1003, 20, 130),       # chunks of two shards
    (1003, 20, 17),        # every shard in pieces
    (1003, 2, 100),        # two large shards of six pieces each
    (1003, 501, 40),       # shards of 2 and 3 samples, many per chunk
])
def test_run_shards_matches_per_shard_transform(monkeypatch, kind, n_samples, shards, chunk):
    sampler = SAMPLERS[kind](n_samples, shards)
    monkeypatch.setattr(integral_geom, "CHUNK_BYTES", 8 * chunk)
    est, se = run_shards(sampler, every_coordinate, 8)
    ref_est, ref_se = per_shard_loop(sampler, every_coordinate, chunk)
    assert np.array_equal(est, ref_est) and np.array_equal(se, ref_se)


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


def test_point_sampling_memory_not_above_per_shard_loop():
    # the per-shard loop that run_shards replaced peaked at 0.93-0.98 MB on
    # this call (numpy 2.4): it held the generators of all 1000 shards
    peak = _peak_bytes(lambda: crofton_intrinsic(cube(), 3, 0, 300_000, seed=3, shards=1000))
    assert peak < 900_000
