"""Monte-Carlo Crofton/kinematic machinery at unit-test scale (the full
acceptance gates run in test_acceptance.py)."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkval import integral_geom
from minkval.constants import (crofton_c, crofton_q, flag, geometric_constants, kappa,
                               mean_section_q, omega)
from minkval.convex import (Polytope, _cross, _extent, _plane_basis, _unit, ball_polytope,
                            cube, intrinsic_volumes, random_hull)
from minkval.integral_geom import (
    CHUNK_BYTES,
    EstimateReport,
    PlaneSections,
    _BoxPoints,
    _LineChords,
    _intrinsic_kernel,
    agrees,
    crofton_intrinsic,
    crofton_minkowski,
    crofton_minkowski_rhs,
    crofton_target,
    hadwiger_check,
    kinematic_check,
    kinematic_minkowski_check,
    kinematic_target,
    run_shards,
)
from minkval.valuation import builtin_spec
from minkval.zonal import ZonalObject, box_multiplier, builtin_zonal

from flat_reference import IID_DIRECTIONS, BallFlats, DenseSections
from motion_reference import SeparatingAxes, rotations_from_quaternions


# -- constants ------------------------------------------------------------------

def test_kappa_table():
    assert kappa(0) == 1.0
    assert kappa(1) == pytest.approx(2.0, rel=1e-14)
    assert kappa(2) == pytest.approx(math.pi, rel=1e-14)
    assert kappa(3) == pytest.approx(4 * math.pi / 3, rel=1e-14)
    assert kappa(-1) == pytest.approx(1 / math.pi, rel=1e-14)


def test_flag_coefficients():
    assert flag(2, 1) == pytest.approx(math.pi / 2, rel=1e-14)
    assert flag(2, 0) == 1.0
    # normalization identity [n; i] kappa_(n-i) = C(n, i) kappa_n / kappa_i
    for n in (3, 4, 5):
        for i in range(n + 1):
            lhs = flag(n, i) * kappa(n - i)
            rhs = math.comb(n, i) * kappa(n) / kappa(i)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_crofton_constants():
    assert crofton_c(3, 1) == pytest.approx(1.0, rel=1e-12)
    assert crofton_q(3, 1, 1) == pytest.approx(1.0, rel=1e-12)
    assert mean_section_q(3, 2) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError):
        crofton_c(3, 2)
    with pytest.raises(ValueError):
        crofton_q(3, 2, 1)


def test_geometric_constants_entries():
    d = geometric_constants(3, i=1, j=1)
    assert d["q_3,1,1"] == pytest.approx(1.0)
    d2 = geometric_constants(3, j=2)
    assert d2["q_3,2"] == pytest.approx(0.5)
    assert d2["omega"][3] == pytest.approx(4 * math.pi)


def test_plane_sampler_weight_is_hitting_measure():
    # planes meeting B_R: C(3,2) kappa_3/kappa_2 R = 4R; lines: 2 pi R^2
    assert BallFlats(1, 2.0).weight == pytest.approx(8.0, rel=1e-12)
    assert BallFlats(2, 1.0).weight == pytest.approx(2 * math.pi, rel=1e-12)
    assert BallFlats(3, 1.0).weight == pytest.approx(kappa(3), rel=1e-12)
    # the kernels' windows about a body: lines in the disc of radius
    # max |v - c| about the centre c of its coordinate box, points in that
    # box, and planes in the support interval of their normal
    box = cube().scaled(2.0).translated([10.0, -3.0, 5.0])
    lines, points = _LineChords(box), _BoxPoints(box)
    assert np.array_equal(lines.centre, [11.0, -2.0, 6.0])
    assert lines.radius == pytest.approx(math.sqrt(3.0), rel=1e-11)
    assert lines.weight == pytest.approx(6 * math.pi, rel=1e-11)
    assert points.volume == 8.0
    a = np.array([[0.0, 0.6, 0.8]])
    _, weight = PlaneSections(box).tight(a, np.array([0.5]))
    assert weight == pytest.approx(2 * 2.0 * 1.4, rel=1e-12)


# -- sampler calibration -----------------------------------------------------------

def test_sampler_calibration_on_ball_proxy():
    # hitting measures reproduce [i; 0] V_i = V_i on a near-ball body
    B = ball_polytope(2)
    for i in (1, 2):
        rep = crofton_intrinsic(B, i, 0, 40000, seed=101 + i)
        assert rep.target == pytest.approx(intrinsic_volumes(B)[i], rel=1e-12)
        assert rep.within(3.0)


@pytest.mark.parametrize("i,j,target", [
    (1, 1, math.pi / 2 * 3), (2, 0, 3.0), (1, 0, 3.0), (3, 0, 1.0),
    (2, 1, 2.0), (1, 2, 2.0),
])
def test_crofton_cube_all_pairs(i, j, target):
    rep = crofton_intrinsic(cube(), i, j, 20000, seed=300 + 10 * i + j)
    assert rep.target == pytest.approx(target, rel=1e-12)
    assert rep.within(3.5), f"(i={i}, j={j}): z = {rep.z:.2f}"


def test_crofton_rejects_bad_indices():
    with pytest.raises(ValueError):
        crofton_intrinsic(cube(), 0, 1, 100, seed=1)
    with pytest.raises(ValueError):
        crofton_intrinsic(cube(), 2, 2, 100, seed=1)


def test_crofton_random_hull():
    P = random_hull(77)
    rep = crofton_intrinsic(P, 1, 1, 30000, seed=7)
    assert rep.within(3.5)


TIGHT_BODIES = {"cube": cube(), "hull": random_hull(77)}
unit_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(lambda v: v / np.linalg.norm(v))


@settings(max_examples=30, deadline=None)
@given(body=st.sampled_from(sorted(TIGHT_BODIES)), lam=st.floats(1e-6, 1e6),
       direction=unit_vectors, reach=st.floats(0.0, 1e3), j=st.integers(0, 2))
def test_tight_planes_scale_and_ignore_translation(body, lam, direction, reach, j):
    # the tight law draws the same directions and the same offsets relative
    # to the support interval for lam P + t, whose plane integrals of V_j
    # are lam^(1 + j) those of P
    P = TIGHT_BODIES[body]
    Q = P.scaled(lam).translated(reach * lam * direction)
    base, moved = (crofton_intrinsic(B, 1, j, 2000, seed=17) for B in (P, Q))
    scale = lam ** (1 + j)
    assert moved.estimate == pytest.approx(scale * base.estimate, rel=1e-9)
    assert moved.stderr == pytest.approx(scale * base.stderr, rel=1e-9)
    if j == 1:
        mu = ZonalObject.dirac_pole(3, kmax=8)
        base, moved = (crofton_minkowski(B, mu, 1, 1, 2000, seed=17, degrees=(0,))["rows"][0]
                       for B in (P, Q))
        assert moved["lhs"] == pytest.approx(lam ** 2 * base["lhs"], rel=1e-9)
        assert moved["stderr"] == pytest.approx(lam ** 2 * base["stderr"], rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(body=st.sampled_from(sorted(TIGHT_BODIES)), lam=st.floats(1e-6, 1e6),
       direction=unit_vectors, reach=st.floats(0.0, 1e3),
       flat=st.sampled_from([(2, 0), (2, 1), (3, 0)]))
def test_lines_and_points_scale_and_ignore_translation(body, lam, direction, reach, flat):
    # lines are drawn in a disc about the centre of the body's coordinate
    # box and points in that box: the same flats relative to lam P + t,
    # whose integrals of V_j over the codimension-i flats are lam^(i + j)
    # those of P
    i, j = flat
    P = TIGHT_BODIES[body]
    Q = P.scaled(lam).translated(reach * lam * direction)
    base, moved = (crofton_intrinsic(B, i, j, 2000, seed=23) for B in (P, Q))
    scale = lam ** (i + j)
    assert moved.estimate == pytest.approx(scale * base.estimate, rel=1e-9)
    # (every point hits the cube: its stderr is the rounding of equal shard means)
    assert moved.stderr == pytest.approx(scale * base.stderr, rel=1e-9,
                                         abs=1e-15 * moved.estimate)


@settings(max_examples=30, deadline=None)
@given(body=st.sampled_from(sorted(TIGHT_BODIES)), exponent=st.floats(-6.0, 6.0))
def test_points_scale_as_lambda_cubed(body, exponent):
    # the box law scales the points with the body, and the points kernel's
    # cut scales with the body's size, so the same points hit lam P
    lam = 10.0 ** exponent
    P = TIGHT_BODIES[body]
    base, scaled = (crofton_intrinsic(B, 3, 0, 2000, seed=29) for B in (P, P.scaled(lam)))
    assert scaled.estimate == pytest.approx(lam ** 3 * base.estimate, rel=1e-12)
    # every point hits the cube: its stderr is the rounding of equal shard means
    assert scaled.stderr == pytest.approx(lam ** 3 * base.stderr, rel=1e-12,
                                          abs=1e-15 * scaled.estimate)
    assert scaled.within(3.0)


@pytest.mark.parametrize("body", sorted(TIGHT_BODIES))
@pytest.mark.parametrize("lam", [1e-9, 1e9])
def test_plane_sections_scale_as_lambda_cubed(body, lam):
    # the plane kernel's crossing cut scales with the body's extent, so the
    # same planes cross the same edges of lam P; with a cut of 1e-12 whatever
    # the body, the estimate on the cube scaled by 1e-9 was off lam^3 times
    # the unit one by 1.7e-6 relative, and on the hull by 4.8e-7
    P = TIGHT_BODIES[body]
    base, scaled = (crofton_intrinsic(B, 1, 2, 2000, seed=17) for B in (P, P.scaled(lam)))
    assert scaled.estimate == pytest.approx(lam ** 3 * base.estimate, rel=1e-14)
    assert scaled.stderr == pytest.approx(lam ** 3 * base.stderr, rel=1e-14)


@pytest.mark.parametrize("body", sorted(TIGHT_BODIES))
@pytest.mark.parametrize("lam", [1e-6, 1.0, 1e6])
def test_lines_parallel_to_a_facet_cut_relative_to_the_body(body, lam):
    # a line parallel to a facet, 1e-9 of the body's extent outside it,
    # misses, and one 1e-3 of the extent inside hits; with a cut of 1e-12
    # whatever the body, every line outside the cube scaled by 1e-6 hit
    P = TIGHT_BODIES[body].scaled(lam)
    chords, extent = _LineChords(P), _extent(P.vertices)
    for n, cycle in zip(P.facet_normals, P.facet_cycles):
        mid = P.vertices[cycle].mean(axis=0)
        u = _plane_basis(n)[0]
        got = chords.chords(np.array([u, u]),
                            np.array([mid + 1e-9 * extent * n, mid - 1e-3 * extent * n]))
        assert got[0] == 0.0 and got[1] > 0.0, (n, got)


def test_lines_reach_a_body_far_from_the_origin():
    # the lines of the ball about the origin met the cube shifted by 100 in
    # one of 20000 draws (0.494 +- 0.49 against 2), and the difference
    # body's line term read 0 +- 0, so the check came out inconsistent
    # (difference 1.46 against a combined stderr of 0.099)
    far = cube().translated([100.0, 100.0, 100.0])
    rep = crofton_intrinsic(far, 2, 1, 20000, seed=7)
    assert rep.within(3.0), rep.z
    res = kinematic_minkowski_check(builtin_spec("difference_body"), far, cube(),
                                    [0.0, 0.0, 1.0], 3000, 17)
    assert res["consistent_3sigma"], res["difference"]


def test_line_frame_is_the_cross_product_frame():
    # the lines' frame is _plane_basis: np.cross(u, e_x or e_y) normalised
    # and np.cross(u, e1), through convex._cross with np.cross's bits,
    # signed zeros included, on random rows, on the axes and at |u_x| of
    # 0.9 and just below, and for one row alone as in the whole batch
    rng = np.random.default_rng(2)
    below = np.nextafter(0.9, 0.0)
    edge = [(x, math.sqrt(1.0 - x * x), 0.0) for x in (0.9, -0.9, below, -below)]
    edge += [(x, 0.0, -math.sqrt(1.0 - x * x)) for x in (0.9, -0.9, below, -below)]
    axes = np.concatenate([np.eye(3), -np.eye(3), edge])
    for _ in range(50):
        u = np.concatenate([axes, _unit(rng.standard_normal((250, 3)))])
        aux = np.where(np.abs(u[:, :1]) < 0.9, [1.0, 0, 0], [0, 1.0, 0])
        ref1 = _unit(np.cross(u, aux))
        ref2 = np.cross(u, ref1)
        e1, e2 = _plane_basis(u)
        assert e1.tobytes() == ref1.tobytes() and e2.tobytes() == ref2.tobytes()
        for k in rng.choice(len(u), 20, replace=False).tolist() + list(range(len(axes))):
            for row in (u[k], u[k:k + 1]):
                one1, one2 = _plane_basis(row)
                assert one1.tobytes() == e1[k].tobytes() and one2.tobytes() == e2[k].tobytes()
    # _cross against np.cross on stacked rows, with signed zeros, and under
    # the kernels' broadcasts: facet normals (F, 1) against directions (m,),
    # P's normals (F_P, 1, 1) against turned ones (F_L, m), one vector
    # against rows
    a, b = rng.standard_normal((2, 40, 3))
    a[:6], b[:6] = np.concatenate([np.eye(3), -np.eye(3)]), [[-0.0, 0.0, 1.0]] * 6
    assert np.stack(_cross(a.T, b.T), axis=-1).tobytes() == np.cross(a, b).tobytes()
    assert (np.stack(_cross(a.T[:, :, None], b.T), axis=-1).tobytes()
            == np.cross(a[:, None], b[None]).tobytes())
    g = rng.standard_normal((3, 7, 40))
    assert (np.stack(_cross([x[:, None, None] for x in a[:9].T], g), axis=-1).tobytes()
            == np.cross(a[:9, None, None], np.moveaxis(g, 0, -1)[None]).tobytes())
    assert np.stack(_cross(a[7], b.T), axis=-1).tobytes() == np.cross(a[7], b).tobytes()


def test_tight_planes_cut_the_stderr():
    # the planes of the ball about the origin that miss [0,1]^3 add only
    # variance: the tight law has a 3.5x smaller stderr here
    P = cube()
    sections = DenseSections(P)
    ball = BallFlats.about_origin(P, 1)
    _, ball_se = run_shards(ball.law, ball.kernel(lambda a, s: sections.volumes(a, s)[0]),
                            sections.sample_bytes, 311, 20000, 20)
    assert 2.5 * crofton_intrinsic(P, 1, 1, 20000, seed=311).stderr <= ball_se


def _stderrs(law, N=(1000, 10000, 100000)):
    # the term of crofton_intrinsic(cube(), 1, 0, N, seed=13, shards=200)
    # under the law; 200 shards keep the noise of the stderr estimate itself
    # around 5%, so its law in N is resolvable at the 20% level
    _, kernel, sample_bytes = _intrinsic_kernel(cube(), 0, 1)
    return [run_shards(law, kernel, sample_bytes, 13, n, 200)[1] for n in N]


def test_stderr_scales_like_inverse_sqrt():
    # under the iid law of directions, the N^(-1/2) law of Monte Carlo
    ses = _stderrs(IID_DIRECTIONS)
    for a, b in zip(ses, ses[1:]):
        assert a / b == pytest.approx(math.sqrt(10.0), rel=0.20)


def test_lattice_stderr_falls_faster_than_inverse_sqrt():
    # the shifted lattice of DIRECTIONS: the integrand, 2 (h(a) + h(-a)), is
    # continuous, and the stderr falls at least as N^(-3/4) (about N^(-1) to
    # N^(-1.35) here)
    ses = _stderrs(integral_geom.DIRECTIONS)
    for a, b in zip(ses, ses[1:]):
        assert a / b >= 10.0 ** 0.75


def test_determinism_bit_identical():
    a = crofton_intrinsic(cube(), 1, 1, 5000, seed=99)
    b = crofton_intrinsic(cube(), 1, 1, 5000, seed=99)
    assert a.estimate == b.estimate and a.stderr == b.stderr
    c = kinematic_check(cube(), cube(), 0, 5000, seed=99)
    d = kinematic_check(cube(), cube(), 0, 5000, seed=99)
    assert c.estimate == d.estimate and c.stderr == d.stderr


def test_estimate_report_fields():
    rep = crofton_intrinsic(cube(), 2, 0, 2000, seed=5)
    out = rep.to_json()
    for key in ("estimate", "stderr", "target", "z", "N", "seed"):
        assert key in out
    assert out["N"] == 2000
    assert rep.z == pytest.approx((rep.estimate - rep.target) / rep.stderr)


# -- kinematic ---------------------------------------------------------------------

def test_kinematic_target_values():
    # two unit cubes, j = 0: 1 + 4.5 + 4.5 + 1 = 11
    assert kinematic_target(cube(), cube(), 0) == pytest.approx(11.0, rel=1e-12)
    # top degree is the product of the volumes
    assert kinematic_target(cube(), cube(), 3) == pytest.approx(1.0, rel=1e-12)
    P = random_hull(21)
    L = random_hull(22)
    vp, vl = intrinsic_volumes(P), intrinsic_volumes(L)
    assert kinematic_target(P, L, 3) == pytest.approx(vp.v3 * vl.v3, rel=1e-12)


def test_kinematic_mc_j0():
    rep = kinematic_check(cube(), cube(), 0, 30000, seed=31)
    assert rep.within(3.5)


def test_kinematic_mc_volume_degree():
    rep = kinematic_check(cube(), cube(), 3, 1500, seed=33)
    assert rep.target == pytest.approx(1.0)
    assert rep.within(3.5)


def test_kinematic_mc_random_bodies():
    P = random_hull(51)
    L = random_hull(52)
    rep = kinematic_check(P, L, 0, 30000, seed=53)
    assert rep.within(3.5)


def slab_and_needle():
    """A thin slab and a needle: for most rotations the coordinate box of
    P - R L is much larger than P - R L itself."""
    corners = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)])
    return (Polytope.from_vertices(corners * [1.0, 1.0, 0.02]),
            Polytope.from_vertices(corners * [0.02, 0.02, 1.0]))


@pytest.mark.parametrize("j,n_samples,seed", [(0, 20000, 61), (1, 3000, 62), (2, 3000, 63),
                                              (3, 3000, 64)])
def test_box_law_is_unbiased_on_slab_and_needle(j, n_samples, seed):
    rep = kinematic_check(*slab_and_needle(), j, n_samples, seed=seed)
    assert rep.within(3.5), f"j={j}: z = {rep.z:.2f}"


@pytest.mark.parametrize("j", [0, 1, 2])
@pytest.mark.parametrize("shift,shift_other", [
    ((1e3, -1e3, 1e3), (0.0, 0.0, 0.0)),
    ((0.0, 0.0, 0.0), (-1e3, 0.0, 1e3)),
    ((1e3 / 3, 1e3 / 7, -1e3), (1e3, -1e3 / 3, 0.5)),
])
def test_kinematic_estimate_is_translation_invariant(j, shift, shift_other):
    # the box law moves with the bodies: the same motions up to rounding
    P, L = cube(), random_hull(52)
    ref = kinematic_check(P, L, j, 1000, seed=9)
    rep = kinematic_check(P.translated(shift), L.translated(shift_other), j, 1000, seed=9)
    assert rep.estimate == pytest.approx(ref.estimate, rel=1e-10)
    assert rep.stderr == pytest.approx(ref.stderr, rel=1e-10)


def jittered_icosahedra(seed):
    """Two icosahedra with radial jitter of +-10 %: 20 + 20 facet axes and
    30 x 30 cross-product axes for the separating-axis test."""
    rng = np.random.default_rng(seed)
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    base = np.array([v for a in (-1.0, 1.0) for b in (-phi, phi)
                     for v in ((0.0, a, b), (a, b, 0.0), (b, 0.0, a))])
    return [Polytope.from_vertices(base * rng.uniform(0.9, 1.1, (12, 1))) for _ in range(2)]


@pytest.mark.parametrize("chunk", [1 << 14, 1 << 24])
def test_separating_axes_estimate_does_not_depend_on_chunk_size(monkeypatch, chunk):
    P, L = jittered_icosahedra(1)
    ref = kinematic_check(P, L, 0, 1000, seed=5)
    monkeypatch.setattr(integral_geom, "CHUNK_BYTES", chunk)
    rep = kinematic_check(P, L, 0, 1000, seed=5)
    assert (rep.estimate, rep.stderr) == (ref.estimate, ref.stderr)


def test_separating_axes_memory_is_bounded_by_the_chunk():
    # 100 overlapping motions all reach the 900 cross-product axes, whose
    # projections took 23 MB when they ran on all motions at once
    P, L = jittered_icosahedra(1)
    q = np.random.default_rng(2).standard_normal((100, 4))
    R = rotations_from_quaternions(q / np.linalg.norm(q, axis=1)[:, None])
    test = SeparatingAxes(P, L)
    tracemalloc.start()
    try:
        hits = test.hits(R, np.zeros((100, 3)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hits.all() and peak < 2 * CHUNK_BYTES


def test_hadwiger_consistency():
    h = hadwiger_check(cube(), cube(), 0, 20000, seed=41)
    assert h["consistent_3sigma"]
    assert h["rhs"] == pytest.approx(h["target"], abs=4 * h["rhs_stderr"] + 0.05)
    assert len(h["terms"]) == 4


def test_hadwiger_point_term_is_exact():
    # every point of P has V_0 = 1, so the points' Crofton integral is V_3(P)
    P = cube()
    h = hadwiger_check(P, cube(), 0, 400, seed=3)
    assert h["terms"][3] == {"i": 3, "estimate": intrinsic_volumes(P)[3], "stderr": 0.0,
                             "coef": 1.0}


@pytest.mark.parametrize("P,L", [(cube(), cube()), (random_hull(51), random_hull(52, 20))],
                         ids=["cubes", "hulls"])
def test_valuation_decomposition_is_half_the_v1_one(P, L):
    # h(mean_width_ball(K))(u) = V_1(K) / 2: both checks draw the same
    # rotations and plane normals, so their motion integrals and plane terms
    # agree with half those of V_1 to rounding.  The chords of V_1 (i + j = n)
    # keep their offsets, while the valuation's lines integrate over theirs
    # in closed form: V_1 / 2 of the chords integrates to [3; 1] V_3(P) / 2
    # along every direction, so that term is exact.  The shard means of the
    # two sides differ by an ulp or two, which their spread amplifies by
    # about mean / stderr in the stderrs: every gap is rounding relative to
    # the estimate of its side (`agrees`)
    res = kinematic_minkowski_check(builtin_spec("mean_width_ball"), P, L, [0.0, 0.0, 1.0],
                                    3000, 17)
    h = hadwiger_check(P, L, 1, 3000, 17)
    plane, line = h["terms"][1], h["terms"][2]
    exact = h["rhs"] + line["coef"] * (crofton_target(P, 2, 1) - line["estimate"])
    for key, want in (("lhs", h["lhs"].estimate), ("lhs_stderr", h["lhs"].stderr),
                      ("rhs", exact), ("rhs_stderr", plane["coef"] * plane["stderr"])):
        side = res[key.split("_")[0]]
        assert agrees(res[key] - want / 2, 0.0, scale=abs(side)), key


def test_monte_carlo_checks_reject_a_lower_dimensional_body():
    flat, spec = random_hull(1, 3), builtin_spec("projection_body")
    for run in (lambda: crofton_intrinsic(flat, 1, 1, 100, seed=1),
                lambda: kinematic_check(cube(), flat, 0, 100, seed=1),
                lambda: hadwiger_check(flat, cube(), 0, 100, seed=1),
                lambda: kinematic_minkowski_check(spec, flat, cube(), [0, 0, 1], 100, seed=1),
                lambda: crofton_minkowski(flat, builtin_zonal("dirac_pole", 3), 1, 1, 100,
                                          seed=1)):
        with pytest.raises(ValueError, match="full-dimensional bodies, got dimension 2"):
            run()


def test_kinematic_minkowski_valuation():
    # motion average of the projection-body support value at a fixed
    # direction against its Crofton decomposition, both by Monte Carlo
    spec = builtin_spec("projection_body")
    res = kinematic_minkowski_check(spec, cube(), cube(), [0.0, 0.0, 1.0],
                                    2500, seed=17)
    assert res["consistent_3sigma"]
    # degree-2 valuation with c0 = 0: only the i = 0, 1 terms contribute,
    # and the i = 0 term is the exact shadow area of the cube itself
    assert res["rhs"] > 1.0
    assert res["lhs_stderr"] > 0 and res["rhs_stderr"] > 0


def test_kinematic_minkowski_check_is_translation_invariant():
    # its rotations do not see the translation, and its planes and lines are
    # drawn about the body; the cube about the origin that the motions drew
    # from before missed a body 100 away (lhs 0 +- 0), and so did the lines
    # of the difference body's line term (0 +- 0) in the ball about the origin
    P, L = random_hull(51), cube()
    far = P.translated([100.0, -100.0, 100.0])
    for name in ("projection_body", "difference_body"):
        spec = builtin_spec(name)
        near_res, far_res = (kinematic_minkowski_check(spec, Q, L, [0.0, 0.6, 0.8], 600, seed=5)
                             for Q in (P, far))
        for key in ("lhs", "lhs_stderr", "rhs", "rhs_stderr"):
            assert far_res[key] == pytest.approx(near_res[key], rel=1e-9, abs=0.0), (name, key)
        assert far_res["consistent_3sigma"], name


# -- Crofton formula for Minkowski valuations ----------------------------------------

def test_crofton_mv_rhs_formal_identity_case():
    mu = ZonalObject.from_atoms(3, [(0.4, 1.0)], kmax=8)
    out = crofton_minkowski_rhs(3, 0, 1, mu)
    expect = mu.multipliers.copy()
    expect[1] = 0.0
    assert np.allclose(out.multipliers, expect)


def test_crofton_mv_rhs_multiplier_structure():
    mu = ZonalObject.dirac_pole(3, kmax=8)
    out = crofton_minkowski_rhs(3, 1, 1, mu)
    g2 = builtin_zonal("berg:2", n=3, kmax=8)
    for k in (0, 2, 4):
        expect = box_multiplier(3, k) * g2.multipliers[k]  # q = 1
        assert out.multipliers[k] == pytest.approx(expect, rel=1e-10)
    assert out.multipliers[1] == 0.0
    assert out.mult_error is not None


def test_crofton_mv_degree_zero_analytic():
    # degree-0 moment: lhs = pi * int V_1(K n E) = pi [2;1] V_2(K); the
    # identity forces a_0[box berg_2] = pi^2/4
    mu = ZonalObject.dirac_pole(3, kmax=8)
    rhs0 = crofton_minkowski_rhs(3, 1, 1, mu).multipliers[0]
    lhs0_analytic = math.pi * flag(2, 1) * 3.0 / 6.0  # per unit S_2 mass
    assert rhs0 == pytest.approx(math.pi ** 2 / 4, abs=1e-6)
    assert rhs0 * 6.0 == pytest.approx(math.pi * flag(2, 1) * 3.0, abs=1e-5)
    assert lhs0_analytic == pytest.approx(rhs0, abs=1e-5)


def test_crofton_mv_mc_small():
    res = crofton_minkowski(cube(), ZonalObject.dirac_pole(3, kmax=16),
                            1, 1, 20000, seed=5)
    assert res["all_pass"]
    ks = [r["k"] for r in res["rows"]]
    assert ks == [0, 2, 3, 4]
    k0 = res["rows"][0]
    assert k0["rhs"] == pytest.approx(1.5 * math.pi ** 2, abs=1e-5)
    assert abs(k0["lhs"] - k0["rhs"]) <= 3 * k0["stderr"] + k0["berg_bar"]


def test_crofton_mv_guards():
    mu = ZonalObject.dirac_pole(3, kmax=8)
    with pytest.raises(ValueError):
        crofton_minkowski(cube(), mu, 2, 1, 100, seed=1)
    with pytest.raises(ValueError, match="degrees"):
        crofton_minkowski(cube(), mu, 1, 1, 100, seed=1, degrees=(0, 9))


def test_crofton_mv_determinism():
    mu = ZonalObject.dirac_pole(3, kmax=8)
    a = crofton_minkowski(cube(), mu, 1, 1, 4000, seed=8)
    b = crofton_minkowski(cube(), mu, 1, 1, 4000, seed=8)
    assert [r["lhs"] for r in a["rows"]] == [r["lhs"] for r in b["rows"]]
