"""Valuation specs: evaluation paths, derivation operator, multipliers,
mean sections, pairing, additivity."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minkval import valuation
from minkval.constants import omega
from minkval.convex import Polytope, area_measure, cube, intrinsic_volumes, random_hull
from minkval.integral_geom import TranslativeIntegrals, agrees
from minkval.valuation import (
    PATHS,
    MeasurePieces,
    MinkowskiValuationSpec,
    PieceEvaluator,
    builtin_spec,
    degree1_multipliers,
    evaluate,
    lambda_derivative,
    mean_section_spec,
    poincare_pair,
    valuation_identity_check,
)
from minkval.zonal import ZonalObject, box_multiplier, builtin_zonal

from motion_reference import rotations_from_quaternions


def random_directions(rng, m):
    d = rng.standard_normal((m, 3))
    return d / np.linalg.norm(d, axis=1)[:, None]


def random_rotation(rng):
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def centered_density(rng, band=6, kmax=16, n=3):
    c = rng.normal(size=band + 1)
    c[1] = 0.0
    return ZonalObject.from_coeffs(n, c, kmax=kmax)


def random_spec(rng, kmax=16):
    return MinkowskiValuationSpec(
        n=3, c0=float(rng.uniform(0, 1)),
        mu={1: centered_density(rng, kmax=kmax)},
        f_top=centered_density(rng, kmax=kmax),
        cn=float(rng.uniform(0, 1)))


# -- evaluation ----------------------------------------------------------------

def test_projection_body_of_cube():
    spec = builtin_spec("projection_body")
    res = evaluate(spec, cube(), np.array([[1.0, 0, 0]]))
    assert res.values[0] == pytest.approx(1.0, abs=1e-12)
    # shadow area in a generic direction: sum of |u . n_F| area_F / 2
    u = np.array([0.2, -0.4, 0.89])
    u /= np.linalg.norm(u)
    expect = float(np.sum(np.abs(u)))
    res2 = evaluate(spec, cube(), u[None, :])
    assert res2.values[0] == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("t", [1e-3, 1.0])
@pytest.mark.parametrize("path", ["pointwise", "spectral"])
def test_projection_body_of_a_ball_is_exact(t, path):
    # P + tB for a point P is the ball tB, whose projection body has support
    # function pi t^2; the S_0 quadrature over the vertex cones missed it by
    # up to 3.7e-4 (pointwise) and 1.1e-7 (spectral)
    P = Polytope.from_vertices([[0.3, -0.2, 0.5]])
    dirs = random_directions(np.random.default_rng(12), 200)
    res = evaluate(builtin_spec("projection_body"), P, dirs, path=path, parallel_t=t)
    assert np.abs(res.values / (math.pi * t * t) - 1.0).max() <= 1e-14


def test_constant_degree_one_datum():
    c = 0.61
    spec = MinkowskiValuationSpec(n=3, mu={1: ZonalObject.constant(3, c)})
    res = evaluate(spec, cube(), np.array([[0.0, 0, 1.0], [0.6, 0.8, 0.0]]))
    assert np.allclose(res.values, 3 * math.pi * c, atol=1e-10)


def test_volume_only_spec():
    spec = MinkowskiValuationSpec(n=3, cn=0.7)
    res = evaluate(spec, cube(), np.array([[1.0, 0, 0]]))
    assert res.values[0] == pytest.approx(0.7)


def test_volume_is_taken_only_for_a_volume_term(monkeypatch):
    calls = []
    volumes = valuation.intrinsic_volumes
    monkeypatch.setattr(valuation, "intrinsic_volumes", lambda P: calls.append(P) or volumes(P))
    dirs = np.array([[0.0, 0.6, 0.8]])
    for name in ("projection_body", "difference_body", "mean_section:2"):
        evaluate(builtin_spec(name), cube(), dirs)
    assert calls == []
    evaluate(MinkowskiValuationSpec(n=3, cn=0.7), cube(), dirs)
    assert len(calls) == 1


def test_empty_body_contributes_zero():
    spec = builtin_spec("projection_body")
    res = evaluate(spec, Polytope.empty(), np.array([[1.0, 0, 0]]))
    assert res.values[0] == 0.0


def test_two_paths_agree_band_limited():
    rng = np.random.default_rng(1)
    spec = random_spec(rng)
    P = random_hull(6)
    dirs = random_directions(rng, 7)
    a = evaluate(spec, P, dirs, path="pointwise")
    b = evaluate(spec, P, dirs, path="spectral", band=16)
    assert np.max(np.abs(a.values - b.values)) < 1e-9
    assert a.path == "pointwise" and b.path == "spectral"


def test_spectral_path_handles_atoms():
    mu = ZonalObject(3, atoms=[(1.0, 1.0), (-1.0, 1.0)], kmax=16).centered()
    spec = MinkowskiValuationSpec(n=3, mu={1: mu})
    dirs = np.array([[0.0, 0.0, 1.0]])
    res = evaluate(spec, cube(), dirs, band=16)
    assert res.path == "spectral"
    with pytest.raises(ValueError):
        evaluate(spec, cube(), dirs, path="pointwise")


@pytest.mark.parametrize("path", ["nosuch", "empty", "Spectral", None])
def test_unknown_path_is_rejected(path):
    # an unknown path silently took the spectral path
    spec = builtin_spec("projection_body")
    for body in (cube(), Polytope.empty()):
        with pytest.raises(ValueError, match="unknown evaluation path"):
            evaluate(spec, body, np.array([[1.0, 0, 0]]), path=path)
    with pytest.raises(ValueError, match="unknown evaluation path"):
        valuation.PieceEvaluator(spec, [0.0, 0.0, 1.0], path)


def test_spectral_truncation_reported():
    spec = builtin_spec("projection_body", kmax=32)
    res = evaluate(spec, cube(), np.array([[1.0, 0, 0]]), band=8, path="spectral")
    assert res.band == 8
    assert res.truncation_tail > 0


def test_spectral_band_overflow_rejected():
    spec = builtin_spec("projection_body", kmax=8)
    with pytest.raises(ValueError, match="overflow"):
        evaluate(spec, cube(), np.array([[1.0, 0, 0]]), band=16, path="spectral")


def test_spectral_truncation_tail_is_a_bound():
    # for data fully resolved by kmax, |pointwise - spectral| <= reported tail
    rng = np.random.default_rng(20)
    c = np.zeros(25)
    c[[0, 2, 5, 12, 24]] = rng.normal(size=5)
    spec = MinkowskiValuationSpec(n=3, f_top=ZonalObject.from_coeffs(3, c, kmax=32))
    P = random_hull(44)
    dirs = random_directions(rng, 6)
    exact = evaluate(spec, P, dirs, path="pointwise").values
    for L in (4, 8, 16):
        res = evaluate(spec, P, dirs, path="spectral", band=L)
        dev = float(np.max(np.abs(res.values - exact)))
        assert dev <= res.truncation_tail + 1e-12
    full = evaluate(spec, P, dirs, path="spectral", band=24)
    assert np.max(np.abs(full.values - exact)) < 1e-9


def test_degree_homogeneity():
    rng = np.random.default_rng(2)
    P = random_hull(9)
    dirs = random_directions(rng, 5)
    for i, spec in ((1, MinkowskiValuationSpec(n=3, mu={1: centered_density(rng)})),
                    (2, MinkowskiValuationSpec(n=3, f_top=centered_density(rng)))):
        base = evaluate(spec, P, dirs).values
        for lam in (0.5, 2.0):
            scaled = evaluate(spec, P.scaled(lam), dirs).values
            assert np.max(np.abs(scaled - lam ** i * base)) < 1e-8


def test_rotation_equivariance():
    rng = np.random.default_rng(3)
    spec = random_spec(rng)
    P = random_hull(10)
    dirs = random_directions(rng, 6)
    for _ in range(3):
        R = random_rotation(rng)
        a = evaluate(spec, P.rotated(R), dirs @ R.T).values
        b = evaluate(spec, P, dirs).values
        assert np.max(np.abs(a - b)) < 1e-8


BUILTIN_SPECS = ("projection_body", "difference_body", "mean_width_ball",
                 "mean_section:2", "mean_section:3")
quaternions = st.tuples(*[st.floats(-1.0, 1.0)] * 4).map(np.array).filter(
    lambda q: np.linalg.norm(q) > 0.1).map(lambda q: q / np.linalg.norm(q))
unit_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(lambda v: v / np.linalg.norm(v))
# The tolerance of the rotated values, relative to the size of their sums,
# |c0| V_0 + sum_i |S_i| max |g_i| + |cn| V_3 with |S_i| the total mass of
# S_i and g_i the profile of the degree-i datum, which bounds the sum of
# the absolute values of the quadrature terms.  The rotated body is
# rebuilt from rotated vertices, each off by a few ulps (eps = 2.2e-16) of
# its size, so its facet normals, the nodes of its area measures, move by
# a few eps times the diameter over the shortest edge, and its masses by as
# much relative; the shortest edge of random_hull(seed) is at least 0.0038
# of the diameter (every 20th seed), so both stay below 1e-12.  A term
# w g(u . v) then moves by at most |w| (max |g| + max |g'|) 1e-12.  The
# profiles here are |t| / 2, or Legendre series of degree at most 32, for
# which Markov's inequality gives max |g'| <= 32^2 max |g|.  So 1e-9 of the
# size bounds the rounding of the rotation; the differences seen stay
# below 1e-14 of it (150 random cases).
ROTATION_RTOL = 1e-9


def _size(value: PieceEvaluator, hit, masses, volume) -> np.ndarray:
    """|c0| hit + sum_i masses[i] max |g_i| + |cn| volume, with g_i the
    profiles of the evaluator, whose path is the one evaluate takes."""
    t = np.linspace(-1.0, 1.0, 2001)
    return (abs(value.c0) * hit + abs(value.cn) * volume
            + sum(masses[i] * np.abs(g(t)).max() for i, g in value.profiles.items()))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(BUILTIN_SPECS), seed=st.integers(0, 2 ** 16),
       exponent=st.floats(-6.0, 6.0), q=quaternions, u=unit_vectors)
def test_rotation_equivariance_relative(name, seed, exponent, q, u):
    # h(Phi(R P))(R u) = h(Phi(P))(u) for every builtin valuation, to the
    # rounding of the rotated lattice, at any scale
    spec = builtin_spec(name)
    P = random_hull(seed).scaled(10.0 ** exponent)
    R = rotations_from_quaternions(q[None])[0]
    dirs = np.array([u, -u, [0.0, 0.0, 1.0]])
    got = evaluate(spec, P.rotated(R), dirs @ R.T).values
    want = evaluate(spec, P, dirs).values
    iv = intrinsic_volumes(P)
    size = _size(PieceEvaluator(spec, u), 1.0,
                 {i: area_measure(P, i).total_mass for i in (1, 2)}, iv.v3)
    assert np.abs(got - want).max() <= ROTATION_RTOL * size


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(BUILTIN_SPECS), seed=st.integers(0, 2 ** 16),
       exponent=st.floats(-6.0, 6.0), q=quaternions, u=unit_vectors)
def test_rotation_equivariance_of_the_translative_pieces(name, seed, exponent, q, u):
    # with both bodies turned by Q, the motion Q R Q^T of the turned pair
    # meets them in Q (P n (R L + x)): the piece values at Q u are those of
    # the pair at u, for every rotation R
    spec = builtin_spec(name)
    lam = 10.0 ** exponent
    P, L = random_hull(seed).scaled(lam), random_hull(seed + 1, 10).scaled(lam)
    Q = rotations_from_quaternions(q[None])[0]
    turns = np.random.default_rng(seed).standard_normal((5, 4))
    R = rotations_from_quaternions(turns / np.linalg.norm(turns, axis=1)[:, None])
    pieces = TranslativeIntegrals(P, L).pieces(R, (1, 2))
    turned = TranslativeIntegrals(P.rotated(Q), L.rotated(Q)).pieces(Q @ R @ Q.T, (1, 2))
    value = PieceEvaluator(spec, u)
    got = PieceEvaluator(spec, Q @ value.u)(turned)
    want = value(pieces)
    size = _size(value, pieces.hit, {1: pieces.s1.total_mass, 2: pieces.s2.total_mass},
                 pieces.volume)
    assert np.all(np.abs(got - want) <= ROTATION_RTOL * size)


@st.composite
def zonal_data(draw, degree):
    """None, a Legendre density, centered atoms (with the density that
    centres them), or the datum of a builtin valuation at `degree`."""
    kind = draw(st.sampled_from(["none", "density", "atoms", "builtin"]))
    if kind == "density":
        c = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=9))
        return ZonalObject.from_coeffs(3, [c[0], 0.0, *c[2:]][:len(c)], kmax=16)
    if kind == "atoms":
        atoms = draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.01, 1.0)),
                              min_size=1, max_size=3))
        return ZonalObject(3, atoms=atoms, kmax=16).centered()
    if kind == "builtin":
        return builtin_spec("mean_section:3").mu[1] if degree == 1 else \
            builtin_spec("projection_body").f_top
    return None


ATOMS = ZonalObject(3, atoms=[(1.0, 1.0), (-0.5, 0.7)], kmax=16).centered()


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([3, 4]), c0=st.floats(-1.0, 1.0), cn=st.floats(-1.0, 1.0),
       mu1=zonal_data(1), f_top=zonal_data(2), path=st.sampled_from([*PATHS, "nosuch"]),
       seed=st.integers(0, 2 ** 16), u=unit_vectors)
@example(n=3, c0=0.5, cn=0.3, mu1=ATOMS, f_top=builtin_spec("projection_body").f_top,
         path="auto", seed=7, u=np.array([0.36, -0.48, 0.8]))
@example(n=3, c0=0.5, cn=0.3, mu1=ATOMS, f_top=None, path="pointwise", seed=7,
         u=np.array([0.36, -0.48, 0.8]))
def test_piece_evaluator_is_evaluate_on_the_body_own_pieces(n, c0, cn, mu1, f_top, path,
                                                             seed, u):
    # one profile builder: the same errors, and on a body's own area
    # measures as pieces the value of evaluate, on either path
    spec = (MinkowskiValuationSpec(n=3, c0=c0, mu={} if mu1 is None else {1: mu1},
                                   f_top=f_top, cn=cn)
            if n == 3 else MinkowskiValuationSpec(n=4, c0=c0, cn=cn))
    P = random_hull(seed)

    def outcome(make):
        try:
            return make()
        except ValueError as exc:
            return str(exc)
    value = outcome(lambda: PieceEvaluator(spec, u, path))
    want = outcome(lambda: evaluate(spec, P, u[None], path=path))
    if isinstance(value, str) or isinstance(want, str):
        assert value == want
        return
    assert value.path == want.path
    s1, s2 = (replace(area_measure(P, i), bodies=1) for i in (1, 2))
    v3 = intrinsic_volumes(P).v3
    got = value(MeasurePieces(np.array([True]), s1, s2, np.array([v3])))
    size = _size(value, 1.0, {1: s1.total_mass, 2: s2.total_mass}, v3)
    assert abs(got[0] - want.values[0]) <= 1e-12 * np.max(size)


def test_subadditivity_of_generated_support_functions():
    # specs with non-negative generating data produce support functions
    rng = np.random.default_rng(4)
    P = random_hull(11)
    for name in ("projection_body", "mean_width_ball", "difference_body"):
        spec = builtin_spec(name)
        for _ in range(10):
            u, v = rng.standard_normal(3), rng.standard_normal(3)
            w = u + v
            hu = np.linalg.norm(u) * evaluate(spec, P, u[None] / np.linalg.norm(u)).values[0]
            hv = np.linalg.norm(v) * evaluate(spec, P, v[None] / np.linalg.norm(v)).values[0]
            hw = np.linalg.norm(w) * evaluate(spec, P, w[None] / np.linalg.norm(w)).values[0]
            assert hw <= hu + hv + 1e-8


# -- derivation operator ---------------------------------------------------------

def test_lambda_annihilates_constants():
    spec = MinkowskiValuationSpec(n=3, c0=2.0)
    d = lambda_derivative(spec)
    assert d.c0 == 0.0 and not d.mu and d.f_top is None and d.cn == 0.0


def test_lambda_degree_shift_factor():
    rng = np.random.default_rng(5)
    f2 = centered_density(rng)
    spec = MinkowskiValuationSpec(n=3, f_top=f2)
    d = lambda_derivative(spec)
    assert set(d.mu) == {1}
    assert np.allclose(d.mu[1].multipliers, 2.0 * f2.multipliers)
    # again: degree 1 -> constant with the total mass
    dd = lambda_derivative(d)
    assert dd.c0 == pytest.approx(2.0 * f2.total_mass)
    assert not dd.mu and dd.f_top is None


def test_lambda_degree_two_general_dimension():
    rng = np.random.default_rng(6)
    mu2 = centered_density(rng, n=5)
    spec = MinkowskiValuationSpec(n=5, mu={2: mu2})
    d = lambda_derivative(spec)
    assert set(d.mu) == {1}
    assert np.allclose(d.mu[1].multipliers, 2.0 * mu2.multipliers)


def test_lambda_chain_factorial():
    rng = np.random.default_rng(7)
    mu3 = centered_density(rng, n=6)
    spec = MinkowskiValuationSpec(n=6, mu={3: mu3})
    d = spec
    for _ in range(2):
        d = lambda_derivative(d)
    assert set(d.mu) == {1}
    assert np.allclose(d.mu[1].multipliers, 6.0 * mu3.multipliers)  # 3!


def test_lambda_matches_finite_difference():
    rng = np.random.default_rng(8)
    dirs = random_directions(rng, 5)
    for seed in range(3):
        spec = random_spec(rng)
        P = random_hull(seed + 60)
        d = lambda_derivative(spec)
        h = 1e-4
        f0 = evaluate(spec, P, dirs, path="pointwise", parallel_t=0.0).values
        f1 = evaluate(spec, P, dirs, path="pointwise", parallel_t=h).values
        f2 = evaluate(spec, P, dirs, path="pointwise", parallel_t=2 * h).values
        fd = (-3 * f0 + 4 * f1 - f2) / (2 * h)
        dv = evaluate(d, P, dirs, path="pointwise").values
        assert np.max(np.abs(fd - dv)) < 1e-6


def test_lambda_volume_term_flows_to_top_degree():
    spec = MinkowskiValuationSpec(n=3, cn=1.5)
    d = lambda_derivative(spec)
    assert d.f_top is not None
    # constant density c_n: the derived valuation is c_n * total S_2 mass
    res = evaluate(d, cube(), np.array([[1.0, 0, 0]]))
    assert res.values[0] == pytest.approx(1.5 * 6.0, abs=1e-10)


# -- degree-1 multipliers ----------------------------------------------------------

def test_degree1_multipliers_atoms():
    mu = ZonalObject.from_atoms(3, [(1.0, 1.0), (-1.0, 1.0)], kmax=10)
    seq = degree1_multipliers(mu)
    for k in range(11):
        expect = 0.0 if k == 1 else box_multiplier(3, k) * (1 + (-1) ** k)
        assert seq[k] == pytest.approx(expect, abs=1e-12)


def test_degree1_multipliers_constant():
    mu = ZonalObject.constant(3, 0.8, kmax=10)
    seq = degree1_multipliers(mu)
    assert seq[0] == pytest.approx(0.8 * omega(3))
    assert np.max(np.abs(seq.values[1:])) < 1e-12


def test_degree1_multipliers_from_spec():
    rng = np.random.default_rng(9)
    mu = centered_density(rng)
    spec = MinkowskiValuationSpec(n=3, mu={1: mu})
    seq = degree1_multipliers(spec)
    for k in (0, 2, 5):
        assert seq[k] == pytest.approx(box_multiplier(3, k) * mu.multipliers[k])
    bad = MinkowskiValuationSpec(n=3, cn=1.0)
    with pytest.raises(ValueError):
        degree1_multipliers(bad)


def test_schneider_bound_for_nonnegative_measures():
    # |a_k| <= a_0 for the valuation generated by a non-negative zonal
    # measure acting on support functions
    rng = np.random.default_rng(10)
    for _ in range(25):
        atoms = [(float(t), float(m)) for t, m in
                 zip(rng.uniform(-1, 1, 4), rng.uniform(0.1, 2.0, 4))]
        mu = ZonalObject.from_atoms(3, atoms, kmax=32)
        assert np.all(np.abs(mu.multipliers) <= mu.multipliers[0] * (1 + 1e-12))


# -- mean sections -------------------------------------------------------------------

def test_mean_section_constants():
    ms2 = mean_section_spec(3, 2)
    assert ms2.f_top is not None and not ms2.mu
    # q_{3,2} = 1/2 under kappa(-1) = 1/pi: leading multiplier is pi^2/8 * ...
    assert ms2.f_top.multipliers[0] == pytest.approx(0.5 * math.pi ** 2 / 4, abs=1e-7)
    assert ms2.f_top.multipliers[1] == 0.0
    ms3 = mean_section_spec(3, 3)
    assert set(ms3.mu) == {1}  # degree n+1-j = 1
    assert ms3.mu[1].multipliers[1] == 0.0
    with pytest.raises(ValueError):
        mean_section_spec(3, 1)


def test_mean_section_degree_homogeneity():
    rng = np.random.default_rng(11)
    P = random_hull(13)
    dirs = random_directions(rng, 4)
    ms2 = mean_section_spec(3, 2)  # degree 2
    base = evaluate(ms2, P, dirs).values
    scaled = evaluate(ms2, P.scaled(2.0), dirs).values
    assert np.max(np.abs(scaled - 4.0 * base)) < 1e-8


# -- pairing --------------------------------------------------------------------------

def test_poincare_pair_legendre():
    p2 = ZonalObject.from_coeffs(3, [0, 0, 1.0], kmax=8)
    assert poincare_pair(p2, p2, 1) == pytest.approx(-8 * math.pi / 5, rel=1e-12)
    p3 = ZonalObject.from_coeffs(3, [0, 0, 0, 1.0], kmax=8)
    assert abs(poincare_pair(p2, p3, 1)) < 1e-12


def test_poincare_pair_symmetry():
    rng = np.random.default_rng(12)
    h = centered_density(rng)
    f = centered_density(rng)
    assert poincare_pair(h, f, 1) == pytest.approx(poincare_pair(f, h, 2), rel=1e-10)


def test_poincare_pair_parity():
    # odd degrees flip sign under the antipodal reflection inside the pairing
    p3 = ZonalObject.from_coeffs(3, [0, 0, 0, 1.0], kmax=8)
    val = poincare_pair(p3, p3, 1)
    direct = -box_multiplier(3, 3) * omega(3) / 7
    assert val == pytest.approx(direct, rel=1e-10)


# -- additivity -----------------------------------------------------------------------

def test_identity_plane_missing_body():
    rng = np.random.default_rng(13)
    spec = random_spec(rng)
    rep = valuation_identity_check(spec, cube(), [0, 0, 5.0], [0, 0, 1.0],
                                   random_directions(rng, 10))
    assert rep.residual == 0.0


def test_identity_projection_body_cube():
    rng = np.random.default_rng(14)
    spec = builtin_spec("projection_body")
    rep = valuation_identity_check(spec, cube(), [0.5, 0.5, 0.5], [0, 0, 1.0],
                                   random_directions(rng, 50))
    assert rep.residual is not None and rep.residual <= 1e-7


def test_identity_random_specs_and_bodies():
    rng = np.random.default_rng(15)
    for seed in range(5):
        spec = random_spec(rng)
        P = random_hull(seed + 80)
        a = rng.standard_normal(3)
        point = P.vertices.mean(axis=0)
        rep = valuation_identity_check(spec, P, point, a, random_directions(rng, 20))
        assert rep.skipped or rep.residual <= 1e-6


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["projection_body", "mean_section:2"]),
       exponent=st.floats(-6.0, 6.0))
def test_identity_residual_is_relative_to_the_scale(name, exponent):
    # the residual is the rounding of values of size lambda^2: about 1e-16
    # of the scale at every lambda, 1.5e-3 absolute at 1e6
    lam = 10.0 ** exponent
    a = np.array([0.3, -0.5, 0.81])
    dirs = random_directions(np.random.default_rng(1), 50)
    reps = [valuation_identity_check(builtin_spec(name), random_hull(42, 14, scale=s),
                                     a / (a @ a) * 0.1 * s, a, dirs) for s in (lam, 1.0)]
    assert not reps[0].skipped and not reps[0].reason
    residual, scale = reps[0].residual, reps[0].scale
    assert agrees(residual, 0.0, scale, 1e-12)
    assert not agrees(residual, 0.0, scale, 0.1 * residual / scale)
    assert reps[0].scale == pytest.approx(lam ** 2 * reps[1].scale, rel=1e-12)


def test_identity_degenerate_split_reported():
    spec = builtin_spec("projection_body")
    rng = np.random.default_rng(16)
    # tangent plane at a face: one side is the face itself
    rep = valuation_identity_check(spec, cube(), [0.5, 0.5, 1.0], [0, 0, 1.0],
                                   random_directions(rng, 5))
    assert rep.skipped
    assert "degenerate" in rep.reason


# -- spec validation and serialization ---------------------------------------------

def test_spec_rejects_uncentered_data():
    bad = ZonalObject.from_coeffs(3, [0.0, 1.0], kmax=8)
    with pytest.raises(ValueError):
        MinkowskiValuationSpec(n=3, mu={1: bad})
    with pytest.raises(ValueError):
        MinkowskiValuationSpec(n=3, mu={5: ZonalObject.constant(3, 1.0)})
    with pytest.raises(ValueError):
        MinkowskiValuationSpec(n=3, f_top=ZonalObject.from_coeffs(4, [1.0]))


def test_spec_json_round_trip():
    rng = np.random.default_rng(17)
    spec = random_spec(rng)
    spec2 = MinkowskiValuationSpec.from_json(spec.to_json(), kmax=16)
    assert spec2.c0 == spec.c0 and spec2.cn == spec.cn
    assert np.max(np.abs(spec2.mu[1].multipliers - spec.mu[1].multipliers)) < 1e-12
    assert np.max(np.abs(spec2.f_top.multipliers - spec.f_top.multipliers)) < 1e-12
    assert spec.to_json() == spec2.to_json()


def test_builtin_difference_body_multipliers():
    db = builtin_spec("difference_body")
    seq = degree1_multipliers(db)
    for k in range(10):
        expect = 0.0 if k == 1 else 1.0 + (-1.0) ** k
        assert seq[k] == pytest.approx(expect, abs=1e-10)


def test_builtin_mean_width_ball():
    mw = builtin_spec("mean_width_ball")
    res = evaluate(mw, cube(), np.array([[0.0, 1.0, 0.0]]))
    # mean width of the unit cube = V_1 / 2 = 3/2
    assert res.values[0] == pytest.approx(1.5, abs=1e-10)


def test_difference_body_evaluation_memory_is_bounded():
    # the degree-32 Legendre density was summed from three full
    # (degrees x nodes x directions) tables: about 650 MiB here.  200
    # directions and 2000 (the addition theorem's blocks)
    spec = builtin_spec("difference_body")
    P = random_hull(42, 200)
    for ndirs in (200, 2000):
        dirs = random_directions(np.random.default_rng(3), ndirs)
        tracemalloc.start()
        try:
            res = evaluate(spec, P, dirs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(res.values))
        assert peak < 16 * 2 ** 20
