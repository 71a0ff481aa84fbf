"""The closed-form integrals over translations of kinematic_check and
kinematic_minkowski_check (TranslativeIntegrals) against Monte Carlo over
the box law of translations with the reference kernel of whole motions
(motion_reference.MotionIntersections), at fixed rotations; the exact
estimates of j = 2, 3; the scaling of the estimates; and values that do not
depend on the batch."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkval import integral_geom
from minkval.convex import Polytope, cube, intrinsic_volumes, random_hull
from minkval.integral_geom import (
    TranslativeIntegrals,
    hadwiger_check,
    kinematic_check,
    kinematic_target,
)
from minkval.valuation import MinkowskiValuationSpec, PieceEvaluator, builtin_spec

from motion_reference import MotionIntersections, rotations_from_quaternions
from test_integral_geom import slab_and_needle

FAR = np.array([1e3, -1e3, 1e3])
PAIRS = {
    "cubes": (cube(), cube()),
    "slab_needle": slab_and_needle(),
    "hulls": (random_hull(51), random_hull(52, 20)),
    "far": (cube().translated(FAR), random_hull(52).translated(-FAR / 3.0)),
}
U = np.array([0.36, -0.48, 0.8])


@lru_cache(maxsize=None)
def _values():
    """Valuations whose pieces cover every term: S_2 atoms (projection
    body), S_1 arcs (difference body), and the constant and volume terms
    on top of both."""
    both = MinkowskiValuationSpec(c0=0.7, mu=dict(builtin_spec("difference_body").mu),
                                  f_top=builtin_spec("projection_body").f_top, cn=1.3)
    return [PieceEvaluator(spec, U) for spec in (builtin_spec("projection_body"),
                                                  builtin_spec("difference_body"), both)]


def _rotations(seed: int, m: int) -> np.ndarray:
    q = np.random.default_rng(seed).standard_normal((m, 4))
    return rotations_from_quaternions(q / np.linalg.norm(q, axis=1)[:, None])


def _box_law(P: Polytope, L: Polytope, R: np.ndarray, rng: np.random.Generator,
             m: int) -> tuple[np.ndarray, float]:
    """m translations uniform in the coordinate box of P - R L, which holds
    every x at which R L + x meets P, and the box volume."""
    coords = R @ L.vertices.T
    lo = P.vertices.min(axis=0) - coords.max(axis=1)
    hi = P.vertices.max(axis=0) - coords.min(axis=1)
    return lo + (hi - lo) * rng.random((m, 3)), float(np.prod(hi - lo))


@pytest.mark.parametrize("pair,seed", [("cubes", 1), ("slab_needle", 2), ("hulls", 3),
                                       ("far", 4)])
def test_closed_form_matches_box_law_monte_carlo(pair, seed):
    # at fixed rotations, the integral over x of V_j and of the valuations'
    # values on P n (R L + x), by Monte Carlo over the box law, against the
    # closed form: within 5 standard errors
    P, L = PAIRS[pair]
    exact = TranslativeIntegrals(P, L)
    reference = MotionIntersections(P, L)
    vp, vl = intrinsic_volumes(P), intrinsic_volumes(L)
    rng = np.random.default_rng(seed)
    m = 2000
    for R in _rotations(seed, 2):
        x, box = _box_law(P, L, R, rng, m)
        Rs = np.repeat(R[None], m, axis=0)
        pieces, fixed = exact.pieces(R[None], (1, 2)), exact.fixed_pieces((1, 2))
        checks = list(zip(reference.volumes(Rs, x).T,
                          [exact.volumes(R[None])[0], exact.mean_widths(R[None])[0],
                           vp[2] * vl[3] + vp[3] * vl[2], vp[3] * vl[3]]))
        checks += [(value(reference.pieces(Rs, x)), value(pieces)[0] + value(fixed)[0])
                   for value in _values()]
        for k, (samples, want) in enumerate(checks):
            samples = box * samples
            se = samples.std(ddof=1) / math.sqrt(m)
            assert se > 0.0 and abs(samples.mean() - want) <= 5.0 * se, (k, want, se)


@pytest.mark.parametrize("pair", sorted(PAIRS))
@pytest.mark.parametrize("j", [2, 3])
def test_higher_degrees_are_exact(pair, j):
    # int V_j(P n (R L + x)) dx does not depend on R for j = 2, 3: the
    # estimate is the target, with stderr 0, and no rotation is drawn
    P, L = PAIRS[pair]
    rep = kinematic_check(P, L, j, 400, seed=5)
    assert rep.stderr == 0.0 and rep.estimate == rep.target == kinematic_target(P, L, j)
    assert rep.within(0.0) and rep.z == 0.0
    assert hadwiger_check(P, L, j, 400, seed=5)["lhs"].stderr == 0.0


def test_higher_degrees_check_their_sizes_as_the_sampled_ones():
    with pytest.raises(ValueError, match="shards >= 2"):
        kinematic_check(cube(), cube(), 2, 100, seed=1, shards=1)
    with pytest.raises(ValueError, match="n_samples >= 2"):
        kinematic_check(cube(), cube(), 3, 10, seed=1, shards=20)


@lru_cache(maxsize=None)
def _estimate(j: int) -> float:
    return kinematic_check(*PAIRS["hulls"], j, 200, seed=7).estimate


@settings(max_examples=40, deadline=None)
@given(j=st.sampled_from([0, 1]), exponent=st.floats(-6.0, 6.0),
       shifts=st.tuples(*[st.floats(-1e6, 1e6)] * 6))
def test_estimates_scale_as_lambda_3_plus_j_and_ignore_translation(j, exponent, shifts):
    # the same rotations on (lam P + x, lam L + y): lam^(3 + j) times the
    # estimate, up to the rounding of the moved coordinates, a relative
    # eps |x| / lam of the bodies (as for their intrinsic volumes)
    lam = 10.0 ** exponent
    moved = [Polytope.from_vertices(lam * B.vertices + np.array(x))
             for B, x in zip(PAIRS["hulls"], (shifts[:3], shifts[3:]))]
    assert [B.num_vertices for B in moved] == [B.num_vertices for B in PAIRS["hulls"]]
    rel = 1e-12 + 64 * np.finfo(float).eps * (max(map(abs, shifts)) + lam) / lam
    rep = kinematic_check(*moved, j, 200, seed=7)
    assert rep.estimate == pytest.approx(lam ** (3 + j) * _estimate(j), rel=rel)


@pytest.mark.parametrize("pair", ["cubes", "hulls", "far"])
def test_values_do_not_depend_on_the_batch(pair):
    # each rotation's row is reduced by itself: batches of 1, 7 and all
    # give the same values, bit for bit
    exact = TranslativeIntegrals(*PAIRS[pair])
    R = _rotations(11, 30)
    kernels = [exact.volumes, exact.mean_widths] + [
        (lambda rot, value=value: value(exact.pieces(rot, value.degrees))) for value in _values()]
    for kernel in kernels:
        whole = kernel(R)
        for size in (1, 7):
            parts = np.concatenate([kernel(R[lo:lo + size]) for lo in range(0, len(R), size)])
            assert parts.tolist() == whole.tolist()


@pytest.mark.parametrize("chunk", [1 << 12, 1 << 24])
def test_mean_width_estimate_does_not_depend_on_chunk_size(monkeypatch, chunk):
    P, L = PAIRS["hulls"]
    ref = kinematic_check(P, L, 1, 600, seed=5)
    monkeypatch.setattr(integral_geom, "CHUNK_BYTES", chunk)
    rep = kinematic_check(P, L, 1, 600, seed=5)
    assert (rep.estimate, rep.stderr) == (ref.estimate, ref.stderr)
