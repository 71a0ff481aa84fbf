"""The stratified laws of offsets (PLANES, LINES, POINTS): their last
stratum's end, which the kernels take; and, over many seeds, the
calibration of the Crofton terms' estimates, those with i + j = 3 under
the stratified laws and the others under the lattice law of directions, of
the kinematic integrals' under the lattice law of rotations, of the rows
of `crofton-mv` and of both sides of `kinematic --spec`, and of the same
estimators under the iid laws that the lattices replaced: unbiased, with a
per-shard standard error that is neither understated nor overstated.
Every plane and line term of `kinematic --hadwiger` is one of the tabled
Crofton estimators (`_intrinsic_kernel`)."""

import functools

import numpy as np
import pytest

from minkval.convex import _unit, cube, random_hull
from minkval.integral_geom import (
    DIRECTIONS,
    POINTS,
    ROTATIONS,
    FlatIntegrals,
    PlaneSections,
    TranslativeIntegrals,
    _BoxPoints,
    _intrinsic_kernel,
    _LineChords,
    _valuation_kernel,
    crofton_minkowski,
    crofton_target,
    kinematic_target,
    run_shards,
)
from minkval.valuation import PieceEvaluator, builtin_spec
from minkval.zonal import builtin_zonal

from flat_reference import IID_DIRECTIONS, IID_ROTATIONS

TOP = 1.0 - 2.0 ** -53   # the largest double of Generator.random
BODIES = {"cube": cube(), "hull": random_hull(5, 30)}
PROBE = np.array([0.36, -0.48, 0.8])   # crofton-mv's default probe, and the --dir of --spec


@pytest.mark.parametrize("m", [1, 2, 3, 10, 1000, 999_983, 10 ** 6])
def test_last_stratum_ends_at_1(m):
    # (m - 1 + u) / m rounds to 1 at the largest u for every m >= 2, and
    # never above; every other stratum keeps its double below its end
    u = np.full((m, 3), TOP)
    POINTS.draw(u, (np.arange(m), m, None))
    u = u[:, 0]
    assert u[-1] == (TOP if m == 1 else 1.0)
    assert np.all(u <= (np.arange(m) + 1.0) / m)


@pytest.mark.parametrize("body", sorted(BODIES))
def test_kernels_take_the_end_of_the_last_stratum(body):
    # at the double 1 a plane supports the body, a line touches the ball
    # about it and a point lies on its box: every value is finite, and
    # planes and lines miss
    P = BODIES[body]
    rng = np.random.default_rng(3)
    dirs = _unit(rng.standard_normal((200, 3)))
    ones = np.ones(200)
    assert np.all(PlaneSections(P).areas(dirs, ones.copy()) == 0.0)
    assert np.all(_LineChords(P)(dirs, ones.copy(), rng.random(200)) == 0.0)
    x = rng.random((200, 3))
    x[:, 0] = 1.0
    points = _BoxPoints(P)
    hits = points(*x.T)
    assert np.all(np.isin(hits, [0.0, points.volume]))
    if body == "cube":   # its box is the body
        assert np.all(hits == points.volume)


def calibration_runs(law, kernel, sample_bytes, target):
    """Seeds 0-199 at N 200 in 20 shards: the estimates, stderrs and their
    z = (estimate - target) / stderr."""
    runs = np.array([run_shards(law, kernel, sample_bytes, seed, 200, 20) for seed in range(200)])
    est, se = runs[:, 0], runs[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        return est, se, (est - target) / se


def assert_calibrated(z):
    # with 20 shards z follows Student's t with 19 degrees of freedom, of
    # spread about 1.06
    assert abs(z.mean()) <= 0.3, z.mean()
    assert 0.8 <= z.std(ddof=1) <= 1.25, z.std(ddof=1)


def crofton(body, i, j):
    """The Crofton term of V_j at codimension i on the body: the law, the
    kernel and its bytes per sample (`_intrinsic_kernel`), and the target."""
    P = BODIES[body]
    return (*_intrinsic_kernel(P, j, i), crofton_target(P, i, j))


def kinematic(body, j):
    """The motion integral of V_j of the body and the cube under the
    rotations (`kinematic_check`), as `crofton` gives its term."""
    P, L = BODIES[body], BODIES["cube"]
    integrals = TranslativeIntegrals(P, L)
    return (ROTATIONS, (integrals.volumes, integrals.mean_widths)[j], integrals.sample_bytes,
            kinematic_target(P, L, j))


def crofton_mv(body, k):
    """Row k of `crofton-mv` with its default mu (dirac_pole) and probe:
    the moment of degree k of the sections' S_1 times mu's multiplier, under
    the directions (`FlatIntegrals.moments`), and the row's rhs."""
    P = BODIES[body]
    mu = builtin_zonal("dirac_pole", n=3, kmax=32)
    flats, w, a_k = FlatIntegrals(P), _unit(PROBE), mu.multipliers[k]
    rhs = crofton_minkowski(P, mu, 1, 1, 40, 0, degrees=(k,))["rows"][0]["rhs"]
    return DIRECTIONS, lambda a: a_k * flats.moments(a, w, k)[:, k], flats.sample_bytes + 8 * (k + 1), rhs


@functools.cache
def kinematic_spec(side):
    """A side of `kinematic --spec projection_body` on the cube pair at
    PROBE: the motion integral under the rotations (less the pieces of P's
    own faces, `TranslativeIntegrals.fixed_pieces`), or the plane term of
    its Hadwiger decomposition under the directions; the target is the
    estimate of one run of 80000 samples, whose stderr is at most 1/20 of a
    run of 200's under either law."""
    P = BODIES["cube"]
    value = PieceEvaluator(builtin_spec("projection_body"), PROBE)
    if side == "lhs":
        integrals = TranslativeIntegrals(P, P)
        estimator = (ROTATIONS, lambda R: value(integrals.pieces(R, value.degrees)),
                     integrals.sample_bytes + integrals.piece_bytes)
    else:
        estimator = _valuation_kernel(P, value, 1)
    target, se = run_shards(*estimator, 10 ** 6, 80_000, 20)
    for law in (estimator[0], iid(estimator[0])):
        assert se <= run_shards(law, *estimator[1:], 10 ** 6, 200, 20)[1] / 20.0
    return (*estimator, target)


def iid(law):
    """The iid law of directions or rotations that the lattice law replaced."""
    return {DIRECTIONS: IID_DIRECTIONS, ROTATIONS: IID_ROTATIONS}[law]


# the terms V_2 of planes, V_1 of lines and V_0 of points, at small N
@pytest.mark.parametrize("body", sorted(BODIES))
@pytest.mark.parametrize("i,j", [(1, 2), (2, 1), (3, 0)])
def test_stratified_estimates_are_calibrated(body, i, j):
    *estimator, target = crofton(body, i, j)
    est, se, z = calibration_runs(*estimator, target)
    if body == "cube" and i == 3:
        # every point of the cube's box hits: the estimate is exact
        assert np.all(se == 0.0) and np.allclose(est, target, rtol=1e-15, atol=0.0)
        return
    assert_calibrated(z)


# the estimators of directions and rotations: the directions of the Crofton
# terms with i + j < n, of the crofton-mv rows and of the plane term of
# kinematic --spec (DIRECTIONS), and the rotations of the kinematic
# integrals of V_0 and V_1 and of the motion side of kinematic --spec
# (ROTATIONS)
ESTIMATORS = {**{f"crofton-{body}-i{i}-j{j}": (crofton, body, i, j)
                 for body in BODIES for i, j in [(1, 0), (1, 1), (2, 0)]},
              **{f"kinematic-{body}-cube-j{j}": (kinematic, body, j)
                 for body in BODIES for j in (0, 1)},
              **{f"crofton-mv-hull-k{k}": (crofton_mv, "hull", k) for k in (0, 2)},
              **{f"kinematic-spec-cube-cube-{side}": (kinematic_spec, side)
                 for side in ("lhs", "planes")}}


@pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
def test_lattice_estimates_are_calibrated(estimator):
    make, *args = ESTIMATORS[estimator]
    assert_calibrated(calibration_runs(*make(*args))[2])


@pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
def test_iid_estimates_are_calibrated(estimator):
    # the same estimators under the iid laws of the tests' references
    make, *args = ESTIMATORS[estimator]
    law, *rest = make(*args)
    assert_calibrated(calibration_runs(iid(law), *rest)[2])
