"""The stratified laws of offsets (PLANES, LINES, POINTS): their last
stratum's end, which the kernels take; and, over many seeds, the
calibration of the Crofton terms' estimates, those with i + j = 3 under
the stratified laws and the others under the iid law of directions, and of
the kinematic integrals' under the iid law of rotations: unbiased, with a
per-shard standard error that is neither understated nor overstated."""

import numpy as np
import pytest

from minkval.convex import _unit, cube, random_hull
from minkval.integral_geom import (
    PLANES,
    ROTATIONS,
    PlaneSections,
    TranslativeIntegrals,
    _BoxPoints,
    _intrinsic_kernel,
    _LineChords,
    crofton_target,
    kinematic_target,
    run_shards,
)

TOP = 1.0 - 2.0 ** -53   # the largest double of Generator.random
BODIES = {"cube": cube(), "hull": random_hull(5, 30)}


@pytest.mark.parametrize("m", [1, 2, 3, 10, 1000, 999_983, 10 ** 6])
def test_last_stratum_ends_at_1(m):
    # (m - 1 + u) / m rounds to 1 at the largest u for every m >= 2, and
    # never above; every other stratum keeps its double below its end
    u = np.full((m, 1), TOP)
    PLANES.stratify((np.zeros((m, 3)), u), np.arange(m), m)
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


# the iid laws: the directions of the Crofton terms with i + j < n
# (DIRECTIONS) and the rotations of the kinematic integrals of V_0 and V_1
IID = {**{f"crofton-{body}-i{i}-j{j}": (crofton, body, i, j)
          for body in BODIES for i, j in [(1, 0), (1, 1), (2, 0)]},
       **{f"kinematic-{body}-cube-j{j}": (kinematic, body, j) for body in BODIES for j in (0, 1)}}


@pytest.mark.parametrize("estimator", sorted(IID))
def test_iid_estimates_are_calibrated(estimator):
    make, *args = IID[estimator]
    assert_calibrated(calibration_runs(*make(*args))[2])
