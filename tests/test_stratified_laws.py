"""The stratified laws of offsets (PLANES, LINES, POINTS): their last
stratum's end, which the kernels take, and the calibration of the
estimates of the Crofton terms with i + j = 3 over many seeds: unbiased,
with a per-shard standard error that is neither understated nor
overstated."""

import numpy as np
import pytest

from minkval.convex import cube, random_hull
from minkval.integral_geom import (
    PLANES,
    PlaneSections,
    _BoxPoints,
    _intrinsic_kernel,
    _LineChords,
    _strata,
    _unit_rows,
    crofton_target,
    run_shards,
)

TOP = 1.0 - 2.0 ** -53   # the largest double of Generator.random
BODIES = {"cube": cube(), "hull": random_hull(5, 30)}


@pytest.mark.parametrize("m", [1, 2, 3, 10, 1000, 999_983, 10 ** 6])
def test_last_stratum_ends_at_1(m):
    # (m - 1 + u) / m rounds to 1 at the largest u for every m >= 2, and
    # never above; every other stratum keeps its double below its end
    u = np.full(m, TOP)
    PLANES.stratify((np.zeros((m, 3)), u), *_strata((m,)))
    assert u[-1] == (TOP if m == 1 else 1.0)
    assert np.all(u <= (np.arange(m) + 1.0) / m)


@pytest.mark.parametrize("body", sorted(BODIES))
def test_kernels_take_the_end_of_the_last_stratum(body):
    # at the double 1 a plane supports the body, a line touches the ball
    # about it and a point lies on its box: every value is finite, and
    # planes and lines miss
    P = BODIES[body]
    rng = np.random.default_rng(3)
    dirs = _unit_rows(rng.standard_normal((200, 3)))
    ones = np.ones(200)
    assert np.all(PlaneSections(P).areas(dirs, ones.copy()) == 0.0)
    assert np.all(_LineChords(P)(dirs, ones.copy(), rng.random(200)) == 0.0)
    x = rng.random((200, 3))
    x[:, 0] = 1.0
    points = _BoxPoints(P)
    hits = points(x)
    assert np.all(np.isin(hits, [0.0, points.volume]))
    if body == "cube":   # its box is the body
        assert np.all(hits == points.volume)


# the terms V_2 of planes, V_1 of lines and V_0 of points, at small N
@pytest.mark.parametrize("body", sorted(BODIES))
@pytest.mark.parametrize("i,j", [(1, 2), (2, 1), (3, 0)])
def test_stratified_estimates_are_calibrated(body, i, j):
    P = BODIES[body]
    law, kernel, sample_bytes = _intrinsic_kernel(P, j, i)
    target = crofton_target(P, i, j)
    runs = np.array([run_shards(law, kernel, sample_bytes, seed, 200, 20) for seed in range(200)])
    est, se = runs[:, 0], runs[:, 1]
    if body == "cube" and i == 3:
        # every point of the cube's box hits: the estimate is exact
        assert np.all(se == 0.0) and np.allclose(est, target, rtol=1e-15, atol=0.0)
        return
    z = (est - target) / se
    assert abs(z.mean()) <= 0.3, z.mean()
    assert 0.8 <= z.std(ddof=1) <= 1.25, z.std(ddof=1)
