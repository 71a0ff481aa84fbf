"""The shifted lattices of directions and rotations (DIRECTIONS, ROTATIONS):
their points are the spherical Fibonacci lattice of each shard shifted by
the shard's two doubles, and a rotation's matrix is that of its Hopf
quaternion; their estimates do not depend on how the run is chunked; no
estimator of the calibration table (`test_stratified_laws.ESTIMATORS`)
has a larger variance under the lattice than under the iid law it
replaced; and an integrand the lattice integrates exactly passes the CLI
gate at the rounding floor."""

import math

import numpy as np
import pytest

from minkval import integral_geom
from minkval.convex import cube, random_hull
from minkval.integral_geom import (
    DIRECTIONS,
    GOLDEN,
    ROTATIONS,
    EstimateReport,
    TranslativeIntegrals,
    _chunk_strata,
    _intrinsic_kernel,
    _shard_sizes,
    run_shards,
)

from motion_reference import rotations_from_quaternions
from test_cli import run
from test_stratified_laws import ESTIMATORS, iid


def test_points_are_the_shifted_fibonacci_lattice():
    # shards of 7 and 8 samples: sample j of a shard of m is
    # u = ((j + 1/2) / m, j g) + s mod 1, its direction
    # (sqrt(1 - z^2) cos phi, sqrt(1 - z^2) sin phi, z) with z = 1 - 2 u_0,
    # phi = 2 pi u_1, and its rotation the matrix of the quaternion of
    # Hopf coordinates (u_0, phi, psi = 2 pi u_2)
    rng = np.random.default_rng(4)
    sizes = np.array([7, 8] * 30)
    ends = np.cumsum(sizes)
    m = int(ends[-1]) - 5
    strata = _chunk_strata(sizes, ends, 5, m)
    shifts, angle = rng.random((len(sizes), 2)), rng.random(m)
    j, size, shard = strata
    assert np.array_equal(size, sizes[shard]) and np.all((0 <= j) & (j < size))
    u0 = ((j + 0.5) / size + shifts[shard, 0]) % 1.0
    phi = 2.0 * math.pi * ((j * GOLDEN + shifts[shard, 1]) % 1.0)
    z, psi = 1.0 - 2.0 * u0, 2.0 * math.pi * angle
    r = np.sqrt(1.0 - z * z)
    want = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    q = np.stack([np.sqrt(1.0 - u0) * np.cos(psi / 2), np.sqrt(1.0 - u0) * np.sin(psi / 2),
                  np.sqrt(u0) * np.cos(phi + psi / 2), np.sqrt(u0) * np.sin(phi + psi / 2)],
                 axis=1)
    (a,) = DIRECTIONS.draw(np.empty((m, 0)), strata, shifts)
    (R,) = ROTATIONS.draw(angle[:, None], strata, shifts)
    assert np.abs(a - want).max() <= 1e-14
    assert np.abs(R - rotations_from_quaternions(q)).max() <= 1e-14
    assert np.abs(R @ R.transpose(0, 2, 1) - np.eye(3)).max() <= 1e-14
    assert np.all(np.abs(np.linalg.det(R) - 1.0) <= 1e-14)


def _lattice_estimators():
    """A Crofton term under the directions and a kinematic integral under
    the rotations, on random_hull(5, 30) and the cube."""
    P = random_hull(5, 30)
    integrals = TranslativeIntegrals(P, cube())
    return {"directions": _intrinsic_kernel(P, 1, 1),
            "rotations": (ROTATIONS, integrals.mean_widths, integrals.sample_bytes)}


@pytest.mark.parametrize("kind", ["directions", "rotations"])
def test_estimates_do_not_depend_on_the_chunking(monkeypatch, kind):
    # 213 samples in 20 shards, of 10 and 11 samples, in chunks of 7 that
    # cut most shards mid-way and of the default size: the same estimate and
    # stderr, bit for bit, and again on a rerun
    law, kernel, sample_bytes = _lattice_estimators()[kind]
    assert sorted(set(_shard_sizes(213, 20))) == [10, 11]
    whole = run_shards(law, kernel, sample_bytes, 31, 213, 20)
    monkeypatch.setattr(integral_geom, "CHUNK_BYTES", 7 * max(sample_bytes, law.bytes))
    for _ in range(2):
        est, se = run_shards(law, kernel, sample_bytes, 31, 213, 20)
        assert np.array_equal(est, whole[0]) and np.array_equal(se, whole[1])
        assert se > 0.0


def _shard_variance(law, kernel, sample_bytes, m, shards, seed):
    """The variance of the mean of a shard of m samples under the law, from
    `shards` shards."""
    return shards * run_shards(law, kernel, sample_bytes, seed, m * shards, shards)[1] ** 2


@pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
def test_lattice_variance_is_at_most_that_of_iid(estimator):
    # the variance of a shard's mean at m samples under the lattice, from
    # 500 shards for rotations (whose psi stays iid, so that some gain
    # little) and 200 for directions, against sigma^2 / m under the iid law,
    # sigma^2 from 10000 shards of 2: within 1.25, the estimate's noise
    # being about sqrt(2 / shards) relative
    make, *args = ESTIMATORS[estimator]
    law, kernel, sample_bytes, _ = make(*args)
    sigma2 = 2.0 * _shard_variance(iid(law), kernel, sample_bytes, 2, 10_000, 41)
    shards = 500 if law is ROTATIONS else 200
    for m in (5, 10, 50, 150):
        ratio = _shard_variance(law, kernel, sample_bytes, m, shards, 43) / (sigma2 / m)
        assert ratio <= 1.25, (m, ratio)


@pytest.mark.parametrize("n_samples,exact", [(200, True), (40, True), (220, False)])
def test_an_exactly_integrated_term_passes_at_the_rounding_floor(tmp_path, n_samples, exact):
    # the plane term of --spec projection_body at --dir 0,0,1 on the cube is
    # 2 V_3 |a_z| over the normals a, a triangle wave in u_0 with kinks at 0
    # and 1/2 that shards of an even size integrate exactly, whatever their
    # shift; the Crofton side is then 2.5 within rounding, with stderr at
    # rounding and z 0, while shards of 11 leave it an error of its own
    code, rep = run(tmp_path, "kinematic", "--body", "cube", "--other", "cube",
                    "--spec", "projection_body", "--dir", "0,0,1", "--N", str(n_samples),
                    "--seed", "17")
    assert code == 0 and rep["pass"]
    side = EstimateReport(rep["rhs"], rep["rhs_stderr"], 2.5, n_samples, 17)
    assert (side.z == 0.0 and side.within(0.0)) == exact
    assert (rep["rhs_stderr"] <= 1e-12 * 2.5) == exact
    assert rep["lhs_stderr"] > 0.0
