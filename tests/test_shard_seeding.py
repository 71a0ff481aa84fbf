"""The batched shard seeding of run_shards against numpy's SeedSequence, and
the samplers' draws from Generator.random against the rng.uniform draws
they replaced: the streams, and with them every estimate, are unchanged."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkval.convex import cube, random_hull
from minkval.integral_geom import (
    SEED_BLOCK,
    MotionSampler,
    _flats,
    _rotations_from_quaternions,
    _shard_rngs,
    _unit_rows,
    crofton_intrinsic,
)

from motion_reference import BoxMotionSampler


def reference_rng(seed, k):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))


def assert_streams_match(seed, shards):
    for k, rng in enumerate(_shard_rngs(seed, shards)):
        ref = np.random.SeedSequence(seed, spawn_key=(k,))
        row = rng.bit_generator.seed_seq.generate_state(4, np.uint64)
        assert np.array_equal(row, ref.generate_state(4, np.uint64)), (seed, k)
        assert rng.bit_generator.state == reference_rng(seed, k).bit_generator.state
        assert np.array_equal(rng.random(3), reference_rng(seed, k).random(3))
    assert k == shards - 1


# 2^128 + 7 has five 32-bit words, one more than the pool
@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 128 + 7,
                                  20151021])
def test_shard_streams_match_spawned_seed_sequences(seed):
    assert_streams_match(seed, 2 * SEED_BLOCK + 3)   # k across two block boundaries


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 160 - 1), st.integers(1, SEED_BLOCK + 2))
def test_shard_streams_match_for_any_seed(seed, shards):
    assert_streams_match(seed, shards)


def test_negative_seed_is_rejected_like_seed_sequence():
    with pytest.raises(ValueError):
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError, match="non-negative"):
        _shard_rngs(-1, 4)


def test_run_shards_builds_no_seed_sequence(monkeypatch):
    built = []

    class Counting(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", Counting)
    crofton_intrinsic(cube(), 1, 1, 2000, seed=4, shards=1000)
    assert built == []


# -- the samplers as they drew with rng.uniform ---------------------------------

def uniform_flats(sampler, rng, m):
    """The laws of lines and points drawn with rng.uniform: points uniform in
    the body's coordinate box [lo, hi]; lines through a point uniform in the
    disc orthogonal to a uniform direction, about the box's centre c, of
    radius max |v - c| over the vertices v (with a margin of 1e-12)."""
    v = sampler.vertices
    lo, hi = v.min(axis=0), v.max(axis=0)
    if sampler.codim == 3:
        return (rng.uniform(lo, hi, (m, 3)),)
    g = rng.standard_normal((m, 3))
    u, ang = rng.uniform(0.0, 1.0, m), rng.uniform(0.0, 2.0 * math.pi, m)
    c = (lo + hi) / 2.0
    R = float(np.max(np.linalg.norm(v - c, axis=1))) * (1.0 + 1e-12)
    dirs = _unit_rows(g)
    aux = np.where(np.abs(dirs[:, :1]) < 0.9, [1.0, 0, 0], [0, 1.0, 0])
    e1 = _unit_rows(np.cross(dirs, aux))
    e2 = np.cross(dirs, e1)
    rad = R * np.sqrt(u)
    return dirs, rad[:, None] * (np.cos(ang)[:, None] * e1 + np.sin(ang)[:, None] * e2) + c


def tight_flats(sampler, rng, m):
    """The tight law of planes drawn with rng.uniform: offsets uniform in
    the support interval of the body's vertices, weighted by twice its
    width."""
    a = _unit_rows(rng.standard_normal((m, 3)))
    v = sampler.vertices
    proj = a[:, :1] * v[:, 0] + a[:, 1:2] * v[:, 1] + a[:, 2:] * v[:, 2]
    lo, hi = proj.min(axis=1), proj.max(axis=1)
    return a, rng.uniform(lo, hi), 2.0 * (hi - lo)


def cube_law(side):
    """The box law of a point in the centred cube of that side."""
    h = side / 2.0
    return BoxMotionSampler(3, 0, 0, box=np.array([[-h] * 3, [h] * 3]), moving=np.zeros((1, 3)))


def uniform_motions(sampler, rng, m):
    """The cube law of translations, as the motion sampler drew it with
    rng.uniform before the box law replaced it: uniform in the centred cube
    [-h, h]^3 of the box of a point, weighted by the cube's volume."""
    h = sampler.box[1, 0]
    q = rng.standard_normal((m, 4))
    t = rng.uniform(-h, h, (m, 3))
    side = 2.0 * h
    return _rotations_from_quaternions(_unit_rows(q)), t, np.full(m, side * side * side)


def box_motions(sampler, rng, m):
    """The box law of BoxMotionSampler drawn with rng.uniform: translations
    uniform in the coordinate box of P - R L of each rotation."""
    q = rng.standard_normal((m, 4))
    R = _rotations_from_quaternions(_unit_rows(q))
    coords = R @ sampler.moving.T                # (m, 3, V): coordinates of R v
    lo, hi = sampler.box[0] - coords.max(axis=2), sampler.box[1] - coords.min(axis=2)
    return R, rng.uniform(lo, hi), np.prod(hi - lo, axis=1)


def uniform_rotations(sampler, rng, m):
    """Uniform rotations from normal quaternions, the only draws of the
    rotation law: the translations are integrated in closed form."""
    return (_rotations_from_quaternions(_unit_rows(rng.standard_normal((m, 4)))),)


FAR_HULL = random_hull(52).translated([1e3, -1e3, 1e3])
SAMPLERS = [
    (_flats(cube(), 2, 0, 0, 20), uniform_flats),
    (_flats(cube().scaled(1e-3), 2, 0, 0, 20), uniform_flats),
    (_flats(FAR_HULL, 2, 0, 0, 20), uniform_flats),
    (_flats(cube(), 3, 0, 0, 20), uniform_flats),
    (_flats(FAR_HULL, 3, 0, 0, 20), uniform_flats),
    (cube_law(2.5), uniform_motions),
    (cube_law(1e3 / 3.0), uniform_motions),
    (BoxMotionSampler.tight(cube(), random_hull(51), 0, 0), box_motions),
    (BoxMotionSampler.tight(random_hull(52).translated([1e3, -1e3, 1e3]), cube().scaled(1e-3),
                            0, 0), box_motions),
    (_flats(cube(), 1, 0, 0, 20), tight_flats),
    (_flats(FAR_HULL, 1, 0, 0, 20), tight_flats),
    (MotionSampler(3, 0, 0), uniform_rotations),
]


@pytest.mark.parametrize("sampler,reference", SAMPLERS)
@pytest.mark.parametrize("seed", [0, 7, 20151021])
@pytest.mark.parametrize("m", [1, 5, 1000])
def test_sampler_draws_equal_uniform_draws(sampler, reference, seed, m):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sampler.draw(*sampler.variates(rng, m))
    want = reference(sampler, ref, m)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    # the generator was left where the uniform draws left it
    assert rng.bit_generator.state == ref.bit_generator.state
