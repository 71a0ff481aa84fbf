"""The seeding of run_shards' stream against numpy's SeedSequence, and the
laws' draws from Generator.random, taken to the kernels' windows, against
rng.uniform draws: a run draws from one stream of doubles, the second
child of SeedSequence(seed), however many shards it has; the iid laws
draw what rng.uniform drew, and the stratified laws of offsets draw each
shard's first doubles as rng.uniform's u scaled to the strata,
(j + u) / m."""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkval.convex import _unit, cube, random_hull
from minkval.integral_geom import (
    LINES,
    PLANES,
    POINTS,
    PlaneSections,
    _BoxPoints,
    _LineChords,
    _stream,
    crofton_intrinsic,
    direction_map,
    rotation_map,
)

from flat_reference import IID_ROTATIONS
from motion_reference import BoxMotions


def assert_streams_match(seed):
    # the run's stream of doubles is default_rng of the second child of
    # SeedSequence(seed)
    rng, ref = _stream(seed), np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
    assert rng.bit_generator.state == ref.bit_generator.state
    assert np.array_equal(rng.random(3), ref.random(3))


# 2^128 + 7 has five 32-bit words, one more than SeedSequence's pool
@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 128 + 7,
                                  20151021])
def test_shard_streams_match_spawned_seed_sequences(seed):
    assert_streams_match(seed)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 160 - 1))
def test_shard_streams_match_for_any_seed(seed):
    assert_streams_match(seed)


def test_negative_seed_is_rejected_like_seed_sequence():
    with pytest.raises(ValueError):
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError):
        crofton_intrinsic(cube(), 1, 1, 40, seed=-1, shards=4)


def test_run_shards_builds_one_generator_whatever_the_shards(monkeypatch):
    built = []

    class Counting(np.random.PCG64):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "PCG64", Counting)
    counts = []
    for shards in (2, 20, 1000):
        built.clear()
        crofton_intrinsic(cube(), 1, 1, 2000, seed=4, shards=shards)
        counts.append(len(built))
    assert counts == [1, 1, 1]


# -- the laws and windows as they drew with rng.uniform ---------------------------

@dataclass(frozen=True)
class Window:
    """A law and the map `samples` of its draws to the flats or motions of a
    kernel's window, which the reference draws with rng.uniform in one
    step; `of` is the body or the box law that the window is taken from."""

    law: object
    samples: Callable
    of: object


def lines(P):
    return Window(LINES, lambda u, r, ang: (u, _LineChords(P).points(u, r, ang)), P)


def points(P):
    return Window(POINTS, lambda *x: (_BoxPoints(P).points(*x)[:3].T,), P)


def tight_planes(P):
    return Window(PLANES, lambda a, u: (a, *PlaneSections(P).tight(a, u)), P)


def box_law(box):
    return Window(box.law, lambda R, *t: (R, *box.motions(R, np.stack(t, axis=1))), box)


def strata(u):
    """The doubles u of m samples of one shard, one per stratum: (j + u_j) / m."""
    return (np.arange(len(u)) + u) / len(u)


def uniform_flats(window, rng, m):
    """The laws of lines and points drawn with rng.uniform: points uniform in
    the body's coordinate box [lo, hi], their x stratified; lines through a
    point uniform in the disc orthogonal to a uniform direction, about the
    box's centre c, of radius max |v - c| over the vertices v (with a margin
    of 1e-12), their squared radius stratified."""
    v = window.of.vertices
    lo, hi = v.min(axis=0), v.max(axis=0)
    if window.law is POINTS:
        x = rng.uniform(0.0, 1.0, (m, 3))
        x[:, 0] = strata(x[:, 0])
        return (lo + (hi - lo) * x,)
    u, ang, d0, d1 = rng.uniform([0.0, 0.0, 0.0, 0.0], [1.0, 2.0 * math.pi, 1.0, 1.0], (m, 4)).T
    u = strata(u)
    c = (lo + hi) / 2.0
    R = float(np.max(np.linalg.norm(v - c, axis=1))) * (1.0 + 1e-12)
    dirs = direction_map(d0, d1)
    aux = np.where(np.abs(dirs[:, :1]) < 0.9, [1.0, 0, 0], [0, 1.0, 0])
    e1 = _unit(np.cross(dirs, aux))
    e2 = np.cross(dirs, e1)
    rad = R * np.sqrt(u)
    return dirs, rad[:, None] * (np.cos(ang)[:, None] * e1 + np.sin(ang)[:, None] * e2) + c


def tight_flats(window, rng, m):
    """The tight law of planes drawn with rng.uniform: offsets uniform in
    the support interval of the body's vertices about their centroid,
    stratified, given as the vertices' signed distances to the planes, and
    the planes' weights, twice the interval's width."""
    t, d0, d1 = rng.uniform(0.0, 1.0, (m, 3)).T
    a = direction_map(d0, d1)
    v = window.of.vertices - window.of.vertices.mean(axis=0)
    proj = a[:, :1] * v[:, 0] + a[:, 1:2] * v[:, 1] + a[:, 2:] * v[:, 2]
    lo, hi = proj.min(axis=1), proj.max(axis=1)
    s = lo + (hi - lo) * strata(t)
    return a, proj - s[:, None], 2.0 * (hi - lo)


def cube_law(side):
    """The box law of a point in the centred cube of that side."""
    h = side / 2.0
    return box_law(BoxMotions(np.array([[-h] * 3, [h] * 3]), np.zeros((1, 3))))


def uniform_motions(window, rng, m):
    """The cube law of translations, as the motion sampler drew it with
    rng.uniform before the box law replaced it: uniform in the centred cube
    [-h, h]^3 of the box of a point, with the cube's volume as weight, each
    translation's doubles before its rotation's three."""
    h = window.of.box[1, 0]
    u = rng.uniform([-h] * 3 + [0.0] * 3, [h] * 3 + [1.0] * 3, (m, 6))
    side = 2.0 * h
    return rotation_map(*u[:, 3:].T), u[:, :3], np.full(m, side * side * side)


def box_motions(window, rng, m):
    """The box law of BoxMotions drawn with rng.uniform: translations
    uniform in the coordinate box [lo, hi] of P - R L of each rotation,
    whose three doubles follow the translation's."""
    u = rng.uniform(0.0, 1.0, (m, 6))
    R = rotation_map(*u[:, 3:].T)
    coords = R @ window.of.moving.T              # (m, 3, V): coordinates of R v
    lo, hi = window.of.box[0] - coords.max(axis=2), window.of.box[1] - coords.min(axis=2)
    return R, lo + (hi - lo) * u[:, :3], np.prod(hi - lo, axis=1)


def uniform_rotations(window, rng, m):
    """Uniform rotations from three iid doubles each, the only draws of the
    rotation law: the translations are integrated in closed form."""
    return (rotation_map(*rng.uniform(0.0, 1.0, (m, 3)).T),)


FAR_HULL = random_hull(52).translated([1e3, -1e3, 1e3])
SAMPLERS = [
    (lines(cube()), uniform_flats),
    (lines(cube().scaled(1e-3)), uniform_flats),
    (lines(FAR_HULL), uniform_flats),
    (points(cube()), uniform_flats),
    (points(FAR_HULL), uniform_flats),
    (cube_law(2.5), uniform_motions),
    (cube_law(1e3 / 3.0), uniform_motions),
    (box_law(BoxMotions.tight(cube(), random_hull(51))), box_motions),
    (box_law(BoxMotions.tight(random_hull(52).translated([1e3, -1e3, 1e3]),
                              cube().scaled(1e-3))), box_motions),
    (tight_planes(cube()), tight_flats),
    (tight_planes(FAR_HULL), tight_flats),
    (Window(IID_ROTATIONS, lambda R: (R,), None), uniform_rotations),
]


@pytest.mark.parametrize("sampler,reference", SAMPLERS)
@pytest.mark.parametrize("seed", [0, 7, 20151021])
@pytest.mark.parametrize("m", [1, 5, 1000])
def test_sampler_draws_equal_uniform_draws(sampler, reference, seed, m):
    # the law's draws of one shard, taken to the kernel's window, equal the
    # draws of rng.uniform in the window, from one stream of doubles
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    law = sampler.law
    u = rng.random((m, law.sample_doubles))
    got = sampler.samples(*law.draw(u, (np.arange(m), m, None)))
    want = reference(sampler, ref, m)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    # the generator was left where the uniform draws left it
    assert rng.bit_generator.state == ref.bit_generator.state
