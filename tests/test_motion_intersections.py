"""The reference kernel of P n gL edge by edge (motion_reference.
MotionIntersections) against the face lattice of the lattice intersection
and against the lattice of its edge ends (the valuation's values), with its
pinned estimates; and kinematic_check on a pair that broke the per-motion
lattice, with bounded memory."""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from minkval.convex import Polytope, cube, intrinsic_volumes, random_hull
from minkval.integral_geom import kinematic_check, run_shards
from minkval.valuation import PieceEvaluator, builtin_spec, evaluate

from flat_reference import origin_radius
from motion_reference import BoxMotions, MotionIntersections, intersect, rotations_from_quaternions

BASES = {"cube": cube(), "hull14": random_hull(51), "hull20": random_hull(52, 20)}
PAIRS = [("cube", "cube"), ("cube", "hull14"), ("hull14", "hull20")]
# (scale, shift) of the copies the kernel runs on; the lattice path
# intersects the base bodies, whose absolute tolerances suit unit size
COPIES = {"unit": (1.0, 0.0), "small": (1e-3, 0.0), "large": (1e3, 0.0), "far": (1.0, 1e3)}
SHIFT = np.array([1.0, -1.0, 1.0])
KERNELS = {(p, c): MotionIntersections(*(BASES[b].scaled(lam).translated(shift * SHIFT)
                                         for b in p))
           for p in PAIRS for c, (lam, shift) in COPIES.items()}
# a fixed generic rotation after the drawn one keeps the identity, and with
# it parallel facets of the cube pair, away from the simplest draws
TILT = rotations_from_quaternions(np.array([[0.9, 0.3, -0.2, 0.25]]) / np.sqrt(1.0025))[0]

quaternions = st.tuples(*[st.floats(-1.0, 1.0)] * 4).map(np.array).filter(
    lambda q: np.linalg.norm(q) > 0.1).map(lambda q: q / np.linalg.norm(q))


def _generic(P: Polytope, L: Polytope, R: np.ndarray) -> bool:
    """No facet of P parallel to a facet or an edge of R L, nor an edge of P
    to a facet of R L: the coincidences of measure zero that the kernel does
    not resolve."""
    nl = L.facet_normals @ R.T
    el = np.array([L.vertices[j] - L.vertices[i] for i, j, _, _ in L.edges]) @ R.T
    ep = np.array([P.vertices[j] - P.vertices[i] for i, j, _, _ in P.edges])
    sines = np.linalg.norm(np.cross(P.facet_normals[:, None], nl[None]), axis=2)
    units = [e / np.linalg.norm(e, axis=1)[:, None] for e in (el, ep)]
    return (sines.min() > 1e-4 and np.abs(units[0] @ P.facet_normals.T).min() > 1e-4
            and np.abs(units[1] @ nl.T).min() > 1e-4)


def _motion(pair, q, t) -> tuple[np.ndarray, np.ndarray]:
    """The drawn motion x -> R x + x0 of the base bodies, with the centre of
    R L within 0.8 of the sum of their radii from the centre of P; draws
    that are not generic are rejected."""
    P, L = (BASES[b] for b in pair)
    R = rotations_from_quaternions(q[None, :])[0] @ TILT
    assume(_generic(P, L, R))
    reach = np.linalg.norm(P.vertices - P.vertices.mean(axis=0), axis=1).max() + np.linalg.norm(
        L.vertices - L.vertices.mean(axis=0), axis=1).max()
    return R, P.vertices.mean(axis=0) - R @ L.vertices.mean(axis=0) + 0.8 * reach * t


def _on_copies(copy, R, x) -> tuple[np.ndarray, np.ndarray]:
    """The same motion relative to the copies lam * P + s, lam * L + s, as
    a batch of one."""
    lam, shift = COPIES[copy]
    s = shift * SHIFT
    return R[None], (lam * x + s - R @ s)[None]


@settings(max_examples=100, deadline=None)
@given(pair=st.sampled_from(PAIRS), copy=st.sampled_from(sorted(COPIES)),
       q=quaternions, t=st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array))
def test_kernel_matches_lattice_intersection(pair, copy, q, t):
    P, L = (BASES[b] for b in pair)
    R, x = _motion(pair, q, t)
    body = intersect(Polytope.from_vertices(L.vertices @ R.T + x), P)
    ref = intrinsic_volumes(body)
    lam = COPIES[copy][0]
    vols = KERNELS[pair, copy].volumes(*_on_copies(copy, R, x))[0]
    if body.is_empty:
        assert np.all(vols == 0.0)
    size = max(np.linalg.norm(np.ptp(B.vertices, axis=0)) for B in (P, L))
    for i in (1, 2, 3):
        assert abs(vols[i] / lam ** i - ref[i]) <= 1e-9 * size ** i


SPECS = ("projection_body", "difference_body", "mean_width_ball",
         "mean_section:2", "mean_section:3")
unit_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(lambda v: v / np.linalg.norm(v))


@lru_cache(maxsize=None)
def _spec(name):
    return builtin_spec(name)


@lru_cache(maxsize=None)
def _value_scale(name, pair, copy) -> float:
    """The largest support value of the valuation on the copies of the pair
    over the coordinate directions, times their distance from the origin in
    diameters where that exceeds 1: the lattice of the edge ends is built
    from world points, which lose digits far from the origin."""
    dirs = np.vstack([np.eye(3), -np.eye(3)])
    lam, shift = COPIES[copy]
    scale = 0.0
    for b in pair:
        Q = BASES[b].scaled(lam).translated(shift * SHIFT)
        size = np.linalg.norm(np.ptp(Q.vertices, axis=0))
        scale = max(scale, float(np.abs(evaluate(_spec(name), Q, dirs).values).max())
                    * max(1.0, origin_radius(Q) / size))
    return scale


@settings(max_examples=150, deadline=None)
@given(pair=st.sampled_from(PAIRS), copy=st.sampled_from(sorted(COPIES)),
       name=st.sampled_from(SPECS), path=st.sampled_from(["pointwise", "spectral"]),
       q=quaternions, t=st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array), u=unit_vectors)
def test_valuation_values_match_lattice_of_edge_ends(pair, copy, name, path, q, t, u):
    # the batched values against evaluate on the hull of the edge ends
    kernel, motion = KERNELS[pair, copy], _on_copies(copy, *_motion(pair, q, t))
    got = PieceEvaluator(_spec(name), u, path)(kernel.pieces(*motion))[0]
    rows, ends = kernel.ends(*motion)
    ref = 0.0 if rows.size == 0 else float(
        evaluate(_spec(name), Polytope.from_vertices(ends), u[None, :], path=path).values[0])
    assert abs(got - ref) <= 1e-12 * _value_scale(name, pair, copy)


def test_kernel_of_missed_motions_vanishes():
    R = np.repeat(TILT[None], 2, axis=0)
    x = np.array([[5.0, 0.0, 0.0], [0.0, 0.0, -1.6]])
    assert np.all(KERNELS[("cube", "hull14"), "unit"].volumes(R, x) == 0.0)


# estimates of the per-motion loop (hull of the moved body, then intersect)
# that MotionIntersections replaced, under the law of translations it drew:
# uniform in the centred cube of side 4 R, R the cube's enclosing radius,
# which is the box law of a point in that cube, with rotations made from
# doubles (`rotation_map`)
@pytest.mark.parametrize("j,estimate,stderr", [
    (1, 11.45511320412725, 3.0847088882389557),
    (2, 5.0029629583638195, 1.861235319445711),
    (3, 0.7949031571810652, 0.36991832981556744),
])
def test_kinematic_estimates_pinned(j, estimate, stderr):
    h = 2.0 * origin_radius(cube())
    cube_law = BoxMotions(np.array([[-h] * 3, [h] * 3]), np.zeros((1, 3)))
    inter = MotionIntersections(cube(), cube())
    est, se = run_shards(cube_law.law, cube_law.kernel(inter.volumes), inter.sample_bytes, 33, 400,
                         20)
    assert est[j] == pytest.approx(estimate, rel=1e-12)
    assert se[j] == pytest.approx(stderr, rel=1e-12)


def _cube_and_ellipsoid_hull() -> tuple[Polytope, Polytope]:
    rng = np.random.default_rng(1009)
    u = rng.standard_normal((12, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    return (Polytope.from_vertices(cube().vertices - 0.5),
            Polytope.from_vertices(u * [1.0, 0.8, 0.6]))


def test_cube_and_hull_pair_no_longer_breaks():
    # the per-motion hull of a clipped body raised "inconsistent facet
    # merge" on one of these motions
    P, L = _cube_and_ellipsoid_hull()
    rep = kinematic_check(P, L, 1, 150, 109)
    assert np.isfinite(rep.estimate) and rep.stderr > 0.0


def test_kinematic_mc_cube_and_hull_mean_width():
    P, L = _cube_and_ellipsoid_hull()
    assert kinematic_check(P, L, 1, 4000, 109).within(3.5)


def test_kinematic_memory_is_bounded():
    # two hulls of about 140 facets each: one motion's worst-case
    # temporaries are 20 MB, the candidates that survive the sphere tests
    # take a few per cent of that
    P, L = random_hull(61, 200), random_hull(62, 200)
    for n_samples in (40, 120):
        tracemalloc.start()
        try:
            kinematic_check(P, L, 1, n_samples, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
