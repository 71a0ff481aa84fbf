"""The closed forms of the Crofton terms over the flats' offsets
(`FlatIntegrals`) against offset midpoint sums of the section kernels they
replaced (tests/flat_reference.py), their half-circle moments against a
direct quadrature at high degree, their scaling and translation
invariance, and values that do not depend on the batch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from minkval.convex import _plane_basis, cube, random_hull
from minkval.harmonics import legendre_rows
from minkval.integral_geom import FlatIntegrals
from minkval.valuation import PieceEvaluator, builtin_spec, evaluate

from flat_reference import DenseSections, LineSections, offset_sum

PROBE = np.array([0.36, -0.48, 0.8]) / np.linalg.norm([0.36, -0.48, 0.8])
BODIES = {"cube": cube(), "hull30": random_hull(5, 30),
          "far": random_hull(5, 30).scaled(1e-3).translated([1e3, -2e3, 5e2])}
SPECS = ("projection_body", "difference_body", "mean_section:2")


def directions(seed: int, m: int) -> np.ndarray:
    a = np.random.default_rng(seed).standard_normal((m, 3))
    return a / np.linalg.norm(a, axis=1)[:, None]


def volumes_and_hits(sections, a, s):
    """V_1, V_2 and the hit (V_1 > 0) of each section, (m, 3)."""
    v1, v2 = sections.volumes(a, s)
    return np.stack([v1, v2, v1 > 0.0], axis=1)


@pytest.mark.parametrize("body", sorted(BODIES))
def test_plane_closed_forms_match_offset_sums(body):
    # 20001 offsets for V_0, V_1 and the S_1 moments (the midpoint sum errs
    # by a few 1e-9 on V_1), 4000 for the pieces: the closed forms are the
    # integrals of the section kernels over the offsets, under 2 ds
    P = BODIES[body]
    flats, sections = FlatIntegrals(P), DenseSections(P)
    for a in directions(11, 3):
        proj = P.vertices @ a
        lo, hi = proj.min(), proj.max()
        ref = offset_sum(lambda a_, s: volumes_and_hits(sections, a_, s), a, lo, hi, 20001)
        assert flats.widths(a[None, :])[0] == pytest.approx(ref[2], rel=1e-12)
        assert flats.mean_widths(a[None, :])[0] == pytest.approx(ref[0], rel=1e-8)
        assert ref[1] == pytest.approx(2.0 * flats.volume, rel=1e-8)   # Cavalieri
        moments = offset_sum(lambda a_, s: sections.s1_moments(a_, s, PROBE, 6), a, lo, hi, 20001)
        got = flats.moments(a[None, :], PROBE, 6)[0]
        assert np.abs(got - moments).max() <= 1e-8 * moments[0]
        for name in SPECS:
            value = PieceEvaluator(builtin_spec(name), PROBE)
            want = offset_sum(lambda a_, s: value(sections.pieces(a_, s)), a, lo, hi, 4000)
            # the pieces' values are smooth in s but for difference_body's
            # degree-32 density, whose midpoint sum errs by up to 2e-7
            got = value(flats.plane_pieces(a[None, :], value.degrees))[0]
            assert got == pytest.approx(want, rel=1e-6), name


def line_sum(kernel, P, u, n: int):
    """2 int kernel(u, p) dp over the points p of the plane orthogonal to u,
    by the midpoint rule on an n x n grid over the square about the vertex
    centroid that holds the body's projection."""
    p1, p2 = _plane_basis(u)
    c = P.vertices.mean(axis=0)
    r = float(np.max(np.linalg.norm(P.vertices - c, axis=1)))
    h = 2.0 * r / n
    t = -r + h * (np.arange(n) + 0.5)
    x, y = np.meshgrid(t, t)
    p = c + x.ravel()[:, None] * p1 + y.ravel()[:, None] * p2
    return 2.0 * h * h * np.asarray(kernel(np.repeat(u[None, :], len(p), axis=0), p),
                                    dtype=float).sum(axis=0)


@pytest.mark.parametrize("body", sorted(BODIES))
def test_line_closed_forms_match_offset_sums(body):
    # the hits integrate to twice the projection's area, 2 h(Pi P)(u); the
    # chords to V_3(P) (Fubini), on a 200 x 200 grid whose midpoint sum errs
    # by about 4e-5 on the chords and 1e-2 on the hits, which jump
    P = BODIES[body]
    flats, lines = FlatIntegrals(P), LineSections(P)
    u = directions(12, 4)
    projection = evaluate(builtin_spec("projection_body"), P, u).values
    assert np.allclose(flats.hits(u), 2.0 * projection, rtol=1e-12, atol=0.0)
    # a direction clear of every facet plane: along one, the chords jump
    # from long to 0 and the grid errs by 3e-3 on the cube at 200 x 200
    u = np.array([0.55, -0.43, 0.71]) / np.linalg.norm([0.55, -0.43, 0.71])
    hits = line_sum(lambda u_, p: lines.chords(u_, p)[2], P, u, 200)
    assert flats.hits(u[None, :])[0] == pytest.approx(hits, rel=2e-2)
    for name in ("difference_body", "mean_width_ball"):
        value = PieceEvaluator(builtin_spec(name), PROBE)
        want = line_sum(lambda u_, p: value(lines.pieces(u_, p)), P, u, 200)
        got = value(flats.line_pieces(u[None, :], value.degrees))[0]
        assert got == pytest.approx(want, rel=2e-4), name


@pytest.mark.parametrize("body", ["cube", "hull30"])
def test_moments_match_direct_half_circle_quadrature(body):
    # sum_F A_F |n_F x a| int_0^pi P_k(x cos t + y sin t) dt by a 1200-node
    # Gauss rule in t: the recurrences of the odd degrees and the addition
    # theorem of the even ones hold to rounding at every degree up to 512
    P, kmax = BODIES[body], 512
    a = directions(13, 2)
    got = FlatIntegrals(P).moments(a, PROBE, kmax)
    nodes, weights = leggauss(1200)
    theta, weights = (nodes + 1.0) * np.pi / 2.0, weights * np.pi / 2.0
    for t, at in enumerate(a):
        ref = np.zeros(kmax + 1)
        for n, area in zip(P.facet_normals, P.facet_areas):
            m = n - (n @ at) * at
            sin = np.linalg.norm(m)
            x, y = at @ PROBE, m @ PROBE / sin
            ref += area * sin * np.array([pk @ weights for pk in legendre_rows(
                3, kmax, x * np.cos(theta) + y * np.sin(theta))])
        assert np.abs(got[t] - ref).max() <= 1e-12 * ref[0]


unit_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(lambda v: v / np.linalg.norm(v))


@settings(max_examples=40, deadline=None)
@given(body=st.sampled_from(["cube", "hull30"]), exponent=st.floats(-6.0, 6.0),
       direction=unit_vectors, reach=st.floats(0.0, 1.0))
def test_closed_forms_scale_and_ignore_translation(body, exponent, direction, reach):
    # lam P + t: widths scale as lam; V_1 of planes, the hits of lines and
    # the S_1 moments and pieces of planes as lam^2; the S_2 pieces of planes
    # and the S_1 pieces of lines, V_3 (Cavalieri, Fubini), as lam^3.  The
    # shift t reaches 1e6, but at most 1e6 of the body's size: farther out
    # its vertices hold fewer than ten digits of the body itself
    lam = 10.0 ** exponent
    P = BODIES[body]
    Q = P.scaled(lam).translated(reach * 1e6 * min(1.0, lam) * direction)
    a = directions(14, 50)
    base, moved = FlatIntegrals(P), FlatIntegrals(Q)
    degree1, degree2 = (PieceEvaluator(builtin_spec(name), PROBE)
                        for name in ("difference_body", "projection_body"))
    kernels = {"widths": (lambda F: F.widths(a), 1),
               "mean_widths": (lambda F: F.mean_widths(a), 2),
               "hits": (lambda F: F.hits(a), 2),
               "moments": (lambda F: F.moments(a, PROBE, 4), 2),
               "plane S_1": (lambda F: degree1(F.plane_pieces(a, (1,))), 2),
               "plane S_2": (lambda F: degree2(F.plane_pieces(a, (2,))), 3),
               "line S_1": (lambda F: degree1(F.line_pieces(a, (1,))), 3)}
    for name, (kernel, power) in kernels.items():
        want = lam ** power * kernel(base)
        assert np.allclose(kernel(moved), want, rtol=0.0, atol=1e-9 * np.abs(want).max()), name


@pytest.mark.parametrize("body", sorted(BODIES))
def test_closed_forms_do_not_depend_on_the_batch(body):
    # 300 directions in batches of 1, 7 and all: every value is elementwise
    # in the directions and each one's facet terms are summed along its own row
    flats, a = FlatIntegrals(BODIES[body]), directions(15, 300)
    value = PieceEvaluator(builtin_spec("difference_body"), PROBE)
    kernels = (flats.widths, flats.mean_widths, flats.hits,
               lambda a: flats.moments(a, PROBE, 6),
               lambda a: value(flats.plane_pieces(a, value.degrees)),
               lambda a: value(flats.line_pieces(a, value.degrees)))
    for kernel in kernels:
        whole = kernel(a)
        for size in (1, 7):
            parts = np.concatenate([kernel(a[lo:lo + size]) for lo in range(0, len(a), size)])
            assert parts.tobytes() == whole.tobytes(), size
