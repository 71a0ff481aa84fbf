"""The plane and line terms of the valuation-valued kinematic check against
the lattice slicers: per-sample values on scaled and shifted bodies for
every builtin spec and both paths, estimates pinned, values independent of
the batch, no lattice per sample and bounded memory."""

import math
import tracemalloc
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from minkval import convex, integral_geom
from minkval.convex import Polytope, _unit, cube, intrinsic_volumes, random_hull, section_plane
from minkval.integral_geom import (
    FlatIntegrals,
    TranslativeIntegrals,
    kinematic_minkowski_check,
    run_shards,
)
from minkval.valuation import (
    MeasurePieces,
    MinkowskiValuationSpec,
    PieceEvaluator,
    builtin_spec,
    evaluate,
)

from flat_reference import BallFlats, DenseSections, LineSections, origin_radius
from motion_reference import BoxMotions, MotionIntersections, rotations_from_quaternions

SPECS = ("projection_body", "difference_body", "mean_width_ball",
         "mean_section:2", "mean_section:3")
PATHS = ("pointwise", "spectral")
BASES = {"cube": cube(), "hull": random_hull(77)}
# (scale, shift) of the copies
COPIES = {"unit": (1.0, 0.0), "small": (1e-3, 0.0), "large": (1e3, 0.0), "far": (1.0, 1e3)}
SHIFT = np.array([1.0, -1.0, 1.0])
BODIES = {(b, c): P.scaled(lam).translated(shift * SHIFT)
          for b, P in BASES.items() for c, (lam, shift) in COPIES.items()}
PLANES = {key: DenseSections(Q) for key, Q in BODIES.items()}
LINES = {key: LineSections(Q) for key, Q in BODIES.items()}

unit_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(lambda v: v / np.linalg.norm(v))


def section_line(P: Polytope, point, direction, tol: float = 1e-12) -> Polytope:
    """Intersection of a full-dimensional P with the line point + t
    direction, as a lattice: the reference for the batched chords of
    LineSections."""
    p = np.asarray(point, dtype=float)
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    A, b = P.inequalities()
    lo, hi = -math.inf, math.inf
    for dn, nm in zip(A @ d, b - A @ p):
        if dn > tol:
            hi = min(hi, nm / dn)
        elif dn < -tol:
            lo = max(lo, nm / dn)
        elif nm < -tol:
            return Polytope.empty()
    if lo > hi + tol:
        return Polytope.empty()
    return Polytope.from_vertices(np.array([p + lo * d, p + hi * d]))


@lru_cache(maxsize=None)
def _spec(name):
    return builtin_spec(name)


def _phi(name, u, path="auto"):
    spec = _spec(name)
    return lambda body: float(evaluate(spec, body, u[None, :], path=path).values[0])


def _batched(name, u, path, pieces) -> np.ndarray:
    return PieceEvaluator(_spec(name), u, path)(pieces)


def _size(Q) -> float:
    return float(np.linalg.norm(np.ptp(Q.vertices, axis=0)))


@lru_cache(maxsize=None)
def _tolerance(name, key) -> float:
    """1e-12 of the valuation's values on the body (its largest support value
    over the coordinate directions), times the body's distance from the
    origin in diameters where that exceeds 1: both sides compute the signed
    distances of the vertices to a plane in world coordinates, so a body
    1e3 away loses about three digits (the two differ by up to 6e-12 of the
    value on the far unit cube)."""
    Q = BODIES[key]
    dirs = np.vstack([np.eye(3), -np.eye(3)])
    scale = float(np.abs(evaluate(_spec(name), Q, dirs).values).max())
    return 1e-12 * scale * max(1.0, origin_radius(Q) / _size(Q))


def test_section_line():
    seg = section_line(cube(), [0.5, 0.5, -3.0], [0, 0, 1.0])
    assert intrinsic_volumes(seg).v1 == pytest.approx(1.0, abs=1e-12)
    assert section_line(cube(), [2.0, 2.0, 0.0], [0, 0, 1.0]).is_empty


@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from(sorted(BODIES)), name=st.sampled_from(SPECS),
       path=st.sampled_from(PATHS), a=unit_vectors, u=unit_vectors, t=st.floats(0.02, 0.98))
def test_plane_values_match_section_plane(key, name, path, a, u, t):
    Q = BODIES[key]
    proj = Q.vertices @ a
    s = proj.min() + t * np.ptp(proj)
    # section_plane snaps vertices within 1e-9 of the body's extent of the
    # plane; keep away from vertices so both cut the same polygon
    assume(np.min(np.abs(proj - s)) > 1e-4 * _size(Q))
    rows, pts = PLANES[key].crossings(a[None, :], np.array([s]))
    assert np.all(rows == 0)
    assert np.allclose(pts @ a, s, rtol=0.0, atol=1e-12 * (_size(Q) + abs(s)))
    got = _batched(name, u, path, PLANES[key].pieces(a[None, :], np.array([s])))
    ref = _phi(name, u, path)(section_plane(Q, s * a, a))
    assert abs(got[0] - ref) <= _tolerance(name, key)


@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from(sorted(BODIES)), name=st.sampled_from(SPECS),
       path=st.sampled_from(PATHS), d=unit_vectors, u=unit_vectors, k=st.integers(0, 7),
       t=st.floats(0.0, 0.9))
def test_line_values_match_section_line(key, name, path, d, u, k, t):
    # lines through a point between the centroid and a vertex
    Q = BODIES[key]
    centre = Q.vertices.mean(axis=0)
    p = centre + t * (Q.vertices[k] - centre)
    got = _batched(name, u, path, LINES[key].pieces(d[None, :], p[None, :]))
    ref = _phi(name, u, path)(section_line(Q, p, d))
    assert abs(got[0] - ref) <= _tolerance(name, key)


def test_missed_planes_and_lines_give_zero():
    key = ("hull", "far")
    u = np.array([0.0, 0.0, 1.0])
    a = np.array([[0.0, 0.6, 0.8]] * 2)
    far = BODIES[key].vertices.mean(axis=0) @ a[0] + np.array([5.0, -5.0])
    p = BODIES[key].vertices.mean(axis=0) + np.array([[5.0, 0, 0], [0, 0, -5.0]])
    for name in SPECS:
        assert np.all(_batched(name, u, "auto", PLANES[key].pieces(a, far)) == 0.0)
        assert np.all(_batched(name, u, "auto", LINES[key].pieces(a, p)) == 0.0)


def test_piece_values_carry_the_constants_of_the_spec():
    # c0 on every sample that meets the body, cn V_3 on the motions, and
    # both degrees at once, against evaluate on the lattice of each sample
    spec = MinkowskiValuationSpec(c0=0.7, mu=dict(_spec("difference_body").mu),
                                  f_top=_spec("projection_body").f_top, cn=1.3)
    u = np.array([0.36, -0.48, 0.8])
    P = BODIES["hull", "unit"]
    rng = np.random.default_rng(8)
    m = 30
    a = rng.standard_normal((m, 3))
    a /= np.linalg.norm(a, axis=1)[:, None]
    s, p = rng.uniform(-1.2, 1.2, m), rng.uniform(-0.8, 0.8, (m, 3))
    q = rng.standard_normal((m, 4))
    R = rotations_from_quaternions(q / np.linalg.norm(q, axis=1)[:, None])
    x = rng.uniform(-1.5, 1.5, (m, 3))
    motions = MotionIntersections(P, random_hull(78))
    for path in PATHS:
        value = PieceEvaluator(spec, u, path)

        def phi(body):
            return float(evaluate(spec, body, u[None, :], path=path).values[0])
        ends = [motions.ends(R[t:t + 1], x[t:t + 1])[1] for t in range(m)]
        refs = [[phi(section_plane(P, s[t] * a[t], a[t])) for t in range(m)],
                [phi(section_line(P, p[t], a[t])) for t in range(m)],
                [phi(Polytope.from_vertices(e)) if len(e) else 0.0 for e in ends]]
        got = [value(PLANES["hull", "unit"].pieces(a, s)), value(LINES["hull", "unit"].pieces(a, p)),
               value(motions.pieces(R, x))]
        for g, ref in zip(got, refs):
            assert 0 < np.count_nonzero(g) < m
            assert np.allclose(g, ref, rtol=1e-13, atol=1e-13)


def _one(pieces: MeasurePieces, t: int) -> MeasurePieces:
    """The pieces of body t alone, as body 0."""
    def take(group):
        rows, *rest = group
        keep = rows == t
        return type(group)(rows[keep] - t, *(r[keep] for r in rest))
    volume = None if pieces.volume is None else pieces.volume[t:t + 1]
    return MeasurePieces(pieces.hit[t:t + 1],
                         replace(pieces.s1, arcs=take(pieces.s1.arcs), bodies=1),
                         replace(pieces.s2, atoms=take(pieces.s2.atoms), bodies=1), volume)


@pytest.mark.parametrize("path", PATHS)
def test_piece_values_do_not_depend_on_the_batch(path, monkeypatch):
    # each body's value adds its own nodes in order: a batch gives the values
    # of its bodies one by one, bit for bit, also when the arc nodes run in
    # many blocks
    rng = np.random.default_rng(4)
    m = 40
    a = rng.standard_normal((m, 3))
    a /= np.linalg.norm(a, axis=1)[:, None]
    q = rng.standard_normal((m, 4))
    R = rotations_from_quaternions(q / np.linalg.norm(q, axis=1)[:, None])
    key = ("hull", "unit")
    batches = [PLANES[key].pieces(a, rng.uniform(-0.8, 0.8, m)),
               LINES[key].pieces(a, rng.uniform(-0.5, 0.5, (m, 3))),
               MotionIntersections(BODIES[key], random_hull(78)).pieces(
                   R, rng.uniform(-1.0, 1.0, (m, 3)))]
    assert all(np.count_nonzero(pieces.hit) > m // 4 for pieces in batches)
    for name in SPECS:
        value = PieceEvaluator(_spec(name), [0.36, -0.48, 0.8], path)
        for pieces in batches:
            whole = value(pieces)
            assert whole.tolist() == [value(_one(pieces, t))[0] for t in range(m)], name
            with monkeypatch.context() as patch:
                patch.setattr(convex, "CHUNK_BYTES", 1)
                assert value(pieces).tolist() == whole.tolist(), name


@pytest.mark.parametrize("path", PATHS)
def test_pieces_of_the_evaluated_degrees_give_the_values_of_all_pieces(path):
    # the check builds only the area measures that the valuation integrates
    # (PieceEvaluator.degrees): S_2 atoms for projection_body, S_1 arcs for
    # difference_body, both for a spec with data of both degrees
    rng = np.random.default_rng(5)
    a = _unit(rng.standard_normal((40, 3)))
    R = rotations_from_quaternions(_unit(rng.standard_normal((40, 4))))
    P, L = random_hull(51), random_hull(52, 20)
    flats, motions = FlatIntegrals(P), TranslativeIntegrals(P, L)
    both = MinkowskiValuationSpec(c0=0.7, mu=dict(_spec("difference_body").mu),
                                  f_top=_spec("projection_body").f_top, cn=1.3)
    for name, spec in [(name, _spec(name)) for name in SPECS] + [("both", both)]:
        value = PieceEvaluator(spec, [0.36, -0.48, 0.8], path)
        for pieces, x in ((flats.plane_pieces, a), (flats.line_pieces, a), (motions.pieces, R)):
            assert np.array_equal(value(pieces(x, value.degrees)), value(pieces(x, (1, 2)))), name


def cube_law(P, L):
    """The motions of the check before their box law: translations uniform
    in the centred cube of side 2 (R_P + R_L), the box law of a point in
    that cube."""
    h = origin_radius(P) + origin_radius(L)
    return BoxMotions(np.array([[-h] * 3, [h] * 3]), np.zeros((1, 3)))


def ball_valuation_kernel(P, value, i):
    """The plane (i = 1) and line (i = 2) terms of the check as it took them
    before it integrated over the offsets: the pieces of each section
    (tests/flat_reference.py) under the law of flats in the ball about the
    origin."""
    sections = (DenseSections if i == 1 else LineSections)(P)
    ball = BallFlats.about_origin(P, i)
    return (ball.law, ball.kernel(lambda *flats: value(sections.pieces(*flats))),
            sections.sample_bytes + sections.piece_bytes)


# lhs, lhs_stderr, rhs, rhs_stderr of the check that sliced a lattice per
# plane and per line (section_plane, section_line), under the laws of
# planes and motions that check drew, with directions and rotations made
# from doubles (`direction_map`, `rotation_map`).  The check now integrates the
# translations and the flats' offsets in closed form: its lhs is pinned on
# the reference kernel of whole motions (MotionIntersections) under the
# cube law, its rhs on the check with the reference kernels of sections.
@pytest.mark.parametrize("name,pinned", [
    ("projection_body",
     (2.345058667257801, 0.3287935378022358, 2.5401726675521124, 0.061357638206493495)),
    ("difference_body",
     (5.5721500293722865, 0.7511571014654869, 5.658003064015847, 0.1446582254367103)),
])
def test_kinematic_minkowski_check_pinned(monkeypatch, name, pinned):
    # planes and lines in the ball of the enclosing radius about the origin
    monkeypatch.setattr(integral_geom, "_valuation_kernel", ball_valuation_kernel)
    res = kinematic_minkowski_check(builtin_spec(name), cube(), cube(), [0.0, 0.0, 1.0],
                                    2500, seed=17)
    value = PieceEvaluator(builtin_spec(name), [0.0, 0.0, 1.0])
    inter = MotionIntersections(cube(), cube())
    box = cube_law(cube(), cube())
    res["lhs"], res["lhs_stderr"] = map(float, run_shards(
        box.law, box.kernel(lambda R, x: value(inter.pieces(R, x))),
        inter.sample_bytes + inter.piece_bytes, 17, 2500, 20))
    for key, want in zip(("lhs", "lhs_stderr", "rhs", "rhs_stderr"), pinned):
        assert math.isclose(res[key], want, rel_tol=1e-15, abs_tol=0.0), (key, res[key])


def test_kinematic_minkowski_check_builds_no_lattice(monkeypatch):
    # the bodies are built before the check; no sample builds a lattice
    P, L = cube(), random_hull(78)
    calls = []
    build = Polytope.from_vertices.__func__

    def counting(cls, points):
        calls.append(len(points))
        return build(cls, points)
    monkeypatch.setattr(Polytope, "from_vertices", classmethod(counting))
    for name in ("projection_body", "difference_body"):
        kinematic_minkowski_check(_spec(name), P, L, [0.0, 0.6, 0.8], 400, seed=3)
    assert calls == []


def test_kinematic_minkowski_check_memory_is_bounded():
    # chunks of CHUNK_BYTES (1 MiB) of samples, and arc nodes in blocks of
    # the same size
    spec = _spec("difference_body")
    tracemalloc.start()
    try:
        kinematic_minkowski_check(spec, cube(), cube(), [0.0, 0.0, 1.0], 20000, seed=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_integral_geom_binds_no_lattice_slicer():
    # Monte-Carlo sections come from the batched kernels only, and neither
    # convex nor integral_geom keeps a per-sample slicer
    slicers = ("section_plane", "clip_halfspace")
    bound = vars(integral_geom)
    assert not set(slicers) & set(bound)
    for name in slicers:
        fn = getattr(convex, name)
        assert not any(value is fn for value in bound.values()), name
    assert not hasattr(convex, "section_line") and not hasattr(integral_geom, "_hull_kernel")
    assert not hasattr(convex, "intersect")   # the lattice intersection lives in the tests
