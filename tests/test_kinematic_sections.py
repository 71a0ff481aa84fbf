"""The plane and line terms of the valuation-valued kinematic check against
the lattice slicers of convex: per-sample values on scaled and shifted
bodies for every builtin spec, estimates pinned, and no slicer bound in
integral_geom."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from minkval import convex, integral_geom
from minkval.convex import cube, random_hull, section_line, section_plane
from minkval.integral_geom import (
    LineSections,
    PlaneSections,
    _hull_kernel,
    kinematic_minkowski_check,
)
from minkval.valuation import builtin_spec, evaluate

SPECS = ("projection_body", "difference_body", "mean_width_ball",
         "mean_section:2", "mean_section:3")
BASES = {"cube": cube(), "hull": random_hull(77)}
# (scale, shift) of the copies
COPIES = {"unit": (1.0, 0.0), "small": (1e-3, 0.0), "large": (1e3, 0.0), "far": (1.0, 1e3)}
SHIFT = np.array([1.0, -1.0, 1.0])
BODIES = {(b, c): P.scaled(lam).translated(shift * SHIFT)
          for b, P in BASES.items() for c, (lam, shift) in COPIES.items()}
PLANES = {key: PlaneSections(Q) for key, Q in BODIES.items()}
LINES = {key: LineSections(Q) for key, Q in BODIES.items()}

unit_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(lambda v: v / np.linalg.norm(v))


@lru_cache(maxsize=None)
def _spec(name):
    return builtin_spec(name)


def _phi(name, u):
    spec = _spec(name)
    return lambda body: float(evaluate(spec, body, u[None, :]).values[0])


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
    return 1e-12 * scale * max(1.0, Q.enclosing_radius / _size(Q))


@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from(sorted(BODIES)), name=st.sampled_from(SPECS),
       a=unit_vectors, u=unit_vectors, t=st.floats(0.02, 0.98))
def test_plane_values_match_section_plane(key, name, a, u, t):
    Q = BODIES[key]
    proj = Q.vertices @ a
    s = proj.min() + t * np.ptp(proj)
    # section_plane snaps vertices within an absolute 1e-9 of the plane;
    # keep away from vertices so both cut the same polygon
    assume(np.min(np.abs(proj - s)) > 1e-4 * _size(Q))
    rows, pts = PLANES[key].crossings(a[None, :], np.array([s]))
    assert np.all(rows == 0)
    assert np.allclose(pts @ a, s, rtol=0.0, atol=1e-12 * (_size(Q) + abs(s)))
    phi = _phi(name, u)
    got = _hull_kernel(phi, PLANES[key].crossings)(a[None, :], np.array([s]))
    ref = phi(section_plane(Q, s * a, a))
    assert abs(got[0] - ref) <= _tolerance(name, key)


@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from(sorted(BODIES)), name=st.sampled_from(SPECS),
       d=unit_vectors, u=unit_vectors, k=st.integers(0, 7), t=st.floats(0.0, 0.9))
def test_line_values_match_section_line(key, name, d, u, k, t):
    # lines through a point between the centroid and a vertex
    Q = BODIES[key]
    centre = Q.vertices.mean(axis=0)
    p = centre + t * (Q.vertices[k] - centre)
    phi = _phi(name, u)
    got = _hull_kernel(phi, LINES[key].ends)(d[None, :], p[None, :])
    ref = phi(section_line(Q, p, d))
    assert abs(got[0] - ref) <= _tolerance(name, key)


def test_missed_planes_and_lines_give_zero():
    key = ("hull", "far")
    phi = _phi("projection_body", np.array([0.0, 0.0, 1.0]))
    a = np.array([[0.0, 0.6, 0.8]] * 2)
    far = BODIES[key].vertices.mean(axis=0) @ a[0] + np.array([5.0, -5.0])
    assert np.all(_hull_kernel(phi, PLANES[key].crossings)(a, far) == 0.0)
    p = BODIES[key].vertices.mean(axis=0) + np.array([[5.0, 0, 0], [0, 0, -5.0]])
    assert np.all(_hull_kernel(phi, LINES[key].ends)(a, p) == 0.0)


# lhs, lhs_stderr, rhs, rhs_stderr of the check that sliced a lattice per
# plane and per line (section_plane, section_line)
@pytest.mark.parametrize("name,pinned", [
    ("projection_body",
     (2.442316768617, 0.38825336057210846, 2.514367894722867, 0.04854790236821971)),
    ("difference_body",
     (6.137247810697508, 0.6749762635780991, 5.475937745436739, 0.1252487810789606)),
])
def test_kinematic_minkowski_check_pinned(name, pinned):
    res = kinematic_minkowski_check(builtin_spec(name), cube(), cube(), [0.0, 0.0, 1.0],
                                    2500, seed=17)
    for key, want in zip(("lhs", "lhs_stderr", "rhs", "rhs_stderr"), pinned):
        assert math.isclose(res[key], want, rel_tol=1e-15, abs_tol=0.0), (key, res[key])


def test_integral_geom_binds_no_lattice_slicer():
    # Monte-Carlo sections come from the batched kernels only
    slicers = ("section_plane", "section_line", "clip_halfspace", "intersect")
    bound = vars(integral_geom)
    assert not set(slicers) & set(bound)
    for name in slicers:
        fn = getattr(convex, name)
        assert not any(value is fn for value in bound.values()), name
