"""The vectorised lattice build against the pairwise rules it replaced:
point dedupe, facet grouping, distinct axes and the whole face lattice, which
must come out bit-identical."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from minkval.convex import (
    MERGE_TOL,
    POINT_TOL,
    Polytope,
    _DEDUPE_AXIS,
    _dedupe_points,
    _plane_basis,
    _prune_collinear,
    _unit,
    ball_polytope,
    cube,
    random_hull,
)

from motion_reference import distinct_axes, edge_directions


# -- the pairwise rules, one Python iteration per pair ------------------------

def pairwise_dedupe(pts, tol=POINT_TOL):
    out = []
    for p in pts:
        if not any(np.linalg.norm(p - q) <= tol for q in out):
            out.append(p)
    return np.array(out) if out else np.zeros((0, 3))


def pairwise_axes(vectors):
    out = []
    for a in vectors:
        if not any(abs(abs(np.dot(a, b)) - 1.0) < 1e-9 for b in out):
            out.append(a)
    return np.array(out) if out else np.zeros((0, 3))


def pairwise_groups(eqs):
    groups, reps = [], []
    for s, eq in enumerate(eqs):
        for gi, rep in enumerate(reps):
            if np.max(np.abs(eq - rep)) <= 1e-8:
                groups[gi].append(s)
                break
        else:
            groups.append([s])
            reps.append(eq)
    return groups, reps


def pairwise_prune(cycle, pts, tol=MERGE_TOL):
    changed = True
    while changed and len(cycle) > 2:
        changed = False
        for idx in range(len(cycle)):
            a, b, c = pts[cycle[idx - 1]], pts[cycle[idx]], pts[cycle[(idx + 1) % len(cycle)]]
            if np.linalg.norm(np.cross(b - a, c - a)) <= tol * np.linalg.norm(c - a) ** 2:
                cycle.pop(idx)
                changed = True
                break
    return cycle


def pairwise_area(pts):
    if pts.shape[0] < 3:
        return 0.0
    s = np.zeros(3)
    for k in range(1, pts.shape[0] - 1):
        s += np.cross(pts[k] - pts[0], pts[k + 1] - pts[0])
    return 0.5 * float(np.linalg.norm(s))


def pairwise_lattice(points):
    """The face lattice of a full-dimensional hull, built loop by loop."""
    pts = pairwise_dedupe(np.asarray(points, dtype=float).reshape(-1, 3))
    hull = ConvexHull(pts - pts.mean(axis=0))   # as Polytope._build_3d hands it to qhull
    groups, reps = pairwise_groups(hull.equations)
    normals, offsets, cycles, areas = [], [], [], []
    for gi, group in enumerate(groups):
        nrm = _unit(reps[gi][:3])
        vidx = sorted({int(i) for s in group for i in hull.simplices[s]})
        centroid = pts[vidx].mean(axis=0)
        b1, b2 = _plane_basis(nrm)
        ang = np.arctan2((pts[vidx] - centroid) @ b2, (pts[vidx] - centroid) @ b1)
        cyc = pairwise_prune([vidx[i] for i in np.argsort(ang)], pts)
        normals.append(nrm)
        offsets.append(float(np.dot(nrm, pts[cyc[0]])))
        cycles.append(cyc)
        areas.append(pairwise_area(pts[cyc]))
    for f, cyc in enumerate(cycles):
        if len(cyc) >= 3:
            v0, v1, v2 = pts[cyc[0]], pts[cyc[1]], pts[cyc[2]]
            if np.dot(np.cross(v1 - v0, v2 - v0), normals[f]) < 0:
                cycles[f] = cyc[::-1]
    used = sorted({i for cyc in cycles for i in cyc})
    remap = {old: new for new, old in enumerate(used)}
    cycles = [[remap[i] for i in cyc] for cyc in cycles]
    edge_map = {}
    for f, cyc in enumerate(cycles):
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            edge_map.setdefault((min(a, b), max(a, b)), []).append(f)
    edges = [(a, b, fs[0], fs[1]) for (a, b), fs in edge_map.items()]
    return (pts[used], np.array(normals), np.array(offsets), cycles, np.array(areas), edges)


def assert_same_lattice(P, ref):
    vertices, normals, offsets, cycles, areas, edges = ref
    assert P.dim == 3
    assert np.array_equal(P.vertices, vertices)
    assert np.array_equal(P.facet_normals, normals)
    assert np.array_equal(P.facet_offsets, offsets)
    assert P.facet_cycles == cycles
    assert np.array_equal(P.facet_areas, areas)
    assert P.edges.tolist() == [list(e) for e in edges]


# -- inputs -------------------------------------------------------------------

def cube_with_face_centres():
    c = cube().vertices
    centres = np.vstack([np.eye(3) * s + 0.5 * (1 - np.eye(3)) for s in (0.0, 1.0)])
    return np.vstack([c, centres, c[:3]])


COPLANAR = {"ball2": ball_polytope(2).vertices, "cube_centres": cube_with_face_centres()}


@st.composite
def planted_clouds(draw):
    """A random cloud with near-duplicates at 0.5 and 2 POINT_TOL of earlier
    points (planted points included, so chains of them occur), inserted at
    drawn positions."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = list(rng.uniform(-1.0, 1.0, (draw(st.integers(1, 30)), 3)))
    for _ in range(draw(st.integers(0, 20))):
        src = pts[draw(st.integers(0, len(pts) - 1))]
        step = draw(st.sampled_from([0.5, 2.0])) * POINT_TOL
        new = src + step * _unit(rng.standard_normal(3))
        pts.insert(draw(st.integers(0, len(pts))), new)
    return np.array(pts)


@st.composite
def planted_axes(draw):
    """Random unit vectors with near-parallel copies (either sign) of earlier
    ones, tilted so that | |a . b| - 1 | is 0.5 or 2 times the 1e-9 threshold,
    inserted at drawn positions."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vecs = [_unit(v) for v in rng.standard_normal((draw(st.integers(1, 30)), 3))]
    for _ in range(draw(st.integers(0, 20))):
        src = vecs[draw(st.integers(0, len(vecs) - 1))]
        tilt = np.arccos(1.0 - draw(st.sampled_from([0.5, 2.0])) * 1e-9)
        across = _unit(np.cross(src, rng.standard_normal(3)))
        new = draw(st.sampled_from([1.0, -1.0])) * (np.cos(tilt) * src + np.sin(tilt) * across)
        vecs.insert(draw(st.integers(0, len(vecs))), new)
    return np.array(vecs)


@st.composite
def coplanar_clouds(draw):
    """The vertices of a random hull plus points inside its facets (convex
    combinations of a facet's vertices) and exact repeats."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    base = random_hull(draw(st.integers(0, 1000)), draw(st.integers(5, 25)))
    V = base.vertices
    extra = []
    for cyc in base.facet_cycles[:draw(st.integers(0, len(base.facet_cycles)))]:
        w = rng.dirichlet(np.ones(len(cyc)))
        extra.append(w @ V[cyc])
    pts = np.vstack([V, *extra, V[:draw(st.integers(0, 3))]]) if extra else V
    return pts[rng.permutation(len(pts))]


@st.composite
def cycles_with_collinear_points(draw):
    """A convex polygon in a tilted plane, with points inserted on its edges
    at offsets of 0, 1e-13 or 1e-6 edge lengths across the edge: the first
    two are pruned, the last is kept."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ang = np.sort(rng.uniform(0.0, 2 * np.pi, draw(st.integers(3, 10))))
    ring = np.column_stack([np.cos(ang), np.sin(ang)])
    pts2 = []
    for k in range(len(ring)):
        a, b = ring[k], ring[(k + 1) % len(ring)]
        pts2.append(a)
        d = b - a
        across = np.array([d[1], -d[0]])
        for _ in range(draw(st.integers(0, 2))):
            off = draw(st.sampled_from([0.0, 1e-13, 1e-6]))
            pts2.append(a + draw(st.floats(0.1, 0.9)) * d + off * across)
    b1, b2 = _plane_basis(_unit(np.array([0.3, -0.4, 0.85])))
    pts = np.array([x * b1 + y * b2 for x, y in pts2])
    return pts, np.arange(len(pts))


# -- tests ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(planted_clouds())
def test_dedupe_matches_pairwise_first_match_rule(pts):
    assert np.array_equal(_dedupe_points(pts), pairwise_dedupe(pts))


def test_dedupe_keeps_a_point_whose_only_close_neighbour_was_dropped():
    e = np.array([1.0, 0.0, 0.0])
    pts = np.array([np.zeros(3), 0.6 * POINT_TOL * e, 1.2 * POINT_TOL * e])
    assert np.array_equal(_dedupe_points(pts), pts[[0, 2]])


def test_dedupe_of_points_that_tie_along_the_candidate_axis():
    # chains of 0.7 POINT_TOL steps in the plane orthogonal to the axis that
    # picks candidate pairs: every pair is a candidate, few are close
    b1, b2 = _plane_basis(_DEDUPE_AXIS / np.linalg.norm(_DEDUPE_AXIS))
    steps = 0.7 * POINT_TOL * np.arange(6)
    pts = np.array([0.5 + x * b1 + y * b2 for x in steps for y in steps[::-1]])
    pts = pts[np.random.default_rng(8).permutation(len(pts))]
    assert np.array_equal(_dedupe_points(pts), pairwise_dedupe(pts))


@settings(max_examples=60, deadline=None)
@given(planted_axes())
def test_distinct_axes_match_pairwise_first_match_rule(vecs):
    assert np.array_equal(distinct_axes(vecs), pairwise_axes(vecs))


def test_random_hull_200_edge_directions_match_pairwise_rule():
    P = random_hull(42, 200)
    units = [_unit(P.vertices[b] - P.vertices[a]) for a, b in P.edge_index_pairs()]
    assert np.array_equal(edge_directions(P), pairwise_axes(units))


@settings(max_examples=60, deadline=None)
@given(cycles_with_collinear_points())
def test_prune_matches_pairwise_rule(case):
    pts, cycle = case
    assert _prune_collinear(cycle, pts).tolist() == pairwise_prune(cycle.tolist(), pts)


@settings(max_examples=30, deadline=None)
@given(coplanar_clouds())
def test_facet_grouping_and_lattice_match_pairwise_build(pts):
    assert_same_lattice(Polytope.from_vertices(pts), pairwise_lattice(pts))


def test_coplanar_bodies_match_pairwise_build():
    for pts in COPLANAR.values():
        assert_same_lattice(Polytope.from_vertices(pts), pairwise_lattice(pts))
    assert len(Polytope.from_vertices(COPLANAR["cube_centres"]).facet_cycles) == 6


def test_random_hull_200_lattice_is_bit_identical_to_pairwise_build():
    rng = np.random.default_rng(42)
    u = rng.standard_normal((200, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    pts = u * (rng.uniform(0.3, 1.0, 200) ** (1.0 / 3.0))[:, None]
    assert_same_lattice(random_hull(42, 200), pairwise_lattice(pts))
