"""Polytope lattices, area measures, intrinsic volumes, slicing."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from minkval.constants import kappa, omega
from minkval.convex import (
    AreaMeasure,
    Polytope,
    SphericalArc,
    SphericalPatch,
    _spherical_triangle_area,
    _triangle_nodes,
    area_measure,
    ball_polytope,
    clip_halfspace,
    cube,
    intersect,
    intrinsic_volumes,
    octahedron,
    random_hull,
    section_line,
    section_plane,
    simplex,
    steiner_area_measure,
)
from minkval.harmonics import ZonalPolynomial
from minkval.integral_geom import _SeparatingAxes


def ones(pts):
    return np.ones(len(pts))


def steiner_targets(P):
    """Independent oracle for the total masses of S_0, S_1, S_2: the Steiner
    coefficients n kappa_(n-i) V_i / C(n,i) with the intrinsic volumes read
    directly off the face lattice."""
    iv = intrinsic_volumes(P)
    return [3 * kappa(3 - i) * iv[i] / math.comb(3, i) for i in range(3)]


def random_rotation(rng):
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


# -- lattice construction ----------------------------------------------------

def test_cube_lattice_counts_and_euler():
    Q = cube()
    assert Q.dim == 3
    assert (Q.num_vertices, len(Q.edges), len(Q.facet_cycles)) == (8, 12, 6)
    assert Q.num_vertices - len(Q.edges) + len(Q.facet_cycles) == 2


def test_lattice_merges_coplanar_triangles():
    # qhull triangulates facets; merged cube facets must be squares
    Q = cube()
    assert all(len(c) == 4 for c in Q.facet_cycles)
    assert np.allclose(np.sort(Q.facet_areas), 1.0)


def assert_two_facets_per_edge(P):
    """Every side of every facet cycle is an edge of P, lying in exactly the
    two facets that P.edges names."""
    sides = {}
    for f, cyc in enumerate(P.facet_cycles):
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            sides.setdefault((min(a, b), max(a, b)), []).append(f)
    assert sides == {(a, b): [f, g] for a, b, f, g in P.edges}
    assert P.num_vertices - len(P.edges) + len(P.facet_cycles) == 2


def cube_with_edge_midpoints():
    c = cube().vertices
    ends = [(i, j) for i in range(8) for j in range(i + 1, 8) if np.abs(c[i] - c[j]).sum() == 1]
    return np.vstack([c, [(c[i] + c[j]) / 2 for i, j in ends]])


@pytest.mark.parametrize("jitter", [1e-13, 1e-11, 1e-9])
def test_jittered_cube_with_edge_midpoints_builds(jitter):
    # grouping simplices by a first-matching equation, then sorting and
    # pruning each group's vertices by angle, failed on 41 of these 60 clouds
    pts = cube_with_edge_midpoints()
    for seed in range(20):
        P = Polytope.from_vertices(
            pts + jitter * np.random.default_rng(seed).uniform(-1.0, 1.0, pts.shape))
        assert_two_facets_per_edge(P)
        iv = np.array(intrinsic_volumes(P).as_tuple())
        assert np.abs(iv - [1.0, 3.0, 3.0, 1.0]).max() <= 10 * jitter
        masses, targets = [area_measure(P, i).total_mass for i in range(3)], steiner_targets(P)
        # the S_0 cones of the midpoints are near-degenerate: l'Huilier's
        # formula gave each of their triangles about 1e-8 of area, and the
        # total mass missed by up to 4.4e-9 relative
        assert masses == pytest.approx(targets, rel=1e-12)


@st.composite
def hulls_with_points_near_faces(draw):
    """The vertices of a random hull plus points on its edges and inside its
    facets, each pushed 1e-13 to 1e-9 off in a random direction."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    base = random_hull(draw(st.integers(0, 1000)), draw(st.integers(5, 30)))
    V = base.vertices
    extra = []
    for _ in range(draw(st.integers(1, 30))):
        push = 10.0 ** draw(st.floats(-13.0, -9.0)) * rng.standard_normal(3)
        if draw(st.booleans()):
            a, b, _, _ = base.edges[draw(st.integers(0, len(base.edges) - 1))]
            extra.append(V[a] + draw(st.floats(0.05, 0.95)) * (V[b] - V[a]) + push)
        else:
            cyc = base.facet_cycles[draw(st.integers(0, len(base.facet_cycles) - 1))]
            extra.append(rng.dirichlet(np.ones(len(cyc))) @ V[cyc] + push)
    pts = np.vstack([V, extra])
    return pts[rng.permutation(len(pts))]


@settings(max_examples=60, deadline=None)
@given(hulls_with_points_near_faces())
def test_lattice_of_points_near_faces_is_consistent(pts):
    P = Polytope.from_vertices(pts)
    assert_two_facets_per_edge(P)
    hull = ConvexHull(pts)
    iv = intrinsic_volumes(P)
    assert iv.v3 == pytest.approx(hull.volume, rel=1e-8)
    assert 2 * iv.v2 == pytest.approx(hull.area, rel=1e-8)


def test_hull_drops_interior_points():
    pts = np.vstack([cube().vertices, [[0.5, 0.5, 0.5], [0.25, 0.5, 0.5]]])
    Q = Polytope.from_vertices(pts)
    assert Q.num_vertices == 8


def test_facet_normals_unit_and_outward():
    for P in (cube(), simplex(), octahedron(), random_hull(3)):
        assert np.allclose(np.linalg.norm(P.facet_normals, axis=1), 1.0)
        ctr = P.vertices.mean(axis=0)
        assert np.all(P.facet_normals @ ctr - P.facet_offsets < 0)


def test_support_function_examples():
    Q = cube()
    assert Q.support([1, 0, 0]) == 1.0
    seg = Polytope.from_vertices([[-1, 0, 0], [1, 0, 0]])
    for th in (0.0, 0.4, 2.2):
        u = [math.cos(th), math.sin(th), 0.0]
        assert seg.support(u) == pytest.approx(abs(math.cos(th)), abs=1e-14)
    refl = Polytope.from_vertices(-Q.vertices)
    u = np.array([0.3, -0.5, 0.81])
    assert Q.support(-u) == pytest.approx(refl.support(u), abs=1e-14)


def test_support_of_empty_raises():
    with pytest.raises(ValueError):
        Polytope.empty().support([1, 0, 0])


# -- area measures ------------------------------------------------------------

def test_cube_area_measures():
    Q = cube()
    s2 = area_measure(Q, 2)
    assert len(s2.atoms) == 6
    normals = np.array(sorted(tuple(np.round(u, 9)) for u, _ in s2.atoms))
    expect = np.array(sorted(map(tuple, np.vstack([np.eye(3), -np.eye(3)]))))
    assert np.allclose(normals, expect)
    assert all(m == pytest.approx(1.0) for _, m in s2.atoms)
    s1 = area_measure(Q, 1)
    assert len(s1.arcs) == 12
    assert all(a.angle == pytest.approx(math.pi / 2) for a in s1.arcs)
    assert all(a.density == pytest.approx(0.5) for a in s1.arcs)
    assert s1.total_mass == pytest.approx(3 * math.pi, abs=1e-12)
    s0 = area_measure(Q, 0)
    assert s0.total_mass == pytest.approx(omega(3), abs=1e-9)


def test_degree_out_of_range():
    with pytest.raises(ValueError):
        area_measure(cube(), 3)
    with pytest.raises(ValueError):
        area_measure(cube(), -1)


@pytest.mark.parametrize("body", ["cube", "simplex", "octahedron"])
def test_total_mass_law_canonical(body):
    P = {"cube": cube, "simplex": simplex, "octahedron": octahedron}[body]()
    targets = steiner_targets(P)
    for i in range(3):
        assert area_measure(P, i).total_mass == pytest.approx(targets[i], abs=1e-9)


def test_total_mass_law_random_hulls():
    for seed in range(8):
        P = random_hull(seed)
        targets = steiner_targets(P)
        for i in range(3):
            assert area_measure(P, i).total_mass == pytest.approx(targets[i], abs=1e-9)


def test_volume_and_area_against_qhull():
    # independent implementation: qhull's own volume/area accumulators
    for seed in (1, 2):
        P = random_hull(seed)
        hull = ConvexHull(P.vertices)
        iv = intrinsic_volumes(P)
        assert iv.v3 == pytest.approx(hull.volume, rel=1e-10)
        assert 2 * iv.v2 == pytest.approx(hull.area, rel=1e-10)


def test_ball_proxy_measures_converge():
    # S_i(B, .) is the uniform measure, total omega_3; inscribed polytopes
    # approach it from below under refinement (S_0 is exactly omega_3 at
    # every depth because the Gauss map is onto)
    prev = [0.0, 0.0]
    for depth in (1, 2, 3):
        B = ball_polytope(depth)
        assert area_measure(B, 0).total_mass == pytest.approx(omega(3), abs=1e-8)
        for i in (1, 2):
            tot = area_measure(B, i).total_mass
            assert prev[i - 1] < tot <= omega(3) + 1e-9
            prev[i - 1] = tot
    assert all(omega(3) - p < 0.25 for p in prev)


def test_integrate_examples():
    Q = cube()
    s2 = area_measure(Q, 2)
    assert s2.integrate(ones) == pytest.approx(6.0, abs=1e-12)
    proj = lambda pts: 0.5 * np.abs(pts @ np.array([1.0, 0.0, 0.0]))
    assert s2.integrate(proj) == pytest.approx(1.0, abs=1e-12)
    s1 = area_measure(Q, 1)
    assert s1.integrate(ones) == pytest.approx(3 * math.pi, abs=1e-10)


def test_integrate_reports_error_estimate():
    s0 = area_measure(cube(), 0)
    val, err = s0.integrate(ones, with_error=True)
    assert val == pytest.approx(omega(3), abs=1e-8)
    assert 0 <= err < 1e-6


def _excess_50_digits(tri) -> float:
    """l'Huilier's formula at 50 digits, on the normalised rows of tri."""
    with mpmath.workdps(50):
        A, B, C = ([mpmath.mpf(float(x)) for x in row] for row in tri)
        A, B, C = ([x / mpmath.sqrt(sum(y * y for y in v)) for x in v] for v in (A, B, C))

        def arc(u, v):
            cross = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                     u[0] * v[1] - u[1] * v[0])
            return mpmath.atan2(mpmath.sqrt(sum(x * x for x in cross)),
                                sum(x * y for x, y in zip(u, v)))
        a, b, c = arc(B, C), arc(C, A), arc(A, B)
        s = (a + b + c) / 2
        return float(4 * mpmath.atan(mpmath.sqrt(
            mpmath.tan(s / 2) * mpmath.tan((s - a) / 2) * mpmath.tan((s - b) / 2)
            * mpmath.tan((s - c) / 2))))


def test_thin_spherical_triangles_match_50_digit_excess():
    # the fan triangles of the S_0 cones whose shortest side is below a
    # tenth of the longest: l'Huilier's formula in double precision lost up
    # to 1.2e-13 relative on these
    for P in (random_hull(42, 200), random_hull(61, 200), random_hull(62, 200)):
        tris = np.concatenate([p.triangles for p in area_measure(P, 0).patches])
        sides = np.linalg.norm(tris - np.roll(tris, 1, axis=1), axis=2)
        thin = tris[sides.min(axis=1) < 0.1 * sides.max(axis=1)]
        assert len(thin) >= 10
        ref = np.array([_excess_50_digits(t) for t in thin])
        assert np.abs(_spherical_triangle_area(thin) / ref - 1.0).max() <= 1e-14


def test_spherical_triangle_quadrature_matches_excess():
    # quadrature of 1 over the octant vs the spherical excess pi/2:
    # one unsplit triangle rule lands within ~1e-7, the node cloud (one
    # split) within 1e-10, and the reported error bounds the true one
    tri = np.eye(3)
    pts, w, _ = _triangle_nodes(tri[None])
    assert _spherical_triangle_area(tri) == pytest.approx(math.pi / 2, rel=1e-12)
    assert w.sum() == pytest.approx(math.pi / 2, rel=1e-6)
    octant = AreaMeasure(3, 0, patches=[SphericalPatch(tri[None], 1.0)])
    val, err = octant.integrate(ones, with_error=True)
    assert val == pytest.approx(math.pi / 2, rel=1e-10)
    assert err >= abs(val - math.pi / 2)


def test_zonal_moments_against_integrate():
    P = random_hull(4)
    s1 = area_measure(P, 1)
    dirs = np.array([[0.0, 0.0, 1.0], [0.6, -0.8, 0.0]])
    mom = s1.zonal_moments(dirs, 4)
    tab = ZonalPolynomial(3, [0, 0, 0, 0, 1.0])
    for d in range(2):
        direct = s1.integrate(lambda pts: tab(np.clip(pts @ dirs[d], -1, 1)))
        assert mom[4, d] == pytest.approx(direct, abs=1e-9)


def test_arc_integrals_of_a_linear_function_in_closed_form():
    # along the arc u(phi) = cos(phi) a + sin(phi) t, 0 <= phi <= theta, with
    # t the unit tangent at a: int u . w ds = sin(theta) a.w + (1 - cos(theta)) t.w
    w = np.array([0.36, -0.48, 0.8])
    s1 = area_measure(random_hull(4), 1)
    expect = 0.0
    for arc in s1.arcs:
        th = arc.angle
        t = arc.b - np.dot(arc.a, arc.b) * arc.a
        t /= np.linalg.norm(t)
        expect += arc.density * (math.sin(th) * np.dot(arc.a, w)
                                 + (1.0 - math.cos(th)) * np.dot(t, w))
    assert s1.integrate(lambda pts: pts @ w) == pytest.approx(expect, rel=1e-12, abs=1e-14)


def loop_node_cloud(meas):
    """The node cloud built piece by piece: one slerp per arc on 24
    Gauss-Legendre nodes, and per patch triangle one midpoint split and a
    10 x 10 collapsed-square rule per child."""
    x, wx = np.polynomial.legendre.leggauss(24)
    s, ws = 0.5 * (x + 1.0), 0.5 * wx
    x, wx = np.polynomial.legendre.leggauss(10)
    xi, wi = 0.5 * (x + 1.0), 0.5 * wx
    alpha, eta = np.repeat(xi, 10), np.tile(xi, 10)
    w2 = np.repeat(wi, 10) * np.tile(wi, 10) * (1.0 - alpha)
    beta = eta * (1.0 - alpha)
    pts, wts = [], []
    for u, m in meas.atoms:
        pts.append(np.asarray(u, dtype=float)[None, :])
        wts.append(np.array([m]))
    for arc in meas.arcs:
        th = float(np.arctan2(np.linalg.norm(np.cross(arc.a, arc.b)), np.dot(arc.a, arc.b)))
        if th < 1e-14:
            continue
        pts.append((np.sin((1.0 - s)[:, None] * th) * arc.a
                    + np.sin(s[:, None] * th) * arc.b) / math.sin(th))
        wts.append(arc.density * th * ws)
    for patch in meas.patches:
        for A, B, C in patch.triangles:
            ab, bc, ca = (v / np.linalg.norm(v) for v in (A + B, B + C, C + A))
            for P, Q, R in ((A, ab, ca), (ab, B, bc), (ca, bc, C), (ab, bc, ca)):
                u, v = Q - P, R - P
                triple = abs(float(np.dot(P, np.cross(u, v))))
                if triple < 1e-16:
                    continue
                y = P + np.outer(alpha, u) + np.outer(beta, v)
                r = np.linalg.norm(y, axis=1)
                pts.append(y / r[:, None])
                wts.append(patch.weight * (w2 * triple / r ** 3))
    if not pts:
        return np.zeros((0, 3)), np.zeros(0)
    return np.vstack(pts), np.concatenate(wts)


@pytest.mark.parametrize("i", [0, 1, 2])
def test_node_cloud_is_bit_identical_to_loop_build(i):
    meas = area_measure(random_hull(42, 200), i)
    pts, wts = meas.node_cloud()
    ref_pts, ref_wts = loop_node_cloud(meas)
    assert np.array_equal(pts, ref_pts)
    assert np.array_equal(wts, ref_wts)


# a positive zonal-polynomial probe: 1 + sum_k 2^-k P_k(u . w) >= 1/16
PROBE = ZonalPolynomial(3, [1.0, 0.5, 0.25, 0.125, 0.0625])
PROBE_AXIS = np.array([0.36, -0.48, 0.8])


def probe(pts):
    return PROBE(np.clip(pts @ PROBE_AXIS, -1.0, 1.0))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), exponent=st.floats(-3.0, 3.0),
       shift=st.tuples(*[st.floats(-1e3, 1e3)] * 3))
def test_area_measure_integrals_scale_as_lambda_i_and_ignore_translation(seed, exponent, shift):
    P = random_hull(seed)
    lam = 10.0 ** exponent
    moved = Polytope.from_vertices(lam * P.vertices + np.array(shift))
    for i in range(3):
        expect = lam ** i * area_measure(P, i).integrate(probe)
        assert area_measure(moved, i).integrate(probe) == pytest.approx(expect, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_integral_of_one_is_the_total_mass(seed):
    # exact for atoms and arcs; the triangle rule of S_0 carries its own
    # error, which the reported estimate must cover
    P = random_hull(seed)
    for i in (1, 2):
        meas = area_measure(P, i)
        assert meas.integrate(ones) == pytest.approx(meas.total_mass, rel=1e-12)
    s0 = area_measure(P, 0)
    val, err = s0.integrate(ones, with_error=True)
    assert abs(val - s0.total_mass) <= err


def test_steiner_measure_identity_and_point():
    Q = cube()
    for i in range(3):
        a = steiner_area_measure(Q, i, 0.0).total_mass
        assert a == pytest.approx(area_measure(Q, i).total_mass, abs=1e-12)
    pt = Polytope.from_vertices([[0.2, -0.1, 0.4]])
    for i, t in ((0, 1.0), (1, 0.5), (2, 2.0)):
        tot = steiner_area_measure(pt, i, t).total_mass
        assert tot == pytest.approx(t ** i * omega(3), abs=1e-8)


def test_steiner_cube_outer_parallel_total():
    # direct boundary decomposition of cube + B: 6 squares, 12 quarter
    # cylinders, 8 sphere octants -> 6 + 6 pi + 4 pi
    tot = steiner_area_measure(cube(), 2, 1.0).total_mass
    assert tot == pytest.approx(6 + 10 * math.pi, abs=1e-9)


def test_steiner_rejects_negative_radius():
    with pytest.raises(ValueError):
        steiner_area_measure(cube(), 1, -0.1)


def test_rotation_equivariance_of_measures():
    rng = np.random.default_rng(17)
    P = random_hull(12)
    R = random_rotation(rng)
    f = ZonalPolynomial(3, [0.2, 0.5, -0.3, 0.8])
    axis = np.array([0.48, 0.6, 0.64])
    for i in range(3):
        a = area_measure(P.rotated(R), i).integrate(
            lambda pts: f(np.clip(pts @ axis, -1, 1)))
        b = area_measure(P, i).integrate(
            lambda pts: f(np.clip(pts @ (R.T @ axis), -1, 1)))
        assert a == pytest.approx(b, abs=1e-9)


def test_area_measure_valuation_property():
    # S_i(K) + S_i(L) = S_i(P) + S_i(K n L) tested against random zonal probes
    rng = np.random.default_rng(23)
    for seed in range(4):
        P = random_hull(seed + 40)
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        c = float(np.dot(a, P.vertices.mean(axis=0)))
        K = clip_halfspace(P, a, c)
        L = clip_halfspace(P, -a, -c)
        M = section_plane(P, c * a, normal=a)
        if K.dim < 3 or L.dim < 3:
            continue
        for i in (1, 2):
            probes = [ZonalPolynomial(3, rng.normal(size=5)) for _ in range(5)]
            axes = rng.standard_normal((5, 3))
            axes /= np.linalg.norm(axes, axis=1)[:, None]
            for f, ax in zip(probes, axes):
                fn = lambda pts: f(np.clip(pts @ ax, -1, 1))
                lhs = area_measure(K, i).integrate(fn) + area_measure(L, i).integrate(fn)
                rhs = area_measure(P, i).integrate(fn) + area_measure(M, i).integrate(fn)
                assert lhs == pytest.approx(rhs, abs=1e-7)


# -- lower-dimensional bodies --------------------------------------------------

def test_polygon_measures():
    sq = section_plane(cube(), [0.5, 0.5, 0.5], normal=[0, 0, 1.0])
    assert sq.dim == 2
    assert area_measure(sq, 2).total_mass == pytest.approx(2.0, abs=1e-12)
    assert area_measure(sq, 1).total_mass == pytest.approx(2 * math.pi, abs=1e-12)
    assert area_measure(sq, 0).total_mass == pytest.approx(4 * math.pi, abs=1e-9)


def test_segment_and_point_measures():
    seg = Polytope.from_vertices([[0, 0, 0], [0, 0, 2.0]])
    assert area_measure(seg, 2).total_mass == 0.0
    assert area_measure(seg, 1).total_mass == pytest.approx(2 * math.pi, abs=1e-12)
    assert area_measure(seg, 0).total_mass == pytest.approx(4 * math.pi, abs=1e-9)
    pt = Polytope.from_vertices([[1.0, 2.0, 3.0]])
    assert area_measure(pt, 0).total_mass == pytest.approx(4 * math.pi, abs=1e-9)
    assert area_measure(pt, 1).total_mass == 0.0


# -- intrinsic volumes ----------------------------------------------------------

def test_intrinsic_volumes_cube():
    assert intrinsic_volumes(cube()).as_tuple() == pytest.approx((1.0, 3.0, 3.0, 1.0), abs=1e-12)


def test_intrinsic_volumes_lower_dimensional():
    seg = Polytope.from_vertices([[0, 0, 0], [0, 1.5, 0]])
    assert intrinsic_volumes(seg).as_tuple() == pytest.approx((1.0, 1.5, 0.0, 0.0))
    assert intrinsic_volumes(Polytope.empty()).as_tuple() == (0.0, 0.0, 0.0, 0.0)
    pt = Polytope.from_vertices([[3, 1, 4]])
    assert intrinsic_volumes(pt).as_tuple() == (1.0, 0.0, 0.0, 0.0)


def test_intrinsic_volume_homogeneity():
    P = random_hull(8)
    iv = intrinsic_volumes(P)
    for lam in (0.5, 2.0):
        ivl = intrinsic_volumes(P.scaled(lam))
        for i in range(4):
            assert ivl[i] == pytest.approx(lam ** i * iv[i], rel=1e-9)


def test_steiner_polynomial_consistency():
    # V(P + tB) = sum kappa_(3-i) V_i t^(3-i): check the t-coefficients by
    # evaluating the polynomial against the area-measure totals
    P = simplex()
    iv = intrinsic_volumes(P)
    for i in range(3):
        tot = area_measure(P, i).total_mass
        assert tot == pytest.approx(3 * kappa(3 - i) * iv[i] / math.comb(3, i), abs=1e-9)


# -- slicing ----------------------------------------------------------------------

def test_volume_of_far_body_is_relative_to_its_size():
    # facet terms about the origin gave V3 = 1.0000000075 at this offset
    assert intrinsic_volumes(cube().translated([1e8] * 3)).v3 == pytest.approx(1.0, rel=1e-12)


def test_nonfinite_vertex_is_rejected():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            Polytope.from_vertices([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, bad]])


def test_slice_plane_through_cube():
    sq = section_plane(cube(), [0.5, 0.5, 0.5], normal=[0, 0, 1.0])
    iv = intrinsic_volumes(sq)
    assert iv.v1 == pytest.approx(2.0, abs=1e-12)
    assert iv.v2 == pytest.approx(1.0, abs=1e-12)


def test_section_of_small_body_keeps_short_edges():
    # the collinearity test of a polygon's vertices is relative to its
    # edges: an absolute one dropped a vertex of this 12-gon of size 1e-3
    Q = random_hull(77).scaled(1e-3)
    z = Q.vertices[:, 2]
    s = z.min() + 0.023 * (z.max() - z.min())
    small = section_plane(Q, [0.0, 0.0, s], normal=[0, 0, 1.0])
    unit = section_plane(random_hull(77), [0.0, 0.0, s * 1e3], normal=[0, 0, 1.0])
    assert small.num_vertices == unit.num_vertices == 12
    assert intrinsic_volumes(small).v1 == pytest.approx(1e-3 * intrinsic_volumes(unit).v1,
                                                        rel=1e-12)


def test_slice_halfspace_cases():
    Q = cube()
    assert clip_halfspace(Q, [1.0, 0, 0], 1.0).num_vertices == 8
    assert section_plane(Q, [0, 0, 2.0], normal=[0, 0, 1.0]).is_empty
    half = clip_halfspace(Q, [0, 0, 1.0], 0.25)
    assert intrinsic_volumes(half).v3 == pytest.approx(0.25, abs=1e-12)


def test_section_line():
    seg = section_line(cube(), [0.5, 0.5, -3.0], [0, 0, 1.0])
    assert intrinsic_volumes(seg).v1 == pytest.approx(1.0, abs=1e-12)
    assert section_line(cube(), [2.0, 2.0, 0.0], [0, 0, 1.0]).is_empty


def test_intersect_and_sat_agree():
    rng = np.random.default_rng(31)
    Q = cube()
    sat = _SeparatingAxes(Q, Q)
    for _ in range(25):
        R = random_rotation(rng)
        shift = rng.uniform(-2, 2, 3)
        moved = Polytope.from_vertices(Q.vertices @ R.T + shift)
        body = intersect(moved, Q)
        assert sat.hits(R[None], shift[None])[0] == (not body.is_empty)


def test_arc_geometry():
    arc = SphericalArc(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), 2.0)
    assert arc.angle == pytest.approx(math.pi / 2)
    assert arc.mass == pytest.approx(math.pi)
    pts = arc.points(np.array([0.0, 0.5, 1.0]))
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)
    assert np.allclose(pts[1], [math.sqrt(0.5), math.sqrt(0.5), 0.0])


def test_json_round_trip():
    P = random_hull(2)
    P2 = Polytope.from_json(P.to_json())
    assert P2.num_vertices == P.num_vertices
    assert intrinsic_volumes(P2).v3 == pytest.approx(intrinsic_volumes(P).v3, rel=1e-12)
