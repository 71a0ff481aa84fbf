"""Polytope lattices, area measures, intrinsic volumes, slicing."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from minkval import convex
from minkval.constants import kappa, omega
from minkval.convex import (
    AreaMeasure,
    Arcs,
    Atoms,
    Polytope,
    _harmonic_is_cheaper,
    _harmonic_moments,
    _arc_nodes,
    _unit,
    area_measure,
    ball_polytope,
    clip_halfspace,
    cube,
    intrinsic_volumes,
    normal_cone_masses,
    octahedron,
    random_hull,
    section_plane,
    simplex,
    steiner_area_measure,
)
from minkval.harmonics import ZonalPolynomial, legendre_rows
from minkval.zonal import BERG_NATIVE_KMAX, ZonalObject

from motion_reference import SeparatingAxes, intersect


def ones(t):
    return np.ones_like(t)


def steiner_targets(P):
    """Independent oracle for the total masses of S_0, S_1, S_2: the Steiner
    coefficients n kappa_(n-i) V_i / C(n,i) with the intrinsic volumes read
    directly off the face lattice."""
    iv = intrinsic_volumes(P)
    return [3 * kappa(3 - i) * iv[i] / math.comb(3, i) for i in range(3)]


def lattice_masses(P):
    """The total masses of S_0, S_1, S_2 from the lattice: for S_0, the
    normal cones of the vertices, which must tile the sphere (the Gauss map
    is onto)."""
    return [sum(normal_cone_masses(P).tolist())] + [area_measure(P, i).total_mass for i in (1, 2)]


def zonal_integral(meas, fn, axis):
    """int fn(u . axis) dS(u) of a zonal integrand."""
    return float(meas.integrate_zonal(fn, np.asarray(axis, dtype=float)[None])[0])


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
    two facets that P.edges names, and walked from tail to head by the cycle
    of the first."""
    sides, runs = {}, set()
    for f, cyc in enumerate(P.facet_cycles):
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            sides.setdefault((min(a, b), max(a, b)), []).append(f)
            runs.add((a, b, f))
    assert sides == {(min(a, b), max(a, b)): [f, g] for a, b, f, g in P.edges}
    assert all((a, b, f) in runs for a, b, f, _ in P.edges.tolist())
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
        masses, targets = lattice_masses(P), steiner_targets(P)
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


# a hull vertex 8.3e-9 off the plane of its neighbours: a merge of qhull
# equations within 1e-8 drops it and loses 1.1e-8 of the volume
NEAR_FACE_VERTEX = np.array([
    [-0.1920029581583907, 0.6601440471619678, -0.5673298167723267],
    [0.6650108657665238, -0.03458229287876715, 0.36352632271908336],
    [0.21804778707336028, -0.08169491918457689, 0.3220250300557242],
    [-0.2954183781629764, 0.45039211113534877, -0.3613076245675231],
    [0.472152993578404, -0.17332169567863367, 0.7774221899270876],
    [-0.6056622481289835, -0.16882658520289845, 0.2458757000667934],
    [-0.32420172839048605, -0.07522625898942255, 0.20268437696748048],
    [0.27022408657944574, -0.3902312955220098, 0.7491527453238185],
])


@settings(max_examples=60, deadline=None)
@given(hulls_with_points_near_faces())
@example(NEAR_FACE_VERTEX)
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
    assert len(s2.atoms.mass) == 6
    normals = np.array(sorted(map(tuple, np.round(s2.atoms.normal, 9))))
    expect = np.array(sorted(map(tuple, np.vstack([np.eye(3), -np.eye(3)]))))
    assert np.allclose(normals, expect)
    assert s2.atoms.mass == pytest.approx(np.ones(6))
    s1 = area_measure(Q, 1)
    assert len(s1.arcs.density) == 12
    assert s1.arcs.angle == pytest.approx(np.full(12, math.pi / 2))
    assert s1.arcs.density == pytest.approx(np.full(12, 0.5))
    assert s1.total_mass == pytest.approx(3 * math.pi, abs=1e-12)
    assert sum(normal_cone_masses(Q).tolist()) == pytest.approx(omega(3), abs=1e-9)
    assert area_measure(Q, 0).total_mass == 4 * math.pi


def test_degree_out_of_range():
    with pytest.raises(ValueError):
        area_measure(cube(), 3)
    with pytest.raises(ValueError):
        area_measure(cube(), -1)


@pytest.mark.parametrize("body", ["cube", "simplex", "octahedron"])
def test_total_mass_law_canonical(body):
    P = {"cube": cube, "simplex": simplex, "octahedron": octahedron}[body]()
    assert lattice_masses(P) == pytest.approx(steiner_targets(P), abs=1e-9)


def test_total_mass_law_random_hulls():
    for seed in range(8):
        P = random_hull(seed)
        assert lattice_masses(P) == pytest.approx(steiner_targets(P), abs=1e-9)


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
        assert sum(normal_cone_masses(B).tolist()) == pytest.approx(omega(3), abs=1e-8)
        for i in (1, 2):
            tot = area_measure(B, i).total_mass
            assert prev[i - 1] < tot <= omega(3) + 1e-9
            prev[i - 1] = tot
    assert all(omega(3) - p < 0.25 for p in prev)


def test_integrate_examples():
    Q = cube()
    x = [1.0, 0.0, 0.0]
    s2 = area_measure(Q, 2)
    assert zonal_integral(s2, ones, x) == pytest.approx(6.0, abs=1e-12)
    proj = lambda t: 0.5 * np.abs(t)
    assert zonal_integral(s2, proj, x) == pytest.approx(1.0, abs=1e-12)
    s1 = area_measure(Q, 1)
    assert zonal_integral(s1, ones, x) == pytest.approx(3 * math.pi, abs=1e-10)


def _defects_50_digits(P) -> np.ndarray:
    """2 pi less the facet angles at each vertex, clipped at 0, at 50 digits
    from the doubles of the vertices and the facet normals: each angle from
    the side to the successor round the facet's normal to the side to the
    predecessor, in [0, 2 pi), of the sides as projected on the facet's
    plane."""
    with mpmath.workdps(50):
        V = [[mpmath.mpf(float(x)) for x in row] for row in P.vertices]
        total = [mpmath.mpf(0)] * P.num_vertices
        for cyc, normal in zip(P.facet_cycles, P.facet_normals):
            n = [mpmath.mpf(float(x)) for x in normal]
            for k, v in enumerate(cyc):
                a = [p - x for p, x in zip(V[cyc[k - 1]], V[v])]
                b = [q - x for q, x in zip(V[cyc[(k + 1) % len(cyc)]], V[v])]
                cross = (b[1] * a[2] - b[2] * a[1], b[2] * a[0] - b[0] * a[2],
                         b[0] * a[1] - b[1] * a[0])
                along = [sum(x * y for x, y in zip(n, u)) for u in (a, b)]
                angle = mpmath.atan2(sum(x * y for x, y in zip(n, cross)),
                                     sum(x * y for x, y in zip(a, b)) - along[0] * along[1])
                total[v] += angle if angle >= 0 else angle + 2 * mpmath.pi
        return np.array([float(max(2 * mpmath.pi - t, 0)) for t in total])


def thin_body(seed: int, kind: str) -> Polytope:
    """40 normal points squashed along z (a slab) or along y and z (a
    needle) by a factor from 1e-3 down to 1e-8 as the seed runs over 0..49."""
    t = 10.0 ** (-3.0 - 5.0 * seed / 49)
    squash = [1.0, 1.0, t] if kind == "slab" else [1.0, t, t]
    return Polytope.from_vertices(np.random.default_rng(seed).standard_normal((40, 3)) * squash)


def flat_body(seed: int, count: int, exponent: float) -> tuple[Polytope, np.ndarray]:
    """A convex polygon of `count` >= 3 vertices on an ellipse of semi-axes
    1 and 0.6, one in each of `count` equal sectors of angle, or for count
    2 a segment, in a random plane, scaled by 10^exponent and shifted by up
    to 100 times that: the body and its vertices in the plane, scaled."""
    rng = np.random.default_rng(seed)
    step = 2 * math.pi / count
    angle = step * (np.arange(count) + rng.uniform(0.0, 0.5, count))
    xy = 10.0 ** exponent * np.column_stack([np.cos(angle), 0.6 * np.sin(angle)])
    frame = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    shift = 10.0 ** exponent * rng.uniform(-100.0, 100.0, 3)
    return Polytope.from_vertices(xy @ frame[:2] + shift), xy


ORACLE_BODIES = {
    "hull-42-200": lambda: random_hull(42, 200),
    "hull-61-200": lambda: random_hull(61, 200),
    "hull-42-2000": lambda: random_hull(42, 2000),
    "ellipsoid-240": lambda: Polytope.from_vertices(
        _unit(np.random.default_rng(240).standard_normal((240, 3))) * [1.0, 0.8, 0.6]),
    **{f"midpoints-{jitter:g}": lambda jitter=jitter: Polytope.from_vertices(
        cube_with_edge_midpoints()
        + jitter * np.random.default_rng(0).uniform(-1.0, 1.0, (20, 3)))
       for jitter in (1e-7, 1e-5, 1e-3)},
    "slabs": lambda: [thin_body(seed, "slab") for seed in range(50)],
    "needles": lambda: [thin_body(seed, "needle") for seed in range(50)],
    "polygons": lambda: [flat_body(seed, 3 + seed % 10, seed % 13 - 6.0)[0]
                         for seed in range(50)],
    "segments": lambda: [flat_body(seed, 2, seed % 13 - 6.0)[0] for seed in range(20)],
}


@pytest.mark.parametrize("name", sorted(ORACLE_BODIES))
def test_cone_masses_match_50_digit_defects(name):
    # the masses are angles, so their error is absolute; on the slabs and
    # needles the fan of facet normals about their sum missed by up to 0.15.
    # The 1e-8 slab of seed 49 has a facet merged across a fold, whose
    # vertex angles taken in space put 0.15 too much on one vertex
    # a polygon's or a segment's two-sided lattice gives each vertex its
    # angle theta in both facets, so its cone is the lune 2 (pi - theta)
    bodies = ORACLE_BODIES[name]()
    for P in bodies if isinstance(bodies, list) else [bodies]:
        assert P.dim == {"polygons": 2, "segments": 1}.get(name, 3)
        masses = normal_cone_masses(P)
        error = masses - _defects_50_digits(P)
        assert np.abs(error).max() <= 4e-15
        if P.num_vertices >= 200:
            # the double 2 pi lies 2.449e-16 below 2 pi: subtracted from it
            # alone, the masses of hull-42-2000 and ellipsoid-240 averaged
            # -2.7e-16 and -2.3e-16 off
            assert abs(error.mean()) < 1e-16
        assert sum(masses.tolist()) == pytest.approx(4 * math.pi, abs=1e-13)


@pytest.mark.parametrize("body,mass", [
    (Polytope.from_vertices([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1e-8)]),
     math.pi / 2),
    (cube(), math.pi / 2),
    (octahedron(), 2 * math.pi / 3),
])
def test_cone_masses_in_closed_form(body, mass):
    assert body.dim == 3
    assert normal_cone_masses(body) == pytest.approx(np.full(body.num_vertices, mass), abs=4e-15)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), points=st.integers(4, 200), exponent=st.floats(-6.0, 6.0))
def test_cone_masses_tile_the_sphere_and_ignore_rotation_and_scale(seed, points, exponent):
    P = random_hull(seed, points)
    masses = normal_cone_masses(P)
    assert masses.min() >= 0.0
    assert sum(masses.tolist()) == pytest.approx(4 * math.pi, abs=1e-13)
    R = random_rotation(np.random.default_rng(seed))
    for Q in (P.rotated(R), P.scaled(10.0 ** exponent)):
        assert normal_cone_masses(Q) == pytest.approx(masses, abs=1e-13)


def test_zonal_moments_against_integrate():
    # S_2 of the parallel body P + B/2 has atoms, arcs and a uniform part
    meas = steiner_area_measure(random_hull(4), 2, 0.5)
    assert len(meas.atoms.mass) and len(meas.arcs.density) and meas.uniform == 0.25
    nodes = len(meas.node_cloud()[1])
    # two directions take the direct sums, 400 the addition theorem; the
    # profile given as a plain callable is summed at the nodes either way
    for dirs in (np.array([[0.0, 0.0, 1.0], [0.6, -0.8, 0.0]]),
                 _unit(np.random.default_rng(5).standard_normal((400, 3)))):
        assert _harmonic_is_cheaper(nodes, len(dirs), 4) == (len(dirs) > 2)
        mom = meas.zonal_moments(dirs, 4)
        for k in range(5):
            g = ZonalPolynomial(3, np.eye(5)[k])
            direct = meas.integrate_zonal(g, dirs)
            assert mom[k] == pytest.approx(direct, abs=1e-9)
            assert mom[k] == pytest.approx(meas.integrate_zonal(lambda t: g(t), dirs), abs=1e-9)


def moments_by_both_routes(meas, dirs, kmax):
    """The node sums of meas's moments at dirs by the direct sums and by
    the addition theorem, whatever the cost model would choose."""
    pts, wts, _ = meas.node_cloud()
    direct = meas._node_sums(dirs, kmax + 1, lambda t: legendre_rows(3, kmax, t))
    return direct, _harmonic_moments(pts, wts, dirs, kmax)


# atoms at the poles +-e_z (the cube's facet normals), arcs ending there,
# a larger cloud of arcs, and atoms, arcs and a uniform part together
ROUTE_MEASURES = {
    "cube-S2": lambda: area_measure(cube(), 2),
    "cube-S1": lambda: area_measure(cube(), 1),
    "hull-S1": lambda: area_measure(random_hull(5, 120), 1),
    "steiner-S2": lambda: steiner_area_measure(random_hull(4), 2, 0.5),
}


@pytest.mark.parametrize("kmax", [0, 1, 2, 16, 32])
@pytest.mark.parametrize("name", sorted(ROUTE_MEASURES))
def test_addition_theorem_matches_the_direct_sums(name, kmax):
    meas = ROUTE_MEASURES[name]()
    nodes = len(meas.node_cloud()[1])
    rng = np.random.default_rng(kmax)
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    for ndirs in (3, 300):
        dirs = np.vstack([poles, _unit(rng.standard_normal((ndirs - 2, 3)))])
        direct, harmonic = moments_by_both_routes(meas, dirs, kmax)
        tol = 1e-13 * meas.total_mass
        assert np.abs(harmonic - direct).max() <= tol
        # zonal_moments takes one of them, and adds the uniform part to M_0
        mom = meas.zonal_moments(dirs, kmax)
        route = harmonic if _harmonic_is_cheaper(nodes, ndirs, kmax) else direct
        assert np.array_equal(mom[1:], route[1:])
        assert np.array_equal(mom[0], route[0] + 4 * math.pi * meas.uniform)
        assert np.abs(mom[0] - direct[0] - 4 * math.pi * meas.uniform).max() <= tol


# the direct route's moments of a large cloud at a few directions, hashed
THREADS_SCRIPT = """
import hashlib, numpy as np
from minkval.convex import area_measure, random_hull
meas = area_measure(random_hull(42, 2000), 1)
dirs = np.random.default_rng(3).standard_normal((4, 3))
dirs /= np.linalg.norm(dirs, axis=1)[:, None]
print([hashlib.sha256(meas.zonal_moments(dirs[:d], 32).tobytes()).hexdigest()
       for d in (1, 2, 4)])
"""


def test_direct_moments_do_not_depend_on_the_blas_threads():
    # a BLAS gemv over the 16992 nodes split its sum between two threads
    src = str(Path(convex.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    hashes = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", THREADS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        hashes.append(proc.stdout)
    assert hashes[0] == hashes[1]


def test_the_cost_model_takes_both_routes():
    # one direction: the direct sums; hundreds on thousands of nodes: the
    # addition theorem; a small cloud at 100 directions sits near the
    # crossover and keeps the direct sums
    assert not _harmonic_is_cheaper(7056, 1, 32)
    assert _harmonic_is_cheaper(7056, 200, 32)
    assert _harmonic_is_cheaper(2016, 100, 32)
    assert not _harmonic_is_cheaper(720, 100, 32)
    assert not _harmonic_is_cheaper(0, 1000, 32)
    # from some number of directions on the addition theorem stays cheaper
    takes = [_harmonic_is_cheaper(3312, d, 16) for d in range(1, 200)]
    first = takes.index(True)
    assert 1 < first and all(takes[first:])


def stacked(measures):
    """The measures of several bodies as one measure over them, body b
    tagged b."""
    arcs = [Arcs(np.full(len(m.arcs.body), b), *m.arcs[1:]) for b, m in enumerate(measures)]
    atoms = [Atoms(np.full(len(m.atoms.body), b), *m.atoms[1:]) for b, m in enumerate(measures)]
    return AreaMeasure(measures[0].degree, atoms=Atoms(*map(np.concatenate, zip(*atoms))),
                       arcs=Arcs(*map(np.concatenate, zip(*arcs))), bodies=len(measures))


def test_addition_theorem_rows_depend_on_nothing_but_the_direction(monkeypatch):
    # a direction's moments are the same bits alone, in any block, among
    # any other directions
    meas = area_measure(random_hull(5, 120), 1)
    pts, wts, _ = meas.node_cloud()
    dirs = _unit(np.random.default_rng(1).standard_normal((50, 3)))
    whole = _harmonic_moments(pts, wts, dirs, 16)
    for j in (0, 17, 49):
        alone = _harmonic_moments(pts, wts, dirs[j:j + 1], 16)[:, 0]
        assert np.array_equal(alone, whole[:, j])
    # so are the values of the direct route, and a body's values among
    # other bodies, also when the nodes and the directions run in many
    # parts and blocks; a BLAS product of the nodes and the directions gave
    # 120 of these 140 values other bits than the direction asked alone
    g = ZonalPolynomial(3, [0.3, -0.2, 0.5, 0.1, -0.4, 0.25])
    dirs = _unit(np.random.default_rng(2).standard_normal((7, 3)))
    measures = [area_measure(random_hull(seed, 60), 1) for seed in range(20)]
    for chunk in (convex.CHUNK_BYTES, 1 << 15):
        monkeypatch.setattr(convex, "CHUNK_BYTES", chunk)
        together = stacked(measures).integrate_zonal(g, dirs)
        assert together.shape == (20, 7)
        for b, meas in enumerate(measures):
            assert not _harmonic_is_cheaper(len(meas.node_cloud()[1]), len(dirs), g.degree)
            many = meas.integrate_zonal(g, dirs)
            alone = [meas.integrate_zonal(g, dirs[j:j + 1])[0] for j in range(len(dirs))]
            assert many.tolist() == alone == together[b].tolist()


def test_arc_integrals_of_a_linear_function_in_closed_form():
    # along the arc u(phi) = cos(phi) a + sin(phi) t, 0 <= phi <= theta, with
    # t the unit tangent at a: int u . w ds = sin(theta) a.w + (1 - cos(theta)) t.w
    w = np.array([0.36, -0.48, 0.8])
    s1 = area_measure(random_hull(4), 1)
    a, t, th, density = s1.arcs[1:]
    expect = np.sum(density * (np.sin(th) * (a @ w) + (1.0 - np.cos(th)) * (t @ w)))
    assert zonal_integral(s1, lambda t: t, w) == pytest.approx(expect, rel=1e-12, abs=1e-14)


def loop_node_cloud(meas):
    """The node cloud built piece by piece: the atoms, and per arc of angle
    theta its max(1, floor(2 theta / pi)) equal panels, each on 24
    Gauss-Legendre nodes cos(phi) a + sin(phi) t."""
    x, wx = np.polynomial.legendre.leggauss(24)
    s, ws = 0.5 * (x + 1.0), 0.5 * wx
    pts, wts = [], []
    for u, m in zip(meas.atoms.normal, meas.atoms.mass):
        pts.append(np.asarray(u, dtype=float)[None, :])
        wts.append(np.array([m]))
    for a, t, th, density in zip(*meas.arcs[1:]):
        if th < 1e-14:
            continue
        panels = max(1, math.floor(th / (math.pi / 2)))
        for p in range(panels):
            phi = (p + s) * (th / panels)
            pts.append(np.cos(phi)[:, None] * a + np.sin(phi)[:, None] * t)
            wts.append(density * (th / panels) * ws)
    if not pts:
        return np.zeros((0, 3)), np.zeros(0)
    return np.vstack(pts), np.concatenate(wts)


@pytest.mark.parametrize("i", [0, 1, 2])
def test_node_cloud_is_bit_identical_to_loop_build(i):
    # a full body's arcs lie below pi, a polygon's are half circles and a
    # segment's close a circle
    for P in (random_hull(42, 200), section_plane(random_hull(42, 200), [0.1, 0.0, 0.0],
                                                  [0.36, -0.48, 0.8]),
              Polytope.from_vertices([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])):
        meas = area_measure(P, i)
        pts, wts, _ = meas.node_cloud()
        ref_pts, ref_wts = loop_node_cloud(meas)
        assert np.array_equal(pts, ref_pts)
        assert np.array_equal(wts, ref_wts)


# a positive zonal-polynomial probe: 1 + sum_k 2^-k P_k(u . w) >= 1/16
PROBE = ZonalPolynomial(3, [1.0, 0.5, 0.25, 0.125, 0.0625])
PROBE_AXIS = np.array([0.36, -0.48, 0.8])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), exponent=st.floats(-6.0, 6.0),
       shift=st.tuples(*[st.floats(-1e6, 1e6)] * 3))
def test_area_measure_integrals_scale_as_lambda_i_and_ignore_translation(seed, exponent, shift):
    # sizes from 1e-6 to 1e6, moved by up to 1e6 times the radius of the
    # unit ball that holds P, where the vertices keep about 10 digits of the
    # body's size (the worst ratio in 180 draws was 1 + 1.1e-10)
    P = random_hull(seed)
    lam = 10.0 ** exponent
    moved = Polytope.from_vertices(lam * P.vertices + lam * np.array(shift))
    for i in range(3):
        expect = lam ** i * zonal_integral(area_measure(P, i), PROBE, PROBE_AXIS)
        assert zonal_integral(area_measure(moved, i), PROBE, PROBE_AXIS) == pytest.approx(
            expect, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_integral_of_one_is_the_total_mass(seed):
    # exact for atoms, arcs and the uniform part
    P = random_hull(seed)
    for i in range(3):
        meas = area_measure(P, i)
        assert zonal_integral(meas, ones, PROBE_AXIS) == pytest.approx(meas.total_mass, rel=1e-12)


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
        a = zonal_integral(area_measure(P.rotated(R), i), f, axis)
        b = zonal_integral(area_measure(P, i), f, R.T @ axis)
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
                lhs = zonal_integral(area_measure(K, i), f, ax) + zonal_integral(
                    area_measure(L, i), f, ax)
                rhs = zonal_integral(area_measure(P, i), f, ax) + zonal_integral(
                    area_measure(M, i), f, ax)
                assert lhs == pytest.approx(rhs, abs=1e-7)


# -- lower-dimensional bodies --------------------------------------------------

def test_polygon_measures():
    sq = section_plane(cube(), [0.5, 0.5, 0.5], normal=[0, 0, 1.0])
    assert sq.dim == 2
    assert area_measure(sq, 2).total_mass == pytest.approx(2.0, abs=1e-12)
    assert area_measure(sq, 1).total_mass == pytest.approx(2 * math.pi, abs=1e-12)
    assert sum(normal_cone_masses(sq).tolist()) == pytest.approx(4 * math.pi, abs=1e-9)


# a full hull, a tilted quadrilateral, a segment and a point
S0_BODIES = {
    "hull": random_hull(3).vertices,
    "polygon": np.array([[0.0, 0.0, 0.0], [1.0, 0.2, 0.1], [1.2, 1.0, 0.3], [0.1, 0.9, 0.2]]),
    "segment": np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]),
    "point": np.array([[0.3, -0.2, 0.5]]),
}
S0_DIRS = _unit(np.random.default_rng(0).standard_normal((7, 3)))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(S0_BODIES)), exponent=st.sampled_from([-6.0, 6.0]),
       shift=st.tuples(*[st.floats(-1e6, 1e6)] * 3),
       coeffs=st.none() | st.lists(st.floats(-1.0, 1.0, allow_subnormal=False),
                                   min_size=1, max_size=21))
def test_s0_is_the_uniform_measure_on_any_body(kind, exponent, shift, coeffs):
    # S_0(K, .) is the spherical Lebesgue measure sigma for every nonempty K.
    # Subnormal coefficients are not drawn: they carry no relative precision,
    # and the relative bound below underflows to 0 (coeffs = [5e-324]).
    P = Polytope.from_vertices(10.0 ** exponent * S0_BODIES[kind] + np.array(shift))
    s0 = area_measure(P, 0)
    expect = np.zeros((21, len(S0_DIRS)))
    expect[0] = 4 * math.pi
    assert np.array_equal(s0.zonal_moments(S0_DIRS, 20), expect)
    # int g dsigma = 2 pi int_{-1}^{1} g: 4 pi c_0 for g = sum c_k P_k, pi for |t|/2
    if coeffs is None:
        g, exact, size = ZonalObject.abs_half(3).density, math.pi, 1.0
    else:
        g, exact, size = ZonalPolynomial(3, coeffs), 4 * math.pi * coeffs[0], sum(map(abs, coeffs))
    assert np.abs(s0.integrate_zonal(g, S0_DIRS) - exact).max() <= 1e-14 * 4 * math.pi * size


def test_s0_integrates_polynomials_up_to_the_berg_degree_exactly():
    s0 = area_measure(Polytope.from_vertices([[1.0, 2.0, 3.0]]), 0)
    for k in (BERG_NATIVE_KMAX - 1, BERG_NATIVE_KMAX):
        g = ZonalPolynomial(3, np.eye(k + 1)[k] + np.eye(k + 1)[0])   # P_0 + P_k
        assert np.abs(s0.integrate_zonal(g, S0_DIRS) - 4 * math.pi).max() <= 1e-13


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 16), count=st.integers(2, 12), exponent=st.floats(-6.0, 6.0))
def test_flat_bodies_are_two_sided_lattices(seed, count, exponent):
    # a polygon (count >= 3) or a segment in a random plane, at a random
    # scale and place: the full-dimensional formulas read its perimeter and
    # area off the facets +w and -w and its edges
    P, xy = flat_body(seed, count, exponent)
    hull = ConvexHull(xy) if count > 2 else None
    half_perimeter = hull.area / 2 if hull else float(np.linalg.norm(xy[1] - xy[0]))
    area = hull.volume if hull else 0.0
    assert P.dim == (2 if count > 2 else 1)
    assert (P.num_vertices, len(P.edges), len(P.facet_cycles)) == (count, count, 2)
    assert P.num_vertices - len(P.edges) + len(P.facet_cycles) == 2
    iv = intrinsic_volumes(P)
    assert iv.v1 == pytest.approx(half_perimeter, rel=1e-13)
    assert iv.v2 == pytest.approx(area, rel=1e-12, abs=0.0)
    assert iv.v3 == 0.0
    # S_1: per edge the half circle from w, the normal of the first facet,
    # towards the edge's outward normal in the plane, of density length / 2
    s1 = area_measure(P, 1)
    tail, head = P.vertices[P.edges[:, 0]], P.vertices[P.edges[:, 1]]
    length = np.linalg.norm(head - tail, axis=1)
    assert np.all(s1.arcs.angle == math.pi)
    assert np.array_equal(s1.arcs.a, np.broadcast_to(P.facet_normals[0], (count, 3)))
    assert s1.arcs.density == pytest.approx(length / 2, rel=1e-15)
    assert sum(length.tolist()) == pytest.approx(2 * half_perimeter, rel=1e-13)
    t = s1.arcs.t
    assert np.linalg.norm(t, axis=1) == pytest.approx(np.ones(count), abs=1e-15)
    assert np.abs(np.sum(t * s1.arcs.a, axis=1)).max() <= 1e-15
    assert np.abs(np.sum(t * (head - tail), axis=1)).max() <= 1e-15 * length.max()
    if count > 2:
        assert np.all(np.sum(t * ((tail + head) / 2 - P.vertices.mean(axis=0)), axis=1) > 0)
    masses = normal_cone_masses(P)
    assert masses.min() >= 0.0
    assert sum(masses.tolist()) == pytest.approx(4 * math.pi, abs=1e-13)


def test_segment_and_point_measures():
    seg = Polytope.from_vertices([[0, 0, 0], [0, 0, 2.0]])
    assert area_measure(seg, 2).total_mass == 0.0
    assert area_measure(seg, 1).total_mass == pytest.approx(2 * math.pi, abs=1e-12)
    assert normal_cone_masses(seg).tolist() == [2 * math.pi, 2 * math.pi]
    pt = Polytope.from_vertices([[1.0, 2.0, 3.0]])
    assert normal_cone_masses(pt).tolist() == [4 * math.pi]
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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 16), exponent=st.floats(-6.0, 6.0),
       shift=st.tuples(*[st.floats(-1e6, 1e6)] * 3))
# qhull on the uncentred cloud dropped a vertex of this body (10 of 11)
@example(seed=2013, exponent=-5.0, shift=(0.0, 0.0, 198794.0))
def test_intrinsic_volumes_scale_as_lambda_i_and_ignore_translation(seed, exponent, shift):
    # V_i(lam P + x) = lam^i V_i(P), up to the rounding of the moved
    # coordinates: eps |x| is a relative eps |x| / lam of the body
    P = random_hull(seed)
    lam = 10.0 ** exponent
    moved = Polytope.from_vertices(lam * P.vertices + np.array(shift))
    assert moved.dim == 3 and moved.num_vertices == P.num_vertices
    rel = 1e-12 + 64 * np.finfo(float).eps * (max(map(abs, shift)) + lam) / lam
    iv, ivm = intrinsic_volumes(P), intrinsic_volumes(moved)
    for i in range(4):
        assert ivm[i] == pytest.approx(lam ** i * iv[i], rel=rel)


def test_tiny_cube_keeps_its_lattice():
    # absolute tolerances merged the vertices of this cube into one point
    lam = 1e-9
    P = cube().scaled(lam)
    assert P.dim == 3 and P.num_vertices == 8
    iv = intrinsic_volumes(cube())
    for i in range(4):
        assert intrinsic_volumes(P)[i] == pytest.approx(lam ** i * iv[i], rel=1e-12)


def test_steiner_polynomial_consistency():
    # V(P + tB) = sum kappa_(3-i) V_i t^(3-i): check the t-coefficients by
    # evaluating the polynomial against the area-measure totals
    P = simplex()
    iv = intrinsic_volumes(P)
    for i, tot in enumerate(lattice_masses(P)):
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


def test_intersect_and_sat_agree():
    rng = np.random.default_rng(31)
    Q = cube()
    sat = SeparatingAxes(Q, Q)
    for _ in range(25):
        R = random_rotation(rng)
        shift = rng.uniform(-2, 2, 3)
        moved = Polytope.from_vertices(Q.vertices @ R.T + shift)
        body = intersect(moved, Q)
        assert sat.hits(R[None], shift[None])[0] == (not body.is_empty)


def test_arc_geometry():
    # a quarter, a half and a full circle from e_x towards e_y, of density
    # 2: one, two and four panels of 24 nodes on the circle z = 0
    x, y = np.array([[1.0, 0, 0]]), np.array([[0, 1.0, 0]])
    for angle, panels in ((math.pi / 2, 1), (math.pi, 2), (2 * math.pi, 4)):
        arc = Arcs(np.zeros(1, dtype=int), x, y, np.array([angle]), np.array([2.0]))
        assert AreaMeasure(1, arcs=arc).total_mass == 2.0 * angle
        pts, wts, which = _arc_nodes(arc)
        assert len(pts) == 24 * panels and which.tolist() == [0] * 24 * panels
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0) and np.all(pts[:, 2] == 0.0)
        phi = np.arctan2(pts[:, 1], pts[:, 0]) % (2 * math.pi)
        assert np.all((0 < phi) & (phi < angle)) and np.all(np.diff(phi) > 0)
        assert sum(wts.tolist()) == pytest.approx(2.0 * angle, rel=1e-15)


def test_json_round_trip():
    P = random_hull(2)
    P2 = Polytope.from_json(P.to_json())
    assert P2.num_vertices == P.num_vertices
    assert intrinsic_volumes(P2).v3 == pytest.approx(intrinsic_volumes(P).v3, rel=1e-12)
