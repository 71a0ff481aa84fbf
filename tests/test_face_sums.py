"""The one-body sums over faces (intrinsic volumes, area-measure pieces and
masses, normal-cone masses, the area-measure CSV rows) against the per-face
loops they replaced: the batched pass adds the same terms in the same order,
so every value must come out bit-identical."""

import csv
import io
import math

import numpy as np
import pytest

from minkval import cli, convex
from minkval.convex import (
    AreaMeasure,
    Polytope,
    _unit,
    area_measure,
    ball_polytope,
    cube,
    intrinsic_volumes,
    normal_cone_masses,
    octahedron,
    random_hull,
    simplex,
)


# -- the per-face loops --------------------------------------------------------

def loop_intrinsic_volumes(P):
    """V_0..V_3 face by face: facet cones about the vertex centroid, and
    edge lengths times libm's atan2 of the dihedral angle."""
    if P.is_empty:
        return (0.0, 0.0, 0.0, 0.0)
    center = P.vertices.mean(axis=0)
    vol = 0.0
    for f in range(len(P.facet_cycles)):
        centroid = P.facet_centroids[f] - center
        vol += P.facet_areas[f] * float(np.dot(P.facet_normals[f], centroid)) / 3.0
    v1 = 0.0
    for a, b, f1, f2 in P.edges:
        length = float(np.linalg.norm(P.vertices[b] - P.vertices[a]))
        n1, n2 = P.facet_normals[f1], P.facet_normals[f2]
        v1 += length * math.atan2(float(np.linalg.norm(np.cross(n1, n2))),
                                  float(np.dot(n1, n2)))
    return (1.0, v1 / (2.0 * math.pi), float(np.sum(P.facet_areas)) / 2.0, float(vol))


def loop_centroids(P):
    """Each facet's vertices added in cycle order, over their number; a flat
    body's two sides both take the centroid of the first."""
    cycles = P.facet_cycles[:1] * 2 if P.dim < 3 else P.facet_cycles
    return [P.vertices[cyc].mean(axis=0) for cyc in cycles]


def loop_pieces(P, i):
    """The atoms (normal, mass) and arcs (start, tangent, angle, density)
    of S_i, face by face: an atom per facet, an arc per edge from the
    normal of its facet f to that of g, its tangent (head - tail) x n_f."""
    binom = math.comb(2, i)
    atoms, arcs = [], []
    if i == 2:
        atoms = [(P.facet_normals[f], float(P.facet_areas[f]))
                 for f in range(len(P.facet_cycles))]
    elif i == 1:
        for a, b, f1, f2 in P.edges:
            step = P.vertices[b] - P.vertices[a]
            n1, n2 = P.facet_normals[f1], P.facet_normals[f2]
            t = np.cross(step, n1)
            angle = np.arctan2(np.linalg.norm(np.cross(n1, n2))[None], np.dot(n1, n2)[None])[0]
            arcs.append((n1, t / np.linalg.norm(t), float(angle),
                         float(np.linalg.norm(step)) / binom))
    return atoms, arcs


def loop_cone_masses(P):
    """The solid angle of each vertex's normal cone, vertex by vertex: 2 pi
    less the angles at the vertex of its facets in their planes, added in
    facet order, plus 2 pi - fl(2 pi), and clipped at 0; a point's is the
    sphere."""
    if P.dim == 0:
        return [4.0 * math.pi]
    angles = [[] for _ in range(P.num_vertices)]
    for cyc, n in zip(P.facet_cycles, P.facet_normals):
        for k, v in enumerate(cyc):
            x = P.vertices[v]
            a, b = P.vertices[cyc[k - 1]] - x, P.vertices[cyc[(k + 1) % len(cyc)]] - x
            angle = np.arctan2(np.vecdot(n, np.cross(b, a)),
                               np.vecdot(a, b) - np.vecdot(n, a) * np.vecdot(n, b))
            angles[v].append(float(angle % (2.0 * math.pi)))
    return [max(2.0 * math.pi - sum(a) + 2.4492935982947064e-16, 0.0) for a in angles]


def loop_piece_masses(meas):
    """Atom masses and arc masses (density times angle, arc by arc)."""
    return (meas.atoms.mass.tolist(),
            [float(density) * float(angle)
             for angle, density in zip(meas.arcs.angle, meas.arcs.density)])


def loop_total_mass(meas):
    atoms, arcs = loop_piece_masses(meas)
    return sum(atoms) + sum(arcs) + 4.0 * math.pi * meas.uniform


def loop_csv(P, i):
    """The area-measure CSV of S_i of a full-dimensional P, header and rows,
    with the loops' masses."""
    meas = area_measure(P, i)
    atoms, arcs = loop_piece_masses(meas)
    patches = loop_cone_masses(P) if i == 0 else []
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["piece", "mass", "data"])
    writer.writerows([["atom", float(m), *map(float, u)] for u, m in zip(meas.atoms.normal, atoms)])
    writer.writerows([["arc", m, *map(float, a), *map(float, t), float(angle)]
                      for a, t, angle, m in zip(meas.arcs.a, meas.arcs.t, meas.arcs.angle, arcs)])
    writer.writerows([["patch", m] for m in patches])
    return buf.getvalue()


# -- bodies -----------------------------------------------------------------------

def jittered_icosahedron(rng):
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    base = np.array([v for a in (-1.0, 1.0) for b in (-phi, phi)
                     for v in ((0.0, a, b), (a, b, 0.0), (b, 0.0, a))])
    return Polytope.from_vertices(base * rng.uniform(0.9, 1.1, (12, 1)))


def bodies():
    """random_hull(0..199), three 200-point hulls, the ball approximations,
    the canonical bodies, ten bodies of other kinds (jittered icosahedra,
    an ellipsoid hull, a rotated cube, 300- and 400-point hulls, one of
    them rotated, one far from the origin and large, one tiny), and a
    square, a segment and a point."""
    rng = np.random.default_rng(2015)
    rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    ellipsoid = _unit(rng.standard_normal((30, 3))) * [1.0, 0.7, 0.45]
    out = [random_hull(s) for s in range(200)]
    out += [random_hull(s, 200) for s in (42, 61, 62)]
    out += [ball_polytope(k) for k in range(4)]
    out += [cube(), octahedron(), simplex()]
    out += [jittered_icosahedron(rng), jittered_icosahedron(rng),
            Polytope.from_vertices(ellipsoid), cube().rotated(rot),
            random_hull(7, 400), random_hull(8, 300), random_hull(8, 300).rotated(rot),
            random_hull(5, 400).translated((1e3, -2e3, 5e2)).scaled(50.0),
            random_hull(6, 240, scale=1e3), random_hull(9, 30).scaled(1e-4)]
    out += [Polytope.from_vertices([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]),
            Polytope.from_vertices([[0, 0, 0], [1, 2, 3]]),
            Polytope.from_vertices([[1, 2, 3]])]
    return out


BODIES = bodies()


def test_body_set_covers_every_dimension():
    assert len(BODIES) == 223
    assert [P.dim for P in BODIES[-3:]] == [2, 1, 0]


def test_intrinsic_volumes_equal_the_face_loop():
    for P in BODIES:
        assert intrinsic_volumes(P).as_tuple() == loop_intrinsic_volumes(P)
        assert np.array_equal(P.facet_centroids.reshape(-1, 3),
                              np.reshape(loop_centroids(P), (-1, 3)))


@pytest.mark.parametrize("i", [0, 1, 2])
def test_area_measure_pieces_equal_the_face_loop(i):
    for P in BODIES:
        meas = area_measure(P, i)
        atoms, arcs = loop_pieces(P, i)
        assert meas.uniform == (1.0 if i == 0 else 0.0)
        assert len(meas.atoms.mass) == len(atoms)
        for u, m, (ru, rm) in zip(meas.atoms.normal, meas.atoms.mass, atoms):
            assert np.array_equal(u, ru) and m == rm
        assert len(meas.arcs.density) == len(arcs)
        for a, t, angle, density, (ra, rt, rangle, rdensity) in zip(*meas.arcs[1:], arcs):
            assert np.array_equal(a, ra) and np.array_equal(t, rt)
            assert angle == rangle and density == rdensity


def test_normal_cone_masses_equal_the_vertex_loop():
    # every body sums the same face angles in the same order; a polygon's
    # and a segment's are checked against 50 digits in test_convex
    for P in BODIES:
        assert normal_cone_masses(P).tolist() == loop_cone_masses(P)


@pytest.mark.parametrize("i", [0, 1, 2])
def test_masses_equal_the_piece_loop(i):
    for P in BODIES:
        meas = area_measure(P, i)
        assert [m.tolist() for m in meas.piece_masses()] == list(loop_piece_masses(meas))
        assert meas.total_mass == loop_total_mass(meas)


def test_total_mass_is_one_batched_pass(monkeypatch):
    # the arcs' angles in one call when S_1 is built, none for the masses,
    # and the facet angles of every vertex's cone in one pass over the
    # facet cycles
    calls = {"_arc_angles": 0, "_facet_entries": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(convex, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(convex, name, counted)
    P = random_hull(42, 200)
    s0, s1 = area_measure(P, 0), area_measure(P, 1)
    meas = s0.merged(s1).merged(area_measure(P, 2))
    assert len(meas.arcs.density) > 100 and meas.uniform == 1.0
    assert calls == {"_arc_angles": 1, "_facet_entries": 0}
    meas.total_mass
    assert calls == {"_arc_angles": 1, "_facet_entries": 0}
    normal_cone_masses(P)
    assert calls == {"_arc_angles": 1, "_facet_entries": 1}


def test_empty_measure_has_zero_mass():
    assert AreaMeasure(0).total_mass == 0
    assert area_measure(Polytope.empty(), 1).total_mass == 0


@pytest.mark.parametrize("body", ["cube", "random:42:200"])
@pytest.mark.parametrize("i", [0, 1, 2])
def test_area_measure_csv_rows_equal_the_loop(tmp_path, body, i):
    path = tmp_path / "rows.csv"
    code = cli.main(["area-measure", "--body", body, "--i", str(i), "--csv", str(path),
                     "--out", str(tmp_path / "report.json")])
    assert code == 0
    with open(path, newline="") as fh:
        assert fh.read() == loop_csv(cli.load_body(body), i)
