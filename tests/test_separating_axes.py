"""The matmul separating-axis test of the reference kernels
(motion_reference.SeparatingAxes) against the einsum test it replaced: the
same hit decisions on drawn motions, on motions whose translation lies on
the boundary of the box law's window, and on motions near contact."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkval.convex import CHUNK_BYTES, Polytope, cube, random_hull

from motion_reference import (
    SAT_TOL,
    BoxMotions,
    SeparatingAxes,
    distinct_axes,
    edge_directions,
)
from test_integral_geom import jittered_icosahedra


class EinsumSeparatingAxes:
    """The separating-axis test as einsum projections in an (m, axes,
    vertices) layout: the facet normals of P (P projected once), the rotated
    facet normals of L, then the cross products of edge directions, each
    stage on the motions that no earlier stage separated."""

    def __init__(self, P: Polytope, L: Polytope):
        self.vp, self.vl = P.vertices, L.vertices
        self.axesP, self.axesL = distinct_axes(P.facet_normals), distinct_axes(L.facet_normals)
        self.dirsP, self.dirsL = edge_directions(P), edge_directions(L)
        pp = self.vp @ self.axesP.T                            # (VP, A)
        self.plo, self.phi = pp.min(axis=0), pp.max(axis=0)
        self.cross_axes = len(self.dirsP) * len(self.dirsL)
        per_axis = 8 * (len(self.vp) + len(self.vl) + 12)
        self.piece = max(1, CHUNK_BYTES // (per_axis * max(1, self.cross_axes)))

    def hits(self, R: np.ndarray, x: np.ndarray) -> np.ndarray:
        vlw = np.einsum("mij,vj->mvi", R, self.vl) + x[:, None, :]     # (m, VL, 3)
        ql = np.einsum("ai,mvi->mav", self.axesP, vlw)                  # (m, A, VL)
        hit = ~np.any((ql.min(axis=2) > self.phi[None, :] + SAT_TOL)
                      | (ql.max(axis=2) < self.plo[None, :] - SAT_TOL), axis=1)
        live = np.flatnonzero(hit)
        axL = np.einsum("mij,aj->mai", R[live], self.axesL)            # (m', AL, 3)
        hit[live] = ~self._separated(axL, vlw[live])
        live = live[hit[live]]
        for lo in range(0, live.size, self.piece):
            idx = live[lo:lo + self.piece]
            crs = np.cross(self.dirsP[None, :, None, :],
                           np.einsum("mij,ej->mei", R[idx], self.dirsL)[:, None, :, :])
            hit[idx] = ~self._separated(crs.reshape(idx.size, self.cross_axes, 3), vlw[idx])
        return hit

    def _separated(self, axes: np.ndarray, vlw: np.ndarray) -> np.ndarray:
        pp = np.einsum("mai,vi->mav", axes, self.vp)                    # (m, AA, VP)
        qq = np.einsum("mai,mvi->mav", axes, vlw)                       # (m, AA, VL)
        nrm = np.linalg.norm(axes, axis=2)
        sep = ((qq.min(axis=2) > pp.max(axis=2) + SAT_TOL * nrm)
               | (qq.max(axis=2) < pp.min(axis=2) - SAT_TOL * nrm)) & (nrm > 1e-12)
        return np.any(sep, axis=1)


PAIRS = {
    "cubes": (cube(), cube()),
    "icosahedra": tuple(jittered_icosahedra(1)),
    "hulls": (random_hull(51), random_hull(52)),
}
TESTS = {name: (SeparatingAxes(P, L), EinsumSeparatingAxes(P, L))
         for name, (P, L) in PAIRS.items()}
# gaps along the contact direction: touching, overlapping and apart
CONTACT_GAPS = np.array([0.0, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3])


def box_motions(pair: str, rng: np.random.Generator, m: int):
    """m motions of the box law: rotations, translations, and the lower
    corners and widths of their windows."""
    P, L = PAIRS[pair]
    box = BoxMotions.tight(P, L)
    R, *t = box.law.draw(rng.random((m, box.law.sample_doubles)))
    x, _ = box.motions(R, np.stack(t, axis=1))
    coords = R @ L.vertices.T
    lo = box.box[0] - coords.max(axis=2)
    return R, x, lo, box.box[1] - coords.min(axis=2) - lo


def contact_translations(pair: str, R: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The translations x that put R L + x against P in direction u (unit
    rows): the supporting planes of P and of R L + x orthogonal to u meet."""
    P, L = PAIRS[pair]
    hp = (P.vertices @ u.T).max(axis=0)                        # h_P(u)
    hl = np.einsum("mij,vj,mi->mv", R, L.vertices, -u).max(axis=1)   # h_RL(-u)
    return (hp + hl)[:, None] * u


@settings(max_examples=60, deadline=None)
@given(pair=st.sampled_from(sorted(PAIRS)), seed=st.integers(0, 2 ** 32 - 1),
       where=st.sampled_from(["inside", "boundary", "contact"]))
def test_matmul_hits_equal_einsum_hits(pair, seed, where):
    rng = np.random.default_rng(seed)
    m = 7 * len(CONTACT_GAPS)
    R, x, lo, width = box_motions(pair, rng, m)
    if where == "boundary":   # one coordinate on a face of the window
        axis, side = rng.integers(0, 3, m), rng.integers(0, 2, m)
        x[np.arange(m), axis] = lo[np.arange(m), axis] + side * width[np.arange(m), axis]
    elif where == "contact":
        u = rng.standard_normal((m, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        gaps = np.resize(CONTACT_GAPS, m)
        x = contact_translations(pair, R, u) + gaps[:, None] * u
    fast, ref = TESTS[pair]
    assert np.array_equal(fast.hits(R, x), ref.hits(R, x))


# the reference takes about 0.4 ms per motion on the hull and icosahedron
# pairs, most of which reach the cross products under the box law
@pytest.mark.parametrize("pair,m", [("cubes", 50_000), ("hulls", 4000), ("icosahedra", 4000)])
def test_matmul_hits_equal_einsum_hits_on_many_motions(pair, m):
    fast, ref = TESTS[pair]
    R, x, _, _ = box_motions(pair, np.random.default_rng(len(pair)), m)
    for lo in range(0, m, 5000):
        part = slice(lo, lo + 5000)
        assert np.array_equal(fast.hits(R[part], x[part]), ref.hits(R[part], x[part]))
