"""The law of flats in the ball about the origin, which the Crofton checks
drew before their flats were drawn about the body (`PlaneSampler`): the
reference of the tests that pin estimates taken under it, as
motion_reference.py keeps the motion law and the kernels that the closed
forms replaced."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from minkval.constants import kappa
from minkval.integral_geom import DEFAULT_SHARDS, _uniform, _unit_rows


def origin_radius(P) -> float:
    """The largest |v| over P's vertices: the radius of the ball about the
    origin that holds P."""
    return float(np.linalg.norm(P.vertices, axis=1).max())


@dataclass(frozen=True)
class BallSampler:
    """Flats of codimension `codim` uniform among those meeting the ball of
    `radius` about the origin: a uniform direction and an offset uniform in
    the codim-ball of that radius.  The weight, the invariant measure
    C(n, n - codim) kappa_n / kappa_(n - codim) R^codim of the flats meeting
    the ball, is the same for every sample."""

    weighted = False   # what run_shards reads: no per-sample weights

    n: int
    codim: int
    radius: float
    seed: int
    n_samples: int
    shards: int = DEFAULT_SHARDS

    @classmethod
    def about_origin(cls, P, codim: int, seed: int, n_samples: int,
                     shards: int = DEFAULT_SHARDS) -> "BallSampler":
        """The ball of P's enclosing radius about the origin, with a margin
        of 1e-12 relative, as the Crofton checks drew it."""
        return cls(3, codim, origin_radius(P) * (1.0 + 1e-12), seed, n_samples, shards)

    @property
    def weight(self) -> float:
        return (math.comb(self.n, self.codim)
                * kappa(self.n) / kappa(self.n - self.codim)
                * self.radius ** self.codim)

    def variates(self, rng: np.random.Generator, m: int) -> tuple[np.ndarray, ...]:
        """Normal directions (m, 3), then doubles in [0, 1) for the offsets
        (codim 1), the radii (codim 2, 3) and the angles (codim 2)."""
        g = rng.standard_normal((m, 3))
        if self.codim == 2:
            u = rng.random((2, m))
            return g, u[0], u[1]
        return g, rng.random(m)

    def draw(self, g: np.ndarray, *rest: np.ndarray) -> tuple[np.ndarray, ...]:
        """(normals, offsets) of planes, (directions, points) of lines, or
        (points,)."""
        R = self.radius
        if self.codim == 3:
            u, = rest
            g /= np.linalg.norm(g, axis=-1, keepdims=True)
            np.power(u, 1.0 / 3.0, out=u)
            u *= R
            g *= u[:, None]
            return (g,)
        dirs = _unit_rows(g)
        if self.codim == 1:
            return dirs, _uniform(rest[0], -R, R)
        u, ang = rest
        _uniform(ang, 0.0, 2.0 * math.pi)
        aux = np.where(np.abs(dirs[:, :1]) < 0.9, [1.0, 0, 0], [0, 1.0, 0])
        e1 = _unit_rows(np.cross(dirs, aux))
        e2 = np.cross(dirs, e1)
        rad = R * np.sqrt(u)
        return dirs, rad[:, None] * (np.cos(ang)[:, None] * e1 + np.sin(ang)[:, None] * e2)


def ball_flats(P, i: int, seed: int, n_samples: int, shards: int) -> BallSampler:
    """A stand-in for integral_geom._flats: every codimension in the ball of
    P's enclosing radius about the origin."""
    return BallSampler.about_origin(P, i, seed, n_samples, shards)
