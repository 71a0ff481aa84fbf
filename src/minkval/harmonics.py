"""Zonal harmonic analysis on the sphere S^(n-1).

Legendre polynomials of dimension n (normalized so P_k(1) = 1), Gauss-Jacobi
quadrature for the zonal weight (1-t^2)^((n-3)/2), the Laplace-Beltrami
operator and C^k norms of rotation-invariant functions in cylindrical
coordinates, and an empirical probe of the elliptic estimate
||f||_C2 <= C ||box f||_C0.

One recurrence computes the Legendre polynomials: `legendre_rows` streams
P_k, and on request P_k' and P_k'', one degree at a time.  On S^2,
`harmonic_orders` streams the associated Legendre functions of the addition
theorem, which splits P_k(u . d) into sums of products of functions of u
and of d.  Every sum over degrees (ZonalPolynomial, the zonal multipliers,
the area-measure moments) adds its rows elementwise, so a value at t does
not depend on the other points evaluated with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.special import roots_jacobi

from .constants import CHUNK_BYTES, omega

__all__ = [
    "harmonic_dimension",
    "legendre_coefficients",
    "legendre_rows",
    "harmonic_orders",
    "JacobiQuadrature",
    "jacobi_quadrature",
    "ZonalPolynomial",
    "ZonalProfile",
    "zonal_coefficient",
    "zonal_laplacian",
    "zonal_ck_norm",
    "regularity_probe",
    "InsufficientQuadratureError",
]

MIN_AMBIENT_DIM = 3
CK_GRID = 4096          # points of the grid of zonal_ck_norm and regularity_probe
FLUX_QUAD_ORDER = 96    # Gauss order of boundary_flux and regularity_probe
# arrays of (B, CK_GRID) values that a block of B profiles of regularity_probe
# keeps alive: f, f', f'' and the temporaries of the norms
_BLOCK_ARRAYS = 6


class InsufficientQuadratureError(ValueError):
    """Raised when a quadrature rule cannot integrate the requested degree."""


def check_ambient_dim(n: int) -> int:
    if n < MIN_AMBIENT_DIM:
        raise ValueError(f"ambient dimension must be >= {MIN_AMBIENT_DIM}, got {n}")
    return n


def harmonic_dimension(n: int, k: int) -> int:
    """Dimension N(n,k) of the space of spherical harmonics of degree k on
    S^(n-1).  N(n,0) = 1 and N(n,k) grows like k^(n-2)."""
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")
    if n < 2:
        raise ValueError(f"harmonic_dimension needs n >= 2, got {n}")
    if k == 0:
        return 1
    return (n + 2 * k - 2) * math.comb(n + k - 2, n - 2) // (n + k - 2)


def legendre_coefficients(n: int, multipliers) -> np.ndarray:
    """Legendre coefficients a_k N(n,k) / omega_n of the zonal function on
    S^(n-1) whose Funk-Hecke multipliers are a_0, a_1, ..."""
    a = np.asarray(multipliers, dtype=float)
    dims = np.array([harmonic_dimension(n, k) for k in range(a.size)], dtype=float)
    return a * dims / omega(n)


def legendre_rows(n: int, kmax: int, t, derivatives: bool = False):
    """Yield P_0^n(t), ..., P_kmax^n(t) one degree at a time, by the
    three-term recurrence

        (k + n - 2) P_{k+1} = (2k + n - 2) t P_k - k P_{k-1},

    with only two degrees alive: memory is O(t.size), not O(kmax * t.size).
    With derivatives=True each item is the triple (P_k, P_k', P_k''), the
    derivatives from the t-derivatives of the recurrence,

        (k + n - 2) P'_{k+1}  = (2k + n - 2) (P_k + t P'_k) - k P'_{k-1},
        (k + n - 2) P''_{k+1} = (2k + n - 2) (2 P'_k + t P''_k) - k P''_{k-1};

    the values P_k are the same either way.  Every row is elementwise in t,
    so no value depends on the length of t."""
    t = np.asarray(t, dtype=float)
    prev, cur = np.ones_like(t), t
    if derivatives:
        zero = np.zeros_like(t)
        dprev, dcur, d2prev, d2cur = zero, np.ones_like(t), zero, zero
    yield (prev, dprev, d2prev) if derivatives else prev
    if kmax >= 1:
        yield (cur, dcur, d2cur) if derivatives else cur
    for k in range(1, kmax):
        a = 2 * k + n - 2
        c = k + n - 2
        # divide last so that P_k(+-1) = (+-1)^k holds exactly
        if derivatives:
            dprev, dcur, d2prev, d2cur = (dcur, (a * (cur + t * dcur) - k * dprev) / c,
                                          d2cur, (a * (2.0 * dcur + t * d2cur) - k * d2prev) / c)
        prev, cur = cur, (a * t * cur - k * prev) / c
        yield (cur, dcur, d2cur) if derivatives else cur


def harmonic_orders(pts, kmax: int):
    """The fully normalised associated Legendre functions of the unit
    vectors pts (N, 3) on S^2, order by order, in the form the addition
    theorem

        P_k(u . d) = 1/(2k+1) sum_{m=0}^{k} Pbar_km(u_z) Pbar_km(d_z) cos(m (phi_u - phi_d))

    takes them (Pbar_km = sqrt((2 - [m = 0]) (2k+1) (k-m)!/(k+m)!) P_k^m,
    without the Condon-Shortley phase).  For m = 0..kmax yield
    (m, (c, s), rows):

    - c + i s = Pbar_mm(z) e^{i m phi} = q_m (x + i y)^m, streamed as
      (x + i y)^m by one complex product per order, with q_0 = 1,
      q_1 = sqrt(3), q_m = sqrt((2m+1)/(2m)) q_{m-1}: no trigonometry, and
      0 at the poles for m >= 1;
    - rows yields r_km = Pbar_km / Pbar_mm, a polynomial in z, for
      k = m+1..kmax, by r_{m+1,m} = sqrt(2m+3) z and

        r_km = a_km z r_{k-1,m} - b_km r_{k-2,m},
        a_km = sqrt((4k^2 - 1) / (k^2 - m^2)),
        b_km = sqrt((2k+1) (k+m-1) (k-m-1) / ((2k-3) (k^2 - m^2))).

    So Pbar_km(z) e^{i m phi} = r_km(z) (c + i s), with r_mm = 1.  Three
    buffers of N values carry the rows: a row is overwritten two steps
    later, so use it before advancing, and exhaust rows before the next
    order.  Every value is elementwise in the points."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    x, y, z = (np.ascontiguousarray(pts[:, j]) for j in range(3))
    c, s = np.ones_like(z), np.zeros_like(z)
    for m in range(kmax + 1):
        if m:
            q = math.sqrt(3.0) if m == 1 else math.sqrt((2 * m + 1) / (2 * m))
            c, s = q * (c * x - s * y), q * (c * y + s * x)
        yield m, (c, s), _order_rows(z, m, kmax)


def _order_rows(z: np.ndarray, m: int, kmax: int):
    """r_km(z) for k = m+1..kmax (see harmonic_orders), in three buffers."""
    if m == kmax:
        return
    prev, cur, nxt = np.ones_like(z), math.sqrt(2 * m + 3) * z, np.empty_like(z)
    yield cur
    for k in range(m + 2, kmax + 1):
        kk, mm = k * k, m * m
        np.multiply(z, cur, out=nxt)
        nxt *= math.sqrt((4 * kk - 1) / (kk - mm))
        prev *= math.sqrt((2 * k + 1) * (k + m - 1) * (k - m - 1) / ((2 * k - 3) * (kk - mm)))
        nxt -= prev
        prev, cur, nxt = cur, nxt, prev
        yield cur


@dataclass(frozen=True)
class JacobiQuadrature:
    """Gauss rule for integrals against the zonal weight (1-t^2)^((n-3)/2)
    on [-1, 1]; exact for polynomial integrands of degree <= 2*order - 1."""

    n: int
    order: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def exact_degree(self) -> int:
        return 2 * self.order - 1

    def integrate(self, values: np.ndarray) -> float:
        """Integral of a function sampled at the nodes, weight included."""
        return float(np.dot(self.weights, values))


@lru_cache(maxsize=64)
def jacobi_quadrature(n: int, order: int) -> JacobiQuadrature:
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    alpha = (n - 3) / 2.0
    x, w = roots_jacobi(order, alpha, alpha)
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    x.flags.writeable = False
    w.flags.writeable = False
    return JacobiQuadrature(n=n, order=order, nodes=x, weights=w)


class ZonalPolynomial:
    """Zonal profile given by a finite Legendre expansion
    f(t) = sum_k coeffs[k] * P_k^n(t)."""

    def __init__(self, n: int, coeffs: Sequence[float]):
        # n = 2 is admitted so Berg kernels of low dimension can be expanded
        if n < 2:
            raise ValueError(f"ZonalPolynomial needs n >= 2, got {n}")
        self.n = n
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.ndim != 1 or self.coeffs.size == 0:
            raise ValueError("coeffs must be a non-empty 1-d sequence")
        self.degree = self.coeffs.size - 1

    def __call__(self, t, deriv: int = 0):
        if deriv not in (0, 1, 2):
            raise ValueError("deriv must be 0, 1 or 2")
        if deriv:
            return self.derivatives(t)[deriv - 1]
        # values: sum c_k P_k degree by degree, in O(t.size) memory
        out = np.zeros(np.shape(t))
        for c, pk in zip(self.coeffs, legendre_rows(self.n, self.degree, t)):
            out += c * pk
        return out

    def derivatives(self, t) -> tuple[np.ndarray, np.ndarray]:
        """self(t, 1) and self(t, 2), summed degree by degree as the values
        are, from one streamed recurrence."""
        d1, d2 = np.zeros(np.shape(t)), np.zeros(np.shape(t))
        for c, (_, p1, p2) in zip(self.coeffs,
                                  legendre_rows(self.n, self.degree, t, derivatives=True)):
            d1 += c * p1
            d2 += c * p2
        return d1, d2


class ZonalProfile:
    """Zonal profile backed by callables for f, f' and f''.  Derivatives
    default to central finite differences when not supplied."""

    def __init__(self, f: Callable, df: Callable | None = None,
                 d2f: Callable | None = None, h: float = 1e-6):
        self._f = f
        self._df = df
        self._d2f = d2f
        self._h = h
        self.degree = None

    def __call__(self, t, deriv: int = 0):
        t = np.asarray(t, dtype=float)
        if deriv == 0:
            return self._f(t)
        h = self._h
        if deriv == 1:
            if self._df is not None:
                return self._df(t)
            return (self._f(t + h) - self._f(t - h)) / (2.0 * h)
        if deriv == 2:
            if self._d2f is not None:
                return self._d2f(t)
            return (self._f(t + h) - 2.0 * self._f(t) + self._f(t - h)) / h ** 2
        raise ValueError("deriv must be 0, 1 or 2")


def zonal_coefficient(f, k: int, quad: JacobiQuadrature, n: int | None = None) -> float:
    """Multiplier a_k^n[f] = omega_(n-1) * int f(t) P_k^n(t) w_n(t) dt of a
    zonal profile f.

    Zonal measures (anything carrying precomputed `multipliers`, e.g. objects
    with atoms under the pushforward convention, for which the Dirac at the
    pole has a_k = 1) are read off directly.  Raises
    InsufficientQuadratureError when f carries a known polynomial degree
    that the rule cannot integrate exactly against P_k.
    """
    if hasattr(f, "multipliers"):
        return float(f.multipliers[k])
    n = quad.n if n is None else n
    _check_exact(quad, k, getattr(f, "degree", None))
    *_, pk = legendre_rows(n, k, quad.nodes)
    vals = np.asarray(f(quad.nodes), dtype=float)
    return omega(n - 1) * quad.integrate(vals * pk)


def _check_exact(quad: JacobiQuadrature, k: int, degree: int | None) -> None:
    if degree is not None and k + degree > quad.exact_degree:
        raise InsufficientQuadratureError(
            f"order-{quad.order} rule is exact to degree {quad.exact_degree}, "
            f"integrand has degree {k + degree}"
        )


def zonal_laplacian(f, t, n: int):
    """Laplace-Beltrami operator on a zonal profile:
    (1-t^2) f''(t) - (n-1) t f'(t)."""
    t = np.asarray(t, dtype=float)
    return _laplacian(t, *_derivatives(f, t), n)


def _laplacian(t: np.ndarray, f1: np.ndarray, f2: np.ndarray, n: int) -> np.ndarray:
    """(1-t^2) f'' - (n-1) t f' from f' and f'' at t, of one profile (T,)
    or of a block of profiles (B, T)."""
    return (1.0 - t * t) * f2 - (n - 1) * t * f1


def _derivatives(f, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f'(t) and f''(t); a ZonalPolynomial takes both from one recurrence."""
    if isinstance(f, ZonalPolynomial):
        return f.derivatives(t)
    return f(t, 1), f(t, 2)


def _profile_values(profiles: Sequence, t: np.ndarray) -> np.ndarray:
    """f, f' and f'' of each profile at the points t, (3, B, T).

    Zonal polynomials of one dimension share one streamed recurrence: row b
    adds C[b, k] P_k, P_k' and P_k'' degree by degree, the multiply-adds of
    ZonalPolynomial and its derivatives (a missing degree adds a zero), so
    each row has the bits of its profile evaluated alone.  Other profiles
    are called one at a time."""
    t = np.asarray(t, dtype=float)
    out = np.zeros((3, len(profiles), t.size))
    if all(isinstance(f, ZonalPolynomial) for f in profiles) \
            and len({f.n for f in profiles}) == 1:
        coeffs = np.zeros((len(profiles), max(f.degree for f in profiles) + 1))
        for row, f in zip(coeffs, profiles):
            row[:f.coeffs.size] = f.coeffs
        rows = legendre_rows(profiles[0].n, coeffs.shape[1] - 1, t, derivatives=True)
        for c, pk in zip(coeffs.T, rows):
            for acc, p in zip(out, pk):
                acc += c[:, None] * p
        return out
    for b, f in enumerate(profiles):
        out[0, b] = f(t, 0)
        out[1, b], out[2, b] = _derivatives(f, t)
    return out


def _ck_grid(resolution: int) -> np.ndarray:
    # cosine-spaced interior points; endpoints handled by their limits
    theta = np.linspace(0.0, math.pi, resolution)[1:-1]
    return np.cos(theta)


def _closed_grid(resolution: int) -> np.ndarray:
    """The grid of the sup norms: -1, the cosine-spaced interior points, 1."""
    return np.concatenate(([-1.0], _ck_grid(resolution), [1.0]))


def _ck_norms(t: np.ndarray, values: np.ndarray, n: int, k: int = 2) -> np.ndarray:
    """C^k norms (k = 0, 1, 2) of zonal functions from their profile values
    (f, f', f'') at the closed grid t = [-1, interior, 1], each (T,) or
    (B, T): one norm per profile.  The closed-form covariant-derivative
    norms

        |grad f|^2   = (1-t^2) f'^2
        |grad^2 f|^2 = (n-2) (t f')^2 + ((1-t^2) f'' - t f')^2

    are maximized over the interior points; at t = +-1 |grad f| tends to 0
    and |grad^2 f| to sqrt(n-1) |f'| (the tensor norms stay finite there even
    though the raw t-derivatives may not)."""
    f0, f1, f2 = values
    norm = np.max(np.abs(f0), axis=-1)
    if k == 0:
        return norm
    ti, d1, d2 = t[1:-1], f1[..., 1:-1], f2[..., 1:-1]
    norm = norm + np.max(np.sqrt(1.0 - ti * ti) * np.abs(d1), axis=-1)
    if k == 1:
        return norm
    hess_sq = (n - 2) * (ti * d1) ** 2 + ((1.0 - ti * ti) * d2 - ti * d1) ** 2
    hess_end = math.sqrt(n - 1) * np.max(np.abs(f1[..., [0, -1]]), axis=-1)
    return norm + np.maximum(np.sqrt(np.max(hess_sq, axis=-1)), hess_end)


def zonal_ck_norm(f, k: int, n: int, resolution: int = CK_GRID) -> float:
    """C^k norm (k = 0, 1, 2) of the zonal function with profile f,
    maximized over a cosine-spaced grid of `resolution` points with its
    ends t = +-1 (see _ck_norms)."""
    if k not in (0, 1, 2):
        raise ValueError("k must be 0, 1 or 2")
    if resolution < 1000:
        raise ValueError("grid resolution must be >= 1000")
    t = _closed_grid(resolution)
    return float(_ck_norms(t, _profile_values([f], t)[:, 0], n, k))


def boundary_flux(f, n: int, quad: JacobiQuadrature | None = None) -> float:
    """The integral of the zonal Laplacian of f against the weight
    (1-s^2)^((n-3)/2); vanishes for every C^2 zonal function (it is the
    total integral of Lap f over the sphere, up to a constant)."""
    quad = quad if quad is not None else jacobi_quadrature(n, FLUX_QUAD_ORDER)
    vals = zonal_laplacian(f, quad.nodes, n)
    return quad.integrate(np.asarray(vals, dtype=float))


def regularity_probe(profiles: Sequence, n: int, q: float | None = None) -> dict:
    """Empirical study of the a-priori estimate bounding the C^2 norm of a
    centered zonal function by the sup norm of its box-operator image.

    For q = n - 1 (the default) the ratio reported is
    ||f||_C2 / ||box f||_C0 with box f = f + Lap f / (n-1); members whose
    degree-1 component does not vanish are rejected in that case.  For other
    q the denominator is ||Lap f + q f||_C0.  Members whose image vanishes
    (D_0 annihilates the constants) are rejected too; each rejection lists
    the member's index and reason.  Each sample also gets the boundary-flux
    residual, which must vanish identically.

    The profiles run in blocks of B that hold about CHUNK_BYTES of values,
    whatever the number of profiles or their degree: one recurrence over
    the closed grid and one over the flux nodes serve a whole block
    (_profile_values), and every value, norm and residual has the bits of
    its profile probed alone.

    The constant in the estimate is not pinned anywhere; the probe only
    reports the empirical supremum of the ratios.
    """
    quad = jacobi_quadrature(n, FLUX_QUAD_ORDER)
    box_case = q is None or q == n - 1
    # sup norms include the poles (the cylindrical expression of the
    # Laplacian extends continuously to t = +-1 for smooth profiles)
    t = _closed_grid(CK_GRID)
    profiles = list(profiles)
    step = max(1, CHUNK_BYTES // (_BLOCK_ARRAYS * 8 * t.size))
    ratios, fluxes, rejected = [], [], []
    for start in range(0, len(profiles), step):
        block = profiles[start:start + step]
        if box_case:
            for f in block:
                _check_exact(quad, 1, getattr(f, "degree", None))
        values = _profile_values(block, t)
        f0, f1, f2 = values
        lap = _laplacian(t, f1, f2, n)
        image = f0 + lap / (n - 1) if box_case else lap + q * f0
        denoms = np.max(np.abs(image), axis=1)
        # free the (B, T) arrays before the norms' temporaries and the next
        # block's values are allocated: a third off the peak
        del lap, image
        c2 = _ck_norms(t, values, n)
        del values, f0, f1, f2
        g0, g1, g2 = _profile_values(block, quad.nodes)
        flux = _laplacian(quad.nodes, g1, g2, n)
        for b in range(len(block)):
            if box_case:
                a1 = omega(n - 1) * quad.integrate(g0[b] * quad.nodes)
                if abs(a1) > 1e-8 * omega(n):
                    rejected.append({"index": start + b, "reason": "uncentred", "a1": a1})
                    continue
            if not denoms[b] > 0:
                rejected.append({"index": start + b, "reason": "annihilated"})
                continue
            ratios.append(float(c2[b] / denoms[b]))
            fluxes.append(quad.integrate(flux[b]))
    return {
        "n": n,
        "q": (n - 1 if q is None else q),
        "operator": ("box" if box_case else "D_q"),
        "ratios": ratios,
        "sup_ratio": (max(ratios) if ratios else None),
        "flux_residuals": fluxes,
        "max_flux_residual": (max(abs(x) for x in fluxes) if fluxes else None),
        "rejected": rejected,
    }
