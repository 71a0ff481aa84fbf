"""Geometric constants: unit-ball volumes, sphere surface areas, flag
coefficients, and the rational constants of the Crofton formulas.

``kappa`` is extended to negative real indices through the Gamma function,
which gives kappa(-1) = 1/pi.  That extension is what keeps the mean-section
constant q(n, j) and the Crofton constants c(n, k) finite when their index
drops below zero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "kappa",
    "omega",
    "flag",
    "crofton_c",
    "crofton_q",
    "mean_section_q",
    "geometric_constants",
]

# Bytes of temporaries per chunk of work: Monte-Carlo samples (see
# integral_geom.run_shards), nodes and node-direction pairs of the zonal
# sums, or the profile values of a block of the regularity probe.
CHUNK_BYTES = 1 << 20


@lru_cache(maxsize=None)
def kappa(p: float) -> float:
    """Volume of the p-dimensional unit ball, pi^(p/2) / Gamma(1 + p/2)."""
    return math.pi ** (p / 2.0) / math.gamma(1.0 + p / 2.0)


def omega(n: int) -> float:
    """Surface area of the unit sphere S^(n-1) in R^n (omega_3 = 4*pi)."""
    if n < 1:
        raise ValueError(f"omega requires n >= 1, got {n}")
    return n * kappa(n)


def flag(a: int, b: int) -> float:
    """Flag coefficient [a; b] = C(a,b) * kappa_a / (kappa_b * kappa_(a-b))."""
    if not 0 <= b <= a:
        raise ValueError(f"flag coefficient needs 0 <= b <= a, got [{a}; {b}]")
    return math.comb(a, b) * kappa(a) / (kappa(b) * kappa(a - b))


def crofton_c(n: int, k: int) -> float:
    """The constant c_(n,k) entering the Crofton formula for Minkowski
    valuations; evaluated through the Gamma extension of kappa."""
    if not 1 <= k <= n - 2:
        raise ValueError(f"crofton_c defined for 1 <= k <= n-2, got n={n}, k={k}")
    num = (
        k * (n - k - 1) * (n - k + 1)
        * kappa(n - k - 2) ** 2 * kappa(n - k + 1) * kappa(k)
    )
    den = (
        2.0 * (n - k) * (k + 1)
        * kappa(n - k - 3) * kappa(n - k) ** 2 * kappa(k - 1)
    )
    return num / den


def crofton_q(n: int, i: int, j: int) -> float:
    """q_(n,i,j) = 2^i / (i! kappa_i) * prod_{k=j}^{i+j-1} c_(n,k)."""
    if not (1 <= j <= n - 2 and 1 <= i <= n - j - 1):
        raise ValueError(
            f"crofton_q defined for 1 <= j <= n-2, 1 <= i <= n-j-1; "
            f"got n={n}, i={i}, j={j}"
        )
    prod = 1.0
    for k in range(j, i + j):
        prod *= crofton_c(n, k)
    return 2.0 ** i / (math.factorial(i) * kappa(i)) * prod


def mean_section_q(n: int, j: int) -> float:
    """Normalizing constant q_(n,j) of the mean section operator M_j."""
    if not 2 <= j <= n:
        raise ValueError(f"mean_section_q defined for 2 <= j <= n, got j={j}")
    return (
        (j - 1) / (2.0 * math.pi * (n + 1 - j))
        * kappa(j - 1) * kappa(j - 2) * kappa(n - j)
        / (kappa(j - 3) * kappa(n - 2))
    )


def geometric_constants(n: int, i: int | None = None, j: int | None = None,
                        k: int | None = None) -> dict:
    """Bundle of the constants used by the integral-geometric formulas.

    Always contains the kappa/omega tables up to dimension n and the flag
    coefficients; c_(n,k), q_(n,i,j) and q_(n,j) are added when the
    corresponding indices are supplied (and validated against their ranges).
    """
    out = {
        "n": n,
        "kappa": {p: kappa(p) for p in range(-1, n + 2)},
        "omega": {m: omega(m) for m in range(1, n + 1)},
        "flag": {f"[{a};{b}]": flag(a, b)
                 for a in range(n + 1) for b in range(a + 1)},
    }
    if k is not None:
        out[f"c_{n},{k}"] = crofton_c(n, k)
    if i is not None and j is not None:
        out[f"q_{n},{i},{j}"] = crofton_q(n, i, j)
    if j is not None and i is None:
        out[f"q_{n},{j}"] = mean_section_q(n, j)
    return out


def box_multiplier_frac(n: int, k: int) -> Fraction:
    """Spherical multiplier (1-k)(k+n-1)/(n-1) of the box operator, exact."""
    return Fraction((1 - k) * (k + n - 1), n - 1)


def berg_multiplier_frac(j: int, k: int) -> Fraction:
    """Native multiplier of the Berg kernel g_j: (j-1)/((1-k)(k+j-1)) for
    k != 1 and 0 for k = 1, exact."""
    if k == 1:
        return Fraction(0)
    return Fraction(j - 1, (1 - k) * (k + j - 1))
