"""The commutative convolution algebra of zonal functions and measures.

A zonal object lives on S^(n-1), is invariant under the rotations fixing the
pole, and is stored as point atoms on [-1, 1] (pushforward of the measure
under u -> u . pole) plus an optional continuous density.  Its Funk-Hecke
multipliers a_k are the source of truth for the algebra: convolution
multiplies them entrywise, the pole Dirac is the identity, and the box and
Berg operators act diagonally.  Structural data (atoms, Legendre
coefficients, callable profiles) is kept for pointwise evaluation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_jacobi

from .constants import berg_multiplier_frac, box_multiplier_frac, omega
from .harmonics import (
    ZonalPolynomial,
    check_ambient_dim,
    harmonic_dimension,
    jacobi_quadrature,
    legendre_coefficients,
    legendre_rows,
)

__all__ = [
    "DEFAULT_KMAX",
    "MultiplierSequence",
    "ZonalObject",
    "BergFunction",
    "box_multiplier",
    "berg_native_multiplier",
    "convolve",
    "convolve_profiles_pointwise",
    "box_n_apply",
    "box_j_apply",
    "berg",
    "approximate_identity",
    "tau",
    "builtin_zonal",
]

DEFAULT_KMAX = 32
BERG_NATIVE_KMAX = 512  # truncation of the Berg expansions berg re-expands
CENTER_TOL = 1e-9       # |a_1| up to which, relative to max(1, max |a_k|), a datum is centred


def box_multiplier(n: int, k: int) -> float:
    """Multiplier (1-k)(k+n-1)/(n-1) of the box operator on degree k."""
    return float(box_multiplier_frac(n, k))


def berg_native_multiplier(j: int, k: int) -> float:
    """Multiplier of the Berg kernel g_j in its native dimension j."""
    return float(berg_multiplier_frac(j, k))


@dataclass(frozen=True)
class MultiplierSequence:
    """Funk-Hecke multipliers a_k, 0 <= k <= kmax, with optional error bars
    (used for Berg kernels of lower dimension, whose ambient multipliers are
    only known through a truncated re-expansion)."""

    n: int
    values: np.ndarray
    error: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.error is not None:
            object.__setattr__(self, "error", np.asarray(self.error, dtype=float))

    @property
    def kmax(self) -> int:
        return self.values.size - 1

    def __getitem__(self, k: int) -> float:
        return float(self.values[k])


class ZonalObject:
    """Zonal function or measure on S^(n-1).

    atoms      -- list of (t0, mass) pairs: mass on the parallel circle
                  u . pole = t0 (a genuine point mass when t0 = +-1)
    coeffs     -- optional Legendre coefficients of a density part,
                  sum_k coeffs[k] P_k^n(t)
    profile_fn -- optional exact callable density part (the total density is
                  the sum of both parts when both are present)
    multipliers a_k = sum mass * P_k(t0) + density contribution
    """

    def __init__(self, n: int, atoms=None, coeffs=None, profile_fn=None,
                 pieces=None, kmax: int = DEFAULT_KMAX, multipliers=None,
                 tail_l2: float = 0.0, mult_error=None):
        check_ambient_dim(n)
        self.n = n
        self.kmax = int(kmax)
        self.atoms = [(float(t), float(m)) for t, m in (atoms or [])]
        for t, _ in self.atoms:
            if not -1.0 <= t <= 1.0:
                raise ValueError(f"atom position {t} outside [-1, 1]")
        self.coeffs = None if coeffs is None else np.asarray(coeffs, dtype=float)
        self.profile_fn = profile_fn
        self.pieces = pieces
        self.tail_l2 = float(tail_l2)
        if multipliers is None:
            multipliers = self._compute_multipliers()
        self.multipliers = np.asarray(multipliers, dtype=float)
        self.mult_error = None if mult_error is None else np.asarray(mult_error, dtype=float)
        self.multipliers.flags.writeable = False

    # -- construction ---------------------------------------------------

    def _compute_multipliers(self, atoms_only: bool = False) -> np.ndarray:
        """Multipliers from the structural data (with atoms_only, the atoms' share)."""
        a = np.zeros(self.kmax + 1)
        if self.atoms:
            ts = np.array([t for t, _ in self.atoms])
            ms = np.array([m for _, m in self.atoms])
            a += np.array(list(legendre_rows(self.n, self.kmax, ts))) @ ms
        if atoms_only:
            return a
        if self.profile_fn is not None:
            a += self._profile_multipliers(self.profile_fn, self.pieces)
        if self.coeffs is not None:
            w = omega(self.n)
            for k in range(min(self.coeffs.size, self.kmax + 1)):
                a[k] += self.coeffs[k] * w / harmonic_dimension(self.n, k)
        return a

    def _profile_multipliers(self, fn, pieces) -> np.ndarray:
        # compute a few degrees past kmax so the discarded tail's l2 mass
        # can be reported
        pieces = pieces or [(-1.0, 1.0)]
        overshoot = 8
        a = np.zeros(self.kmax + 1 + overshoot)
        order = max(64, self.kmax + 16)
        alpha = (self.n - 3) / 2.0
        x, w = roots_jacobi(order, 0.0, 0.0)  # plain Gauss on each piece
        for lo, hi in pieces:
            mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
            t = mid + half * x
            wt = half * w * (1.0 - t * t) ** alpha
            P = np.array(list(legendre_rows(self.n, self.kmax + overshoot, t)))
            vals = np.asarray(fn(t), dtype=float)
            a += omega(self.n - 1) * (P @ (wt * vals))
        self.tail_l2 = max(self.tail_l2, float(np.sqrt(np.sum(a[self.kmax + 1:] ** 2))))
        return a[:self.kmax + 1]

    @classmethod
    def from_atoms(cls, n: int, atoms, kmax: int = DEFAULT_KMAX) -> "ZonalObject":
        return cls(n, atoms=atoms, kmax=kmax)

    @classmethod
    def from_coeffs(cls, n: int, coeffs, kmax: int = DEFAULT_KMAX) -> "ZonalObject":
        return cls(n, coeffs=coeffs, kmax=kmax)

    @classmethod
    def from_profile(cls, n: int, fn, kmax: int = DEFAULT_KMAX,
                     pieces=None) -> "ZonalObject":
        """Zonal density given by a callable; multipliers by Gauss quadrature
        on each smooth piece of the domain."""
        return cls(n, profile_fn=fn, pieces=pieces, kmax=kmax)

    @classmethod
    def dirac_pole(cls, n: int, kmax: int = DEFAULT_KMAX) -> "ZonalObject":
        """The convolution identity: unit mass at the pole, a_k = 1."""
        return cls(n, atoms=[(1.0, 1.0)], kmax=kmax)

    @classmethod
    def equator(cls, n: int, kmax: int = DEFAULT_KMAX) -> "ZonalObject":
        """Uniform measure on the equatorial subsphere, total mass
        omega_(n-1); pushforward is an atom at t = 0."""
        return cls(n, atoms=[(0.0, omega(n - 1))], kmax=kmax)

    @classmethod
    def constant(cls, n: int, c: float = 1.0, kmax: int = DEFAULT_KMAX) -> "ZonalObject":
        return cls(n, coeffs=[c], kmax=kmax)

    @classmethod
    def abs_half(cls, n: int, kmax: int = DEFAULT_KMAX) -> "ZonalObject":
        """The profile |t|/2 generating the projection body at top degree."""
        return cls(n, profile_fn=lambda t: 0.5 * np.abs(t),
                   pieces=[(-1.0, 0.0), (0.0, 1.0)], kmax=kmax)

    # -- basic queries ---------------------------------------------------

    @property
    def is_centered(self) -> bool:
        scale = max(1.0, float(np.max(np.abs(self.multipliers))))
        return abs(self.multipliers[1]) <= CENTER_TOL * scale

    @property
    def has_density(self) -> bool:
        return self.coeffs is not None or self.profile_fn is not None

    @property
    def is_pole_dirac(self) -> bool:
        return (not self.has_density and len(self.atoms) == 1
                and self.atoms[0][0] == 1.0)

    @property
    def total_mass(self) -> float:
        return float(self.multipliers[0])

    def density(self, t, deriv: int = 0):
        """Pointwise density part (atoms excluded): callable profile plus
        Legendre expansion, when present."""
        if self.profile_fn is None and self.coeffs is None:
            raise ValueError("zonal object has no density part")
        t = np.asarray(t, dtype=float)
        out = 0.0
        if self.profile_fn is not None:
            if deriv != 0:
                raise ValueError("callable profiles expose values only")
            out = out + np.asarray(self.profile_fn(t), dtype=float)
        if self.coeffs is not None:
            out = out + ZonalPolynomial(self.n, self.coeffs)(t, deriv)
        return out

    def centered(self) -> "ZonalObject":
        """Project out the degree-1 component; the structural data pick up
        the compensating degree-1 density so they stay consistent with the
        multipliers."""
        a = self.multipliers.copy()
        a1 = a[1]
        a[1] = 0.0
        coeffs = self.coeffs
        if a1 != 0.0:
            size = max(2, 0 if coeffs is None else coeffs.size)
            new = np.zeros(size)
            if coeffs is not None:
                new[:coeffs.size] = coeffs
            new[1] -= a1 * harmonic_dimension(self.n, 1) / omega(self.n)
            coeffs = new
        return ZonalObject(self.n, atoms=self.atoms, coeffs=coeffs,
                           profile_fn=self.profile_fn,
                           pieces=self.pieces, kmax=self.kmax,
                           multipliers=a, tail_l2=self.tail_l2,
                           mult_error=self.mult_error)

    def scaled(self, c: float) -> "ZonalObject":
        return ZonalObject(
            self.n,
            atoms=[(t, c * m) for t, m in self.atoms],
            coeffs=None if self.coeffs is None else c * self.coeffs,
            profile_fn=None if self.profile_fn is None else (lambda t, f=self.profile_fn: c * np.asarray(f(t))),
            pieces=self.pieces, kmax=self.kmax,
            multipliers=c * self.multipliers, tail_l2=abs(c) * self.tail_l2,
            mult_error=None if self.mult_error is None else abs(c) * self.mult_error)

    def check_consistency(self) -> float:
        """Largest deviation between the cached multipliers and the ones
        recomputed from the structural data."""
        fresh = self._compute_multipliers()
        return float(np.max(np.abs(fresh - self.multipliers))) if fresh.size else 0.0

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        """Schema {"n", "legendre_coeffs", "atoms"}.  Callable-backed
        densities are serialized through their band-limited coefficients."""
        if self.profile_fn is not None:
            dens = self.multipliers - self._compute_multipliers(atoms_only=True)
            coeffs = legendre_coefficients(self.n, dens).tolist()
        else:
            coeffs = [] if self.coeffs is None else list(map(float, self.coeffs))
        return {
            "n": self.n,
            "legendre_coeffs": coeffs,
            "atoms": [{"t": t, "mass": m} for t, m in self.atoms],
        }

    @classmethod
    def from_json(cls, data, kmax: int = DEFAULT_KMAX) -> "ZonalObject":
        if isinstance(data, str):
            data = json.loads(data)
        coeffs = data.get("legendre_coeffs") or None
        atoms = [(d["t"], d["mass"]) for d in data.get("atoms", [])]
        return cls(int(data["n"]), atoms=atoms, coeffs=coeffs, kmax=kmax)

    def __repr__(self):
        parts = [f"n={self.n}", f"kmax={self.kmax}"]
        if self.atoms:
            parts.append(f"atoms={len(self.atoms)}")
        if self.has_density:
            parts.append("density")
        return f"ZonalObject({', '.join(parts)})"


# -- convolution ---------------------------------------------------------

def convolve(x: ZonalObject, y: ZonalObject) -> ZonalObject:
    """Convolution of zonal objects; multipliers multiply entrywise.

    Convolving with the pole Dirac preserves the structural data; any other
    product is represented by the band-limited density reconstructed from
    its multipliers (a_k exact up to the common kmax, structure truncated).
    """
    if x.n != y.n:
        raise ValueError(f"dimension mismatch: {x.n} vs {y.n}")
    kmax = min(x.kmax, y.kmax)
    a = x.multipliers[:kmax + 1] * y.multipliers[:kmax + 1]
    err = None
    for u, v in ((x, y), (y, x)):
        if u.mult_error is not None:
            e = u.mult_error[:kmax + 1] * np.abs(v.multipliers[:kmax + 1])
            err = e if err is None else err + e
    if y.is_pole_dirac or x.is_pole_dirac:
        base, other = (x, y) if y.is_pole_dirac else (y, x)
        scale = other.atoms[0][1]
        out = base.scaled(scale)
        if out.kmax != kmax:
            out = ZonalObject(base.n, atoms=out.atoms, coeffs=out.coeffs,
                              profile_fn=out.profile_fn, pieces=out.pieces,
                              kmax=kmax, multipliers=a, mult_error=err)
        return out
    return ZonalObject(x.n, coeffs=legendre_coefficients(x.n, a), kmax=kmax, multipliers=a,
                       mult_error=err)


def convolve_profiles_pointwise(x: ZonalObject, y: ZonalObject, s,
                                order: int = 64) -> np.ndarray:
    """Profile of x * y at the points s by direct double quadrature of the
    convolution integral

        (f * g)(s) = int g(t) w_n(t) [ omega_(n-2) int f(s t + r(s) r(t) u)
                                       (1-u^2)^((n-4)/2) du ] dt,

    r(t) = sqrt(1-t^2).  Exact (up to roundoff) for band-limited pairs when
    the quadrature orders cover the degrees involved.
    """
    n = x.n
    if n != y.n:
        raise ValueError("dimension mismatch")
    if not (x.has_density and y.has_density):
        raise ValueError("pointwise convolution needs densities on both factors")
    s = np.atleast_1d(np.asarray(s, dtype=float))
    tq, tw = roots_jacobi(order, (n - 3) / 2.0, (n - 3) / 2.0)
    uq, uw = roots_jacobi(order, (n - 4) / 2.0, (n - 4) / 2.0)
    rs = np.sqrt(np.clip(1.0 - s * s, 0.0, None))       # (S,)
    rt = np.sqrt(np.clip(1.0 - tq * tq, 0.0, None))     # (T,)
    # argument grid: (S, T, U)
    arg = (s[:, None, None] * tq[None, :, None]
           + rs[:, None, None] * rt[None, :, None] * uq[None, None, :])
    arg = np.clip(arg, -1.0, 1.0)
    inner = np.tensordot(np.asarray(x.density(arg), dtype=float), uw, axes=(2, 0))
    inner *= omega(n - 2)
    gt = np.asarray(y.density(tq), dtype=float)
    return inner @ (tw * gt)


# -- box and Berg operators ------------------------------------------------

def _apply_diagonal(x: ZonalObject, mult: np.ndarray,
                    err: np.ndarray | None = None) -> ZonalObject:
    a = x.multipliers * mult
    coeffs = None
    if x.coeffs is not None and not x.atoms:
        coeffs = np.zeros(x.kmax + 1)
        m = min(x.coeffs.size, x.kmax + 1)
        coeffs[:m] = x.coeffs[:m]
        coeffs *= mult
    tot_err = None
    if x.mult_error is not None:
        tot_err = x.mult_error * np.abs(mult)
    if err is not None:
        e = err * np.abs(x.multipliers)
        tot_err = e if tot_err is None else tot_err + e
    return ZonalObject(x.n, coeffs=coeffs, kmax=x.kmax, multipliers=a,
                       mult_error=tot_err)


def box_n_apply(x: ZonalObject) -> ZonalObject:
    """Apply the box operator f -> f + Lap f/(n-1): degree k is scaled by
    (1-k)(k+n-1)/(n-1), so the degree-1 component is annihilated."""
    mult = np.array([box_multiplier(x.n, k) for k in range(x.kmax + 1)])
    return _apply_diagonal(x, mult)


@dataclass(frozen=True)
class BergFunction:
    """The Berg kernel g_j inverting the box operator of dimension j.

    Native multipliers are exact rationals; the truncated profile is the
    band-limited expansion in dimension j used for pointwise values and for
    re-expansion on higher-dimensional spheres.
    """

    j: int
    native_multipliers: np.ndarray
    profile: ZonalPolynomial = field(repr=False)
    kmax_native: int
    tail_l1: float

    def __call__(self, t):
        return self.profile(t)


def _berg_native(j: int, kmax_native: int) -> tuple[np.ndarray, ZonalPolynomial, float]:
    a = np.array([berg_native_multiplier(j, k) for k in range(kmax_native + 1)])
    w = omega(j)
    coeffs = legendre_coefficients(j, a)
    # l1 tail of the coefficient series: |a_k| ~ (j-1)/k^2, N(j,k) ~ k^(j-2)
    ks = np.arange(kmax_native + 1, 4 * kmax_native + 2)
    tail = float(np.sum((j - 1) / ((ks - 1.0) * (ks + j - 1.0))
                        * np.array([harmonic_dimension(j, int(k)) for k in ks]) / w))
    return a, ZonalPolynomial(j, coeffs), tail


def berg(j: int, kmax: int = DEFAULT_KMAX,
         n: int | None = None) -> tuple[BergFunction, MultiplierSequence]:
    """Berg kernel of dimension j together with its multipliers on the
    ambient sphere S^(n-1).

    For j = n the ambient multipliers are the native ones, exact.  For j < n
    they are obtained by quadrature of the native expansion, truncated at
    BERG_NATIVE_KMAX, against the ambient Legendre polynomials; the error
    bars report the observed change when the series is cut at half that
    degree (at least kmax + 2), on the same quadrature rule (the kernel is
    only L^1, so the re-expansion carries no a-priori guarantee).
    """
    if j < 2:
        raise ValueError(f"Berg kernel needs dimension j >= 2, got {j}")
    n = j if n is None else n
    if not 2 <= j <= n:
        raise ValueError(f"need 2 <= j <= n, got j={j}, n={n}")
    native, profile, tail = _berg_native(j, BERG_NATIVE_KMAX if j < n else max(kmax, 8))
    bf = BergFunction(j=j, native_multipliers=native[:kmax + 1].copy() if j == n else native,
                      profile=profile, kmax_native=profile.degree, tail_l1=tail)
    if j == n:
        vals = np.array([berg_native_multiplier(j, k) for k in range(kmax + 1)])
        return bf, MultiplierSequence(n, vals, np.zeros(kmax + 1))
    # the bar: the truncation at half the degree (at least kmax + 2, below
    # the full one), a prefix of the native series
    half = min(max(BERG_NATIVE_KMAX // 2, kmax + 2), profile.degree - 1)
    ambient, ambient_half = _ambient_berg_multipliers(profile, n, kmax, half)
    err = np.abs(ambient - ambient_half) + 1e-15
    if kmax >= 1:
        ambient[1] = 0.0  # centered by construction
    return bf, MultiplierSequence(n, ambient, err)


def _ambient_berg_multipliers(profile: ZonalPolynomial, n: int, kmax: int,
                              half: int) -> tuple[np.ndarray, np.ndarray]:
    """Ambient multipliers of degree <= kmax of the profile and of its
    truncation at degree `half`, by the Gauss-Jacobi rule that is exact for
    the full profile (and so for the truncation): both partial sums come
    from one pass of the recurrence, summed as ZonalPolynomial sums them."""
    order = (profile.degree + kmax) // 2 + 4
    quad = jacobi_quadrature(n, order)
    vals = np.zeros(quad.nodes.shape)
    for k, (c, pk) in enumerate(zip(profile.coeffs,
                                    legendre_rows(profile.n, profile.degree, quad.nodes))):
        vals += c * pk
        if k == half:
            half_vals = vals.copy()
    P = np.array(list(legendre_rows(n, kmax, quad.nodes)))
    return (omega(n - 1) * (P @ (quad.weights * vals)),
            omega(n - 1) * (P @ (quad.weights * half_vals)))


def box_j_apply(x: ZonalObject, j: int, rel_tol: float = 1e-12) -> ZonalObject:
    """Apply the inverse of convolution with the Berg kernel of dimension j
    (realized on the ambient sphere of x): divide each multiplier by
    a_k[g_j], forcing the degree-1 entry to zero.

    Raises when a divisor falls below rel_tol relative to the largest one;
    the exception carries the observed condition number.
    """
    _, ambient = berg(j, kmax=x.kmax, n=x.n)
    vals = ambient.values.copy()
    vals[1] = 1.0  # placeholder; degree 1 is zeroed below
    finite = np.abs(vals)
    cond = float(np.max(finite) / np.min(finite))
    if np.min(finite) < rel_tol * np.max(finite):
        raise ZeroDivisionError(
            f"Berg multiplier too small for inversion (condition number {cond:.3e})")
    mult = 1.0 / vals
    mult[1] = 0.0
    err = None
    if ambient.error is not None:
        # first-order propagation of the divisor uncertainty
        err = ambient.error / vals ** 2
        err[1] = 0.0
    out = _apply_diagonal(x, mult, err)
    return out


def tau(n: int, kmax: int = DEFAULT_KMAX) -> ZonalObject:
    """The centered pole Dirac: identity on centered objects, multipliers
    (1, 0, 1, 1, ...).  Structurally an atom at the pole plus the degree-1
    density that cancels its first harmonic."""
    c1 = -harmonic_dimension(n, 1) / omega(n)
    return ZonalObject(n, atoms=[(1.0, 1.0)], coeffs=[0.0, c1], kmax=kmax)


def approximate_identity(j: int, n: int = 3, kmax: int = DEFAULT_KMAX) -> ZonalObject:
    """Non-negative zonal bump supported in the geodesic cap of radius 1/j
    around the pole, normalized to unit total integral; profile
    c (t - cos(1/j))_+^2."""
    if j < 1:
        raise ValueError("cap index must be >= 1")
    c = math.cos(1.0 / j)
    raw = ZonalObject.from_profile(
        n, lambda t: np.clip(t - c, 0.0, None) ** 2, kmax=kmax, pieces=[(c, 1.0)])
    mass = raw.total_mass
    out = raw.scaled(1.0 / mass)
    return out


def builtin_zonal(name: str, n: int = 3, kmax: int = DEFAULT_KMAX) -> ZonalObject:
    """Named zonal objects: "dirac_pole", "equator", "abs_half", "const"
    (or "const:c"), "berg:j", "tau"."""
    if name == "dirac_pole":
        return ZonalObject.dirac_pole(n, kmax)
    if name == "equator":
        return ZonalObject.equator(n, kmax)
    if name == "abs_half":
        return ZonalObject.abs_half(n, kmax)
    if name == "tau":
        return tau(n, kmax)
    if name == "const" or name.startswith("const:"):
        c = float(name.split(":", 1)[1]) if ":" in name else 1.0
        if not math.isfinite(c):
            raise ValueError(f"constant density must be finite, got {c}")
        return ZonalObject.constant(n, c, kmax)
    if name.startswith("berg:"):
        j = int(name.split(":", 1)[1])
        bf, ambient = berg(j, kmax=kmax, n=n)
        # for j < n, a re-expanded band-limited proxy on the ambient sphere
        return ZonalObject(n, coeffs=legendre_coefficients(n, ambient.values), kmax=kmax,
                           multipliers=ambient.values, mult_error=ambient.error,
                           tail_l2=0.0 if j == n else bf.tail_l1)
    raise KeyError(f"unknown zonal builtin {name!r}")
