"""Translation-invariant, rotation-equivariant Minkowski valuations in
convolution form.

A valuation is specified by the tuple (c0, mu_1..mu_{n-2}, f_{n-1}, c_n):
the support function of the image body is

    h(K) = c0 + sum_i S_i(K,.) * mu_i + S_{n-1}(K,.) * f_{n-1} + c_n V_n(K)

with centered zonal data.  Each S_i integrates a zonal profile g_i, built
in one place (_profiles): on the pointwise path the density of the datum,
on the spectral path the band-limited series of its Funk-Hecke
multipliers, which accepts atoms; the two agree wherever both apply.  Both
callers integrate the profiles with AreaMeasure.integrate_zonal:
`evaluate` one body's measures at many directions, `PieceEvaluator` those
of many bodies at once at one direction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import kappa, mean_section_q, omega
from .convex import (
    AreaMeasure,
    Polytope,
    area_measure,
    clip_halfspace,
    intrinsic_volumes,
    section_plane,
    steiner_area_measure,
)
from .harmonics import ZonalPolynomial, harmonic_dimension, jacobi_quadrature, legendre_coefficients
from .zonal import (
    DEFAULT_KMAX,
    MultiplierSequence,
    ZonalObject,
    box_multiplier,
    builtin_zonal,
)

__all__ = [
    "MinkowskiValuationSpec",
    "SupportFunctionResult",
    "MeasurePieces",
    "PieceEvaluator",
    "ValuationIdentityReport",
    "evaluate",
    "lambda_derivative",
    "degree1_multipliers",
    "mean_section_spec",
    "poincare_pair",
    "valuation_identity_check",
    "builtin_spec",
]

DEFAULT_BAND = 16
PATHS = ("auto", "pointwise", "spectral")   # the evaluation paths a caller may ask for


def _require_centered(z: ZonalObject, label: str):
    if not z.is_centered:
        raise ValueError(f"{label} must be centered (a_1 = 0), got a_1 = {z.multipliers[1]}")


@dataclass
class MinkowskiValuationSpec:
    """Generating data (c0, mu_i, f_top, cn) of a Minkowski valuation.

    mu maps the degree i in 1..n-2 to a centered zonal measure; f_top is the
    centered zonal function at degree n-1.  Missing degrees contribute
    nothing.  For a genuine Minkowski valuation both constants are
    non-negative; the container does not enforce that, so that derived
    objects (images under the derivation operator, differences) stay
    representable.
    """

    n: int = 3
    c0: float = 0.0
    mu: dict[int, ZonalObject] = field(default_factory=dict)
    f_top: ZonalObject | None = None
    cn: float = 0.0

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("ambient dimension must be >= 3")
        for i, z in self.mu.items():
            if not 1 <= i <= self.n - 2:
                raise ValueError(f"mu degree {i} outside 1..{self.n - 2}")
            if z.n != self.n:
                raise ValueError("zonal datum dimension mismatch")
            _require_centered(z, f"mu_{i}")
        if self.f_top is not None:
            if self.f_top.n != self.n:
                raise ValueError("zonal datum dimension mismatch")
            _require_centered(self.f_top, "f_top")

    def degrees(self) -> list[tuple[int, ZonalObject]]:
        """All generating zonal data as (degree, datum) pairs."""
        out = [(i, z) for i, z in sorted(self.mu.items())]
        if self.f_top is not None:
            out.append((self.n - 1, self.f_top))
        return out

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "c0": self.c0,
            "mu": [self.mu[i].to_json() if i in self.mu else None
                   for i in range(1, self.n - 1)],
            "f_top": None if self.f_top is None else self.f_top.to_json(),
            "cn": self.cn,
        }

    @classmethod
    def from_json(cls, data, kmax: int = DEFAULT_KMAX) -> "MinkowskiValuationSpec":
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict):
            raise ValueError(f"a spec is a JSON object, got {type(data).__name__}")
        n = int(data["n"])
        entries, f_top = data.get("mu") or [], data.get("f_top")
        if not (isinstance(entries, list)
                and all(e is None or isinstance(e, dict) for e in entries)):
            raise ValueError("mu must be a list of zonal objects or nulls, one per degree")
        if f_top is not None and not isinstance(f_top, dict):
            raise ValueError("f_top must be a zonal object or null")
        mu = {}
        for off, entry in enumerate(entries):
            if entry is not None:
                mu[off + 1] = ZonalObject.from_json(entry, kmax=kmax)
        return cls(n=n, c0=float(data.get("c0", 0.0)), mu=mu,
                   f_top=None if f_top is None else ZonalObject.from_json(f_top, kmax=kmax),
                   cn=float(data.get("cn", 0.0)))


@dataclass
class SupportFunctionResult:
    """Support-function samples of the image body, with provenance."""

    directions: np.ndarray
    values: np.ndarray
    path: str                 # "pointwise", "spectral", or "empty"
    band: int | None = None
    truncation_tail: float = 0.0


def _steiner_volume(P: Polytope, t: float) -> float:
    iv = intrinsic_volumes(P)
    return sum(t ** (3 - i) * kappa(3 - i) * iv[i] for i in range(4))


def _measures_for(P: Polytope, degrees: list[int], parallel_t: float) -> dict[int, AreaMeasure]:
    if parallel_t == 0.0:
        return {i: area_measure(P, i) for i in degrees}
    return {i: steiner_area_measure(P, i, parallel_t) for i in degrees}


def _profiles(spec: MinkowskiValuationSpec, path: str, band: int | None = None):
    """The evaluation path `path` names, its band, and for each degree i
    with a datum the pair (g_i, tail_i): the profile that S_i integrates and
    the bound of what the band drops per unit mass of S_i.

    "auto" is pointwise when every datum is a density without atoms,
    spectral otherwise; a path outside PATHS is an error.  On the pointwise
    path g_i is the datum's density (a ZonalPolynomial where it is a pure
    Legendre series, which may take the moments), the band None and every
    tail 0.  On the spectral path g_i is the band-limited series
    sum_{k <= kk} a_k N(n,k)/omega_n P_k, kk = min(band, kmax) with band
    DEFAULT_BAND unless given (a band beyond a datum's kmax is an error),
    and tail_i = sum_{k > kk} |a_k| N(n,k)/omega_n: with |M_k(u)| <= the
    total mass, a rigorous bound on the dropped terms."""
    if spec.n != 3:
        raise ValueError("geometric evaluation is implemented for n = 3")
    if path not in PATHS:
        raise ValueError(f"unknown evaluation path {path!r}; expected one of {', '.join(PATHS)}")
    data = spec.degrees()
    if path == "pointwise" or (
            path == "auto" and all(z.has_density and not z.atoms for _, z in data)):
        for i, z in data:
            if not z.has_density or z.atoms:
                raise ValueError(f"degree-{i} datum has atoms; use the spectral path")
        return "pointwise", None, {
            i: (ZonalPolynomial(3, z.coeffs) if z.profile_fn is None else z.density, 0.0)
            for i, z in data}
    L = DEFAULT_BAND if band is None else int(band)
    profiles = {}
    for i, z in data:
        if band is not None and band > z.kmax:
            raise ValueError(f"band {band} overflows the degree-{i} datum (kmax = {z.kmax})")
        kk = min(L, z.kmax)
        dropped = sum(abs(z.multipliers[k]) * harmonic_dimension(3, k)
                      for k in range(kk + 1, z.kmax + 1))
        profiles[i] = (ZonalPolynomial(3, legendre_coefficients(3, z.multipliers[:kk + 1])),
                       float(dropped) / omega(3))
    return "spectral", L, profiles


def evaluate(spec: MinkowskiValuationSpec, P: Polytope, directions,
             band: int | None = None, path: str = "auto",
             parallel_t: float = 0.0) -> SupportFunctionResult:
    """Support function of the valuation applied to P (or to the outer
    parallel body P + tB when parallel_t > 0), sampled at the given unit
    directions: c0 + sum_i int g_i(u . w) dS_i(u) + cn V_3, with the
    profiles g_i of the path (_profiles) and one
    AreaMeasure.integrate_zonal per degree.

    The pointwise path needs every zonal datum to have a continuous density
    and integrates it against the piecewise area measures.  The spectral
    path accepts atoms and integrates the band-limited series of the
    Funk-Hecke multipliers; it reports the sum of its tails times the
    total masses as truncation_tail.  A Legendre series on either path is
    sum_k c_k M_k, M_k the measure's moments, where the addition theorem
    is the cheaper route.
    """
    path, band, profiles = _profiles(spec, path, band)
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    if P.is_empty:
        return SupportFunctionResult(dirs, np.zeros(dirs.shape[0]), path="empty")
    dirs = dirs / np.linalg.norm(dirs, axis=1)[:, None]
    base = float(spec.c0)
    if spec.cn != 0.0:
        base += spec.cn * (_steiner_volume(P, parallel_t) if parallel_t > 0.0
                           else intrinsic_volumes(P).v3)
    values = np.full(dirs.shape[0], base)
    meas = _measures_for(P, list(profiles), parallel_t)
    tail = 0.0
    for i, (g, dropped) in profiles.items():
        values += meas[i].integrate_zonal(g, dirs)
        if dropped:
            tail += dropped * meas[i].total_mass
    return SupportFunctionResult(dirs, values, path, band=band, truncation_tail=tail)


@dataclass
class MeasurePieces:
    """The area measures of m bodies at once, S_1 as arcs and S_2 as atoms,
    each an AreaMeasure over the m bodies.  Their integrals over the
    translations or the offsets of flats (`integral_geom.TranslativeIntegrals`,
    `FlatIntegrals`) take the same form, with V_0 and V_3 integrated alike."""

    hit: np.ndarray                   # (m,) V_0: whether each body is nonempty, or its
                                      # integral (vol(P - R L), a width, ...)
    s1: AreaMeasure
    s2: AreaMeasure
    volume: np.ndarray | None = None  # (m,) V_3, or None where every body is flat


class PieceEvaluator:
    """The support function of the valuation's image at one unit direction
    u, for many bodies K at once, from the pieces of their area measures:

        h(K)(u) = c0 [K nonempty] + int g_1(v . u) dS_1(K, v)
                  + int g_2(v . u) dS_2(K, v) + cn V_3(K),

    with the profiles g_i that `evaluate` integrates on the same path at
    its default band (_profiles).  Each integral is one
    AreaMeasure.integrate_zonal over the m bodies: the values are those of
    `evaluate` on each body up to rounding, with no face lattice.  Only the
    area measures of `degrees`, those with a profile, are read, so the
    pieces of the others need not be built."""

    def __init__(self, spec: MinkowskiValuationSpec, direction, path: str = "auto"):
        self.path, _, profiles = _profiles(spec, path)
        u = np.asarray(direction, dtype=float).ravel()
        self.u = u / np.linalg.norm(u)
        self.c0, self.cn = float(spec.c0), float(spec.cn)
        self.profiles = {i: g for i, (g, _) in profiles.items()}
        self.degrees = tuple(self.profiles)

    def __call__(self, pieces: MeasurePieces) -> np.ndarray:
        """The values (m,) at the bodies of the pieces."""
        values = self.c0 * pieces.hit.astype(float)
        if self.cn != 0.0 and pieces.volume is not None:
            values += self.cn * pieces.volume
        for i, g in self.profiles.items():
            values += (pieces.s1, pieces.s2)[i - 1].integrate_zonal(g, self.u[None])[:, 0]
        return values


def lambda_derivative(spec: MinkowskiValuationSpec) -> MinkowskiValuationSpec:
    """Derivation operator: d/dt at t=0 of K -> Phi(K + tB).

    Degree-i data move to degree i-1 with factor i, the degree-1 datum feeds
    its total mass into the constant, and the volume coefficient becomes a
    constant top-degree density.
    """
    n = spec.n
    new_c0 = 0.0
    new_f_top: ZonalObject | None = None
    # the shifted measure degrees 1..n-3 and the landing slot n-2 of the top
    # datum never collide, so plain assignment suffices
    new_mu: dict[int, ZonalObject] = {}
    for i, z in spec.mu.items():
        if i == 1:
            new_c0 += z.total_mass
        else:
            new_mu[i - 1] = z.scaled(float(i))
    if spec.f_top is not None:
        new_mu[n - 2] = spec.f_top.scaled(float(n - 1))
    if spec.cn != 0.0:
        new_f_top = ZonalObject.constant(n, spec.cn,
                                         kmax=spec.f_top.kmax if spec.f_top else DEFAULT_KMAX)
    return MinkowskiValuationSpec(n=n, c0=new_c0, mu=new_mu, f_top=new_f_top, cn=0.0)


def degree1_multipliers(spec_or_mu, kmax: int | None = None) -> MultiplierSequence:
    """Funk-Hecke multipliers of the degree-1 valuation in normal form
    h(K) = S_1(K,.) * mu_1 = h_K * box(mu_1): entry k is the box multiplier
    times a_k[mu_1], with the degree-1 entry forced to zero."""
    if isinstance(spec_or_mu, MinkowskiValuationSpec):
        if set(spec_or_mu.mu) != {1} or spec_or_mu.f_top is not None:
            raise ValueError("expected a spec with only a degree-1 datum")
        mu = spec_or_mu.mu[1]
    else:
        mu = spec_or_mu
    kk = mu.kmax if kmax is None else min(kmax, mu.kmax)
    vals = np.array([box_multiplier(mu.n, k) * mu.multipliers[k] for k in range(kk + 1)])
    vals[1] = 0.0
    return MultiplierSequence(mu.n, vals)


def mean_section_spec(n: int, j: int, kmax: int = DEFAULT_KMAX) -> MinkowskiValuationSpec:
    """The mean section operator M_j as a valuation spec: a single datum
    q(n,j) * (Berg kernel of dimension j) at degree n+1-j."""
    if not 2 <= j <= n:
        raise ValueError(f"mean section needs 2 <= j <= n, got j={j}")
    q = mean_section_q(n, j)
    datum = builtin_zonal(f"berg:{j}", n=n, kmax=kmax).scaled(q)
    deg = n + 1 - j
    if deg == n - 1:
        return MinkowskiValuationSpec(n=n, f_top=datum)
    return MinkowskiValuationSpec(n=n, mu={deg: datum})


def poincare_pair(h: ZonalObject, f: ZonalObject, i: int) -> float:
    """Pairing of the spherical valuations generated by zonal densities h at
    degree i and f at degree n-i:

        (n-i)! i! / (n-1)! * int h(u) (box f)(-u) du,

    computed by order-96 Gauss quadrature using P_k(-t) = (-1)^k P_k(t)."""
    n = h.n
    if f.n != n:
        raise ValueError("dimension mismatch")
    if not 1 <= i <= n - 1:
        raise ValueError(f"degree must satisfy 1 <= i <= n-1, got {i}")
    for z, lab in ((h, "h"), (f, "f")):
        _require_centered(z, lab)
        if not z.has_density or z.atoms:
            raise ValueError(f"{lab} must be a zonal density")
    quad = jacobi_quadrature(n, 96)
    # box f reflected: coefficients pick up the box multiplier and parity
    kf = f.kmax
    coeffs = np.zeros(kf + 1)
    src = f.coeffs if f.coeffs is not None else legendre_coefficients(n, f.multipliers)
    m = min(src.size, kf + 1)
    for k in range(m):
        coeffs[k] = src[k] * box_multiplier(n, k) * (-1.0) ** k
    boxf_neg = ZonalPolynomial(n, coeffs)
    hv = np.asarray(h.density(quad.nodes), dtype=float)
    integral = omega(n - 1) * quad.integrate(hv * boxf_neg(quad.nodes))
    scale = math.factorial(n - i) * math.factorial(i) / math.factorial(n - 1)
    return scale * integral


@dataclass
class ValuationIdentityReport:
    residual: float | None
    skipped: bool = False
    reason: str = ""
    n_directions: int = 0
    scale: float | None = None    # max |h(K)| + |h(L)| + |h(P)| + |h(K n L)|; 0 unevaluated


def valuation_identity_check(spec: MinkowskiValuationSpec, P: Polytope,
                             plane_point, plane_normal, directions,
                             band: int | None = None) -> ValuationIdentityReport:
    """Finite additivity of the valuation under a hyperplane split:
    sup over the sampled directions of

        |h(K) + h(L) - h(P) - h(K n L)|

    with K, L the two closed halves, and its scale: the sup of
    |h(K)| + |h(L)| + |h(P)| + |h(K n L)|, the size of the rounding of the
    sum.  A plane missing the body gives residual and scale 0 exactly (the
    empty body contributes nothing); a split producing a lower-dimensional
    half is reported as degenerate and skipped.  P is split about its vertex
    centroid m, by one plane {x . a = c} for the halves and the section."""
    a = np.asarray(plane_normal, dtype=float)
    a = a / np.linalg.norm(a)
    m = P.vertices.mean(axis=0)
    c = float(np.dot(a, np.asarray(plane_point, dtype=float) - m))
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    P = P.translated(-m)
    K = clip_halfspace(P, a, c)
    L = clip_halfspace(P, -a, -c)
    if K.is_empty or L.is_empty:
        return ValuationIdentityReport(residual=0.0, skipped=False,
                                       reason="plane misses the body",
                                       n_directions=dirs.shape[0], scale=0.0)
    if K.dim < 3 or L.dim < 3:
        return ValuationIdentityReport(residual=None, skipped=True,
                                       reason="degenerate split (tangent plane)",
                                       n_directions=dirs.shape[0])
    M = section_plane(P, c * a, normal=a)
    vals = [evaluate(spec, body, dirs, band=band).values for body in (K, L, P, M)]
    res = np.abs(vals[0] + vals[1] - vals[2] - vals[3])
    return ValuationIdentityReport(residual=float(np.max(res)), n_directions=dirs.shape[0],
                                   scale=float(np.max(sum(np.abs(v) for v in vals))))


def builtin_spec(name: str, n: int = 3, kmax: int = DEFAULT_KMAX) -> MinkowskiValuationSpec:
    """Named valuations: "projection_body", "difference_body",
    "mean_width_ball", "mean_section:j"."""
    if name == "projection_body":
        return MinkowskiValuationSpec(n=n, f_top=ZonalObject.abs_half(n, kmax))
    if name == "difference_body":
        # degree-1 normal form of K -> K + (-K): mu_1 is twice the even part
        # of the Berg kernel, so box(mu_1) has multipliers 1 + (-1)^k
        g = builtin_zonal(f"berg:{n}", n=n, kmax=kmax)
        mult = np.array([(1.0 + (-1.0) ** k) * g.multipliers[k] for k in range(kmax + 1)])
        mu1 = ZonalObject(n, coeffs=legendre_coefficients(n, mult), kmax=kmax,
                          multipliers=mult)
        return MinkowskiValuationSpec(n=n, mu={1: mu1})
    if name == "mean_width_ball":
        # K -> (mean width of K) B; constant density 2/omega_n at degree 1
        return MinkowskiValuationSpec(n=n, mu={1: ZonalObject.constant(n, 2.0 / omega(n), kmax)})
    if name.startswith("mean_section:"):
        j = int(name.split(":", 1)[1])
        return mean_section_spec(n, j, kmax)
    raise KeyError(f"unknown valuation builtin {name!r}")
