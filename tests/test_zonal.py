"""Convolution algebra: multipliers, box/Berg operators, approximate
identities, serialization."""

import math
from fractions import Fraction

import numpy as np
import pytest

from minkval.constants import berg_multiplier_frac, box_multiplier_frac, omega
from minkval.harmonics import (
    ZonalPolynomial,
    harmonic_dimension,
    jacobi_quadrature,
    legendre_coefficients,
    legendre_rows,
    zonal_coefficient,
)
from minkval.zonal import (
    BERG_NATIVE_KMAX,
    ZonalObject,
    approximate_identity,
    berg,
    berg_native_multiplier,
    box_j_apply,
    box_multiplier,
    box_n_apply,
    builtin_zonal,
    convolve,
    convolve_profiles_pointwise,
    tau,
)


def random_density(rng, n=3, band=6, kmax=16):
    return ZonalObject.from_coeffs(n, rng.normal(size=band + 1), kmax=kmax)


def test_box_multiplier_table():
    assert [box_multiplier(3, k) for k in range(5)] == [1.0, 0.0, -2.0, -5.0, -9.0]
    assert box_multiplier(7, 0) == 1.0  # (1-0)(n-1)/(n-1)
    assert box_multiplier(5, 1) == 0.0


def test_berg_multiplier_table():
    assert [berg_native_multiplier(3, k) for k in range(4)] == [1.0, 0.0, -0.5, -0.2]
    assert berg_multiplier_frac(3, 4) == Fraction(-1, 9)
    assert berg_multiplier_frac(2, 2) == Fraction(-1, 3)


def test_box_berg_exact_inverse_rationals():
    for n in (3, 4, 5):
        for k in [0] + list(range(2, 40)):
            assert box_multiplier_frac(n, k) * berg_multiplier_frac(n, k) == 1


def test_dirac_pole_is_identity():
    d = ZonalObject.dirac_pole(3, kmax=12)
    assert np.all(d.multipliers == 1.0)
    x = ZonalObject.from_coeffs(3, [0.4, 0.0, -1.2, 0.3], kmax=12)
    y = convolve(x, d)
    assert np.array_equal(y.multipliers, x.multipliers)
    # identity acts on atoms too
    eq = ZonalObject.equator(3, kmax=12)
    assert np.array_equal(convolve(eq, d).multipliers, eq.multipliers)


def test_convolution_multiplicativity_and_commutativity():
    rng = np.random.default_rng(7)
    x, y, z = (random_density(rng) for _ in range(3))
    assert np.array_equal(convolve(x, y).multipliers, x.multipliers * y.multipliers)
    assert np.array_equal(convolve(x, y).multipliers, convolve(y, x).multipliers)
    a = convolve(convolve(x, y), z).multipliers
    b = convolve(x, convolve(y, z)).multipliers
    assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(a)))


def test_degree_two_self_convolution():
    p2 = ZonalObject.from_coeffs(3, [0, 0, 1.0], kmax=8)
    c = convolve(p2, p2)
    assert c.multipliers[2] == pytest.approx((4 * math.pi / 5) ** 2, rel=1e-12)
    others = np.delete(c.multipliers, 2)
    assert np.max(np.abs(others)) < 1e-12


def test_convolution_dimension_mismatch():
    x = ZonalObject.from_coeffs(3, [1.0])
    y = ZonalObject.from_coeffs(4, [1.0])
    with pytest.raises(ValueError):
        convolve(x, y)


def test_pointwise_convolution_matches_multipliers():
    rng = np.random.default_rng(42)
    s = np.linspace(-0.9, 0.9, 9)
    for n in (3, 4):
        f = ZonalObject.from_coeffs(n, rng.normal(size=7), kmax=10)
        g = ZonalObject.from_coeffs(n, rng.normal(size=7), kmax=10)
        direct = convolve_profiles_pointwise(f, g, s, order=48)
        recon = convolve(f, g).density(s)
        assert np.max(np.abs(direct - recon)) < 1e-10


def test_box_apply_scales_and_kills_degree_one():
    x = ZonalObject.from_coeffs(3, [1.0, 1.0, 1.0, 1.0], kmax=8)
    y = box_n_apply(x)
    w = omega(3)
    a = np.array([w / harmonic_dimension(3, k) for k in range(4)])
    assert y.multipliers[0] == pytest.approx(a[0])
    assert y.multipliers[1] == 0.0
    assert y.multipliers[2] == pytest.approx(-2 * a[2])
    assert y.multipliers[3] == pytest.approx(-5 * a[3])


def test_berg_inversion_multiplier_level():
    rng = np.random.default_rng(0)
    for n in (3, 4):
        x = random_density(rng, n=n)
        x = x.centered()
        g = builtin_zonal(f"berg:{n}", n=n, kmax=x.kmax)
        back = convolve(box_n_apply(x), g)
        assert np.max(np.abs(back.multipliers - x.multipliers)) < 1e-12


def test_box_of_berg_is_centered_dirac():
    for n in (3, 4):
        g = builtin_zonal(f"berg:{n}", n=n, kmax=10)
        t = box_n_apply(g).multipliers
        expect = np.ones(11)
        expect[1] = 0.0
        assert np.max(np.abs(t - expect)) < 1e-12


def test_box_j_equals_box_n_for_native_dimension():
    x = ZonalObject.from_coeffs(3, [0.2, 0.0, 1.0, -0.5], kmax=8)
    a = box_j_apply(x, 3).multipliers
    b = box_n_apply(x).multipliers
    assert np.max(np.abs(a - b)) < 1e-12


def test_box_j_inverts_berg_convolution_lower_dimension():
    # convolve with the re-expanded 2-dimensional Berg kernel, then invert
    rng = np.random.default_rng(5)
    x = random_density(rng).centered()
    g2 = builtin_zonal("berg:2", n=3, kmax=x.kmax)
    y = convolve(x, g2)
    z = box_j_apply(y, 2)
    scale = np.max(np.abs(x.multipliers))
    assert np.max(np.abs(z.multipliers - x.multipliers)) < 1e-10 * scale
    assert z.multipliers[1] == 0.0


def test_box_j_on_pole_dirac_gives_reciprocal_berg():
    d = ZonalObject.dirac_pole(3, kmax=8)
    out = box_j_apply(d, 2)
    _, ambient = berg(2, kmax=8, n=3)
    for k in (0, 2, 5, 8):
        assert out.multipliers[k] == pytest.approx(1.0 / ambient[k], rel=1e-12)


def test_box_j_of_berg_itself_is_centered_dirac():
    # the inverse pair collapses to tau for every kernel dimension
    for j in (2, 3):
        g = builtin_zonal(f"berg:{j}", n=3, kmax=10)
        out = box_j_apply(g, j)
        expect = np.ones(11)
        expect[1] = 0.0
        assert np.max(np.abs(out.multipliers - expect)) < 1e-14


def test_berg_native_expansion_l1_and_ambient_bars():
    bf, ambient = berg(2, kmax=8, n=3)
    assert bf.j == 2
    # analytic value of the ambient degree-0 multiplier: pi^2/4
    assert ambient[0] == pytest.approx(math.pi ** 2 / 4, abs=5e-8)
    assert ambient.error is not None
    assert np.all(ambient.error < 1e-6)
    assert ambient[1] == 0.0


def separate_rule_multipliers(j, n, kmax, degree):
    """Ambient multipliers of the Berg series of dimension j cut at degree,
    on a Gauss-Jacobi rule of its own: how berg formed each of its two
    series before it summed both in one pass."""
    native = [berg_native_multiplier(j, k) for k in range(degree + 1)]
    profile = ZonalPolynomial(j, legendre_coefficients(j, native))
    quad = jacobi_quadrature(n, (degree + kmax) // 2 + 4)
    P = np.array(list(legendre_rows(n, kmax, quad.nodes)))
    return omega(n - 1) * (P @ (quad.weights * profile(quad.nodes)))


@pytest.mark.parametrize("j,kmax,n", [(2, 32, 3), (2, 0, 3), (3, 8, 5), (2, 300, 3)])
def test_berg_bar_is_the_change_of_the_half_series(j, kmax, n):
    _, ambient = berg(j, kmax=kmax, n=n)
    full = separate_rule_multipliers(j, n, kmax, BERG_NATIVE_KMAX)
    half = separate_rule_multipliers(j, n, kmax, max(BERG_NATIVE_KMAX // 2, kmax + 2))
    expect = full.copy()
    if kmax >= 1:
        expect[1] = 0.0
    # the full series as before, bit for bit
    assert np.array_equal(ambient.values, expect)
    # the half series now shares the full rule, which integrates it exactly
    # too: the bar moves by rounding only (about 1e-6 of it where the
    # truncation shows, by 1e-14 absolute where it is at rounding level)
    bar = np.abs(full - half) + 1e-15
    assert np.all(np.abs(ambient.error - bar) <= 1e-5 * bar + 1e-14)


def test_berg_ambient_equals_native_when_j_is_n():
    _, ambient = berg(3, kmax=8, n=3)
    for k in range(9):
        assert ambient[k] == berg_native_multiplier(3, k)
    assert np.all(ambient.error == 0.0)


def test_tau_is_identity_on_centered_objects():
    t = tau(3, kmax=10)
    expect = np.ones(11)
    expect[1] = 0.0
    assert np.array_equal(t.multipliers, expect)
    assert t.check_consistency() < 1e-10
    x = ZonalObject.from_coeffs(3, [0.3, 0.0, 0.7, -0.2], kmax=10)
    y = convolve(x, t)
    assert np.max(np.abs(y.multipliers - x.multipliers)) < 1e-14


def test_approximate_identity_properties():
    h = approximate_identity(64, n=3, kmax=8)
    assert h.total_mass == pytest.approx(1.0, rel=1e-12)
    assert h.multipliers[0] == pytest.approx(1.0, rel=1e-12)
    assert abs(h.multipliers[2] - 1.0) < 1e-2
    # support inside the cap: the profile vanishes below cos(1/64)
    t = np.linspace(-1.0, math.cos(1.0 / 64) - 1e-9, 50)
    assert np.max(np.abs(h.density(t))) == 0.0
    assert np.all(h.density(np.linspace(math.cos(1.0 / 64), 1.0, 50)) >= 0.0)


def test_approximate_identity_recovers_multipliers():
    x = ZonalObject.from_coeffs(3, [0.5, 0.0, -0.8, 0.1], kmax=8)
    prev = math.inf
    for j in (4, 16, 64):
        h = approximate_identity(j, n=3, kmax=8)
        dev = np.max(np.abs(convolve(x, h).multipliers - x.multipliers))
        assert dev < prev
        prev = dev
    assert prev < 1e-2


def test_equator_radon_decay():
    eq = ZonalObject.equator(3, kmax=64)
    assert eq.multipliers[0] == pytest.approx(omega(2), rel=1e-14)
    ks = np.arange(2, 65, 2)
    bound = omega(2) * np.sqrt(2.0 / (np.pi * ks))
    assert np.all(np.abs(eq.multipliers[ks]) <= bound * (1 + 1e-9))
    # odd degrees vanish by symmetry of the equator
    assert np.max(np.abs(eq.multipliers[1::2])) < 1e-15


def test_zonal_coefficient_of_measures():
    quad = jacobi_quadrature(3, 32)
    d = ZonalObject.dirac_pole(3, kmax=8)
    for k in (0, 1, 5):
        assert zonal_coefficient(d, k, quad) == 1.0


def test_multiplier_consistency_invariant():
    rng = np.random.default_rng(9)
    z = ZonalObject(3, atoms=[(0.3, 1.2), (-0.7, 0.4)],
                    coeffs=rng.normal(size=5), kmax=12)
    assert z.check_consistency() < 1e-10


def test_centered_flag_and_projection():
    z = ZonalObject.from_coeffs(3, [0.2, 0.9, 0.1], kmax=8)
    assert not z.is_centered
    zc = z.centered()
    assert zc.is_centered
    assert zc.multipliers[1] == 0.0
    assert zc.multipliers[0] == z.multipliers[0]
    # density representation updated consistently
    assert zc.check_consistency() < 1e-10


def test_centered_atoms_get_compensating_density():
    z = ZonalObject.from_atoms(3, [(0.6, 1.0)], kmax=8)
    zc = z.centered()
    assert zc.multipliers[1] == 0.0
    assert zc.has_density
    assert zc.check_consistency() < 1e-10


def test_box_j_reports_condition_on_tiny_divisors():
    x = ZonalObject.from_coeffs(3, [0.1, 0.0, 0.4], kmax=8)
    with pytest.raises(ZeroDivisionError, match="condition number"):
        box_j_apply(x, 2, rel_tol=1.0)


def test_json_round_trip():
    z = ZonalObject(3, atoms=[(1.0, 0.5), (-0.2, 1.0)], coeffs=[0.1, 0.0, 0.3], kmax=10)
    z2 = ZonalObject.from_json(z.to_json(), kmax=10)
    assert np.max(np.abs(z.multipliers - z2.multipliers)) < 1e-14
    assert z.to_json() == z2.to_json()


def test_json_round_trip_profile_backed():
    z = ZonalObject.abs_half(3, kmax=16)
    z2 = ZonalObject.from_json(z.to_json(), kmax=16)
    assert np.max(np.abs(z.multipliers - z2.multipliers)) < 1e-10


def test_profile_objects_report_tail_mass():
    # |t|/2 has a slowly decaying expansion: the discarded tail is reported
    z = ZonalObject.abs_half(3, kmax=16)
    assert z.tail_l2 > 0
    # a band-limited profile discards nothing
    p = ZonalPolynomialProxy()
    zp = ZonalObject.from_profile(3, p, kmax=16)
    assert zp.tail_l2 < 1e-12


class ZonalPolynomialProxy:
    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return 0.3 + 0.5 * t * t


def test_builtins():
    d = builtin_zonal("dirac_pole")
    assert d.is_pole_dirac
    eq = builtin_zonal("equator")
    assert eq.atoms == [(0.0, omega(2))]
    ah = builtin_zonal("abs_half")
    assert ah.multipliers[0] == pytest.approx(math.pi, rel=1e-12)
    c = builtin_zonal("const:2.5")
    assert c.total_mass == pytest.approx(2.5 * omega(3), rel=1e-12)
    with pytest.raises(KeyError):
        builtin_zonal("nope")


def test_atom_position_validation():
    with pytest.raises(ValueError):
        ZonalObject(3, atoms=[(1.5, 1.0)])
