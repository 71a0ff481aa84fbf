"""Legendre rows, quadrature, zonal calculus, and the regularity probe."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.special import eval_gegenbauer

from minkval import harmonics
from minkval.constants import CHUNK_BYTES, omega
from minkval.harmonics import (
    CK_GRID,
    FLUX_QUAD_ORDER,
    InsufficientQuadratureError,
    ZonalPolynomial,
    ZonalProfile,
    boundary_flux,
    harmonic_dimension,
    jacobi_quadrature,
    _ck_grid,
    legendre_rows,
    regularity_probe,
    zonal_ck_norm,
    zonal_coefficient,
    zonal_laplacian,
)


def gegenbauer_oracle(n, k, t):
    """Independent evaluation of P_k^n through scipy's Gegenbauer polynomials
    (lambda = (n-2)/2), normalized to 1 at t = 1."""
    lam = (n - 2) / 2.0
    return eval_gegenbauer(k, lam, t) / eval_gegenbauer(k, lam, 1.0)


def test_harmonic_dimension_values():
    assert harmonic_dimension(3, 1) == 3
    assert harmonic_dimension(3, 0) == 1
    assert harmonic_dimension(4, 2) == 9
    # n = 3 closed form 2k+1
    for k in range(10):
        assert harmonic_dimension(3, k) == 2 * k + 1


def test_harmonic_dimension_growth():
    # O(k^(n-2)): the ratio N(n,k)/k^(n-2) stabilizes
    for n in (3, 4, 5):
        r1 = harmonic_dimension(n, 200) / 200 ** (n - 2)
        r2 = harmonic_dimension(n, 400) / 400 ** (n - 2)
        assert abs(r1 / r2 - 1.0) < 0.02


def test_harmonic_dimension_rejects_negative():
    with pytest.raises(ValueError):
        harmonic_dimension(3, -1)


def gegenbauer_derivatives_oracle(n, k, t):
    """P_k^n' and P_k^n'' through d/dt C_k^lam = 2 lam C_{k-1}^(lam+1)."""
    lam = (n - 2) / 2.0
    scale = eval_gegenbauer(k, lam, 1.0)
    d1 = 2 * lam * eval_gegenbauer(k - 1, lam + 1, t) / scale if k >= 1 else 0 * t
    d2 = 4 * lam * (lam + 1) * eval_gegenbauer(k - 2, lam + 2, t) / scale if k >= 2 else 0 * t
    return d1, d2


def reference_table(n, kmax, t):
    """P_k, P_k' and P_k'' of all degrees at once as (kmax+1, len(t)) tables,
    by the recurrence written out row by row: the arithmetic that
    legendre_rows streams, so its rows must equal these bit for bit."""
    m = t.shape[0]
    P, dP, d2P = np.zeros((kmax + 1, m)), np.zeros((kmax + 1, m)), np.zeros((kmax + 1, m))
    P[0] = 1.0
    if kmax >= 1:
        P[1] = t
        dP[1] = 1.0
    for k in range(1, kmax):
        a, c = 2 * k + n - 2, k + n - 2
        P[k + 1] = (a * t * P[k] - k * P[k - 1]) / c
        dP[k + 1] = (a * (P[k] + t * dP[k]) - k * dP[k - 1]) / c
        d2P[k + 1] = (a * (2.0 * dP[k] + t * d2P[k]) - k * d2P[k - 1]) / c
    return P, dP, d2P


@pytest.mark.parametrize("n", [3, 4, 5])
def test_legendre_matches_gegenbauer(n):
    t = np.linspace(-1, 1, 41)
    rows = list(legendre_rows(n, 20, t))
    for k in (0, 1, 2, 5, 11, 20):
        assert np.max(np.abs(rows[k] - gegenbauer_oracle(n, k, t))) < 1e-10


def test_legendre_point_values():
    assert list(legendre_rows(3, 8, 0.0))[2] == pytest.approx(-0.5, abs=1e-14)
    assert all(pk == 1.0 for pk in legendre_rows(3, 8, 1.0))
    _, (p1, d1, d2) = legendre_rows(3, 1, 0.3, derivatives=True)
    assert (p1, d1, d2) == (0.3, 1.0, 0.0)


def test_legendre_recurrence_residual():
    # values plugged back into the three-term recurrence
    n, kmax = 4, 16
    t = np.linspace(-1, 1, 101)
    P = list(legendre_rows(n, kmax, t))
    for k in range(1, kmax):
        lhs = (k + n - 2) * P[k + 1]
        rhs = (2 * k + n - 2) * t * P[k] - k * P[k - 1]
        assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("n,kmax", [(3, 0), (3, 1), (3, 32), (5, 12)])
def test_streamed_legendre_rows_match_the_table(n, kmax):
    t = np.linspace(-1, 1, 257)
    table = reference_table(n, kmax, t)
    rows = list(legendre_rows(n, kmax, t))
    triples = list(legendre_rows(n, kmax, t, derivatives=True))
    assert len(rows) == len(triples) == kmax + 1
    assert np.array_equal(np.array(rows), table[0])
    for d in range(3):
        assert np.array_equal(np.array([row[d] for row in triples]), table[d])
    coeffs = np.random.default_rng(n + kmax).standard_normal(kmax + 1)
    f = ZonalPolynomial(n, coeffs)
    assert np.allclose(f(t), coeffs @ table[0], rtol=0, atol=1e-13)
    for d in (1, 2):
        table_sum = coeffs @ table[d]
        assert np.allclose(f(t, d), table_sum, rtol=0, atol=1e-13 * np.max(np.abs(table_sum)))
    assert f(1.0) == pytest.approx(coeffs.sum(), abs=1e-13)
    assert np.array_equal(f(t.reshape(1, 257), 2), f(t, 2).reshape(1, 257))


@pytest.mark.parametrize("n", [3, 4, 7])
def test_zonal_polynomial_values_do_not_depend_on_the_other_points(n):
    # the derivatives were a BLAS product over a (degree, len(t)) table,
    # whose last bits changed with len(t)
    t = np.concatenate(([-1.0], _ck_grid(CK_GRID), [1.0]))
    rng = np.random.default_rng(n)
    for _ in range(20):
        f = ZonalPolynomial(n, rng.normal(size=9))
        for d in (0, 1, 2):
            assert np.array_equal(f(t, d)[1:-1], f(t[1:-1], d))
        assert all(np.array_equal(a[1:-1], b)
                   for a, b in zip(f.derivatives(t), f.derivatives(t[1:-1])))


def test_zonal_polynomial_input_checks():
    # n = 2 is admitted for the Berg kernels of low dimension
    assert ZonalPolynomial(2, [0.0, 1.0])(0.25) == 0.25
    with pytest.raises(ValueError, match="n >= 2"):
        ZonalPolynomial(1, [1.0])
    for coeffs in ([], [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="non-empty"):
            ZonalPolynomial(3, coeffs)
    with pytest.raises(ValueError, match="deriv"):
        ZonalPolynomial(3, [1.0, 2.0])(0.5, 3)


def test_legendre_bounded_on_interval():
    for n in (3, 5):
        t = np.linspace(-1, 1, 501)
        assert np.max(np.abs(list(legendre_rows(n, 32, t)))) <= 1.0 + 1e-12


@pytest.mark.parametrize("n,k", [(3, 3), (4, 7), (5, 12)])
def test_legendre_derivatives_match_finite_differences(n, k):
    h = 1e-5
    t = np.linspace(-0.9, 0.9, 25)
    *_, (p, d1, d2) = legendre_rows(n, k, t, derivatives=True)
    *_, p_plus = legendre_rows(n, k, t + h)
    *_, p_minus = legendre_rows(n, k, t - h)
    ref1, ref2 = gegenbauer_derivatives_oracle(n, k, t)
    assert np.max(np.abs(d1 - ref1)) < 1e-11 * max(1.0, np.max(np.abs(ref1)))
    assert np.max(np.abs(d2 - ref2)) < 1e-11 * max(1.0, np.max(np.abs(ref2)))
    fd1 = (p_plus - p_minus) / (2 * h)
    assert np.max(np.abs(d1 - fd1)) < 1e-4 * max(1.0, np.max(np.abs(d1)))
    fd2 = (p_plus - 2 * p + p_minus) / h ** 2
    assert np.max(np.abs(d2 - fd2)) < 1e-3 * max(1.0, np.max(np.abs(d2)))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_quadrature_total_weight(n):
    quad = jacobi_quadrature(n, 48)
    target = scipy_quad(lambda t: (1 - t * t) ** ((n - 3) / 2), -1, 1)[0]
    assert quad.weights.sum() == pytest.approx(target, rel=1e-12)
    assert quad.weights.sum() == pytest.approx(omega(n) / omega(n - 1), rel=1e-12)
    assert np.all(quad.weights > 0)
    assert np.all(np.abs(quad.nodes) < 1.0)


def test_zonal_coefficient_of_constant_is_sphere_area():
    quad = jacobi_quadrature(3, 48)
    one = ZonalPolynomial(3, [1.0])
    assert zonal_coefficient(one, 0, quad) == pytest.approx(4 * math.pi, rel=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_zonal_coefficient_orthogonality(n):
    quad = jacobi_quadrature(n, 64)
    for k in (0, 1, 2, 4, 7):
        pk = ZonalPolynomial(n, [0.0] * k + [1.0])
        for j in range(9):
            val = zonal_coefficient(pk, j, quad)
            if j == k:
                assert val == pytest.approx(omega(n) / harmonic_dimension(n, k), rel=1e-11)
            else:
                assert abs(val) < 1e-10


def test_zonal_coefficient_against_scipy_quad():
    # non-polynomial profile: independent adaptive quadrature oracle
    quad = jacobi_quadrature(3, 96)
    prof = ZonalProfile(lambda t: np.exp(0.7 * t))
    for k in (0, 1, 3):
        oracle = 2 * math.pi * scipy_quad(
            lambda t: math.exp(0.7 * t) * gegenbauer_oracle(3, k, t), -1, 1)[0]
        assert zonal_coefficient(prof, k, quad) == pytest.approx(oracle, rel=1e-9)


def test_zonal_coefficient_insufficient_order_reported():
    quad = jacobi_quadrature(3, 4)
    p = ZonalPolynomial(3, [0.0] * 8 + [1.0])
    with pytest.raises(InsufficientQuadratureError):
        zonal_coefficient(p, 8, quad)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_laplacian_eigenvalues(n):
    t = np.linspace(-0.999, 0.999, 201)
    for k in range(21):
        pk = ZonalPolynomial(n, [0.0] * k + [1.0])
        res = zonal_laplacian(pk, t, n) + k * (k + n - 2) * pk(t)
        assert np.max(np.abs(res)) < 1e-9


def test_laplacian_point_examples():
    p2 = ZonalPolynomial(3, [0, 0, 1.0])
    assert zonal_laplacian(p2, np.array([0.5]), 3)[0] == pytest.approx(0.75, abs=1e-12)
    const = ZonalPolynomial(4, [2.5])
    assert np.all(zonal_laplacian(const, np.linspace(-1, 1, 11), 4) == 0)
    lin = ZonalPolynomial(3, [0.0, 1.0])
    t = np.linspace(-1, 1, 11)
    assert np.max(np.abs(zonal_laplacian(lin, t, 3) + 2 * t)) < 1e-14


def test_green_symmetry():
    # int (f Lap g - g Lap f) dS = 0 for smooth zonal pairs
    quad = jacobi_quadrature(3, 64)
    rng = np.random.default_rng(3)
    for _ in range(5):
        f = ZonalPolynomial(3, rng.normal(size=7))
        g = ZonalPolynomial(3, rng.normal(size=9))
        vals = (f(quad.nodes) * zonal_laplacian(g, quad.nodes, 3)
                - g(quad.nodes) * zonal_laplacian(f, quad.nodes, 3))
        assert abs(quad.integrate(vals)) < 1e-10


def test_ck_norms_of_legendre_degree_two():
    p2 = ZonalPolynomial(3, [0, 0, 1.0])
    assert zonal_ck_norm(p2, 0, 3) == pytest.approx(1.0, abs=1e-9)
    assert zonal_ck_norm(p2, 1, 3) == pytest.approx(2.5, abs=1e-6)
    assert zonal_ck_norm(p2, 2, 3) == pytest.approx(2.5 + 3 * math.sqrt(2), abs=1e-6)


def test_ck_norm_rejects_coarse_grid():
    p2 = ZonalPolynomial(3, [0, 0, 1.0])
    with pytest.raises(ValueError):
        zonal_ck_norm(p2, 0, 3, resolution=100)


def test_regularity_probe_legendre_ratio():
    p2 = ZonalPolynomial(3, [0, 0, 1.0])
    rep = regularity_probe([p2], 3, q=2)
    # box multiplier at degree 2 is -2, so the C0 norm of box f is 2
    assert rep["operator"] == "box"
    assert rep["ratios"][0] == pytest.approx((2.5 + 3 * math.sqrt(2)) / 2.0, abs=1e-5)
    assert abs(rep["flux_residuals"][0]) < 1e-12


def test_regularity_probe_flux_identity_random():
    rng = np.random.default_rng(11)
    profiles = []
    for _ in range(10):
        c = rng.normal(size=6)
        c[1] = 0.0
        profiles.append(ZonalPolynomial(3, c))
    rep = regularity_probe(profiles, 3)
    assert rep["max_flux_residual"] < 1e-10
    assert all(np.isfinite(rep["ratios"]))
    assert rep["rejected"] == []


def test_regularity_probe_rejects_uncentered():
    bad = ZonalPolynomial(3, [0.0, 1.0, 0.5])
    rep = regularity_probe([bad], 3)
    assert len(rep["rejected"]) == 1
    assert rep["rejected"][0]["index"] == 0 and rep["rejected"][0]["reason"] == "uncentred"
    assert rep["ratios"] == []


def test_regularity_probe_general_q():
    p3 = ZonalPolynomial(3, [0, 0, 0, 1.0])
    rep = regularity_probe([p3], 3, q=-1.0)
    # D_{-1} on degree 3: eigenvalue -(12 + 1) = -13, so ratio = C2 / 13
    c2 = zonal_ck_norm(p3, 2, 3)
    assert rep["operator"] == "D_q"
    assert rep["ratios"][0] == pytest.approx(c2 / 13.0, rel=1e-9)


def test_regularity_probe_rejects_annihilated_profiles():
    # D_0 = Lap maps the constants to 0: no ratio, an entry in rejected
    const = ZonalPolynomial(3, [0.7])
    rep = regularity_probe([const, ZonalPolynomial(3, [0, 0, 1.0]), const], 3, q=0)
    assert rep["rejected"] == [{"index": 0, "reason": "annihilated"},
                               {"index": 2, "reason": "annihilated"}]
    assert len(rep["ratios"]) == len(rep["flux_residuals"]) == 1
    rep = regularity_probe([const, const], 3, q=0.0)
    assert rep["ratios"] == [] and rep["sup_ratio"] is None
    assert [r["index"] for r in rep["rejected"]] == [0, 1]


def probe_one_at_a_time(profiles, n, q):
    """regularity_probe's ratios, flux residuals and rejected indices from
    the single-profile functions."""
    quad = jacobi_quadrature(n, FLUX_QUAD_ORDER)
    t = np.concatenate(([-1.0], _ck_grid(CK_GRID), [1.0]))
    ratios, fluxes, rejected = [], [], []
    for idx, f in enumerate(profiles):
        lap = zonal_laplacian(f, t, n)
        if q is None:
            if abs(zonal_coefficient(f, 1, quad, n)) > 1e-8 * omega(n):
                rejected.append(idx)
                continue
            image = f(t) + lap / (n - 1)
        else:
            image = lap + q * f(t)
        ratios.append(zonal_ck_norm(f, 2, n) / float(np.max(np.abs(image))))
        fluxes.append(boundary_flux(f, n, quad))
    return ratios, fluxes, rejected


@pytest.mark.parametrize("q", [None, -1.0])
@pytest.mark.parametrize("rows", [None, 3])
def test_regularity_probe_blocks_give_the_bits_of_single_profiles(monkeypatch, q, rows):
    # mixed degrees in a block, block boundaries inside the list (blocks of
    # 5 at the shipped CHUNK_BYTES, or of `rows`), an uncentred profile in
    # the middle; equality, no tolerance
    if rows is not None:
        monkeypatch.setattr(harmonics, "CHUNK_BYTES",
                            rows * harmonics._BLOCK_ARRAYS * 8 * CK_GRID)
    rng = np.random.default_rng(17)
    profiles = []
    for idx in range(13):
        c = rng.normal(size=2 + idx % 7)
        c[1] = 0.0 if idx != 6 else 0.5
        profiles.append(ZonalPolynomial(4, c))
    ratios, fluxes, rejected = probe_one_at_a_time(profiles, 4, q)
    rep = regularity_probe(profiles, 4, q=q)
    assert rep["ratios"] == ratios
    assert rep["flux_residuals"] == fluxes
    assert [r["index"] for r in rep["rejected"]] == rejected
    assert rejected == ([6] if q is None else [])


def test_regularity_probe_memory_is_bounded():
    # blocks of about CHUNK_BYTES of values, whatever the count or the degree
    def peak(samples, band):
        rng = np.random.default_rng(5)
        profiles = [ZonalPolynomial(3, np.r_[rng.normal(), 0.0, rng.normal(size=band - 1)])
                    for _ in range(samples)]
        tracemalloc.start()
        try:
            regularity_probe(profiles, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(500, 8) <= 1.1 * peak(50, 8)
    assert peak(12, 190) < 3 * CHUNK_BYTES


def test_boundary_flux_vanishes_for_higher_dim():
    quad = jacobi_quadrature(5, 64)
    f = ZonalPolynomial(5, [0.3, 0.0, 1.0, -0.4])
    assert abs(boundary_flux(f, 5, quad)) < 1e-12
