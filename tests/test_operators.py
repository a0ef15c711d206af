import math
import pickle
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

import bohrkit
from bohrkit.errors import BohrkitError, DomainError, NumericalError, PreconditionError
from bohrkit.extremal import (ExtremalParams, _first_order, bernardi_extremal_decomposition,
                              bernardi_first_order_factor, cesaro_extremal_decomposition,
                              cesaro_first_order_factor, remainder_order_check,
                              sharpness_scan_bernardi, sharpness_scan_cesaro)
from bohrkit.operators import (BernardiParams, bernardi_majorant,
                               bernardi_transform, cesaro_majorant,
                               cesaro_transform, lerch_tail_sum)
from bohrkit.radii import bernardi_radius, bernardi_radius_classic, cesaro_radius, log_bound
from bohrkit.lerch import UNDERFLOW
from bohrkit.series import (UNIT_ROUNDOFF, DomainGamma, SchurSampleSpec,
                            TruncatedPowerSeries, blaschke_coeffs, lemma1_check,
                            majorant_eval, polynomial, sample_schur_omega, truncation_order)
from oracles import _quad_complex, bernardi_integral_oracle, cesaro_integral_oracle, mp_tail_sum

TWO_LN2 = 2.0 * math.log(2.0)


def random_polynomial(rng, degree=12):
    coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    coeffs /= np.max(np.abs(coeffs))
    return polynomial(coeffs)


# ----------------------------------------------------------- cesaro transform

def test_cesaro_transform_of_constant():
    out = cesaro_transform(polynomial([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(out.coeffs, [1.0, 1 / 2, 1 / 3, 1 / 4], rtol=0, atol=0)


def test_cesaro_transform_of_shifted_monomial():
    out = cesaro_transform(polynomial([0.0, 1.0, 0.0, 0.0]))
    assert np.allclose(out.coeffs, [0.0, 1 / 2, 1 / 3, 1 / 4], rtol=0, atol=0)


def test_cesaro_transform_prefix_sums():
    out = cesaro_transform(polynomial([1.0, 2.0, 3.0, 0.0, 0.0]))
    assert np.allclose(out.coeffs, [1.0, 3 / 2, 2.0, 6 / 4, 6 / 5], rtol=0, atol=1e-15)


def test_cesaro_transform_linearity():
    rng = np.random.default_rng(31)
    s = rng.normal(size=10) + 1j * rng.normal(size=10)
    t = rng.normal(size=10) + 1j * rng.normal(size=10)
    alpha = 0.7 - 1.3j
    combined = cesaro_transform(polynomial(alpha * s + t)).coeffs
    separate = (alpha * cesaro_transform(polynomial(s)).coeffs
                + cesaro_transform(polynomial(t)).coeffs)
    scale = np.max(np.abs(separate))
    assert np.max(np.abs(combined - separate)) <= 1e-14 * scale


def test_cesaro_transform_schur_tail_capped():
    s = blaschke_coeffs([0.5, 0.2j], 1.0, 32)
    out = cesaro_transform(s)
    assert out.tail_bound == 1.0
    assert np.max(np.abs(out.coeffs)) <= 1.0 + 1e-12


def test_cesaro_transform_tail_capped_by_largest_coefficient():
    # Every average of coefficients bounded by 0.5 is bounded by 0.5; the
    # tail was 0.5 + 5/11 without a Schur flag.
    out = cesaro_transform(TruncatedPowerSeries([0.5] * 10, 0.5))
    assert out.tail_bound == 0.5


def test_transforms_divide_real_and_imaginary_parts_exactly():
    # numpy's complex division multiplies by a rounded reciprocal, which put
    # about a quarter of the parts 1 ulp away from the correctly rounded
    # quotient.
    rng = np.random.default_rng(5)
    a = rng.normal(size=200) + 1j * rng.normal(size=200)
    n = np.arange(200)
    ces = cesaro_transform(polynomial(a)).coeffs
    assert np.array_equal(ces.real, np.cumsum(a.real) / (n + 1))
    assert np.array_equal(ces.imag, np.cumsum(a.imag) / (n + 1))
    ber = bernardi_transform(polynomial(a), BernardiParams(0.3, 0)).coeffs
    assert np.array_equal(ber.real, 1.3 * a.real / (0.3 + n))
    assert np.array_equal(ber.imag, 1.3 * a.imag / (0.3 + n))


# ------------------------------------------------------------ cesaro majorant

def test_cesaro_majorant_of_constant_function():
    s = polynomial([1.0]).padded(truncation_order(0.5))
    value, error = cesaro_majorant(s, 0.5)
    assert value == pytest.approx(TWO_LN2, abs=1e-10)
    assert error < 1e-12


def test_cesaro_majorant_of_zero_series():
    for r in (0.0, 0.3, 0.9):
        value, error = cesaro_majorant(polynomial([0.0, 0.0]), r)
        assert value == 0.0 and error == 0.0


def test_cesaro_majorant_rejects_bad_radius():
    with pytest.raises(DomainError):
        cesaro_majorant(polynomial([1.0]), 1.0)


def test_cesaro_majorant_is_the_real_weighted_sum():
    # The majorant of the Cesaro transform of |a_n| gives the same doubles
    # as summing the averaged weights in real arithmetic.
    rng = np.random.default_rng(9)
    s = TruncatedPowerSeries(rng.normal(size=80) + 1j * rng.normal(size=80), 0.4)
    mags = np.abs(s.coeffs)
    weights = np.cumsum(mags) / np.arange(1, 81)
    value, error = cesaro_majorant(s, 0.7)
    assert value == math.fsum(weights * np.power(0.7, np.arange(80)))
    tail = (math.fsum(mags) / 81 + 0.4) * 0.7 ** 80 / (1.0 - 0.7)
    # tail, the sum's rounding (18u) and the transform's ((N + 9)u, N = 79)
    assert error == tail + 18.0 * UNIT_ROUNDOFF * value + 88 * UNIT_ROUNDOFF * value


def test_cesaro_below_radius_bound_on_samples():
    # Schur samples keep the averaged majorant under (1/r)ln(1/(1-r)) below
    # the operator radius.
    import bohrkit
    for gamma in (0.0, 0.4):
        dg = DomainGamma(gamma)
        r = 0.99 * bohrkit.cesaro_radius(dg).value
        n_out = truncation_order(r)
        for seed in range(10):
            s = sample_schur_omega(SchurSampleSpec(seed % 4, 7000 + seed, dg), n_out)
            value, error = cesaro_majorant(s, r)
            assert value <= log_bound(r) + 10.0 * error


# ------------------------------------------------- tanh-sinh quadrature

@pytest.mark.parametrize("e", [0.05, 0.5, 1.5, 2.5])
def test_quad_complex_power_integrals(e):
    # int_0^1 t^(e-1) dt = 1/e; below e = 1 the endpoint t = 0 is singular.
    assert _quad_complex(lambda t: t ** (e - 1.0), "power") == pytest.approx(1.0 / e, rel=1e-13)


@pytest.mark.parametrize("z", [0.99, 0.9j])
def test_quad_complex_cesaro_integral_of_one(z):
    # int_0^1 dt/(1 - tz) = -log(1 - z)/z.
    val = _quad_complex(lambda t: 1.0 / (1.0 - t * z), "cesaro")
    assert abs(val - (-np.log(1.0 - z) / z)) <= 1e-13 * abs(val)


def test_quad_complex_refuses_non_integrable():
    # 1/t is not integrable at 0: its terms have not decayed where the rule
    # is cut off, so the sum is not the integral at any step.
    with pytest.raises(NumericalError, match="^reciprocal: tanh-sinh quadrature did not converge"):
        _quad_complex(lambda t: 1.0 / t, "reciprocal")


# ----------------------------------------------------- cesaro integral oracle

def test_cesaro_integral_of_constant():
    s = polynomial([1.0])
    assert cesaro_integral_oracle(s, 0.5) == pytest.approx(TWO_LN2, abs=1e-10)
    assert cesaro_integral_oracle(s, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_cesaro_integral_of_cubic_monomial():
    s = polynomial([0.0, 0.0, 0.0, 1.0])
    n = truncation_order(0.6, 1.0, 1e-15)
    ns = np.arange(3, n + 1)
    expected = math.fsum(np.power(0.6, ns) / (ns + 1.0))
    assert cesaro_integral_oracle(s, 0.6) == pytest.approx(expected, abs=1e-12)


def test_cesaro_integral_rejects_outside_disk():
    with pytest.raises(DomainError):
        cesaro_integral_oracle(polynomial([1.0]), 1.0 + 0j)


def test_cesaro_series_integral_equivalence():
    rng = np.random.default_rng(41)
    pad_to = truncation_order(0.85)
    for _ in range(10):
        poly = random_polynomial(rng)
        transformed = cesaro_transform(poly.padded(pad_to))
        for _ in range(5):
            z = 0.8 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            assert abs(cesaro_integral_oracle(poly, z)
                       - transformed.eval(z)) <= 1e-8


# --------------------------------------------------------- bernardi transform

def test_bernardi_transform_of_constant():
    out = bernardi_transform(polynomial([1.0, 0.0]), BernardiParams(1.0, 0))
    assert out.coeffs[0] == pytest.approx(2.0)
    assert out.coeffs[1] == 0.0


def test_bernardi_transform_of_monomial():
    out = bernardi_transform(polynomial([0.0, 1.0, 0.0]), BernardiParams(2.0, 1))
    assert out.coeffs == pytest.approx((0.0, 1.0, 0.0))


def test_bernardi_transform_matches_integral_oracle():
    rng = np.random.default_rng(43)
    p = BernardiParams(0.5, 0)
    poly = random_polynomial(rng)
    out = bernardi_transform(poly, p)
    for _ in range(50):
        z = 0.8 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        assert abs(bernardi_integral_oracle(poly, z, p) - out.eval(z)) <= 1e-9


def test_bernardi_transform_preconditions():
    with pytest.raises(PreconditionError):
        bernardi_transform(polynomial([0.1, 1.0]), BernardiParams(1.0, 1))
    with pytest.raises(DomainError):
        BernardiParams(-1.0, 1)
    with pytest.raises(DomainError):
        BernardiParams(0.5, -2)


@pytest.mark.parametrize("beta,m,coeffs", [
    (-1.5, 2, [0.0, 0.0, 1.0, 0.5]), (-1.5, 2, [0.0, 0.0]), (-2.5, 3, [0.0, 0.0, 0.0, 1.0]),
    (-0.5, 1, [0.0, 1.0]), (2.0, 0, [1.0, 0.5, 0.25]),
])
def test_bernardi_transform_tail_bounds_every_omitted_coefficient(beta, m, coeffs):
    # An omitted a_n, n > order, is at most B in modulus, so its image is at
    # most |1+beta| B/(beta+n); for beta < -1 the prefactor is negative.
    out = bernardi_transform(TruncatedPowerSeries(coeffs, 0.2), BernardiParams(beta, m))
    n = np.arange(max(len(coeffs), m), 10000)
    assert out.tail_bound >= np.max(abs(1.0 + beta) * 0.2 / (beta + n))


def test_bernardi_params_is_a_validating_named_tuple():
    # Defined beside DomainGamma, where radii.bernardi_radius_classic builds
    # one too: beta > -m is checked in that one place.
    p = BernardiParams(2.0, 1)
    assert p == (2.0, 1) == BernardiParams(beta=2.0, m=1)
    assert BernardiParams(2.0) == (2.0, 0)
    assert bohrkit.BernardiParams is BernardiParams is bohrkit.lerch.BernardiParams
    with pytest.raises(DomainError, match=r"^beta must exceed -m, got beta=-1\.5, m=1$"):
        p._replace(beta=-1.5)
    with pytest.raises(DomainError, match="^m must be a nonnegative integer, got -2$"):
        p._replace(m=-2)
    # A NaN beta said "beta must be a finite real" here, but "beta must
    # exceed -m" in bernardi_radius_classic.
    with pytest.raises(DomainError, match="^beta must exceed -m, got nan$"):
        BernardiParams(math.nan, 1)


def test_bernardi_params_rejects_m_beyond_the_double_range():
    # Such an m was accepted, and m + beta raised OverflowError in the
    # classic radius and the transform.
    largest = int(sys.float_info.max)
    assert BernardiParams(1.0, largest).m == largest
    for m in (largest + 1, 10 ** 400):
        with pytest.raises(DomainError, match="^m must lie within the double range, got "
                                              "an integer of [0-9]+ bits$"):
            BernardiParams(1.0, m)
    with pytest.raises(DomainError, match="^m must lie within the double range"):
        bernardi_radius_classic(1.0, 10 ** 400)


# ---------------------------------------------------------- bernardi majorant

def test_bernardi_majorant_single_term():
    value, error = bernardi_majorant(polynomial([1.0]), BernardiParams(2.0, 0), 0.7)
    # No tail; the rounding of the sum (18u) and of the transform (12u).
    assert value == 0.5
    assert error == 18.0 * UNIT_ROUNDOFF * 1.5 / 3.0 + 12.0 * UNIT_ROUNDOFF * 0.5


def test_bernardi_majorant_geometric_ones():
    n = truncation_order(0.5)
    s = TruncatedPowerSeries((1.0,) * (n + 1), 1.0)
    value, error = bernardi_majorant(s, BernardiParams(1.0, 0), 0.5)
    assert value == pytest.approx(TWO_LN2, abs=1e-10)
    assert error < 1e-12


def test_bernardi_majorant_needs_positive_beta():
    with pytest.raises(DomainError):
        bernardi_majorant(polynomial([0.0, 1.0]), BernardiParams(-0.5, 1), 0.3)


def test_bernardi_majorant_needs_m_zero():
    # m was ignored: the m = 0 value (0.41667, 1.4e-15) came back for a
    # series that bernardi_transform rejects for m = 1.
    with pytest.raises(DomainError, match="^the Bernardi majorant normalization needs m = 0"):
        bernardi_majorant(polynomial([0.5, 1.0]), BernardiParams(2.0, 1), 0.5)


def exact_polynomial(rng, size):
    """Random real coefficients, so that |a_n| is exact, with their Fractions."""
    coeffs = rng.normal(size=size)
    return polynomial(coeffs), [abs(Fraction(float(c))) for c in coeffs]


def test_bernardi_majorant_error_covers_rounding_against_exact_sums():
    # On a polynomial the error is rounding alone.  1/3 is not a double:
    # the first case once returned error 0 at 1.9e-17 from it.
    cases = [(polynomial([1.0]), [Fraction(1)], 3.0, 0.5)]
    rng = np.random.default_rng(43)
    for _ in range(60):
        s, moduli = exact_polynomial(rng, int(rng.integers(1, 100)))
        beta, r = float(rng.uniform(0.05, 20.0)), float(rng.uniform(0.0, 0.99))
        cases.append((s, moduli, beta, r))
    for s, moduli, beta, r in cases:
        value, error = bernardi_majorant(s, BernardiParams(beta), r)
        exact = sum(m * Fraction(r) ** n / (n + Fraction(beta)) for n, m in enumerate(moduli))
        assert abs(Fraction(value) - exact) <= Fraction(error)
        assert error <= 31.0 * UNIT_ROUNDOFF * value


def test_cesaro_majorant_error_covers_rounding_against_exact_sums():
    # At these r the tail bound is below 1e-24, so the error is almost all
    # rounding; the exact sum is that of the stored terms.
    rng = np.random.default_rng(47)
    for _ in range(60):
        s, moduli = exact_polynomial(rng, int(rng.integers(24, 100)))
        r = float(rng.uniform(0.0, 0.1))
        value, error = cesaro_majorant(s, r)
        partial, exact = Fraction(0), Fraction(0)
        for n, m in enumerate(moduli):
            partial += m
            exact += partial / (n + 1) * Fraction(r) ** n
        assert abs(Fraction(value) - exact) <= Fraction(error)


# --------------------------------------------------- bernardi integral oracle

@pytest.mark.parametrize("m,beta", [(0, 1.0), (0, 0.5), (1, 2.0), (2, 0.5), (1, -0.5)])
def test_bernardi_integral_of_monomial(m, beta):
    coeffs = [0.0] * m + [1.0]
    s = polynomial(coeffs)
    p = BernardiParams(beta, m)
    for z in (0.4, 0.3 - 0.5j):
        expected = (1.0 + beta) * z ** m / (m + beta)
        assert bernardi_integral_oracle(s, z, p) == pytest.approx(expected, abs=1e-10)


def test_bernardi_integral_of_constant():
    val = bernardi_integral_oracle(polynomial([1.0]), 0.4, BernardiParams(1.0, 0))
    assert val == pytest.approx(2.0, abs=1e-10)


def test_bernardi_integral_at_origin_conventions():
    assert bernardi_integral_oracle(polynomial([1.0]), 0.0, BernardiParams(1.0, 0)) == 2.0
    assert bernardi_integral_oracle(polynomial([0.0, 1.0]), 0.0, BernardiParams(1.0, 1)) == 0.0


def test_bernardi_integral_matches_series_for_blaschke_sample():
    s = blaschke_coeffs([0.5, -0.2 + 0.3j], np.exp(0.4j), truncation_order(0.5, 1.0, 1e-14))
    p = BernardiParams(0.5, 0)
    out = bernardi_transform(s, p)
    z = 0.3 + 0.2j
    assert abs(bernardi_integral_oracle(s, z, p) - out.eval(z)) <= 1e-8


def test_bernardi_series_integral_equivalence_across_betas():
    rng = np.random.default_rng(47)
    for beta in (0.5, 1.0, 2.0, 5.0):
        p = BernardiParams(beta, 0)
        poly = random_polynomial(rng)
        out = bernardi_transform(poly, p)
        for _ in range(5):
            z = 0.8 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            assert abs(bernardi_integral_oracle(poly, z, p) - out.eval(z)) <= 1e-8


# -------------------------------------------------------------------- bounds

def test_log_bound_values():
    assert log_bound(0.0) == 1.0
    assert log_bound(0.5) == pytest.approx(TWO_LN2, rel=1e-15)
    assert log_bound(1e-6) == pytest.approx(1.0 + 5e-7, abs=1e-12)


def test_log_bound_series_branch_is_continuous():
    # One formula on both sides of 1e-4: no seam.
    below, above = log_bound(1e-4 * (1 - 1e-12)), log_bound(1e-4)
    assert abs(below - above) < 1e-14


@pytest.mark.parametrize("r", (5e-324, 1e-310, 1e-200, 1e-20, 1e-8, 3e-5, 1e-4, 0.3))
def test_log_bound_accurate_at_small_radii(r):
    # log1p leaves no cancellation at small r: the plain form is within 2u.
    with mp.workdps(60):
        x = mp.mpf(r)
        reference = -mp.log1p(-x) / x
        assert abs(mp.mpf(log_bound(r)) - reference) <= 2 * UNIT_ROUNDOFF * reference


def test_log_bound_domain():
    with pytest.raises(DomainError):
        log_bound(1.0)
    with pytest.raises(DomainError):
        log_bound(-0.2)


def test_lerch_tail_empty_at_zero():
    assert lerch_tail_sum(0.0, 3.7) == (0.0, 0.0)


def test_lerch_tail_closed_form():
    value, error = lerch_tail_sum(0.5, 1.0)
    assert value == pytest.approx(TWO_LN2 - 1.0, abs=1e-12)
    assert error <= 1e-13


def test_lerch_tail_brute_force_oracle():
    ns = np.arange(1, 50001)
    expected = math.fsum(np.power(0.9, ns) / (ns + 2.7))
    value, error = lerch_tail_sum(0.9, 2.7)
    assert value == pytest.approx(expected, abs=1e-11)


def test_lerch_tail_monotonicity_grids():
    rs = np.linspace(0.05, 0.9, 10)
    values = [lerch_tail_sum(r, 1.5)[0] for r in rs]
    assert all(b > a for a, b in zip(values, values[1:]))
    betas = np.linspace(0.5, 6.0, 10)
    values = [lerch_tail_sum(0.6, b)[0] for b in betas]
    assert all(b < a for a, b in zip(values, values[1:]))


KERNEL_BETAS = (1e-3, 0.05, 0.1, 0.5, 1.0, 2.5, 7.0, 55.0)
KERNEL_RADII = (0.0, 0.3, 0.5, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-10)


@pytest.mark.parametrize("start", (0, 1, 2, 6))
@pytest.mark.parametrize("beta", KERNEL_BETAS)
def test_lerch_tail_certified_against_mpmath(beta, start):
    # Both branches (direct sum, ln r expansion near 1): the reported error
    # bounds the true one and stays within 1e-13 relative.  The sum from
    # n = start has the exponent start + beta, which the sum from n = 1 has
    # at beta + start - 1.
    shifted = beta + start - 1
    with mp.workdps(40):
        for r in KERNEL_RADII:
            value, error = lerch_tail_sum(r, shifted)
            ref = mp_tail_sum(r, shifted)
            assert abs(mp.mpf(value) - ref) <= error <= 1e-13 * max(1.0, ref), r


@pytest.mark.parametrize("beta", (1e-3, 0.1, 1.0, 7.0))
def test_lerch_tail_derivative_identity(beta):
    # d/dr sum_{n>=1} r^n/(n+beta) = 1/(1-r) - (beta/r) sum, the slope the
    # radius solver uses, against the 40-digit numerical derivative.
    with mp.workdps(40):
        for r in (0.3, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-10):
            value, _ = lerch_tail_sum(r, beta)
            slope = 1.0 / (1.0 - r) - beta / r * value
            ref = mp.diff(lambda t: mp_tail_sum(t, beta, 1), mp.mpf(r))
            assert slope == pytest.approx(float(ref), rel=1e-12), r


def test_lerch_tail_domain_errors():
    with pytest.raises(DomainError):
        lerch_tail_sum(1.0, 1.0)
    with pytest.raises(DomainError):
        lerch_tail_sum(0.5, -1.0)


def test_lerch_tail_order_cap():
    # An exponent above the ln r expansion's range, so the direct sum would
    # need about 3.5e6 terms.
    with pytest.raises(NumericalError, match="order cap"):
        lerch_tail_sum(1.0 - 1e-5, 2e6)


def _assert_direct_sum_accurate(r, beta, start, digits=40):
    # At the exponent a = start + beta, that of the sum from n = start: the
    # value lies within its certified error of the mpmath sum, and that
    # error is at most 6u of the sum, plus half a subnormal per rounding
    # where terms fall below the normal range (r <= 1e-14: one or two terms).
    shifted = beta + start - 1
    a = 1.0 + shifted
    with mp.workdps(digits):
        ref = mp_tail_sum(r, shifted)
        value, error = lerch_tail_sum(r, shifted)
        assert abs(mp.mpf(value) - ref) <= error, (r, beta, start)
        assert error <= 6.0 * UNIT_ROUNDOFF * ref + (3.0 + 2.0 / a) * UNDERFLOW, (r, beta, start)


def test_lerch_tail_start_beyond_truncation_order():
    # Sums from n = start far below the old absolute target 1e-13 came back
    # as 0 with the whole sum as their error, (0.5, 1, 40) among them, or
    # with a few digits, like (0.3, 2, 20).  Such a sum is r^(start-1) times
    # the sum from n = 1 at beta + start - 1, whose relative error this bounds.
    for r, beta, start in ((1e-3, 0.5, 40), (0.5, 1.0, 40), (0.3, 2.0, 20)):
        _assert_direct_sum_accurate(r, beta, start)


@pytest.mark.parametrize("r", (5e-324, 1e-310, 1e-300, 1e-14))
def test_lerch_tail_certified_at_tiny_radii(r):
    # At r = 1e-310 the error 3.3e-311 did not cover the deviation: neither
    # the tail bound nor the terms counted their subnormal rounding.
    for beta in KERNEL_BETAS:
        for start in (0, 1, 2, 6):
            _assert_direct_sum_accurate(r, beta, start)


@pytest.mark.parametrize("start", (0, 1, 2, 3))
def test_lerch_direct_sum_error_bound_against_mpmath(start):
    # The direct branch (r < exp(-1/4)), where sums are longest (about 175
    # terms at r = 0.7788, beta = 50): the certified error covers the
    # 50-digit sum and is at most 6u of it.
    for beta in (0.01, 0.1, 1.0, 7.0, 50.0):
        for r in (0.05, 0.3, 0.6, 0.7788):
            _assert_direct_sum_accurate(r, beta, start, digits=50)


# One argument rule: every public real argument goes through
# lerch.finite_real and every integer argument through lerch.nonnegative_int.
G0 = DomainGamma(0.0)
LADDER = (0.99, 0.999, 0.9999)


def _outcome(call, x):
    """What ``call(x)`` returns, pickled so that equal outcomes have equal
    bits and types (a float32 field differs from a float), or its error."""
    try:
        return pickle.dumps(call(x))
    except BohrkitError as exc:
        return f"{type(exc).__name__}: {exc}"


def _rule(call, value) -> str:
    """The "<name> must <rule>" head of the DomainError that ``call(value)``
    raises, before its ", got <value>"."""
    with pytest.raises(DomainError) as info:
        call(value)
    head, got, _ = str(info.value).partition(", got ")
    assert got, info.value
    return head


# (call of one argument, a valid value, an integer value, a value out of the
# argument's range, the argument's name in error messages).  The integer value
# need not be valid: it must then fail as its int does.  The out-of-range value
# is None where the range relates the argument to another one, as beta > -m
# does: such a rule words its own message.
REAL_ARGUMENTS = {
    "DomainGamma": (DomainGamma, 0.5, 0, 1.0, "gamma"),
    "lerch_tail_sum.r": (lambda x: lerch_tail_sum(x, 1.0), 0.6, 0, 1.0, "radius"),
    "lerch_tail_sum.beta": (lambda x: lerch_tail_sum(0.6, x), 1.5, 2, -1.0, "beta"),
    "BernardiParams.beta": (BernardiParams, 1.5, 2, None, "beta"),
    "log_bound": (log_bound, 0.6, 0, -0.2, "radius"),
    "majorant_eval": (lambda x: majorant_eval(polynomial([1.0, 0.5]), x), 0.6, 0, 1.0,
                      "majorant radius"),
    "cesaro_majorant": (lambda x: cesaro_majorant(polynomial([1.0, 0.5]), x), 0.6, 0, 1.0,
                        "majorant radius"),
    "bernardi_majorant": (lambda x: bernardi_majorant(polynomial([1.0, 0.5]),
                                                      BernardiParams(1.0), x), 0.6, 0, 1.0,
                          "majorant radius"),
    "truncation_order.r": (truncation_order, 0.6, 0, 1.0, "radius"),
    "truncation_order.tail_bound": (lambda x: truncation_order(0.5, x), 0.5, 2, -1.0,
                                    "tail_bound"),
    "truncation_order.target": (lambda x: truncation_order(0.5, 1.0, x), 1e-10, 1, 0.0,
                                "target"),
    "TruncatedPowerSeries": (lambda x: TruncatedPowerSeries([1.0], x), 0.5, 1, -0.5,
                             "tail_bound"),
    "cesaro_radius.tol": (lambda x: cesaro_radius(G0, x), 1e-10, 1, -1e-10, "tolerance"),
    "bernardi_radius.beta": (lambda x: bernardi_radius(G0, x), 1.5, 2, 0.0, "beta"),
    "bernardi_radius.tol": (lambda x: bernardi_radius(G0, 1.0, x), 1e-10, 1, 0.0,
                            "tolerance"),
    "bernardi_radius_classic.beta": (lambda x: bernardi_radius_classic(x, 1), 1.5, 2, None,
                                     "beta"),
    "bernardi_radius_classic.tol": (lambda x: bernardi_radius_classic(1.0, 1, x), 1e-10, 1,
                                    0.0, "tolerance"),
    "ExtremalParams": (lambda x: ExtremalParams(x, G0), 0.9, 0, None, "a"),
    "cesaro_first_order_factor": (lambda x: cesaro_first_order_factor(G0, x), 0.6, 0, 1.0,
                                  "r"),
    "bernardi_first_order_factor.beta": (lambda x: bernardi_first_order_factor(G0, x, 0.6),
                                         1.5, 2, 0.0, "beta"),
    "bernardi_first_order_factor.r": (lambda x: bernardi_first_order_factor(G0, 1.5, x),
                                      0.6, 0, 0.0, "r"),
    "cesaro_extremal_decomposition": (
        lambda x: cesaro_extremal_decomposition(ExtremalParams(0.9, G0), x), 0.3, 0, 1.0, "r"),
    "bernardi_extremal_decomposition.beta": (
        lambda x: bernardi_extremal_decomposition(ExtremalParams(0.9, G0), x, 0.3), 1.5, 2,
        -1.0, "beta"),
    "bernardi_extremal_decomposition.r": (
        lambda x: bernardi_extremal_decomposition(ExtremalParams(0.9, G0), 1.5, x), 0.3, 0,
        1.5, "r"),
    "sharpness_scan_cesaro.r": (lambda x: sharpness_scan_cesaro(G0, x, LADDER), 0.7, 0, 1.0,
                                "r"),
    "sharpness_scan_cesaro.a": (lambda x: sharpness_scan_cesaro(G0, 0.7, [x]), 0.99, 0, None,
                                "a"),
    "sharpness_scan_bernardi.beta": (lambda x: sharpness_scan_bernardi(G0, x, 0.8, LADDER),
                                     1.5, 2, 0.0, "beta"),
    "sharpness_scan_bernardi.r": (lambda x: sharpness_scan_bernardi(G0, 1.5, x, LADDER),
                                  0.8, 0, 1.0, "r"),
    "sharpness_scan_bernardi.a": (lambda x: sharpness_scan_bernardi(G0, 1.5, 0.8, [x]),
                                  0.99, 0, None, "a"),
    "remainder_order_check.r": (lambda x: remainder_order_check("cesaro", G0, x, LADDER),
                                0.4, 0, 0.0, "r"),
    "remainder_order_check.beta": (
        lambda x: remainder_order_check("bernardi", DomainGamma(0.2), 0.3, LADDER, beta=x),
        1.5, 2, -3.0, "beta"),
    "remainder_order_check.a": (
        lambda x: remainder_order_check("cesaro", G0, 0.4, [x, 0.999]), 0.99, 0, None, "a"),
}

@pytest.mark.parametrize("call, x, k, out, name", REAL_ARGUMENTS.values(),
                         ids=REAL_ARGUMENTS)
def test_real_arguments_follow_one_rule(call, x, k, out, name):
    # A numpy float32 was computed in single precision behind a certified
    # error, or rejected with a message saying its value was out of range;
    # True was taken as 1.0; an int or Fraction beyond the double range
    # raised OverflowError.
    valid = _outcome(call, float(np.float32(x)))
    assert isinstance(valid, bytes), valid
    assert _outcome(call, np.float32(x)) == valid
    assert _outcome(call, Fraction(repr(x))) == _outcome(call, x)
    assert _outcome(call, np.int64(k)) == _outcome(call, k)
    for bad in (True, np.True_, repr(x), Decimal(repr(x)), math.nan, math.inf, -math.inf,
                10 ** 400, Fraction(10 ** 400, 3)):
        with pytest.raises(DomainError, match=f"^{name} must "):
            call(bad)
    if out is not None:
        # A NaN gamma said "gamma must be a finite real", gamma = 1 "gamma
        # must lie in [0, 1)": the range is now worded once, for both.
        assert _rule(call, out).startswith(f"{name} must ")
        assert _rule(call, out) == _rule(call, math.nan)


# (call of one argument, a valid value, a value out of the argument's range,
# the argument's name in error messages)
INTEGER_ARGUMENTS = {
    "BernardiParams": (lambda k: BernardiParams(1.0, k), 1, -1, "m"),
    "bernardi_radius_classic": (lambda k: bernardi_radius_classic(1.0, k), 1, -1, "m"),
    "SchurSampleSpec.degree": (lambda k: SchurSampleSpec(k, 1, G0), 2, 17, "degree"),
    "SchurSampleSpec.seed": (lambda k: SchurSampleSpec(2, k, G0), 7, -1, "seed"),
    "blaschke_coeffs": (lambda k: blaschke_coeffs([0.5], 1.0, k), 8, -1, "output order"),
    "sample_schur_omega": (
        lambda k: sample_schur_omega(SchurSampleSpec(2, 1, DomainGamma(0.4)), k), 8, -1,
        "output order"),
    "padded": (lambda k: polynomial([1.0]).padded(k), 3, -1, "order"),
    "lemma1_check.num_samples": (lambda k: lemma1_check(G0, k, 2, 16, 1), 3, 0,
                                 "num_samples"),
    "lemma1_check.degree_max": (lambda k: lemma1_check(G0, 3, k, 16, 1), 2, 17, "degree_max"),
    "lemma1_check.n_out": (lambda k: lemma1_check(G0, 3, 2, k, 1), 16, 0, "output order"),
    "lemma1_check.seed": (lambda k: lemma1_check(G0, 3, 2, 16, k), 5, -1, "seed"),
}


@pytest.mark.parametrize("call, k, out, name", INTEGER_ARGUMENTS.values(),
                         ids=INTEGER_ARGUMENTS)
def test_integer_arguments_follow_one_rule(call, k, out, name):
    # True was taken as start = 1 or m = 1, or as one sample or degree; a
    # float seed was truncated and a float order ran or failed inside numpy.
    valid = _outcome(call, k)
    assert isinstance(valid, bytes), valid
    assert _outcome(call, np.int64(k)) == valid
    for bad in (True, np.True_, float(k), np.float32(k), Fraction(k), str(k), math.nan,
                math.inf):
        with pytest.raises(DomainError, match=f"^{name} must be a nonnegative integer"):
            call(bad)
    # Degree 17 said "degree must be an integer in [0, 16]" but degree -1
    # "degree must be a nonnegative integer"; 0 samples "need at least one
    # sample".  Both ends of a range now share one message.
    assert _rule(call, out).startswith(f"{name} must ")
    assert _rule(call, out) == _rule(call, -1)


def test_float32_arguments_keep_certified_errors():
    # A float32 r kept the sums in single precision: the Cesaro factor was off
    # by 2.0e-7 against a certified error of 8.6e-15, the tail sum by 6.1e-9
    # against 1.5e-15.
    r = float(np.float32(0.6))
    with mp.workdps(50):
        value, error = lerch_tail_sum(np.float32(0.6), 1.0)
        assert abs(mp.mpf(value) - mp_tail_sum(r, 1.0)) <= error
        value = cesaro_first_order_factor(G0, np.float32(0.6))
        error = _first_order(G0, r, None)[1]
        x = mp.mpf(r)
        reference = -(3 * (1 - x) * mp.log(1 / (1 - x)) - 2 * x) / (x * (1 - x))
        assert abs(mp.mpf(value) - reference) <= error


@pytest.mark.parametrize("call, message", [
    (lambda: truncation_order(0.5, -1.0), "tail_bound must be a finite nonnegative real"),
    (lambda: truncation_order(0.5, math.nan), "tail_bound must be a finite nonnegative real"),
    (lambda: truncation_order(0.5, 1.0, math.nan), "target must be positive"),
], ids=["order_negative_bound", "order_nan_bound", "order_nan_target"])
def test_tail_targets_and_bounds_are_checked(call, message):
    # truncation_order took a negative tail bound as order 0 and failed on
    # NaN with "cannot convert float NaN".
    with pytest.raises(DomainError, match=message):
        call()


@pytest.mark.parametrize("beta", [math.nan, math.inf])
def test_lerch_tail_rejects_non_finite_beta(beta):
    # A NaN beta returned (0.0, nan): a value with no certified error.
    with pytest.raises(DomainError, match="beta must exceed -1"):
        lerch_tail_sum(0.5, beta)


def test_weighted_geometric_identity_on_grid():
    # sum_{n>=1} (n/(n+1)) r^n = 1/(1-r) - (1/r) ln(1/(1-r))
    for r in [0.1 * k for k in range(1, 10)]:
        n = truncation_order(r, 1.0, 1e-13)
        ns = np.arange(1, n + 1)
        lhs = math.fsum(ns / (ns + 1.0) * np.power(r, ns))
        rhs = 1.0 / (1.0 - r) - log_bound(r)
        assert abs(lhs - rhs) <= 1e-10
