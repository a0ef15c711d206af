import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bohrkit as bk
from bohrkit.errors import DomainError, NumericalError
from bohrkit.series import (ORDER_CAP, UNIT_ROUNDOFF, ZERO_SAMPLING_RADIUS,
                            DomainGamma, SchurSampleSpec, TruncatedPowerSeries,
                            _sample_batches, blaschke_coeffs, majorant_eval,
                            polynomial, sample_schur_omega, truncation_order)

from oracles import blaschke_eval, cauchy_coeffs, rational_blaschke_coeffs


# ---------------------------------------------------------------- majorant

def test_majorant_constant_series():
    value, error = majorant_eval(polynomial([1.0]), 0.9)
    assert value == 1.0
    assert error == 18.0 * UNIT_ROUNDOFF  # rounding only: no tail


def test_majorant_geometric_ones():
    n = 50
    s = TruncatedPowerSeries((1.0,) * (n + 1), 1.0)
    value, error = majorant_eval(s, 0.5)
    assert abs(value - 2.0) <= 2.0 * 2.0 ** -50
    assert error == 0.5 ** 51 / 0.5 + 18.0 * UNIT_ROUNDOFF * value


def test_majorant_two_terms():
    value, error = majorant_eval(polynomial([0.3, 0.7]), 1.0 / 3.0)
    assert value == pytest.approx(0.3 + 0.7 / 3.0, abs=1e-15)
    assert error == 18.0 * UNIT_ROUNDOFF * value
    exact = Fraction(0.3) + Fraction(0.7) * Fraction(1.0 / 3.0)
    assert abs(Fraction(value) - exact) <= Fraction(error)


def test_majorant_rejects_bad_radius():
    s = polynomial([1.0])
    with pytest.raises(DomainError):
        majorant_eval(s, 1.0)
    with pytest.raises(DomainError):
        majorant_eval(s, -0.1)


def test_majorant_nondecreasing_in_r():
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=12) + 1j * rng.normal(size=12)
    s = TruncatedPowerSeries(tuple(coeffs), 0.5)
    grid = np.linspace(0.0, 0.95, 40)
    values = [majorant_eval(s, r)[0] for r in grid]
    assert all(b >= a for a, b in zip(values, values[1:]))


def exact_modulus_coeffs(rng, size):
    """Random complex coefficients whose moduli are exact binary fractions,
    half real and half Pythagorean, with those moduli as Fractions."""
    coeffs, moduli = [], []
    for k in range(size):
        if k % 2:
            m, n = sorted(rng.integers(1, 1000, size=2).tolist())
            m += 1
            scale = 2.0 ** -int(rng.integers(18, 24))
            re, im = (m * m - n * n) * scale, 2 * m * n * scale
            coeffs.append(complex(re * rng.choice([-1, 1]), im * rng.choice([-1, 1])))
            moduli.append(Fraction(m * m + n * n) * Fraction(scale))
        else:
            x = float(rng.normal())
            coeffs.append(complex(x, 0.0))
            moduli.append(abs(Fraction(x)))
    return coeffs, moduli


def test_majorant_error_covers_rounding_against_exact_sums():
    # On a polynomial the error is rounding alone; exact rational sums of
    # the stored doubles must lie within it.
    rng = np.random.default_rng(41)
    for trial in range(60):
        coeffs, moduli = exact_modulus_coeffs(rng, int(rng.integers(1, 120)))
        r = float(rng.uniform(0.0, 0.99))
        value, error = majorant_eval(polynomial(coeffs), r)
        exact = sum(m * Fraction(r) ** n for n, m in enumerate(moduli))
        assert abs(Fraction(value) - exact) <= Fraction(error)
        assert error <= 20.0 * UNIT_ROUNDOFF * value


# --------------------------------------------------------- blaschke_coeffs

def test_blaschke_single_real_zero_closed_form():
    a = 0.6
    s = blaschke_coeffs([a], 1.0, 10)
    assert s.coeffs[0] == pytest.approx(a)
    for n in range(1, 11):
        assert s.coeffs[n] == pytest.approx(-(1 - a * a) * a ** (n - 1), abs=1e-15)


def test_blaschke_empty_product_is_constant():
    s = blaschke_coeffs([], 1.0, 4)
    assert np.array_equal(s.coeffs, [1.0, 0.0, 0.0, 0.0, 0.0])
    assert s.tail_bound == 1.0


# Products are batched FFT products at any order; 260 pads to 539 points.
@pytest.mark.parametrize("n_out", [10, 260])
def test_blaschke_matches_exact_rational_oracle(n_out):
    zeros = [0.5, -0.3j]
    s = blaschke_coeffs(zeros, 1.0, n_out)
    expected = rational_blaschke_coeffs(
        [(Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(-3, 10))], n_out)
    assert np.max(np.abs(np.asarray(s.coeffs) - expected)) < 1e-12


def test_blaschke_rejects_bad_inputs():
    with pytest.raises(DomainError):
        blaschke_coeffs([1.0], 1.0, 4)
    with pytest.raises(DomainError):
        blaschke_coeffs([1.2 + 0.1j], 1.0, 4)
    with pytest.raises(DomainError):
        blaschke_coeffs([0.2], 0.5, 4)


@pytest.mark.parametrize("zeros, phase, match", [
    ([complex("nan")], 1.0, "^Blaschke zeros must lie"),
    ([complex(0.0, math.inf)], 1.0, "^Blaschke zeros must lie"),
    ([0.5], complex("nan"), "^phase must be unimodular"),
    ([0.5], complex(math.inf, 0.0), "^phase must be unimodular"),
])
def test_blaschke_names_a_non_finite_zero_or_phase(zeros, phase, match):
    # A NaN zero or phase passed both checks and failed later with "all
    # coefficients must be finite", which names no argument.
    with pytest.raises(DomainError, match=match):
        blaschke_coeffs(zeros, phase, 4)


@pytest.mark.parametrize("zeros, phase, name", [
    (["0.5"], 1.0, "Blaschke zeros"),
    ([0.5], "1", "phase"),
    ([0.5], True, "phase"),
])
def test_blaschke_rejects_a_non_numeric_zero_or_phase(zeros, phase, name):
    # complex() parsed strings and took bools, so these returned coefficients.
    with pytest.raises(DomainError, match=f"^{name} must be a finite complex number"):
        blaschke_coeffs(zeros, phase, 4)


def test_blaschke_truncation_tracks_product_evaluation():
    zeros = [0.5, -0.3 + 0.4j, 0.1j]
    phase = np.exp(0.7j)
    n_out = truncation_order(0.9, 1.0)
    s = blaschke_coeffs(zeros, phase, n_out)
    rng = np.random.default_rng(23)
    for _ in range(200):
        z = 0.9 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        error = s.tail_bound * abs(z) ** (n_out + 1) / (1.0 - abs(z))
        val = s.eval(z)
        assert abs(val - blaschke_eval(zeros, phase, z)) <= error + 1e-10
        assert abs(val) <= 1.0 + 10.0 * error


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 0.9), st.floats(0.0, 2.0 * math.pi)),
                max_size=5))
def test_blaschke_coefficients_never_exceed_one(polar_zeros):
    zeros = [r * complex(math.cos(t), math.sin(t)) for r, t in polar_zeros]
    s = blaschke_coeffs(zeros, 1.0, 24)
    assert np.max(np.abs(s.coeffs)) <= 1.0 + 1e-12


# ------------------------------------------------------- sample_schur_omega

def test_sample_degree_zero_is_unimodular_constant():
    s = sample_schur_omega(SchurSampleSpec(0, 99, DomainGamma(0.0)), 6)
    assert abs(abs(s.coeffs[0]) - 1.0) < 1e-14
    assert np.max(np.abs(s.coeffs[1:])) == 0.0


def test_sample_is_deterministic_per_seed():
    spec = SchurSampleSpec(4, 1234, DomainGamma(0.3))
    s1 = sample_schur_omega(spec, 40)
    s2 = sample_schur_omega(spec, 40)
    assert np.array_equal(s1.coeffs, s2.coeffs)
    other = sample_schur_omega(SchurSampleSpec(4, 1235, DomainGamma(0.3)), 40)
    assert not np.array_equal(s1.coeffs, other.coeffs)


def test_sample_degree_one_coefficient_bound():
    # A single Mobius factor on the unit disk: |c_n| <= 1 - |c_0|^2 for n >= 1.
    s = sample_schur_omega(SchurSampleSpec(1, 7, DomainGamma(0.0)), 30)
    mags = np.abs(s.coeffs)
    assert np.all(mags[1:] <= 1.0 - mags[0] ** 2 + 1e-12)


def test_sample_respects_bohr_bound_on_omega():
    for gamma in (0.0, 0.25, 0.6):
        dg = DomainGamma(gamma)
        r = bk.bohr_radius_omega(dg)
        n_out = truncation_order(r, 1.0)
        for seed in range(12):
            s = sample_schur_omega(SchurSampleSpec(seed % 5, 1000 + seed, dg), n_out)
            value, error = majorant_eval(s, r)
            assert value <= 1.0 + error + 1e-9


def _recipe_sample(spec):
    """z -> B(G(z)) rebuilt from the drawing recipe of sample_schur_omega,
    one scalar draw at a time."""
    rng = np.random.default_rng(spec.seed)
    zeros = []
    for _ in range(spec.degree):
        radius = ZERO_SAMPLING_RADIUS * math.sqrt(rng.random())
        angle = 2.0 * math.pi * rng.random()
        zeros.append(radius * complex(math.cos(angle), math.sin(angle)))
    theta = 2.0 * math.pi * rng.random()
    phase = complex(math.cos(theta), math.sin(theta))
    g = spec.gamma.gamma
    return lambda z: blaschke_eval(zeros, phase, (1.0 - g) * z + g)


@pytest.mark.parametrize("gamma", [0.0, 0.4, 0.9])
def test_sample_batches_match_cauchy_oracle(gamma):
    # 72 samples of degrees 0..8 span several batches at every gamma.  The
    # poles of B(G(z)) lie outside |z| = 1/0.95, so Cauchy sums on
    # |z| = 0.95 recover a_0..a_64 to about 1e-14.
    dg = DomainGamma(gamma)
    specs = [SchurSampleSpec(k % 9, 500 + k, dg) for k in range(72)]
    batches = list(_sample_batches(specs, dg, 64))
    assert len(batches) > 1
    assert [s for batch, _ in batches for s in batch] == specs
    rows = np.concatenate([rows for _, rows in batches])
    assert rows.shape == (72, 65)
    for spec, row in zip(specs, rows):
        expected = cauchy_coeffs(_recipe_sample(spec), 64, radius=0.95, samples=512)
        assert np.max(np.abs(row - expected)) <= 1e-12


def test_lemma1_peak_memory_does_not_grow_with_samples():
    def peak(samples):
        tracemalloc.start()
        try:
            bk.lemma1_check(DomainGamma(0.4), samples, 8, 64, 7)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # caches (compose matrix, FFT plans) filled outside the measurement
    assert peak(2000) <= 1.25 * peak(200)


def test_gamma_zero_samples_need_no_composition_matrix():
    # G is the identity at gamma = 0; an identity matrix of this order
    # would take about 80 GB.
    report = bk.lemma1_check(DomainGamma(0.0), 2, 2, 100000, 1)
    assert report.samples == 2
    assert report.max_ratio <= 1.0 + 1e-9


def test_composition_order_above_cap_fails_before_allocating():
    n_out = 100000
    assert n_out + 32 > ORDER_CAP
    with pytest.raises(NumericalError, match="above the cap"):
        bk.lemma1_check(DomainGamma(0.4), 1, 8, n_out, 1)


def test_composition_matrix_overflow_is_a_numerical_error():
    # Row 1400 needs C(k, n) gamma^(k-n) beyond the double range before its
    # (1-gamma)^n factor; the infinite entries once reached the product and
    # failed as a DomainError on the sample.
    with pytest.raises(NumericalError, match="composition matrix overflows"):
        bk.lemma1_check(DomainGamma(0.4), 1, 8, 1400, 1)


def test_composition_cap_names_the_smallest_deficit():
    # The deficit stalls at a rounding floor near 2e-13 from K = 8160 on.
    with pytest.raises(NumericalError, match=r"smallest deficit reached is 1\.\de-13"):
        bk.lemma1_check(DomainGamma(0.97), 10, 8, 64, 1)


def test_sample_spec_validation():
    with pytest.raises(DomainError):
        SchurSampleSpec(-1, 0, DomainGamma(0.0))
    with pytest.raises(DomainError):
        SchurSampleSpec(17, 0, DomainGamma(0.0))


# ----------------------------------------------------- type-level invariants

def test_domain_gamma_validation():
    with pytest.raises(DomainError):
        DomainGamma(1.0)
    with pytest.raises(DomainError):
        DomainGamma(-0.01)
    assert DomainGamma(0.0).gamma == 0.0


def test_series_rejects_non_finite():
    with pytest.raises(DomainError):
        TruncatedPowerSeries((float("nan"),), 0.0)
    with pytest.raises(DomainError):
        TruncatedPowerSeries((1.0,), -1.0)


def test_truncation_order_policy():
    n = truncation_order(0.5, 1.0, 1e-12)
    assert 0.5 ** (n + 1) / 0.5 <= 1e-12
    assert n <= 45
    assert truncation_order(0.0) == 0
    with pytest.raises(NumericalError):
        truncation_order(1.0 - 1e-9, 1.0, 1e-12)


def test_padded_requires_polynomial():
    s = TruncatedPowerSeries((1.0,), 0.5)
    with pytest.raises(DomainError):
        s.padded(4)
    p = polynomial([1.0, 2.0]).padded(4)
    assert np.array_equal(p.coeffs, [1.0, 2.0, 0.0, 0.0, 0.0])


def test_series_coeffs_are_a_read_only_copy():
    source = np.array([1.0, 2.0 + 1.0j, 3.0])
    s = TruncatedPowerSeries(source, 0.0)
    source[1] = 99.0
    assert np.array_equal(s.coeffs, [1.0, 2.0 + 1.0j, 3.0])
    assert s.coeffs.dtype == complex and s.coeffs.ndim == 1
    with pytest.raises(ValueError):
        s.coeffs[0] = 5.0
    with pytest.raises(DomainError):
        TruncatedPowerSeries((), 0.0)
    with pytest.raises(DomainError):
        TruncatedPowerSeries(np.ones((2, 2)), 0.0)


def test_compose_matrix_cache_stays_bounded():
    # Its 64 entries could hold about 1.7 GiB: 27 MiB per order-1300 matrix
    # at gamma = 0.4.
    from bohrkit.extremal import lemma1_check
    from bohrkit.series import _compose_matrix

    for order in (8, 16, 24, 32, 40):
        lemma1_check(DomainGamma(0.4), 1, 2, order, 0)
    assert _compose_matrix.cache_info().currsize <= 4


def test_sample_schur_omega_rejects_negative_order_without_hanging():
    # At gamma = 0, n_out = -1 never returned: _fft_length(-1) reached m = 0,
    # which no prime divides out.  A subprocess with a timeout keeps a hang
    # from stalling the suite.
    code = ("from bohrkit import DomainGamma, SchurSampleSpec, sample_schur_omega\n"
            "sample_schur_omega(SchurSampleSpec(2, 1, DomainGamma(0.0)), -1)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 1
    assert "DomainError: output order must be >= 0, got -1" in proc.stderr
