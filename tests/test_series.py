import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import bohrkit as bk
from bohrkit.errors import DomainError, NumericalError
from bohrkit.series import (COMPOSE_TARGET, MASTER_DRAW_CHUNK, ORDER_CAP, UNIT_ROUNDOFF,
                            ZERO_SAMPLING_RADIUS, DomainGamma, SchurSampleSpec,
                            TruncatedPowerSeries, _compose_matrix, _master_draws,
                            _sample_batches, blaschke_coeffs, majorant_eval, polynomial,
                            sample_schur_omega, truncation_order)

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


def test_blaschke_coefficients_never_exceed_one():
    # 200 seeded zero sets of 0-5 zeros with radii in [0, 0.9], plus the
    # empty set and five zeros on the radius-0.9 edge of that range.
    rng = np.random.default_rng(29)
    zero_sets = [[], [0.9 * complex(math.cos(t), math.sin(t))
                      for t in 2.0 * math.pi * rng.random(5)]]
    for _ in range(200):
        k = rng.integers(0, 6)
        zero_sets.append(list(0.9 * rng.random(k) * np.exp(2j * math.pi * rng.random(k))))
    for zeros in zero_sets:
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
    draws = [spec[:2] for spec in specs]
    batches = list(_sample_batches(draws, dg, 64))
    assert len(batches) > 1
    assert [s for batch, _ in batches for s in batch] == draws
    rows = np.concatenate([rows for _, rows in batches])
    assert rows.shape == (72, 65)
    for spec, row in zip(specs, rows):
        expected = cauchy_coeffs(_recipe_sample(spec), 64, radius=0.95, samples=512)
        assert np.max(np.abs(row - expected)) <= 1e-12


def test_batches_share_fft_buffers_without_stale_rows():
    # Every batch runs its FFT products in the same two buffers, with fewer
    # live rows at each further factor.  At gamma = 0 there is no matrix
    # product, so each batched row equals a one-sample batch bit for bit.
    dg = DomainGamma(0.0)
    draws = [(k % 9, 700 + k) for k in range(150)]
    batches = list(_sample_batches(draws, dg, 64))
    assert len(batches) > 2
    for batch, rows in batches:
        for draw, row in zip(batch, rows):
            assert np.array_equal(row, sample_schur_omega(SchurSampleSpec(*draw, dg), 64).coeffs)


@pytest.mark.parametrize("degree_max", [0, 1, 8, 16])
def test_master_draws_equal_two_scalar_calls_per_sample(degree_max):
    # Chunked array-bound draws take the stream of the scalar calls they
    # replace, across chunk boundaries; degree_max 0 draws no degree bits.
    for seed in (0, 1, 7, 2 ** 40):
        for count in (1, MASTER_DRAW_CHUNK - 1, MASTER_DRAW_CHUNK, MASTER_DRAW_CHUNK + 1, 1000):
            master = np.random.default_rng(seed)
            expected = [(int(master.integers(0, degree_max + 1)), int(master.integers(0, 2 ** 63)))
                        for _ in range(count)]
            assert list(_master_draws(seed, count, degree_max)) == expected
    # Lazy: the first pair of any count costs one chunk.
    assert next(_master_draws(seed, 10 ** 15, degree_max)) == expected[0]


def _recipe_zeros_and_phase(degree, seed):
    """Zeros and phase of one draw by sample_schur_omega's recipe, with its
    2 degree + 1 uniforms drawn one scalar call at a time."""
    rng = np.random.default_rng(seed)
    u = np.array([rng.random() for _ in range(2 * degree + 1)])
    angle = 2.0 * math.pi * u[1::2]
    zeros = ZERO_SAMPLING_RADIUS * np.sqrt(u[:-1:2]) * (np.cos(angle) + 1j * np.sin(angle))
    theta = 2.0 * math.pi * u[-1]
    return zeros, complex(math.cos(theta), math.sin(theta))


@pytest.mark.parametrize("draws", [
    [(0, 800 + k) for k in range(5)],  # a zero-width buffer: the phase column alone
    [(k % 17, 900 + k) for k in range(150)],
], ids=["degree-0-batch", "degrees-0-to-16"])
def test_batched_draws_equal_the_recipe_bit_for_bit(draws):
    # At gamma = 0 no matrix product follows the Blaschke rows, so each
    # batched row is exactly blaschke_coeffs of its own draw's zeros and phase.
    batches = list(_sample_batches(draws, DomainGamma(0.0), 64))
    assert [draw for batch, _ in batches for draw in batch] == draws
    for batch, rows in batches:
        for (degree, seed), row in zip(batch, rows):
            expected = blaschke_coeffs(*_recipe_zeros_and_phase(degree, seed), 64)
            assert row.tobytes() == expected.coeffs.tobytes()


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


def test_refused_composition_holds_one_row_not_a_matrix():
    # The search at gamma = 0.97 doubles K up to the cap and refuses.  A
    # full matrix per trial held about 18 MiB (8.1 MiB at K = 16352 still
    # alive beside 9.9 MiB at K = 20000); one row at the cap is 160 KB.
    def peak():
        tracemalloc.start()
        try:
            with pytest.raises(NumericalError, match="cannot certify the composition"):
                bk.lemma1_check(DomainGamma(0.97), 10, 8, 64, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak()  # lazy imports on a first call are measured outside the bound
    assert peak() < 2 ** 20


def _compose_matrix_full_search(gamma, n_out):
    # Reference search that builds each trial's whole matrix and reads its
    # row sums.  The row-by-row search must match it bit for bit, refusals
    # included.
    if n_out + 32 > ORDER_CAP:
        raise NumericalError(
            f"composition to order {n_out} needs an input order of at least "
            f"{n_out + 32}, above the cap {ORDER_CAP}")
    one_m = 1.0 - gamma
    k, best = n_out + 32, math.inf
    while True:
        m = np.zeros((n_out + 1, k + 1))
        with np.errstate(over="ignore"):
            for n in range(n_out + 1):
                lead = one_m ** n
                if lead == 0.0:
                    raise NumericalError(
                        f"(1-gamma)^n underflows at n={n} for gamma={gamma}; "
                        "requested order is too large for this gamma")
                ks = np.arange(n + 1, k + 1, dtype=float)
                m[n, n] = lead
                m[n, n + 1:] = lead * np.cumprod(gamma * ks / (ks - n))
        deficits = 1.0 / one_m - m.sum(axis=1)
        if not np.isfinite(deficits).all():
            raise NumericalError(
                f"the composition matrix overflows for gamma={gamma} and order "
                f"{n_out}; requested order is too large for this gamma")
        deficit = float(deficits.max())
        if deficit <= COMPOSE_TARGET:
            return m
        best = min(best, deficit)
        if k >= ORDER_CAP:
            raise NumericalError(
                f"cannot certify the composition to {COMPOSE_TARGET} for "
                f"gamma={gamma} and order {n_out} within the cap {ORDER_CAP}: "
                f"the smallest deficit reached is {best:.1e}")
        k = min(2 * k + 32, ORDER_CAP)


@pytest.mark.parametrize("gamma, n_out", [(0.1, 8), (0.4, 64), (0.6, 200), (0.9, 64),
                                          (0.955, 64)])
def test_row_search_builds_the_full_search_matrix(gamma, n_out):
    m = _compose_matrix.__wrapped__(gamma, n_out)
    assert np.array_equal(m, _compose_matrix_full_search(gamma, n_out))
    assert not m.flags.writeable


@pytest.mark.parametrize("gamma, n_out", [(0.96, 64), (0.97, 64), (0.99, 8), (0.99, 200),
                                          (0.4, 1400)])
def test_row_search_refuses_like_the_full_search(gamma, n_out):
    # The cap's messages pin the smallest deficit over the trials; (0.99, 200)
    # underflows at row 162 of its first trial, and (0.4, 1400) overflows in
    # its second, after a first trial that fails only its deficits.
    with pytest.raises(NumericalError) as expected:
        _compose_matrix_full_search(gamma, n_out)
    with pytest.raises(NumericalError) as got:
        _compose_matrix.__wrapped__(gamma, n_out)
    assert str(got.value) == str(expected.value)


def test_gamma_zero_samples_need_no_composition_matrix():
    # G is the identity at gamma = 0; an identity matrix of this order
    # would take about 3 GB, and for gamma > 0 the composition refuses it.
    report = bk.lemma1_check(DomainGamma(0.0), 2, 2, ORDER_CAP, 1)
    assert report.samples == 2
    assert report.max_ratio <= 1.0 + 1e-9


def test_composition_order_above_cap_fails_before_allocating():
    n_out = 100000
    assert n_out + 32 > ORDER_CAP
    with pytest.raises(NumericalError, match="above the cap"):
        bk.lemma1_check(DomainGamma(0.4), 1, 8, n_out, 1)


@pytest.mark.parametrize("call", [
    lambda n: bk.lemma1_check(DomainGamma(0.0), 1, 8, n, 1),
    lambda n: sample_schur_omega(SchurSampleSpec(3, 1, 0.0), n),
    lambda n: blaschke_coeffs([0.5], 1.0, n),
], ids=["lemma1_check", "sample_schur_omega", "blaschke_coeffs"])
def test_gamma_zero_order_above_cap_fails_before_allocating(call):
    # Only the composition, for gamma > 0, checked the order: at gamma = 0
    # any order was taken, and went on to allocate FFT buffers of twice its
    # length.
    with pytest.raises(NumericalError, match="^output order 20001 is above the cap 20000$"):
        call(ORDER_CAP + 1)


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


def test_sample_spec_is_a_validating_named_tuple():
    spec = SchurSampleSpec(2, 99, 0.4)  # a float gamma becomes a DomainGamma
    assert spec == (2, 99, DomainGamma(0.4)) == SchurSampleSpec(degree=2, seed=99, gamma=0.4)
    assert isinstance(spec.gamma, DomainGamma)
    with pytest.raises(DomainError, match=r"^degree must be an integer in \[0, 16\], got 17$"):
        spec._replace(degree=17)
    with pytest.raises(DomainError, match="^seed must be a nonnegative integer, got -1$"):
        spec._replace(seed=-1)
    with pytest.raises(DomainError, match=r"^gamma must lie in \[0, 1\), got 1\.0$"):
        spec._replace(gamma=1.0)


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
    assert p.padded(4) is p and p.padded(2) is p  # nothing to pad up to its own order


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
    from bohrkit.series import _compose_matrix, lemma1_check

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
