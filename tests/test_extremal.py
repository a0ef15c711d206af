import math
import warnings

import numpy as np
import pytest
from mpmath import mp

import bohrkit as bk
from bohrkit.errors import (DomainError, InconclusiveError, NumericalError,
                            PreconditionError)
from bohrkit.extremal import (ExtremalParams, SharpnessReport, _remainders,
                              bernardi_extremal_decomposition,
                              bernardi_first_order_factor,
                              cesaro_extremal_decomposition,
                              cesaro_first_order_factor, identity_suite,
                              remainder_order_check, sharpness_scan_bernardi,
                              sharpness_scan_cesaro)
from bohrkit.operators import BernardiParams, bernardi_majorant, cesaro_majorant
from bohrkit.radii import bernardi_radius, cesaro_radius
from bohrkit.series import (DomainGamma, Lemma1Report, SchurSampleSpec, lemma1_check,
                            sample_schur_omega, truncation_order)

from oracles import (bernardi_extremal_closed_form, cauchy_coeffs,
                     cesaro_extremal_closed_form, extremal_coeffs, extremal_eval,
                     mp_extremal_remainder, mp_tail_sum)

WITNESS_LADDER = (0.99, 0.999, 0.9999)


def direct_cesaro_extremal_majorant(a, gamma, r):
    """Independent direct summation of the averaged extremal majorant."""
    q = a * (1.0 - gamma) / (1.0 - a * gamma)
    a0 = (a - gamma) / (1.0 - a * gamma)
    lead = (1.0 - a * a) / (a * (1.0 - a * gamma))
    n = truncation_order(r, 1.0, 1e-15) + 64
    mags = np.empty(n + 1)
    mags[0] = abs(a0)
    mags[1:] = lead * q ** np.arange(1, n + 1)
    weights = np.cumsum(mags) / np.arange(1, n + 2)
    return math.fsum(weights * np.power(r, np.arange(n + 1)))


# ------------------------------------------------------------ extremal family

def test_extremal_coeffs_reduce_to_mobius_at_gamma_zero():
    a = 0.7
    s = extremal_coeffs(ExtremalParams(a, DomainGamma(0.0)), 10)
    assert s.coeffs[0] == pytest.approx(a)
    for n in range(1, 11):
        assert s.coeffs[n] == pytest.approx(-(1.0 - a * a) * a ** (n - 1), abs=1e-15)


def test_extremal_leading_coefficient_vanishes_as_a_meets_gamma():
    gamma = 0.4
    s = extremal_coeffs(ExtremalParams(gamma + 1e-8, DomainGamma(gamma)), 2)
    assert abs(s.coeffs[0]) < 2e-8


def test_extremal_coeffs_match_cauchy_oracle():
    a, gamma = 0.7, 0.2
    s = extremal_coeffs(ExtremalParams(a, DomainGamma(gamma)), 12)
    expected = cauchy_coeffs(lambda z: extremal_eval(ExtremalParams(a, DomainGamma(gamma)), z),
                             12, radius=0.5)
    assert np.max(np.abs(np.asarray(s.coeffs) - expected)) < 1e-11


def test_extremal_params_require_a_above_gamma():
    with pytest.raises(PreconditionError):
        ExtremalParams(0.3, DomainGamma(0.5))
    with pytest.raises(PreconditionError):
        ExtremalParams(1.0, DomainGamma(0.0))


def test_extremal_params_is_a_validating_named_tuple():
    p = ExtremalParams(0.9, 0.3)  # a float gamma becomes a DomainGamma
    assert p == (0.9, DomainGamma(0.3)) == ExtremalParams(a=0.9, gamma=DomainGamma(0.3))
    assert isinstance(p.gamma, DomainGamma)
    with pytest.raises(PreconditionError, match=r"gamma < a < 1, got a=0\.2, gamma=0\.3$"):
        p._replace(a=0.2)
    with pytest.raises(DomainError, match="^gamma must lie in"):
        ExtremalParams(0.9, 1.0)


def test_sharpness_report_is_a_validating_named_tuple():
    report = SharpnessReport(0.0, None, 0.55, 0.53, [0.99, 0.999], [1e-4, 2e-5], True)
    assert report.a_values == (0.99, 0.999) and report.margins == (1e-4, 2e-5)
    assert report.as_dict() == {"gamma": 0.0, "beta": None, "r": 0.55, "radius": 0.53,
                                "a_values": [0.99, 0.999], "margins": [1e-4, 2e-5],
                                "witness_found": True}
    with pytest.raises(DomainError, match="^need one margin per a, got 2 a values and 1"):
        report._replace(margins=(1e-4,))


def test_extremal_function_maps_omega_into_unit_disk():
    # Evaluate the closed rational form at 500 random points of Omega_gamma
    # (the affine preimage of the unit disk) and at boundary points.
    gamma = 0.35
    p = ExtremalParams(0.8, DomainGamma(gamma))
    rng = np.random.default_rng(61)
    for _ in range(500):
        w = math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        z = (w - gamma) / (1.0 - gamma)
        assert abs(extremal_eval(p, z)) <= 1.0 + 1e-12
    for theta in np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False):
        w = np.exp(1j * theta) * (1.0 - 1e-9)
        z = (w - gamma) / (1.0 - gamma)
        assert abs(extremal_eval(p, z)) > 1.0 - 1e-6


@pytest.mark.parametrize("z", [math.nan, complex(0.5, math.inf), "0.5", True, 10 ** 400],
                         ids=["nan", "inf", "str", "bool", "int_beyond_double"])
def test_evaluations_name_a_non_finite_or_non_numeric_z(z):
    # TruncatedPowerSeries.eval returned nan for a NaN or infinite z, and
    # raised an unrelated TypeError for a str.
    s = extremal_coeffs(ExtremalParams(0.8, DomainGamma(0.35)), 4)
    with pytest.raises(DomainError, match="z must be a finite complex number"):
        s.eval(z)
    assert s.eval(np.complex128(0.5j)) == s.eval(0.5j)
    assert s.eval(1) == s.eval(1.0 + 0.0j)


# ------------------------------------------------------ cesaro decomposition

def test_cesaro_decomposition_parts_sum_to_direct_majorant():
    a, gamma, r = 0.9, 0.3, 0.4
    d = cesaro_extremal_decomposition(ExtremalParams(a, DomainGamma(gamma)), r)
    direct = direct_cesaro_extremal_majorant(a, gamma, r)
    assert d.bound + d.first_order + d.remainder == pytest.approx(direct, abs=1e-10)


def test_cesaro_extremal_majorant_matches_two_log_closed_form():
    for (a, gamma, r) in [(0.9, 0.3, 0.4), (0.65, 0.2, 0.6), (0.99, 0.0, 0.55),
                          (0.8, 0.6, 0.3)]:
        d = cesaro_extremal_decomposition(ExtremalParams(a, DomainGamma(gamma)), r)
        total = d.bound + d.first_order + d.remainder
        assert total == pytest.approx(cesaro_extremal_closed_form(a, gamma, r), abs=1e-10)


def test_cesaro_first_order_term_is_linear_in_one_minus_a():
    gamma, r = 0.3, 0.4
    d = cesaro_extremal_decomposition(ExtremalParams(1.0 - 1e-8, DomainGamma(gamma)), r)
    factor = cesaro_first_order_factor(DomainGamma(gamma), r)
    assert abs(d.first_order) <= 2e-8 * abs(factor)


def test_cesaro_first_order_factor_vanishes_at_radius():
    for gamma in (0.0, 0.3, 0.7):
        dg = DomainGamma(gamma)
        root = cesaro_radius(dg).value
        assert abs(2.0 * root + (3.0 + gamma) * (1.0 - root) * math.log1p(-root)) <= 1e-9


def test_cesaro_first_order_factor_sign_flips_at_radius():
    for gamma in (0.0, 0.4):
        dg = DomainGamma(gamma)
        root = cesaro_radius(dg).value
        below = cesaro_first_order_factor(dg, root - 1e-6)
        above = cesaro_first_order_factor(dg, root + 1e-6)
        assert below < 0.0 < above


# ---------------------------------------------------- bernardi decomposition

@pytest.mark.parametrize("a,gamma,beta,r", [
    (0.9, 0.2, 1.0, 0.3),
    (0.9, 0.0, 1.0, 0.3),
    (0.7, 0.4, 2.0, 0.5),
])
def test_bernardi_decomposition_parts_sum_to_direct_majorant(a, gamma, beta, r):
    d = bernardi_extremal_decomposition(ExtremalParams(a, DomainGamma(gamma)), beta, r)
    direct = bernardi_extremal_closed_form(a, gamma, beta, r)
    assert d.bound + d.first_order + d.remainder == pytest.approx(direct, abs=1e-10)


def test_bernardi_first_order_vanishes_at_radius():
    gamma, beta = 0.2, 1.0
    dg = DomainGamma(gamma)
    root = bernardi_radius(dg, beta).value
    d = bernardi_extremal_decomposition(ExtremalParams(0.9, dg), beta, root)
    assert abs(d.first_order) <= 1e-9


def test_bernardi_first_order_factor_sign_flips_at_radius():
    for (gamma, beta) in [(0.0, 1.0), (0.5, 2.0)]:
        dg = DomainGamma(gamma)
        root = bernardi_radius(dg, beta).value
        assert bernardi_first_order_factor(dg, beta, root - 1e-6) > 0.0
        assert bernardi_first_order_factor(dg, beta, root + 1e-6) < 0.0


def test_bernardi_remainder_is_quadratic_at_gamma_zero():
    # At gamma = 0 the remainder's linear part cancels identically; the
    # ladder fit pins the quadratic order.
    dg = DomainGamma(0.0)
    remainders = {}
    for eps in (1e-2, 1e-3, 1e-4):
        d = bernardi_extremal_decomposition(ExtremalParams(1.0 - eps, dg), 1.0, 0.3)
        remainders[eps] = abs(d.remainder)
    assert remainders[1e-2] / remainders[1e-3] == pytest.approx(100.0, rel=0.2)
    assert remainders[1e-3] / remainders[1e-4] == pytest.approx(100.0, rel=0.2)


def test_bernardi_remainder_linear_coefficient_for_positive_gamma():
    # For gamma > 0 and r away from the radius the whole linear coefficient
    # of the majorant in eps = 1-a, -((1+gamma)/(1-gamma)) * tail-balance
    # factor, sits in first_order; the remainder's linear coefficient is zero,
    # so remainder/eps^2 settles to a constant as eps -> 0.
    for (gamma, beta, r) in [(0.2, 1.0, 0.3), (0.5, 2.0, 0.4)]:
        dg = DomainGamma(gamma)
        predicted = -((1.0 + gamma) / (1.0 - gamma)) * bernardi_first_order_factor(dg, beta, r)
        quadratic = []
        for eps in (1e-4, 1e-5):
            d = bernardi_extremal_decomposition(ExtremalParams(1.0 - eps, dg), beta, r)
            assert d.first_order / eps == pytest.approx(predicted, rel=2e-3)
            quadratic.append(d.remainder / eps ** 2)
        assert quadratic[0] == pytest.approx(quadratic[1], rel=2e-3)


@pytest.mark.parametrize("beta", [math.inf, math.nan])
def test_bernardi_checks_reject_non_finite_beta(beta):
    p = ExtremalParams(0.9, DomainGamma(0.2))
    with pytest.raises(DomainError, match="beta must be a positive real"):
        bernardi_extremal_decomposition(p, beta, 0.3)
    with pytest.raises(DomainError, match="beta must be a positive real"):
        remainder_order_check("bernardi", DomainGamma(0.2), 0.3, [0.9, 0.99], beta=beta)
    with pytest.raises(DomainError, match="beta must be a positive real"):
        sharpness_scan_bernardi(DomainGamma(0.2), beta, 0.9, WITNESS_LADDER)


def test_bernardi_decomposition_flags_small_beta_as_exploratory():
    with pytest.warns(UserWarning, match="exploratory"):
        bernardi_extremal_decomposition(ExtremalParams(0.9, DomainGamma(0.1)), 0.5, 0.3)


# ---------------------------------------------------- closed-form remainders

@pytest.mark.parametrize("beta", [None, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.9])
@pytest.mark.parametrize("r", [0.3, 0.6, 0.95])
def test_remainders_certified_against_mpmath(r, gamma, beta):
    # One call for the whole ladder 1-a = 1e-2 .. 1e-10 (beta=None is
    # Cesaro): every remainder is negative, lies within its certified error
    # of the 50-digit value, and that error is at most 1e-12 relative.
    a_values = [1.0 - 10.0 ** -k for k in range(2, 11)]
    remainders, errors, _ = _remainders(gamma, r, a_values, beta)
    for a, rem, err in zip(a_values, remainders, errors):
        ref = mp_extremal_remainder(a, gamma, r, beta)
        assert rem < 0.0
        assert abs(rem - ref) <= err <= 1e-12 * abs(ref)


@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.9])
@pytest.mark.parametrize("r", [1e-6, 1e-3, 0.3, 0.95, 0.999, 1.0 - 1e-6])
def test_cesaro_remainders_certified_against_mpmath_up_to_r_near_one(r, gamma):
    # The truncated sum the closed form replaced certified only 8.8e-12
    # relative at r = 0.999 and raised NumericalError from r = 0.9995 on.
    # 90 digits, because the oracle subtracts the bound and first-order term
    # from the majorant, and at 50 digits that cancellation swamps the
    # remainder at r = 1e-6.
    a_values = [1.0 - 10.0 ** -k for k in range(1, 14)]
    remainders, errors, _ = _remainders(gamma, r, a_values)
    for a, rem, err in zip(a_values, remainders, errors):
        ref = mp_extremal_remainder(a, gamma, r, dps=90)
        assert rem < 0.0
        assert abs(rem - ref) <= err <= 1e-12 * abs(ref)


@pytest.mark.parametrize("beta", [0.15, 5.0])
@pytest.mark.parametrize("gamma", [0.0, 0.9])
@pytest.mark.parametrize("r", [1e-6, 0.3, 0.95, 0.999, 1.0 - 1e-6])
def test_bernardi_remainders_certified_against_mpmath_up_to_r_near_one(r, gamma, beta):
    # The summed series certified only about 4e-12 relative at r = 0.999 and
    # raised NumericalError from r = 0.9993 on.  The ladder takes all three
    # evaluations of G: the array at r = 1e-6 and 0.3, the ln difference
    # near a = 1 and the plain difference at 1-a = 0.1 and r >= 0.95.
    a_values = [1.0 - 10.0 ** -k for k in (1, 4, 7, 10, 13)]
    remainders, errors, _ = _remainders(gamma, r, a_values, beta)
    for a, rem, err in zip(a_values, remainders, errors):
        ref = mp_extremal_remainder(a, gamma, r, beta, dps=90)
        assert rem < 0.0
        assert abs(rem - ref) <= err <= 1e-12 * abs(ref)


@pytest.mark.parametrize("gamma", [0.999, 1.0 - 1e-6, 1.0 - 1e-9])
def test_remainders_keep_their_digits_as_gamma_tends_to_one(gamma):
    # d = 1 - a*gamma comes from complements, (1-gamma) + gamma (1-a): a
    # subtraction would cancel about 1/(1-gamma) of the remainders' digits,
    # 2e-12 off here, certified only to 2.2e-7.  30 digits put the oracle
    # within 3e-18 of its 120-digit value on these points.
    a = 1.0 - (1.0 - gamma) / 1000.0
    for r in (0.5, 0.9995):
        for beta in (None, 2.0):
            (rem,), (err,), _ = _remainders(gamma, r, [a], beta)
            ref = mp_extremal_remainder(a, gamma, r, beta, dps=30)
            assert abs(rem - ref) <= min(err, 1e-14 * abs(ref)), (r, beta)
            assert err <= 1e-13 * abs(ref), (r, beta)


@pytest.mark.parametrize("beta", [None, 1.0])
@pytest.mark.parametrize("r", [1e-300, 1e-310])
def test_remainder_errors_count_underflow(r, beta):
    # Below the normal range a rounding errs by up to half the smallest
    # subnormal, which no multiple of u covers.  The oracle needs 1200
    # digits, since it resolves a remainder of order r against terms of 1.
    a_values = [1.0 - 10.0 ** -k for k in range(1, 14)]
    remainders, errors, _ = _remainders(0.3, r, a_values, beta)
    for a, rem, err in zip(a_values, remainders, errors):
        assert abs(rem - mp_extremal_remainder(a, 0.3, r, beta, dps=1200)) <= err


def test_remainders_warn_nothing_where_q_rounds_to_zero():
    # At a = 1e-300, gamma = 0, 1 - q rounds to 1, and log1p(-1) printed
    # numpy's "divide by zero" warning.  The row of 1 - q^n is all ones.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _remainders(0.0, 0.5, [1e-300], 1.0)[:2] == ([0.0], [6.761474374334648e+285])


def test_remainders_are_zero_not_nan_where_the_bracket_vanishes():
    # At a = 1e-300 and r = 1 - 1e-9 the scale (1-a)^2/(a d (1-r)) overflows
    # to inf where the bracket is exactly 0: the remainder is 0, not inf * 0,
    # and its infinite error says it is uncertified.
    assert _remainders(0.0, 0.999999999, [1e-300])[:2] == ([0.0], [math.inf])


@pytest.mark.parametrize("r", [0.5, 0.999999999])
def test_decompositions_refuse_an_uncertified_remainder(r):
    # The true remainders at a = 1e-300, gamma = 0, r = 0.5 are -0.84111692
    # (Cesaro) and -0.52258872 (Bernardi, beta = 1); both closed forms lose
    # every digit there, and the decompositions returned 0.0, or nan near
    # r = 1, without a word.
    p = ExtremalParams(1e-300, DomainGamma(0.0))
    with pytest.raises(NumericalError, match=r"remainder at a=1e-300 is 0\.000e\+00 \+- "):
        cesaro_extremal_decomposition(p, r)
    with pytest.raises(NumericalError, match="a=1e-300 .* not certifiably nonzero"):
        bernardi_extremal_decomposition(p, 1.0, r)


def test_decompositions_take_the_kernel_remainder():
    gamma, r = 0.3, 0.6
    p = ExtremalParams(1.0 - 1e-8, DomainGamma(gamma))
    (rem_c,), _, _ = _remainders(gamma, r, [p.a])
    (rem_b,), _, _ = _remainders(gamma, r, [p.a], 2.0)
    assert cesaro_extremal_decomposition(p, r).remainder == rem_c
    assert bernardi_extremal_decomposition(p, 2.0, r).remainder == rem_b


# -------------------------------------------------------------- lemma 1 suite

def test_lemma1_bound_holds_at_gamma_04():
    report = lemma1_check(DomainGamma(0.4), 1000, 8, 64, 7)
    assert report.max_ratio <= 1.0 + 1e-9
    assert report.worst_spec is not None


def test_lemma1_equality_for_single_mobius_factor():
    # phi_a at gamma = 0: |a_1| = 1 - a^2 = 1 - |a_0|^2, ratio exactly 1.
    report = lemma1_check(DomainGamma(0.0), 400, 8, 64, 3)
    assert 1.0 - 1e-9 <= report.max_ratio <= 1.0 + 1e-9


def test_lemma1_skips_degenerate_constants():
    report = lemma1_check(DomainGamma(0.3), 50, 0, 16, 5)
    assert report.max_ratio == 0.0
    assert report.worst_spec is None
    assert report.skipped == 50
    assert report.as_dict()["skipped"] == 50


def test_lemma1_report_as_dict_lists_every_field():
    plain = Lemma1Report(0.4, 3, 0.5, None, 1)
    assert plain.as_dict() == {"gamma": 0.4, "samples": 3, "skipped": 1,
                               "max_ratio": 0.5, "worst_spec": None}
    spec = SchurSampleSpec(2, 99, DomainGamma(0.4))
    worst = Lemma1Report(0.4, 3, 0.5, spec, 1)
    assert worst.as_dict() == {"gamma": 0.4, "samples": 3, "skipped": 1, "max_ratio": 0.5,
                               "worst_spec": {"degree": 2, "seed": 99, "gamma": 0.4}}


def test_lemma1_report_is_a_validating_named_tuple():
    report = Lemma1Report(0.4, 3, 0.5)
    assert report == (0.4, 3, 0.5, None, 0)
    with pytest.raises(DomainError, match=r"^skipped must lie in \[0, 3\], got 4$"):
        report._replace(skipped=4)
    with pytest.raises(DomainError, match="^samples must be a nonnegative integer, got -1$"):
        report._replace(samples=-1)
    # lemma1_check draws plain (degree, seed) pairs and names its worst
    # sample by a spec on the report's gamma.
    checked = lemma1_check(DomainGamma(0.4), 40, 8, 16, 5)
    assert isinstance(checked.worst_spec, SchurSampleSpec)
    assert checked.worst_spec.gamma == DomainGamma(0.4)


def test_lemma1_counts_skipped_draws():
    # Replay the draws (degree, then child seed): every degree-0 draw is a
    # unimodular constant and is skipped; no other draw is.
    master = np.random.default_rng(7)
    zero_degree = 0
    for _ in range(1000):
        zero_degree += int(master.integers(0, 9)) == 0
        master.integers(0, 2 ** 63)
    report = lemma1_check(DomainGamma(0.4), 1000, 8, 64, 7)
    assert report.samples == 1000
    assert report.skipped == zero_degree == 86


def test_lemma1_worst_spec_is_reproducible():
    report = lemma1_check(DomainGamma(0.25), 200, 8, 64, 11)
    from bohrkit.series import sample_schur_omega
    sample = sample_schur_omega(report.worst_spec, 64)
    mags = np.abs(sample.coeffs)
    ratio = float(np.max(mags[1:])) * 1.25 / (1.0 - mags[0] ** 2)
    assert ratio == pytest.approx(report.max_ratio, rel=1e-12)


def _lemma1_reference(gamma, samples, degree_max, n_out, seed):
    """Per-sample ratios of the documented draws, one sample_schur_omega call each."""
    master = np.random.default_rng(seed)
    specs, ratios = [], []
    for _ in range(samples):
        degree = int(master.integers(0, degree_max + 1))
        spec = SchurSampleSpec(degree, int(master.integers(0, 2 ** 63)), DomainGamma(gamma))
        mags = np.abs(sample_schur_omega(spec, n_out).coeffs)
        denom = 1.0 - mags[0] ** 2
        specs.append(spec)
        ratios.append(None if denom < 1e-8 else float(np.max(mags[1:])) * (1.0 + gamma) / denom)
    return specs, ratios


@pytest.mark.parametrize("gamma, samples, seed", [(0.0, 300, 2), (0.4, 300, 7), (0.9, 30, 5)])
def test_lemma1_check_matches_sample_loop(gamma, samples, seed):
    specs, ratios = _lemma1_reference(gamma, samples, 8, 64, seed)
    report = lemma1_check(DomainGamma(gamma), samples, 8, 64, seed)
    checked = [r for r in ratios if r is not None]
    assert report.skipped == len(ratios) - len(checked)
    best = max(checked)
    assert abs(report.max_ratio - best) <= 1e-13 * best
    # The reported sample attains the reference maximum, to ties within 1e-13.
    worst = ratios[specs.index(report.worst_spec)]
    assert abs(worst - best) <= 1e-13 * best


@pytest.mark.parametrize("gamma", [0.0, 0.4, 0.9])
def test_lemma1_single_factor_attains_the_bound(gamma):
    # Degrees 0 and 1 only: every checked sample is one Mobius factor
    # composed with G, whose ratio is exactly 1 at n = 1.
    report = lemma1_check(DomainGamma(gamma), 60, 1, 64, 13)
    assert 0 < report.skipped < 60
    assert abs(report.max_ratio - 1.0) <= 1e-13


def test_first_order_factors_reject_r_and_beta_outside_domain():
    dg = DomainGamma(0.0)
    for r in (0.0, 1.0, 1.5, float("nan")):
        with pytest.raises(DomainError, match="r must lie in"):
            cesaro_first_order_factor(dg, r)
        with pytest.raises(DomainError, match="r must lie in"):
            bernardi_first_order_factor(dg, 1.0, r)
    for beta in (0.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(DomainError, match="beta must be a positive real"):
            bernardi_first_order_factor(dg, beta, 0.5)


def test_lemma1_rejects_bad_arguments():
    with pytest.raises(DomainError):
        lemma1_check(DomainGamma(0.0), 0, 8, 64, 1)


@pytest.mark.parametrize("gamma, n_out", [(0.4, 0), (0.5, -1)])
def test_lemma1_rejects_order_below_one(gamma, n_out):
    # Order 0 leaves no coefficient a_n with n >= 1 to check.
    with pytest.raises(DomainError, match="output order must be >= 1"):
        lemma1_check(DomainGamma(gamma), 5, 8, n_out, 1)


@pytest.mark.parametrize("gamma, degree_max, seed", [
    (0.4, -1, 1), (0.4, 17, 1), (0.4, 20, 1), (0.4, 20, 2), (0.4, 20, 3), (0.97, 20, 1)])
def test_lemma1_rejects_degree_max_outside_range(gamma, degree_max, seed):
    # A degree_max above MAX_BLASCHKE_DEGREE = 16 was accepted, and failed
    # only when some draw exceeded 16: seed 1 passed with one sample, seeds
    # 2 and 3 reported a sample's degree; at gamma = 0.97 the composition
    # order search failed first.  -1 is the lower end of the range.
    with pytest.raises(DomainError, match=r"degree_max must lie in \[0, 16\]"):
        lemma1_check(DomainGamma(gamma), 1, degree_max, 64, seed)


# ------------------------------------------------------------ sharpness scans

def test_cesaro_sharpness_witness_above_radius():
    report = sharpness_scan_cesaro(DomainGamma(0.0), 0.55, WITNESS_LADDER)
    assert report.witness_found
    assert all(m > 0.0 for m in report.margins)


def test_cesaro_sharpness_guard_below_radius():
    with pytest.raises(PreconditionError):
        sharpness_scan_cesaro(DomainGamma(0.0), cesaro_radius(DomainGamma(0.0)).value - 0.01,
                              WITNESS_LADDER)


def test_cesaro_sharpness_margins_scale_linearly():
    report = sharpness_scan_cesaro(DomainGamma(0.0), 0.55, WITNESS_LADDER)
    for m_big, m_small in zip(report.margins, report.margins[1:]):
        assert abs(m_big / m_small / 10.0 - 1.0) <= 0.2


def test_bernardi_sharpness_witness_above_radius():
    report = sharpness_scan_bernardi(DomainGamma(0.0), 1.0, 0.62, (0.99, 0.999))
    assert report.witness_found
    assert report.radius == pytest.approx(0.5828116438658114, abs=1e-10)


def test_bernardi_sharpness_guard_below_radius():
    with pytest.raises(PreconditionError):
        sharpness_scan_bernardi(DomainGamma(0.0), 1.0, 0.5, (0.99,))


@pytest.mark.parametrize("beta", [None, 1.0])
def test_sharpness_scan_needs_a_certified_first_order_sign(beta):
    # One ulp above the reported radius lies inside its 1e-12 bracket, where
    # the first-order factor (Cesaro 8.9e-16 +- 7.6e-15, Bernardi balance
    # -4.4e-16 +- 1.4e-15) has no certified sign; the scan used to run there
    # and report no witness.
    dg = DomainGamma(0.0)

    def scan(r):
        if beta is None:
            return sharpness_scan_cesaro(dg, r, WITNESS_LADDER)
        return sharpness_scan_bernardi(dg, beta, r, WITNESS_LADDER)

    radius = cesaro_radius(dg) if beta is None else bernardi_radius(dg, beta)
    r = math.nextafter(radius.value, 1.0)
    assert radius.bracket_lo < r < radius.bracket_hi
    with pytest.raises(PreconditionError, match=f"r > radius {radius.value:.6f}"):
        scan(r)
    # At the bracket's upper end the sign is certified, and the scan runs.
    assert scan(radius.bracket_hi).radius == radius.value


def test_bernardi_sharpness_first_order_consistency():
    # first_order/(1-a) equals the negated tail-balance factor exactly, so it
    # is constant across the ladder (well within 1%) and positive above the
    # radius.
    gamma, beta, r = 0.0, 1.0, 0.62
    dg = DomainGamma(gamma)
    ratios = []
    for a in (0.99, 0.999, 0.9999):
        d = bernardi_extremal_decomposition(ExtremalParams(a, dg), beta, r)
        ratios.append(d.first_order / (1.0 - a))
    assert all(x > 0.0 for x in ratios)
    assert max(ratios) / min(ratios) - 1.0 <= 0.01


def test_bernardi_sharpness_small_beta_warns():
    with pytest.warns(UserWarning, match="exploratory"):
        sharpness_scan_bernardi(DomainGamma(0.0), 0.5, 0.78, (0.999,))


@pytest.mark.parametrize("gamma, beta, r", [(0.0, 1.0, 0.62), (0.3, 5.0, 0.7),
                                            (0.9, 2.0, 0.75)])
def test_bernardi_sharpness_margins_match_mpmath(gamma, beta, r):
    # A margin is the majorant minus 1/beta; with the first-order factor
    # taken from the radius equation's tail sum it holds to a few ulp of the
    # 50-digit value (it was off by up to 3.6e-14 relative with a factor
    # summed to 1e-13 absolute).
    report = sharpness_scan_bernardi(DomainGamma(gamma), beta, r, WITNESS_LADDER)
    with mp.workdps(50):
        g, b, x = mp.mpf(gamma), mp.mpf(beta), mp.mpf(r)
        for a, margin in zip(report.a_values, report.margins):
            a = mp.mpf(a)
            d = 1 - a * g
            majorant = ((a - g) / d / b
                        + (1 - a * a) / (a * d) * mp_tail_sum(a * (1 - g) / d * x, b))
            reference = majorant - 1 / b
            assert abs(margin - reference) <= 2e-15 * abs(reference), float(a)


@pytest.mark.parametrize("r", [1.0, 1.5, math.nan])
def test_sharpness_scans_and_decompositions_reject_r_outside_unit_interval(r):
    # The Cesaro scan raised ValueError from math.log1p (r >= 1) or from
    # math.ceil (r = nan) instead of a DomainError.
    dg = DomainGamma(0.0)
    with pytest.raises(DomainError, match="r must lie in"):
        sharpness_scan_cesaro(dg, r, WITNESS_LADDER)
    with pytest.raises(DomainError, match="r must lie in"):
        sharpness_scan_bernardi(dg, 1.0, r, WITNESS_LADDER)
    with pytest.raises(DomainError, match="r must lie in"):
        cesaro_extremal_decomposition(ExtremalParams(0.9, dg), r)
    with pytest.raises(DomainError, match="r must lie in"):
        bernardi_extremal_decomposition(ExtremalParams(0.9, dg), 1.0, r)


# ------------------------------------------------------- remainder-order fits

def test_remainder_order_cesaro_slope_is_quadratic():
    slope = remainder_order_check("cesaro", DomainGamma(0.3), 0.4,
                                  [1.0 - 10.0 ** -k for k in range(1, 5)])
    assert 1.8 <= slope <= 2.2


def test_remainder_order_bernardi_slope_at_gamma_zero():
    slope = remainder_order_check("bernardi", DomainGamma(0.0), 0.3,
                                  [1.0 - 10.0 ** -k for k in range(1, 5)], beta=1.0)
    assert 1.8 <= slope <= 2.2


def test_remainder_order_bernardi_slope_at_positive_gamma_is_linear():
    # The first-order term carries the full linear coefficient for gamma > 0
    # too, so away from the radius the remainder decays quadratically in 1-a.
    slope = remainder_order_check("bernardi", DomainGamma(0.2), 0.3,
                                  [1.0 - 10.0 ** -k for k in range(1, 5)], beta=1.0)
    assert 1.8 <= slope <= 2.2


def test_remainder_order_single_point_is_inconclusive():
    with pytest.raises(InconclusiveError):
        remainder_order_check("cesaro", DomainGamma(0.3), 0.4, [0.9])


def test_remainder_order_uncertified_remainder_is_inconclusive():
    # At a = 1e-16 the closed form's two bracket terms, m(tau) and
    # rho m((1-q) tau), differ by about a times their size, below their
    # rounding, and the certified error says so.
    (rem,), (err,), _ = _remainders(0.0, 0.4, [1e-16])
    assert err > abs(rem)
    with pytest.raises(InconclusiveError, match="not certifiably nonzero"):
        remainder_order_check("cesaro", DomainGamma(0.0), 0.4, [1e-16, 0.5])


def test_remainder_order_rejects_unknown_kind():
    with pytest.raises(DomainError):
        remainder_order_check("libera", DomainGamma(0.3), 0.4, [0.9, 0.99])


def test_remainder_order_bernardi_needs_beta():
    with pytest.raises(DomainError, match="needs beta"):
        remainder_order_check("bernardi", DomainGamma(0.3), 0.4, [0.9, 0.99])


@pytest.mark.parametrize("beta", [5.0, -3.0])
def test_remainder_order_cesaro_takes_no_beta(beta):
    # The Cesaro check ignored beta, even a negative one, and returned its slope.
    with pytest.raises(DomainError, match=f"^cesaro remainder check takes no beta, got {beta}"):
        remainder_order_check("cesaro", DomainGamma(0.3), 0.4, [0.9, 0.99], beta=beta)


# -------------------------------------------------------------- identity suite

def test_identity_suite_deviation_bound():
    report = identity_suite()
    assert report["max_deviation"] <= 1e-10


def test_identity_suite_compares_the_kernels_to_rounding():
    # Each side was a truncated fsum loop with its own 1e-13 cut, so the
    # deviation, 9.9e-14, measured that cut and no library kernel.
    report = identity_suite()
    assert list(report) == ["weighted_geometric", "averaged_geometric",
                            "partial_geometric_resummation", "max_deviation", "r_grid"]
    assert report["r_grid"] == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    assert report["max_deviation"] <= 1e-14


@pytest.mark.parametrize("name, keys", [
    ("lerch_tail_sum", ["weighted_geometric", "averaged_geometric",
                        "partial_geometric_resummation"]),
    ("_log1p_defect", ["weighted_geometric"]),
])
def test_identity_suite_reads_the_library_kernels(monkeypatch, name, keys):
    kernel = getattr(bk.extremal, name)

    def perturbed(*args):
        value, error = kernel(*args)
        return value * (1.0 + 1e-10), error

    monkeypatch.setattr(bk.extremal, name, perturbed)
    report = identity_suite()
    assert report["max_deviation"] > 1e-12
    assert all(report[key] > 1e-12 for key in keys)


def test_identity_closed_values_at_half():
    r = 0.5
    n = truncation_order(r, 1.0, 1e-13)
    ns = np.arange(1, n + 1)
    weighted = math.fsum(ns / (ns + 1.0) * np.power(r, ns))
    assert weighted == pytest.approx(2.0 - 2.0 * math.log(2.0), abs=1e-10)
    averaged = 1.0 + math.fsum(np.power(r, ns) / (ns + 1.0))
    assert averaged == pytest.approx(2.0 * math.log(2.0), abs=1e-10)


# ------------------------------------------------------- below-radius safety

def test_below_radius_safety_smoke():
    from bohrkit.series import SchurSampleSpec, sample_schur_omega
    gamma = 0.3
    dg = DomainGamma(gamma)
    r_c = 0.99 * cesaro_radius(dg).value
    r_b = 0.99 * bernardi_radius(dg, 2.0).value
    n_out = truncation_order(max(r_c, r_b))
    params = BernardiParams(2.0, 0)
    for seed in range(25):
        s = sample_schur_omega(SchurSampleSpec(seed % 5, 4000 + seed, dg), n_out)
        value, error = cesaro_majorant(s, r_c)
        assert value <= bk.log_bound(r_c) + 10.0 * error
        value, error = bernardi_majorant(s, params, r_b)
        assert value <= 0.5 + 10.0 * error
