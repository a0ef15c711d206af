"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import json
import math
import time

import numpy as np
import pytest

import bohrkit as bk
from bohrkit import cli
from bohrkit.extremal import (ExtremalParams, bernardi_extremal_decomposition,
                              bernardi_first_order_factor,
                              cesaro_extremal_decomposition,
                              cesaro_first_order_factor, remainder_order_check,
                              sharpness_scan_bernardi, sharpness_scan_cesaro)
from bohrkit.operators import BernardiParams, bernardi_majorant, cesaro_majorant
from bohrkit.series import (DomainGamma, SchurSampleSpec, blaschke_coeffs,
                            lemma1_check, majorant_eval, polynomial,
                            sample_schur_omega, truncation_order)
from oracles import bernardi_integral_oracle, cesaro_integral_oracle, extremal_coeffs


def report(num, ok, detail):
    print(f"\ncriterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def seeded_samples(gamma, count, n_out, seed, degree_max=8):
    master = np.random.default_rng(seed)
    dg = DomainGamma(gamma)
    for _ in range(count):
        degree = int(master.integers(0, degree_max + 1))
        child = int(master.integers(0, 2 ** 63))
        yield sample_schur_omega(SchurSampleSpec(degree, child, dg), n_out)


def random_polynomial(rng, degree=12):
    coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    coeffs /= np.max(np.abs(coeffs))
    return polynomial(coeffs)


def test_criterion_01_unit_disk_cesaro_constant(capsys):
    start = time.perf_counter()
    code = cli.main(["radius", "cesaro", "--gamma", "0"])
    elapsed = time.perf_counter() - start
    doc = json.loads(capsys.readouterr().out)
    ok = (code == 0 and abs(doc["radius"] - 0.5335) <= 5e-4
          and doc["residual"] <= 1e-10 and elapsed < 0.1)
    with capsys.disabled():
        report(1, ok, f"radius={doc['radius']:.10f} residual={doc['residual']:.1e} "
                      f"runtime={elapsed * 1000:.1f}ms")
    assert code == 0
    assert abs(doc["radius"] - 0.5335) <= 5e-4
    assert doc["residual"] <= 1e-10
    assert elapsed < 0.1


def test_criterion_02_classical_bohr_cross_check():
    start = time.perf_counter()
    bohr = bk.bohr_radius_omega(DomainGamma(0.0))
    exact = abs(bohr - 1.0 / 3.0) <= 1e-12
    r = 1.0 / 3.0
    n_out = truncation_order(r)
    worst = 0.0
    for s in seeded_samples(0.0, 1000, n_out, seed=20240201):
        value, error = majorant_eval(s, r)
        worst = max(worst, value - error)  # error certifies the omitted tail
        assert value <= 1.0 + 1e-9
    elapsed = time.perf_counter() - start
    ok = exact and elapsed < 10.0
    report(2, ok, f"bohr={bohr:.15f} worst majorant={worst:.12f} "
                  f"runtime={elapsed:.2f}s over 1000 samples")
    assert exact
    assert elapsed < 10.0


def test_criterion_03_radius_certificates_and_monotonicity():
    cesaro_values = []
    for gamma in (0.0, 0.25, 0.5, 0.75):
        res = bk.cesaro_radius(DomainGamma(gamma))
        g = lambda x: (3.0 + gamma) * (1.0 - x) * (-math.log1p(-x)) - 2.0 * x
        assert abs(g(res.value)) <= 1e-10
        cesaro_values.append(res.value)
    assert all(b > a for a, b in zip(cesaro_values, cesaro_values[1:]))

    bernardi_table = {}
    for gamma in (0.0, 0.5):
        for beta in (1.0, 2.0, 5.0):
            res = bk.bernardi_radius(DomainGamma(gamma), beta)
            value, series_error = bk.lerch_tail_sum(res.value, beta)
            residual = abs(1.0 / beta - 2.0 / (1.0 + gamma) * value)
            assert residual <= 1e-10
            assert series_error <= 1e-13
            bernardi_table[(gamma, beta)] = res.value
    for beta in (1.0, 2.0, 5.0):
        assert bernardi_table[(0.5, beta)] > bernardi_table[(0.0, beta)]
    for gamma in (0.0, 0.5):
        row = [bernardi_table[(gamma, b)] for b in (1.0, 2.0, 5.0)]
        diffs = [y - x for x, y in zip(row, row[1:])]
        strictly_monotone = all(d < 0 for d in diffs) or all(d > 0 for d in diffs)
        assert strictly_monotone
    report(3, True, "residuals <= 1e-10, series error <= 1e-13; radii strictly "
                    "increasing in gamma, strictly monotone (decreasing) in beta")


def test_criterion_04_below_radius_cesaro():
    start = time.perf_counter()
    violations = 0
    for gamma in (0.0, 0.3, 0.6):
        dg = DomainGamma(gamma)
        r = 0.99 * bk.cesaro_radius(dg).value
        bound = bk.log_bound(r)
        n_out = truncation_order(r)
        for s in seeded_samples(gamma, 200, n_out, seed=20240304):
            value, error = cesaro_majorant(s, r)
            if value > bound + 10.0 * error:
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60.0
    report(4, ok, f"violations={violations}/600 runtime={elapsed:.2f}s")
    assert violations == 0
    assert elapsed < 60.0


def test_criterion_05_below_radius_bernardi():
    violations = 0
    for gamma in (0.0, 0.3, 0.6):
        for beta in (1.0, 2.0):
            dg = DomainGamma(gamma)
            r = 0.99 * bk.bernardi_radius(dg, beta).value
            params = BernardiParams(beta, 0)
            n_out = truncation_order(r)
            for s in seeded_samples(gamma, 200, n_out, seed=20240405):
                value, error = bernardi_majorant(s, params, r)
                if value > 1.0 / beta + 10.0 * error:
                    violations += 1
    ok = violations == 0
    report(5, ok, f"violations={violations}/1200")
    assert violations == 0


def test_criterion_06_sharpness_witnesses():
    ces = sharpness_scan_cesaro(DomainGamma(0.0), 0.55, (0.99, 0.999, 0.9999))
    ber = sharpness_scan_bernardi(DomainGamma(0.0), 1.0, 0.62, (0.99, 0.999, 0.9999))
    ok = ces.witness_found and ber.witness_found
    report(6, ok, f"cesaro margins={['%.2e' % m for m in ces.margins]}, "
                  f"bernardi margins={['%.2e' % m for m in ber.margins]}")
    assert ces.witness_found
    assert ber.witness_found


def test_criterion_07_remainder_order():
    ladder = [1.0 - 10.0 ** -k for k in range(1, 5)]
    slope_cesaro = remainder_order_check("cesaro", DomainGamma(0.3), 0.4, ladder)
    slope_bernardi = remainder_order_check("bernardi", DomainGamma(0.2), 0.3,
                                           ladder, beta=1.0)
    ok = 1.8 <= slope_cesaro <= 2.2 and 1.8 <= slope_bernardi <= 2.2
    report(7, ok, f"cesaro slope={slope_cesaro:.3f}; bernardi slope="
                  f"{slope_bernardi:.3f} (expected in [1.8, 2.2])")
    assert 1.8 <= slope_cesaro <= 2.2
    assert 1.8 <= slope_bernardi <= 2.2


def test_criterion_08_decomposition_exactness_and_sign_flip():
    worst = 0.0
    for gamma in (0.0, 0.2, 0.4, 0.6):
        dg = DomainGamma(gamma)
        for a in (0.65, 0.8, 0.9, 0.99):
            p = ExtremalParams(a, dg)
            for r in (0.2, 0.4, 0.6, 0.8):
                # Order certifying 1e-13 for the series' majorant tail.
                q = a * (1.0 - gamma) / (1.0 - a * gamma)
                lead = (1.0 - a * a) / (a * (1.0 - a * gamma))
                abs_sum = (a - gamma) / (1.0 - a * gamma) + lead * q / (1.0 - q)
                series = extremal_coeffs(
                    p, truncation_order(r, tail_bound=max(1.0, abs_sum), target=1e-13))
                d = cesaro_extremal_decomposition(p, r)
                direct, _ = cesaro_majorant(series, r)
                worst = max(worst, abs(d.bound + d.first_order + d.remainder - direct))
                for beta in (1.0, 2.0, 5.0):
                    db = bernardi_extremal_decomposition(p, beta, r)
                    direct_b, _ = bernardi_majorant(series, BernardiParams(beta, 0), r)
                    worst = max(worst, abs(db.bound + db.first_order + db.remainder
                                           - direct_b))
    assert worst <= 1e-10

    for gamma in (0.0, 0.4):
        dg = DomainGamma(gamma)
        root = bk.cesaro_radius(dg).value
        assert cesaro_first_order_factor(dg, root - 1e-6) < 0.0
        assert cesaro_first_order_factor(dg, root + 1e-6) > 0.0
        for beta in (1.0, 2.0):
            root = bk.bernardi_radius(dg, beta).value
            assert bernardi_first_order_factor(dg, beta, root - 1e-6) > 0.0
            assert bernardi_first_order_factor(dg, beta, root + 1e-6) < 0.0
    report(8, True, f"worst reconstruction deviation={worst:.2e}; first-order "
                    f"factors flip sign at radius +/- 1e-6")


def test_criterion_09_lemma1_property_suite():
    total = 0
    worst_ratio = 0.0
    gamma_zero_max = 0.0
    for gamma in (0.0, 0.25, 0.5, 0.75):
        rep = lemma1_check(DomainGamma(gamma), 1000, 8, 64, seed=20240907)
        total += rep.samples
        worst_ratio = max(worst_ratio, rep.max_ratio)
        if gamma == 0.0:
            gamma_zero_max = rep.max_ratio
        assert rep.max_ratio <= 1.0 + 1e-9
    assert total >= 4000
    # Equality case at n=1: a single Mobius factor on the unit disk attains
    # |a_1| = 1 - |a_0|^2 exactly.
    phi = blaschke_coeffs([0.6], 1.0, 4)
    mags = np.abs(phi.coeffs)
    ratio_n1 = mags[1] / (1.0 - mags[0] ** 2)
    assert ratio_n1 >= 1.0 - 1e-9
    assert gamma_zero_max >= 1.0 - 1e-9
    ok = worst_ratio <= 1.0 + 1e-9
    report(9, ok, f"{total} samples, max ratio={worst_ratio:.15f}, "
                  f"equality case at n=1 ratio={ratio_n1:.15f}")


def test_criterion_10_series_integral_equivalence():
    rng = np.random.default_rng(20241010)
    pad_to = truncation_order(0.85)
    worst_c = worst_b = 0.0
    betas = (0.5, 1.0, 2.0, 5.0)
    for i in range(50):
        poly = random_polynomial(rng)
        ces = bk.cesaro_transform(poly.padded(pad_to))
        params = BernardiParams(betas[i % 4], 0)
        ber = bk.bernardi_transform(poly, params)
        for _ in range(20):
            z = 0.8 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            worst_c = max(worst_c, abs(cesaro_integral_oracle(poly, z) - ces.eval(z)))
            worst_b = max(worst_b, abs(bernardi_integral_oracle(poly, z, params)
                                       - ber.eval(z)))
    ok = worst_c <= 1e-8 and worst_b <= 1e-8
    report(10, ok, f"worst cesaro deviation={worst_c:.2e}, "
                   f"worst bernardi deviation={worst_b:.2e} over 50x20 points each")
    assert worst_c <= 1e-8
    assert worst_b <= 1e-8
