"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's own computation paths:
coefficients come from Cauchy-integral quadrature or exact rational
bookkeeping, radii from 40-digit bracketed root finding on the defining
equations, tail sums from mpmath's Gauss function, operator values from
adaptive quadrature of the defining integrals, and closed forms are written
out directly.
"""

import math
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np
from mpmath import mp
from scipy.integrate import IntegrationWarning, quad

from bohrkit.errors import DomainError, NumericalError
from bohrkit.operators import _require_leading_zeros
from bohrkit.series import TruncatedPowerSeries

QUAD_TARGET = 1e-12
QUAD_LIMIT = 200


def cauchy_coeffs(f, n_max, radius=0.5, samples=4096):
    """Taylor coefficients of f via trapezoidal Cauchy integrals on |z| = radius.

    Exponentially accurate for f analytic on a disk strictly larger than
    radius; the caller picks radius well inside the nearest singularity.
    """
    zs = radius * np.exp(2j * np.pi * np.arange(samples) / samples)
    vals = np.array([f(z) for z in zs])
    hat = np.fft.fft(vals) / samples
    return hat[: n_max + 1] / radius ** np.arange(n_max + 1)


# Exact complex-rational arithmetic: numbers are (Fraction, Fraction) pairs.

def _cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _poly_mul(p, q, n_max):
    out = [(Fraction(0), Fraction(0))] * (n_max + 1)
    for i, pi in enumerate(p):
        if i > n_max:
            break
        for j, qj in enumerate(q):
            if i + j > n_max:
                break
            out[i + j] = _cadd(out[i + j], _cmul(pi, qj))
    return out


def rational_blaschke_coeffs(zeros, n_max):
    """Exact-rational Taylor coefficients of prod (a - z)/(1 - conj(a) z).

    zeros are (re, im) Fraction pairs.  Each factor expands as
    a - (1 - |a|^2) sum conj(a)^(n-1) z^n; factors are multiplied with exact
    rational bookkeeping and the result returned as complex floats.
    """
    acc = [(Fraction(1), Fraction(0))] + [(Fraction(0), Fraction(0))] * n_max
    for a in zeros:
        conj = (a[0], -a[1])
        mod2 = a[0] * a[0] + a[1] * a[1]
        one_minus = (Fraction(1) - mod2, Fraction(0))
        factor = [a]
        power = (Fraction(1), Fraction(0))
        for _ in range(n_max):
            factor.append(_cmul((-one_minus[0], -one_minus[1]), power))
            power = _cmul(power, conj)
        acc = _poly_mul(acc, factor, n_max)
    return np.array([complex(c[0], c[1]) for c in acc])


def blaschke_eval(zeros, phase, z):
    """Direct product evaluation of a finite Blaschke product."""
    out = complex(phase)
    for a in zeros:
        out *= (a - z) / (1.0 - np.conj(a) * z)
    return out


def mp_findroot(f, lo, hi):
    """Root of f on [lo, hi] at mp.dps digits by Anderson's bracketing method.

    f(lo) and f(hi) must differ in sign; the sign change is asserted again
    at root -+ 1e-35, so the root is certified to that width.
    """
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    assert mp.sign(f(lo)) != mp.sign(f(hi))
    root = mp.findroot(f, (lo, hi), solver="anderson")
    eps = mp.mpf("1e-35")
    assert mp.sign(f(root - eps)) * mp.sign(f(root + eps)) < 0
    return root


def mp_cesaro_radius(gamma, dps=40):
    """40-digit root of (3+gamma)(1-x) ln(1/(1-x)) = 2x on [1e-6, 1 - 1e-12]."""
    with mp.workdps(dps):
        g = mp.mpf(gamma)
        f = lambda x: (3 + g) * (1 - x) * mp.log(1 / (1 - x)) - 2 * x
        return float(mp_findroot(f, mp.mpf("1e-6"), 1 - mp.mpf("1e-12")))


def mp_tail_sum(r, beta, start=1):
    """``sum_{n>=start} r^n/(n+beta)`` at mp.dps digits, through the Gauss function
    ``r^start/(start+beta) 2F1(1, start+beta; start+beta+1; r)``."""
    r, a = mp.mpf(r), start + mp.mpf(beta)
    return r ** start / a * mp.hyp2f1(1, a, a + 1, r)


@lru_cache(maxsize=64)
def _mp_tail_sum_at(r, beta, prec):
    """``mp_tail_sum(r, beta)`` at binary precision prec for doubles r and beta,
    cached: every a of a remainder ladder needs the same value."""
    with mp.workprec(prec):
        return mp_tail_sum(r, beta)


def mp_bernardi_equation(gamma, beta):
    """``r -> 1/beta - (2/(1+gamma)) sum_{n>=1} r^n/(n+beta)`` at mp.dps digits."""
    g, b = mp.mpf(gamma), mp.mpf(beta)
    return lambda r: 1 / b - (2 / (1 + g)) * mp_tail_sum(r, b)


def mp_bernardi_radius(gamma, beta, dps=40):
    """40-digit root of 1/beta = (2/(1+gamma)) sum_{n>=1} r^n/(n+beta).

    The bracket [1e-6, 1 - 1e-15] also holds the roots within 1e-13 of 1
    that small beta gives.
    """
    with mp.workdps(dps):
        f = mp_bernardi_equation(gamma, beta)
        return float(mp_findroot(f, mp.mpf("1e-6"), 1 - mp.mpf("1e-15")))


def cesaro_extremal_closed_form(a, gamma, r):
    """Two-logarithm closed form of the Cesaro majorant of the extremal family.

    Derived by geometric resummation of the double sum:
    ((a-g) + (1+a)(1-g))/(r(1-ag)) * L(r) - ((1+a)/(a r)) * L(q r),
    with L(x) = ln(1/(1-x)) and q = a(1-g)/(1-ag).
    """
    q = a * (1.0 - gamma) / (1.0 - a * gamma)
    ell = lambda x: -math.log1p(-x)
    return (((a - gamma) + (1.0 + a) * (1.0 - gamma)) / (r * (1.0 - a * gamma)) * ell(r)
            - (1.0 + a) / (a * r) * ell(q * r))


def bernardi_extremal_closed_form(a, gamma, beta, r, terms=200000):
    """Direct high-order summation of sum |A_n| r^n/(n+beta) for the extremal family."""
    q = a * (1.0 - gamma) / (1.0 - a * gamma)
    a0 = (a - gamma) / (1.0 - a * gamma)
    lead = (1.0 - a * a) / (a * (1.0 - a * gamma))
    ns = np.arange(1, terms + 1)
    return a0 / beta + lead * math.fsum(np.power(q * r, ns) / (ns + beta))


def mp_extremal_remainder(a, gamma, r, beta=None, dps=50):
    """``majorant - bound - first_order`` of the extremal family at dps digits.

    beta=None selects Cesaro, whose majorant is the two-logarithm closed form
    ``((a-g) + (1+a)(1-g))/(r d) L(r) - ((1+a)/(a r)) L(q r)`` with
    L(x) = ln(1/(1-x)), d = 1 - a g and q = a(1-g)/d; its bound is L(r)/r
    and its first-order term ``((1-a)/d) (2r + (3+g)(1-r) ln(1-r))/(r(1-r))``.
    The Bernardi majorant is ``A_0/beta + lead * sum_{n>=1} (qr)^n/(n+beta)``
    through the Gauss function (``mp_tail_sum``); its bound is 1/beta and its
    first-order term ``-((1-a)(1+g)/d) (1/beta - (2/(1+g)) sum r^n/(n+beta))``.
    The inputs are taken as exact binary values.
    """
    with mp.workdps(dps):
        a, g, r = mp.mpf(a), mp.mpf(gamma), mp.mpf(r)
        d = 1 - a * g
        q = a * (1 - g) / d
        if beta is None:
            ell = lambda x: -mp.log(1 - x)
            majorant = (((a - g) + (1 + a) * (1 - g)) / (r * d) * ell(r)
                        - (1 + a) / (a * r) * ell(q * r))
            first = (1 - a) / d * (2 * r + (3 + g) * (1 - r) * mp.log(1 - r)) / (r * (1 - r))
            return majorant - ell(r) / r - first
        b = mp.mpf(beta)
        majorant = (a - g) / d / b + (1 - a * a) / (a * d) * mp_tail_sum(q * r, b)
        level = _mp_tail_sum_at(float(r), float(b), mp.prec)
        first = -(1 - a) * (1 + g) / d * (1 / b - 2 / (1 + g) * level)
        return majorant - 1 / b - first


def _quad_complex(f, a, b, what):
    """Adaptive quadrature of a complex integrand over [a, b]."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            re, re_err = quad(lambda t: f(t).real, a, b,
                              epsabs=QUAD_TARGET, epsrel=QUAD_TARGET, limit=QUAD_LIMIT)
            im, im_err = quad(lambda t: f(t).imag, a, b,
                              epsabs=QUAD_TARGET, epsrel=QUAD_TARGET, limit=QUAD_LIMIT)
        except IntegrationWarning as exc:
            raise NumericalError(f"{what}: quadrature did not converge ({exc})") from exc
    if re_err + im_err > 1e-8:
        raise NumericalError(
            f"{what}: quadrature error estimate {re_err + im_err:.3e} exceeds 1e-8")
    return complex(re, im)


def cesaro_integral_oracle(s, z):
    """Quadrature of ``int_0^1 f(tz) / (1 - tz) dt`` for the truncated f.

    Independent of the coefficient route: f is evaluated directly, so the
    result checks cesaro_transform within quadrature plus truncation error.
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError(f"evaluation point must satisfy |z| < 1, got |z| = {abs(z)}")
    if z == 0:
        return complex(s.coeffs[0])
    return _quad_complex(lambda t: s.eval(t * z) / (1.0 - t * z), 0.0, 1.0,
                         "cesaro_integral_oracle")


def bernardi_integral_oracle(s, z, p):
    """Quadrature of ``(1+beta) int_0^1 f(tz) t^(beta-1) dt``.

    The m-fold zero is factored out analytically, leaving the exponent
    m + beta - 1 > -1; when m + beta < 1 the remaining integrable endpoint
    singularity is removed exactly by substituting t = u**(1/(m+beta)).
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError(f"evaluation point must satisfy |z| < 1, got |z| = {abs(z)}")
    _require_leading_zeros(s, p)
    g = TruncatedPowerSeries(s.coeffs[p.m:] if s.order >= p.m else (0.0,), s.tail_bound)
    if z == 0:
        if p.m >= 1:
            return 0.0 + 0.0j
        return (1.0 + p.beta) * complex(s.coeffs[0]) / p.beta
    exponent = p.m + p.beta
    if exponent >= 1.0:
        val = _quad_complex(lambda t: g.eval(t * z) * t ** (exponent - 1.0),
                            0.0, 1.0, "bernardi_integral_oracle")
    else:
        val = _quad_complex(lambda u: g.eval(u ** (1.0 / exponent) * z) / exponent,
                            0.0, 1.0, "bernardi_integral_oracle")
    return (1.0 + p.beta) * z ** p.m * val
