"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's own computation paths:
coefficients come from Cauchy-integral quadrature or exact rational
bookkeeping, radii from 40-digit bracketed root finding on the defining
equations, tail sums from mpmath's Gauss function, operator values from
tanh-sinh quadrature of the defining integrals with the integrand's
polynomial evaluated by ``np.polyval``, and closed forms are written out
directly.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from mpmath import mp

from bohrkit.errors import DomainError, NumericalError, PreconditionError
from bohrkit.series import TruncatedPowerSeries

QUAD_TARGET = 1e-12
QUAD_LEVELS = 8  # the finest step is h = 2**-QUAD_LEVELS

# Tanh-sinh (double-exponential) rule on [0, 1] (Takahasi & Mori, 1974) at
# the finest step, for x = kh in [-6, 6]: nodes t = 1/(1 + exp(-pi sinh x)),
# with 1 - t = 1/(1 + exp(pi sinh x)) formed directly so that no node near 1
# cancels, and weights pi cosh(x) t (1-t) per unit of h.  A coarser level
# takes every 2**(QUAD_LEVELS - level)-th node.
_TS_X = np.arange(-6 * 2 ** QUAD_LEVELS, 6 * 2 ** QUAD_LEVELS + 1) / 2.0 ** QUAD_LEVELS
_TS_T = 1.0 / (1.0 + np.exp(-np.pi * np.sinh(_TS_X)))
_TS_W = np.pi * np.cosh(_TS_X) * _TS_T / (1.0 + np.exp(np.pi * np.sinh(_TS_X)))


def cauchy_coeffs(f, n_max, radius=0.5, samples=4096):
    """Taylor coefficients of f via trapezoidal Cauchy integrals on |z| = radius.

    Exponentially accurate for f analytic on a disk strictly larger than
    radius; the caller picks radius well inside the nearest singularity.
    """
    zs = radius * np.exp(2j * np.pi * np.arange(samples) / samples)
    vals = np.array([f(z) for z in zs])
    hat = np.fft.fft(vals) / samples
    return hat[: n_max + 1] / radius ** np.arange(n_max + 1)


def extremal_coeffs(p, n_out):
    """Taylor coefficients (A_0, -A_1, ..., -A_N) of the extremal function of
    ``p`` (an ``ExtremalParams``), written out from their closed form.

    The coefficient moduli decay geometrically with ratio
    q = a(1-gamma)/(1-a*gamma) < 1, so ``|A_(N+1)|`` bounds every omitted
    coefficient and is used as the tail bound.  The function maps Omega_gamma
    into the unit disk, hence the series is Schur-class.
    """
    a, g = p.a, p.gamma.gamma
    q = a * (1.0 - g) / (1.0 - a * g)
    a0 = (a - g) / (1.0 - a * g)
    lead = (1.0 - a * a) / (a * (1.0 - a * g))
    coeffs = np.concatenate(([a0], -lead * q ** np.arange(1, n_out + 1)))
    return TruncatedPowerSeries(coeffs, min(lead * q ** (n_out + 1), 1.0))


def extremal_eval(p, z):
    """The extremal function in closed rational form (no truncation)."""
    a, g = p.a, p.gamma.gamma
    return (a - g - (1.0 - g) * z) / (1.0 - a * g - a * (1.0 - g) * z)


# Exact complex-rational arithmetic: numbers are (Fraction, Fraction) pairs.

def _cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def rational_blaschke_coeffs(zeros, n_max):
    """Exact-rational Taylor coefficients of prod (a - z)/(1 - conj(a) z).

    zeros are (re, im) Fraction pairs.  Multiplying a series f by one factor
    gives h with ``h(z) (1 - conj(a) z) = f(z) (a - z)``, so
    ``h_k = conj(a) h_(k-1) + a f_k - f_(k-1)``: each factor costs O(n_max)
    exact operations.  The result is returned as complex floats.
    """
    zero = (Fraction(0), Fraction(0))
    acc = [(Fraction(1), Fraction(0))] + [zero] * n_max
    for a in zeros:
        conj = (a[0], -a[1])
        out, prev_h, prev_f = [], zero, zero
        for f in acc:
            t = _cadd(_cmul(conj, prev_h), _cmul(a, f))
            prev_h, prev_f = (t[0] - prev_f[0], t[1] - prev_f[1]), f
            out.append(prev_h)
        acc = out
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
    at root -+ 1e-35, so the root is certified to that width.  mpmath's
    default stop, ``|f| < 2**10 eps``, lands far from a root where f is
    small and flat; the tolerance ``(eps max(|f(lo)|, |f(hi)|))**2`` is
    below anything the iteration reaches, so it runs until the bracket
    closes or its step limit, and the sign check alone judges the root.
    """
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    f_lo, f_hi = f(lo), f(hi)
    assert mp.sign(f_lo) != mp.sign(f_hi)
    tol = (mp.eps * max(abs(f_lo), abs(f_hi))) ** 2
    root = mp.findroot(f, (lo, hi), solver="anderson", tol=tol, verify=False)
    eps = mp.mpf("1e-35")
    assert mp.sign(f(root - eps)) * mp.sign(f(root + eps)) < 0
    return root


def mp_cesaro_equation(gamma):
    """``x -> (3+gamma)(1-x) ln(1/(1-x)) - 2x`` at mp.dps digits."""
    g = mp.mpf(gamma)
    return lambda x: (3 + g) * (1 - x) * mp.log(1 / (1 - x)) - 2 * x


def mp_cesaro_radius(gamma, dps=40):
    """40-digit root of (3+gamma)(1-x) ln(1/(1-x)) = 2x on [1e-6, 1 - 1e-12]."""
    with mp.workdps(dps):
        f = mp_cesaro_equation(gamma)
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


def _quad_complex(f, what):
    """Tanh-sinh quadrature of a vectorized complex integrand over [0, 1].

    The step h halves from 1/2, each level adding the nodes between the
    previous ones, until two levels agree to QUAD_TARGET relative to the
    integral of ``|f|``.  The terms at ``x = -+6``, where the rule is cut
    off, must be that small too, or the cut-off tails are not: an integrand
    such as ``t^(e-1)`` for e below about 0.05, or the non-integrable
    ``1/t``, raises NumericalError rather than return a value.
    """
    total = mass = 0.0
    previous = None
    for level in range(1, QUAD_LEVELS + 1):
        stride = 2 ** (QUAD_LEVELS - level)
        new = slice(0, None, stride) if level == 1 else slice(stride, None, 2 * stride)
        terms = _TS_W[new] * f(_TS_T[new])
        if level == 1:
            cut = max(abs(terms[0]), abs(terms[-1]))
        total += terms.sum()
        mass += np.abs(terms).sum()
        value, scale = total * 2.0 ** -level, QUAD_TARGET * mass * 2.0 ** -level
        if previous is not None and max(abs(value - previous), cut) <= scale:
            return complex(value)
        previous = value
    raise NumericalError(f"{what}: tanh-sinh quadrature did not converge to "
                         f"{QUAD_TARGET:g} by h = 2**-{QUAD_LEVELS}")


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
    coeffs = s.coeffs[::-1]
    return _quad_complex(lambda t: np.polyval(coeffs, t * z) / (1.0 - t * z),
                         "cesaro_integral_oracle")


def bernardi_integral_oracle(s, z, p):
    """Quadrature of ``(1+beta) int_0^1 f(tz) t^(beta-1) dt``.

    The m-fold zero is factored out analytically, leaving the integrand
    ``g(tz) t^(m+beta-1)`` with exponent m + beta - 1 > -1; the tanh-sinh
    nodes cluster at t = 0 fast enough to integrate its endpoint
    singularity as it stands for m + beta down to about 0.05.
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError(f"evaluation point must satisfy |z| < 1, got |z| = {abs(z)}")
    if np.max(np.abs(s.coeffs[: p.m]), initial=0.0) > 1e-14:
        raise PreconditionError(f"coefficients a_0..a_{p.m - 1} must vanish for m={p.m}")
    if z == 0:
        if p.m >= 1:
            return 0.0 + 0.0j
        return (1.0 + p.beta) * complex(s.coeffs[0]) / p.beta
    coeffs = s.coeffs[p.m:][::-1]
    power = p.m + p.beta - 1.0
    val = _quad_complex(lambda t: np.polyval(coeffs, t * z) * t ** power,
                        "bernardi_integral_oracle")
    return (1.0 + p.beta) * z ** p.m * val
