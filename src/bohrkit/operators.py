"""Cesaro and Bernardi transforms in coefficient space.

The Cesaro transform averages partial sums, ``a_n -> (1/(n+1)) sum_{k<=n} a_k``,
and equals the integral ``int_0^1 f(tz)/(1 - tz) dt``.  The Bernardi transform
scales coefficients, ``a_n -> (1+beta) a_n / (beta+n)``, and equals
``(1+beta) z^{-beta} int_0^z f(xi) xi^{beta-1} dxi``.  The test suite checks
the coefficient route against an independent quadrature of these integrals.

Each operator majorant is ``series.majorant_eval`` of the operator's
transform of ``|a_n|``, in the normalization of its radius equation: the
Bernardi majorant ``sum |a_n| r^n / (n+beta)`` is that of the m = 0
transform *without* the (1+beta) prefactor that the operator carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .lerch import UNIT_ROUNDOFF, finite_real, nonnegative_int
from .lerch import lerch_tail_sum  # noqa: F401 (re-export)
from .series import TruncatedPowerSeries, majorant_eval

LEADING_ZERO_TOL = 1e-14


@dataclass(frozen=True)
class BernardiParams:
    """Exponent beta and vanishing order m of the Bernardi transform.

    The transform is defined for beta > -m acting on series with an m-fold
    zero at the origin.
    """

    beta: float
    m: int = 0

    def __post_init__(self):
        object.__setattr__(self, "m", nonnegative_int(self.m, "m"))
        object.__setattr__(self, "beta", finite_real(self.beta, "beta"))
        if self.beta <= -self.m:
            raise DomainError(f"beta must exceed -m, got beta={self.beta}, m={self.m}")


def _divide(z: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``z / d`` for real d, dividing the real and imaginary parts separately:
    numpy's complex division multiplies by a rounded reciprocal instead."""
    out = np.empty_like(z)
    out.real, out.imag = z.real / d, z.imag / d
    return out


def cesaro_transform(s: TruncatedPowerSeries) -> TruncatedPowerSeries:
    """Averaged-partial-sum coefficients ``c_n = (1/(n+1)) sum_{k<=n} a_k``.

    Tail policy: coefficients beyond the truncation satisfy
    ``|c_n| <= P/(N+2) + B`` where P is the absolute sum of the stored
    coefficients and B the input tail bound, and ``|c_n| <= max(max_k |a_k|,
    B)``, as every average of coefficients bounded by that is bounded by it
    too; the output tail bound is the smaller of the two.
    """
    a = s.coeffs
    c = _divide(np.cumsum(a), np.arange(1, s.order + 2))
    moduli = np.abs(a)
    tail = min(s.tail_bound + math.fsum(moduli) / (s.order + 2),
               max(float(moduli.max()), s.tail_bound))
    return TruncatedPowerSeries(c, tail)


def _moduli(s: TruncatedPowerSeries) -> TruncatedPowerSeries:
    """The series of ``|a_n|``, with the same tail bound."""
    return TruncatedPowerSeries(np.abs(s.coeffs), s.tail_bound)


def cesaro_majorant(s: TruncatedPowerSeries, r: float) -> tuple[float, float]:
    """``sum_n (1/(n+1)) (sum_{k<=n} |a_k|) r^n`` with certified error: the
    plain majorant of the Cesaro transform of ``|a_n|``, tail policy and all.

    The transform's rounding is added: |a_k| carries 8u (a numpy loop within
    4 ulp), the running sum of n+1 nonnegative terms nu and the division u,
    so every coefficient, and with it the value, is within (N+9)u relatively,
    N the order of s.
    """
    value, error = majorant_eval(cesaro_transform(_moduli(s)), r)
    return value, error + (s.order + 9) * UNIT_ROUNDOFF * value


def _require_leading_zeros(s: TruncatedPowerSeries, p: BernardiParams) -> None:
    """Raise PreconditionError unless the stored a_0..a_(m-1) vanish."""
    lead = s.coeffs[: p.m]
    if lead.size and float(np.max(np.abs(lead))) > LEADING_ZERO_TOL:
        raise PreconditionError(
            f"coefficients a_0..a_{p.m - 1} must vanish (<= {LEADING_ZERO_TOL}) "
            f"for m={p.m}")


def bernardi_transform(s: TruncatedPowerSeries,
                       p: BernardiParams) -> TruncatedPowerSeries:
    """Coefficients ``c_n = (1+beta) a_n / (beta+n)`` for n >= m, zero below.

    Requires the input to actually have the m-fold zero its parameters claim.
    """
    _require_leading_zeros(s, p)
    a = s.coeffs
    n = np.arange(s.order + 1)
    c = np.zeros_like(a)
    keep = n >= p.m
    c[keep] = _divide((1.0 + p.beta) * a[keep], p.beta + n[keep])
    denom = max(s.order + 1, p.m) + p.beta
    tail = (1.0 + p.beta) * s.tail_bound / denom
    return TruncatedPowerSeries(c, tail)


def bernardi_majorant(s: TruncatedPowerSeries, p: BernardiParams,
                      r: float) -> tuple[float, float]:
    """``sum_{n>=0} |a_n| r^n / (n+beta)`` with certified error: the plain
    majorant of the m = 0 Bernardi transform of ``|a_n|`` over its (1+beta)
    prefactor.  Summation starts at n = 0, hence beta > 0 is required here.

    The transform's rounding is added: |a_n| carries 8u (a numpy loop within
    4 ulp), the product, the denominator and the division u each, and the
    division by the prefactor u; the prefactor's own rounding cancels in it.
    That is 12u relative to the value."""
    if p.beta <= 0.0:
        raise DomainError("the Bernardi majorant normalization needs beta > 0")
    value, error = majorant_eval(bernardi_transform(_moduli(s), BernardiParams(p.beta)), r)
    value /= 1.0 + p.beta
    return value, error / (1.0 + p.beta) + 12.0 * UNIT_ROUNDOFF * value


def log_bound(r: float) -> float:
    """The comparison bound ``(1/r) ln(1/(1-r))``, equal to 1 at r = 0.

    Below r = 1e-4 a six-term Taylor expansion avoids the 0/0 cancellation.
    """
    if not 0.0 <= (r := finite_real(r, "radius", "lie in [0, 1)")) < 1.0:
        raise DomainError(f"radius must lie in [0, 1), got {r}")
    if r < 1e-4:
        # 1 + r/2 + r^2/3 + ... ; the omitted term r^6/7 is < 2e-29 here.
        return (((((r / 6 + 1.0 / 5) * r + 1.0 / 4) * r + 1.0 / 3) * r + 1.0 / 2) * r + 1.0)
    return -math.log1p(-r) / r
