"""Cesaro and Bernardi transforms in coefficient space.

The Cesaro transform averages partial sums, ``a_n -> (1/(n+1)) sum_{k<=n} a_k``,
and equals the integral ``int_0^1 f(tz)/(1 - tz) dt``.  The Bernardi transform
scales coefficients, ``a_n -> (1+beta) a_n / (beta+n)``, and equals
``(1+beta) z^{-beta} int_0^z f(xi) xi^{beta-1} dxi``.  The test suite checks
the coefficient route against an independent quadrature of these integrals.

Majorant evaluations follow the normalizations of the radius equations: the
Cesaro majorant carries the 1/(n+1) averaging weights, the Bernardi majorant
is ``sum |a_n| r^n / (n+beta)`` *without* the (1+beta) prefactor that the
operator itself carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, PreconditionError
from .series import ORDER_CAP, TruncatedPowerSeries

LERCH_TAIL_TARGET = 1e-13
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
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 0):
            raise DomainError(f"m must be a nonnegative integer, got {self.m}")
        object.__setattr__(self, "m", int(self.m))
        if not (isinstance(self.beta, (int, float)) and math.isfinite(self.beta)):
            raise DomainError("beta must be a finite real")
        object.__setattr__(self, "beta", float(self.beta))
        if self.beta <= -self.m:
            raise DomainError(f"beta must exceed -m, got beta={self.beta}, m={self.m}")


def cesaro_transform(s: TruncatedPowerSeries) -> TruncatedPowerSeries:
    """Averaged-partial-sum coefficients ``c_n = (1/(n+1)) sum_{k<=n} a_k``.

    Tail policy: coefficients beyond the truncation satisfy
    ``|c_n| <= P/(N+2) + B`` where P is the absolute sum of the stored
    coefficients and B the input tail bound; for Schur-class input every
    |a_k| <= 1 so the output tail bound is also capped at 1.
    """
    a = s.coeffs
    prefix = np.cumsum(a)
    c = prefix / np.arange(1, s.order + 2)
    p = math.fsum(np.abs(a))
    tail = s.tail_bound + p / (s.order + 2)
    if s.schur:
        tail = min(tail, 1.0)
    return TruncatedPowerSeries(c, tail)


def cesaro_majorant(s: TruncatedPowerSeries, r: float) -> tuple[float, float]:
    """``sum_n (1/(n+1)) (sum_{k<=n} |a_k|) r^n`` with certified tail error.

    The omitted coefficients of the majorant transform are bounded by
    ``P/(N+2) + B`` (capped at 1 for Schur input), giving the error term
    ``bound * r**(N+1) / (1-r)``.
    """
    if not 0.0 <= r < 1.0:
        raise DomainError(f"majorant radius must lie in [0, 1), got {r}")
    mags = np.abs(s.coeffs)
    weights = np.cumsum(mags) / np.arange(1, s.order + 2)
    value = math.fsum(weights * np.power(r, np.arange(s.order + 1)))
    p = math.fsum(mags)
    coeff_bound = p / (s.order + 2) + s.tail_bound
    if s.schur:
        coeff_bound = min(coeff_bound, 1.0)
    error = coeff_bound * r ** (s.order + 1) / (1.0 - r)
    return value, error


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
    c[keep] = (1.0 + p.beta) * a[keep] / (p.beta + n[keep])
    denom = max(s.order + 1, p.m) + p.beta
    tail = (1.0 + p.beta) * s.tail_bound / denom
    return TruncatedPowerSeries(c, tail)


def bernardi_majorant(s: TruncatedPowerSeries, p: BernardiParams,
                      r: float) -> tuple[float, float]:
    """``sum_{n>=0} |a_n| r^n / (n+beta)`` with certified tail error.

    Uses the radius-equation normalization: no (1+beta) prefactor, summation
    from n = 0, hence beta > 0 is required here.
    """
    if not 0.0 <= r < 1.0:
        raise DomainError(f"majorant radius must lie in [0, 1), got {r}")
    if p.beta <= 0.0:
        raise DomainError("the Bernardi majorant normalization needs beta > 0")
    mags = np.abs(s.coeffs)
    n = np.arange(s.order + 1)
    value = math.fsum(mags * np.power(r, n) / (n + p.beta))
    error = s.tail_bound * r ** (s.order + 1) / ((s.order + 1 + p.beta) * (1.0 - r))
    return value, error


def log_bound(r: float) -> float:
    """The comparison bound ``(1/r) ln(1/(1-r))``, equal to 1 at r = 0.

    Below r = 1e-4 a six-term Taylor expansion avoids the 0/0 cancellation.
    """
    if not 0.0 <= r < 1.0:
        raise DomainError(f"radius must lie in [0, 1), got {r}")
    if r < 1e-4:
        # 1 + r/2 + r^2/3 + ... ; the omitted term r^6/7 is < 2e-29 here.
        return (((((r / 6 + 1.0 / 5) * r + 1.0 / 4) * r + 1.0 / 3) * r + 1.0 / 2) * r + 1.0)
    return -math.log1p(-r) / r


def lerch_tail_sum(r: float, beta: float, start: int,
                   target: float = LERCH_TAIL_TARGET) -> tuple[float, float]:
    """``sum_{n>=start} r^n / (n+beta)`` with certified truncation error.

    Terms are summed through the order N given by the truncation policy and
    the omitted tail is bounded by ``r**(N+1) / ((N+1+beta)(1-r))``.
    """
    if not 0.0 <= r < 1.0:
        raise DomainError(f"radius must lie in [0, 1), got {r}")
    if not (isinstance(start, (int, np.integer)) and start >= 0):
        raise DomainError(f"start must be a nonnegative integer, got {start}")
    if beta <= -start:
        raise DomainError(f"beta must exceed -start, got beta={beta}, start={start}")
    if r == 0.0:
        return (1.0 / beta if start == 0 else 0.0), 0.0
    def tail_err(n):
        return r ** (n + 1) / ((n + 1 + beta) * (1.0 - r))
    n = max(start - 1, 0)
    if tail_err(n) > target:
        n = max(n, math.ceil(math.log(target * (1.0 - r)) / math.log(r)) - 1)
        while n <= ORDER_CAP and tail_err(n) > target:
            n += 1
        if n > ORDER_CAP:
            raise NumericalError(
                f"tail-sum order cap {ORDER_CAP} cannot certify target {target} "
                f"at r={r}; the radius is too close to 1")
    if n < start:
        return 0.0, tail_err(n)
    ks = np.arange(start, n + 1)
    value = math.fsum(np.power(r, ks) / (ks + beta))
    return value, tail_err(n)
