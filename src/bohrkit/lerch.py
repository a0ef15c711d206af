"""Scalar kernels of the radius equations, standard library only: the unit
roundoff, order cap and argument rule, the parameter gamma, and the tail sum
``sum_{n>=start} r^n/(n+beta)``.  A radius, sweep or table call needs no numpy.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate

from .errors import DomainError, NumericalError

# u: every certified error counts rounding in multiples of it.
UNIT_ROUNDOFF = 2.0 ** -53
# Below the normal range a rounding errs by up to half the smallest
# subnormal, 2**-1075, instead: UNDERFLOW covers 64 such errors.
UNDERFLOW = 2.0 ** -1069
# Orders meet their certified tail targets and never exceed ORDER_CAP: radii
# too close to 1 fail explicitly rather than silently lose certification.
ORDER_CAP = 20000
EULER_GAMMA = 0.57721566490153286061
# The ln r expansion of the tail sum serves x = ln(1/r) <= LN_EXPANSION_MAX_LOG
# (r >= 0.78) with a x <= 1; the direct sum is as fast and more accurate below.
LN_EXPANSION_MAX_LOG = 0.25
# Terms of the expansion: its truncation bound falls below LN_EXPANSION_FLOOR
# by k = 20 wherever it is used.
LN_EXPANSION_TERMS = 20
LN_EXPANSION_FLOOR = UNIT_ROUNDOFF / 16
# Keeps the coefficients B_k(a)/(k k!) far from overflow.
LN_EXPANSION_MAX_EXPONENT = 1e6
# B_j/j!, j = 0..LN_EXPANSION_TERMS (DLMF Table 24.2.1); folded to floats
# when the module is compiled.
BERNOULLI_OVER_FACTORIAL = (
    1.0, -1 / 2, 1 / 12, 0.0, -1 / 720, 0.0, 1 / 30240, 0.0, -1 / 1209600, 0.0,
    1 / 47900160, 0.0, -691 / 1307674368000, 0.0, 1 / 74724249600, 0.0,
    -3617 / 10670622842880000, 0.0, 43867 / 5109094217170944000, 0.0,
    -174611 / 802857662698291200000)


def finite_real(value, name: str, rule: str = "be a finite real") -> float:
    """``value`` as a Python float if it is a finite real of any type but bool.

    Every public real argument passes here, so the certified errors
    computed from it count roundings of doubles.  Other types raise
    "<name> must be a finite real"; NaN and infinities raise "<name> must
    <rule>", where rule words the range check the caller makes next.
    """
    if type(value) is not float:
        import numbers  # here, not at the top: radius calls pass floats and ints
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise DomainError(f"{name} must be a finite real, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise DomainError(f"{name} must {rule}, got {type(value).__name__} "
                              "beyond the double range") from None
    if not math.isfinite(value):
        raise DomainError(f"{name} must {rule}, got {value}")
    return value


def finite_complex(value, name: str, rule: str = "be a finite complex number") -> complex:
    """``value`` as a Python complex if it is a finite number of any type but
    bool.  Other types, and ints beyond the double range, raise "<name> must
    be a finite complex number"; NaN and infinite parts raise "<name> must
    <rule>"."""
    import numbers
    try:
        if isinstance(value, numbers.Complex) and not isinstance(value, bool):
            if math.isfinite((number := complex(value)).real) and math.isfinite(number.imag):
                return number
            raise DomainError(f"{name} must {rule}, got {value!r}")
    except OverflowError:  # an int or Fraction beyond the double range
        pass
    raise DomainError(f"{name} must be a finite complex number, got {value!r}")


def nonnegative_int(value, name: str, rule: str = "be a nonnegative integer") -> int:
    """``value`` as an int if it is a nonnegative integer of any type but bool.

    Every count, order, degree and seed passes here.  Other types raise
    "<name> must be a nonnegative integer"; a negative value raises "<name>
    must <rule>".
    """
    if type(value) is not int:
        import numbers
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise DomainError(f"{name} must be a nonnegative integer, got {value!r}")
        value = operator.index(value)
    if value < 0:
        raise DomainError(f"{name} must {rule}, got {value}")
    return value


class DomainGamma(namedtuple("DomainGamma", "gamma")):
    """The parameter gamma in [0, 1) selecting the disk Omega_gamma."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace validates too

    def __new__(cls, gamma):
        if not 0.0 <= (gamma := finite_real(gamma, "gamma")) < 1.0:
            raise DomainError(f"gamma must lie in [0, 1), got {gamma}")
        return super().__new__(cls, gamma)


def _digamma(a: float) -> tuple[float, float]:
    """``psi(a)`` for a > 0 with a bound on its error.

    The recurrence ``psi(a) = psi(a+N) - sum_{i<N} 1/(a+i)`` (DLMF 5.5.2)
    lifts the argument to ``z = a+N >= 10``, where the asymptotic series
    ``ln z - 1/(2z) - sum_{n=1}^{7} B_2n/(2n z^2n)`` (DLMF 5.11.2) is cut
    after B_14.  For real z > 0 its remainder is bounded by the first omitted
    term ``|B_16|/(16 z^16) < 4.5e-17`` (DLMF 5.11(ii)).  Rounding: fsum
    rounds the sum of the parts once (u |psi|); z, ln z, 1/(2z) and each
    ``1/(a+i)`` carry at most 2u relative error, and the series is below
    1e-3, so ``2u (ln z + 1 + sum_i 1/(a+i))`` covers the parts.
    """
    shift = max(0, math.ceil(10.0 - a))
    z = a + shift
    w = 1.0 / (z * z)
    series = w * (1 / 12 + w * (-1 / 120 + w * (1 / 252 + w * (
        -1 / 240 + w * (1 / 132 + w * (-691 / 32760 + w / 12))))))
    log_z = math.log(z)
    steps = [1.0 / (a + i) for i in range(shift)]
    value = math.fsum([log_z, -0.5 / z, -series] + [-s for s in steps])
    error = (3617 / 8160 * w ** 8
             + UNIT_ROUNDOFF * (2.0 * (log_z + 1.0 + sum(steps)) + abs(value)))
    return value, error


@lru_cache(maxsize=64)
def _lerch_coefficients(a: float) -> tuple[float, float, tuple]:
    """``psi(a)``, its error bound and the pairs ``(c_k, |c|_k)``, k >= 1.

    ``c_k = B_k(a)/(k k!) = (1/k) sum_{j<=k} (B_j/j!) a^(k-j)/(k-j)!`` and
    ``|c|_k`` is the same sum with |B_j|, which bounds both |c_k| and, times
    a small multiple of u, the rounding error of c_k.  The powers
    ``a^i/i!`` are running products and each sum runs over j in order.
    Cached per exponent: a radius solve evaluates the same exponent about
    eight times.
    """
    psi, psi_err = _digamma(a)
    powers = list(accumulate((a / i for i in range(1, LN_EXPANSION_TERMS + 1)),
                             operator.mul, initial=1.0))
    coeffs = []
    for k in range(1, LN_EXPANSION_TERMS + 1):
        c = c_abs = 0.0
        for b, p in zip(BERNOULLI_OVER_FACTORIAL[: k + 1], reversed(powers[: k + 1])):
            c += b * p
            c_abs += abs(b) * p
        coeffs.append((c / k, c_abs / k))
    return psi, psi_err, tuple(coeffs)


def _lerch_ln_expansion(x: float, beta: float, a: float,
                        delta: float = 0.0) -> tuple[float, float]:
    """``sum_{n>=s} r^n/(n+beta) = r^(-beta) E(x)`` by the ln r expansion,
    a = s+beta, and a bound on its error; with delta > 0, instead the drop
    ``sum_{n>=s} (r^n - (qr)^n)/(n+beta)`` to qr, delta = ln(1/q), for
    x2 = x + delta in the ln r region.  qr itself is never formed.

    ``E(x) = -ln x - gamma_E - psi(a) - sum_{k>=1} c_k (-x)^k`` with
    ``x = ln(1/r)`` and ``c_k = B_k(a)/(k k!)``; see lerch_tail_sum.  The
    drop is ``r^(-beta) [ln(x2/x) + D - expm1(beta delta) E(x2)]`` with
    ``D = sum_k c_k ((-x2)^k - (-x)^k)``: psi and gamma_E cancel exactly,
    and every part is of order delta, so nothing cancels as delta -> 0.

    Truncation after K terms.  Write a = a_f + J with a_f in (0, 1] and
    J = ceil(a) - 1.  From ``B_k(t+1) = B_k(t) + k t^(k-1)`` and
    ``|B_k(t)| <= 2 zeta(k) k!/(2 pi)^k`` on [0, 1] (k >= 2, DLMF 24.8.1-2),
    ``|B_k(a)| <= 2 zeta(k) k!/(2 pi)^k + k J (a-1)^(k-1)``.  With
    ``q = x2/(2 pi)``, ``y = (a-1) x2`` and ``zeta(k) <= pi^2/6`` the omitted
    terms of E(x2) sum to at most
    ``T = (pi^2/3) q^(K+1)/((K+1)(1-q)) + J x2 y^K/((K+1)! (1 - y/(K+2)))``.
    As ``|(-x2)^k - (-x)^k| <= k delta x2^(k-1)``, D's omitted terms are at
    most delta times the x2-derivative of that bound series,
    ``(pi/6) q^K/(1-q) + J y^K/(K! (1 - y/(K+1)))``, which is at most
    ``(K+1) T/(x2 (1 - y/(K+1)))``: relative to ``ln(x2/x) >= delta/x2``.

    Rounding, in units u = 2**-53.  x2 and ln x2 carry at most 2u relative
    and ``2u(1 + |ln x2|)`` absolute error (one libm call each).  c_k sums
    k+1 parts, each a rounded B_j/j! times a 2(k-j)-rounding product for
    a^i/i!, then divides by k: ``(3k+3) u |c|_k``.  The term ``c_k (-x2)^k``
    adds k+1 roundings and 2ku through x2, and the running sum K u of the
    term magnitudes, so the series is off by at most
    ``(7K+4) u sum_k |c|_k x2^k``.  gamma_E and the three additions forming
    E add ``4u`` times the sum of the magnitudes, and the factor
    ``exp(beta x)`` adds ``(3 + 3|beta x|) u`` relative error.

    The drop's terms come from ``g_k = -x2 g_(k-1) - delta (-x)^(k-1)``,
    whose two parts share a sign: g_k carries 3(k-1)u, so D is off by at
    most ``(7K+4) u sum_k |c|_k |g_k|`` too.  The log and its quotient add
    3u; expm1 2u, 2u more through beta delta (its condition is at most
    1 + beta delta <= 2), and its product with E u; the two additions 2u of
    the magnitudes; the factor and product ``(3 + beta x) u``.  x and delta,
    as libm computes them from exact r and 1 - q, carry 2u each.  The drop's
    relative condition in delta is at most 1, as ``n delta q^n <= 1 - q^n``.
    In x it is x times the mean of n under the weights
    ``r^n (1-q^n)/(n+beta)``; as ``(1-q^n)/(n (n+beta))`` falls with n, that
    mean is at most (1+r)/(1-r), its mean under n r^n, and
    ``x (1+r)/(1-r) <= 2.011``.  So the inputs add 6.1u relative.
    """
    x2 = x + delta
    log_x = math.log(x2)
    psi, psi_err, coeffs = _lerch_coefficients(a)
    q = x2 / (2.0 * math.pi)
    jumps = math.ceil(a) - 1
    y = (a - 1.0) * x2
    q_power, y_term = q * q, 0.5 * y
    power = low = 1.0
    series = weight = gap = diff = diff_weight = 0.0
    terms = 0
    for k, (c, c_abs) in enumerate(coeffs, start=1):
        terms = k
        power *= -x2
        series += c * power
        weight += c_abs * abs(power)
        if delta:
            gap = -x2 * gap - delta * low  # (-x2)^k - (-x)^k, with low = (-x)^(k-1)
            low *= -x
            diff += c * gap
            diff_weight += c_abs * abs(gap)
        truncation = (math.pi ** 2 / 3.0 * q_power / ((k + 1) * (1.0 - q))
                      + jumps * x2 * y_term / (1.0 - y / (k + 2)))
        if truncation <= LN_EXPANSION_FLOOR:
            break
        q_power *= q
        y_term *= y / (k + 2)
    bracket = -log_x - EULER_GAMMA - psi - series
    bracket_err = (2.0 * UNIT_ROUNDOFF * (1.0 + abs(log_x)) + psi_err
                   + (7 * terms + 4) * UNIT_ROUNDOFF * weight + truncation
                   + 4.0 * UNIT_ROUNDOFF * (abs(log_x) + EULER_GAMMA + abs(psi) + abs(series)))
    scale = math.exp(beta * x)
    if not delta:
        value = scale * bracket
        error = scale * bracket_err + (3.0 + 3.0 * abs(beta * x)) * UNIT_ROUNDOFF * abs(value)
    else:
        lead, lift = math.log1p(delta / x), math.expm1(beta * delta)
        value = scale * (lead + diff - lift * bracket)
        error = (scale * (lift * (bracket_err + 7.0 * UNIT_ROUNDOFF * abs(bracket))
                          + (7 * terms + 4) * UNIT_ROUNDOFF * diff_weight
                          + delta * (terms + 1) * truncation / (x2 * (1.0 - y / (terms + 1)))
                          + UNIT_ROUNDOFF * (5.0 * lead + 2.0 * abs(diff)))
                 + (10.0 + beta * x) * UNIT_ROUNDOFF * abs(value))
    return value, error


def lerch_tail_sum(r: float, beta: float, start: int) -> tuple[float, float]:
    """``sum_{n>=start} r^n / (n+beta)`` and a certified bound on its error.

    The sum is ``r^s Phi(r, 1, a)`` with s = start and a = s + beta > 0,
    where Phi is the Lerch transcendent.  Two branches:

    * Near 1, where ``x = ln(1/r) <= LN_EXPANSION_MAX_LOG`` (1/4) and
      ``a x <= 1``, the ln z expansion of Phi (Erdelyi et al., Higher
      Transcendental Functions I, 1.11(8), at s -> 1, valid for
      0 < x < 2 pi) gives
      ``r^s Phi(r,1,a) = r^(-beta) [-ln x - gamma_E - psi(a)
      - sum_{k>=1} B_k(a) (ln r)^k/(k k!)]``.
      Its cost does not grow as r -> 1: at most LN_EXPANSION_TERMS terms,
      two to five within 1e-5 of 1, plus per-exponent coefficients cached
      on first use.  psi comes from its recurrence and asymptotic series
      (DLMF 5.5.2, 5.11.2); the truncation bound uses the Fourier bound on
      Bernoulli polynomials (DLMF 24.8).  Both bounds and the rounding
      budget are derived in ``_lerch_ln_expansion`` and ``_digamma``.
    * Elsewhere the terms n = s..N are summed directly, N - s + 1 the fewest
      with ``r^(N+1-s) <= u/(16a)``: about (39.5 + ln a)/x terms, 175 at
      x = 1/4 and a = 50.  The omitted tail
      ``T = r^(N+1)/((N+1+beta)(1-r))`` is then at most u/16 of
      ``S+ = r^s/(a(1-r))``, which bounds the sum from above and is at most
      4.6 times it wherever this branch runs: for x > 1/4 the sum is at least
      its first term, ``(1 - e^(-1/4)) S+``; for a x > 1 each of its first
      ceil(a) terms is at least ``r^n/(2a)``, so it is at least
      ``(1 - 1/e) S+/2``.  T stays below u/3 of the sum.  Each positive term
      rounds pow (2u: a full ulp, where glibc's stays within 0.52, so the
      slack covers second-order terms), k + beta and the division (u each);
      fsum rounds once, so ``5u`` times the value bounds the rounding, and
      the error is at most about 5.3u of the sum.  Below the normal range a
      rounding errs by up to half the smallest subnormal instead: UNDERFLOW
      (1 + 1/a) covers each term's two, pow's divided by k + beta >= a, and
      UNDERFLOW more those of fsum and of T, whose pow underflows only where
      (N+1) x > 708, so its 1/(1-r) is below 29.

    The returned error is truncation plus rounding, at any r.  Where a x > 1
    the direct sum needs fewer than about (39.5 + ln a) a terms, so the
    ORDER_CAP NumericalError, raised for N above the cap, is left to
    exponents a above about 440 with r close to 1 and to starts above the
    cap.  The slope in r of the ``start = 1`` sum is
    ``1/(1-r) - (beta/r) * value``.
    """
    if not 0.0 <= (r := finite_real(r, "radius", "lie in [0, 1)")) < 1.0:
        raise DomainError(f"radius must lie in [0, 1), got {r}")
    start = nonnegative_int(start, "start")
    if (beta := finite_real(beta, "beta")) <= -start:
        raise DomainError(f"beta must be a finite real above -start, got beta={beta}, "
                          f"start={start}")
    if r == 0.0:
        value = 1.0 / beta if start == 0 else 0.0
        return value, UNIT_ROUNDOFF * value
    a = start + beta
    x = -math.log(r)
    if x <= LN_EXPANSION_MAX_LOG and a * x <= 1.0 and a <= LN_EXPANSION_MAX_EXPONENT:
        return _lerch_ln_expansion(x, beta, a)
    n = start + max(0, math.ceil((math.log(16.0 / UNIT_ROUNDOFF) + math.log(a)) / x) - 1)
    if n > ORDER_CAP:
        raise NumericalError(f"tail-sum order {n} at r={r} for start {start} and exponent "
                             f"{a} is above the order cap {ORDER_CAP}")
    ks = _float_range(1 << (n + 1).bit_length())[start:n + 1]
    value = math.fsum([r ** k / (k + beta) for k in ks])
    tail = r ** (n + 1) / ((n + 1 + beta) * (1.0 - r))
    return value, (tail + 5.0 * UNIT_ROUNDOFF * value
                   + (n - start + 2 + (n - start + 1) / a) * UNDERFLOW)


@lru_cache(maxsize=None)
def _float_range(size: int) -> tuple:
    """``(0.0, ..., size - 1.0)``: faster exponents than ints, and as exact."""
    return tuple(map(float, range(size)))
