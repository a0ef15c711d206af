"""The sharpness direction: extremal decompositions, witness scans, order
fits, and the identity suite.

The extremal family is ``psi(G(z))`` with ``psi(w) = (a - w)/(1 - a w)`` and
``G(z) = (1 - gamma) z + gamma``; its Taylor coefficients are

    A_0 = (a - gamma)/(1 - a*gamma),
    A_n = ((1 - a^2)/(a (1 - a*gamma))) * q^n   with   q = a(1-gamma)/(1-a*gamma)

carried with alternating sign, f(z) = A_0 - sum A_n z^n.  The paper proves
its radii sharp by expanding both operator majorants of this family as
a -> 1 into the operator's sharp bound, a term linear in (1 - a) whose sign
flips at the radius, and a remainder of order (1 - a)^2.  With eps = 1 - a
the first-order terms come from ``A_0 = 1 - eps (1+gamma)/(1-gamma) +
O(eps^2)`` and ``(1 - a^2)/(a (1 - a*gamma)) = 2 eps/(1-gamma) + O(eps^2)``.
The linear term's factor is the radius equation at r, taken from ``radii``
with its certified error: ``-E(r)/(r(1-r))`` for Cesaro's E, the tail
balance itself for Bernardi.  With d = 1 - a*gamma, 1 - q = (1-a)/d,
S_n = (1 - q^n)/(1 - q), c_n = 1 - ((1+a)/d) S_n and K = (1-a)^2/(a d) the
remainder is exactly

    Bernardi:  K sum_{n>=1} r^n/(n+beta) c_n = K [L(r) - rho (L(r) - L(qr))]
    Cesaro:    K sum_{n>=1} r^n/(n+1) (c_1 + ... + c_n)
             = (K/(1-r)) [m(tau) - rho m((1-q) tau)]

with L(x) = sum_{n>=1} x^n/(n+beta), tau = r/(1-r), rho = (1+a)/(1-a) and
m(t) = 1 - log1p(t)/t; every c_n is negative.  Both are ``(K/w) [level -
rho drop]``: Bernardi's level is L(r), its drop L(r) - L(qr) and its width
w = 1; Cesaro's are m(tau), m((1-q) tau) and 1 - r.  ``_remainders`` is the
one kernel for both: it forms d from complements, ``(1-gamma) + gamma
(1-a)``, which cancels nowhere as gamma -> 1, and 1 - q once per a; each
operator supplies its level, its drops, formed without cancellation, and its
width, and one loop over a ladder of a forms the bracket, its scale and one
certified rounding bound, at any r < 1.  The first-order terms take the same
1 - q.  The decompositions, witness scans and order fits take their
remainders from it, never from a summed majorant minus its other parts.
Every error they use is certified: it bounds truncation and rounding.  For
a far below 1 the bracket loses every digit; a decomposition whose
remainder is not certifiably nonzero raises NumericalError, and a fit
InconclusiveError.

The module needs only ``lerch`` and ``radii``: its series are closed forms,
and only Bernardi's direct sum away from r = 1 loads numpy.  The other
direction, Lemma 1's coefficient bound, is checked in ``series`` beside the
sampler it draws from.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple

from .errors import (DomainError, InconclusiveError, NumericalError,
                     PreconditionError)
from .lerch import (ORDER_CAP, UNDERFLOW, UNIT_ROUNDOFF, DomainGamma, _lerch_ln_expansion,
                    finite_real, lerch_tail_sum)
from .radii import (_cesaro_equation, _tail_balance_equation, bernardi_radius,
                    cesaro_radius, log_bound)

WITNESS_SLACK = 10.0
# Covers second-order rounding terms and the rounding of a bound itself.
BOUND_SLACK = 1.01


class ExtremalParams(namedtuple("ExtremalParams", "a gamma")):
    """Peak location a of the extremal Mobius function; requires gamma < a < 1."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace validates too

    def __new__(cls, a, gamma):
        if not isinstance(gamma, DomainGamma):
            gamma = DomainGamma(gamma)
        a = finite_real(a, "a")
        if not gamma.gamma < a < 1.0:
            raise PreconditionError(
                f"extremal family needs gamma < a < 1, got a={a}, gamma={gamma.gamma}")
        return super().__new__(cls, a, gamma)


class SharpnessReport(namedtuple("SharpnessReport", "gamma beta r radius a_values margins "
                                                    "witness_found")):
    """Evidence record from an above-radius witness scan: one margin per a."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace validates too

    def __new__(cls, gamma, beta, r, radius, a_values, margins, witness_found):
        a_values, margins = tuple(a_values), tuple(margins)
        if len(a_values) != len(margins):
            raise DomainError(f"need one margin per a, got {len(a_values)} a values "
                              f"and {len(margins)} margins")
        return super().__new__(cls, gamma, beta, r, radius, a_values, margins, witness_found)

    def as_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in self._asdict().items()}


class Decomposition(namedtuple("Decomposition", "bound first_order remainder")):
    """Bound + first_order + remainder reproduces the extremal majorant."""

    __slots__ = ()


def _log1p_defect(t: float) -> tuple[float, float]:
    """``m(t) = 1 - log1p(t)/t`` for t > 0, and a bound on its rounding error.

    Up to t = 1, ``log1p(t) = 2 atanh(z)``, z = t/(2+t) <= 1/3, gives
    ``m = z - (2/(2+t)) sum_{k>=1} z^(2k)/(2k+1)``, whose second term is
    below z/9: nothing cancels, and 17 terms leave less than u/100 of m.
    Rounding, in units u for an exact t: z carries 2u, so 3u of m by m's
    condition 1/(1-z) <= 3/2 in z; the terms 3u (pow 2u, as in
    ``lerch_tail_sum``), fsum, the factor and the product 4u more, the
    subtraction u of m.  Above 1, m >= 1 - ln 2, log1p (2u) and the division
    give 3u of 1 - m and the subtraction u of m.  As
    ``ln(1+t) <= t(2+t)/(2(1+t))``, m's relative condition in t is <= 1.
    """
    if t > 1.0:
        value = 1.0 - math.log1p(t) / t
        return value, UNIT_ROUNDOFF * (3.0 - 2.0 * value)
    z = t / (2.0 + t)
    part = 2.0 / (2.0 + t) * math.fsum([z ** (2 * k) / (2 * k + 1) for k in range(1, 18)])
    return z - part, UNIT_ROUNDOFF * (5.0 * (z - part) + 7.0 * part)


def _remainders(gamma: float, r: float, a_values,
                beta: float | None = None) -> tuple[list, list, list]:
    """Extremal remainders for every a at once, their certified errors, and
    the 1 - q = (1-a)/d they share with the first-order terms.

    Both operators' remainders are ``(K/w) [level - rho drop]`` with
    K = (1-a)^2/(a d) and rho = (1+a)/(1-a); one loop over a forms them, and
    beta=None selects Cesaro.  Each operator supplies its level, its drop
    for each a and its width w:

    * Cesaro: level m(tau), drop m((1-q) tau), w = 1 - r, with tau = r/(1-r)
      and m from ``_log1p_defect``.  ``c_1 + ... + c_n = n(1-rho) +
      rho q S_n`` summed against r^n/(n+1) is ``K [(1-rho)(1/(1-r) - l(r)) +
      rho q/(1-q) (l(r) - l(qr))]``, l(x) = -ln(1-x)/x; ``(1-r) l(r) =
      log1p(tau)/tau`` and ``1 - qr = (1-r)(1 + (1-q) tau)`` give the form
      above.  As a -> 1, ``rho m((1-q) tau)`` tends to ``tau (1+a)/(2d) >=
      tau >= 2 m(tau)``: the bracket has condition at most 3.
    * Bernardi: level L = ``sum_{n>=1} r^n/(n+beta)``, drop ``G = L(r) -
      L(qr) = sum_{n>=1} r^n (1-q^n)/(n+beta)``, w = 1: ``((1+a)/d) S_n =
      rho (1 - q^n)`` turns ``K sum r^n/(n+beta) c_n`` into ``K [L - rho G]``.
      As 1 + a > d and S_n >= 1, ``|c_n| = ((1+a)/d) S_n - 1 >= S_n |c_1|``
      with ``|c_1| = a(1+gamma)/d``, so ``L + rho G <= (1 + 2/|c_1|)
      |L - rho G|``.  With x = ln(1/r), delta = ln(1/q), x2 = x + delta and
      A = 1 + beta:

      - near 1, where x <= 1/8 and A x <= 1/2, half the bounds of the ln r
        region, L is ``lerch_tail_sum(r, beta)``.  Where
        ``lerch._lerch_ln_expansion`` takes x2 into that region too, G is
        its drop, which has no cancellation; elsewhere G is the difference
        ``L(r) - L(qr)``: delta > x there, so its condition is about
        ``ln(1/x)/ln 2``.  qr carries 2u, which the slope ``1/(1-qr)`` of L
        turns into ``2u qr/(1-qr)``.  ``lerch_tail_sum`` certifies L(qr) at
        any qr, subnormal included;
      - away from 1, L sums the weights ``w_n = r^n/(n+beta)``, n <= N, and
        omits at most ``r^(N+1)/((N+1+beta)(1-r))``; every G is a row of one
        (len(a), N) array of positive terms ``w_n (-expm1(n log1p(-(1-q))))``.
        The omitted share of G is largest as q -> 1, since (1-q^n)/n falls
        with n: there it is ``sum_{n>N} n w_n / sum_{n>=1} n w_n``.  The sum
        above is at most ``r^(N+1)/(1-r)``, the one below at least
        ``m r^m/((m+beta)(1-r))`` for every m >= 1, so the share is at most
        ``r^(N+1-m) (m+beta)/m``.  N is the first count that makes this 8u,
        m the integer nearest its minimizer ``(sqrt(beta^2 + 4 beta/x) -
        beta)/2``: a closed form in r and beta.  For x > 1/(2A), N is below
        ``beta + 2A ln(2/(8u))``, so beyond 2 * ORDER_CAP terms, for beta
        above about 560, it raises NumericalError; so may the order cap of
        L(qr).  Rounding, with 8u for each log1p, expm1 and pow of the array
        (numpy's SIMD loops are within 4 ulp): 1 - q^n carries 17u, the
        weights 10u, their products u, and each sum (N-1)u, its terms
        sharing one sign; UNDERFLOW per term covers each sum's roundings
        below the normal range.

    The level's and drop's errors cover their own truncation and rounding
    at exact arguments.  The bracket's rounding, to first order in
    u = 2**-53, is derived once for both.  ``d = (1-gamma) + gamma (1-a)``
    adds two nonnegative terms, so nothing cancels as gamma -> 1: it
    carries the sum's u, and u of its first term (1 - gamma) or 2u of its
    second (1 - a and the product), whose shares of d add up to 1; so
    ``D u`` with D = 3, and D = 0 at gamma = 0, where d is exactly 1.
    1 - q = (1-a)/d carries (2 + D)u, and Cesaro's product with tau, which
    carries 2u, makes (5 + D)u of the drop's argument.  The drop's relative
    condition in its argument is at most 1 (m's by ``_log1p_defect``; G's as
    ``n q^(n-1)(1-q) <= 1 - q^n``), and rho and its product add 4u: (9 +
    D)u of rho drop.  The level's argument carries at most 2u (Cesaro's
    tau; Bernardi's r is exact) and its relative condition is at most 1 too:
    2u of the level.  The subtraction adds u of |bracket|, ``K/w = (1-q)
    (1-a)/(a w)`` (7 + D)u and the last product u: (9 + D)u of |bracket|.
    The error takes 12u of both where gamma > 0 and 10u, u to spare, at
    gamma = 0, and is BOUND_SLACK times the sum; Bernardi's K, with w = 1,
    carries only (5 + D)u, and its level none.
    Below the normal range a rounding errs by up to half the smallest
    subnormal instead; each m takes at most 28 such errors and Bernardi's
    errors count their own, so UNDERFLOW (1 + rho) covers the bracket's and
    UNDERFLOW the last product's.  They matter only for r below about
    1e-290.  Where the bracket is exactly 0 so is the remainder: ``K/w``
    overflows as a -> 0, and its error then says the value is uncertified.
    """
    ts = [(1.0 - a) / ((1.0 - gamma) + gamma * (1.0 - a)) for a in a_values]  # 1 - q
    if beta is None:
        tau, width = r / (1.0 - r), 1.0 - r
        level, level_err = _log1p_defect(tau)
        drops = [_log1p_defect(t * tau) for t in ts]
    else:
        x, exponent, width = -math.log(r), 1.0 + beta, 1.0
        if x <= 0.125 and exponent * x <= 0.5:
            level, level_err = lerch_tail_sum(r, beta)
            drops = []
            for t in ts:
                # t = 1 where 1 - q rounds to 1, as for a far below 1: q = 0.
                delta = -math.log1p(-t) if t < 1.0 else math.inf
                if (near := _lerch_ln_expansion(x, beta, delta)) is not None:
                    drops.append(near)
                    continue
                y = r * (1.0 - t)
                low, low_err = lerch_tail_sum(y, beta)
                drop = level - low
                drops.append((drop, level_err + low_err
                              + UNIT_ROUNDOFF * (2.0 * y / (1.0 - y) + abs(drop))))
        else:
            m = max(1, round((math.sqrt(beta * beta + 4.0 * beta / x) - beta) / 2.0))
            n_terms = max(1, math.ceil(
                m - 1 + math.log(8.0 * UNIT_ROUNDOFF * m / (m + beta)) / -x))
            if n_terms > 2 * ORDER_CAP:
                raise NumericalError(f"the extremal remainder at r={r} needs {n_terms} "
                                     f"terms, above the order cap {2 * ORDER_CAP}")
            import numpy as np  # here: the rest of this module runs on the standard library
            n = np.arange(1.0, n_terms + 1.0)
            weights = np.power(r, n) / (n + beta)
            level = float(weights.sum())
            level_err = ((9 + n_terms) * UNIT_ROUNDOFF * level + n_terms * UNDERFLOW
                         + r ** (n_terms + 1) / ((n_terms + exponent) * (1.0 - r)))
            with np.errstate(divide="ignore"):  # q = 0 where 1 - q rounds to 1: rows of 1
                log_q = np.log1p(-np.array(ts))
            sums = (-np.expm1(np.multiply.outer(log_q, n)) * weights).sum(axis=1).tolist()
            relative = (27 + n_terms) * UNIT_ROUNDOFF + r ** (n_terms + 1 - m) * (m + beta) / m
            drops = [(s, relative * s + n_terms * UNDERFLOW) for s in sums]
    remainders, errors = [], []
    units = 12.0 if gamma else 10.0
    for a, t, (drop, drop_err) in zip(a_values, ts, drops):
        rho = (1.0 + a) / (1.0 - a)
        bracket = level - rho * drop
        scale = t * (1.0 - a) / (a * width)
        remainders.append(scale * bracket if bracket else 0.0)
        errors.append(BOUND_SLACK * scale * (level_err + rho * drop_err + UNIT_ROUNDOFF * (
            2.0 * level + units * (rho * drop + abs(bracket))) + UNDERFLOW * (1.0 + rho))
            + UNDERFLOW)
    return remainders, errors, ts


def _first_order(gamma: DomainGamma, r: float, beta: float | None) -> tuple[float, float]:
    """The first-order factor at a checked r and its certified error; beta=None
    selects Cesaro, whose ``-E(r)/(r(1-r))`` adds 3u for the division."""
    if beta is not None:
        return _tail_balance_equation(beta, gamma.gamma)(r)[:2]
    value, error = _cesaro_equation(gamma.gamma)(r)[:2]
    value = -value / (r * (1.0 - r))
    return value, error / (r * (1.0 - r)) + 3.0 * UNIT_ROUNDOFF * abs(value)


def cesaro_first_order_factor(gamma: DomainGamma, r: float) -> float:
    """``-E(r)/(r(1-r))`` for the Cesaro radius equation E; changes sign at the radius."""
    return _first_order(gamma, _check_r(r), None)[0]


def bernardi_first_order_factor(gamma: DomainGamma, beta: float, r: float) -> float:
    """The Bernardi radius equation ``1/beta - (2/(1+gamma)) sum_{n>=1} r^n/(n+beta)``."""
    beta = _check_beta(beta)
    return _first_order(gamma, _check_r(r), beta)[0]


def _check_r(r) -> float:
    return finite_real(r, "r", "lie in (0, 1)", lambda x: 0.0 < x < 1.0)


def _check_beta(beta) -> float:
    """Reject a non-finite or nonpositive beta, else return it as a float; for
    beta < 1, warn the public function's caller."""
    if (beta := finite_real(beta, "beta", "be a positive real", lambda b: b > 0.0)) < 1.0:
        warnings.warn(f"beta={beta} < 1: sharpness behaviour is exploratory here",
                      stacklevel=3)
    return beta


def _expand(gamma: DomainGamma, r: float, a_values, beta: float | None,
            factor: tuple[float, float]) -> tuple[list, list, list, list]:
    """First-order terms, remainders, certified margin errors and the
    remainders' own errors over a ladder.

    beta=None selects Cesaro.  ``factor`` is ``_first_order`` at the checked
    r; the remainders, and the 1 - q = (1-a)/d that is Cesaro's first-order
    coefficient, come from one ``_remainders`` call.  A margin ``first +
    remainder`` is certified to the remainder's error, plus the factor's
    error times its coefficient, (5 + D)u of the first-order term and u of
    the sum, with ``_remainders``' D: 1 - q carries (2 + D)u, Bernardi's
    factor 1 + gamma and its product 2u, exact at gamma = 0, and the
    product with the factor u.
    """
    g = gamma.gamma
    value, value_err = factor
    remainders, rem_errors, ts = _remainders(g, r, a_values, beta)
    units = 8.0 if g else 5.0
    firsts, errors = [], []
    for t, remainder, rem_err in zip(ts, remainders, rem_errors):
        coeff = t if beta is None else -t * (1.0 + g)
        first = coeff * value
        firsts.append(first)
        errors.append(BOUND_SLACK * (abs(coeff) * value_err + rem_err + UNIT_ROUNDOFF * (
            units * abs(first) + abs(first + remainder))))
    return firsts, remainders, errors, rem_errors


def _decompose(p: ExtremalParams, r: float, beta: float | None) -> tuple[float, float]:
    """The first-order term and the remainder at a checked r; NumericalError
    where the remainder is not certifiably nonzero, as for a far below 1,
    where ``_remainders`` loses every digit."""
    (first,), (remainder,), _, (error,) = _expand(p.gamma, r, (p.a,), beta,
                                                  _first_order(p.gamma, r, beta))
    if not abs(remainder) > error:
        raise NumericalError(f"the extremal remainder at a={p.a!r} is {remainder:.3e} +- "
                             f"{error:.1e}, not certifiably nonzero")
    return first, remainder


def cesaro_extremal_decomposition(p: ExtremalParams, r: float) -> Decomposition:
    """Split the Cesaro majorant of the extremal function at radius r.

    bound is ``(1/r) ln(1/(1-r))``; first_order is
    ``((1-a)/(1-a*gamma)) * (2r + (3+gamma)(1-r) ln(1-r)) / (r(1-r))``;
    remainder is the closed-form sum of ``_remainders``, negative and
    quadratic in (1 - a).  Raises NumericalError where the remainder is not
    certifiably nonzero, as for a far below 1.
    """
    r = _check_r(r)
    return Decomposition(log_bound(r), *_decompose(p, r, None))


def bernardi_extremal_decomposition(p: ExtremalParams, beta: float,
                                    r: float) -> Decomposition:
    """Split the Bernardi majorant ``sum |A_n| r^n/(n+beta)`` at radius r.

    bound is 1/beta; first_order is ``-(1-a)(1+gamma)/(1-a*gamma)`` times the
    tail-balance factor; remainder is the closed-form sum of ``_remainders``,
    negative and quadratic in (1 - a); NumericalError as for Cesaro.  The
    sharpness argument is established for beta >= 1; smaller beta is
    accepted but flagged as exploratory.
    """
    beta, r = _check_beta(beta), _check_r(r)
    return Decomposition(1.0 / beta, *_decompose(p, r, beta))


def _scan(gamma: DomainGamma, r: float, a_values, beta: float | None,
          radius: float) -> SharpnessReport:
    """Margins ``first_order + remainder`` over the ladder at r above the
    radius; a witness needs a margin above WITNESS_SLACK times its certified
    error.  r counts as above the radius only where the first-order factor
    makes the linear term certifiably positive: Cesaro's factor, or minus
    Bernardi's tail balance, exceeds its error."""
    r = _check_r(r)
    factor = value, error = _first_order(gamma, r, beta)
    if not (value > error if beta is None else value < -error):
        raise PreconditionError(
            f"sharpness scan needs r > radius {radius:.6f}, got r={r}: the linear term "
            f"is not certifiably positive there (factor {value:.3e} +- {error:.1e})")
    a_vals = tuple(ExtremalParams(a, gamma).a for a in a_values)
    firsts, remainders, errors, _ = _expand(gamma, r, a_vals, beta, factor)
    margins = tuple(first + rem for first, rem in zip(firsts, remainders))
    found = any(m > WITNESS_SLACK * e for m, e in zip(margins, errors))
    return SharpnessReport(gamma.gamma, beta, r, radius, a_vals, margins, found)


def sharpness_scan_cesaro(gamma: DomainGamma, r: float, a_values) -> SharpnessReport:
    """Look for extremal functions whose Cesaro majorant exceeds the log bound.

    Only meaningful above the radius; for a close enough to 1 the linear
    term of the decomposition is positive there and must dominate, so a
    witness is expected to exist.
    """
    return _scan(gamma, r, a_values, None, cesaro_radius(gamma).value)


def sharpness_scan_bernardi(gamma: DomainGamma, beta: float, r: float,
                            a_values) -> SharpnessReport:
    """Look for extremal functions whose Bernardi majorant exceeds 1/beta."""
    beta = _check_beta(beta)
    return _scan(gamma, r, a_values, beta, bernardi_radius(gamma, beta).value)


def remainder_order_check(kind: str, gamma: DomainGamma, r: float, a_values,
                          beta: float | None = None) -> float:
    """Least-squares slope of ln|remainder| against ln(1-a); expected near 2.

    The remainders come from one ``_remainders`` call.  Raises
    InconclusiveError for fewer than two distinct a, or for a remainder that
    is not certifiably nonzero.
    """
    if kind not in ("cesaro", "bernardi"):
        raise DomainError(f"kind must be 'cesaro' or 'bernardi', got {kind!r}")
    if (beta is None) != (kind == "cesaro"):
        raise DomainError(f"{kind} remainder check "
                          + ("needs beta" if beta is None else f"takes no beta, got {beta!r}"))
    a_vals = [ExtremalParams(a, gamma).a for a in a_values]
    r = _check_r(r)
    beta = _check_beta(beta) if kind == "bernardi" else None
    if len(set(a_vals)) < 2:
        raise InconclusiveError("an order slope needs at least two distinct a values")
    remainders, errors, _ = _remainders(gamma.gamma, r, a_vals, beta)
    for a, remainder, error in zip(a_vals, remainders, errors):
        if not abs(remainder) > error:
            raise InconclusiveError(f"the remainder at a={a!r} is {remainder:.3e} +- "
                                    f"{error:.1e}, not certifiably nonzero")
    xs = [math.log1p(-a) for a in a_vals]
    ys = [math.log(-remainder) for remainder in remainders]
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    return sxy / sum((x - x_mean) ** 2 for x in xs)


def identity_suite() -> dict:
    """Check the series identities the decompositions rely on, each series
    side from the library's tail sum ``L(x) = lerch_tail_sum(x, 1)`` and each
    closed side from a closed form.

    For each r in 0.1, ..., 0.9: (i) ``sum_{n>=1} n r^n/(n+1) = r/(1-r) -
    L(r)`` against ``m(tau)/(1-r)``, tau = r/(1-r), from ``_log1p_defect``:
    Cesaro's level over its width, as ``_remainders`` forms it; (ii)
    ``sum_{n>=0} r^n/(n+1) = 1 + L(r)`` against ``log_bound(r)``; and (iii)
    the partial geometric resummation ``sum_{n>=1} r^n/(n+1) (1-q^n)/(1-q)
    = (L(r) - L(qr))/(1-q)``, q = 0.7, against its two-logarithm closed
    form.  The grid runs both branches of both kernels.  Returns
    per-identity deviations and the max.
    """
    r_grid = [round(0.1 * k, 1) for k in range(1, 10)]
    q = 0.7  # representative geometric ratio for the partial resummation
    deviations = dict.fromkeys(("weighted_geometric", "averaged_geometric",
                                "partial_geometric_resummation"), 0.0)
    for r in r_grid:
        tail, tau = lerch_tail_sum(r, 1.0)[0], r / (1.0 - r)
        pairs = ((tau - tail, _log1p_defect(tau)[0] / (1.0 - r)),
                 (1.0 + tail, log_bound(r)),
                 ((tail - lerch_tail_sum(q * r, 1.0)[0]) / (1.0 - q),
                  (log_bound(r) - log_bound(q * r)) / (1.0 - q)))
        for key, (series, closed) in zip(deviations, pairs):
            deviations[key] = max(deviations[key], abs(series - closed))
    deviations["max_deviation"] = max(deviations.values())
    deviations["r_grid"] = r_grid
    return deviations
