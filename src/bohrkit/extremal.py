"""Extremal Mobius-type functions, sharpness decompositions, and scan suites.

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
m(t) = 1 - log1p(t)/t; every c_n is negative.  ``_remainders`` evaluates
both closed forms for a whole ladder of a, at any r < 1: the differences
``L(r) - L(qr)`` and ``m(tau) - rho m(...)`` are formed without cancellation,
and away from r = 1 Bernardi's is summed directly.  The decompositions,
witness scans and order fits take their remainders from it, never from a
summed majorant minus its other parts.  Every error they use is certified:
it bounds truncation and rounding.
The Lemma-1 suite stresses ``|a_n| <= (1 - |a_0|^2)/(1 + gamma)`` over seeded
random samples.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import (DomainError, InconclusiveError, NumericalError,
                     PreconditionError)
from .lerch import (LN_EXPANSION_MAX_LOG, ORDER_CAP, UNDERFLOW, UNIT_ROUNDOFF,
                    DomainGamma, _lerch_ln_expansion, finite_complex, finite_real,
                    lerch_tail_sum, nonnegative_int)
from .operators import log_bound
from .radii import (_cesaro_equation, _tail_balance_equation, bernardi_radius,
                    cesaro_radius)
from .series import (MAX_BLASCHKE_DEGREE, SchurSampleSpec, TruncatedPowerSeries,
                     _sample_batches, truncation_order)

DEGENERATE_A0_TOL = 1e-8
WITNESS_SLACK = 10.0
# Covers second-order rounding terms and the rounding of a bound itself.
BOUND_SLACK = 1.01


@dataclass(frozen=True)
class ExtremalParams:
    """Peak location a of the extremal Mobius function; requires gamma < a < 1."""

    a: float
    gamma: DomainGamma

    def __post_init__(self):
        if not isinstance(self.gamma, DomainGamma):
            object.__setattr__(self, "gamma", DomainGamma(self.gamma))
        object.__setattr__(self, "a", finite_real(self.a, "a"))
        if not self.gamma.gamma < self.a < 1.0:
            raise PreconditionError(
                f"extremal family needs gamma < a < 1, got a={self.a}, "
                f"gamma={self.gamma.gamma}")


@dataclass(frozen=True)
class SharpnessReport:
    """Evidence record from an above-radius witness scan."""

    gamma: float
    beta: Optional[float]
    r: float
    radius: float
    a_values: tuple[float, ...]
    margins: tuple[float, ...]
    witness_found: bool

    def as_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


@dataclass(frozen=True)
class Lemma1Report:
    """Worst observed coefficient ratio ``|a_n|(1+gamma)/(1-|a_0|^2)`` over samples.

    ``samples`` counts the requested draws; ``skipped`` counts the degenerate
    ones among them that ``lemma1_check`` skips without computing a ratio.
    """

    gamma: float
    samples: int
    max_ratio: float
    worst_spec: Optional[SchurSampleSpec] = None
    skipped: int = 0

    def as_dict(self) -> dict:
        out = asdict(self)
        if self.worst_spec is not None:
            out["worst_spec"]["gamma"] = self.worst_spec.gamma.gamma
        return out


class Decomposition(NamedTuple):
    """Bound + first_order + remainder reproduces the extremal majorant."""

    bound: float
    first_order: float
    remainder: float


def extremal_ratio(p: ExtremalParams) -> float:
    """The geometric ratio q = a(1-gamma)/(1-a*gamma) of the extremal coefficients."""
    g = p.gamma.gamma
    return p.a * (1.0 - g) / (1.0 - p.a * g)


def extremal_coeffs(p: ExtremalParams, n_out: int) -> TruncatedPowerSeries:
    """Taylor coefficients (A_0, -A_1, ..., -A_N) of the extremal function.

    The coefficient moduli decay geometrically with ratio q < 1, so
    ``|A_(N+1)|`` bounds every omitted coefficient and is used as the tail
    bound.  The function maps Omega_gamma into the unit disk, hence the
    series is Schur-class.
    """
    n_out = nonnegative_int(n_out, "output order", "be >= 0")
    a, g = p.a, p.gamma.gamma
    q = extremal_ratio(p)
    a0 = (a - g) / (1.0 - a * g)
    lead = (1.0 - a * a) / (a * (1.0 - a * g))
    coeffs = np.concatenate(([a0], -lead * q ** np.arange(1, n_out + 1)))
    return TruncatedPowerSeries(coeffs, min(lead * q ** (n_out + 1), 1.0))


def extremal_eval(p: ExtremalParams, z: complex) -> complex:
    """The extremal function in closed rational form (no truncation)."""
    a, g, z = p.a, p.gamma.gamma, finite_complex(z, "z")
    return (a - g - (1.0 - g) * z) / (1.0 - a * g - a * (1.0 - g) * z)


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


def _cesaro_remainders(gamma: float, r: float, a_values) -> tuple[list, list]:
    """Cesaro's remainders ``(K/(1-r)) [m(tau) - rho m((1-q) tau)]``, tau =
    r/(1-r), rho = (1+a)/(1-a), m from ``_log1p_defect``; and their errors.

    ``c_1 + ... + c_n = n(1-rho) + rho q S_n`` summed against r^n/(n+1) is
    ``K [(1-rho)(1/(1-r) - l(r)) + rho q/(1-q) (l(r) - l(qr))]``, l(x) =
    -ln(1-x)/x; ``(1-r) l(r) = log1p(tau)/tau`` and ``1 - qr = (1-r)(1 +
    (1-q) tau)`` give the form above.  As a -> 1, ``rho m((1-q) tau)`` tends
    to ``tau (1+a)/(2d) >= tau >= 2 m(tau)``: the difference has condition
    at most 3.  Rounding, to first order in u with e = a*gamma/d: tau carries
    2u and (1-q) tau (6 + e)u, which m passes on; rho and its product add
    4u, the difference u, ``K/(1-r)`` (8 + e)u and the last product u; the
    error is BOUND_SLACK times the sum.  Below the normal range a rounding
    errs by up to half the smallest subnormal instead; each m takes at most
    28 such errors, so UNDERFLOW (1 + rho) covers the bracket's and UNDERFLOW
    the last product's.  They matter only for r below about 1e-290.
    """
    tau = r / (1.0 - r)
    m_r, m_r_err = _log1p_defect(tau)
    remainders, errors = [], []
    for a in a_values:
        d = 1.0 - a * gamma
        m_q, m_q_err = _log1p_defect((1.0 - a) / d * tau)
        rho, e = (1.0 + a) / (1.0 - a), a * gamma / d
        bracket = m_r - rho * m_q
        scale = (1.0 - a) * (1.0 - a) / (a * d * (1.0 - r))
        remainders.append(scale * bracket)
        errors.append(BOUND_SLACK * scale * (m_r_err + rho * m_q_err + UNIT_ROUNDOFF * (
            2.0 * m_r + (10.0 + e) * (rho * m_q + abs(bracket))) + UNDERFLOW * (1.0 + rho))
            + UNDERFLOW)
    return remainders, errors


def _remainders(gamma: float, r: float, a_values,
                beta: Optional[float] = None) -> tuple[list, list]:
    """Extremal remainders for every a at once, and their certified errors.

    beta=None selects Cesaro's closed form, ``_cesaro_remainders``.  For
    Bernardi, ``((1+a)/d) S_n = rho (1 - q^n)`` turns ``K sum r^n/(n+beta) c_n``
    into ``K [L - rho G]`` with ``L = sum_{n>=1} r^n/(n+beta)`` and
    ``G = L(r) - L(qr) = sum_{n>=1} r^n (1-q^n)/(n+beta)``.  As 1 + a > d and
    S_n >= 1, ``|c_n| = ((1+a)/d) S_n - 1 >= S_n |c_1|`` with
    ``|c_1| = a(1+gamma)/d``, so ``L + rho G <= (1 + 2/|c_1|) |L - rho G|``.
    With x = ln(1/r), delta = ln(1/q), x2 = x + delta and A = 1 + beta:

    * near 1, where x <= 1/8 and A x <= 1/2, L is ``lerch_tail_sum(r, beta,
      1)``.  Where x2 lies in its ln r region too (x2 <= 1/4, A x2 <= 1), G
      is ``lerch._lerch_ln_expansion``'s drop, which has no cancellation;
      elsewhere G is the difference ``L(r) - L(qr)``: delta > x there, so its
      condition is about ``ln(1/x)/ln 2``.  qr carries 2u, which the slope
      ``1/(1-qr)`` of L turns into ``2u qr/(1-qr)``.  ``lerch_tail_sum``
      certifies L(qr) at any qr, subnormal included;
    * away from 1, L sums the weights ``w_n = r^n/(n+beta)``, n <= N, and
      omits at most ``r^(N+1)/((N+1+beta)(1-r))``; every G is a row of one
      (len(a), N) array of positive terms ``w_n (-expm1(n log1p(-(1-q))))``.
      The omitted share of G is largest as q -> 1, since (1-q^n)/n falls
      with n: there it is ``sum_{n>N} n w_n / sum_{n>=1} n w_n``.  The sum
      above is at most ``r^(N+1)/(1-r)``, the one below at least
      ``m r^m/((m+beta)(1-r))`` for every m >= 1, so the share is at most
      ``r^(N+1-m) (m+beta)/m``.  N is the first count that makes this 8u,
      m the integer nearest its minimizer ``(sqrt(beta^2 + 4 beta/x) -
      beta)/2``: a closed form in r and beta.  For x > 1/(2A), N is below
      ``beta + 2A ln(2/(8u))``, so beyond 2 * ORDER_CAP terms, for beta above
      about 560, it raises NumericalError; so may the order cap of L(qr).

    Rounding, to first order in u = 2**-53, with 8u for each log1p, expm1
    and pow of the array (numpy's SIMD loops are within 4 ulp) and
    e = a*gamma/d: 1 - q carries (3 + e)u, and G's relative condition in it
    is at most 1, as ``n q^(n-1)(1-q) <= 1 - q^n``.  In the array 1 - q^n
    carries 17u, the weights 10u, their products u, and each sum (N-1)u, its
    terms sharing one sign.  rho and its product with G add 4u, the
    subtraction u, K (6 + e)u and the last product u; the error is
    BOUND_SLACK times the sum.  Below the normal range a rounding errs by up
    to half the smallest subnormal instead: UNDERFLOW per term covers those
    of each array sum and of the bracket, and UNDERFLOW the last product's.
    They matter only for r below about 1e-290, where N = 1.
    """
    if beta is None:
        return _cesaro_remainders(gamma, r, a_values)
    x, exponent = -math.log(r), 1.0 + beta
    near = x <= 0.125 and exponent * x <= 0.5
    ts = [(1.0 - a) / (1.0 - a * gamma) for a in a_values]
    if near:
        level, level_err = lerch_tail_sum(r, beta, 1)
    else:
        m = max(1, round((math.sqrt(beta * beta + 4.0 * beta / x) - beta) / 2.0))
        n_terms = max(1, math.ceil(m - 1 + math.log(8.0 * UNIT_ROUNDOFF * m / (m + beta)) / -x))
        if n_terms > 2 * ORDER_CAP:
            raise NumericalError(f"the extremal remainder at r={r} needs {n_terms} "
                                 f"terms, above the order cap {2 * ORDER_CAP}")
        n = np.arange(1.0, n_terms + 1.0)
        weights = np.power(r, n) / (n + beta)
        level = float(weights.sum())
        level_err = ((9 + n_terms) * UNIT_ROUNDOFF * level + n_terms * UNDERFLOW
                     + r ** (n_terms + 1) / ((n_terms + exponent) * (1.0 - r)))
        with np.errstate(divide="ignore"):  # q = 0 where 1 - q rounds to 1: rows of 1
            log_q = np.log1p(-np.array(ts))
        sums = (-np.expm1(np.multiply.outer(log_q, n)) * weights).sum(axis=1).tolist()
        relative = (27 + n_terms) * UNIT_ROUNDOFF + r ** (n_terms + 1 - m) * (m + beta) / m
    remainders, errors = [], []
    for i, (a, t) in enumerate(zip(a_values, ts)):
        # Past t = 1/4, delta > 1/4 leaves x + delta outside the ln region.
        delta = -math.log1p(-t) if t < 0.25 else math.inf
        if not near:
            gap, gap_err = sums[i], relative * sums[i] + n_terms * UNDERFLOW
        elif x + delta <= LN_EXPANSION_MAX_LOG and exponent * (x + delta) <= 1.0:
            gap, gap_err = _lerch_ln_expansion(x, beta, exponent, delta)
        else:
            y = r * (1.0 - t)
            low, low_err = lerch_tail_sum(y, beta, 1)
            gap = level - low
            gap_err = level_err + low_err + UNIT_ROUNDOFF * (2.0 * y / (1.0 - y) + abs(gap))
        d = 1.0 - a * gamma
        rho, e = (1.0 + a) / (1.0 - a), a * gamma / d
        part = rho * gap
        bracket = level - part
        scale = (1.0 - a) * (1.0 - a) / (a * d)
        remainders.append(scale * bracket)
        errors.append(BOUND_SLACK * scale * (level_err + rho * gap_err + UNIT_ROUNDOFF * (
            (7.0 + e) * part + (8.0 + e) * abs(bracket))) + UNDERFLOW)
    return remainders, errors


def _first_order(gamma: DomainGamma, r: float, beta: Optional[float]) -> tuple[float, float]:
    """The first-order factor at a checked r and its certified error; beta=None
    selects Cesaro, whose ``-E(r)/(r(1-r))`` adds 3u for the division."""
    if beta is not None:
        return _tail_balance_equation(beta, 2.0 / (1.0 + gamma.gamma))(r)[:2]
    value, error, _ = _cesaro_equation(gamma.gamma)(r)
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
    if not 0.0 < (r := finite_real(r, "r", "lie in (0, 1)")) < 1.0:
        raise DomainError(f"r must lie in (0, 1), got {r}")
    return r


def _check_beta(beta) -> float:
    """Reject a non-finite or nonpositive beta, else return it as a float; for
    beta < 1, warn the public function's caller."""
    if (beta := finite_real(beta, "beta", "be a positive real")) <= 0.0:
        raise DomainError(f"beta must be a positive real, got {beta}")
    if beta < 1.0:
        warnings.warn(f"beta={beta} < 1: sharpness behaviour is exploratory here",
                      stacklevel=3)
    return beta


def _expand(gamma: DomainGamma, r: float, a_values, beta: Optional[float],
            factor: tuple[float, float]) -> tuple[list, list, list]:
    """First-order terms, remainders and certified margin errors over a ladder.

    beta=None selects Cesaro.  ``factor`` is ``_first_order`` at the checked
    r; the remainders come from one ``_remainders`` call.  A
    margin ``first + remainder`` is certified to the remainder's error, plus
    the factor's error times its coefficient, (5 + a*gamma/d)u of the
    first-order term and u of the sum.
    """
    g = gamma.gamma
    value, value_err = factor
    remainders, rem_errors = _remainders(g, r, a_values, beta)
    firsts, errors = [], []
    for a, remainder, rem_err in zip(a_values, remainders, rem_errors):
        d = 1.0 - a * g
        coeff = (1.0 - a) / d if beta is None else -(1.0 - a) * (1.0 + g) / d
        first = coeff * value
        firsts.append(first)
        errors.append(BOUND_SLACK * (abs(coeff) * value_err + rem_err + UNIT_ROUNDOFF * (
            (5.0 + a * g / d) * abs(first) + abs(first + remainder))))
    return firsts, remainders, errors


def cesaro_extremal_decomposition(p: ExtremalParams, r: float) -> Decomposition:
    """Split the Cesaro majorant of the extremal function at radius r.

    bound is ``(1/r) ln(1/(1-r))``; first_order is
    ``((1-a)/(1-a*gamma)) * (2r + (3+gamma)(1-r) ln(1-r)) / (r(1-r))``;
    remainder is the closed-form sum of ``_remainders``, negative and
    quadratic in (1 - a).
    """
    r = _check_r(r)
    (first,), (remainder,), _ = _expand(p.gamma, r, (p.a,), None, _first_order(p.gamma, r, None))
    return Decomposition(log_bound(r), first, remainder)


def bernardi_extremal_decomposition(p: ExtremalParams, beta: float,
                                    r: float) -> Decomposition:
    """Split the Bernardi majorant ``sum |A_n| r^n/(n+beta)`` at radius r.

    bound is 1/beta; first_order is ``-(1-a)(1+gamma)/(1-a*gamma)`` times the
    tail-balance factor; remainder is the closed-form sum of ``_remainders``,
    negative and quadratic in (1 - a).  The sharpness argument is
    established for beta >= 1; smaller beta is accepted but flagged as
    exploratory.
    """
    beta, r = _check_beta(beta), _check_r(r)
    (first,), (remainder,), _ = _expand(p.gamma, r, (p.a,), beta, _first_order(p.gamma, r, beta))
    return Decomposition(1.0 / beta, first, remainder)


def lemma1_check(gamma: DomainGamma, num_samples: int, degree_max: int,
                 n_out: int, seed: int) -> Lemma1Report:
    """Stress the bound ``|a_n| <= (1-|a_0|^2)/(1+gamma)`` over random samples.

    Each sample is checked at n = 1 .. n_out, so n_out must be at least 1.
    Samples with ``1 - |a_0|^2 < 1e-8`` (near-unimodular constants) are
    skipped and counted in the report's ``skipped``: the bound forces their
    higher coefficients to vanish and the ratio degenerates to 0/0.
    """
    if (num_samples := nonnegative_int(num_samples, "num_samples")) < 1:
        raise DomainError(f"need at least one sample, got {num_samples}")
    allowed = f"lie in [0, {MAX_BLASCHKE_DEGREE}]"
    if (degree_max := nonnegative_int(degree_max, "degree_max", allowed)) > MAX_BLASCHKE_DEGREE:
        raise DomainError(f"degree_max must {allowed}, got {degree_max}")
    if (n_out := nonnegative_int(n_out, "output order", "be >= 1")) < 1:
        raise DomainError(f"output order must be >= 1, got {n_out}")
    seed = nonnegative_int(seed, "seed")
    master = np.random.default_rng(seed)
    # Per sample the master draws a degree, then a child seed.
    specs = (SchurSampleSpec(int(master.integers(0, degree_max + 1)),
                             int(master.integers(0, 2 ** 63)), gamma)
             for _ in range(num_samples))
    g = gamma.gamma
    max_ratio, worst, skipped = 0.0, None, 0
    for batch, rows in _sample_batches(specs, gamma, n_out):
        mags = np.abs(rows)
        denom = 1.0 - mags[:, 0] ** 2
        keep = denom >= DEGENERATE_A0_TOL
        skipped += len(batch) - int(np.count_nonzero(keep))
        ratios = np.zeros(len(batch))
        ratios[keep] = np.max(mags[keep, 1:], axis=1) * (1.0 + g) / denom[keep]
        i = int(np.argmax(ratios))  # the first maximum, as a sample loop finds it
        if ratios[i] > max_ratio:
            max_ratio, worst = float(ratios[i]), batch[i]
    return Lemma1Report(g, num_samples, max_ratio, worst, skipped)


def _scan(gamma: DomainGamma, r: float, a_values, beta: Optional[float],
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
    firsts, remainders, errors = _expand(gamma, r, a_vals, beta, factor)
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
                          beta: Optional[float] = None) -> float:
    """Least-squares slope of ln|remainder| against ln(1-a); expected near 2.

    The remainders come from one ``_remainders`` call.  Raises
    InconclusiveError for fewer than two distinct a, or for a remainder that
    is not certifiably nonzero.
    """
    if kind not in ("cesaro", "bernardi"):
        raise DomainError(f"kind must be 'cesaro' or 'bernardi', got {kind!r}")
    if kind == "bernardi" and beta is None:
        raise DomainError("bernardi remainder check needs beta")
    a_vals = [ExtremalParams(a, gamma).a for a in a_values]
    r = _check_r(r)
    beta = _check_beta(beta) if kind == "bernardi" else None
    if len(set(a_vals)) < 2:
        raise InconclusiveError("an order slope needs at least two distinct a values")
    remainders, errors = _remainders(gamma.gamma, r, a_vals, beta)
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
    """Check the closed-form series identities the decompositions rely on.

    For each r in 0.1, ..., 0.9: (i) ``sum_{n>=1} n r^n/(n+1) = 1/(1-r) -
    (1/r)ln(1/(1-r))``, (ii) ``sum_{n>=0} r^n/(n+1) = (1/r)ln(1/(1-r))``,
    and (iii) the partial geometric resummation ``sum_{n>=1} r^n/(n+1) (1-q^n)/(1-q)`` against its
    two-logarithm closed form.  Returns per-identity deviations and the max.
    """
    r_grid = [round(0.1 * k, 1) for k in range(1, 10)]
    q = 0.7  # representative geometric ratio for the double-sum identity
    deviations = {"weighted_geometric": 0.0, "averaged_geometric": 0.0,
                  "partial_geometric_resummation": 0.0}
    for r in r_grid:
        n = truncation_order(r, tail_bound=1.0, target=1e-13)
        ns = np.arange(1, n + 1)
        powers = np.power(r, ns)
        lhs1 = math.fsum((ns / (ns + 1.0) * powers).tolist())
        rhs1 = 1.0 / (1.0 - r) - log_bound(r)
        lhs2 = 1.0 + math.fsum((powers / (ns + 1.0)).tolist())
        rhs2 = log_bound(r)
        lhs3 = math.fsum((powers / (ns + 1.0) * (1.0 - q ** ns) / (1.0 - q)).tolist())
        rhs3 = (log_bound(r) - log_bound(q * r)) / (1.0 - q)
        for key, gap in zip(list(deviations), (lhs1 - rhs1, lhs2 - rhs2, lhs3 - rhs3)):
            deviations[key] = max(deviations[key], abs(gap))
    deviations["max_deviation"] = max(deviations.values())
    deviations["r_grid"] = r_grid
    return deviations
