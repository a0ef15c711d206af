"""The three radius equations solved as certified bracketed root problems.

Each radius is the unique positive root of a strictly sign-changing scalar
equation on (0, 1):

* Cesaro:          ``(3+gamma)(1-x) ln(1/(1-x)) = 2x``
* Bernardi:        ``1/beta = (2/(1+gamma)) sum_{n>=1} r^n/(n+beta)``
* Bernardi (unit disk, m-fold zero):
                   ``x^m/(m+beta) = 2 sum_{n>=m+1} x^n/(n+beta)``

The third, divided by x^m, is the second at gamma = 0 with exponent
m + beta, and is solved as that.

Every equation returns its value with a certified bound on that value's
truncation and rounding error, its slope with a bound on the slope's
rounding error, its second derivative, and a bound on ``|g''|`` from 0 to
halfway between its argument and 1.  Each is positive below its root and
negative above it, and each caller proves those signs at the ends of the
bracket it hands the solver without evaluating them: ``cesaro_radius`` on
[0.5, 0.75] for every gamma, the Bernardi solves on [0, 1), where the
equation is 1/beta > 0 at 0 and tends to -inf at 1.  One solver takes
safeguarded Halley steps in ``u = ln(1/(1-x))`` from a start inside that
bracket.  Once a step is short, it lands once more and certifies the
bracket from that landing alone by a mean-value enclosure (Moore, *Interval
Analysis*): the value's error and a lower bound on the slope near the
landing place the root between two doubles whose signs follow without an
evaluation.  The Cesaro root has the closed form
``1 - exp(k + W_-1(-k e^-k))``, ``k = 2/(3+gamma)``, with the lower branch
of Lambert W (``cesaro_radius``); its solve starts there, so it takes one
or two evaluations.  The Bernardi solves start at 0.5 and take three to
five.  Their tail sum costs the same at any r < 1 (``lerch.lerch_tail_sum``),
so Bernardi radii within a few 1e-6 of 1 solve like any other; a root
closer to 1 than double resolution raises NumericalError.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import NumericalError
from .lerch import (UNIT_ROUNDOFF, BernardiParams, DomainGamma, finite_real,
                    in_unit_interval, lerch_tail_sum)

DEFAULT_TOL = 1e-12
# Safety net for the step loop; Halley needs well under 20 steps here.
MAX_STEPS = 100
# A Halley step of s in u lands within about s**3 of the root, so a step
# shorter than the cube root of the unit roundoff lands within rounding.
CLOSE_STEP = UNIT_ROUNDOFF ** (1.0 / 3.0)
# gamma = 0, the unit disk: the classic radius solves there.
UNIT_DISK = DomainGamma(0.0)


class RadiusResult(namedtuple("RadiusResult", "value bracket_lo bracket_hi residual "
                                              "iterations evaluations converged")):
    """A computed radius with its certifying bracket and convergence data.

    ``iterations`` counts solver steps (Halley or bisection; the last one
    lands next to the root and certifies the bracket); ``evaluations``
    counts every call of the equation, the start included.  The bracket
    ends are never evaluated: the caller proves them, an evaluation's
    certified sign moves them, or the mean-value enclosure places them.
    """

    __slots__ = ()

    def as_dict(self) -> dict:
        return self._asdict()


def _solve(g, lo: float, hi: float, tol: float, start: float) -> RadiusResult:
    """Root of g on [lo, hi], within [0, 1], by safeguarded Halley steps with
    certified signs.

    ``g(x)`` returns ``(value, error, slope, slope_error, second, curvature)``:
    the equation's value and a bound on that value's error, its derivative
    and a bound on that derivative's rounding error, its second derivative,
    and a bound on ``|g''(t)|`` for every t in [0, (1+x)/2].  A sign counts
    only where ``|value| > error``.  The caller has proved
    g > 0 at lo and g < 0 at hi, so neither end is evaluated; the steps
    begin at ``start``.

    Each step is taken in ``u = ln(1/(1-x))``, which maps [0, 1) onto
    [0, inf): with ``h(u) = g(x)`` and the Newton step ``s = h/h'``, Halley
    divides s by ``1 - (s/2) h''/h'``, where ``h''/h' = second (1-x)/slope
    - 1``, and keeps that factor in [1/2, 1]: a Halley step is at least the
    Newton step and at most twice it.  (Halley would shorten a step from a
    positive value of a concave h, such as the tail balance, where Newton
    lands at or past the root; that puts the first landing at the largest
    double below 1 when the root lies beyond it.)  The step lands at
    ``1 - (1-x) exp(s)``, computed as ``x - (1-x) expm1(s)``; a step up never
    reaches 1, and a landing past the largest double below 1 is taken there.
    The step moves to the bracket midpoint instead when it would leave the
    bracket or the slope is unusable; every certified sign shrinks the
    bracket.

    A step is close once it is shorter than tol/2 in x or than CLOSE_STEP in
    u, or lands on a point already evaluated.  A close step lands on its
    target where that lies inside the bracket and encloses the root from the
    last landing, as does any step that leaves the bracket at most tol wide.
    With ``reach = 4 (|value| + error)/|slope|`` and ``2 reach < 1-x``,
    every t within reach of x lies below (1+x)/2, so
    ``-g'(t) >= low = |slope| - slope_error - reach curvature``, which is
    shrunk by 64 units roundoff to cover its own rounding (its terms cancel
    by at most half).  Where ``low > |slope|/2`` the root lies within
    ``(|value| + error)/low``, at most reach/2, of x, and by the mean-value
    theorem it lies between ``x + min(value - error, 0)/low`` and
    ``x + max(value + error, 0)/low``; g is positive below that interval and
    negative above it.  Its ends are rounded outward to doubles.  An
    enclosure wider than tol (a tol below the root's ulp) still shrinks the
    bracket.  Where a close step's enclosure leaves the bracket wider than
    tol, or the step lands on no new point (Halley has stalled), the solve
    bisects what is left, taking only the close steps that a midpoint next
    to the root allows; where it lands but cannot enclose, the Halley steps
    go on.  A midpoint already evaluated, and so of uncertified sign, or one
    that rounds to a bracket end stops the solve.  No point is evaluated
    twice.

    Returns the evaluated point inside the final bracket with the smallest
    |value|; ``converged`` is true only when the certified bracket is at most
    tol wide.
    """
    tol = finite_real(tol, "tolerance", "be a positive real", lambda t: t > 0.0)
    points = {}  # g(x) at every evaluated x

    def sample(x):
        """g(x), evaluated once; a certified sign moves a bracket end to x."""
        nonlocal lo, hi
        if x in points:
            return points[x]
        out = points[x] = g(x)
        value, error = out[0], out[1]
        if not (math.isfinite(value) and math.isfinite(error)):
            raise NumericalError(f"g({x}) is not finite: {value} +- {error}")
        if abs(value) > error and lo < x < hi:
            if value > 0.0:
                lo = x
            else:
                hi = x
        return out

    x, (value, error, slope, slope_error, second, curvature) = start, sample(start)
    iterations, closed, stalled = 0, False, False
    while hi - lo > tol and iterations < MAX_STEPS:
        w = 1.0 - x
        s = value / slope / w if slope != 0.0 and math.isfinite(slope) else math.inf
        if math.isfinite(s):
            s /= min(max(1.0 - 0.5 * s * (second * w / slope - 1.0), 0.5), 1.0)
        # exp(700) w > 1 for every double x < 1: a longer step down lands below 0.
        t = min(x - w * math.expm1(s if s < 700.0 else 700.0), 1.0 - UNIT_ROUNDOFF)
        close = not closed and (abs(s) * w < 0.5 * tol or abs(s) < CLOSE_STEP or t in points)
        if not close and (closed or stalled or not lo < t < hi):
            stalled = stalled or closed
            t = 0.5 * (lo + hi)
            if not lo < t < hi or t in points:
                break  # bracket at rounding floor, or its midpoint already evaluated
        iterations += 1
        closed = close and (t in points or not lo < t < hi)  # Halley has stalled
        if lo < t < hi:
            x, (value, error, slope, slope_error, second, curvature) = t, sample(t)
        if (close or hi - lo <= tol) and slope < 0.0:
            reach = 4.0 * (abs(value) + error) / -slope
            low = (-slope - slope_error - reach * curvature) * (1.0 - 64.0 * UNIT_ROUNDOFF)
            if 2.0 * reach < 1.0 - x and low > -0.5 * slope:
                lo = max(lo, _beyond(x, min(value - error, 0.0) / low, -1.0))
                hi = min(hi, _beyond(x, max(value + error, 0.0) / low, 1.0))
                closed = close
    residual, best = min([(abs(v[0]), x) for x, v in points.items() if lo <= x <= hi])
    return RadiusResult(best, lo, hi, residual, iterations, len(points), hi - lo <= tol)


def _beyond(x: float, d: float, side: float) -> float:
    """The double nearest ``x + d`` that lies strictly beyond it on ``side``
    (-1 below, +1 above); TwoSum (Knuth) gives the rounding error of the sum
    exactly."""
    y = x + d
    error = (x - (y - (y - x))) + (d - (y - x))
    return y if error * side < 0.0 else math.nextafter(y, side * math.inf)


def cesaro_radius(gamma: DomainGamma, tol: float = DEFAULT_TOL) -> RadiusResult:
    """Positive root of ``(3+gamma)(1-x) ln(1/(1-x)) - 2x`` on (0, 1).

    The root has a closed form.  With ``c = 3+gamma``, ``y = 1-x`` and
    ``t = ln(1/y)``, the equation ``c y t = 2(1-y)`` reads
    ``e^-t (c t + 2) = 2``.  Put ``k = 2/c`` and ``s = -(t+k)``; then
    ``s e^s = -k e^-k``, so s is a real branch of Lambert W at
    ``z = -k e^-k``.  As 0 < k < 1, z lies in (-1/e, 0), where W has two:
    ``W_0(z) = -k`` gives t = 0, the trivial root x = 0, and
    ``W_-1(z) < -1`` gives the radius ``x = 1 - exp(k + W_-1(z))``.  As
    ``e^W = z/W``, that is ``x = 1 + k/W_-1(z)``, which spares the
    exponential and its rounding.

    The closed form only starts the solve: one Halley landing next to it
    and that landing's mean-value enclosure certify the bracket it returns.
    x = 0 also solves the equation, so the bracket is
    [0.5, 0.75].  The equation is linear in gamma, and it is positive at 0.5
    (0.040 and 0.386) and negative at 0.75 (-0.460 and -0.114) for gamma = 0
    and gamma = 1, so both signs hold for every gamma in [0, 1) and neither
    end is evaluated.
    """
    k = 2.0 / (3.0 + gamma.gamma)
    start = 1.0 + k / _lambert_w_lower(-k * math.exp(-k))
    return _solve(_cesaro_equation(gamma.gamma), 0.5, 0.75, tol, start)


def _lambert_w_lower(z: float) -> float:
    """The lower real branch ``W_-1(z)`` of Lambert W, the solution
    ``w <= -1`` of ``w e^w = z``, for z in [-0.35, -0.3].

    The Cesaro radius needs z = -k e^-k for k in (1/2, 2/3], which lies
    between -0.343 and -0.303, clear of the branch point -1/e.  Four terms of the
    series at the branch point in ``p = -sqrt(2(1 + e z))`` (Corless et al.,
    "On the Lambert W function", 1996) start within 0.01 there.  Halley
    steps on ``w e^w - z`` take that to about 1e-6, then to rounding level;
    a third step leaves w within about two units in the last place.
    """
    p = -math.sqrt(2.0 * (1.0 + math.e * z))
    w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))
    for _ in range(3):
        ew = math.exp(w)
        f = w * ew - z
        w -= f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
    return w


def _cesaro_equation(gamma: float):
    """``x -> (3+gamma)(1-x) ln(1/(1-x)) - 2x`` with slope
    ``(1+gamma) - (3+gamma) ln(1/(1-x))``, second derivative
    ``-(3+gamma)/(1-x)``, whose modulus grows with x, so that it is at most
    ``2 (3+gamma)/(1-x)`` up to (1+x)/2.  The value's error bound
    allows one unit roundoff for each of its six roundings, libm counted
    twice; the slope's, 8u of both of its parts, covers its five the same
    way."""
    c = 3.0 + gamma

    def equation(x: float) -> tuple:
        log_term = -math.log1p(-x)
        first = c * (1.0 - x) * log_term
        return (first - 2.0 * x, 8.0 * UNIT_ROUNDOFF * (first + 2.0 * x),
                1.0 + gamma - c * log_term, 8.0 * UNIT_ROUNDOFF * (1.0 + gamma + c * log_term),
                -c / (1.0 - x), 2.0 * c / (1.0 - x))

    return equation


def log_bound(r: float) -> float:
    """The comparison bound ``(1/r) ln(1/(1-r))``, equal to 1 at r = 0.

    log1p keeps every r > 0 accurate, subnormal r included: only r = 0 is
    the 0/0 limit.
    """
    r = finite_real(r, "radius", "lie in [0, 1)", in_unit_interval)
    return -math.log1p(-r) / r if r else 1.0


def _tail_balance_equation(beta_eff: float, gamma: float):
    """``r -> 1/beta_eff - P sum_{n>=1} r^n/(n+beta_eff)`` for r > 0, with the
    prefactor P = 2/(1+gamma) formed here: the Bernardi radius equation, and
    the first-order factor of ``extremal``.

    With L the sum, the slope uses ``L' = 1/(1-r) - (beta_eff/r) L`` and the
    second derivative ``L'' = 1/(1-r)^2 + (beta_eff/r^2) L - (beta_eff/r) L'``,
    both free once L is known.  As ``n/(n+beta_eff) <= min(1, n/beta_eff)``,
    ``L''(t) <= min(1/(1-t)^2, 2/(beta_eff (1-t)^3))``, which grows with t:
    up to ``t = (1+r)/2`` it is at most ``4 min(1, 4/(beta_eff (1-r)))/(1-r)^2``.
    The second bound keeps the enclosure narrow at large beta_eff, where the
    slope itself is small.

    The value's error bound adds to the scaled sum's bound the roundings of
    1/beta_eff (u), of the product (3u, two of them in P) and of the
    difference (u of both parts): ``4u (1/beta_eff + P L)``.  The slope's
    bound is P times ``beta_eff/r`` times the sum's bound, plus 8u of both
    ``1/(1-r)`` and ``(beta_eff/r) L``.  The sum's own error is the one
    ``lerch_tail_sum`` certifies: at most about 5.3u of it where summed
    directly.
    """
    prefactor = 2.0 / (1.0 + gamma)

    def equation(r: float) -> tuple:
        total, total_err = lerch_tail_sum(r, beta_eff)
        pole, level = 1.0 / (1.0 - r), beta_eff / r * total
        error = prefactor * total_err + 4.0 * UNIT_ROUNDOFF * (1.0 / beta_eff + prefactor * total)
        slope_error = prefactor * (beta_eff / r * total_err + 8.0 * UNIT_ROUNDOFF * (pole + level))
        bend = 4.0 * prefactor * pole * pole * min(1.0, 4.0 * pole / beta_eff)
        return (1.0 / beta_eff - prefactor * total, error, prefactor * (level - pole), slope_error,
                -prefactor * (pole * pole + (level - beta_eff * (pole - level)) / r), bend)

    return equation


def bernardi_radius(gamma: DomainGamma, beta: float,
                    tol: float = DEFAULT_TOL) -> RadiusResult:
    """Root of ``1/beta = (2/(1+gamma)) sum_{n>=1} r^n/(n+beta)`` on (0, 1).

    The equation is 1/beta > 0 at r = 0 and diverges to -inf as r -> 1
    (harmonic tail), so [0, 1] brackets the root with no evaluation.  The
    solve starts at 0.5.  In ``u = ln(1/(1-r))`` the sum's slope
    ``(1-r) d/dr sum = 1 - (beta (1-r)/r) sum`` grows with r, so the
    equation is concave there: a step from a positive value lands at or past
    the root.  A certified positive value at the largest double below 1,
    where the first step lands when the root lies beyond it, puts the root
    beyond every double: the solve raises NumericalError from that
    evaluation.
    """
    beta = finite_real(beta, "beta", "be a positive real", lambda b: b > 0.0)
    equation = _tail_balance_equation(beta, gamma.gamma)

    def checked(r: float) -> tuple:
        value, error, *_ = out = equation(r)
        if r == 1.0 - UNIT_ROUNDOFF and value > error:
            raise NumericalError(
                f"the radius for beta={beta} lies within double resolution of 1: "
                f"the equation is still {value:.3e} +- {error:.1e} at r = 1 - 2**-53")
        return out

    return _solve(checked, 0.0, 1.0, tol, 0.5)


def bernardi_radius_classic(beta: float, m: int, tol: float = DEFAULT_TOL) -> RadiusResult:
    """Positive root of ``x^m/(m+beta) - 2 sum_{n>=m+1} x^n/(n+beta)`` on (0, 1).

    Dividing out x^m removes the trivial root at 0 and leaves
    ``1/(m+beta) - 2 sum_{j>=1} x^j/(j+m+beta)``: the Bernardi equation at
    gamma = 0, where ``2/(1+gamma)`` is exactly 2, with exponent m + beta,
    solved by ``bernardi_radius``.  ``BernardiParams`` checks the arguments,
    beta > -m among them.
    """
    p = BernardiParams(beta, m)
    return bernardi_radius(UNIT_DISK, p.m + p.beta, tol)


def bohr_radius_omega(gamma: DomainGamma) -> float:
    """Reference Bohr radius ``(1+gamma)/(3+gamma)`` of the identity operator.

    Reduces to the classical 1/3 at gamma = 0; used by the verification
    suites as the safe radius for plain majorants on Omega_gamma.
    """
    g = gamma.gamma
    return (1.0 + g) / (3.0 + g)
