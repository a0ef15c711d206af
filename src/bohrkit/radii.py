"""The three radius equations solved as certified bracketed root problems.

Each radius is the unique positive root of a strictly sign-changing scalar
equation on (0, 1):

* Cesaro:          ``(3+gamma)(1-x) ln(1/(1-x)) = 2x``
* Bernardi:        ``1/beta = (2/(1+gamma)) sum_{n>=1} r^n/(n+beta)``
* Bernardi (unit disk, m-fold zero):
                   ``x^m/(m+beta) = 2 sum_{n>=m+1} x^n/(n+beta)``

Every equation returns its value, a certified bound on that value's
truncation and rounding error, and its analytic slope.  Each is positive
below its root and negative above it, and each caller proves those signs at
the ends of the bracket it hands the solver without evaluating them:
``cesaro_radius`` on [0.5, 0.75] for every gamma, the Bernardi solves on
[0, 1), where the equation is 1/beta > 0 at 0 and tends to -inf at 1.  One
solver takes safeguarded Newton steps in ``u = ln(1/(1-x))`` from a start
inside that bracket and narrows it only where a value exceeds its error
bound, so a converged result carries a bracket whose end signs are
certified.  The Cesaro root has the closed form
``1 - exp(k + W_-1(-k e^-k))``, ``k = 2/(3+gamma)``, with the lower branch
of Lambert W (``cesaro_radius``); its solve starts there, so one Newton
landing and the two probes that certify its bracket finish it.  The
Bernardi solves start at 0.5.  Their tail sum costs the same at any r < 1
(``lerch.lerch_tail_sum``), so Bernardi radii within a few 1e-6 of 1 solve
like any other; a root closer to 1 than double resolution raises
NumericalError.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import NumericalError
from .lerch import (UNIT_ROUNDOFF, BernardiParams, DomainGamma, finite_real,
                    in_unit_interval, lerch_tail_sum)

DEFAULT_TOL = 1e-12
# Safety net for the step loop; Newton needs well under 20 steps here.
MAX_STEPS = 100


class RadiusResult(namedtuple("RadiusResult", "value bracket_lo bracket_hi residual "
                                              "iterations evaluations converged")):
    """A computed radius with its certifying bracket and convergence data.

    ``iterations`` counts solver steps (Newton or bisection, each with its
    closing probes); ``evaluations`` counts every call of the equation, the
    start and the probes included.  The bracket ends are proved by the
    caller and never evaluated.
    """

    __slots__ = ()

    def as_dict(self) -> dict:
        return self._asdict()


def _solve(g, lo: float, hi: float, tol: float, start: float) -> RadiusResult:
    """Root of g on [lo, hi], within [0, 1], by safeguarded Newton steps with
    certified signs.

    ``g(x)`` returns ``(value, error, slope)``: the equation's value, a bound
    on that value's error, and its derivative.  A sign counts only where
    ``|value| > error``.  The caller has proved g > 0 at lo and g < 0 at hi,
    so neither end is evaluated; the steps begin at ``start``.

    Each Newton step is taken in ``u = ln(1/(1-x))``, which maps [0, 1) onto
    [0, inf): from ``x`` with ``step = value/slope`` it lands at
    ``1 - (1-x) exp(step/(1-x))``, computed as
    ``x - (1-x) expm1(step/(1-x))``.  A step up never reaches 1, and a
    landing past the largest double below 1 is taken there.  The step moves
    to the bracket midpoint instead when it would leave the bracket or the
    slope is unusable; every certified sign shrinks the bracket.  Once a
    step is shorter than tol/2, it lands on its target (clamped into the
    bracket) and probes 0.4 tol on either side of it, which closes a
    certified bracket of width <= tol around a simple root.  No point is
    evaluated twice: a probe at a point already evaluated is skipped.

    Newton has stalled once a landing is a point already evaluated, or its
    probes leave the bracket wider than tol (the error bound hides their
    signs, or tol is below the root's ulp, where both round to the landing
    point).  From then on the solve bisects, and takes only the close steps
    that a midpoint next to the root allows.  A midpoint already evaluated,
    and so of uncertified sign, or one that rounds to a bracket end stops
    the solve.

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
        value, error, slope = points[x] = g(x)
        if not (math.isfinite(value) and math.isfinite(error)):
            raise NumericalError(f"g({x}) is not finite: {value} +- {error}")
        if abs(value) > error and lo < x < hi:
            if value > 0.0:
                lo = x
            else:
                hi = x
        return value, error, slope

    x, (value, error, slope) = start, sample(start)
    iterations, probed, stalled = 0, False, False
    while hi - lo > tol and iterations < MAX_STEPS:
        step = value / slope if slope != 0.0 and math.isfinite(slope) else math.inf
        w = 1.0 - x
        s = step / w
        # exp(700) w > 1 for every double x < 1: a longer step down lands below 0.
        t = x - w * math.expm1(s if s < 700.0 else 700.0)
        if t >= 1.0:  # a landing beyond every double below 1 is taken at the last one
            t = 1.0 - UNIT_ROUNDOFF
        close = not probed and abs(step) < 0.5 * tol
        if close:
            t = min(max(t, lo), hi)
        elif probed or stalled or not lo < t < hi or t in points:
            stalled = stalled or probed or t in points
            t = 0.5 * (lo + hi)
            if not lo < t < hi or t in points:
                break  # bracket at rounding floor, or its midpoint already evaluated
        iterations += 1
        if lo < t < hi:
            x, (value, error, slope) = t, sample(t)
        if close:
            for p in (t - 0.4 * tol, t + 0.4 * tol):
                if lo < p < hi:
                    sample(p)
        probed = close
    residual, best = min([(abs(v[0]), x) for x, v in points.items() if lo <= x <= hi])
    return RadiusResult(best, lo, hi, residual, iterations, len(points), hi - lo <= tol)


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

    The closed form only starts the solve, whose probes certify the bracket
    it returns.  x = 0 also solves the equation, so the bracket is
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
    ``(1+gamma) - (3+gamma) ln(1/(1-x))``; the value's error bound allows one
    unit roundoff for each of its six roundings, libm counted twice."""
    def equation(x: float) -> tuple[float, float, float]:
        log_term = -math.log1p(-x)
        first = (3.0 + gamma) * (1.0 - x) * log_term
        error = 8.0 * UNIT_ROUNDOFF * (first + 2.0 * x)
        return first - 2.0 * x, error, (1.0 + gamma) - (3.0 + gamma) * log_term

    return equation


def log_bound(r: float) -> float:
    """The comparison bound ``(1/r) ln(1/(1-r))``, equal to 1 at r = 0.

    log1p keeps every r > 0 accurate, subnormal r included: only r = 0 is
    the 0/0 limit.
    """
    r = finite_real(r, "radius", "lie in [0, 1)", in_unit_interval)
    return -math.log1p(-r) / r if r else 1.0


def _tail_balance_equation(beta_eff: float, prefactor: float):
    """``r -> 1/beta_eff - prefactor * sum_{n>=1} r^n/(n+beta_eff)``.

    The slope uses ``d/dr sum = 1/(1-r) - (beta_eff/r) sum`` (1/(1+beta_eff)
    at r = 0), free once the sum is known.  The error bound adds to the
    scaled sum's bound the roundings of 1/beta_eff (u), of the product (3u,
    two of them in ``2/(1+gamma)``) and of the difference (u of both parts):
    ``4u (1/beta_eff + prefactor * sum)``.  The sum's own error is the one
    ``lerch_tail_sum`` certifies: at most about 5.3u of it where summed
    directly.
    """
    def equation(r: float) -> tuple[float, float, float]:
        total, total_err = lerch_tail_sum(r, beta_eff, 1)
        value = 1.0 / beta_eff - prefactor * total
        error = (prefactor * total_err
                 + 4.0 * UNIT_ROUNDOFF * (1.0 / beta_eff + prefactor * total))
        d_sum = 1.0 / (1.0 - r) - beta_eff / r * total if r > 0.0 else 1.0 / (1.0 + beta_eff)
        return value, error, -prefactor * d_sum

    return equation


def _solve_tail_balance(beta_eff: float, prefactor: float, tol: float) -> RadiusResult:
    """Solve the decreasing tail-balance equation on [0, 1).

    The equation is 1/beta_eff > 0 at r = 0 and diverges to -inf as r -> 1
    (harmonic tail), so [0, 1] brackets the root with no evaluation.  The
    solve starts at 0.5.  In ``u = ln(1/(1-r))`` the sum's slope
    ``(1-r) d/dr sum = 1 - (beta_eff (1-r)/r) sum`` grows with r, so the
    equation is concave there: a Newton step from a positive value lands at
    or just past the root, and steps from above approach it from above.  A
    solve whose lower end reaches the largest double below 1 has its root
    beyond every double.
    """
    equation = _tail_balance_equation(beta_eff, prefactor)
    res = _solve(equation, 0.0, 1.0, tol, 0.5)
    if res.bracket_lo == 1.0 - UNIT_ROUNDOFF:
        value, error, _ = equation(res.bracket_lo)
        raise NumericalError(
            f"the radius for beta={beta_eff} lies within double resolution of 1: "
            f"the equation is still {value:.3e} +- {error:.1e} at r = 1 - 2**-53")
    return res


def bernardi_radius(gamma: DomainGamma, beta: float,
                    tol: float = DEFAULT_TOL) -> RadiusResult:
    """Root of ``1/beta = (2/(1+gamma)) sum_{n>=1} r^n/(n+beta)`` on (0, 1)."""
    beta = finite_real(beta, "beta", "be a positive real", lambda b: b > 0.0)
    return _solve_tail_balance(beta, 2.0 / (1.0 + gamma.gamma), tol)


def bernardi_radius_classic(beta: float, m: int, tol: float = DEFAULT_TOL) -> RadiusResult:
    """Positive root of ``x^m/(m+beta) - 2 sum_{n>=m+1} x^n/(n+beta)`` on (0, 1).

    Dividing out x^m removes the trivial root at 0 and leaves the same
    tail-balance shape with effective exponent m + beta:
    ``1/(m+beta) - 2 sum_{j>=1} x^j/(j+m+beta)``.  ``BernardiParams`` checks
    the arguments, beta > -m among them.
    """
    p = BernardiParams(beta, m)
    return _solve_tail_balance(p.m + p.beta, 2.0, tol)


def bohr_radius_omega(gamma: DomainGamma) -> float:
    """Reference Bohr radius ``(1+gamma)/(3+gamma)`` of the identity operator.

    Reduces to the classical 1/3 at gamma = 0; used by the verification
    suites as the safe radius for plain majorants on Omega_gamma.
    """
    g = gamma.gamma
    return (1.0 + g) / (3.0 + g)
