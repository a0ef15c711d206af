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
the ends of the bracket it hands the solver: ``cesaro_radius`` analytically
for every gamma, the Bernardi solves by the certified values of their walk
toward 1.  The solver takes safeguarded Newton steps on the slope from a
start inside that bracket and narrows it only where a value exceeds its
error bound, so a converged result carries a bracket whose end signs are
certified.  The Cesaro root has the closed form
``1 - exp(k + W_-1(-k e^-k))``, ``k = 2/(3+gamma)``, with the lower branch
of Lambert W (``cesaro_radius``); its solve starts there, so one Newton
landing and the two probes that certify its bracket finish it.  The
Bernardi solves start at the walked bracket end nearer the root.  Their
tail sum costs the same at any r < 1 (``lerch.lerch_tail_sum``), so
Bernardi radii within a few 1e-6 of 1 solve like any other; a root closer
to 1 than double resolution raises NumericalError.
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
# Shortest upper-bracket walk step in ln(1/(1-r)) for the tail balance.
WALK_MIN_STEP = 1.0 / 64


class RadiusResult(namedtuple("RadiusResult", "value bracket_lo bracket_hi residual "
                                              "iterations evaluations converged")):
    """A computed radius with its certifying bracket and convergence data.

    ``iterations`` counts solver steps (Newton or bisection, each with its
    closing probes); ``evaluations`` counts every call of the equation, the
    upper-bracket walk and the probes included.  The bracket ends are proved
    by the caller and are evaluated only where the walk reached them.
    """

    __slots__ = ()

    def as_dict(self) -> dict:
        return self._asdict()


def _solve(g, lo: float, hi: float, tol: float, start: float, known=None,
           calls: int = 0) -> RadiusResult:
    """Root of g on [lo, hi] by safeguarded Newton steps with certified signs.

    ``g(x)`` returns ``(value, error, slope)``: the equation's value, a bound
    on that value's error, and its derivative.  A sign counts only where
    ``|value| > error``.  The caller has proved g > 0 at lo and g < 0 at hi,
    so neither end is evaluated; the steps begin at ``start``, whose g value
    is ``known`` where the caller has it.  ``evaluations`` counts the
    caller's ``calls`` of g and the solve's own.

    Each step moves from the latest point along the Newton step, or to the
    bracket midpoint when that step would leave the bracket or land on a
    point already evaluated, or the slope is unusable; every certified sign
    shrinks the bracket.  Below the root's ulp, Newton steps would otherwise
    alternate between two neighbouring doubles whose signs the error bound
    hides.  A midpoint already evaluated, and so of uncertified sign, or one
    that rounds to a bracket end stops the solve.  Once a Newton step
    is shorter than tol/2, the step lands on its target (clamped into the
    bracket) and probes 0.4 tol on either side of it, which closes a
    certified bracket of width <= tol around a simple root.  A probe that
    rounds to the landing point is skipped: it could certify no sign the
    landing did not.  If the probes leave a wider bracket, the next step
    bisects; if they certify no sign, the error bound hides the root and the
    solve stops there.

    Returns the evaluated point inside the final bracket with the smallest
    |value|; ``converged`` is true only when the certified bracket is at most
    tol wide.
    """
    tol = finite_real(tol, "tolerance", "be a positive real", lambda t: t > 0.0)
    points = {}  # |value| at every evaluated x

    def sample(x, known=None):
        nonlocal calls
        calls += known is None
        value, error, slope = g(x) if known is None else known
        if not (math.isfinite(value) and math.isfinite(error)):
            raise NumericalError(f"g({x}) is not finite: {value} +- {error}")
        points[x] = abs(value)
        return value, error, slope

    def narrow(x, value, error):
        """Move a bracket end to x if the sign there is certified."""
        nonlocal lo, hi
        if abs(value) > error and lo < x < hi:
            if value > 0.0:
                lo = x
            else:
                hi = x
            return True
        return False

    x, (value, error, slope) = start, sample(start, known)
    narrow(x, value, error)
    iterations, bisect = 0, False
    while hi - lo > tol and iterations < MAX_STEPS:
        iterations += 1
        step = value / slope if slope != 0.0 and math.isfinite(slope) else math.inf
        close = not bisect and abs(step) < 0.5 * tol
        if close:
            t = min(max(x - step, lo), hi)
        else:
            t = x - step
            if bisect or not lo < t < hi or t in points:
                t = 0.5 * (lo + hi)
                if not lo < t < hi or t in points:
                    break  # bracket at rounding floor, or its midpoint already evaluated
        if lo < t < hi and t != x:
            x, (value, error, slope) = t, sample(t)
            narrow(x, value, error)
        bisect = close  # probes that leave the bracket wider than tol: bisect next
        if close:
            certified = False
            for p in (t - 0.4 * tol, t + 0.4 * tol):
                if lo < p < hi and p != t:
                    p_value, p_error, _ = sample(p)
                    certified |= narrow(p, p_value, p_error)
            if not certified:
                break  # the error bound hides the sign around the root
    inside = [(residual, x) for x, residual in points.items() if lo <= x <= hi]
    residual, best = min(inside)
    return RadiusResult(best, lo, hi, residual, iterations, calls, hi - lo <= tol)


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
    """Solve the decreasing tail-balance equation with an expanding upper bracket.

    The equation is 1/beta_eff at r = 0 and diverges to -inf as r -> 1
    (harmonic tail), so a sign change always exists.  The upper end walks
    toward 1 until the value there is certifiably negative; the last
    certifiably positive point becomes the lower end.  Each walk step is a
    Newton step in ``u = ln(1/(1-r))``, at least WALK_MIN_STEP long.  In u
    the sum's slope ``(1-r) d/dr sum = 1 - (beta_eff (1-r)/r) sum`` grows with
    r, so the equation is concave there and the step from a positive value
    lands at or just past the root.  Every step moves by at least one double,
    and the walk stops at the largest double below 1.
    """
    equation = _tail_balance_equation(beta_eff, prefactor)
    lo, hi, f_lo, walked = 0.0, 0.5, None, 0
    while True:
        f_hi = value, error, slope = equation(hi)
        walked += 1
        if value < -error:
            break
        if value > error:
            lo, f_lo = hi, f_hi
        if hi == 1.0 - UNIT_ROUNDOFF:
            raise NumericalError(
                f"the radius for beta={beta_eff} lies within double resolution of 1: "
                f"the equation is still {value:.3e} +- {error:.1e} at r = 1 - 2**-53")
        w = 1.0 - hi
        jump = max(value / (-slope * w), WALK_MIN_STEP)
        hi = min(max(1.0 - w * math.exp(-jump), math.nextafter(hi, 1.0)),
                 1.0 - UNIT_ROUNDOFF)
    # Start at the walked end with the smaller |value|, with that value.  An
    # unwalked lo = 0 is never it: g(0) = 1/beta_eff exceeds |g(0.5)|, as
    # ``sum 2^-n/(n+beta_eff) < 1/(1+beta_eff)`` and ``prefactor <= 2``.
    start, known = hi, f_hi
    if f_lo is not None and abs(f_lo[0]) <= abs(f_hi[0]):
        start, known = lo, f_lo
    return _solve(equation, lo, hi, tol, start, known, walked)


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
