"""The three radius equations solved as certified bracketed root problems.

Each radius is the unique positive root of a strictly sign-changing scalar
equation on (0, 1):

* Cesaro:          ``(3+gamma)(1-x) ln(1/(1-x)) = 2x``
* Bernardi:        ``1/beta = (2/(1+gamma)) sum_{n>=1} r^n/(n+beta)``
* Bernardi (unit disk, m-fold zero):
                   ``x^m/(m+beta) = 2 sum_{n>=m+1} x^n/(n+beta)``

Every equation returns its value, a certified bound on that value's
truncation and rounding error, and its analytic slope.  The solver takes
safeguarded Newton steps on the slope and accepts a sign only where the
value exceeds its error bound, so a converged result carries a bracket whose
end signs are certified.  The tail sum costs the same at any r < 1
(``lerch.lerch_tail_sum``), so Bernardi radii within a few 1e-6 of 1
solve like any other; a root closer to 1 than double resolution raises
NumericalError.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import BracketingError, DomainError, NumericalError
from .lerch import UNIT_ROUNDOFF, DomainGamma, finite_real, lerch_tail_sum, nonnegative_int

DEFAULT_TOL = 1e-12
# Safety net for the step loop; Newton needs well under 20 steps here.
MAX_STEPS = 100
# Shortest upper-bracket walk step in ln(1/(1-r)) for the tail balance.
WALK_MIN_STEP = 1.0 / 64


class RadiusResult(namedtuple("RadiusResult", "value bracket_lo bracket_hi residual "
                                              "iterations evaluations converged")):
    """A computed radius with its certifying bracket and convergence data.

    ``iterations`` counts solver steps (Newton or bisection, each with its
    closing probes); ``evaluations`` counts every call of the equation,
    bracket ends, upper-bracket walk and probes included.
    """

    __slots__ = ()

    def as_dict(self) -> dict:
        return self._asdict()


def solve_bracketed(g, lo: float, hi: float, tol: float = DEFAULT_TOL) -> RadiusResult:
    """Root of g on [lo, hi] by safeguarded Newton steps with certified signs.

    ``g(x)`` returns ``(value, error, slope)``: the equation's value, a bound
    on that value's error, and its derivative.  A sign counts only where
    ``|value| > error``, and g(lo), g(hi) must have certified, opposite signs.

    Each step moves from the latest point along the Newton step, or to the
    bracket midpoint when that step would leave the bracket or the slope is
    unusable; every certified sign shrinks the bracket.  Once a Newton step
    is shorter than tol/2, the step lands on its target (clamped into the
    bracket) and probes 0.4 tol on either side of it, which closes a
    certified bracket of width <= tol around a simple root.  If the probes
    leave a wider bracket, the next step bisects; if they certify no sign,
    the error bound hides the root and the solve stops there.

    Returns the evaluated point inside the final bracket with the smallest
    |value|; ``converged`` is true only when the certified bracket is at most
    tol wide.
    """
    lo, hi = finite_real(lo, "lo"), finite_real(hi, "hi")
    if not (lo < hi):
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    return _solve(g, lo, hi, tol)


def _solve(g, lo: float, hi: float, tol: float, ends=(None, None), calls: int = 0):
    """``solve_bracketed`` on a checked bracket.  ``ends`` holds g(lo) and g(hi)
    where the caller has them (None where not), which are not evaluated again;
    ``evaluations`` counts the caller's ``calls`` of g and the solve's own."""
    if (tol := finite_real(tol, "tolerance", "be a positive real")) <= 0.0:
        raise DomainError(f"tolerance must be a positive real, got {tol}")
    points = []  # (|value|, x) of every evaluation

    def sample(x, known=None):
        nonlocal calls
        calls += known is None
        value, error, slope = g(x) if known is None else known
        if not (math.isfinite(value) and math.isfinite(error)):
            raise NumericalError(f"g({x}) is not finite: {value} +- {error}")
        points.append((abs(value), x))
        return value, error, slope

    f_lo, f_hi = sample(lo, ends[0]), sample(hi, ends[1])
    for x, (value, error, _) in ((lo, f_lo), (hi, f_hi)):
        if value == 0.0 and error == 0.0:
            return RadiusResult(x, x, x, 0.0, 0, calls, True)
    if not (abs(f_lo[0]) > f_lo[1] and abs(f_hi[0]) > f_hi[1]) or (
            (f_lo[0] > 0.0) == (f_hi[0] > 0.0)):
        raise BracketingError(
            f"no certified sign change on [{lo}, {hi}]: g(lo)={f_lo[0]:.3e} +- "
            f"{f_lo[1]:.1e}, g(hi)={f_hi[0]:.3e} +- {f_hi[1]:.1e}")
    lo_positive = f_lo[0] > 0.0

    def narrow(x, value, error):
        """Move a bracket end to x if the sign there is certified."""
        nonlocal lo, hi
        if abs(value) > error and lo < x < hi:
            if (value > 0.0) == lo_positive:
                lo = x
            else:
                hi = x
            return True
        return False

    x, (value, error, slope) = (lo, f_lo) if abs(f_lo[0]) <= abs(f_hi[0]) else (hi, f_hi)
    iterations, bisect = 0, False
    while hi - lo > tol and iterations < MAX_STEPS:
        iterations += 1
        step = value / slope if slope != 0.0 and math.isfinite(slope) else math.inf
        close = not bisect and abs(step) < 0.5 * tol
        if close:
            t = min(max(x - step, lo), hi)
        else:
            t = x - step
            if bisect or not lo < t < hi:
                t = 0.5 * (lo + hi)
                if not lo < t < hi:
                    break  # bracket at rounding floor
        if lo < t < hi and t != x:
            x, (value, error, slope) = t, sample(t)
            narrow(x, value, error)
        bisect = close  # probes that leave the bracket wider than tol: bisect next
        if close:
            certified = False
            for p in (t - 0.4 * tol, t + 0.4 * tol):
                if lo < p < hi:
                    p_value, p_error, _ = sample(p)
                    certified |= narrow(p, p_value, p_error)
            if not certified:
                break  # the error bound hides the sign around the root
    inside = [point for point in points if lo <= point[1] <= hi]
    residual, best = min(inside)
    return RadiusResult(best, lo, hi, residual, iterations, calls, hi - lo <= tol)


def cesaro_radius(gamma: DomainGamma, tol: float = DEFAULT_TOL) -> RadiusResult:
    """Positive root of ``(3+gamma)(1-x) ln(1/(1-x)) - 2x`` on (0, 1).

    x = 0 also solves the equation, so the bracket is [0.5, 0.75].  The
    equation is linear in gamma, and it is positive at 0.5 (0.040 and 0.386)
    and negative at 0.75 (-0.460 and -0.114) for gamma = 0 and gamma = 1, so
    both signs hold for every gamma in [0, 1).
    """
    return solve_bracketed(_cesaro_equation(gamma.gamma), 0.5, 0.75, tol)


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
    return _solve(equation, lo, hi, tol, (f_lo, f_hi), walked)  # ends not summed again


def bernardi_radius(gamma: DomainGamma, beta: float,
                    tol: float = DEFAULT_TOL) -> RadiusResult:
    """Root of ``1/beta = (2/(1+gamma)) sum_{n>=1} r^n/(n+beta)`` on (0, 1)."""
    if (beta := finite_real(beta, "beta", "be a positive real")) <= 0.0:
        raise DomainError(f"beta must be a positive real, got {beta}")
    return _solve_tail_balance(beta, 2.0 / (1.0 + gamma.gamma), tol)


def bernardi_radius_classic(beta: float, m: int, tol: float = DEFAULT_TOL) -> RadiusResult:
    """Positive root of ``x^m/(m+beta) - 2 sum_{n>=m+1} x^n/(n+beta)`` on (0, 1).

    Dividing out x^m removes the trivial root at 0 and leaves the same
    tail-balance shape with effective exponent m + beta:
    ``1/(m+beta) - 2 sum_{j>=1} x^j/(j+m+beta)``.
    """
    m = nonnegative_int(m, "m")
    if (beta := finite_real(beta, "beta", "exceed -m")) <= -m:
        raise DomainError(f"beta must exceed -m, got beta={beta}, m={m}")
    return _solve_tail_balance(m + beta, 2.0, tol)


def bohr_radius_omega(gamma: DomainGamma) -> float:
    """Reference Bohr radius ``(1+gamma)/(3+gamma)`` of the identity operator.

    Reduces to the classical 1/3 at gamma = 0; used by the verification
    suites as the safe radius for plain majorants on Omega_gamma.
    """
    g = gamma.gamma
    return (1.0 + g) / (3.0 + g)
