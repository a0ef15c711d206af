import math
import pickle

import numpy as np
import pytest
from mpmath import mp

from bohrkit import radii
from bohrkit.errors import DomainError, NumericalError
from bohrkit.operators import lerch_tail_sum
from bohrkit.radii import (RadiusResult, bernardi_radius, bernardi_radius_classic,
                           bohr_radius_omega, cesaro_radius)
from bohrkit.series import DomainGamma

from oracles import (mp_bernardi_equation, mp_bernardi_radius, mp_cesaro_equation,
                     mp_cesaro_radius, mp_findroot, mp_tail_sum)

# 40-digit roots, frozen; the mpmath consistency tests below
# recompute a few of them at runtime.
CESARO_ORACLE = {
    0.0: 0.5335892339199948,
    0.25: 0.5948319600860485,
    0.5: 0.6434789567977547,
    0.75: 0.6828825434594468,
    0.999999: 0.7153317447507720,
}
BERNARDI_ORACLE = {
    (0.0, 1.0): 0.5828116438658114,
    (0.0, 2.0): 0.4742779627424644,
    (0.0, 5.0): 0.3949088694164933,
    (0.5, 1.0): 0.7126980857149483,
    (0.5, 2.0): 0.5970896397301346,
    (0.5, 5.0): 0.5049460210366686,
    (0.999999, 1.0): 0.7968119936520899,
}
CLASSIC_ORACLE = {
    (1.0, 1): 0.4742779627424644,
    (1.0, 0): 0.5828116438658114,
    (2.0, 1): 0.4317717917319920,
}
SOLVER_TOL = 5e-12


# -------------------------------------------------------------- root engine
# Equations return (value, error bound, slope), positive below the root and
# negative above it, as every radius equation is.

def test_solver_linear_root():
    res = radii._solve(lambda x: (0.25 - x, 0.0, -1.0, 0.0, 0.0, 0.0), 0.0, 1.0, 1e-12, 0.0)
    assert res.value == pytest.approx(0.25, abs=1e-12)
    assert res.converged
    assert res.bracket_hi - res.bracket_lo <= 1e-12
    assert res.bracket_lo <= res.value <= res.bracket_hi


def test_solver_sqrt2():
    # The solver takes its steps in ln(1/(1-x)), so its roots lie in (0, 1).
    res = radii._solve(lambda x: (0.5 - x * x, 4e-16 * x * x, -2.0 * x, 0.0, -2.0, 2.0),
                       0.0, 1.0, 1e-12, 0.5)
    assert res.value == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert res.converged
    assert res.bracket_lo <= math.sqrt(0.5) <= res.bracket_hi


def test_solver_rejects_a_non_finite_value():
    with pytest.raises(NumericalError, match="not finite"):
        radii._solve(lambda x: (math.nan, 0.0, -1.0, 0.0, 0.0, 0.0), 0.0, 1.0, 1e-12, 0.5)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_solver_rejects_non_finite_tolerance(tol):
    # A NaN tol never enters the step loop, and an inf tol accepts the whole
    # bracket: either would report the start as the root.
    with pytest.raises(DomainError, match="tolerance"):
        radii._solve(lambda x: (-x, 0.0, -1.0, 0.0, 0.0, 0.0), -1.0, 2.0, tol, 0.5)
    with pytest.raises(DomainError, match="tolerance"):
        cesaro_radius(DomainGamma(0.0), tol)
    with pytest.raises(DomainError, match="tolerance"):
        bernardi_radius(DomainGamma(0.0), 1.0, tol)


def test_solver_stops_when_the_error_hides_the_sign():
    # |value| <= error within 1e-3 of the root: no sign there counts, so the
    # solver cannot close a 1e-12 bracket and must say so.
    res = radii._solve(lambda x: (0.3 - x, 1e-3, -1.0, 0.0, 0.0, 0.0), 0.0, 1.0, 1e-12, 0.0)
    assert not res.converged
    assert res.bracket_lo < 0.3 < res.bracket_hi
    assert res.bracket_lo <= res.value <= res.bracket_hi
    assert res.evaluations >= res.iterations


def test_solver_counts_steps_and_evaluations():
    calls = []

    def g(x):
        calls.append(x)
        return 0.25 - x, 0.0, -1.0, 0.0, 0.0, 0.0
    res = radii._solve(g, 0.0, 1.0, 1e-12, 0.0)
    assert res.evaluations == len(calls)
    assert 1 <= res.iterations < res.evaluations
    assert res.as_dict()["evaluations"] == res.evaluations


@pytest.mark.parametrize("slope_error,curvature,enclosed", [
    (0.0, 1e30, False), (0.9, 0.0, False), (0.0, 1.0, True)],
    ids=["curvature-exceeds-slope", "slope-error-exceeds-half", "enclosed"])
def test_solver_encloses_only_where_the_slope_bound_holds(slope_error, curvature, enclosed):
    # A curvature bound that swamps the slope near every landing, or a slope
    # error above half the slope, leaves no lower bound on |g'|: no
    # enclosure is taken, and the ends are evaluated points the loop reached.
    # Otherwise the enclosure from the close landing places both ends, which
    # are never evaluated.
    calls = []

    def g(x):
        calls.append(x)
        return 0.25 - x, 1e-16, -1.0, slope_error, 0.0, curvature
    res = radii._solve(g, 0.0, 1.0, 1e-12, 0.0)
    assert res.converged and res.bracket_lo < 0.25 < res.bracket_hi
    assert (res.bracket_lo in calls, res.bracket_hi in calls) == (not enclosed, not enclosed)


def test_records_are_immutable_picklable_named_tuples():
    # Records stay frozen, comparable and picklable with the same fields and
    # repr; _replace goes through the gamma check like the constructor.
    res = cesaro_radius(DomainGamma(0.25))
    assert res.as_dict() == dict(zip(RadiusResult._fields, res))
    assert list(res.as_dict()) == ["value", "bracket_lo", "bracket_hi", "residual",
                                   "iterations", "evaluations", "converged"]
    assert repr(DomainGamma(0.25)) == "DomainGamma(gamma=0.25)"
    assert repr(res).startswith(f"RadiusResult(value={res.value!r}, bracket_lo=")
    for record in (DomainGamma(0.25), res):
        assert pickle.loads(pickle.dumps(record)) == record
        assert hash(type(record)(*record)) == hash(record)
        with pytest.raises(AttributeError):
            record.extra = 1
    with pytest.raises(AttributeError):
        res.value = 0.5
    assert DomainGamma(0.25)._replace(gamma=0.5) == DomainGamma(0.5)
    with pytest.raises(DomainError, match="gamma must lie in"):
        DomainGamma(0.25)._replace(gamma=1.5)


# ------------------------------------------------------------- cesaro radius

def test_cesaro_radius_published_constant():
    res = cesaro_radius(DomainGamma(0.0))
    assert abs(res.value - 0.5335) <= 5e-4
    assert res.residual <= 1e-10
    assert res.converged


@pytest.mark.parametrize("gamma,expected", sorted(CESARO_ORACLE.items()))
def test_cesaro_radius_against_frozen_oracle(gamma, expected):
    res = cesaro_radius(DomainGamma(gamma))
    assert res.value == pytest.approx(expected, abs=SOLVER_TOL)


def test_cesaro_radius_matches_runtime_mp_oracle():
    for gamma in (0.0, 0.5):
        assert cesaro_radius(DomainGamma(gamma)).value == pytest.approx(
            mp_cesaro_radius(gamma), abs=SOLVER_TOL)


def test_cesaro_radius_bracket_soundness():
    for gamma in (0.0, 0.3, 0.8):
        g = gamma
        res = cesaro_radius(DomainGamma(gamma))
        eq = lambda x: (3.0 + g) * (1.0 - x) * (-math.log1p(-x)) - 2.0 * x
        assert eq(res.bracket_lo) > 0.0 > eq(res.bracket_hi)
        assert res.bracket_hi - res.bracket_lo <= 1e-12
        assert res.bracket_lo <= res.value <= res.bracket_hi


DENSE_GAMMAS = [0.999999 * j / 1999 for j in range(2000)]


def test_cesaro_radius_strictly_increasing_in_gamma():
    values = [cesaro_radius(DomainGamma(gamma)).value for gamma in DENSE_GAMMAS]
    assert all(b > a for a, b in zip(values, values[1:]))


# The ends of the gamma range, with the smallest subnormal gamma, and a
# grid between them.
LAMBERT_GAMMAS = [0.0, 5e-324, 0.5, 0.999999] + [0.999999 * j / 150 for j in range(1, 150)]


def test_lambert_w_lower_branch_matches_mpmath():
    # At the argument -k e^-k, k = 2/(3+gamma), that the Cesaro radius forms.
    with mp.workdps(40):
        for gamma in LAMBERT_GAMMAS:
            k = 2.0 / (3.0 + gamma)
            z = -k * math.exp(-k)
            w, exact = radii._lambert_w_lower(z), mp.lambertw(z, -1).real
            assert w < -1.0
            assert abs(w - exact) <= 3 * math.ulp(w), gamma


def test_cesaro_radius_bracket_holds_the_mp_root():
    for gamma in [0.999999 * j / 100 for j in range(101)]:
        res = cesaro_radius(DomainGamma(gamma))
        assert res.converged
        assert res.bracket_hi - res.bracket_lo <= radii.DEFAULT_TOL
        assert res.bracket_lo <= mp_cesaro_radius(gamma) <= res.bracket_hi, gamma
        assert res.bracket_lo <= res.value <= res.bracket_hi


def test_cesaro_radius_from_the_closed_form_in_two_evaluations():
    # The W_-1 start leaves one Halley landing, whose mean-value enclosure
    # certifies the bracket; where that landing is the start itself, the
    # solve takes one evaluation.
    for gamma in DENSE_GAMMAS:
        res = cesaro_radius(DomainGamma(gamma))
        assert res.converged and res.evaluations <= 2, gamma


@pytest.mark.parametrize("tol,converged", [
    (1e-16, False), (1e-15, False), (1e-13, True), (1e-3, True), (0.3, True)])
def test_cesaro_radius_tolerance_edges(tol, converged):
    # The enclosure from the landing reaches the value's error bound over the
    # slope, about 1.2e-15, to either side of the root: no tol of 1e-15 or
    # below is met.  A tol wider than [0.5, 0.75] takes no step: the value is
    # the start.
    root = mp_cesaro_radius(0.3)
    res = cesaro_radius(DomainGamma(0.3), tol)
    assert res.converged is converged
    assert res.bracket_lo <= root <= res.bracket_hi
    assert res.bracket_lo <= res.value <= res.bracket_hi
    if tol == 0.3:
        assert res.value == pytest.approx(root, abs=1e-15)
    if tol == 1e-16:
        # Under one ulp of the root the enclosure from the start itself,
        # not a bisection from [0.5, 0.75], gives the narrowest certified
        # bracket.
        assert res.evaluations <= 2
        assert res.bracket_hi - res.bracket_lo <= 5e-14
        with mp.workdps(40):
            f = mp_cesaro_equation(0.3)
            assert f(mp.mpf(res.bracket_lo)) > 0 > f(mp.mpf(res.bracket_hi))


@pytest.mark.parametrize("start", [0.5, 0.75, 0.7])
def test_solve_converges_through_the_loop_from_a_poor_start(start):
    # The start is not trusted: away from the root its Halley step is long,
    # takes no enclosure, and the safeguarded loop closes the bracket.
    res = radii._solve(radii._cesaro_equation(0.0), 0.5, 0.75, 1e-12, start=start)
    assert res.converged
    assert res.iterations > 1
    assert res.bracket_lo <= CESARO_ORACLE[0.0] <= res.bracket_hi


def test_solve_bisects_down_to_the_rounding_floor():
    # A zero slope leaves only midpoint steps.  Under a tol that no two
    # doubles meet, they go on until lo and hi are neighbouring doubles,
    # whose midpoint rounds to an end: there the solve stops.
    res = radii._solve(lambda x: (1.0 if x < 0.3 else -1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                       0.0, 1.0, 1e-300, 0.5)
    assert not res.converged
    assert res.bracket_hi == math.nextafter(res.bracket_lo, 1.0)
    assert res.bracket_lo < 0.3 <= res.bracket_hi
    assert res.iterations < radii.MAX_STEPS


# ----------------------------------------------------------- bernardi radius

@pytest.mark.parametrize("key,expected", sorted(BERNARDI_ORACLE.items()))
def test_bernardi_radius_against_frozen_oracle(key, expected):
    gamma, beta = key
    res = bernardi_radius(DomainGamma(gamma), beta)
    assert res.value == pytest.approx(expected, abs=SOLVER_TOL)
    assert res.residual <= 1e-10
    assert res.converged


def test_bernardi_radius_matches_runtime_mp_oracle():
    assert bernardi_radius(DomainGamma(0.0), 1.0).value == pytest.approx(
        mp_bernardi_radius(0.0, 1.0), abs=SOLVER_TOL)


# Roots from 1 - 1.5e-3 up to 1 - 1e-13, where a direct tail sum to 1e-13
# would need more than the 20000-term order cap.
NEAR_ONE = [(0.2, 0.05), (0.5, 0.1), (0.9, 0.15), (0.2, 0.03), (0.2, 0.02)]


@pytest.mark.parametrize("gamma,beta", NEAR_ONE)
def test_bernardi_radius_near_one_matches_mp_root(gamma, beta):
    res = bernardi_radius(DomainGamma(gamma), beta)
    assert res.converged
    assert res.bracket_hi - res.bracket_lo <= 1e-12
    assert res.bracket_lo <= res.value <= res.bracket_hi < 1.0
    assert res.value == pytest.approx(mp_bernardi_radius(gamma, beta), abs=1e-12)
    with mp.workdps(40):
        f = mp_bernardi_equation(gamma, beta)
        assert f(res.bracket_lo) > 0 > f(res.bracket_hi)


# Small grids of the three equations, the near-1 Bernardi rows among them;
# classic rows keep m + beta exact in binary.
CERTIFIED_ROWS = [
    ("bernardi", 0.0, 1.0), ("bernardi", 0.5, 2.0), ("bernardi", 0.9, 20.0),
    ("bernardi", 0.2, 0.05), ("bernardi", 0.9, 0.15), ("bernardi", 0.0, 0.02),
    ("classic", 0, 0.3), ("classic", 1, 1.0), ("classic", 5, 10.0),
    ("cesaro", 0.0, None), ("cesaro", 0.5, None), ("cesaro", 0.999999, None),
]


@pytest.mark.parametrize("equation,a,b", CERTIFIED_ROWS)
def test_radius_bracket_ends_have_certified_signs_at_40_digits(equation, a, b):
    # Each end is the caller's, an evaluated point whose sign is certified,
    # or placed by the mean-value enclosure without an evaluation: 40-digit
    # arithmetic confirms the sign it claims, and the radius lies within
    # 2 ulp of the 40-digit root between them.
    if equation == "cesaro":
        res, limit = cesaro_radius(DomainGamma(a)), 2
    elif equation == "bernardi":
        res, limit = bernardi_radius(DomainGamma(a), b), 5
    else:
        res, limit = bernardi_radius_classic(b, a), 5
    assert res.converged and res.evaluations <= limit
    assert res.bracket_lo <= res.value <= res.bracket_hi < 1.0
    with mp.workdps(40):
        f = (mp_cesaro_equation(a) if equation == "cesaro"
             else mp_bernardi_equation(a, b) if equation == "bernardi"
             else mp_bernardi_equation(0.0, a + b))
        root = mp_findroot(f, res.bracket_lo, res.bracket_hi)  # asserts the signs
        assert abs(mp.mpf(res.value) - root) <= 2 * math.ulp(res.value)


@pytest.mark.parametrize("gamma,beta,tol", [
    (0.0, 0.5, 1e-16), (0.5, 2.0, 1e-16), (0.9, 1.0, 1e-16), (0.9, 2.0, 1e-16),
    (0.0, 1.0, 1e-17), (0.3, 3.0, 1e-16),
], ids=["0.0-0.5", "0.5-2.0", "0.9-1.0", "0.9-2.0", "0.0-1.0-1e-17", "0.3-3.0"])
def test_bernardi_radius_below_the_root_ulp_bisects_instead_of_stalling(gamma, beta, tol):
    # Under the root's ulp a Halley step lands on a double already evaluated,
    # whose sign the error bound hides.  The mean-value enclosure from there
    # is the narrowest certified bracket, a few ulp wide, and the solve
    # bisects inside it until a midpoint is already evaluated: 4-5
    # evaluations here.
    res = bernardi_radius(DomainGamma(gamma), beta, tol)
    assert not res.converged
    assert res.iterations < radii.MAX_STEPS and res.evaluations <= 7
    assert res.bracket_hi - res.bracket_lo <= 5e-14
    assert res.bracket_lo <= res.value <= res.bracket_hi
    with mp.workdps(40):
        f = mp_bernardi_equation(gamma, beta)
        assert f(res.bracket_lo) > 0 > f(res.bracket_hi)


def test_bernardi_radius_converges_through_midpoint_steps():
    # At tol 1e-15 the same solve needs its midpoint steps to close the bracket.
    res = bernardi_radius(DomainGamma(0.0), 0.5, 1e-15)
    assert res.converged
    assert res.bracket_hi - res.bracket_lo <= 1e-15
    with mp.workdps(40):
        f = mp_bernardi_equation(0.0, 0.5)
        assert f(res.bracket_lo) > 0 > f(res.bracket_hi)


def test_bernardi_radius_below_double_resolution_says_so(monkeypatch):
    # These roots lie within 2**-53 of 1: no double lies between.  The first
    # landing is the largest double below 1, whose certified sign says so;
    # the message is worded from that sum, the second.
    summed = []

    def counting_tail_sum(r, *args, **kwargs):
        summed.append(r)
        return lerch_tail_sum(r, *args, **kwargs)
    monkeypatch.setattr(radii, "lerch_tail_sum", counting_tail_sum)
    # At (0.5, 0.02) a Halley step shortened from Newton's would land below
    # 1 - 2**-53, leaving a bracket to 1 narrower than tol around no double.
    for gamma, beta in [(0.2, 0.01), (0.0, 1e-6), (0.99, 0.01), (0.5, 0.02)]:
        summed.clear()
        message = (rf"^the radius for beta={beta} lies within double resolution of 1: "
                   r"the equation is still \S+ \+- \S+ at r = 1 - 2\*\*-53$")
        with pytest.raises(NumericalError, match=message):
            bernardi_radius(DomainGamma(gamma), beta)
        assert len(summed) <= 2, (gamma, beta)


# At beta = 1 the Bernardi equation reads ln(1/(1-r))/r = c, c = (3+gamma)/2,
# so R = 1 + W_0(-c e^-c)/c; the classic equation with m + beta = 1 is the
# gamma = 0 one.
@pytest.mark.parametrize("gamma,classic", [
    (0.0, False), (0.25, False), (0.5, False), (0.75, False), (0.99, False), (0.0, True)])
def test_bernardi_radius_at_beta_one_matches_lambert_w(gamma, classic):
    res = (bernardi_radius_classic(1.0, 0) if classic
           else bernardi_radius(DomainGamma(gamma), 1.0))
    with mp.workdps(40):
        c = (3 + mp.mpf(gamma)) / 2
        root = 1 + mp.lambertw(-c * mp.exp(-c)).real / c
        assert res.converged
        assert res.bracket_lo <= root <= res.bracket_hi
        assert abs(res.value - root) <= math.ulp(res.value)


def test_bernardi_radius_near_gamma_one_limit():
    # gamma -> 1: the equation tends to ln(1/(1-r)) = 2r, root about 0.797.
    root = bernardi_radius(DomainGamma(0.999999), 1.0).value
    assert abs(root - 0.797) < 5e-4


def test_bernardi_radius_positive_at_zero():
    # h(0) = 1/beta > 0: the bracket never pins the spurious origin.
    for beta in (0.5, 1.0, 4.0):
        value, error = lerch_tail_sum(0.0, beta)
        assert value == 0.0 and 1.0 / beta > 0.0


def test_bernardi_radius_domain_errors():
    with pytest.raises(DomainError):
        bernardi_radius(DomainGamma(0.2), 0.0)
    with pytest.raises(DomainError):
        bernardi_radius(DomainGamma(0.2), -1.0)


@pytest.mark.parametrize("solve", [
    lambda: bernardi_radius(DomainGamma(0.0), 0.3),  # root near 0.86
    lambda: bernardi_radius(DomainGamma(0.2), 5.0),  # root near 0.44
    lambda: bernardi_radius(DomainGamma(0.2), 0.05),  # root within 6e-6 of 1
    lambda: bernardi_radius_classic(1.0, 5),
], ids=["gamma0-beta0.3", "gamma0.2-beta5", "gamma0.2-beta0.05", "classic-m5"])
def test_bernardi_solve_sums_each_point_once(monkeypatch, solve):
    # The bracket [0, 1) is proved, not summed: the solve sums r = 0 not at
    # all, and no other point twice.
    summed = []

    def counting_tail_sum(r, *args, **kwargs):
        summed.append(r)
        return lerch_tail_sum(r, *args, **kwargs)
    monkeypatch.setattr(radii, "lerch_tail_sum", counting_tail_sum)
    res = solve()
    assert len(set(summed)) == len(summed)
    assert 0.0 not in summed
    assert res.evaluations == len(summed)


# The log grid of beta from 0.1 to 50 that the benchmark sweeps.
BETA_GRID = [0.1 * 500.0 ** (k / 12) for k in range(13)]


@pytest.mark.parametrize("gamma,m", [
    (0.0, None), (0.2, None), (0.5, None), (0.9, None), (None, 0), (None, 1), (None, 2),
    (None, 5)])
def test_bernardi_solve_takes_at_most_eight_evaluations(gamma, m):
    # From 0.5 the first landing in ln(1/(1-r)) lies at or just past the
    # root; Halley steps from there and one close landing, whose mean-value
    # enclosure certifies the bracket, take at most five evaluations, where
    # Newton steps and two closing probes took up to eight.
    for beta in BETA_GRID:
        res = (bernardi_radius(DomainGamma(gamma), beta) if m is None
               else bernardi_radius_classic(beta, m))
        assert res.converged and res.evaluations <= 5, beta


def test_bernardi_radius_residual_certificate():
    for (gamma, beta) in [(0.0, 1.0), (0.5, 2.0), (0.25, 5.0)]:
        res = bernardi_radius(DomainGamma(gamma), beta)
        value, error = lerch_tail_sum(res.value, beta)
        residual = abs(1.0 / beta - 2.0 / (1.0 + gamma) * value)
        assert residual <= 1e-10
        assert error <= 1e-13


@pytest.mark.parametrize("beta", [1e12, 1e16, 1e100, 1e300])
@pytest.mark.parametrize("gamma,m", [(0.0, None), (0.5, None), (0.9, None), (None, 0),
                                     (None, 5)])
def test_bernardi_bracket_holds_root_at_large_beta(beta, gamma, m):
    # Exponents far beyond the benchmark grid, where the tail balance's slope
    # cancels.  Up to 1e16 the root is the 40-digit mpmath one; beyond, the
    # limit R0 (1 + 1/beta), R0 = (1+gamma)/(3+gamma), whose next term is
    # below 1e-24.  The classic equation is the gamma = 0 one at m + beta.
    res = (bernardi_radius(DomainGamma(gamma), beta) if m is None
           else bernardi_radius_classic(beta, m))
    g = gamma if m is None else 0.0
    assert res.converged
    with mp.workdps(40):
        b = mp.mpf(beta) + (m or 0)
        if beta <= 1e16:
            root = mp_findroot(mp_bernardi_equation(g, b), mp.mpf("1e-6"), 1 - mp.mpf("1e-15"))
        else:
            root = (1 + mp.mpf(g)) / (3 + mp.mpf(g)) * (1 + 1 / b)
        assert res.bracket_lo <= root <= res.bracket_hi


@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_mp_findroot_lands_on_a_flat_root_from_a_narrow_bracket(gamma):
    # At beta = 1e16 the Bernardi equation is about 1e-16 in size and flat.
    # From a bracket 1e-10 wide, mpmath's default stop |f| < 2**10 eps gave
    # a root 8e-32 off, which failed the oracle's own 1e-35 sign check.
    with mp.workdps(80):
        ref = mp_findroot(mp_bernardi_equation(gamma, 1e16), mp.mpf("1e-6"),
                          1 - mp.mpf("1e-15"))
    with mp.workdps(40):
        half = mp.mpf("5e-11")
        root = mp_findroot(mp_bernardi_equation(gamma, 1e16), ref - half, ref + half)
        assert abs(root - ref) <= mp.mpf("1e-45")


def test_bernardi_radius_monotone_grids():
    # Strictly increasing in gamma; strictly monotone in beta.  The beta
    # direction is decreasing: as beta -> 0 the root climbs to 1, as
    # beta -> infinity it falls to (1+gamma)/(3+gamma).
    gammas = [0.0, 0.2, 0.4, 0.6, 0.8]
    betas = [0.5, 1.0, 2.0, 3.5, 5.0]
    table = {(g, b): bernardi_radius(DomainGamma(g), b).value
             for g in gammas for b in betas}
    for b in betas:
        col = [table[(g, b)] for g in gammas]
        assert all(y > x for x, y in zip(col, col[1:]))
    for g in gammas:
        row = [table[(g, b)] for b in betas]
        diffs = [y - x for x, y in zip(row, row[1:])]
        assert all(d < 0 for d in diffs)


# --------------------------------------------------- bernardi radius, m-fold

@pytest.mark.parametrize("key,expected", sorted(CLASSIC_ORACLE.items()))
def test_classic_radius_against_frozen_oracle(key, expected):
    beta, m = key
    res = bernardi_radius_classic(beta, m)
    assert res.value == pytest.approx(expected, abs=SOLVER_TOL)
    assert res.residual <= 1e-10


def test_classic_radius_m0_equals_unit_disk_bernardi():
    # Divided by x^m, the classic equation is the unit-disk Bernardi one at
    # exponent m + beta, and is solved as that: the whole result, bracket
    # and counts included, is the same, at m = 0 and above.
    for m in (0, 1, 2, 5):
        for beta in BETA_GRID:
            assert (bernardi_radius_classic(beta, m)
                    == bernardi_radius(DomainGamma(0.0), m + beta)), (beta, m)


def test_classic_radius_m1_closed_form_reduction():
    # x/2 = 2 sum_{n>=2} x^n/(n+1)  <=>  ln(1/(1-x)) = x + 3x^2/4
    root = bernardi_radius_classic(1.0, 1).value
    assert abs(root - 0.474) < 5e-4
    assert -math.log1p(-root) == pytest.approx(root + 0.75 * root * root, abs=1e-10)


def test_classic_radius_original_equation_residual():
    # The undivided form x^m/(m+beta) - 2 sum_{n>=m+1} x^n/(n+beta) must also
    # vanish at the root; the sum is mpmath's, not the solver's own shift.
    for beta, m in [(1.0, 1), (2.0, 1), (0.5, 2)]:
        root = bernardi_radius_classic(beta, m).value
        with mp.workdps(40):
            residual = mp.mpf(root) ** m / (m + beta) - 2 * mp_tail_sum(root, beta, m + 1)
        assert abs(residual) <= 1e-10


def test_classic_radius_domain_errors():
    with pytest.raises(DomainError):
        bernardi_radius_classic(-1.0, 1)
    with pytest.raises(DomainError):
        bernardi_radius_classic(1.0, -1)


def test_classic_radius_takes_numpy_integer_m():
    assert bernardi_radius_classic(1.0, np.int64(1)) == bernardi_radius_classic(1.0, 1)
    for m in (True, np.True_, 1.0, np.float64(1.0)):
        with pytest.raises(DomainError, match="m must be a nonnegative integer"):
            bernardi_radius_classic(1.0, m)


# ----------------------------------------------------------- reference radius

def test_bohr_radius_omega_values():
    assert bohr_radius_omega(DomainGamma(0.0)) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert bohr_radius_omega(DomainGamma(1.0 / 3.0)) == pytest.approx(0.4, abs=1e-15)
    assert bohr_radius_omega(DomainGamma(0.5)) == pytest.approx(3.0 / 7.0, abs=1e-15)
