"""Extremal Mobius-type functions, sharpness decompositions, and scan suites.

The extremal family is ``psi(G(z))`` with ``psi(w) = (a - w)/(1 - a w)`` and
``G(z) = (1 - gamma) z + gamma``; its Taylor coefficients are

    A_0 = (a - gamma)/(1 - a*gamma),
    A_n = ((1 - a^2)/(a (1 - a*gamma))) * q^n   with   q = a(1-gamma)/(1-a*gamma)

carried with alternating sign, f(z) = A_0 - sum A_n z^n.  Both operator
majorants of this family decompose, exactly, into the operator's sharp bound
plus a term linear in (1 - a) whose sign flips at the computed radius plus a
residual remainder quadratic in (1 - a).  With eps = 1 - a the first-order
terms come from ``A_0 = 1 - eps (1+gamma)/(1-gamma) + O(eps^2)`` and
``(1 - a^2)/(a (1 - a*gamma)) = 2 eps/(1-gamma) + O(eps^2)``.  The suites
below evaluate those decompositions, scan for above-radius witnesses, and
stress the coefficient inequality
``|a_n| <= (1 - |a_0|^2)/(1 + gamma)`` over seeded random samples.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, InconclusiveError, PreconditionError
from .operators import (BernardiParams, bernardi_majorant, cesaro_majorant,
                        lerch_tail_sum, log_bound)
from .radii import bernardi_radius, cesaro_radius
from .series import (DomainGamma, SchurSampleSpec, TruncatedPowerSeries,
                     sample_schur_omega, truncation_order)

MAJORANT_TAIL_TARGET = 1e-13
# Allowance for double-precision roundoff in residual-computed remainders.
ROUNDOFF_FLOOR = 1e-14
DEGENERATE_A0_TOL = 1e-8
WITNESS_SLACK = 10.0
NOISE_FILTER = 100.0


@dataclass(frozen=True)
class ExtremalParams:
    """Peak location a of the extremal Mobius function; requires gamma < a < 1."""

    a: float
    gamma: DomainGamma

    def __post_init__(self):
        if not isinstance(self.gamma, DomainGamma):
            object.__setattr__(self, "gamma", DomainGamma(self.gamma))
        if not (isinstance(self.a, (int, float)) and math.isfinite(self.a)):
            raise DomainError("a must be a finite real")
        object.__setattr__(self, "a", float(self.a))
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
        return {
            "gamma": self.gamma,
            "beta": self.beta,
            "r": self.r,
            "radius": self.radius,
            "a_values": list(self.a_values),
            "margins": list(self.margins),
            "witness_found": self.witness_found,
        }


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
        worst = None
        if self.worst_spec is not None:
            worst = {
                "degree": self.worst_spec.degree,
                "seed": self.worst_spec.seed,
                "gamma": self.worst_spec.gamma.gamma,
            }
        return {
            "gamma": self.gamma,
            "samples": self.samples,
            "skipped": self.skipped,
            "max_ratio": self.max_ratio,
            "worst_spec": worst,
        }


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
    if n_out < 0:
        raise DomainError(f"output order must be >= 0, got {n_out}")
    a, g = p.a, p.gamma.gamma
    q = extremal_ratio(p)
    a0 = (a - g) / (1.0 - a * g)
    lead = (1.0 - a * a) / (a * (1.0 - a * g))
    coeffs = np.empty(n_out + 1, dtype=complex)
    coeffs[0] = a0
    if n_out >= 1:
        coeffs[1:] = -lead * q ** np.arange(1, n_out + 1)
    tail = lead * q ** (n_out + 1)
    return TruncatedPowerSeries(coeffs, min(tail, 1.0), schur=True)


def extremal_eval(p: ExtremalParams, z: complex) -> complex:
    """The extremal function in closed rational form (no truncation)."""
    a, g = p.a, p.gamma.gamma
    return (a - g - (1.0 - g) * z) / (1.0 - a * g - a * (1.0 - g) * z)


def _extremal_majorant_order(p: ExtremalParams, r: float) -> int:
    """Truncation order certifying MAJORANT_TAIL_TARGET for the extremal series."""
    q = extremal_ratio(p)
    a0 = (p.a - p.gamma.gamma) / (1.0 - p.a * p.gamma.gamma)
    lead = (1.0 - p.a * p.a) / (p.a * (1.0 - p.a * p.gamma.gamma))
    abs_sum = a0 + lead * q / (1.0 - q)
    return truncation_order(r, tail_bound=max(1.0, abs_sum), target=MAJORANT_TAIL_TARGET)


def cesaro_first_order_factor(gamma: DomainGamma, r: float) -> float:
    """``(2r + (3+gamma)(1-r) ln(1-r)) / (r (1-r))``; changes sign at the radius."""
    g = gamma.gamma
    return (2.0 * r + (3.0 + g) * (1.0 - r) * math.log1p(-r)) / (r * (1.0 - r))


def _cesaro_split(p: ExtremalParams, r: float) -> tuple[Decomposition, float]:
    """The Cesaro decomposition and the certified error of the summed majorant."""
    if not 0.0 < r < 1.0:
        raise DomainError(f"r must lie in (0, 1), got {r}")
    bound = log_bound(r)
    first = (1.0 - p.a) / (1.0 - p.a * p.gamma.gamma) * cesaro_first_order_factor(p.gamma, r)
    series = extremal_coeffs(p, _extremal_majorant_order(p, r))
    value, err = cesaro_majorant(series, r)
    return Decomposition(bound, first, value - bound - first), err


def cesaro_extremal_decomposition(p: ExtremalParams, r: float) -> Decomposition:
    """Split the Cesaro majorant of the extremal function at radius r.

    bound is ``(1/r) ln(1/(1-r))``; first_order is
    ``((1-a)/(1-a*gamma)) * (2r + (3+gamma)(1-r) ln(1-r)) / (r(1-r))``;
    remainder is the residual against the directly summed majorant and is
    quadratic in (1 - a).
    """
    return _cesaro_split(p, r)[0]


def bernardi_first_order_factor(gamma: DomainGamma, beta: float, r: float) -> float:
    """``1/beta - (2/(1+gamma)) sum_{n>=1} r^n/(n+beta)``; changes sign at the radius."""
    value, _ = lerch_tail_sum(r, beta, 1)
    return 1.0 / beta - 2.0 / (1.0 + gamma.gamma) * value


def _bernardi_split(p: ExtremalParams, beta: float,
                    r: float) -> tuple[Decomposition, float]:
    """The Bernardi decomposition and the certified error of the summed majorant.

    The beta < 1 warning points at the code that called the public function.
    """
    if not 0.0 < r < 1.0:
        raise DomainError(f"r must lie in (0, 1), got {r}")
    if beta <= 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if beta < 1.0:
        warnings.warn(
            f"beta={beta} < 1: sharpness behaviour is exploratory here",
            stacklevel=3)
    bound = 1.0 / beta
    g = p.gamma.gamma
    first = (-(1.0 - p.a) * (1.0 + g) / (1.0 - p.a * g)
             * bernardi_first_order_factor(p.gamma, beta, r))
    series = extremal_coeffs(p, _extremal_majorant_order(p, r))
    value, err = bernardi_majorant(series, BernardiParams(beta, 0), r)
    return Decomposition(bound, first, value - bound - first), err


def bernardi_extremal_decomposition(p: ExtremalParams, beta: float,
                                    r: float) -> Decomposition:
    """Split the Bernardi majorant ``sum |A_n| r^n/(n+beta)`` at radius r.

    bound is 1/beta; first_order is ``-(1-a)(1+gamma)/(1-a*gamma)`` times the
    tail-balance factor; remainder is the residual against the directly
    summed majorant and is quadratic in (1 - a).  The sharpness argument is
    established for beta >= 1; smaller beta is accepted but flagged as
    exploratory.
    """
    return _bernardi_split(p, beta, r)[0]


def lemma1_check(gamma: DomainGamma, num_samples: int, degree_max: int,
                 n_out: int, seed: int) -> Lemma1Report:
    """Stress the bound ``|a_n| <= (1-|a_0|^2)/(1+gamma)`` over random samples.

    Samples with ``1 - |a_0|^2 < 1e-8`` (near-unimodular constants) are
    skipped and counted in the report's ``skipped``: the bound forces their
    higher coefficients to vanish and the ratio degenerates to 0/0.
    """
    if num_samples < 1:
        raise DomainError(f"need at least one sample, got {num_samples}")
    if degree_max < 0:
        raise DomainError(f"degree_max must be >= 0, got {degree_max}")
    master = np.random.default_rng(seed)
    g = gamma.gamma
    max_ratio = 0.0
    worst = None
    skipped = 0
    for _ in range(num_samples):
        degree = int(master.integers(0, degree_max + 1))
        child_seed = int(master.integers(0, 2 ** 63))
        spec = SchurSampleSpec(degree, child_seed, gamma)
        sample = sample_schur_omega(spec, n_out)
        mags = np.abs(sample.coeffs)
        denom = float(1.0 - mags[0] ** 2)
        if denom < DEGENERATE_A0_TOL or sample.order < 1:
            skipped += 1
            continue
        ratio = float(np.max(mags[1:])) * (1.0 + g) / denom
        if ratio > max_ratio:
            max_ratio, worst = ratio, spec
    return Lemma1Report(g, num_samples, max_ratio, worst, skipped)


def _scan(bound: float, r: float, gamma: DomainGamma, a_values,
          majorant) -> tuple[tuple, tuple, bool]:
    margins, found = [], False
    for a in a_values:
        p = ExtremalParams(float(a), gamma)
        value, err = majorant(extremal_coeffs(p, _extremal_majorant_order(p, r)))
        margin = value - bound
        margins.append(margin)
        if margin > WITNESS_SLACK * (err + ROUNDOFF_FLOOR):
            found = True
    return tuple(a_values), tuple(margins), found


def sharpness_scan_cesaro(gamma: DomainGamma, r: float, a_values) -> SharpnessReport:
    """Look for extremal functions whose Cesaro majorant exceeds the log bound.

    Only meaningful above the radius; for a close enough to 1 the linear
    term of the decomposition is positive there and must dominate, so a
    witness is expected to exist.
    """
    radius = cesaro_radius(gamma).value
    if r <= radius:
        raise PreconditionError(
            f"sharpness scan needs r > radius {radius:.6f}, got r={r}")
    a_vals, margins, found = _scan(
        log_bound(r), r, gamma, [float(a) for a in a_values],
        lambda s: cesaro_majorant(s, r))
    return SharpnessReport(gamma.gamma, None, r, radius, a_vals, margins, found)


def sharpness_scan_bernardi(gamma: DomainGamma, beta: float, r: float,
                            a_values) -> SharpnessReport:
    """Look for extremal functions whose Bernardi majorant exceeds 1/beta."""
    if beta <= 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if beta < 1.0:
        warnings.warn(
            f"beta={beta} < 1: sharpness behaviour is exploratory here",
            stacklevel=2)
    radius = bernardi_radius(gamma, beta).value
    if r <= radius:
        raise PreconditionError(
            f"sharpness scan needs r > radius {radius:.6f}, got r={r}")
    params = BernardiParams(beta, 0)
    a_vals, margins, found = _scan(
        1.0 / beta, r, gamma, [float(a) for a in a_values],
        lambda s: bernardi_majorant(s, params, r))
    return SharpnessReport(gamma.gamma, beta, r, radius, a_vals, margins, found)


def remainder_order_check(kind: str, gamma: DomainGamma, r: float, a_values,
                          beta: Optional[float] = None) -> float:
    """Least-squares slope of log|remainder| against log(1-a); expected near 2.

    Points whose remainder is within NOISE_FILTER times the certified
    evaluation error are discarded; fewer than two surviving points raise
    InconclusiveError.
    """
    if kind not in ("cesaro", "bernardi"):
        raise DomainError(f"kind must be 'cesaro' or 'bernardi', got {kind!r}")
    if kind == "bernardi" and beta is None:
        raise DomainError("bernardi remainder check needs beta")
    xs, ys = [], []
    for a in a_values:
        p = ExtremalParams(float(a), gamma)
        if kind == "cesaro":
            decomp, err = _cesaro_split(p, r)
        else:
            decomp, err = _bernardi_split(p, beta, r)
        if abs(decomp.remainder) > NOISE_FILTER * (err + ROUNDOFF_FLOOR):
            xs.append(math.log(1.0 - p.a))
            ys.append(math.log(abs(decomp.remainder)))
    if len(xs) < 2:
        raise InconclusiveError(
            "fewer than two remainders cleared the noise filter; "
            "cannot fit an order slope")
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope


def identity_suite(r_grid=None) -> dict:
    """Check the closed-form series identities the decompositions rely on.

    For each r: (i) ``sum_{n>=1} n r^n/(n+1) = 1/(1-r) - (1/r)ln(1/(1-r))``,
    (ii) ``sum_{n>=0} r^n/(n+1) = (1/r)ln(1/(1-r))``, and (iii) the partial
    geometric resummation ``sum_{n>=1} r^n/(n+1) (1-q^n)/(1-q)`` against its
    two-logarithm closed form.  Returns per-identity deviations and the max.
    """
    if r_grid is None:
        r_grid = [round(0.1 * k, 1) for k in range(1, 10)]
    q = 0.7  # representative geometric ratio for the double-sum identity
    deviations = {"weighted_geometric": 0.0, "averaged_geometric": 0.0,
                  "partial_geometric_resummation": 0.0}
    for r in r_grid:
        n = truncation_order(r, tail_bound=1.0, target=1e-13)
        ns = np.arange(1, n + 1)
        powers = np.power(r, ns)
        lhs1 = math.fsum(ns / (ns + 1.0) * powers)
        rhs1 = 1.0 / (1.0 - r) - log_bound(r)
        lhs2 = 1.0 + math.fsum(powers / (ns + 1.0))
        rhs2 = log_bound(r)
        lhs3 = math.fsum(powers / (ns + 1.0) * (1.0 - q ** ns) / (1.0 - q))
        rhs3 = (log_bound(r) - log_bound(q * r)) / (1.0 - q)
        deviations["weighted_geometric"] = max(
            deviations["weighted_geometric"], abs(lhs1 - rhs1))
        deviations["averaged_geometric"] = max(
            deviations["averaged_geometric"], abs(lhs2 - rhs2))
        deviations["partial_geometric_resummation"] = max(
            deviations["partial_geometric_resummation"], abs(lhs3 - rhs3))
    deviations["max_deviation"] = max(deviations.values())
    deviations["r_grid"] = list(r_grid)
    return deviations
