"""Truncated power series with certified tail bounds, and Schur-class test functions.

A series is stored as its first N+1 Taylor coefficients together with a
uniform bound on every omitted coefficient.  That single number certifies
the truncation of majorant evaluations: the modulus of everything beyond it
is at most ``tail_bound * r**(N+1) / (1 - r)`` at radius r.

Test functions for the function class bounded by 1 on the disk Omega_gamma
(the disk ``|z + gamma/(1-gamma)| < 1/(1-gamma)``, which contains the unit
disk) are produced by composing finite Blaschke products with the affine map
``G(z) = (1 - gamma) * z + gamma`` that carries Omega_gamma onto the unit
disk, many samples at a time in batches of bounded memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .errors import DomainError, NumericalError
from .lerch import (ORDER_CAP, UNIT_ROUNDOFF, DomainGamma, finite_complex, finite_real,
                    nonnegative_int)

DEFAULT_TAIL_TARGET = 1e-12

MAX_BLASCHKE_DEGREE = 16
ZERO_SAMPLING_RADIUS = 0.95
# Complex entries (rows times FFT length) one batch of Schur samples holds,
# so peak memory does not grow with the number of samples.
BATCH_ELEMENTS = 2 ** 13
# Certified bound on what the composition with G drops from each coefficient.
COMPOSE_TARGET = 1e-13
# Wording of the tail-bound range check, shared with finite_real's NaN message.
TAIL_BOUND_RULE = "be a finite nonnegative real"


def truncation_order(r: float, tail_bound: float = 1.0,
                     target: float = DEFAULT_TAIL_TARGET) -> int:
    """Smallest N with ``tail_bound * r**(N+1) / (1-r) <= target``.

    Raises NumericalError when no N up to ORDER_CAP suffices.
    """
    if not 0.0 <= (r := finite_real(r, "radius", "lie in [0, 1)")) < 1.0:
        raise DomainError(f"radius must lie in [0, 1), got {r}")
    if (tail_bound := finite_real(tail_bound, "tail_bound", TAIL_BOUND_RULE)) < 0.0:
        raise DomainError(f"tail_bound must {TAIL_BOUND_RULE}, got {tail_bound}")
    if (target := finite_real(target, "target", "be positive")) <= 0.0:
        raise DomainError(f"target must be positive, got {target}")
    if tail_bound == 0.0 or tail_bound * r / (1.0 - r) <= target:
        return 0
    # Closed-form first guess, then nudge to be safe against rounding.
    n = max(0, math.ceil(math.log(target * (1.0 - r) / tail_bound) / math.log(r)) - 1)
    while n <= ORDER_CAP and tail_bound * r ** (n + 1) / (1.0 - r) > target:
        n += 1
    if n > ORDER_CAP:
        raise NumericalError(
            f"truncation order cap {ORDER_CAP} cannot certify target {target} "
            f"at r={r}; the radius is too close to 1")
    return n


@dataclass(frozen=True, eq=False)
class TruncatedPowerSeries:
    """Coefficients c_0..c_N plus a uniform bound on all omitted coefficients.

    ``coeffs`` accepts any 1-D sequence of numbers (tuple, list, ndarray) and
    is stored as a read-only 1-D complex ndarray copied from it, so the series
    never aliases its input.  Series compare by identity; compare
    ``coeffs`` arrays to compare values.

    ``tail_bound`` is a real B >= 0 with ``|c_n| <= B`` for every n > order.
    A function bounded by 1 on the unit disk has coefficients of modulus at
    most 1, so B <= 1 suffices for it.
    """

    coeffs: np.ndarray
    tail_bound: float

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=complex)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise DomainError("coefficients must form a non-empty 1-D sequence")
        if not np.isfinite(coeffs).all():
            raise DomainError("all coefficients must be finite")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        if (bound := finite_real(self.tail_bound, "tail_bound", TAIL_BOUND_RULE)) < 0.0:
            raise DomainError(f"tail_bound must {TAIL_BOUND_RULE}, got {bound}")
        object.__setattr__(self, "tail_bound", bound)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def padded(self, order: int) -> "TruncatedPowerSeries":
        """Extend a polynomial (tail_bound 0) with explicit zero coefficients."""
        order = nonnegative_int(order, "order")
        if self.tail_bound != 0.0:
            raise DomainError(
                "only polynomials (tail_bound 0) can be zero-padded; "
                f"got tail_bound {self.tail_bound}")
        if order <= self.order:
            return self
        return TruncatedPowerSeries(np.pad(self.coeffs, (0, order - self.order)), 0.0)

    def eval(self, z: complex) -> complex:
        """Evaluate the truncated part at z (no tail, Horner form)."""
        acc, z = 0.0 + 0.0j, finite_complex(z, "z")
        for c in reversed(self.coeffs.tolist()):
            acc = acc * z + c
        return acc


def polynomial(coeffs) -> TruncatedPowerSeries:
    """Series with exactly the given coefficients and no tail."""
    return TruncatedPowerSeries(coeffs, 0.0)


@dataclass(frozen=True)
class SchurSampleSpec:
    """Deterministic recipe for one random Schur-class sample on Omega_gamma."""

    degree: int
    seed: int
    gamma: DomainGamma

    def __post_init__(self):
        if (degree := nonnegative_int(self.degree, "degree")) > MAX_BLASCHKE_DEGREE:
            raise DomainError(
                f"degree must be an integer in [0, {MAX_BLASCHKE_DEGREE}], got {degree}")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "seed", nonnegative_int(self.seed, "seed"))
        if not isinstance(self.gamma, DomainGamma):
            object.__setattr__(self, "gamma", DomainGamma(self.gamma))


def majorant_eval(s: TruncatedPowerSeries, r: float) -> tuple[float, float]:
    """Value and certified error of ``sum |c_n| r^n`` over the stored range.

    The error bounds the omitted tail, ``tail_bound * r**(N+1) / (1-r)``,
    and the rounding of the value.  To first order in u: abs and pow are
    numpy loops within 4 ulp (8u each) and the product rounds once, so each
    term, all of them nonnegative, carries at most 17u relative error; fsum
    rounds the sum once, so ``18u`` times the value bounds the rounding.
    """
    if not 0.0 <= (r := finite_real(r, "majorant radius", "lie in [0, 1)")) < 1.0:
        raise DomainError(f"majorant radius must lie in [0, 1), got {r}")
    mags = np.abs(s.coeffs)
    value = math.fsum(mags * np.power(r, np.arange(mags.size)))
    error = s.tail_bound * r ** (s.order + 1) / (1.0 - r)
    return value, error + 18.0 * UNIT_ROUNDOFF * value


@lru_cache(maxsize=4)
def _compose_matrix(gamma: float, n_out: int) -> np.ndarray:
    """Certified recombination matrix of the composition with G, for gamma > 0.

    Row n holds ``M[n, k] = C(k, n) gamma^(k-n) (1-gamma)^n`` for k = 0..K,
    so ``a_n = sum_k M[n, k] b_k`` are the coefficients of ``B(G(z))``.
    Rows are running products, so no factorial is ever formed, and every
    entry is bounded by 1/(1-gamma).  For a series with ``|b_k| <= 1`` the
    coefficients beyond K change a_n by at most the deficit
    ``1/(1-gamma) - sum_{k<=K} M[n, k]``.  K grows from n_out + 32 until
    every deficit is at most COMPOSE_TARGET, and the matrix certified there is
    returned: its last column index is the input order K.  Raises
    NumericalError: before building anything when n_out + 32 exceeds
    ORDER_CAP; when a row leaves the double range (orders beyond about
    700/ln(1/(1-gamma))); and when K reaches the cap first.
    """
    if n_out + 32 > ORDER_CAP:
        raise NumericalError(
            f"composition to order {n_out} needs an input order of at least "
            f"{n_out + 32}, above the cap {ORDER_CAP}")
    one_m = 1.0 - gamma
    k, best = n_out + 32, math.inf
    while True:
        m = np.zeros((n_out + 1, k + 1))
        with np.errstate(over="ignore"):  # an overflow fails the check below
            for n in range(n_out + 1):
                lead = one_m ** n
                if lead == 0.0:
                    raise NumericalError(
                        f"(1-gamma)^n underflows at n={n} for gamma={gamma}; "
                        "requested order is too large for this gamma")
                ks = np.arange(n + 1, k + 1, dtype=float)
                m[n, n] = lead
                m[n, n + 1:] = lead * np.cumprod(gamma * ks / (ks - n))
        deficits = 1.0 / one_m - m.sum(axis=1)
        if not np.isfinite(deficits).all():
            raise NumericalError(
                f"the composition matrix overflows for gamma={gamma} and order "
                f"{n_out}; requested order is too large for this gamma")
        deficit = float(deficits.max())
        if deficit <= COMPOSE_TARGET:
            m.flags.writeable = False  # cached, so shared by every caller
            return m
        best = min(best, deficit)
        if k >= ORDER_CAP:
            raise NumericalError(
                f"cannot certify the composition to {COMPOSE_TARGET} for "
                f"gamma={gamma} and order {n_out} within the cap {ORDER_CAP}: "
                f"the smallest deficit reached is {best:.1e}")
        k = min(2 * k + 32, ORDER_CAP)


def _fft_length(n: int) -> int:
    """Smallest integer >= n with no prime factor above 11.

    Complex FFTs are fast at these lengths.  Keep this choice: another
    padding length changes the last digits of the products, and with them
    reported ratios such as ``lemma1_check``'s ``max_ratio``.
    """
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _blaschke_rows(zeros: np.ndarray, degrees: np.ndarray, phases: np.ndarray,
                   n_out: int) -> np.ndarray:
    """Coefficients 0..n_out of ``phase * prod (a_j - z)/(1 - conj(a_j) z)``, a row each.

    Row i has the zeros ``zeros[i, :degrees[i]]``.  Factor rows
    ``a, -(1-|a|^2) conj(a)^(n-1)`` are running products.  The first scales
    the phase directly (no FFT rounding for one factor); each further one is
    a batched FFT product over the rows that have it, exact through n_out
    because the convolution is lower triangular.
    """
    c = np.zeros((phases.size, n_out + 1), dtype=complex)
    c[:, 0] = phases
    length = _fft_length(2 * n_out + 1)
    for j in range(zeros.shape[1]):
        live = degrees > j
        a = zeros[live, j, None]
        f = np.empty((a.size, n_out + 1), dtype=complex)
        f[:, :1] = a
        f[:, 1:] = np.conj(a)
        f[:, 1:2] = -(1.0 - np.abs(a) ** 2)  # an empty slice when n_out = 0
        f[:, 1:] = np.cumprod(f[:, 1:], axis=1)
        if j == 0:
            c[live] = phases[live, None] * f
        else:
            c[live] = np.fft.ifft(np.fft.fft(c[live], length)
                                  * np.fft.fft(f, length))[:, : n_out + 1]
    return c


def blaschke_coeffs(zeros, phase: complex, n_out: int) -> TruncatedPowerSeries:
    """Taylor coefficients of ``phase * prod (a_j - z)/(1 - conj(a_j) z)``.

    A finite Blaschke product maps the unit disk onto itself, so the result
    is Schur-class with tail_bound 1.
    """
    n_out = nonnegative_int(n_out, "output order", "be >= 0")
    phase = finite_complex(phase, "phase", "be unimodular")
    if not abs(abs(phase) - 1.0) <= 1e-12:
        raise DomainError(f"phase must be unimodular, got |phase| = {abs(phase)}")
    inside = "lie strictly inside the unit disk"
    zeros = [finite_complex(z, "Blaschke zeros", inside) for z in zeros]
    for z in zeros:
        if not abs(z) < 1.0:
            raise DomainError(f"Blaschke zeros must {inside}, got {z}")
    c = _blaschke_rows(np.array([zeros], dtype=complex), np.array([len(zeros)]),
                       np.array([phase]), n_out)
    return TruncatedPowerSeries(c[0], 1.0)


def _sample_batches(specs, gamma: DomainGamma, n_out: int):
    """Yield ``(batch, rows)``: consecutive specs, all on gamma, and their
    coefficients 0..n_out, a row each.  A batch holds at most BATCH_ELEMENTS
    complex entries per FFT product and specs are drawn one batch at a time,
    so peak memory does not grow with the number of specs."""
    # G is the identity at gamma = 0: the Blaschke rows are the samples.
    m = _compose_matrix(gamma.gamma, n_out) if gamma.gamma else None
    k_in = n_out if m is None else m.shape[1] - 1
    step = max(1, BATCH_ELEMENTS // _fft_length(2 * k_in + 1))
    specs = iter(specs)
    while batch := list(islice(specs, step)):
        degrees = np.array([spec.degree for spec in batch])
        zeros = np.zeros((len(batch), degrees.max()), dtype=complex)
        phases = np.empty(len(batch), dtype=complex)
        for row, spec in enumerate(batch):  # one random(2d+1) call gives the 2d+1 draws
            u = np.random.default_rng(spec.seed).random(2 * spec.degree + 1)
            angle = 2.0 * math.pi * u[1::2]
            zeros[row, : spec.degree] = (ZERO_SAMPLING_RADIUS * np.sqrt(u[:-1:2])
                                         * (np.cos(angle) + 1j * np.sin(angle)))
            theta = 2.0 * math.pi * u[-1]
            phases[row] = complex(math.cos(theta), math.sin(theta))
        rows = _blaschke_rows(zeros, degrees, phases, k_in)
        if m is not None:  # the composition with G: one real matrix product
            parts = np.concatenate([rows.real, rows.imag]) @ m.T
            rows = parts[: len(batch)] + 1j * parts[len(batch):]
        yield batch, rows


def sample_schur_omega(spec: SchurSampleSpec, n_out: int) -> TruncatedPowerSeries:
    """Seeded random member of the class bounded by 1 on Omega_gamma.

    From ``default_rng(spec.seed)`` each of ``spec.degree`` Blaschke zeros
    takes a radius ``0.95 sqrt(u)`` and an angle ``2 pi u``, then the phase
    an angle ``2 pi u``: zeros uniform in the disk of radius 0.95 and a
    uniform phase.  The product is composed with the affine map onto the
    unit disk.  Identical specs give identical output.
    """
    n_out = nonnegative_int(n_out, "output order", "be >= 0")
    ((_, rows),) = _sample_batches([spec], spec.gamma, n_out)
    return TruncatedPowerSeries(rows[0], 1.0)
