"""Truncated power series with certified tail bounds, Schur-class test
functions, and the Lemma-1 suite that stresses them.

A series is stored as its first N+1 Taylor coefficients together with a
uniform bound on every omitted coefficient.  That single number certifies
the truncation of majorant evaluations: the modulus of everything beyond it
is at most ``tail_bound * r**(N+1) / (1 - r)`` at radius r.

Test functions for the function class bounded by 1 on the disk Omega_gamma
(the disk ``|z + gamma/(1-gamma)| < 1/(1-gamma)``, which contains the unit
disk) are produced by composing finite Blaschke products with the affine map
``G(z) = (1 - gamma) * z + gamma`` that carries Omega_gamma onto the unit
disk, many samples at a time in batches of bounded memory.  ``lemma1_check``
reads those batches directly: over seeded random samples it stresses
Lemma 1, ``|a_n| <= (1 - |a_0|^2)/(1 + gamma)``, the coefficient bound on
which the paper's below-radius direction rests.  It draws plain
``(degree, seed)`` pairs and names only its worst sample by a
``SchurSampleSpec``.  That spec and the ``Lemma1Report`` are validating named
tuples, like the package's other records; a series, which holds an array, is
a frozen dataclass.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .errors import DomainError, NumericalError
from .lerch import (ORDER_CAP, UNIT_ROUNDOFF, DomainGamma, finite_complex, finite_real,
                    in_unit_interval, nonnegative_int)

DEFAULT_TAIL_TARGET = 1e-12

MAX_BLASCHKE_DEGREE = 16
ZERO_SAMPLING_RADIUS = 0.95
# Complex entries (rows times FFT length) one batch of Schur samples holds,
# so peak memory does not grow with the number of samples.
BATCH_ELEMENTS = 2 ** 13
# Certified bound on what the composition with G drops from each coefficient.
COMPOSE_TARGET = 1e-13
# lemma1_check skips samples with 1 - |a_0|^2 below this.
DEGENERATE_A0_TOL = 1e-8


def truncation_order(r: float, tail_bound: float = 1.0,
                     target: float = DEFAULT_TAIL_TARGET) -> int:
    """Smallest N with ``tail_bound * r**(N+1) / (1-r) <= target``.

    Raises NumericalError when no N up to ORDER_CAP suffices.
    """
    r = finite_real(r, "radius", "lie in [0, 1)", in_unit_interval)
    tail_bound = finite_real(tail_bound, "tail_bound", "be a finite nonnegative real",
                             lambda b: b >= 0.0)
    target = finite_real(target, "target", "be positive", lambda t: t > 0.0)
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
    ``coeffs`` arrays to compare values.  That is why this record, alone in
    the package, is a frozen dataclass rather than a named tuple: a tuple
    would compare its arrays element-wise.

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
        object.__setattr__(self, "tail_bound", finite_real(
            self.tail_bound, "tail_bound", "be a finite nonnegative real", lambda b: b >= 0.0))

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


class SchurSampleSpec(namedtuple("SchurSampleSpec", "degree seed gamma")):
    """Deterministic recipe for one random Schur-class sample on Omega_gamma."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace validates too

    def __new__(cls, degree, seed, gamma):
        degree = nonnegative_int(degree, "degree", f"be an integer in [0, {MAX_BLASCHKE_DEGREE}]",
                                 lambda d: d <= MAX_BLASCHKE_DEGREE)
        seed = nonnegative_int(seed, "seed")
        if not isinstance(gamma, DomainGamma):
            gamma = DomainGamma(gamma)
        return super().__new__(cls, degree, seed, gamma)


def majorant_eval(s: TruncatedPowerSeries, r: float) -> tuple[float, float]:
    """Value and certified error of ``sum |c_n| r^n`` over the stored range.

    The error bounds the omitted tail, ``tail_bound * r**(N+1) / (1-r)``,
    and the rounding of the value.  To first order in u: abs and pow are
    numpy loops within 4 ulp (8u each) and the product rounds once, so each
    term, all of them nonnegative, carries at most 17u relative error; fsum
    rounds the sum once, so ``18u`` times the value bounds the rounding.
    """
    r = finite_real(r, "majorant radius", "lie in [0, 1)", in_unit_interval)
    mags = np.abs(s.coeffs)
    value = math.fsum(mags * np.power(r, np.arange(mags.size)))
    error = s.tail_bound * r ** (s.order + 1) / (1.0 - r)
    return value, error + 18.0 * UNIT_ROUNDOFF * value


def _compose_row(gamma: float, n: int, gk: np.ndarray, ks: np.ndarray,
                 row: np.ndarray) -> None:
    """Write row n of the composition matrix into ``row``, K+1 entries long.

    The row is zeros up to n, then ``lead * cumprod(gamma k/(k-n))`` over
    k = n+1..K with ``lead = (1-gamma)^n``, each step written in place.
    ``ks`` is ``arange(1, K+1)`` and ``gk`` is ``gamma * ks``, shared by all
    rows of one K.  Raises NumericalError when ``lead`` underflows.
    """
    lead = (1.0 - gamma) ** n
    if lead == 0.0:
        raise NumericalError(
            f"(1-gamma)^n underflows at n={n} for gamma={gamma}; "
            "requested order is too large for this gamma")
    row[:n] = 0.0
    row[n] = lead
    tail = row[n + 1:]
    np.subtract(ks[n:], n, out=tail)
    np.divide(gk[n:], tail, out=tail)
    np.cumprod(tail, out=tail)
    np.multiply(tail, lead, out=tail)


@lru_cache(maxsize=4)
def _compose_matrix(gamma: float, n_out: int) -> np.ndarray:
    """Certified recombination matrix of the composition with G, for gamma > 0.

    Row n holds ``M[n, k] = C(k, n) gamma^(k-n) (1-gamma)^n`` for k = 0..K,
    so ``a_n = sum_k M[n, k] b_k`` are the coefficients of ``B(G(z))``.
    Rows are running products, so no factorial is ever formed, and every
    entry is bounded by 1/(1-gamma).  For a series with ``|b_k| <= 1`` the
    coefficients beyond K change a_n by at most the deficit
    ``1/(1-gamma) - sum_{k<=K} M[n, k]``.  K grows from n_out + 32 until
    every deficit is at most COMPOSE_TARGET.  The search builds one row at a
    time in a single buffer of K+1 entries and keeps only its sum, so a trial,
    and a refusal, holds one row, never a matrix.  The matrix is built once,
    from the same rows, at the K the search certifies, and returned: its last
    column index is the input order K.  Raises NumericalError: before
    building anything when n_out + 32 exceeds ORDER_CAP; while building a
    trial's rows, when ``(1-gamma)^n`` underflows (orders beyond about
    700/ln(1/(1-gamma))); after all of them, when a row overflows; and when
    K reaches the cap first.
    """
    if n_out + 32 > ORDER_CAP:
        raise NumericalError(
            f"composition to order {n_out} needs an input order of at least "
            f"{n_out + 32}, above the cap {ORDER_CAP}")
    total = 1.0 / (1.0 - gamma)
    k, best = n_out + 32, math.inf
    while True:
        ks = np.arange(1, k + 1, dtype=float)
        gk, row, sums = gamma * ks, np.empty(k + 1), np.empty(n_out + 1)
        with np.errstate(over="ignore"):  # an overflow fails the check below
            for n in range(n_out + 1):
                _compose_row(gamma, n, gk, ks, row)
                sums[n] = row.sum()
        deficits = total - sums
        if not np.isfinite(deficits).all():
            raise NumericalError(
                f"the composition matrix overflows for gamma={gamma} and order "
                f"{n_out}; requested order is too large for this gamma")
        deficit = float(deficits.max())
        if deficit <= COMPOSE_TARGET:
            break
        best = min(best, deficit)
        if k >= ORDER_CAP:
            raise NumericalError(
                f"cannot certify the composition to {COMPOSE_TARGET} for "
                f"gamma={gamma} and order {n_out} within the cap {ORDER_CAP}: "
                f"the smallest deficit reached is {best:.1e}")
        k = min(2 * k + 32, ORDER_CAP)
    m = np.empty((n_out + 1, k + 1))
    for n in range(n_out + 1):
        _compose_row(gamma, n, gk, ks, m[n])
    m.flags.writeable = False  # cached, so shared by every caller
    return m


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


def _check_order_cap(n_out: int) -> None:
    """Raise NumericalError, before any buffer is allocated, for an output
    order above ORDER_CAP."""
    if n_out > ORDER_CAP:
        raise NumericalError(f"output order {n_out} is above the cap {ORDER_CAP}")


def _blaschke_rows(zeros: np.ndarray, degrees: np.ndarray, phases: np.ndarray,
                   n_out: int, spectra: np.ndarray) -> np.ndarray:
    """Coefficients 0..n_out of ``phase * prod (a_j - z)/(1 - conj(a_j) z)``, a row each.

    Row i has the zeros ``zeros[i, :degrees[i]]``.  Factor rows
    ``a, -(1-|a|^2) conj(a)^(n-1)`` are running products.  The first scales
    the phase directly (no FFT rounding for one factor); each further one is
    a batched FFT product over the rows that have it, exact through n_out
    because the convolution is lower triangular.

    The products run in ``spectra``, two buffers of at least one row per
    sample, whose ``_fft_length(2 n_out + 1)`` columns set the FFT length.
    A caller that passes the same buffers for every batch spares each factor
    four fresh arrays of up to 128 KB: glibc's malloc, unless an earlier
    free of a larger block raised its thresholds, hands such memory back to
    the system when it is freed, and every page faults in again at the next
    allocation.
    """
    c = np.zeros((phases.size, n_out + 1), dtype=complex)
    c[:, 0] = phases
    length = spectra.shape[2]
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
            x, y = spectra[0, : a.size], spectra[1, : a.size]
            np.fft.fft(c[live], length, out=x)
            np.fft.fft(f, length, out=y)
            np.multiply(x, y, out=x)
            np.fft.ifft(x, out=y)
            c[live] = y[:, : n_out + 1]
    return c


def blaschke_coeffs(zeros, phase: complex, n_out: int) -> TruncatedPowerSeries:
    """Taylor coefficients of ``phase * prod (a_j - z)/(1 - conj(a_j) z)``.

    A finite Blaschke product maps the unit disk onto itself, so the result
    is Schur-class with tail_bound 1.  An n_out above ORDER_CAP raises
    NumericalError.
    """
    n_out = nonnegative_int(n_out, "output order", "be >= 0")
    phase = finite_complex(phase, "phase", "be unimodular")
    if not abs(abs(phase) - 1.0) <= 1e-12:
        raise DomainError(f"phase must be unimodular, got |phase| = {abs(phase)}")
    zeros = [finite_complex(z, "Blaschke zeros", "lie strictly inside the unit disk",
                            lambda w: abs(w) < 1.0) for z in zeros]
    _check_order_cap(n_out)
    spectra = np.empty((2, 1, _fft_length(2 * n_out + 1)), dtype=complex)
    c = _blaschke_rows(np.array([zeros], dtype=complex), np.array([len(zeros)]),
                       np.array([phase]), n_out, spectra)
    return TruncatedPowerSeries(c[0], 1.0)


def _sample_batches(draws, gamma: DomainGamma, n_out: int):
    """Yield ``(batch, rows)``: consecutive draws and the coefficients 0..n_out
    of their samples on gamma, a row each.  A draw is a checked ``(degree,
    seed)`` pair.  A batch holds at most BATCH_ELEMENTS complex entries per
    FFT product and draws are taken one batch at a time, so peak memory does
    not grow with the number of draws.  An order above ORDER_CAP raises
    NumericalError at every gamma before anything is allocated; for gamma >
    0 the composition's own check raises first."""
    # G is the identity at gamma = 0: the Blaschke rows are the samples.
    m = _compose_matrix(gamma.gamma, n_out) if gamma.gamma else None
    _check_order_cap(n_out)
    k_in = n_out if m is None else m.shape[1] - 1
    length = _fft_length(2 * k_in + 1)
    step = max(1, BATCH_ELEMENTS // length)
    spectra = np.empty((2, step, length), dtype=complex)  # shared by every batch
    draws = iter(draws)
    while batch := list(islice(draws, step)):
        degrees = np.array([draw[0] for draw in batch])
        zeros = np.zeros((len(batch), degrees.max()), dtype=complex)
        phases = np.empty(len(batch), dtype=complex)
        for row, (degree, seed) in enumerate(batch):  # one random(2d+1) call, 2d+1 uniforms
            u = np.random.default_rng(seed).random(2 * degree + 1)
            angle = 2.0 * math.pi * u[1::2]
            zeros[row, :degree] = (ZERO_SAMPLING_RADIUS * np.sqrt(u[:-1:2])
                                   * (np.cos(angle) + 1j * np.sin(angle)))
            theta = 2.0 * math.pi * u[-1]
            phases[row] = complex(math.cos(theta), math.sin(theta))
        rows = _blaschke_rows(zeros, degrees, phases, k_in, spectra)
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
    unit disk.  Identical specs give identical output.  An n_out above
    ORDER_CAP raises NumericalError at every gamma.
    """
    n_out = nonnegative_int(n_out, "output order", "be >= 0")
    ((_, rows),) = _sample_batches([spec[:2]], spec.gamma, n_out)
    return TruncatedPowerSeries(rows[0], 1.0)


class Lemma1Report(namedtuple("Lemma1Report", "gamma samples max_ratio worst_spec skipped")):
    """Worst observed coefficient ratio ``|a_n|(1+gamma)/(1-|a_0|^2)`` over samples.

    ``samples`` counts the requested draws; ``skipped`` counts the degenerate
    ones among them that ``lemma1_check`` skips without computing a ratio.
    ``worst_spec`` is the SchurSampleSpec of the worst sample, or None.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace validates too

    def __new__(cls, gamma, samples, max_ratio, worst_spec=None, skipped=0):
        samples = nonnegative_int(samples, "samples")
        skipped = nonnegative_int(skipped, "skipped", f"lie in [0, {samples}]",
                                  lambda k: k <= samples)
        return super().__new__(cls, gamma, samples, max_ratio, worst_spec, skipped)

    def as_dict(self) -> dict:
        spec = self.worst_spec
        return dict(self._asdict(), worst_spec=None if spec is None else {
            "degree": spec.degree, "seed": spec.seed, "gamma": spec.gamma.gamma})


def lemma1_check(gamma: DomainGamma, num_samples: int, degree_max: int,
                 n_out: int, seed: int) -> Lemma1Report:
    """Stress the bound ``|a_n| <= (1-|a_0|^2)/(1+gamma)`` over random samples.

    Each sample is checked at n = 1 .. n_out, so n_out must be at least 1.
    Samples with ``1 - |a_0|^2 < 1e-8`` (near-unimodular constants) are
    skipped and counted in the report's ``skipped``: the bound forces their
    higher coefficients to vanish and the ratio degenerates to 0/0.
    """
    num_samples = nonnegative_int(num_samples, "num_samples", "be a positive integer",
                                  lambda n: n >= 1)
    degree_max = nonnegative_int(degree_max, "degree_max", f"lie in [0, {MAX_BLASCHKE_DEGREE}]",
                                 lambda d: d <= MAX_BLASCHKE_DEGREE)
    n_out = nonnegative_int(n_out, "output order", "be >= 1", lambda n: n >= 1)
    seed = nonnegative_int(seed, "seed")
    master = np.random.default_rng(seed)
    # Per sample the master draws a degree, then a child seed: both in range.
    draws = ((int(master.integers(0, degree_max + 1)), int(master.integers(0, 2 ** 63)))
             for _ in range(num_samples))
    g = gamma.gamma
    max_ratio, worst, skipped = 0.0, None, 0
    for batch, rows in _sample_batches(draws, gamma, n_out):
        mags = np.abs(rows)
        denom = 1.0 - mags[:, 0] ** 2
        keep = denom >= DEGENERATE_A0_TOL
        skipped += len(batch) - int(np.count_nonzero(keep))
        ratios = np.zeros(len(batch))
        ratios[keep] = np.max(mags[keep, 1:], axis=1) * (1.0 + g) / denom[keep]
        i = int(np.argmax(ratios))  # the first maximum, as a sample loop finds it
        if ratios[i] > max_ratio:
            max_ratio, worst = float(ratios[i]), batch[i]
    return Lemma1Report(g, num_samples, max_ratio,
                        None if worst is None else SchurSampleSpec(*worst, gamma), skipped)
