"""Correctness checks computed apart from the program.

Radii are checked by the sign of the defining equation at 30 digits (mpmath),
extremal majorants by closed forms, Schur samples by Cauchy-FFT coefficients
of the rebuilt function, and CLI output by parsing it and re-deriving the
same facts.  Each check returns a list of failure messages; empty means
correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np
from mpmath import hyp2f1, log, mp, mpf

from workloads import DECOMPOSITION_LADDER

DIGITS = 30
ROOT_HALF_WIDTH = 1e-10
LEMMA1_RATIO_TOL = 1e-9
COEFF_TOL = 1e-12
MAJORANT_TOL = 1e-10
SLOPE_RANGE = (1.8, 2.2)
IDENTITY_TOL = 1e-10
CESARO_RADIUS_GAMMA0 = (0.53358, 0.53359)
# Mirrors bohrkit.series.ZERO_SAMPLING_RADIUS, the documented drawing recipe.
ZERO_SAMPLING_RADIUS = 0.95
FFT_RADIUS = 0.95
FFT_POINTS = 4096


# Defining equations at DIGITS digits ----------------------------------------

def cesaro_equation(gamma: float, x) -> mpf:
    """``(3+gamma)(1-x) ln(1/(1-x)) - 2x``: positive below the radius, negative above."""
    x = mpf(x)
    return (3 + mpf(gamma)) * (1 - x) * log(1 / (1 - x)) - 2 * x


def tail_sum(beta, r) -> mpf:
    """``sum_{n>=1} r^n/(n+beta)`` through the Gauss function:
    ``r/(1+beta) 2F1(1, 1+beta; 2+beta; r)``."""
    beta, r = mpf(beta), mpf(r)
    return r / (1 + beta) * hyp2f1(1, 1 + beta, 2 + beta, r)


def tail_balance(beta_eff: float, prefactor, r) -> mpf:
    """``1/beta_eff - prefactor * sum_{n>=1} r^n/(n+beta_eff)``."""
    return 1 / mpf(beta_eff) - mpf(prefactor) * tail_sum(beta_eff, r)


def equation_for(equation: str, params: dict):
    """The defining equation of a radius as a function of r, at DIGITS digits."""
    if equation == "cesaro":
        return lambda x: cesaro_equation(params["gamma"], x)
    if equation == "bernardi":
        return lambda x: tail_balance(params["beta"], 2 / (1 + mpf(params["gamma"])), x)
    # Classic: divide x^m out of x^m/(m+beta) = 2 sum_{n>=m+1} x^n/(n+beta).
    return lambda x: tail_balance(params["m"] + params["beta"], 2, x)


def root_within(equation: str, params: dict, value: float,
                half_width: float = ROOT_HALF_WIDTH) -> list[str]:
    """The equation changes sign across [value - half_width, value + half_width]."""
    f = equation_for(equation, params)
    with mp.workdps(DIGITS):
        lo, hi = mpf(value) - mpf(half_width), mpf(value) + mpf(half_width)
        if not 0 < lo < hi < 1:
            return [f"{equation} {params}: radius {value!r} outside (0, 1)"]
        f_lo, f_hi = f(lo), f(hi)
        if f_lo == 0 or f_hi == 0 or (f_lo > 0) == (f_hi > 0):
            return [f"{equation} {params}: no sign change across {value!r} +- {half_width}"
                    f" (f = {mp.nstr(f_lo, 5)}, {mp.nstr(f_hi, 5)})"]
    return []


# radius_grid ------------------------------------------------------------------

def check_sweep(op: dict, out: dict, extra, seen: set) -> list[str]:
    errors = []
    eq, grid, radii = op["equation"], op["grid"], out["radii"]
    if len(radii) != len(grid) or not all(out["converged"]):
        return [f"{eq} row {op['fixed']}: {len(radii)} of {len(grid)} radii, "
                f"converged {out['converged']}"]
    for v, r in zip(grid, radii):
        params = dict(op["fixed"], **{op["parameter"]: v})
        key = (eq, tuple(sorted(params.items())), r)
        if key not in seen:
            seen.add(key)
            errors += root_within(eq, params, r)
    # Radii grow with gamma and shrink with beta.
    steps = list(zip(radii, radii[1:]))
    if op["parameter"] == "gamma" and not all(a < b for a, b in steps):
        errors.append(f"{eq}: radius not increasing in gamma")
    if op["parameter"] == "beta" and not all(a > b for a, b in steps):
        errors.append(f"{eq} {op['fixed']}: radius not decreasing in beta")
    if eq == "cesaro" and grid[0] == 0.0:
        lo, hi = CESARO_RADIUS_GAMMA0
        if not lo <= radii[0] < hi:
            errors.append(f"cesaro radius at gamma=0 is {radii[0]!r}, not 0.53358...")
    if extra is not None:
        for b, r, r_b in zip(grid, radii, extra["bernardi_gamma0_beta_plus_1"]):
            if abs(r - r_b) > 1e-12:
                errors.append(f"classic (beta={b!r}, m=1) = {r!r} but "
                              f"bernardi (0, beta+1) = {r_b!r}")
    return errors


def check_radius_round(ops: list[dict], outs: list) -> list[str]:
    """Cross-row facts: gamma = 0 Bernardi equals classic m = 0, and radii
    grow with gamma at each beta."""
    rows = {}
    for op, out in zip(ops, outs):
        if out is not None and op["equation"] != "cesaro":
            key = (op["equation"], op["fixed"].get("gamma", op["fixed"].get("m")))
            rows[key] = dict(zip(op["grid"], out["radii"]))
    errors = []
    classic0 = rows.get(("bernardi-classic", 0), {})
    for b, r in rows.get(("bernardi", 0.0), {}).items():
        if b in classic0 and abs(classic0[b] - r) > 1e-12:
            errors.append(f"bernardi (0, {b!r}) = {r!r} but classic ({b!r}, 0) = {classic0[b]!r}")
    gammas = sorted(k[1] for k in rows if k[0] == "bernardi")
    for g1, g2 in zip(gammas, gammas[1:]):
        for b, r1 in rows[("bernardi", g1)].items():
            r2 = rows[("bernardi", g2)].get(b)
            if r2 is not None and not r1 < r2:
                errors.append(f"bernardi radius at beta={b!r} not increasing from "
                              f"gamma {g1} to {g2}")
    return errors


# lemma1_sampling --------------------------------------------------------------

def rebuild_sample(degree: int, seed: int, gamma: float):
    """Function z -> B(G(z)) of a Schur sample, rebuilt from the drawing recipe
    documented in sample_schur_omega: per zero a radius 0.95*sqrt(u) and an
    angle 2*pi*u, then a phase angle 2*pi*u, all from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    zeros = []
    for _ in range(degree):
        radius = ZERO_SAMPLING_RADIUS * math.sqrt(rng.random())
        angle = 2.0 * math.pi * rng.random()
        zeros.append(radius * complex(math.cos(angle), math.sin(angle)))
    theta = 2.0 * math.pi * rng.random()
    phase = complex(math.cos(theta), math.sin(theta))

    def f(z):
        w = (1.0 - gamma) * z + gamma
        out = np.full_like(w, phase)
        for a in zeros:
            out = out * (a - w) / (1.0 - np.conj(a) * w)
        return out

    return f


def cauchy_coeffs(f, n_max: int) -> np.ndarray:
    """Taylor coefficients by the trapezoidal Cauchy integral on |z| = FFT_RADIUS."""
    zs = FFT_RADIUS * np.exp(2j * np.pi * np.arange(FFT_POINTS) / FFT_POINTS)
    hat = np.fft.fft(f(zs)) / FFT_POINTS
    return hat[: n_max + 1] / FFT_RADIUS ** np.arange(n_max + 1)


def check_lemma1(op: dict, out: dict, extra) -> list[str]:
    errors = []
    name = f"lemma1 gamma={op['gamma']} seed={op['seed']}"
    if out["samples"] != op["samples"] or out["gamma"] != op["gamma"]:
        errors.append(f"{name}: report echoes samples={out['samples']} gamma={out['gamma']}")
    ratio = out["max_ratio"]
    if not abs(ratio - 1.0) <= LEMMA1_RATIO_TOL:
        errors.append(f"{name}: max_ratio {ratio!r} outside 1 +- {LEMMA1_RATIO_TOL}")
    worst = out["worst_spec"]
    if worst is None or extra is None:
        return errors + [f"{name}: no worst sample reported"]
    f = rebuild_sample(worst["degree"], worst["seed"], worst["gamma"])
    reference = cauchy_coeffs(f, op["order"])
    program = np.array([complex(x, y) for x, y in extra["worst_coeffs"]])
    deviation = float(np.max(np.abs(program - reference)))
    if not deviation <= COEFF_TOL:
        errors.append(f"{name}: worst sample coefficients differ from Cauchy-FFT by {deviation:.2e}")
    mags = np.abs(reference)
    rebuilt_ratio = float(np.max(mags[1:])) * (1.0 + op["gamma"]) / (1.0 - mags[0] ** 2)
    if not abs(rebuilt_ratio - ratio) <= LEMMA1_RATIO_TOL:
        errors.append(f"{name}: worst sample's rebuilt ratio {rebuilt_ratio!r} != {ratio!r}")
    return errors


# extremal_checks --------------------------------------------------------------

def _extremal_parts(a: float, gamma: float):
    a, g = mpf(a), mpf(gamma)
    q = a * (1 - g) / (1 - a * g)
    a0 = (a - g) / (1 - a * g)
    lead = (1 - a * a) / (a * (1 - a * g))
    return a0, lead, q


def _ell(x):
    return -log(1 - x)


def cesaro_extremal_majorant(a: float, gamma: float, r: float) -> mpf:
    """Two-logarithm closed form of sum_n r^n/(n+1) sum_{k<=n} |A_k|.

    With |A_0| = a0 and |A_k| = lead q^k, the inner sums are geometric:
    a0 L(r)/r + lead q/(1-q) (L(r)/r - L(qr)/(qr)), L(x) = ln(1/(1-x)).
    """
    a0, lead, q = _extremal_parts(a, gamma)
    r = mpf(r)
    return a0 * _ell(r) / r + lead * q / (1 - q) * (_ell(r) / r - _ell(q * r) / (q * r))


def bernardi_extremal_majorant(a: float, gamma: float, beta: float, r: float) -> mpf:
    """``a0/beta + lead * sum_{n>=1} (qr)^n/(n+beta)`` via the Lerch/Gauss form."""
    a0, lead, q = _extremal_parts(a, gamma)
    return a0 / mpf(beta) + lead * tail_sum(beta, q * mpf(r))


def check_extremal(op: dict, out: dict, extra) -> list[str]:
    g, b, r = op["gamma"], op["beta"], op["r"]
    name = f"extremal gamma={g} beta={b} r={r!r}"
    errors = []
    with mp.workdps(DIGITS):
        bounds = {"cesaro": _ell(mpf(r)) / mpf(r), "bernardi": 1 / mpf(b)}
        majorants = {"cesaro": lambda a: cesaro_extremal_majorant(a, g, r),
                     "bernardi": lambda a: bernardi_extremal_majorant(a, g, b, r)}
        for kind in ("cesaro", "bernardi"):
            for a, (bound, first, rem) in zip(DECOMPOSITION_LADDER, out[f"decomp_{kind}"]):
                dev = abs(mpf(bound) + mpf(first) + mpf(rem) - majorants[kind](a))
                if not dev <= MAJORANT_TOL:
                    errors.append(f"{name}: {kind} decomposition at a={a} misses the "
                                  f"majorant by {mp.nstr(dev, 3)}")
            scan = out[f"scan_{kind}"]
            if not scan["witness_found"]:
                errors.append(f"{name}: {kind} scan found no witness above the radius")
            margins = [majorants[kind](a) - bounds[kind] for a in scan["a_values"]]
            dev = max(abs(mpf(m) - ref) for m, ref in zip(scan["margins"], margins))
            if not dev <= MAJORANT_TOL:
                errors.append(f"{name}: {kind} scan margins off by {mp.nstr(dev, 3)}")
            if not max(margins) > 0:
                errors.append(f"{name}: no extremal majorant exceeds the {kind} bound")
            slope = out[f"slope_{kind}"]
            if not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
                errors.append(f"{name}: {kind} remainder-order slope {slope!r} "
                              f"outside {SLOPE_RANGE}")
    errors += root_within("cesaro", {"gamma": g}, out["scan_cesaro"]["radius"])
    errors += root_within("bernardi", {"gamma": g, "beta": b}, out["scan_bernardi"]["radius"])
    below, above = extra["cesaro_factor"]
    if not below < 0.0 < above:
        errors.append(f"{name}: Cesaro first-order factor does not change sign at the radius")
    below, above = extra["bernardi_factor"]
    if not below > 0.0 > above:
        errors.append(f"{name}: Bernardi first-order factor does not change sign at the radius")
    if "identities" in out:
        ident = out["identities"]
        worst = max(v for k, v in ident.items() if k != "r_grid")
        if not worst <= IDENTITY_TOL:
            errors.append(f"identity_suite deviation {worst!r} above {IDENTITY_TOL}")
    return errors


# cli_session ------------------------------------------------------------------

def check_cli(argv: list[str], code: int, stdout: str, second_copy) -> list[str]:
    """Exit code, pass flags and radii of one CLI call; second_copy is the
    stdout of the same command run again, which must be byte-identical."""
    name = " ".join(argv)
    if code != 0:
        return [f"`{name}` exited {code}"]
    errors = []
    if second_copy != stdout:
        errors.append(f"`{name}`: a repeated invocation printed different output")
    cmd = argv[0]
    try:
        if cmd == "radius":
            errors += _check_radius_doc(json.loads(stdout))
        elif cmd == "sweep":
            errors += _check_sweep_output(argv, stdout)
        elif cmd == "verify":
            doc = json.loads(stdout)
            if doc.get("pass") is not True:
                errors.append(f"`{name}`: pass is {doc.get('pass')!r}")
        elif cmd == "table":
            errors += _check_table(argv[1], stdout)
    except (ValueError, KeyError, IndexError) as exc:
        errors.append(f"`{name}`: output does not parse ({exc})")
    return errors


def _check_radius_doc(doc: dict) -> list[str]:
    if doc.get("converged") is not True:
        return [f"radius {doc.get('equation')}: not converged"]
    return root_within(doc["equation"], doc["parameters"], doc["radius"])


def _flag(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _check_sweep_output(argv, stdout) -> list[str]:
    equation, parameter = _flag(argv, "--op"), _flag(argv, "--parameter")
    fixed = {}
    for key in ("gamma", "beta"):
        if _flag(argv, f"--{key}") is not None:
            fixed[key] = float(_flag(argv, f"--{key}"))
    if equation == "bernardi-classic":
        fixed["m"] = int(_flag(argv, "--m", "0"))
    if _flag(argv, "--format", "csv") == "json":
        rows = [(row[parameter], row["radius"]) for row in json.loads(stdout)]
    else:
        table = list(csv.reader(io.StringIO(stdout)))
        if table[0] != [parameter, "radius", "residual", "iterations"]:
            return [f"sweep: unexpected CSV header {table[0]}"]
        rows = [(float(row[0]), float(row[1])) for row in table[1:]]
    grid = [float(v) for v in _flag(argv, "--grid").split(",")]
    errors = []
    if [v for v, _ in rows] != grid:
        errors.append(f"sweep: rows {[v for v, _ in rows]} do not follow the grid {grid}")
    for v, radius in rows:
        errors += root_within(equation, dict(fixed, **{parameter: v}), radius)
    return errors


def _check_table(name: str, stdout: str) -> list[str]:
    lines = stdout.splitlines()
    half = 5.000001e-7  # the tables print six decimals
    errors = []
    if name == "theorem1":
        rows = [line.split() for line in lines[1:]]
        if [float(row[0]) for row in rows] != [round(0.1 * k, 2) for k in range(10)]:
            errors.append("table theorem1: unexpected gamma column")
        for row in rows:
            errors += root_within("cesaro", {"gamma": float(row[0])}, float(row[1]), half)
    elif name == "theorem2":
        rows = [line.split() for line in lines[1:]]
        if len(rows) != 12:
            errors.append(f"table theorem2: {len(rows)} rows, expected 12")
        for row in rows:
            params = {"gamma": float(row[0]), "beta": float(row[1])}
            errors += root_within("bernardi", params, float(row[2]), half)
    else:
        # Columns are separated by at least two spaces; names hold single ones.
        rows = {cells[0]: cells[1:] for cells in (re.split(r"\s{2,}", line) for line in lines[1:])}
        bohr = float(rows["bohr gamma=0"][0])
        if abs(bohr - 1.0 / 3.0) > half:
            errors.append(f"table paper-constants: Bohr radius {bohr} is not 1/3")
        errors += root_within("cesaro", {"gamma": 0.0},
                              float(rows["cesaro gamma=0"][0]), half)
        errors += root_within("bernardi-classic", {"beta": 1.0, "m": 1},
                              float(rows["bernardi-classic beta=1 m=1"][0]), half)
    return errors
