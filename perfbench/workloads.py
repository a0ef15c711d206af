"""Workload inputs, warm-ups and operations.

Inputs are made from the workload seed alone.  The program under test only
ever receives the generated values, through its public API or its CLI.  An
operation (op) is a fixed batch of calls; a round is the fixed list of ops a
workload repeats, so every run attempts whole rounds and the share of failed
ops is the same in every run.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("cli_session", "radius_grid", "lemma1_sampling", "extremal_checks")
# Seed of the rounds a traced run profiles layer by layer.
LAYER_SEED = 0

# radius_grid ---------------------------------------------------------------
CESARO_POINTS = 1000
CESARO_GAMMA_MAX = 0.95
# Log grid of beta from 0.1 to 50, shared by every Bernardi row.
BETA_GRID = tuple(0.1 * 500.0 ** (k / 12) for k in range(13))
BETA_JITTER = 0.01
# First grid index solved per gamma.  Every solved beta lies at least 15%
# above the smallest beta at which the solver's tail-sum order cap is hit
# today, so only the kept-failing rows below fail.
BERNARDI_FIRST_BETA = {0.0: 0, 0.2: 1, 0.5: 1, 0.9: 2}
CLASSIC_MS = (0, 1, 2, 5)
# Fixed (gamma, beta) points whose roots lie within 1.5e-3 of 1: the
# tail-sum order cap stops the bracket walk, so bernardi_radius raises
# NumericalError there although the roots are ordinary doubles.
KEPT_FAILING_BERNARDI = ((0.2, 0.05), (0.5, 0.1), (0.9, 0.15))

# lemma1_sampling -----------------------------------------------------------
LEMMA1_ORDER = 64
LEMMA1_DEGREE_MAX = 8
# Samples per op: cheaper gamma values get more samples so ops cost about
# the same.  Per-sample cost grows with the input order K of the affine
# recomposition (K = 64, 224, 2016 at these gamma values).
LEMMA1_SAMPLES = {0.0: 500, 0.4: 160, 0.9: 24}
LEMMA1_SEEDS_PER_GAMMA = 4
# A sample's cost grows with its Blaschke degree.  An op's seed is kept only
# if its degrees sum to within this share of the mean, so ops made from
# different workload seeds cost the same.
LEMMA1_DEGREE_SUM_TOL = 0.02
# compose_input_order cannot certify the recomposition below its order cap
# at this gamma, so every op here raises NumericalError whatever the seed.
KEPT_FAILING_LEMMA1 = {"gamma": 0.97, "samples": 10, "seed": 1}

# extremal_checks -----------------------------------------------------------
EXTREMAL_GAMMAS = (0.0, 0.3, 0.6, 0.9)
EXTREMAL_BETAS = (1.0, 2.0, 5.0)
# Smallest r sampled per (gamma, beta): just above max(Cesaro radius,
# Bernardi radius), so every scan point lies above both radii.
EXTREMAL_R_MIN = {
    (0.0, 1.0): 0.60, (0.0, 2.0): 0.55, (0.0, 5.0): 0.55,
    (0.3, 1.0): 0.68, (0.3, 2.0): 0.62, (0.3, 5.0): 0.62,
    (0.6, 1.0): 0.75, (0.6, 2.0): 0.67, (0.6, 5.0): 0.67,
    (0.9, 1.0): 0.80, (0.9, 2.0): 0.72, (0.9, 5.0): 0.72,
}
EXTREMAL_R_MAX = 0.95
# r is drawn in the middle 40% of each of EXTREMAL_R_STRATA equal strata of
# [r_min, 0.95]: op cost grows with the truncation order, about 1/(1-r), so
# narrow draws keep rounds from different seeds equally costly.
EXTREMAL_R_STRATA = 4
SCAN_LADDER = (0.99, 0.999, 0.9999)
# The CLI's default fit ladder starts at a = 0.9, which gamma = 0.9 does not
# admit (the family needs gamma < a); this ladder gives slopes 1.96-2.00 at
# every sampled point.
FIT_LADDER = (0.99, 0.999, 0.9999, 0.99999)
DECOMPOSITION_LADDER = (0.95, 0.99, 0.999)
IDENTITY_EVERY = 6

# cli_session ---------------------------------------------------------------
# The README's CLI examples, in the README's order.
CLI_COMMANDS = (
    ("radius", "cesaro", "--gamma", "0"),
    ("radius", "bernardi", "--gamma", "0.5", "--beta", "2"),
    ("radius", "bernardi-classic", "--beta", "1", "--m", "1"),
    ("sweep", "--op", "cesaro", "--parameter", "gamma", "--grid", "0,0.1,0.2,0.3,0.4,0.5"),
    ("sweep", "--op", "bernardi", "--parameter", "beta", "--grid", "1,2,5",
     "--gamma", "0.2", "--format", "json"),
    ("verify", "identities"),
    ("verify", "lemma1", "--gamma", "0.4", "--samples", "1000", "--seed", "7"),
    ("verify", "sharpness", "--op", "cesaro", "--gamma", "0", "--r", "0.55"),
    ("verify", "remainder-order", "--op", "cesaro", "--gamma", "0.3", "--r", "0.4"),
    ("table", "paper-constants"),
    ("table", "theorem1"),
    ("table", "theorem2"),
)


def cli_kind(argv) -> str:
    """Group name of a CLI command, as used by the per-layer cli.main_ms metrics."""
    if argv[0] == "verify":
        return "verify_" + argv[1].replace("-", "_")
    return argv[0]


def lemma1_degrees(seed: int, samples: int, degree_max: int) -> list[int]:
    """Degrees lemma1_check draws for its samples, by its documented recipe.

    The master generator draws a degree in [0, degree_max] and then a child
    seed for each sample.
    """
    import numpy as np

    master = np.random.default_rng(seed)
    degrees = []
    for _ in range(samples):
        degrees.append(int(master.integers(0, degree_max + 1)))
        master.integers(0, 2 ** 63)
    return degrees


def round_ops(workload: str, seed: int) -> list[dict]:
    """The ops of one round of a workload, made from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli_session":
        start = seed % len(CLI_COMMANDS)
        order = CLI_COMMANDS[start:] + CLI_COMMANDS[:start]
        return [{"kind": "cli", "argv": list(argv)} for argv in order]
    if workload == "radius_grid":
        return _radius_grid_ops(rng)
    if workload == "lemma1_sampling":
        return _lemma1_ops(rng)
    if workload == "extremal_checks":
        return _extremal_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _radius_grid_ops(rng: random.Random) -> list[dict]:
    step = CESARO_GAMMA_MAX / CESARO_POINTS
    gammas = [0.0] + [step * (k + rng.uniform(0.05, 0.95)) for k in range(1, CESARO_POINTS)]
    betas = [b * math.exp(rng.uniform(-BETA_JITTER, BETA_JITTER)) for b in BETA_GRID]
    ops = [{"kind": "sweep", "equation": "cesaro", "parameter": "gamma",
            "grid": gammas, "fixed": {}}]
    for g in BERNARDI_FIRST_BETA:
        ops.append({"kind": "sweep", "equation": "bernardi", "parameter": "beta",
                    "grid": betas[BERNARDI_FIRST_BETA[g]:], "fixed": {"gamma": g}})
    for m in CLASSIC_MS:
        ops.append({"kind": "sweep", "equation": "bernardi-classic", "parameter": "beta",
                    "grid": list(betas), "fixed": {"m": m}})
    for g, b in KEPT_FAILING_BERNARDI:
        ops.append({"kind": "sweep", "equation": "bernardi", "parameter": "beta",
                    "grid": [b], "fixed": {"gamma": g}, "kept_failing": True})
    rng.shuffle(ops)
    return ops


def _lemma1_ops(rng: random.Random) -> list[dict]:
    ops = []
    for g, samples in LEMMA1_SAMPLES.items():
        found = 0
        while found < LEMMA1_SEEDS_PER_GAMMA:
            seed = rng.randrange(2 ** 31)
            degrees = lemma1_degrees(seed, samples, LEMMA1_DEGREE_MAX)
            mean_sum = samples * LEMMA1_DEGREE_MAX / 2
            # Lemma 1 is attained by degree-1 samples, so a batch holding one
            # must report a maximum ratio of exactly 1.
            if 1 in degrees and abs(sum(degrees) - mean_sum) <= LEMMA1_DEGREE_SUM_TOL * mean_sum:
                ops.append({"kind": "lemma1", "gamma": g, "samples": samples, "seed": seed,
                            "degree_max": LEMMA1_DEGREE_MAX, "order": LEMMA1_ORDER})
                found += 1
    ops.append({"kind": "lemma1", **KEPT_FAILING_LEMMA1, "degree_max": LEMMA1_DEGREE_MAX,
                "order": LEMMA1_ORDER, "kept_failing": True})
    rng.shuffle(ops)
    return ops


def _extremal_ops(rng: random.Random) -> list[dict]:
    ops = []
    for g in EXTREMAL_GAMMAS:
        for b in EXTREMAL_BETAS:
            lo = EXTREMAL_R_MIN[(g, b)]
            width = (EXTREMAL_R_MAX - lo) / EXTREMAL_R_STRATA
            for k in range(EXTREMAL_R_STRATA):
                ops.append({"kind": "extremal", "gamma": g, "beta": b,
                            "r": lo + width * (k + rng.uniform(0.3, 0.7))})
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["identities"] = i % IDENTITY_EVERY == 0
    return ops


# Operations (run in the child process, against the public API) -------------

def run_op(bk, op: dict):
    """Run one op through the bohrkit module `bk`; returns the raw results.

    Names are looked up on `bk` at call time so a traced run can replace them.
    """
    kind = op["kind"]
    if kind == "sweep":
        return _sweep(bk, op)
    if kind == "lemma1":
        return bk.lemma1_check(bk.DomainGamma(op["gamma"]), op["samples"],
                               op["degree_max"], op["order"], op["seed"])
    if kind == "extremal":
        return _extremal(bk, op)
    raise ValueError(f"op kind {kind!r} does not run in process")


def _sweep(bk, op: dict):
    fixed, eq = op["fixed"], op["equation"]
    if eq == "cesaro":
        return [bk.cesaro_radius(bk.DomainGamma(g)) for g in op["grid"]]
    if eq == "bernardi":
        gamma = bk.DomainGamma(fixed["gamma"])
        return [bk.bernardi_radius(gamma, b) for b in op["grid"]]
    return [bk.bernardi_radius_classic(b, fixed["m"]) for b in op["grid"]]


def _extremal(bk, op: dict):
    gamma = bk.DomainGamma(op["gamma"])
    beta, r = op["beta"], op["r"]
    out = {
        "scan_cesaro": bk.sharpness_scan_cesaro(gamma, r, SCAN_LADDER),
        "scan_bernardi": bk.sharpness_scan_bernardi(gamma, beta, r, SCAN_LADDER),
        "slope_cesaro": bk.remainder_order_check("cesaro", gamma, r, FIT_LADDER),
        "slope_bernardi": bk.remainder_order_check("bernardi", gamma, r, FIT_LADDER, beta=beta),
        "decomp_cesaro": [bk.cesaro_extremal_decomposition(bk.ExtremalParams(a, gamma), r)
                          for a in DECOMPOSITION_LADDER],
        "decomp_bernardi": [bk.bernardi_extremal_decomposition(bk.ExtremalParams(a, gamma),
                                                               beta, r)
                            for a in DECOMPOSITION_LADDER],
    }
    if op["identities"]:
        out["identities"] = bk.identity_suite()
    return out


def summarize(op: dict, raw):
    """JSON form of an op's raw results, made outside the timed region."""
    kind = op["kind"]
    if kind == "sweep":
        return {"radii": [res.value for res in raw],
                "iterations": [res.iterations for res in raw],
                "converged": [res.converged for res in raw]}
    if kind == "lemma1":
        return raw.as_dict()
    out = {key: raw[key].as_dict() for key in ("scan_cesaro", "scan_bernardi")}
    out["slope_cesaro"] = raw["slope_cesaro"]
    out["slope_bernardi"] = raw["slope_bernardi"]
    for key in ("decomp_cesaro", "decomp_bernardi"):
        out[key] = [list(d) for d in raw[key]]
    if "identities" in raw:
        out["identities"] = raw["identities"]
    return out


def warm_up(bk, workload: str) -> None:
    """Fill lazy state (the lru_caches in series) the way a first user call would."""
    if workload == "radius_grid":
        bk.cesaro_radius(bk.DomainGamma(0.5))
        bk.bernardi_radius(bk.DomainGamma(0.5), 1.0)
        bk.bernardi_radius_classic(1.0, 1)
    elif workload == "lemma1_sampling":
        for g in LEMMA1_SAMPLES:
            bk.lemma1_check(bk.DomainGamma(g), 1, LEMMA1_DEGREE_MAX, LEMMA1_ORDER, 0)
        try:
            bk.lemma1_check(bk.DomainGamma(KEPT_FAILING_LEMMA1["gamma"]), 1,
                            LEMMA1_DEGREE_MAX, LEMMA1_ORDER, 0)
        except bk.NumericalError:
            pass
    elif workload == "extremal_checks":
        run_op(bk, {"kind": "extremal", "gamma": 0.3, "beta": 2.0, "r": 0.8,
                    "identities": True})


def check_data(bk, op: dict, raw):
    """Program values the parent's checks need beyond the op's own outputs.

    Computed after the timed loop, so they cost nothing in the metrics.
    """
    kind = op["kind"]
    if kind == "sweep" and op["equation"] == "bernardi-classic" and op["fixed"]["m"] == 1:
        zero = bk.DomainGamma(0.0)
        return {"bernardi_gamma0_beta_plus_1": [bk.bernardi_radius(zero, b + 1.0).value
                                                for b in op["grid"]]}
    if kind == "lemma1" and raw.worst_spec is not None:
        sample = bk.sample_schur_omega(raw.worst_spec, op["order"])
        return {"worst_coeffs": [[c.real, c.imag] for c in sample.coeffs]}
    if kind == "extremal":
        gamma = bk.DomainGamma(op["gamma"])
        rc = raw["scan_cesaro"].radius
        rb = raw["scan_bernardi"].radius
        return {
            "cesaro_factor": [bk.cesaro_first_order_factor(gamma, rc * (1.0 - 1e-6)),
                              bk.cesaro_first_order_factor(gamma, rc * (1.0 + 1e-6))],
            "bernardi_factor": [
                bk.bernardi_first_order_factor(gamma, op["beta"], rb * (1.0 - 1e-6)),
                bk.bernardi_first_order_factor(gamma, op["beta"], rb * (1.0 + 1e-6))],
        }
    return None
