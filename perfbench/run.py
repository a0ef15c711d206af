"""bohrkit benchmark: one command, four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  Every run starts fresh child
processes (perfbench/child.py, or the `python -m bohrkit` CLI) with one
BLAS/OpenMP thread each, drives them in a closed loop with one client,
checks every output against perfbench/checks.py and prints one JSON line:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer ones.  Details of the run go to
perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import re
import resource
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, "perfbench_out")
SETUP_REPEATS = 3
INTERPRETER_REPEATS = 5
IMPORTTIME_REPEATS = 3
DEADLINE_S = 170.0

import workloads  # noqa: E402  (sits beside this file)

PER_LAYER_UNITS = {
    "cli.interpreter_ms": "ms", "cli.import_ms": "ms", "cli.import_scipy_ms": "ms",
    "cli.import_numpy_ms": "ms",
    **{f"cli.main_ms.{k}": "ms" for k in (
        "radius", "sweep", "verify_identities", "verify_lemma1", "verify_sharpness",
        "verify_remainder_order", "table")},
    "radii.cesaro_radius.ms_per_call": "ms",
    "radii.bernardi_radius.ms_per_call.beta_lt_1": "ms",
    "radii.bernardi_radius.ms_per_call.beta_ge_1": "ms",
    "radii.bernardi_radius_classic.ms_per_call": "ms",
    "radii.bernardi_radius.self_ms_per_call": "ms",
    "radii.iterations_per_solve": "count",
    "operators.lerch_tail_sum.calls_per_solve": "count",
    "operators.lerch_tail_sum.ms_per_call": "ms",
    "series.sample_schur_omega.ms_per_call.gamma_0": "ms",
    "series.sample_schur_omega.ms_per_call.gamma_0_4": "ms",
    "series.sample_schur_omega.ms_per_call.gamma_0_9": "ms",
    "series.blaschke_coeffs.ms_per_call": "ms",
    "series.blaschke_coeffs.order": "count",
    "series.affine_compose.ms_per_call": "ms",
    "series.compose_input_order.first_call_ms": "ms",
    "series.TruncatedPowerSeries.init_us": "us",
    "series.TruncatedPowerSeries.inits_per_sample": "count",
    "extremal.lemma1_check.self_ms_per_sample": "ms",
    "extremal.sharpness_scan.ms_per_call.cesaro": "ms",
    "extremal.sharpness_scan.ms_per_call.bernardi": "ms",
    "extremal.remainder_order_check.ms_per_call": "ms",
    "extremal.decomposition.ms_per_call.cesaro": "ms",
    "extremal.decomposition.ms_per_call.bernardi": "ms",
    "extremal.identity_suite.ms_per_call": "ms",
    "extremal.extremal_coeffs.calls_per_check": "count",
    "extremal.radius_solves_per_scan": "count",
    "operators.cesaro_majorant.ms_per_call": "ms",
    "operators.bernardi_majorant.ms_per_call": "ms",
    "trace.op_p50_ms.untraced": "ms",
    "trace.op_p50_ms.traced": "ms",
}


class BenchError(Exception):
    """The benchmark could not run the program to the end."""


class Session:
    """Child processes of one benchmark run, all under one deadline."""

    def __init__(self):
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        self.env.pop("BOHRKIT_THREADS", None)
        src = os.path.join(ROOT, "src")
        inherited = self.env.get("PYTHONPATH")
        self.env.update({
            "PYTHONPATH": src + os.pathsep + inherited if inherited else src,
            "PYTHONHASHSEED": "0",
            # One BLAS/OpenMP thread per process: pools sized to the machine
            # spin and contend on a 2-core host, which makes timings jump.
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
        })

    def remaining(self) -> float:
        left = DEADLINE_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise BenchError(f"run exceeded its {DEADLINE_S:.0f} s deadline")
        return left

    def spawn(self, argv):
        # Unbuffered pipes: reading the READY line must not swallow later output.
        return subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, bufsize=0)

    def finish(self, proc):
        """Wait for a process; returns (exit code, stdout, stderr)."""
        try:
            out, err = proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{proc.args} did not finish before the deadline")
        return proc.returncode, out.decode(), err.decode(errors="replace")

    def wait_ready(self, proc):
        """Block until the child prints READY (its set-up is done)."""
        readable, _, _ = select.select([proc.stdout], [], [], self.remaining())
        line = proc.stdout.readline() if readable else b""
        if line != b"READY\n":
            proc.kill()
            code, _, err = self.finish(proc)
            raise BenchError(f"child failed during set-up (exit {code}): {err.strip()}")

    def child(self, workload, seed, seconds, mode, extra=()):
        return self.spawn([os.path.join(HERE, "child.py"), "--root", ROOT,
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--mode", mode, *extra])

    def child_result(self, proc):
        code, out, err = self.finish(proc)
        if code != 0:
            raise BenchError(f"child exited {code}: {err.strip()}")
        return json.loads(out.splitlines()[-1])

    def timed(self, argv):
        """Wall time (s) of one process from spawn to exit, with its output."""
        t0 = time.perf_counter()
        proc = self.spawn(argv)
        code, out, err = self.finish(proc)
        return time.perf_counter() - t0, code, out, err


# End-to-end: in-process workloads -------------------------------------------

def in_process_setups(session, workload, seed, seconds):
    """SETUP_REPEATS set-ups; the last child goes on to the timed loop."""
    setups = []
    for i in range(SETUP_REPEATS):
        mode = "run" if i == SETUP_REPEATS - 1 else "setup"
        t0 = time.perf_counter()
        proc = session.child(workload, seed, seconds, mode)
        session.wait_ready(proc)
        setups.append(time.perf_counter() - t0)
        if mode == "setup":
            code, _, err = session.finish(proc)
            if code != 0:
                raise BenchError(f"set-up child exited {code}: {err.strip()}")
        else:
            result = session.child_result(proc)
    return setups, result


def check_in_process(workload, ops, result) -> list[str]:
    import checks

    errors = []
    if not result["repeats_identical"]:
        errors.append("a later round gave different outputs than the first")
    errors += check_failures(result["failures"])
    outs, extras = result["outputs"], result["extra"]
    seen = set()
    for op, out, extra in zip(ops, outs, extras):
        if out is None:
            continue
        if op["kind"] == "sweep":
            errors += checks.check_sweep(op, out, extra, seen)
        elif op["kind"] == "lemma1":
            errors += checks.check_lemma1(op, out, extra)
        else:
            errors += checks.check_extremal(op, out, extra)
    if workload == "radius_grid":
        errors += checks.check_radius_round(ops, outs)
    return errors


def check_failures(failures) -> list[str]:
    """Only the kept-failing ops may fail, and only with NumericalError."""
    errors = []
    for f in failures:
        if not f["op"].get("kept_failing") or f["error"] != "NumericalError":
            errors.append(f"unexpected failure {f['error']}: {f['message']} in {f['op']}")
    return errors


def end_to_end(durations_ms, setups_s, peak_rss_mb):
    if not durations_ms:
        raise BenchError("no op succeeded")
    return {
        "setup_s": (statistics.median(setups_s), "s"),
        "op_p50_ms": (statistics.median(durations_ms), "ms"),
        "ops_per_s": (len(durations_ms) / (sum(durations_ms) / 1e3), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def run_in_process(session, workload, seed, seconds):
    ops = workloads.round_ops(workload, seed)
    setups, result = in_process_setups(session, workload, seed, seconds)
    errors = check_in_process(workload, ops, result)
    metrics = end_to_end(result["durations_ms"], setups, result["peak_rss_kb"] / 1024.0)
    return errors, result["attempted"], len(result["failures"]), metrics


# End-to-end: cli_session -----------------------------------------------------

def cli_argv(argv):
    return ["-m", "bohrkit", *argv]


def cli_rounds(session, ops, seconds, command=lambda op: cli_argv(op["argv"])):
    """Whole rounds of cold CLI calls.

    Returns the durations (ms) of successful calls, keyed by the op's
    "traced" flag, the first round's (argv, exit code, stdout, stderr) of
    untraced ops, and the attempted and failed counts.
    """
    durations, results, attempted, failed = {False: [], True: []}, [], 0, 0
    start = time.perf_counter()
    first_round = True
    while first_round or time.perf_counter() - start < seconds:
        for op in ops:
            wall, code, out, err = session.timed(command(op))
            attempted += 1
            if code != 0:
                failed += 1
            else:
                durations[op.get("traced", False)].append(wall * 1e3)
            if first_round and not op.get("traced"):
                results.append((op["argv"], code, out, err))
        first_round = False
    return durations, results, attempted, failed


def cli_version_setups(session):
    setups = []
    for _ in range(SETUP_REPEATS):
        wall, code, out, err = session.timed(cli_argv(["--version"]))
        if code != 0 or not re.fullmatch(r"bohrkit \d+\.\d+\.\d+\n", out):
            raise BenchError(f"`bohrkit --version` exited {code}: {out!r} {err.strip()}")
        setups.append(wall)
    return setups


def check_cli_round(session, results) -> list[str]:
    import checks

    copies = session.child_result(session.child("cli_session", 0, 0, "cli_copies"))["copies"]
    by_argv = {tuple(argv): copy for argv, copy in zip(workloads.CLI_COMMANDS, copies)}
    errors = []
    for argv, code, out, err in results:
        errors += checks.check_cli(argv, code, out, by_argv[tuple(argv)])
    return errors


def run_cli(session, seed, seconds):
    ops = workloads.round_ops("cli_session", seed)
    setups = cli_version_setups(session)
    durations, results, attempted, failed = cli_rounds(session, ops, seconds)
    durations = durations[False]
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    errors = check_cli_round(session, results)
    return errors, attempted, failed, end_to_end(durations, setups, peak_mb)


# Traced run ------------------------------------------------------------------

def import_times(stderr: str) -> dict:
    """Cumulative ms of bohrkit.cli, and of the numpy and scipy subtrees it pulls in.

    -X importtime prints one line per module after its children, indented two
    spaces per level.  A numpy or scipy subtree counts once, at its top line,
    so numpy modules that scipy pulls in count as scipy.
    """
    rows = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)", line)
        if m:
            rows.append((len(m.group(3)) // 2, m.group(4), int(m.group(2)) / 1e3))
    totals = {"cli.import_ms": 0.0, "cli.import_numpy_ms": 0.0, "cli.import_scipy_ms": 0.0}
    stack = []  # ancestors, walking the post-order list backwards
    for depth, name, cum_ms in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if name == "bohrkit.cli":
            totals["cli.import_ms"] = cum_ms
        elif top in ("numpy", "scipy") and not any(a[1] in ("numpy", "scipy") for a in stack):
            totals[f"cli.import_{top}_ms"] += cum_ms
        stack.append((depth, top))
    return totals


def cli_probe(session) -> dict:
    interp = [session.timed(["-c", "pass"])[0] * 1e3 for _ in range(INTERPRETER_REPEATS)]
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        _, code, _, err = session.timed(["-X", "importtime", "-c", "import bohrkit.cli"])
        if code != 0:
            raise BenchError(f"import bohrkit.cli failed: {err[-500:]}")
        runs.append(import_times(err))
    out = {"cli.interpreter_ms": statistics.median(interp)}
    for key in runs[0]:
        out[key] = statistics.median(r[key] for r in runs)
    return out


TRACED_CLI = ("import sys; sys.path.insert(0, {here!r}); from tracer import Tracer; "
              "t = Tracer(); t.install(); t.phase = 'cli_session'; import bohrkit.cli; "
              "sys.exit(bohrkit.cli.main(sys.argv[1:]))")


def run_traced(session, workload, seed, seconds):
    import tracer

    metrics = cli_probe(session)
    spans_path = os.path.join(OUT_DIR, f"trace-{workload}-{seed}.jsonl")
    layers = session.child_result(session.child(workload, seed, 0, "layers",
                                                ("--spans", spans_path)))
    metrics.update(tracer.layer_metrics(tracer.read_spans(spans_path)))
    for kind, ms in layers["cli_main_ms"].items():
        metrics[f"cli.main_ms.{kind}"] = ms

    ops = workloads.round_ops(workload, seed)
    if workload == "cli_session":
        # Each command runs untraced and then traced, so host drift hits both.
        boot = TRACED_CLI.format(here=HERE)
        pairs = [dict(op, traced=t) for op in ops for t in (False, True)]
        durations, results, attempted, failed = cli_rounds(
            session, pairs, 0,
            command=lambda op: (["-c", boot, *op["argv"]] if op["traced"]
                                else cli_argv(op["argv"])))
        untraced, traced = durations[False], durations[True]
        errors = check_cli_round(session, results)
    else:
        proc = session.child(workload, seed, seconds, "compare")
        session.wait_ready(proc)
        result = session.child_result(proc)
        untraced, traced = result["durations_ms"], result["traced_durations_ms"]
        errors = check_in_process(workload, ops, result)
        attempted, failed = result["attempted"], len(result["failures"])
    metrics["trace.op_p50_ms.untraced"] = statistics.median(untraced)
    metrics["trace.op_p50_ms.traced"] = statistics.median(traced)
    return errors, attempted, failed, {k: (v, PER_LAYER_UNITS[k]) for k, v in metrics.items()}


# Entry point ------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = os.path.join(ROOT, "src", "bohrkit")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"error: no bohrkit sources under {package}", file=sys.stderr)
        return 2
    # The "build": byte-compile the sources so no run pays for compiling.
    if not compileall.compile_dir(package, quiet=1):
        print("error: bohrkit sources do not compile", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    session = Session()
    try:
        if args.trace:
            errors, attempted, failed, metrics = run_traced(
                session, args.workload, args.seed, args.seconds)
        elif args.workload == "cli_session":
            errors, attempted, failed, metrics = run_cli(session, args.seed, args.seconds)
        else:
            errors, attempted, failed, metrics = run_in_process(
                session, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  errors=errors)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
