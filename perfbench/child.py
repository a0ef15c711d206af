"""One benchmark process: import bohrkit, warm up, then run ops in a closed loop.

Started by run.py with a fresh interpreter for every run.  It writes READY
on stdout when its warm-up is done (the end of set-up) and one JSON line
with its results when it ends.

    python3 perfbench/child.py --root DIR --workload W --seed N --seconds S \
        --mode setup|run|compare|layers|cli_copies [--spans PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

import workloads


def import_program(root: str):
    import bohrkit

    expected = os.path.join(os.path.realpath(root), "src", "bohrkit")
    if os.path.dirname(os.path.realpath(bohrkit.__file__)) != expected:
        raise SystemExit(f"bohrkit imported from {bohrkit.__file__}, not {expected}")
    return bohrkit


def ready():
    sys.stdout.write("READY\n")
    sys.stdout.flush()


def run_rounds(bk, ops, seconds, after_round=None):
    """Whole rounds of ops until `seconds` have passed; at least one round.

    Returns successful op durations (ms), attempts, failures and the raw
    results of the first round (None where the op failed).  after_round, if
    given, sees each round's raw results outside the timed ops.
    """
    durations, failures, attempted = [], [], 0
    first = None
    clock = time.perf_counter
    start = clock()
    while first is None or clock() - start < seconds:
        results = []
        for op in ops:
            attempted += 1
            t0 = clock()
            try:
                raw = workloads.run_op(bk, op)
            except bk.BohrkitError as exc:
                failures.append({"op": op, "error": type(exc).__name__, "message": str(exc)})
                results.append(None)
                continue
            durations.append((clock() - t0) * 1e3)
            results.append(raw)
        if first is None:
            first = results
        if after_round is not None:
            after_round(results)
    return durations, attempted, failures, first


def outputs(bk, ops, raws):
    """JSON outputs and the extra program values the checks need."""
    out, extra = [], []
    for op, raw in zip(ops, raws):
        out.append(None if raw is None else workloads.summarize(op, raw))
        extra.append(None if raw is None else workloads.check_data(bk, op, raw))
    return out, extra


def mode_run(bk, args, ops):
    reference, identical = [], [True]

    def compare(results):
        # Every round repeats the same inputs, so outputs must repeat too.
        summary = [None if raw is None else workloads.summarize(op, raw)
                   for op, raw in zip(ops, results)]
        if not reference:
            reference.append(summary)
        elif summary != reference[0]:
            identical[0] = False

    durations, attempted, failures, first = run_rounds(bk, ops, args.seconds, compare)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out, extra = outputs(bk, ops, first)
    return {"durations_ms": durations, "attempted": attempted, "failures": failures,
            "peak_rss_kb": peak_kb, "outputs": out, "extra": extra,
            "repeats_identical": identical[0]}


def mode_compare(bk, args, ops):
    """Untraced and traced rounds in turn, for the tracing overhead.

    Alternating rounds exposes both sides to the same drift in host speed.
    """
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced, failures, attempted = [], [], [], 0

    def one_round(sink):
        nonlocal attempted
        durations, n, failed, raws = run_rounds(bk, ops, 0.0)
        sink += durations
        attempted += n
        failures.extend(failed)
        return raws

    first = None
    start = time.perf_counter()
    while first is None or time.perf_counter() - start < args.seconds:
        raws = one_round(untraced)
        first = raws if first is None else first
        tracer.install()
        tracer.phase = args.workload
        one_round(traced)
        tracer.uninstall()
        tracer.spans.clear()
    out, extra = outputs(bk, ops, first)
    return {"durations_ms": untraced, "traced_durations_ms": traced,
            "attempted": attempted, "failures": failures,
            "outputs": out, "extra": extra, "repeats_identical": True}


def mode_layers(bk, args):
    """One traced round of each in-process workload, plus cli.main per README command.

    The rounds use LAYER_SEED whatever the run's seed, so per-layer counts
    repeat exactly between runs.
    """
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    in_process = [w for w in workloads.WORKLOADS if w != "cli_session"]
    for w in in_process:
        tracer.phase = f"warmup:{w}"
        workloads.warm_up(bk, w)
    for w in in_process:
        tracer.phase = w
        run_rounds(bk, workloads.round_ops(w, workloads.LAYER_SEED), 0.0)
    tracer.phase = "cli_main"
    import bohrkit.cli

    per_command = {}
    for argv in workloads.CLI_COMMANDS:
        times = []
        for _ in range(3):
            sink = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink):
                code = bohrkit.cli.main(list(argv))
            times.append((time.perf_counter() - t0) * 1e3)
            if code != 0:
                raise SystemExit(f"bohrkit {' '.join(argv)} exited {code}")
        per_command.setdefault(workloads.cli_kind(argv), []).append(statistics.median(times))
    tracer.uninstall()
    tracer.write(args.spans)
    return {"cli_main_ms": {k: statistics.fmean(v) for k, v in per_command.items()}}


def mode_cli_copies():
    """Run each README command once more in process, for the byte-identity check."""
    import bohrkit.cli

    copies = []
    for argv in workloads.CLI_COMMANDS:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            bohrkit.cli.main(list(argv))
        copies.append(sink.getvalue())
    return {"copies": copies}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=["setup", "run", "compare", "layers", "cli_copies"])
    parser.add_argument("--spans")
    args = parser.parse_args()

    bk = import_program(args.root)
    if args.mode == "layers":
        result = mode_layers(bk, args)
    elif args.mode == "cli_copies":
        result = mode_cli_copies()
    else:
        workloads.warm_up(bk, args.workload)
        ready()
        if args.mode == "setup":
            return
        ops = workloads.round_ops(args.workload, args.seed)
        mode = mode_run if args.mode == "run" else mode_compare
        result = mode(bk, args, ops)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
