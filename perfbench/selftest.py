"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py

Each correctness check must reject a deliberately wrong value, and a short
run of every workload must complete.  The file name keeps these tests out
of the library's own suite; they take one to two minutes.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import bohrkit  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


@pytest.mark.parametrize("equation, params", [
    ("cesaro", {"gamma": 0.3}),
    ("bernardi", {"gamma": 0.2, "beta": 0.168}),
    ("bernardi-classic", {"beta": 1.0, "m": 1}),
])
def test_radius_check_rejects_a_radius_off_by_1e_8(equation, params):
    if equation == "cesaro":
        radius = bohrkit.cesaro_radius(bohrkit.DomainGamma(params["gamma"])).value
    elif equation == "bernardi":
        radius = bohrkit.bernardi_radius(bohrkit.DomainGamma(params["gamma"]),
                                         params["beta"]).value
    else:
        radius = bohrkit.bernardi_radius_classic(params["beta"], params["m"]).value
    assert checks.root_within(equation, params, radius) == []
    assert checks.root_within(equation, params, radius + 1e-8)
    assert checks.root_within(equation, params, radius - 1e-8)


def _lemma1_case():
    op = {"kind": "lemma1", "gamma": 0.4, "samples": 40, "seed": 5,
          "degree_max": 8, "order": 64}
    raw = workloads.run_op(bohrkit, op)
    return op, workloads.summarize(op, raw), workloads.check_data(bohrkit, op, raw)


def test_lemma1_check_rejects_a_max_ratio_of_1_01():
    op, out, extra = _lemma1_case()
    assert checks.check_lemma1(op, out, extra) == []
    assert checks.check_lemma1(op, dict(out, max_ratio=1.01), extra)


def test_lemma1_check_rejects_a_wrong_worst_sample():
    op, out, extra = _lemma1_case()
    coeffs = [list(c) for c in extra["worst_coeffs"]]
    coeffs[3][0] += 1e-11
    assert checks.check_lemma1(op, out, {"worst_coeffs": coeffs})


def _extremal_case():
    op = {"kind": "extremal", "gamma": 0.3, "beta": 2.0, "r": 0.8, "identities": True}
    raw = workloads.run_op(bohrkit, op)
    return op, workloads.summarize(op, raw), workloads.check_data(bohrkit, op, raw)


def test_extremal_check_rejects_a_perturbed_remainder():
    op, out, extra = _extremal_case()
    assert checks.check_extremal(op, out, extra) == []
    for kind in ("decomp_cesaro", "decomp_bernardi"):
        bad = json.loads(json.dumps(out))
        bad[kind][1][2] += 1e-9
        assert checks.check_extremal(op, bad, extra)


def test_extremal_check_rejects_a_slope_outside_the_range():
    op, out, extra = _extremal_case()
    assert checks.check_extremal(op, dict(out, slope_bernardi=1.05), extra)


def test_cli_check_rejects_an_altered_second_copy():
    argv = ["radius", "bernardi", "--gamma", "0.5", "--beta", "2"]
    proc = subprocess.run([sys.executable, "-m", "bohrkit", *argv], capture_output=True,
                          text=True, cwd=ROOT, env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    assert checks.check_cli(argv, proc.returncode, proc.stdout, proc.stdout) == []
    altered = proc.stdout.replace('"iterations": ', '"iterations":  ')
    assert altered != proc.stdout
    assert checks.check_cli(argv, proc.returncode, proc.stdout, altered)


def test_cli_check_rejects_a_wrong_table_radius():
    out = "gamma  radius    residual\n0.00   0.533590  1.0e-16\n"
    assert checks._check_table("theorem1", out)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_short_run_of_every_workload_completes(workload):
    result = _run(workload, trace=0)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_a_traced_run_reports_every_per_layer_metric():
    result = _run("extremal_checks", trace=1)
    assert result["correct"] is True
    names = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def _run(workload, trace):
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "0.2", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])
