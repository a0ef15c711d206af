import csv
import io
import json
import subprocess
import sys

import pytest

BOHRKIT = [sys.executable, "-m", "bohrkit"]


def run_cli(*args):
    return subprocess.run(BOHRKIT + list(args), capture_output=True, text=True)


# ---------------------------------------------------------------- radius

def test_radius_cesaro_gamma_zero():
    proc = run_cli("radius", "cesaro", "--gamma", "0")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert abs(doc["radius"] - 0.5335) <= 5e-4
    assert doc["residual"] <= 1e-10
    assert doc["converged"] is True
    assert doc["evaluations"] >= doc["iterations"] >= 1
    assert doc["equation"] == "cesaro"
    assert doc["parameters"] == {"gamma": 0.0, "tol": 1e-12}
    assert "version" in doc


def test_radius_rejects_gamma_one():
    proc = run_cli("radius", "cesaro", "--gamma", "1.0")
    assert proc.returncode == 2
    assert "gamma must lie in [0, 1)" in proc.stderr


def test_radius_bernardi():
    proc = run_cli("radius", "bernardi", "--gamma", "0", "--beta", "1")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["radius"] == pytest.approx(0.5827, abs=5e-4)


def test_radius_bernardi_classic():
    proc = run_cli("radius", "bernardi-classic", "--beta", "1", "--m", "1")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["radius"] == pytest.approx(0.474, abs=5e-4)


def test_radius_numerical_failure_exit_code():
    # beta so small that the root lies closer to 1 than double resolution.
    proc = run_cli("radius", "bernardi", "--gamma", "0", "--beta", "0.001")
    assert proc.returncode == 3
    assert "double resolution" in proc.stderr


def test_malformed_flags_exit_one():
    proc = run_cli("radius", "cesaro", "--gamma")
    assert proc.returncode == 1
    assert "usage" in proc.stderr.lower()


# ----------------------------------------------------------------- sweep

def test_sweep_cesaro_csv_monotone_and_round_trip():
    grid = ",".join(str(round(0.1 * k, 1)) for k in range(10))
    proc = run_cli("sweep", "--op", "cesaro", "--parameter", "gamma", "--grid", grid)
    assert proc.returncode == 0
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert len(rows) == 10
    radii = [float(r["radius"]) for r in rows]
    assert all(b > a for a, b in zip(radii, radii[1:]))
    # 17 significant digits round-trip exactly through text.
    direct = json.loads(run_cli("radius", "cesaro", "--gamma", "0.5").stdout)["radius"]
    assert float(rows[5]["radius"]) == direct


def test_sweep_bernardi_beta_grid():
    proc = run_cli("sweep", "--op", "bernardi", "--parameter", "beta",
                   "--grid", "1,2,5", "--gamma", "0.2", "--format", "json")
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)
    assert len(rows) == 3
    radii = [r["radius"] for r in rows]
    diffs = [b - a for a, b in zip(radii, radii[1:])]
    assert all(d < 0 for d in diffs) or all(d > 0 for d in diffs)


def test_sweep_empty_grid_is_validation_error():
    proc = run_cli("sweep", "--op", "cesaro", "--parameter", "gamma", "--grid", "")
    assert proc.returncode == 1


def test_sweep_non_increasing_grid_is_validation_error():
    proc = run_cli("sweep", "--op", "cesaro", "--parameter", "gamma", "--grid", "0.5,0.2")
    assert proc.returncode == 1


def test_sweep_missing_fixed_parameter():
    proc = run_cli("sweep", "--op", "bernardi", "--parameter", "beta", "--grid", "1,2")
    assert proc.returncode == 1
    assert "gamma" in proc.stderr


def test_sweep_unwritable_output_exit_four(tmp_path):
    out = tmp_path / "no_such_dir" / "table.csv"
    proc = run_cli("sweep", "--op", "cesaro", "--parameter", "gamma",
                   "--grid", "0,0.5", "--out", str(out))
    assert proc.returncode == 4


def test_sweep_writes_file(tmp_path):
    out = tmp_path / "table.csv"
    proc = run_cli("sweep", "--op", "cesaro", "--parameter", "gamma",
                   "--grid", "0,0.5", "--out", str(out))
    assert proc.returncode == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 2


def test_sweep_deterministic():
    args = ("sweep", "--op", "cesaro", "--parameter", "gamma", "--grid", "0,0.3,0.6")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout


# ---------------------------------------------------------------- verify

def test_verify_identities():
    proc = run_cli("verify", "identities")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["pass"] is True
    assert doc["report"]["max_deviation"] <= 1e-10


def test_verify_lemma1_deterministic():
    args = ("verify", "lemma1", "--gamma", "0.4", "--samples", "300", "--seed", "7")
    first = run_cli(*args)
    assert first.returncode == 0
    doc = json.loads(first.stdout)
    assert doc["report"]["max_ratio"] <= 1.0 + 1e-9
    assert 0 < doc["report"]["skipped"] < doc["report"]["samples"] == 300
    assert first.stdout == run_cli(*args).stdout


def test_verify_sharpness_below_radius_guard():
    proc = run_cli("verify", "sharpness", "--op", "cesaro", "--gamma", "0", "--r", "0.50")
    assert proc.returncode == 2


def test_verify_sharpness_finds_witness():
    proc = run_cli("verify", "sharpness", "--op", "cesaro", "--gamma", "0", "--r", "0.55")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["report"]["witness_found"] is True


def test_verify_sharpness_bernardi_requires_beta():
    proc = run_cli("verify", "sharpness", "--op", "bernardi", "--gamma", "0", "--r", "0.62")
    assert proc.returncode == 1


def test_verify_remainder_order_pass_and_assertion_failure():
    ok = run_cli("verify", "remainder-order", "--op", "cesaro", "--gamma", "0.3",
                 "--r", "0.4")
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["pass"] is True
    bernardi = run_cli("verify", "remainder-order", "--op", "bernardi", "--gamma",
                       "0.2", "--beta", "1", "--r", "0.3")
    assert bernardi.returncode == 0
    assert json.loads(bernardi.stdout)["pass"] is True
    # A ladder far from a -> 1 lies outside the asymptotic regime of the
    # quadratic remainder, so the slope assertion genuinely fails there.
    red = run_cli("verify", "remainder-order", "--op", "bernardi", "--gamma", "0.3",
                  "--beta", "1", "--r", "0.95", "--a-list", "0.4,0.5,0.6")
    assert red.returncode == 5
    doc = json.loads(red.stdout)
    assert doc["pass"] is False
    low, high = doc["expected_range"]
    assert not low <= doc["slope"] <= high


def test_verify_remainder_order_deep_ladder():
    # 1-a = 1e-7 and 1e-8: the closed-form remainders stay certified there,
    # so both points enter the fit.
    proc = run_cli("verify", "remainder-order", "--op", "cesaro", "--gamma", "0.3",
                   "--r", "0.4", "--a-list", "0.9999999,0.99999999")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["pass"] is True
    assert 1.8 <= doc["slope"] <= 2.2


# ----------------------------------------------------------------- table

def test_table_paper_constants():
    proc = run_cli("table", "paper-constants")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["quantity", "computed", "reference"]
    body = "\n".join(lines[1:])
    assert "0.333333" in body and "1/3" in body
    assert "0.533589" in body and "0.5335" in body
    assert "0.474278" in body


def test_table_theorem_grids():
    t1 = run_cli("table", "theorem1")
    assert t1.returncode == 0
    assert len(t1.stdout.splitlines()) == 11
    t2 = run_cli("table", "theorem2")
    assert t2.returncode == 0
    assert len(t2.stdout.splitlines()) == 13


def test_table_unknown_name_exit_one():
    proc = run_cli("table", "nosuch")
    assert proc.returncode == 1


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.startswith("bohrkit ")


def test_cli_import_loads_no_scipy():
    code = ("import sys, bohrkit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
