import csv
import io
import json
import subprocess
import sys

import pytest

from bohrkit.cli import main

BOHRKIT = [sys.executable, "-m", "bohrkit"]


def run_cli(*args):
    """Run the CLI in a fresh interpreter, for what only a cold process shows."""
    return subprocess.run(BOHRKIT + list(args), capture_output=True, text=True)


@pytest.fixture
def cli(capsys):
    """Run ``bohrkit.cli.main`` in process; returns a CompletedProcess."""
    def run(*args):
        code = main(list(args))
        captured = capsys.readouterr()
        return subprocess.CompletedProcess(args, code, captured.out, captured.err)
    return run


# ---------------------------------------------------------------- radius

def test_radius_cesaro_gamma_zero(cli):
    proc = cli("radius", "cesaro", "--gamma", "0")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert abs(doc["radius"] - 0.5335) <= 5e-4
    assert doc["residual"] <= 1e-10
    assert doc["converged"] is True
    assert doc["evaluations"] >= doc["iterations"] >= 1
    assert doc["equation"] == "cesaro"
    assert doc["parameters"] == {"gamma": 0.0, "tol": 1e-12}
    assert "version" in doc


def test_radius_rejects_gamma_one(cli):
    proc = cli("radius", "cesaro", "--gamma", "1.0")
    assert proc.returncode == 2
    assert "gamma must lie in [0, 1)" in proc.stderr


def test_radius_bernardi(cli):
    proc = cli("radius", "bernardi", "--gamma", "0", "--beta", "1")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["radius"] == pytest.approx(0.5827, abs=5e-4)


def test_radius_bernardi_classic(cli):
    proc = cli("radius", "bernardi-classic", "--beta", "1", "--m", "1")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["radius"] == pytest.approx(0.474, abs=5e-4)


def test_radius_numerical_failure_exit_code(cli):
    # beta so small that the root lies closer to 1 than double resolution.
    proc = cli("radius", "bernardi", "--gamma", "0", "--beta", "0.001")
    assert proc.returncode == 3
    assert "double resolution" in proc.stderr


@pytest.mark.parametrize("equation", [("cesaro",), ("bernardi", "--beta", "1")])
@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_radius_rejects_non_finite_tol(cli, equation, tol):
    # A NaN tol reported an unsolved bracket end as the radius (exit 3), an
    # inf tol the bracket end 0.5 as a converged radius (exit 0).
    proc = cli("radius", *equation, "--gamma", "0", "--tol", tol)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "tolerance must be a positive real" in proc.stderr


def test_malformed_flags_exit_one():
    proc = run_cli("radius", "cesaro", "--gamma")
    assert proc.returncode == 1
    assert "usage" in proc.stderr.lower()


# ----------------------------------------------------------------- sweep

def test_sweep_cesaro_csv_monotone_and_round_trip(cli):
    grid = ",".join(str(round(0.1 * k, 1)) for k in range(10))
    proc = cli("sweep", "--op", "cesaro", "--parameter", "gamma", "--grid", grid)
    assert proc.returncode == 0
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert len(rows) == 10
    radii = [float(r["radius"]) for r in rows]
    assert all(b > a for a, b in zip(radii, radii[1:]))
    # 17 significant digits round-trip exactly through text.
    direct = json.loads(cli("radius", "cesaro", "--gamma", "0.5").stdout)["radius"]
    assert float(rows[5]["radius"]) == direct


def test_sweep_bernardi_beta_grid(cli):
    proc = cli("sweep", "--op", "bernardi", "--parameter", "beta",
               "--grid", "1,2,5", "--gamma", "0.2", "--format", "json")
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)
    assert len(rows) == 3
    radii = [r["radius"] for r in rows]
    diffs = [b - a for a, b in zip(radii, radii[1:])]
    assert all(d < 0 for d in diffs) or all(d > 0 for d in diffs)


def test_sweep_empty_grid_is_validation_error(cli):
    proc = cli("sweep", "--op", "cesaro", "--parameter", "gamma", "--grid", "")
    assert proc.returncode == 1


def test_sweep_non_increasing_grid_is_validation_error(cli):
    proc = cli("sweep", "--op", "cesaro", "--parameter", "gamma", "--grid", "0.5,0.2")
    assert proc.returncode == 1


def test_sweep_missing_fixed_parameter(cli):
    proc = cli("sweep", "--op", "bernardi", "--parameter", "beta", "--grid", "1,2")
    assert proc.returncode == 1
    assert "gamma" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("radius", "cesaro", "--gamma", "0"),
    ("verify", "sharpness", "--op", "cesaro", "--gamma", "0", "--r", "0.55"),
    ("verify", "identities"),
    ("sweep", "--op", "cesaro", "--parameter", "gamma", "--grid", "0,0.5"),
    ("sweep", "--op", "bernardi", "--parameter", "beta", "--grid", "1,2", "--gamma", "0.2",
     "--format", "json"),
    ("table", "theorem1"),
    ("verify", "lemma1", "--gamma", "0.4", "--samples", "20", "--seed", "7"),
    ("verify", "remainder-order", "--op", "cesaro", "--gamma", "0.3", "--r", "0.4")])
def test_unwritable_output_exit_four(cli, tmp_path, argv):
    # Every command writes through one path, which reports the failed write.
    out = tmp_path / "no_such_dir" / "out.txt"
    proc = cli(*argv, "--out", str(out))
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert "cannot write" in proc.stderr


def test_sweep_writes_file(cli, tmp_path):
    out = tmp_path / "table.csv"
    proc = cli("sweep", "--op", "cesaro", "--parameter", "gamma",
               "--grid", "0,0.5", "--out", str(out))
    assert proc.returncode == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 2


@pytest.mark.parametrize("argv", [
    ("table", "theorem2"),
    ("verify", "lemma1", "--gamma", "0.4", "--samples", "50", "--seed", "7"),
    ("sweep", "--op", "bernardi-classic", "--parameter", "beta", "--grid=-0.5,1e9", "--m", "1")])
def test_out_file_holds_the_stdout_bytes(cli, tmp_path, argv):
    out = tmp_path / "out.txt"
    written = cli(*argv, "--out", str(out))
    assert written.returncode == 0
    assert written.stdout == ""
    printed = cli(*argv)
    assert printed.returncode == 0
    assert out.read_bytes() == printed.stdout.encode()


def test_sweep_deterministic(cli):
    args = ("sweep", "--op", "cesaro", "--parameter", "gamma", "--grid", "0,0.3,0.6")
    first = cli(*args)
    second = cli(*args)
    assert first.stdout == second.stdout


@pytest.mark.parametrize("argv, message", [
    (("--op", "cesaro", "--parameter", "gamma", "--grid", "0,0.5", "--beta", "5"),
     "cesaro sweeping gamma takes no --beta"),
    (("--op", "cesaro", "--parameter", "gamma", "--grid", "0,0.5", "--gamma", "0.3"),
     "cesaro sweeping gamma takes no --gamma"),
    (("--op", "bernardi-classic", "--parameter", "beta", "--grid", "1,2", "--gamma", "0.3"),
     "bernardi-classic sweeping beta takes no --gamma"),
    (("--op", "bernardi", "--parameter", "beta", "--grid", "1,2", "--gamma", "0.2",
      "--m", "3"), "bernardi sweeping beta takes no --m"),
])
def test_sweep_rejects_fixed_flag_it_would_ignore(cli, argv, message):
    # Each of these printed the table it prints without the flag.
    proc = cli("sweep", *argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert message in proc.stderr


def test_sweep_bernardi_classic_m_defaults_to_zero(cli):
    grid = ("sweep", "--op", "bernardi-classic", "--parameter", "beta", "--grid", "1,2")
    assert cli(*grid).stdout == cli(*grid, "--m", "0").stdout != ""


@pytest.mark.parametrize("argv, message", [
    (("--op", "cesaro", "--parameter", "gamma", "--grid", "0,x"),
     "--grid expects a comma-separated list of numbers"),
    (("--op", "cesaro", "--parameter", "beta", "--grid", "1,2", "--gamma", "0"),
     "cesaro has no parameter 'beta'"),
])
def test_sweep_validation_messages(cli, argv, message):
    proc = cli("sweep", *argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert message in proc.stderr


@pytest.mark.parametrize("argv, message", [
    (("--op", "cesaro", "--parameter", "gamma", "--grid", "0,1"),
     "gamma must lie in [0, 1), got 1.0"),
    (("--op", "cesaro", "--parameter", "gamma", "--grid", "0,1.5"),
     "gamma must lie in [0, 1), got 1.5"),
    (("--op", "bernardi", "--parameter", "beta", "--grid", "0,1", "--gamma", "0"),
     "beta must be a positive real, got 0.0"),
    (("--op", "bernardi-classic", "--parameter", "beta", "--grid=-1.5,2", "--m", "1"),
     "beta must exceed -m, got beta=-1.5, m=1"),
    (("--op", "bernardi-classic", "--parameter", "beta", "--grid", "1,2", "--m", "1" + "0" * 400),
     "m must lie within the double range, got an integer of 1329 bits"),
])
def test_sweep_grid_domain_errors(cli, argv, message):
    # The sweep checked these domains itself and exited 1, where radius
    # exits 2 for the same value; the library's own check now answers.
    proc = cli("sweep", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr


@pytest.mark.parametrize("grid", ["1,2", "2,3"])
def test_sweep_bernardi_classic_rejects_negative_m_first(cli, grid):
    # A negative m used to lower the beta floor, so "1,2" reported the floor.
    proc = cli("sweep", "--op", "bernardi-classic", "--parameter", "beta", "--grid", grid,
               "--m", "-1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "m must be a nonnegative integer, got -1" in proc.stderr


# ---------------------------------------------------------------- verify

def test_verify_lemma1_gamma_zero_order_above_cap_exits_three(cli):
    # At gamma = 0, which composes nothing, any order was taken.
    proc = cli("verify", "lemma1", "--gamma", "0", "--samples", "1", "--seed", "1",
               "--order", "20001")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "error: output order 20001 is above the cap 20000\n"


def test_radius_classic_m_beyond_the_double_range_exits_two(cli):
    # m + beta raised OverflowError: a traceback and exit 1.
    proc = cli("radius", "bernardi-classic", "--beta", "1", "--m", "1" + "0" * 400)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: m must lie within the double range, got an integer "
                           "of 1329 bits\n")


def test_verify_identities(cli):
    proc = cli("verify", "identities")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["pass"] is True
    assert doc["report"]["max_deviation"] <= 1e-10


def test_verify_lemma1_deterministic(cli):
    args = ("verify", "lemma1", "--gamma", "0.4", "--samples", "300", "--seed", "7")
    first = cli(*args)
    assert first.returncode == 0
    doc = json.loads(first.stdout)
    assert doc["report"]["max_ratio"] <= 1.0 + 1e-9
    assert 0 < doc["report"]["skipped"] < doc["report"]["samples"] == 300
    assert first.stdout == cli(*args).stdout


def test_verify_sharpness_below_radius_guard(cli):
    proc = cli("verify", "sharpness", "--op", "cesaro", "--gamma", "0", "--r", "0.50")
    assert proc.returncode == 2


def test_verify_sharpness_finds_witness(cli):
    proc = cli("verify", "sharpness", "--op", "cesaro", "--gamma", "0", "--r", "0.55")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["report"]["witness_found"] is True


@pytest.mark.parametrize("argv", [
    ("--op", "cesaro", "--gamma", "0", "--r", "0.99999"),
    ("--op", "bernardi", "--gamma", "0.5", "--beta", "2", "--r", "0.9995"),
    pytest.param(("--op", "bernardi", "--gamma", "0.9", "--beta", "0.15", "--r", "0.99929",
                  "--a-list", "0.9999,0.99999,0.999999"),
                 marks=pytest.mark.filterwarnings("ignore:beta=0.15 < 1")),
])
def test_verify_sharpness_finds_witness_near_unit_circle(cli, argv):
    # The truncated remainders exited 3 here: at r = 0.99999 Cesaro's needed
    # 3.6 million terms, and Bernardi's 67224 and 49075 terms, above the
    # order cap 40000.  The closed forms have no order cap.
    proc = cli("verify", "sharpness", *argv)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["report"]["witness_found"] is True


def test_verify_sharpness_prints_a_library_warning_as_one_line():
    # The beta < 1 warning reached stderr as a Python warning, with the path
    # and line of cli.py and a source line, which differ between checkouts.
    proc = run_cli("verify", "sharpness", "--op", "bernardi", "--gamma", "0.9",
                   "--beta", "0.15", "--r", "0.99929", "--a-list", "0.9999,0.99999,0.999999")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["report"]["witness_found"] is True
    assert proc.stderr == "warning: beta=0.15 < 1: sharpness behaviour is exploratory here\n"


def test_verify_sharpness_bernardi_requires_beta(cli):
    proc = cli("verify", "sharpness", "--op", "bernardi", "--gamma", "0", "--r", "0.62")
    assert proc.returncode == 1


@pytest.mark.parametrize("check, r", [("sharpness", "0.55"), ("remainder-order", "0.4")])
@pytest.mark.parametrize("beta", ["5", "-3"])
def test_verify_cesaro_rejects_beta(cli, check, r, beta):
    # --op cesaro ignored --beta, even a negative one, and passed.
    proc = cli("verify", check, "--op", "cesaro", "--gamma", "0", "--r", r, "--beta", beta)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "cesaro takes no --beta" in proc.stderr


def test_verify_sharpness_bernardi(cli):
    proc = cli("verify", "sharpness", "--op", "bernardi", "--gamma", "0", "--beta", "1",
               "--r", "0.62")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["pass"] is True
    assert doc["report"]["witness_found"] is True
    below = cli("verify", "sharpness", "--op", "bernardi", "--gamma", "0", "--beta", "1",
                "--r", "0.5")
    assert below.returncode == 2
    assert "sharpness scan needs r > radius" in below.stderr


@pytest.mark.parametrize("op, r", [(("cesaro",), "0.533589233919995"),
                                   (("bernardi", "--beta", "1"), "0.5828116438658115")])
def test_verify_sharpness_one_ulp_above_radius_is_domain_error(cli, op, r):
    # r is one ulp above the reported radius, inside its 1e-12 bracket: the
    # scan found no witness there and exited 5, an assertion failure.
    proc = cli("verify", "sharpness", "--op", *op, "--gamma", "0", "--r", r)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "not certifiably positive" in proc.stderr


@pytest.mark.parametrize("op", [("cesaro",), ("bernardi", "--beta", "1")])
@pytest.mark.parametrize("r", ["1.0", "1.5", "nan"])
def test_verify_sharpness_rejects_r_outside_unit_interval(cli, op, r):
    # The Cesaro scan exited 1 with "math domain error" (r >= 1) or "cannot
    # convert float NaN to integer" (r = nan).
    proc = cli("verify", "sharpness", "--op", *op, "--gamma", "0", "--r", r)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "r must lie in (0, 1)" in proc.stderr


def test_verify_remainder_order_pass_and_assertion_failure(cli):
    ok = cli("verify", "remainder-order", "--op", "cesaro", "--gamma", "0.3",
             "--r", "0.4")
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["pass"] is True
    bernardi = cli("verify", "remainder-order", "--op", "bernardi", "--gamma",
                   "0.2", "--beta", "1", "--r", "0.3")
    assert bernardi.returncode == 0
    assert json.loads(bernardi.stdout)["pass"] is True
    # At a subnormal r the summed Bernardi remainder exited 1 with "math
    # domain error": the log of its underflowed truncation goal.
    tiny = cli("verify", "remainder-order", "--op", "bernardi", "--gamma", "0.3",
               "--beta", "1", "--r", "1e-310")
    assert tiny.returncode == 0
    assert json.loads(tiny.stdout)["pass"] is True
    # A ladder far from a -> 1 lies outside the asymptotic regime of the
    # quadratic remainder, so the slope assertion genuinely fails there.
    red = cli("verify", "remainder-order", "--op", "bernardi", "--gamma", "0.3",
              "--beta", "1", "--r", "0.95", "--a-list", "0.4,0.5,0.6")
    assert red.returncode == 5
    doc = json.loads(red.stdout)
    assert doc["pass"] is False
    low, high = doc["expected_range"]
    assert not low <= doc["slope"] <= high


@pytest.mark.parametrize("beta", ["inf", "nan"])
def test_verify_remainder_order_rejects_non_finite_beta(cli, beta):
    proc = cli("verify", "remainder-order", "--op", "bernardi", "--gamma", "0.2",
               "--beta", beta, "--r", "0.3")
    assert proc.returncode == 2
    assert "beta must be a positive real" in proc.stderr


@pytest.mark.parametrize("check", ["sharpness", "remainder-order"])
def test_verify_empty_a_list_is_validation_error(cli, check):
    # An empty ladder checked no a at all: sharpness reported exit 5 and
    # remainder-order exit 3.
    proc = cli("verify", check, "--op", "cesaro", "--gamma", "0", "--r", "0.55",
               "--a-list", ",")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "--a-list must list at least one number" in proc.stderr


@pytest.mark.parametrize("gamma, order", [("0.4", "0"), ("0.5", "-1")])
def test_verify_lemma1_rejects_order_below_one(cli, gamma, order):
    # Order 0 skipped every sample and still passed.
    proc = cli("verify", "lemma1", "--gamma", gamma, "--samples", "5", "--seed", "1",
               "--order", order)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "output order must be >= 1" in proc.stderr


def test_verify_lemma1_rejects_negative_seed(cli):
    # numpy's "expected non-negative integer" exited 1 and named no flag.
    proc = cli("verify", "lemma1", "--gamma", "0.4", "--samples", "3", "--seed", "-1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "seed must be a nonnegative integer, got -1" in proc.stderr


@pytest.mark.parametrize("seed", ["1", "2", "3"])
def test_verify_lemma1_rejects_degree_max_above_sixteen(cli, seed):
    # Seed 1 passed; seeds 2 and 3 exited 2 naming a sample's degree, 17.
    proc = cli("verify", "lemma1", "--gamma", "0.4", "--samples", "1", "--seed", seed,
               "--degree-max", "20")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "degree_max must lie in [0, 16], got 20" in proc.stderr


def test_verify_remainder_order_deep_ladder(cli):
    # 1-a = 1e-7 and 1e-8: the closed-form remainders stay certified there,
    # so both points enter the fit.
    proc = cli("verify", "remainder-order", "--op", "cesaro", "--gamma", "0.3",
               "--r", "0.4", "--a-list", "0.9999999,0.99999999")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["pass"] is True
    assert 1.8 <= doc["slope"] <= 2.2


# ----------------------------------------------------------------- table

def test_table_paper_constants(cli):
    proc = cli("table", "paper-constants")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["quantity", "computed", "reference"]
    body = "\n".join(lines[1:])
    assert "0.333333" in body and "1/3" in body
    assert "0.533589" in body and "0.5335" in body
    assert "0.474278" in body


def test_table_theorem_grids(cli):
    t1 = cli("table", "theorem1")
    assert t1.returncode == 0
    assert len(t1.stdout.splitlines()) == 11
    t2 = cli("table", "theorem2")
    assert t2.returncode == 0
    assert len(t2.stdout.splitlines()) == 13


# Frozen stdout of the three tables and of two classic sweeps: every table row
# and every classic radius is solved through the same path as `radius`, and
# must print these bytes.  The second sweep's CSV holds a negative field and
# a residual in exponent form, as the csv module wrote them.
GOLDEN_STDOUT = {
    ('table', 'theorem1'): (
        'gamma  radius    residual\n'
        '0.00   0.533589  0.0e+00\n'
        '0.10   0.559874  0.0e+00\n'
        '0.20   0.583723  0.0e+00\n'
        '0.30   0.605442  0.0e+00\n'
        '0.40   0.625288  2.2e-16\n'
        '0.50   0.643479  0.0e+00\n'
        '0.60   0.660203  2.2e-16\n'
        '0.70   0.675620  0.0e+00\n'
        '0.80   0.689869  0.0e+00\n'
        '0.90   0.703072  0.0e+00\n'
    ),
    ('table', 'theorem2'): (
        'gamma  beta  radius    residual\n'
        '0.00   1.0   0.582812  0.0e+00\n'
        '0.00   2.0   0.474278  0.0e+00\n'
        '0.00   5.0   0.394909  0.0e+00\n'
        '0.25   1.0   0.655129  0.0e+00\n'
        '0.25   2.0   0.541327  5.6e-17\n'
        '0.25   5.0   0.454381  2.8e-17\n'
        '0.50   1.0   0.712698  0.0e+00\n'
        '0.50   2.0   0.597090  1.1e-16\n'
        '0.50   5.0   0.504946  2.8e-17\n'
        '0.75   1.0   0.759073  0.0e+00\n'
        '0.75   2.0   0.643984  1.1e-16\n'
        '0.75   5.0   0.548411  2.8e-17\n'
    ),
    ('table', 'paper-constants'): (
        'quantity                     computed  reference\n'
        'bohr gamma=0                 0.333333  1/3\n'
        'cesaro gamma=0               0.533589  0.5335\n'
        'bernardi-classic beta=1 m=1  0.474278  -\n'
    ),
    ('sweep', '--op', 'bernardi-classic', '--parameter', 'beta', '--grid', '0.5,1,2,5,50',
     '--m', '2'): (
        'beta,radius,residual,iterations\n'
        '0.5,0.4492155939293902,0,3\n'
        '1,0.43177179173199198,0,3\n'
        '2,0.40906195499102077,5.5511151231257827e-17,3\n'
        '5,0.37819655441432271,2.7755575615628914e-17,3\n'
        '50,0.33968416165501475,0,3\n'
    ),
    ('sweep', '--op', 'bernardi-classic', '--parameter', 'beta', '--grid=-0.5,1e9', '--m', '1'): (
        'beta,radius,residual,iterations\n'
        '-0.5,0.73712464966759828,4.4408920985006262e-16,3\n'
        '1000000000,0.33333333366665979,3.0812477817600281e-23,9\n'
    ),
}


def _golden_id(argv):
    """The command's first two words, and an inline ``--grid=``, which tells
    the two sweeps apart."""
    return " ".join([*argv[:2], *(arg for arg in argv if arg.startswith("--grid="))])


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT), ids=_golden_id)
def test_tables_and_classic_sweep_print_frozen_stdout(cli, argv):
    proc = cli(*argv)
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_STDOUT[argv]


def test_table_unknown_name_exit_one(cli):
    proc = cli("table", "nosuch")
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


# The README's radius, sweep, table and Cesaro verify examples, and --version.
NUMPY_FREE_COMMANDS = [
    ["--version"],
    ["radius", "cesaro", "--gamma", "0"],
    ["radius", "bernardi", "--gamma", "0.5", "--beta", "2"],
    ["radius", "bernardi-classic", "--beta", "1", "--m", "1"],
    ["sweep", "--op", "cesaro", "--parameter", "gamma", "--grid", "0,0.1,0.2,0.3,0.4,0.5"],
    ["sweep", "--op", "bernardi", "--parameter", "beta", "--grid", "1,2,5",
     "--gamma", "0.2", "--format", "json"],
    ["table", "paper-constants"],
    ["table", "theorem1"],
    ["table", "theorem2"],
    ["verify", "identities"],
    ["verify", "sharpness", "--op", "cesaro", "--gamma", "0", "--r", "0.55"],
    ["verify", "remainder-order", "--op", "cesaro", "--gamma", "0.3", "--r", "0.4"],
]
# Modules the commands above must not load: numpy, dataclasses with the
# inspect it pulls in, typing, and csv (sweep joins its fields itself).  The
# interpreter's own start may load some of them (site loads typing on some
# installs), so only new ones count.
HEAVY_MODULES = ["numpy", "dataclasses", "inspect", "typing", "csv"]
COLD_SESSION = """
import contextlib, io, json, sys
before = set(sys.modules)
from bohrkit.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
loaded = sorted(set(sys.modules) - before)
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(["verify", "lemma1", "--gamma", "0.4", "--samples", "10", "--seed", "7"])
print(json.dumps([codes, loaded, code, json.loads(out.getvalue())["pass"]]))
"""


def test_radius_sweep_table_and_version_import_no_numpy():
    # One fresh interpreter runs the commands in turn; verify lemma1, whose
    # sampler imports numpy on first use, still works after them.  The three
    # verify commands loaded numpy and dataclasses through the module that
    # also held the Lemma-1 suite.
    proc = subprocess.run([sys.executable, "-c", COLD_SESSION,
                           json.dumps(NUMPY_FREE_COMMANDS)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, loaded, code, passed = json.loads(proc.stdout)
    assert codes == [0] * len(NUMPY_FREE_COMMANDS)
    assert [name for name in HEAVY_MODULES if name in loaded] == []
    assert code == 0 and passed


def test_bernardi_params_import_no_numpy():
    # BernardiParams lived in operators, beside the numpy transforms, and was
    # a dataclass.
    code = ("import sys\nbefore = set(sys.modules)\nimport bohrkit\n"
            "bohrkit.BernardiParams(1.0, 1)\nprint(' '.join(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert [name for name in HEAVY_MODULES if name in proc.stdout.split()] == []


def test_package_exports_resolve_lazily():
    import bohrkit
    import bohrkit.operators

    for name in bohrkit.__all__:
        assert getattr(bohrkit, name) is not None, name
    assert set(bohrkit.__all__) <= set(dir(bohrkit))
    namespace = {}
    exec("from bohrkit import *", namespace)
    assert set(bohrkit.__all__) <= set(namespace)
    assert bohrkit.lerch_tail_sum is bohrkit.operators.lerch_tail_sum
    assert bohrkit.series is sys.modules["bohrkit.series"]
    with pytest.raises(AttributeError):
        bohrkit.no_such_name


@pytest.mark.parametrize("argv", [
    ("sweep", "--op", "bernardi", "--parameter", "beta", "--grid", "1,2,5",
     "--gamma", "0.2", "--format", "json"),
    ("verify", "lemma1", "--gamma", "0.4", "--samples", "100", "--seed", "7"),
])
def test_subprocess_and_main_print_the_same_stdout(cli, argv):
    cold = run_cli(*argv)
    warm = cli(*argv)
    assert cold.returncode == warm.returncode == 0
    assert cold.stdout == warm.stdout


@pytest.mark.parametrize("check", ["sharpness", "remainder-order"])
def test_verify_bernardi_remainder_above_order_cap_exits_three(cli, check):
    # Away from r = 1 the Bernardi remainder sums an array whose length grows
    # with beta; for beta above about 560 it passes twice the order cap.
    proc = cli("verify", check, "--op", "bernardi", "--gamma", "0", "--beta", "1000",
               "--r", "0.9992")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "needs 45112 terms, above the order cap 40000" in proc.stderr


def test_verify_lemma1_order_above_composition_cap_exits_three(cli):
    # The composition matrix was allocated first (about 75 GiB) and the
    # call died with an uncaught ArrayMemoryError.
    proc = cli("verify", "lemma1", "--gamma", "0.4", "--samples", "1", "--seed", "1",
               "--order", "100000")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "above the cap 20000" in proc.stderr
