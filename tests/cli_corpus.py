"""The CLI behaviour corpus runner.

``cli_corpus.json`` pins what ``bohrkit`` does for a list of invocations.
Each entry holds an ``argv``, the ``exit`` code, the ``stdout`` and
``stderr`` text, whether ``numpy`` may load, and a one-line ``why``.  The
runner runs every entry through ``bohrkit.cli.main`` in process, with both
streams captured.  Then one fresh interpreter runs the numpy-free entries in
order, and after each one checks that none of HEAVY_MODULES has loaded that
was not loaded at its start.

Exit code and stderr are compared exactly.  Stdout is compared byte for byte
for an entry that loads no numpy.  For one that does, only its JSON keys and
its ``pass`` are compared: numpy's SIMD loops may round a few ulp apart on
different CPUs, so its digits are not pinned.  So mark an entry ``numpy``
only if it loads numpy.

Run ``python tests/cli_corpus.py`` (standard library only, no pytest); the
Tier-1 suite runs the same checks through ``tests/test_cli.py``.  For each
mismatch it prints the entry as the current tree produces it, in the file's
format, ready to paste into ``cli_corpus.json`` when the change is intended.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings

from bohrkit import cli

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "cli_corpus.json")
FIELDS = ("why", "argv", "numpy", "exit", "stdout", "stderr")
# Modules a numpy-free entry must not load: numpy, dataclasses with the
# inspect it pulls in, typing, and csv (sweep joins its fields itself).  The
# interpreter's own start may load some of them (site loads typing on some
# installs), so only new ones count.
HEAVY_MODULES = ("numpy", "dataclasses", "inspect", "typing", "csv")
# argparse wraps its usage text to the terminal width, which it reads here.
COLUMNS = "80"


def load() -> list:
    with open(CORPUS, encoding="utf-8") as fh:
        return json.load(fh)


def format_entry(entry: dict) -> str:
    """One entry as the corpus file writes it."""
    fields = (f"{json.dumps(key)}: {json.dumps(entry[key], ensure_ascii=False)}"
              for key in FIELDS)
    return "  {" + ",\n   ".join(fields) + "}"


def _interpreter_warning_filters() -> None:
    """Install the warning filters a release-build interpreter starts with,
    so that the caller's filters (pytest's, say) cannot change which
    ``warning:`` lines print."""
    warnings.resetwarnings()
    warnings.filterwarnings("default", category=DeprecationWarning, module="__main__")
    for category in (DeprecationWarning, PendingDeprecationWarning, ImportWarning,
                     ResourceWarning):
        warnings.simplefilter("ignore", category, append=True)


def run(argv: list) -> dict:
    """Run ``bohrkit.cli.main(argv)`` in process and return its ``exit``, ``stdout`` and
    ``stderr`` as a cold process with COLUMNS at 80 prints them."""
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = COLUMNS
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            _interpreter_warning_filters()
            code = cli.main(list(argv))
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _compared_stdout(entry: dict, stdout: str):
    """What of ``stdout`` the entry pins: all of it, or for a numpy entry
    the key tree of its JSON document and its ``pass``."""
    if not entry["numpy"]:
        return stdout
    try:
        doc = json.loads(stdout)
    except ValueError:
        return stdout

    def keys(value):
        return {k: keys(v) for k, v in value.items()} if isinstance(value, dict) else None
    return keys(doc), doc.get("pass")


def mismatch(entry: dict, got: dict, heavy=()) -> str | None:
    """None if ``got`` matches ``entry`` and no heavy module loaded; else a
    report naming what differs, then the entry as ``got`` has it."""
    differ = [field for field in ("exit", "stderr") if got[field] != entry[field]]
    if _compared_stdout(entry, got["stdout"]) != _compared_stdout(entry, entry["stdout"]):
        differ.append("stdout")
    problems = [", ".join(differ) + " differ"] if differ else []
    if heavy:
        problems.append("loaded " + ", ".join(heavy))
    if not problems:
        return None
    return f"{' '.join(entry['argv'])}: {'; '.join(problems)}\n{format_entry({**entry, **got})}"


def check_in_process(entry: dict) -> str | None:
    return mismatch(entry, run(entry["argv"]))


def _cold_child(before: set) -> None:
    """Run each argv read from stdin in turn, and print per argv what it
    printed and the heavy modules loaded since ``before``."""
    results = []
    for argv in json.load(sys.stdin):
        got = run(argv)
        got["heavy"] = [name for name in HEAVY_MODULES
                        if name in sys.modules and name not in before]
        results.append(got)
    print(json.dumps(results))


def check_cold(entries: list) -> list:
    """Reports for the numpy-free ``entries``, run in order in one fresh
    interpreter that takes its module snapshot before importing bohrkit."""
    cold = [entry for entry in entries if not entry["numpy"]]
    code = ("import sys; before = set(sys.modules); "
            f"sys.path.insert(0, {HERE!r}); import cli_corpus; cli_corpus._cold_child(before)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          input=json.dumps([entry["argv"] for entry in cold]))
    if proc.returncode != 0:
        return [f"the cold session exited {proc.returncode}:\n{proc.stderr}"]
    reports = []
    for entry, got in zip(cold, json.loads(proc.stdout)):
        heavy = got.pop("heavy")
        if report := mismatch(entry, got, heavy):
            reports.append("cold session: " + report)
    return reports


def main() -> int:
    entries = load()
    reports = [report for entry in entries if (report := check_in_process(entry))]
    reports += check_cold(entries)
    for report in reports:
        print(report, end="\n\n")
    print(f"{len(entries)} entries, {len(reports)} mismatches")
    return 1 if reports else 0


if __name__ == "__main__":
    sys.exit(main())
