"""Command-line front end: radii, parameter sweeps, verification suites, tables.

Output is machine readable: single JSON documents for radius and verify
commands, CSV (RFC-4180) or JSON arrays for sweeps, plain aligned text for
the convenience tables.  Exit codes: 0 success, 1 usage/validation error,
2 domain error, 3 numerical failure (every NumericalError), 4 unwritable
output, 5 verification assertion failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from . import __version__
from .errors import DomainError, NumericalError, PreconditionError
from .lerch import DomainGamma
from .radii import (DEFAULT_TOL, UNIT_DISK, RadiusResult, bernardi_radius,
                    bernardi_radius_classic, bohr_radius_omega, cesaro_radius)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_NUMERIC = 3
EXIT_OUTPUT = 4
EXIT_ASSERTION = 5

LEMMA1_TOL = 1e-9
IDENTITY_TOL = 1e-10
SLOPE_RANGE = (1.8, 2.2)
DEFAULT_WITNESS_LADDER = (0.99, 0.999, 0.9999)
DEFAULT_ORDER_LADDER = (0.9, 0.99, 0.999, 0.9999)
# The parameters of each radius equation, in the order its solver takes them.
EQUATIONS = {"cesaro": ("gamma",), "bernardi": ("gamma", "beta"),
             "bernardi-classic": ("beta", "m")}
# Each table's rows as (equation, parameters) points for _solve; the theorem
# tables print their parameters in these formats.
TABLES = {
    "theorem1": [("cesaro", {"gamma": round(0.1 * k, 1)}) for k in range(10)],
    "theorem2": [("bernardi", {"gamma": g, "beta": b})
                 for g in (0.0, 0.25, 0.5, 0.75) for b in (1.0, 2.0, 5.0)],
    "paper-constants": [("cesaro", {"gamma": 0.0}), ("bernardi-classic", {"beta": 1.0, "m": 1})],
}
PARAMETER_FORMATS = {"gamma": ".2f", "beta": ".1f"}


def _emit(text: str, path: str | None) -> bool:
    """Write ``text`` to ``path``, or to stdout if None; False, after an
    error line on stderr, if the file cannot be written."""
    if path is None:
        sys.stdout.write(text)
        return True
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _json_doc(payload) -> str:
    return json.dumps(payload, sort_keys=True) + "\n"


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag} expects a comma-separated list of numbers, got {text!r}")
    if not values:
        raise ValueError(f"{flag} must list at least one number")
    return values


def _fixed(args, equation: str, swept: str | None = None) -> dict:
    """The flags of the parameters that ``equation`` holds fixed, all of
    ``EQUATIONS[equation]`` but the swept one (bernardi-classic's m defaults
    to 0).  A flag the equation would ignore, or a missing one, is a usage
    error; the library checks each value's domain."""
    what = equation if swept is None else f"{equation} sweeping {swept}"
    takes = set(EQUATIONS[equation]) - {swept}
    fixed = {name: getattr(args, name) for name in ("gamma", "beta", "m")
             if getattr(args, name, None) is not None}
    if equation == "bernardi-classic":
        fixed.setdefault("m", 0)
    if extra := sorted(set(fixed) - takes):
        raise ValueError(f"{what} takes no " + ", ".join(f"--{name}" for name in extra))
    if missing := sorted(takes - set(fixed)):
        raise ValueError(f"{what} needs " + ", ".join(f"--{name}" for name in missing))
    return fixed


def _solve(equation: str, fixed: dict, tol: float) -> RadiusResult:
    if equation == "cesaro":
        return cesaro_radius(DomainGamma(fixed["gamma"]), tol)
    if equation == "bernardi":
        return bernardi_radius(DomainGamma(fixed["gamma"]), fixed["beta"], tol)
    return bernardi_radius_classic(fixed["beta"], fixed["m"], tol)


def _solve_rows(points: list, tol: float) -> tuple[list[RadiusResult], int]:
    """Solve each ``(equation, parameters)`` point at ``tol``.  The code is
    EXIT_NUMERIC, after one error line per row whose certified bracket is
    wider than ``tol``, if there is such a row, else EXIT_OK."""
    results = [_solve(equation, fixed, tol) for equation, fixed in points]
    for (equation, fixed), res in zip(points, results):
        if not res.converged:
            names = ", ".join(f"{name}={fixed[name]!r}" for name in EQUATIONS[equation])
            print(f"error: the {equation} radius at {names} is not converged: its "
                  f"certified bracket is wider than tol={tol!r}", file=sys.stderr)
    return results, EXIT_OK if all(res.converged for res in results) else EXIT_NUMERIC


def _cmd_radius(args) -> tuple[str, int]:
    fixed = _fixed(args, args.equation)
    result = _solve(args.equation, fixed, args.tol)
    doc = {
        "equation": args.equation,
        "parameters": {**fixed, "tol": args.tol},
        "radius": result.value,
        "residual": result.residual,
        "iterations": result.iterations,
        "evaluations": result.evaluations,
        "converged": result.converged,
        "version": __version__,
    }
    return _json_doc(doc), EXIT_OK if result.converged else EXIT_NUMERIC


def _cmd_sweep(args) -> tuple[str, int]:
    grid = _parse_float_list(args.grid, "--grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("sweep grid must be strictly increasing")
    parameter = args.parameter
    if parameter not in EQUATIONS[args.equation]:
        raise ValueError(f"{args.equation} has no parameter {parameter!r}")
    fixed = _fixed(args, args.equation, parameter)
    solved, code = _solve_rows([(args.equation, {**fixed, parameter: v}) for v in grid],
                               args.tol)
    results = list(zip(grid, solved))
    if args.format == "json":
        return _json_doc([{parameter: v, "radius": res.value, "residual": res.residual,
                           "iterations": res.iterations} for v, res in results]), code
    # No CSV field needs quoting: fixed names, numbers in .17g and integers.
    lines = [f"{parameter},radius,residual,iterations"]
    lines += [f"{v:.17g},{res.value:.17g},{res.residual:.17g},{res.iterations}"
              for v, res in results]
    return "\n".join(lines) + "\n", code


def _cmd_verify(args) -> tuple[str, int]:
    # Each branch imports its suite's module on first use: only lemma1's, the
    # sampler in series, needs numpy, and radius, sweep and table need neither.
    doc = {"check": args.check}
    if args.check == "lemma1":
        from .series import lemma1_check
        report = lemma1_check(DomainGamma(args.gamma), args.samples,
                              args.degree_max, args.order, args.seed)
        ok = report.max_ratio <= 1.0 + LEMMA1_TOL
        doc.update(parameters={"gamma": args.gamma, "samples": args.samples,
                               "degree_max": args.degree_max, "order": args.order,
                               "seed": args.seed},
                   report=report.as_dict(), tolerance=LEMMA1_TOL)
    elif args.check == "identities":
        from .extremal import identity_suite
        report = identity_suite()
        ok = report["max_deviation"] <= IDENTITY_TOL
        doc.update(report=report, tolerance=IDENTITY_TOL)
    else:  # sharpness, remainder-order
        from . import extremal
        ladder = tuple(_parse_float_list(args.a_list, "--a-list"))
        _fixed(args, args.op)
        gamma = DomainGamma(args.gamma)
        doc["parameters"] = {"op": args.op, "gamma": args.gamma, "beta": args.beta,
                             "r": args.r, "a_list": list(ladder)}
        if args.check == "remainder-order":
            slope = extremal.remainder_order_check(args.op, gamma, args.r, ladder, beta=args.beta)
            ok = SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]
            doc.update(slope=slope, expected_range=list(SLOPE_RANGE))
        else:
            if args.op == "cesaro":
                report = extremal.sharpness_scan_cesaro(gamma, args.r, ladder)
            else:
                report = extremal.sharpness_scan_bernardi(gamma, args.beta, args.r, ladder)
            ok = report.witness_found
            doc["report"] = report.as_dict()
    doc.update({"pass": ok, "version": __version__})
    return _json_doc(doc), EXIT_OK if ok else EXIT_ASSERTION


def _format_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _cmd_table(args) -> tuple[str, int]:
    points = TABLES[args.name]
    results, code = _solve_rows(points, DEFAULT_TOL)
    if args.name == "paper-constants":
        headers = ["quantity", "computed", "reference"]
        rows = [["bohr gamma=0", f"{bohr_radius_omega(UNIT_DISK):.6f}", "1/3"]]
        for (equation, fixed), res, reference in zip(points, results, ("0.5335", "-")):
            label = " ".join([equation, *(f"{k}={v:g}" for k, v in fixed.items())])
            rows.append([label, f"{res.value:.6f}", reference])
    else:
        headers = [*points[0][1], "radius", "residual"]
        rows = [[*(f"{v:{PARAMETER_FORMATS[k]}}" for k, v in fixed.items()),
                 f"{res.value:.6f}", f"{res.residual:.1e}"]
                for (_, fixed), res in zip(points, results)]
    return _format_table(headers, rows), code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bohrkit", description="Bohr-type radii for the Cesaro and Bernardi "
                                    "integral operators on the disks Omega_gamma")
    parser.add_argument("--version", action="version", version=f"bohrkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    radius = sub.add_parser("radius", help="solve one radius equation")
    radius_sub = radius.add_subparsers(dest="equation", required=True)
    for equation, names in EQUATIONS.items():
        p = radius_sub.add_parser(equation)
        for name in names:
            p.add_argument(f"--{name}", type=int if name == "m" else float, required=True)
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        p.add_argument("--out", default=None)
        p.set_defaults(handler=_cmd_radius)

    sweep = sub.add_parser("sweep", help="tabulate a radius over a parameter grid")
    sweep.add_argument("--op", dest="equation", required=True, choices=list(EQUATIONS))
    sweep.add_argument("--parameter", required=True, choices=["gamma", "beta"])
    sweep.add_argument("--grid", required=True,
                       help="comma-separated strictly increasing values")
    sweep.add_argument("--gamma", type=float, default=None)
    sweep.add_argument("--beta", type=float, default=None)
    sweep.add_argument("--m", type=int, default=None)  # bernardi-classic: 0
    sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    sweep.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(handler=_cmd_sweep)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify_sub = verify.add_subparsers(dest="check", required=True)
    p = verify_sub.add_parser("lemma1")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--degree-max", dest="degree_max", type=int, default=8)
    p.add_argument("--order", type=int, default=64)
    for check, ladder in (("sharpness", DEFAULT_WITNESS_LADDER),
                          ("remainder-order", DEFAULT_ORDER_LADDER)):
        p = verify_sub.add_parser(check)
        p.add_argument("--op", required=True, choices=["cesaro", "bernardi"])
        p.add_argument("--gamma", type=float, required=True)
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--r", type=float, required=True)
        p.add_argument("--a-list", dest="a_list", default=",".join(map(str, ladder)))
    verify_sub.add_parser("identities")
    for p in verify_sub.choices.values():
        p.add_argument("--out", default=None)
        p.set_defaults(handler=_cmd_verify)

    table = sub.add_parser("table", help="print a reproduction table")
    table.add_argument("name", choices=["theorem1", "theorem2", "paper-constants"])
    table.add_argument("--out", default=None)
    table.set_defaults(handler=_cmd_table)
    return parser


def _run(args) -> int:
    """Run the chosen command, write its output to ``--out`` or stdout, and
    return the command's exit code, or EXIT_OUTPUT if the file cannot be
    written.  Each warning the command raises prints after the write as one
    ``warning: <message>`` line on stderr, before the error line of any
    exception, without the file path and source line of Python's own
    format.  The filters in force still decide which warnings show."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            text, code = args.handler(args)
            return code if _emit(text, args.out) else EXIT_OUTPUT
        finally:
            for caught_warning in caught:
                print(f"warning: {caught_warning.message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help and --version exit 0, a usage error 2
        return EXIT_USAGE if exc.code == 2 else exc.code
    try:
        return _run(args)
    except ValueError as exc:
        # DomainError and PreconditionError subclass ValueError.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN if isinstance(exc, (DomainError, PreconditionError)) else EXIT_USAGE
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
