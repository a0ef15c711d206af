"""Spans around the calls into bohrkit's layers, recorded from outside the program.

The modules import each other's names directly (``from .series import
sample_schur_omega``), so a wrapper replaces the name in the namespace of the
module that calls it.  Spans (name, start, end, parent, phase, tag, ok,
iterations) are kept in memory and written out as JSON lines when the run
ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time

# (consuming module, attribute, span name).  The module "bohrkit" is the
# public namespace the benchmark's own ops call through.
WRAPPED = (
    ("bohrkit", "cesaro_radius", "radii.cesaro_radius"),
    ("bohrkit", "bernardi_radius", "radii.bernardi_radius"),
    ("bohrkit", "bernardi_radius_classic", "radii.bernardi_radius_classic"),
    ("bohrkit", "lemma1_check", "extremal.lemma1_check"),
    ("bohrkit", "sharpness_scan_cesaro", "extremal.sharpness_scan_cesaro"),
    ("bohrkit", "sharpness_scan_bernardi", "extremal.sharpness_scan_bernardi"),
    ("bohrkit", "remainder_order_check", "extremal.remainder_order_check"),
    ("bohrkit", "cesaro_extremal_decomposition", "extremal.cesaro_extremal_decomposition"),
    ("bohrkit", "bernardi_extremal_decomposition", "extremal.bernardi_extremal_decomposition"),
    ("bohrkit", "identity_suite", "extremal.identity_suite"),
    ("bohrkit.cli", "cesaro_radius", "radii.cesaro_radius"),
    ("bohrkit.cli", "bernardi_radius", "radii.bernardi_radius"),
    ("bohrkit.cli", "bernardi_radius_classic", "radii.bernardi_radius_classic"),
    ("bohrkit.cli", "lemma1_check", "extremal.lemma1_check"),
    ("bohrkit.cli", "sharpness_scan_cesaro", "extremal.sharpness_scan_cesaro"),
    ("bohrkit.cli", "sharpness_scan_bernardi", "extremal.sharpness_scan_bernardi"),
    ("bohrkit.cli", "remainder_order_check", "extremal.remainder_order_check"),
    ("bohrkit.cli", "identity_suite", "extremal.identity_suite"),
    ("bohrkit.radii", "lerch_tail_sum", "operators.lerch_tail_sum"),
    ("bohrkit.extremal", "cesaro_radius", "radii.cesaro_radius"),
    ("bohrkit.extremal", "bernardi_radius", "radii.bernardi_radius"),
    ("bohrkit.extremal", "sample_schur_omega", "series.sample_schur_omega"),
    ("bohrkit.extremal", "cesaro_majorant", "operators.cesaro_majorant"),
    ("bohrkit.extremal", "bernardi_majorant", "operators.bernardi_majorant"),
    ("bohrkit.extremal", "lerch_tail_sum", "operators.lerch_tail_sum"),
    ("bohrkit.extremal", "extremal_coeffs", "extremal.extremal_coeffs"),
    ("bohrkit.extremal", "cesaro_extremal_decomposition", "extremal.cesaro_extremal_decomposition"),
    ("bohrkit.extremal", "bernardi_extremal_decomposition",
     "extremal.bernardi_extremal_decomposition"),
    ("bohrkit.series", "blaschke_coeffs", "series.blaschke_coeffs"),
    ("bohrkit.series", "affine_compose", "series.affine_compose"),
    ("bohrkit.series", "compose_input_order", "series.compose_input_order"),
)
TPS_INIT = "series.TruncatedPowerSeries.init"
RADIUS_SPANS = ("radii.cesaro_radius", "radii.bernardi_radius", "radii.bernardi_radius_classic")
SCAN_SPANS = ("extremal.sharpness_scan_cesaro", "extremal.sharpness_scan_bernardi")


def _tag(name, args):
    """Small per-call detail the layer metrics need, or None."""
    if name == "radii.bernardi_radius":
        return {"beta": args[1]}
    if name == "series.sample_schur_omega":
        return {"gamma": args[0].gamma.gamma}
    if name == "series.blaschke_coeffs":
        return {"order": args[2]}
    if name == "extremal.lemma1_check":
        return {"samples": args[1]}
    return None


class Tracer:
    """Records one span per wrapped call; `phase` labels the spans that follow."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.phase = "setup"
        self._restore = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok, result = False, None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                iterations = getattr(result, "iterations", None) if ok else None
                spans[index] = [name, start, end, parent, self.phase,
                                _tag(name, args), ok, iterations]

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every name in WRAPPED, and TruncatedPowerSeries.__init__.

        A name the program no longer has is skipped, so a change that deletes
        a function (say compose_input_order) still gets a traced run; the
        metrics built from its spans then read 0.
        """
        for module_name, attr, span in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(span, original))
        series = importlib.import_module("bohrkit.series")
        cls = series.TruncatedPowerSeries
        self._restore.append((cls, "__init__", cls.__init__))
        cls.__init__ = self.wrap(TPS_INIT, cls.__init__)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _ms(span):
    return (span[2] - span[1]) / 1e6


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of the radii, operators, series and extremal layers.

    Spans are lists [name, start_ns, end_ns, parent, phase, tag, ok,
    iterations].  Timing metrics use successful calls only; the phase tells
    which workload round (or the warm-up) a span belongs to.  Self time is a
    span's duration minus that of its direct children, which run one after
    another on one thread.
    """
    child_ms = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_ms[span[3]] += _ms(span)

    def select(name, phase):
        """Successful spans of one name in one phase."""
        return [i for i, s in enumerate(spans) if s[0] == name and s[4] == phase and s[6]]

    def ancestors(i):
        while spans[i][3] >= 0:
            i = spans[i][3]
            yield i

    def under(names, phase, root_names):
        """(span, root) pairs: successful spans named in `names` and their
        nearest ancestor named in `root_names`, if that call succeeded."""
        out = []
        for i, s in enumerate(spans):
            if s[0] in names and s[4] == phase and s[6]:
                for j in ancestors(i):
                    if spans[j][0] in root_names:
                        if spans[j][6]:
                            out.append((i, j))
                        break
        return out

    m = {}
    # radii / operators, from one radius_grid round.
    ph = "radius_grid"
    m["radii.cesaro_radius.ms_per_call"] = _mean(
        [_ms(spans[i]) for i in select("radii.cesaro_radius", ph)])
    bern = select("radii.bernardi_radius", ph)
    m["radii.bernardi_radius.ms_per_call.beta_lt_1"] = _mean(
        [_ms(spans[i]) for i in bern if spans[i][5]["beta"] < 1.0])
    m["radii.bernardi_radius.ms_per_call.beta_ge_1"] = _mean(
        [_ms(spans[i]) for i in bern if spans[i][5]["beta"] >= 1.0])
    m["radii.bernardi_radius_classic.ms_per_call"] = _mean(
        [_ms(spans[i]) for i in select("radii.bernardi_radius_classic", ph)])
    m["radii.bernardi_radius.self_ms_per_call"] = _mean(
        [_ms(spans[i]) - child_ms[i] for i in bern])
    solves = [i for name in RADIUS_SPANS for i in select(name, ph)]
    m["radii.iterations_per_solve"] = _mean([spans[i][7] for i in solves])
    tail_solves = bern + select("radii.bernardi_radius_classic", ph)
    lerch = under(("operators.lerch_tail_sum",), ph, RADIUS_SPANS)
    m["operators.lerch_tail_sum.calls_per_solve"] = len(lerch) / max(1, len(tail_solves))
    m["operators.lerch_tail_sum.ms_per_call"] = _mean([_ms(spans[i]) for i, _ in lerch])

    # series, from one lemma1_sampling round.
    ph = "lemma1_sampling"
    samples = select("series.sample_schur_omega", ph)
    for g, label in ((0.0, "gamma_0"), (0.4, "gamma_0_4"), (0.9, "gamma_0_9")):
        m[f"series.sample_schur_omega.ms_per_call.{label}"] = _mean(
            [_ms(spans[i]) for i in samples if spans[i][5]["gamma"] == g])
    blaschke = select("series.blaschke_coeffs", ph)
    m["series.blaschke_coeffs.ms_per_call"] = _mean([_ms(spans[i]) for i in blaschke])
    m["series.blaschke_coeffs.order"] = _mean([spans[i][5]["order"] for i in blaschke])
    m["series.affine_compose.ms_per_call"] = _mean(
        [_ms(spans[i]) for i in select("series.affine_compose", ph)])
    # The warm-up draws one sample per gamma, so each compose_input_order
    # call there is the first for its gamma and fills its cache: set-up cost.
    m["series.compose_input_order.first_call_ms"] = sum(
        _ms(spans[i]) for i in select("series.compose_input_order", "warmup:lemma1_sampling"))
    inits = select(TPS_INIT, ph)
    m["series.TruncatedPowerSeries.init_us"] = 1e3 * _mean([_ms(spans[i]) for i in inits])
    checks = select("extremal.lemma1_check", ph)
    n_samples = sum(spans[i][5]["samples"] for i in checks)
    lemma_inits = under((TPS_INIT,), ph, ("extremal.lemma1_check",))
    m["series.TruncatedPowerSeries.inits_per_sample"] = len(lemma_inits) / max(1, n_samples)
    m["extremal.lemma1_check.self_ms_per_sample"] = (
        sum(_ms(spans[i]) - child_ms[i] for i in checks) / max(1, n_samples))

    # extremal, from one extremal_checks round.
    ph = "extremal_checks"
    for kind in ("cesaro", "bernardi"):
        m[f"extremal.sharpness_scan.ms_per_call.{kind}"] = _mean(
            [_ms(spans[i]) for i in select(f"extremal.sharpness_scan_{kind}", ph)])
    fits = select("extremal.remainder_order_check", ph)
    m["extremal.remainder_order_check.ms_per_call"] = _mean([_ms(spans[i]) for i in fits])
    for kind in ("cesaro", "bernardi"):
        m[f"extremal.decomposition.ms_per_call.{kind}"] = _mean(
            [_ms(spans[i]) for i in select(f"extremal.{kind}_extremal_decomposition", ph)])
    m["extremal.identity_suite.ms_per_call"] = _mean(
        [_ms(spans[i]) for i in select("extremal.identity_suite", ph)])
    coeffs = under(("extremal.extremal_coeffs",), ph, ("extremal.remainder_order_check",))
    m["extremal.extremal_coeffs.calls_per_check"] = len(coeffs) / max(1, len(fits))
    scans = [i for name in SCAN_SPANS for i in select(name, ph)]
    scan_solves = under(RADIUS_SPANS, ph, SCAN_SPANS)
    m["extremal.radius_solves_per_scan"] = len(scan_solves) / max(1, len(scans))
    m["operators.cesaro_majorant.ms_per_call"] = _mean(
        [_ms(spans[i]) for i in select("operators.cesaro_majorant", ph)])
    m["operators.bernardi_majorant.ms_per_call"] = _mean(
        [_ms(spans[i]) for i in select("operators.bernardi_majorant", ph)])
    return m

