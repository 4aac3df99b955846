"""Per-layer metric names, units and their values from a traced run.

A name is `<module>.<function>.<stat>`: `calls` counts calls, `s` is
inclusive seconds and `self_s` is `s` minus the time covered by child
spans.  `abgroups.public` and `cycles.public` sum over the public
methods and functions of those modules.  All are lower-is-better.
"""

from __future__ import annotations

_PLAIN = {"calls": "count", "s": "s", "self_s": "s"}

# (span name, stats) in the order they are reported.
_SPAN_STATS = [
    ("ideals.buchberger", ("calls", "self_s")),
    ("ideals.factor_rational", ("calls", "self_s")),
    ("ideals.split_components", ("calls", "s", "self_s")),
    ("ideals.eliminate", ("calls", "self_s")),
    ("ideals.quotient_dimension", ("calls", "self_s")),
    ("ideals.krull_dimension", ("calls", "self_s")),
    ("ideals.Ideal.normal_form", ("calls", "self_s")),
    ("ideals.saturate", ("calls", "s")),
    ("ideals.radical_member", ("calls", "s")),
    ("ideals.Ideal.groebner", ("calls",)),
    ("poly.PolyRing.parse", ("calls", "self_s")),
    ("poly.Polynomial.subs", ("calls", "self_s")),
    ("poly.Polynomial.mul", ("calls", "self_s")),
    ("abgroups.public", ("calls", "self_s")),
    ("cycles.public", ("calls", "self_s")),
    ("geom.intersect_hypersurface", ("calls", "s", "self_s")),
    ("geom.multiplicity_along", ("calls", "s", "self_s")),
    ("geom.local_multiplicity_at_point", ("calls", "s")),
    ("geom.conormal_ideal", ("calls", "s")),
    ("geom.graph_pushforward", ("calls", "s")),
    ("gecc.build_gecc", ("s",)),
    ("gecc.support_of_gecc", ("s",)),
    ("gecc.critical_locus", ("s", "self_s")),
    ("vogel.polar_support_sets", ("calls", "s", "self_s")),
    ("vogel.vogel_decompose", ("calls", "s", "self_s")),
    ("vogel.decompose_all_degrees", ("s",)),
    ("vogel.levo_cycles", ("s",)),
    ("vogel.levo_modules", ("s",)),
    ("diagnostics.essential_transversality", ("calls", "s")),
    ("diagnostics.isolating_certificate", ("s",)),
    ("diagnostics.upgrade_by_transversality", ("s",)),
    ("diagnostics.zawatsky_complex", ("s",)),
    ("diagnostics.euler_check", ("s",)),
    ("cli.parse_config", ("s",)),
    ("cli.prepare_job", ("calls", "s", "self_s")),
    ("cli.run_pipeline", ("self_s",)),
    ("cli.randomize_coordinates", ("calls",)),
    ("cli.report_to_json", ("s",)),
]

# Counters measured by the wrappers themselves.
_COUNTERS = [
    ("ideals.buchberger.distinct", "count"),
    ("ideals.buchberger.repeat_ratio", "ratio"),
    ("ideals.buchberger.basis_max", "count"),
    ("ideals.buchberger.coeff_bits_max", "bits"),
    ("ideals.factor_rational.linear_calls", "count"),
    ("ideals.split_components.distinct", "count"),
    ("trace.overhead", "ratio"),
]


def metric_units():
    """{metric name: unit} of every per-layer metric, in report order."""
    out = {}
    for span, stats in _SPAN_STATS:
        for stat in stats:
            out["%s.%s" % (span, stat)] = _PLAIN[stat]
    for name, unit in _COUNTERS:
        out[name] = unit
    return out


def _group_of(span_name):
    for prefix in ("abgroups.", "cycles."):
        if span_name.startswith(prefix):
            return prefix + "public"
    return span_name


def layer_metrics(recorder):
    """{metric name: value} from a Recorder; trace.overhead is left to
    the caller, which knows the untraced time."""
    totals = {}
    for span_name, entry in recorder.stats().items():
        acc = totals.setdefault(_group_of(span_name), {"calls": 0, "s": 0.0, "self_s": 0.0})
        for stat in acc:
            acc[stat] += entry[stat]
    out = {}
    for span, stats in _SPAN_STATS:
        entry = totals.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for stat in stats:
            out["%s.%s" % (span, stat)] = entry[stat]
    calls = totals.get("ideals.buchberger", {}).get("calls", 0)
    distinct = len(recorder.buchberger_inputs)
    out["ideals.buchberger.distinct"] = distinct
    out["ideals.buchberger.repeat_ratio"] = calls / distinct if distinct else 0.0
    out["ideals.buchberger.basis_max"] = recorder.basis_max
    out["ideals.buchberger.coeff_bits_max"] = recorder.coeff_bits_max
    out["ideals.factor_rational.linear_calls"] = recorder.linear_factor_calls
    out["ideals.split_components.distinct"] = len(recorder.split_inputs)
    return out
