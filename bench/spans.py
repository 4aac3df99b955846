"""Span recording around calls into levo's public functions.

Wrappers are installed from outside the program.  A function imported
with `from .ideals import split_components` has a separate binding in
each importing module, so every levo module namespace that holds the
original object is rebound, and every class attribute that aliases a
wrapped method (`__rmul__ = __mul__`) is rebound too.  `uninstall`
puts every original back.

Spans are kept in memory as (name, start, end, parent) and written out
at the end; per-layer statistics are derived from them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, qualified name) of every wrapped callable; `public:` entries
# expand to the public methods of a class plus the module's public
# functions.
TARGETS = [
    ("ideals", "buchberger"),
    ("ideals", "factor_rational"),
    ("ideals", "split_components"),
    ("ideals", "eliminate"),
    ("ideals", "quotient_dimension"),
    ("ideals", "krull_dimension"),
    ("ideals", "saturate"),
    ("ideals", "radical_member"),
    ("ideals", "Ideal.groebner"),
    ("ideals", "Ideal.normal_form"),
    ("poly", "PolyRing.parse"),
    ("poly", "Polynomial.subs"),
    ("poly", "Polynomial.__mul__"),
    ("abgroups", "public:AbGroup"),
    ("cycles", "public:EnrichedCycle,GradedEnrichedCycle"),
    ("geom", "intersect_hypersurface"),
    ("geom", "multiplicity_along"),
    ("geom", "local_multiplicity_at_point"),
    ("geom", "conormal_ideal"),
    ("geom", "graph_pushforward"),
    ("gecc", "build_gecc"),
    ("gecc", "support_of_gecc"),
    ("gecc", "critical_locus"),
    ("vogel", "polar_support_sets"),
    ("vogel", "vogel_decompose"),
    ("vogel", "decompose_all_degrees"),
    ("vogel", "levo_cycles"),
    ("vogel", "levo_modules"),
    ("diagnostics", "essential_transversality"),
    ("diagnostics", "isolating_certificate"),
    ("diagnostics", "upgrade_by_transversality"),
    ("diagnostics", "zawatsky_complex"),
    ("diagnostics", "euler_check"),
    ("cli", "parse_config"),
    ("cli", "prepare_job"),
    ("cli", "run_pipeline"),
    ("cli", "randomize_coordinates"),
    ("cli", "report_to_json"),
]

# Span names that differ from "<module>.<qualified name>".
_RENAME = {"poly.Polynomial.__mul__": "poly.Polynomial.mul"}


def _order_tag(key):
    cells = tuple(c.cell_contents for c in (key.__closure__ or ()))
    return getattr(key, "__qualname__", repr(key)), cells


def _terms_key(terms):
    return tuple(sorted(terms.items()))


def _coeff_bits(c):
    return max(c.numerator.bit_length(), c.denominator.bit_length())


class Recorder:
    """In-memory spans plus the counters measured at the same calls."""

    def __init__(self):
        self.names = []
        self.spans = []  # (name id, start, end, parent span index or -1)
        self.stack = []
        self.buchberger_inputs = set()
        self.basis_max = 0
        self.coeff_bits_max = 0
        self.linear_factor_calls = 0
        self.split_inputs = set()

    # -- hooks run after the wrapped call, outside its span ---------------

    def _after_buchberger(self, args, result):
        generators, key = args
        self.buchberger_inputs.add(
            (tuple(sorted(_terms_key(g) for g in generators if g)), _order_tag(key))
        )
        self.basis_max = max(self.basis_max, len(result))
        for t in result:
            for c in t.values():
                self.coeff_bits_max = max(self.coeff_bits_max, _coeff_bits(c))

    def _after_factor(self, args, result):
        if args[0].total_degree() == 1:
            self.linear_factor_calls += 1

    def _after_split(self, args, result):
        ideal = args[0]
        self.split_inputs.add(
            (ideal.ring.vars, tuple(sorted(g.canonical() for g in ideal.gens)))
        )

    def wrap(self, fn, name):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        hook = {
            "ideals.buchberger": self._after_buchberger,
            "ideals.factor_rational": self._after_factor,
            "ideals.split_components": self._after_split,
        }.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped_by_bench__ = True
        return wrapper

    # -- results ---------------------------------------------------------

    def stats(self):
        """{span name: {calls, s, self_s}}; `s` counts only the outermost
        span of a name, so recursion is not counted twice."""
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name_id, start, end, parent) in enumerate(self.spans):
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name_id:
                p = self.spans[p][3]
            if p < 0:
                entry["s"] += end - start
        return dict(out)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (name_id, start, end, parent) in enumerate(self.spans):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\n"
                         % (i, self.names[name_id], start, end, parent))


def _levo_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "levo" or name.startswith("levo.")) and m is not None]


def _expand(module, spec):
    """(owner, attribute, span name) triples for one TARGETS entry."""
    if spec.startswith("public:"):
        out = []
        for cls_name in spec[len("public:"):].split(","):
            cls = getattr(module, cls_name)
            for attr in vars(cls):
                if not attr.startswith("_") and callable(getattr(cls, attr)):
                    out.append((cls, attr, "%s.%s.%s" % (module.__name__[5:], cls_name, attr)))
        for attr, value in vars(module).items():
            if (not attr.startswith("_") and callable(value) and not isinstance(value, type)
                    and getattr(value, "__module__", None) == module.__name__):
                out.append((module, attr, "%s.%s" % (module.__name__[5:], attr)))
        return out
    owner = module
    parts = spec.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = "%s.%s" % (module.__name__[5:], spec)
    return [(owner, parts[-1], _RENAME.get(name, name))]


class Installation:
    """Wrappers installed into levo; `uninstall` restores the originals."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.saved = []  # (owner, attribute, original raw value)

    def _set(self, owner, attr, value):
        self.saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = _levo_modules()
        for mod_name, spec in TARGETS:
            module = sys.modules["levo." + mod_name]
            for owner, attr, span_name in _expand(module, spec):
                raw = vars(owner)[attr]
                if isinstance(owner, type):
                    self._wrap_class_attr(owner, attr, raw, span_name)
                else:
                    wrapper = self.recorder.wrap(raw, span_name)
                    for m in modules:
                        for other, value in list(vars(m).items()):
                            if value is raw:
                                self._set(m, other, wrapper)
        return self

    def _wrap_class_attr(self, cls, attr, raw, span_name):
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper = type(raw)(self.recorder.wrap(raw.__func__, span_name))
        else:
            wrapper = self.recorder.wrap(raw, span_name)
        for other, value in list(vars(cls).items()):
            if value is raw:  # aliases such as __add__ = add
                self._set(cls, other, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved = []


def originals_restored(snapshot):
    """True when every (owner, attribute, value) of a snapshot taken
    before installing is back in place."""
    return all(vars(owner).get(attr) is value for owner, attr, value in snapshot)


def snapshot():
    """The current raw value of every attribute the wrappers touch."""
    out = []
    for mod_name, spec in TARGETS:
        module = sys.modules["levo." + mod_name]
        for owner, attr, _ in _expand(module, spec):
            out.append((owner, attr, vars(owner)[attr]))
    for m in _levo_modules():
        for attr, value in vars(m).items():
            if callable(value):
                out.append((m, attr, value))
    return out
