"""Spans around the program's public functions, recorded from outside.

`install` wraps each named function or method in every shiftflex module
that binds it, so calls between modules and within one are both seen.
Each call records a span (name, start, end, parent); spans stay in memory
until the run writes them out.  A span's self time is its duration minus
the durations of its direct children (one thread, so children nest).
"""

import json
import sys
import time
from collections import defaultdict

# (module, attribute) of every traced function; "Class.method" for methods,
# and a bare class name for a constructor.
TRACED = (
    ("construction", "select_disjoint_subsystems"),
    ("construction", "build_stage"),
    ("construction", "verify_stage"),
    ("spectral", "random_markov_measure"),
    ("spectral", "parry_measure"),
    ("spectral", "perron"),
    ("words", "VertexShift"),
    ("words", "induced_subshift"),
    ("words", "languages_disjoint"),
    ("words", "longest_window_avoiding"),
    ("words", "label_language"),
    ("words", "is_label_admissible"),
    ("words", "from_forbidden_words"),
    ("words", "higher_block"),
    ("words", "graph_period"),
    ("words", "is_irreducible"),
    ("words", "language"),
    ("measures", "katok_separated_set"),
    ("measures", "weak_star_distance"),
    ("codes", "renewal_to_sft"),
    ("codes", "ud_witness"),
    ("codes", "find_low_overlap_word"),
    ("codes", "PermutationCode.longest_avoiding"),
    ("codes", "PermutationCode.cylinder_table"),
    ("config", "parse_config"),
)

# Per-layer metrics besides every traced name's self time: (name, unit).
COUNTS = (
    ("spectral.random_markov_measure.calls", "count"),
    ("spectral.parry_measure.calls", "count"),
    ("spectral.perron.iterations", "count"),
    ("words.VertexShift.calls", "count"),
    ("words.VertexShift.edges", "count"),
    ("words.induced_subshift.calls", "count"),
    ("words.longest_window_avoiding.calls", "count"),
    ("words.is_label_admissible.calls", "count"),
    ("words.language.words", "count"),
    ("measures.katok_separated_set.qualifying", "count"),
    ("measures.katok_separated_set.enumerated", "count"),
    ("measures.katok_separated_set.useful_share", "ratio"),
    ("measures.weak_star_distance.calls", "count"),
)


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = [(f"{mod}.{attr}.self_s", "s") for mod, attr in TRACED]
    return out + list(COUNTS)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.events = []  # (span index, counter name, value)
        self.on = True  # off while the benchmark checks outputs
        self._perron_seen = {}  # id -> data, kept so that ids are not reused

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if after is not None:
                after(idx, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # counters taken from results where the work happens
    def _count(self, idx, name, value):
        self.events.append((idx, name, value))

    def _perron(self, idx, args, data):
        if id(data) not in self._perron_seen:  # cached results count once
            self._perron_seen[id(data)] = data
            self._count(idx, "spectral.perron.iterations", data.iterations)

    def _vertex_shift(self, idx, args, _):
        self._count(idx, "words.VertexShift.edges", args[0].matrix.nnz)

    def _language(self, idx, args, out):
        self._count(idx, "words.language.words", len(out))
        parent = self.spans[idx][3]
        if parent >= 0 and self.spans[parent][0] == "measures.katok_separated_set":
            self._count(idx, "measures.katok_separated_set.enumerated", len(out))

    def _katok(self, idx, args, out):
        self._count(idx, "measures.katok_separated_set.qualifying", out.qualifying)

    def totals(self, indices):
        """Self times (`<name>.self_s`), call counts (`<name>.calls`) and
        counters over the spans with the given range of indices."""
        child = defaultdict(float)
        for i in indices:
            _, s, e, parent = self.spans[i]
            if parent >= 0:
                child[parent] += e - s
        out = defaultdict(float)
        for i in indices:
            name, s, e, _ = self.spans[i]
            out[name + ".self_s"] += e - s - child[i]
            out[name + ".calls"] += 1
        for idx, name, value in self.events:
            if idx in indices:
                out[name] += value
        return out

    def dump(self, path, **meta):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                dict(meta, fields=["name", "start", "end", "parent"], spans=self.spans),
                fh,
            )


def install(tracer, sf):
    """Wrap every TRACED name in every shiftflex module binding it."""
    import shiftflex.cli  # noqa: F401  (so its bindings are wrapped too)

    modules = [m for n, m in sys.modules.items() if n == sf.__name__ or n.startswith(sf.__name__ + ".")]
    after = {
        "spectral.perron": tracer._perron,
        "words.language": tracer._language,
        "measures.katok_separated_set": tracer._katok,
    }
    for mod_name, attr in TRACED:
        name = f"{mod_name}.{attr}"
        home = getattr(sf, mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth)))
        elif isinstance(getattr(home, attr), type):
            cls = getattr(home, attr)
            cls.__init__ = tracer.wrap(name, cls.__init__, tracer._vertex_shift)
        else:
            orig = getattr(home, attr)
            wrapped = tracer.wrap(name, orig, after.get(name))
            for m in modules:
                if getattr(m, attr, None) is orig:
                    setattr(m, attr, wrapped)
