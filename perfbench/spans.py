"""Span tracing from outside the program, for the benchmark's traced run.

Nothing under ``src/`` knows about this module.  After each fresh import of
``olmcheck`` the benchmark calls ``install``, which replaces the public
functions and methods named in ``SPANS`` and ``COUNTS`` by wrappers:

* a span wrapper records one span per call: name, start, end and the span
  that was open when the call began (its parent);
* a count wrapper only counts calls.  It is used for ``Ring.exponents`` and
  ``Ring.monomial``, which run a few hundred thousand times per suite inside
  ``Ring.mono_lcm``; a span each would mostly measure the tracer.

``buchberger`` calls that carry no budget get a ``CountingBudget``, a
``Budget`` subclass without limits that overrides only the public ``pair``
and ``reduction_step`` methods, so S-pairs and reduction steps are counted
without a change to the engine.

Spans live in four flat arrays and are written out once, when the run ends.
A layer's self time is its span's duration minus the time its direct child
spans cover.
"""

import array
import functools
import json
import sys
import time
from contextlib import contextmanager

# (module, class or None, attribute, span name).  All Chart constructors of
# generators and ideals share the one span name ``charts.build``.
CHART_BUILDERS = (
    "x_matrix", "naive_generators", "additional_generators",
    "intermediate_generators", "solve_relations", "naive_ideal",
    "additional_ideal", "full_ideal", "intermediate_ideal", "reduced_ideal",
    "trace_quadric", "substitution_map", "specialize", "special_fiber_ideal",
    "generic_fiber_ideal", "component_ideals",
)
SPANS = (
    ("olmcheck.groebner", None, "buchberger", "groebner.buchberger"),
    ("olmcheck.groebner", "GroebnerBasis", "normal_form", "groebner.normal_form"),
    ("olmcheck.groebner", None, "multivariate_division", "groebner.division"),
    ("olmcheck.rings", "Ring", "mono_lcm", "rings.mono_lcm"),
    ("olmcheck.rings", None, "cast", "rings.cast"),
    ("olmcheck.rings", "Polynomial", "substitute", "rings.substitute"),
    ("olmcheck.ideals", "Ideal", "groebner", "ideals.groebner"),
    ("olmcheck.ideals", "Ideal", "contains", "ideals.contains"),
    ("olmcheck.ideals", "Ideal", "intersect", "ideals.intersect"),
    ("olmcheck.ideals", "Ideal", "quotient", "ideals.quotient"),
    ("olmcheck.ideals", None, "krull_dimension", "ideals.krull_dimension"),
    ("olmcheck.matrices", "PolyMatrix", "__matmul__", "matrices.matmul"),
    ("olmcheck.verify", None, "verify_check", "verify.check"),
    ("olmcheck.cli", None, "report_json", "cli.report_json"),
) + tuple(("olmcheck.charts", "Chart", nm, "charts.build") for nm in CHART_BUILDERS)
COUNTS = (
    ("olmcheck.rings", "Ring", "exponents", "rings.exponents.calls"),
    ("olmcheck.rings", "Ring", "monomial", "rings.monomial.calls"),
)
# counters fed by the wrappers below rather than by call counts
EXTRA_COUNTS = ("groebner.spairs", "groebner.reduction_steps",
                "groebner.basis_elements", "ideals.groebner.hits")


class Tracer:
    """Spans and counters of one traced run, split into phases."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_of = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        self.counts = dict.fromkeys(
            [c[3] for c in COUNTS] + list(EXTRA_COUNTS), 0)
        self.phases = []        # (kind, first span, end span, counts before, after)

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn):
        """Wrap fn so that each call records one span."""
        nid = self._name_id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
        return wrapper

    def counter(self, name, fn):
        """Wrap fn so that each call adds one to ``counts[name]``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def phase(self, kind):
        first, before = len(self.name_of), dict(self.counts)
        yield
        self.phases.append((kind, first, len(self.name_of), before, dict(self.counts)))

    def phase_metrics(self, first, stop, before, after):
        """Self time and calls per span name, plus counter deltas, for the
        spans opened in [first, stop)."""
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        child = [0.0] * (stop - first)
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        # children always have larger indices than their parent, so a
        # backwards pass sees every child before its parent
        for i in range(stop - 1, first - 1, -1):
            dur = end[i] - start[i]
            nid = name_of[i]
            self_s[nid] += dur - child[i - first]
            calls[nid] += 1
            p = parent[i]
            if p >= first:
                child[p - first] += dur
        out = {}
        for nid, name in enumerate(self.names):
            out[name + ".s"] = self_s[nid]
            out[name + ".calls"] = calls[nid]
        for name in after:
            out[name] = after[name] - before[name]
        return out

    def write(self, prefix):
        """Write the spans as ``<prefix>.json`` (names, phases, layout) and
        ``<prefix>.bin`` (the four arrays, one after another)."""
        n = len(self.name_of)
        meta = {
            "names": self.names,
            "spans": n,
            "arrays": ["name_of:int32", "parent:int32", "start:float64", "end:float64"],
            "phases": [{"kind": k, "first": a, "stop": b} for k, a, b, _, _ in self.phases],
        }
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=1)
        with open(prefix + ".bin", "wb") as fh:
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)


def install(tracer):
    """Wrap the public functions of the freshly imported olmcheck modules."""
    mods = {name: mod for name, mod in sys.modules.items()
            if name == "olmcheck" or name.startswith("olmcheck.")}
    counts = tracer.counts
    groebner, ideals = mods["olmcheck.groebner"], mods["olmcheck.ideals"]

    class CountingBudget(groebner.Budget):
        """No limits; counts the pairs and reduction steps it is told of."""

        def pair(self):
            counts["groebner.spairs"] += 1

        def reduction_step(self):
            counts["groebner.reduction_steps"] += 1

    started = [0]
    inner_bb = groebner.buchberger

    def buchberger(generators, budget=None):
        started[0] += 1
        gb = inner_bb(generators, CountingBudget() if budget is None else budget)
        counts["groebner.basis_elements"] += len(gb)
        return gb

    inner_gb = ideals.Ideal.groebner

    def ideal_groebner(self, *args, **kwargs):
        before = started[0]
        gb = inner_gb(self, *args, **kwargs)
        if started[0] == before:
            counts["ideals.groebner.hits"] += 1
        return gb

    _replace(mods, None, "buchberger", functools.wraps(inner_bb)(buchberger))
    ideals.Ideal.groebner = functools.wraps(inner_gb)(ideal_groebner)
    for modname, cls, attr, name in SPANS:
        _wrap(mods, modname, cls, attr, lambda fn, name=name: tracer.span(name, fn))
    for modname, cls, attr, name in COUNTS:
        _wrap(mods, modname, cls, attr, lambda fn, name=name: tracer.counter(name, fn))


def _wrap(mods, modname, cls, attr, make):
    owner = getattr(mods[modname], cls) if cls else mods[modname]
    _replace(mods, owner if cls else None, attr, make(getattr(owner, attr)))


def _replace(mods, cls, attr, wrapper):
    """Put wrapper in place of the function it wraps: on the class, or in
    every module namespace that imported the function by name."""
    if cls is not None:
        setattr(cls, attr, wrapper)
        return
    fn = wrapper.__wrapped__
    for mod in mods.values():
        for key, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, key, wrapper)
