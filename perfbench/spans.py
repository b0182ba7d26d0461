"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps public callables of mbcheck's layers inside the benchmark
process; the package itself is not changed. Each wrapped call is one span
(name, start, end, parent). A span's self time, its duration minus the
durations of its direct children, is summed per span name as the span ends.

What gets wrapped, and the layer each span is charged to:

- ``Engine.checked_call``                                  engine.runtime
- each spec's ``ModelQuery.evaluate``                      containers.model
- each spec's ``InvariantClause.fn``                       containers.invariant
- each routine's pre, post and derived frame ``NamedPred.fn``
                                    containers.pre / .post / .frame
- each routine's ``RoutineSpec.body``                      containers.body
- the public functions of ``mbcheck.values``               values
- ``run_session``                                          harness.session
- ``write_report``, ``read_report``, ``read_timing``       harness.reports
- ``compare_reports``, ``throughput_ratios``               harness.compare
- ``completeness_probe``                                   engine.completeness
- ``SequenceDomain`` methods                               containers.domains

Names bound at import time (``from mbcheck.values import as_int`` in the
engine, ``from ... import build_class`` in the session module) are rebound in
every loaded ``mbcheck`` module, so no call path escapes its wrapper. Predicate
objects shared between specs are wrapped once: a wrapper is never wrapped
again.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

RUNTIME = "engine.runtime"
SESSION = "harness.session"
REPORTS = "harness.reports"
COMPARE = "harness.compare"
COMPLETENESS = "engine.completeness"
DOMAINS = "containers.domains"
MODEL = "containers.model"
INVARIANT = "containers.invariant"
PRE = "containers.pre"
POST = "containers.post"
FRAME = "containers.frame"
BODY = "containers.body"
VALUES = "values"

LAYERS = (
    SESSION,
    RUNTIME,
    MODEL,
    INVARIANT,
    PRE,
    POST,
    FRAME,
    BODY,
    VALUES,
    REPORTS,
    COMPARE,
    COMPLETENESS,
    DOMAINS,
)


class Tracer:
    """Span store plus the wrappers that fill it.

    Self time is computed as each span ends, from its own duration and the
    durations of its direct children, and summed per span name; it covers
    every span. The spans themselves (name, start, end, parent) are kept in
    memory for the first ``max_spans`` only, so a long traced run stays
    within bounded memory.
    """

    def __init__(self, max_spans):
        self.max_spans = max_spans
        self.names = []  # span name id -> (layer, detail)
        self._name_ids = {}
        self.self_s = []  # span name id -> summed self seconds
        self.counts = []  # span name id -> spans ended
        self.name_of = array("H")
        self.parent_of = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._idx = [-1]  # kept-span index of each open span, -1 if not kept
        self._child = [0.0]  # summed child durations of each open span; [0] is the root
        self._runtime_depth = 0
        # counts observed at the wrapped boundaries
        self.top_calls = 0
        self.top_invalid = 0
        self.target_sizes = array("i")
        self.session_calls = 0
        self.session_valid = 0
        self.objects_created = 0
        self.report_bytes = 0
        self.pre_states_enumerated = 0
        self.pre_states_checked = 0

    def spans(self):
        return sum(self.counts)

    def root_s(self):
        """Summed duration of the spans that have no parent."""
        return self._child[0]

    def _name_id(self, layer, detail):
        key = (layer, detail)
        nid = self._name_ids.get(key)
        if nid is None:
            nid = self._name_ids[key] = len(self.names)
            self.names.append(key)
            self.self_s.append(0.0)
            self.counts.append(0)
        return nid

    # --- wrappers ---

    def wrap(self, fn, layer, detail, count=None):
        """Span around every call of ``fn``; a wrapper is returned unchanged.
        ``count``, when given, receives each result, outside the span.
        The wrapper runs millions of times per traced pass and its own cost
        lands in the caller's self time, so it is kept flat."""
        if getattr(fn, "__traced__", False):
            return fn
        nid = self._name_id(layer, detail)
        name_of, parent_of, starts, ends = self.name_of, self.parent_of, self.starts, self.ends
        idxs, child = self._idx, self._child
        self_s, counts = self.self_s, self.counts
        cap = self.max_spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            if idx < cap:
                name_of.append(nid)
                parent_of.append(idxs[-1])
                starts.append(0.0)
                ends.append(0.0)
            else:
                idx = -1
            idxs.append(idx)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                d = t1 - t0
                idxs.pop()
                c = child.pop()
                child[-1] += d
                self_s[nid] += d - c
                counts[nid] += 1
                if idx >= 0:
                    starts[idx] = t0
                    ends[idx] = t1

        if count is not None:
            inner = traced

            def traced(*args, **kwargs):
                res = inner(*args, **kwargs)
                count(res)
                return res

        traced.__traced__ = True
        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, layer, detail, on_item=None):
        """Like ``wrap`` for a generator function: one span per item produced,
        so the generator's work is charged to ``layer`` wherever it is
        consumed."""
        if getattr(fn, "__traced__", False):
            return fn
        step = self.wrap(next, layer, detail)

        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                if on_item is not None:
                    on_item()
                yield item

        traced.__traced__ = True
        traced.__wrapped__ = fn
        return traced

    def _wrap_checked_call(self, fn):
        inner = self.wrap(fn, RUNTIME, "checked_call")

        def checked_call(engine, co, routine, args=()):
            if self._runtime_depth:
                return inner(engine, co, routine, args)
            size_of = co.spec.size_of
            if size_of is not None:
                self.target_sizes.append(size_of(co.concrete))
            self._runtime_depth += 1
            try:
                out = inner(engine, co, routine, args)
            finally:
                self._runtime_depth -= 1
            self.top_calls += 1
            self.top_invalid += out.invalid
            return out

        checked_call.__traced__ = True
        checked_call.__wrapped__ = fn
        return checked_call

    def instrument_spec(self, spec):
        """Wrap one bound class spec's model queries, clauses and bodies."""
        cname = spec.name
        for q in spec.model:
            q.evaluate = self.wrap(q.evaluate, MODEL, "%s.%s" % (cname, q.name))
        for cl in spec.invariants:
            cl.fn = self.wrap(cl.fn, INVARIANT, "%s.%s" % (cname, cl.name))
        for r in spec.routines.values():
            r.body = self.wrap(r.body, BODY, "%s.%s" % (cname, r.name))
            for layer, preds in ((PRE, r.pre), (POST, r.post), (FRAME, r.frame_preds)):
                for p in preds:
                    p.fn = self.wrap(p.fn, layer, p.name)
        return spec

    def install(self, specs=()):
        """Wrap every layer boundary of the loaded ``mbcheck`` package, and
        the given already-built specs. Irreversible for this process."""
        import mbcheck.values as V
        from mbcheck.containers import domains
        from mbcheck.engine import runtime

        swaps = {}  # id(original) -> wrapper, rebound in every mbcheck module

        for name in dir(V):
            obj = getattr(V, name)
            if (
                not name.startswith("_")
                and callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", "").startswith("mbcheck.values")
            ):
                swaps[id(obj)] = self.wrap(obj, VALUES, name)

        import mbcheck.containers as C
        import mbcheck.engine.completeness as EC
        import mbcheck.harness.compare as HC
        import mbcheck.harness.reports as HR
        import mbcheck.harness.session as HS

        def count_session(res):
            self.session_calls += res.calls
            self.session_valid += res.valid_calls
            self.objects_created += res.objects_created

        def count_report(body):
            self.report_bytes += len(body)

        def count_probe(res):
            self.pre_states_checked += res.pre_states_checked

        for obj, layer, count in (
            (HS.run_session, SESSION, count_session),
            (HR.write_report, REPORTS, count_report),
            (HR.read_report, REPORTS, None),
            (HR.read_timing, REPORTS, None),
            (HC.compare_reports, COMPARE, None),
            (HC.throughput_ratios, COMPARE, None),
            (EC.completeness_probe, COMPLETENESS, count_probe),
        ):
            swaps[id(obj)] = self.wrap(obj, layer, obj.__name__, count)

        build_class = C.build_class

        def instrumented_build_class(*args, **kwargs):
            return self.instrument_spec(build_class(*args, **kwargs))

        instrumented_build_class.__traced__ = True
        swaps[id(build_class)] = instrumented_build_class

        for modname, mod in list(sys.modules.items()):
            if modname != "mbcheck" and not modname.startswith("mbcheck."):
                continue
            for attr, obj in list(vars(mod).items()):
                w = swaps.get(id(obj))
                if w is not None:
                    setattr(mod, attr, w)

        runtime.Engine.checked_call = self._wrap_checked_call(runtime.Engine.checked_call)

        SD = domains.SequenceDomain

        def enumerated():
            self.pre_states_enumerated += 1

        SD.pre_states = self.wrap_generator(SD.pre_states, DOMAINS, "pre_states", enumerated)
        for meth in ("__init__", "role_spec", "value_choices", "result_choices"):
            setattr(SD, meth, self.wrap(getattr(SD, meth), DOMAINS, meth))

        for spec in specs:
            self.instrument_spec(spec)

    # --- analysis ---

    def layer_totals(self):
        """(layer -> self seconds, layer -> spans, "layer:detail" -> (self
        seconds, spans))."""
        layer_s = {layer: 0.0 for layer in LAYERS}
        layer_n = {layer: 0 for layer in LAYERS}
        detail = {}
        for k, (layer, name) in enumerate(self.names):
            layer_s[layer] += self.self_s[k]
            layer_n[layer] += self.counts[k]
            detail["%s:%s" % (layer, name)] = (self.self_s[k], self.counts[k])
        return layer_s, layer_n, detail

    def write(self, stem):
        """Write the kept spans as ``<stem>.json`` (name table, layout) plus
        ``<stem>.bin`` (the four arrays, one after another)."""
        with open(stem + ".bin", "wb") as f:
            for arr in (self.name_of, self.parent_of, self.starts, self.ends):
                arr.tofile(f)
        with open(stem + ".json", "w") as f:
            json.dump(
                {
                    "spans_kept": len(self.starts),
                    "spans_total": self.spans(),
                    "layout": [
                        ["name", self.name_of.typecode],
                        ["parent", self.parent_of.typecode],
                        ["start", self.starts.typecode],
                        ["end", self.ends.typecode],
                    ],
                    "clock": "time.perf_counter, seconds",
                    "names": [list(x) for x in self.names],
                },
                f,
                indent=1,
            )
            f.write("\n")
