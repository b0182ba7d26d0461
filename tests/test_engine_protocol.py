"""Checked-call protocol behavior, observed through a synthetic toy binding."""

from __future__ import annotations

import pytest

import mbcheck.values as V
from mbcheck.engine import (
    ClassSpec,
    Engine,
    InvariantClause,
    ModelQuery,
    RoutineSpec,
    TARGET,
    ARG0,
    bind,
    derive_frame_postconditions,
    index_param,
    item_param,
    invariant_clause_eligible,
    pred,
    ref_param,
)
from mbcheck.engine.runtime import (
    CALLEE,
    CALLER,
    FRAME,
    INVARIANT_ENTRY,
    INVARIANT_EXIT,
    MODEL_EVAL_ERROR,
    POSTCONDITION,
    PRECONDITION,
)
from mbcheck.errors import ModelEvalError, SpecError


class Toy:
    """Concrete guinea pig: an int list, a cursor-ish index, an optional peer."""

    def __init__(self):
        self.items = []
        self.index = 0
        self.peer = None
        self.link_ok = True
        self.body_entries = 0

    # bodies (plain methods; internal calls stay uninstrumented)
    def push(self, v):
        self.body_entries += 1
        self.items.append(v)

    def push_and_drift(self, v):
        # violates the frame: index is not in push's modify list
        self.items.append(v)
        self.index += 1

    def set_index(self, i):
        self.index = i

    def set_peer(self, p):
        self.peer = p

    def poke_peer(self):
        # qualified call on another checked object
        peer = self.peer
        if peer is not None:
            co = peer._checked
            co.engine.checked_call(co, co.spec.routines["push"], (7,))

    def corrupt_then_push(self, v):
        self.index = -5
        self.items.append(v)

    def crashy(self):
        raise RuntimeError("kaboom")

    def noop(self):
        return None

    def size(self):
        return len(self.items)


def toy_specs(seq_eval=None, push_modify=("sequence",), extra_invariants=(), bound=True):
    seq_eval = seq_eval or (lambda o: V.sequence(V.integer(x) for x in o.items))
    model = [
        ModelQuery("sequence", seq_eval),
        ModelQuery("index", lambda o: V.integer(o.index)),
    ]
    invariants = [
        InvariantClause(
            "index_bounds",
            lambda m, o: 0 <= V.as_int(m["index"]) <= V.seq_count(m["sequence"]),
            kind="model",
        ),
        InvariantClause(
            "peer_link",
            lambda m, o: o.peer is None or o.peer.link_ok,
            depend=("peer",),
            kind="representation",
        ),
        *extra_invariants,
    ]
    routines = {
        "push": RoutineSpec(
            "push",
            [item_param()],
            Toy.push,
            post=[
                pred(
                    "appended",
                    lambda ctx: ctx.now("sequence")
                    == V.seq_extended(ctx.old("sequence"), V.integer(ctx.arg(0))),
                )
            ],
            modify=push_modify,
        ),
        "push_and_drift": RoutineSpec(
            "push_and_drift", [item_param()], Toy.push_and_drift, modify=("sequence",)
        ),
        "set_index": RoutineSpec(
            "set_index",
            [index_param()],
            Toy.set_index,
            pre=[pred("in_range", lambda ctx: 0 <= ctx.arg(0) <= len(ctx.obj.items))],
            post=[pred("index_set", lambda ctx: ctx.now_int("index") == ctx.arg(0))],
            modify=("index",),
        ),
        "set_peer": RoutineSpec(
            "set_peer", [ref_param("toy")], Toy.set_peer, modify=()
        ),
        "poke_peer": RoutineSpec("poke_peer", [], Toy.poke_peer, modify=()),
        "corrupt_then_push": RoutineSpec(
            "corrupt_then_push", [item_param()], Toy.corrupt_then_push, modify=("sequence",)
        ),
        "crashy": RoutineSpec("crashy", [], Toy.crashy, modify=()),
        "noop": RoutineSpec("noop", [], Toy.noop, modify=()),
        "size": RoutineSpec(
            "size",
            [],
            Toy.size,
            post=[pred("is_count", lambda ctx: ctx.result == V.seq_count(ctx.now("sequence")))],
            modify=(),
            returns_value=True,
        ),
        "swap_index_with": RoutineSpec(
            "swap_index_with",
            [ref_param("toy")],
            lambda o, p: (setattr(o, "index", 0), setattr(p, "index", 0)),
            pre=[pred("peer_given", lambda ctx: not ctx.arg_is_void(0))],
            modify=(("target", "index"), (ARG0, "index")),
        ),
    }
    spec = ClassSpec("toy", "strong", model, invariants, routines, Toy)
    if bound:
        bind({"toy": spec})
    return spec


def fresh(spec=None, hook=None):
    spec = spec or toy_specs()
    eng = Engine(hook=hook)
    return eng, eng.register(Toy(), spec), spec


# --- protocol ordering and flags -----------------------------------------


def test_event_order_covers_all_phases():
    events = []
    spec = toy_specs()
    eng = Engine(hook=lambda e: events.append(e[0]))
    co = eng.register(Toy(), spec)
    out = eng.checked_call(co, spec.routines["push"], (3,))
    assert not out.violations
    phases = [e for e in events]
    order = ["entry_clause", "snapshot", "body", "restore", "exit_clause", "post", "frame"]
    positions = [max(i for i, p in enumerate(phases) if p == name) if name in phases else None for name in order]
    firsts = [min(i for i, p in enumerate(phases) if p == name) for name in order]
    assert firsts == sorted(firsts)
    # every phase fired at least once for this routine
    assert set(order) <= set(phases)


def test_pre_events_sit_between_entry_and_snapshot():
    events = []
    spec = toy_specs()
    eng = Engine(hook=lambda e: events.append(e[0]))
    co = eng.register(Toy(), spec)
    eng.checked_call(co, spec.routines["set_index"], (0,))
    names = [e for e in events]
    assert names.index("pre") > names.index("entry_clause")
    assert names.index("pre") < names.index("snapshot")


def test_is_open_restored_after_normal_and_failing_calls():
    eng, co, spec = fresh()
    assert co.is_open is False
    eng.checked_call(co, spec.routines["push"], (1,))
    assert co.is_open is False
    eng.checked_call(co, spec.routines["push_and_drift"], (1,))  # frame violation
    assert co.is_open is False
    eng.checked_call(co, spec.routines["crashy"], ())
    assert co.is_open is False


def test_opened_argument_flag_saved_and_restored():
    spec = toy_specs()
    eng = Engine()
    a = eng.register(Toy(), spec)
    b = eng.register(Toy(), spec)
    spec.routines["swap_index_with"].open_args = (0,)
    try:
        seen = {}

        def body(o, p):
            seen["target_open"] = o._checked.is_open
            seen["arg_open"] = p._checked.is_open

        orig = spec.routines["swap_index_with"].body
        spec.routines["swap_index_with"].body = body
        try:
            eng.checked_call(a, spec.routines["swap_index_with"], (b.concrete,))
        finally:
            spec.routines["swap_index_with"].body = orig
        assert seen == {"target_open": True, "arg_open": True}
        assert a.is_open is False and b.is_open is False
    finally:
        spec.routines["swap_index_with"].open_args = ()


def test_target_opened_as_its_own_argument_is_closed_after_the_call():
    spec = toy_specs()
    eng = Engine()
    a = eng.register(Toy(), spec)
    spec.routines["swap_index_with"].open_args = (0,)
    try:
        out = eng.checked_call(a, spec.routines["swap_index_with"], (a.concrete,))
        assert not out.violations
        assert a.is_open is False
        # closed again, so the next call checks its entry invariants
        a.concrete.index = -5
        out = eng.checked_call(a, spec.routines["noop"], ())
        assert [(v.kind, v.clause) for v in out.violations] == [
            (INVARIANT_ENTRY, "index_bounds")
        ]
    finally:
        spec.routines["swap_index_with"].open_args = ()


# --- preconditions --------------------------------------------------------


def test_precondition_violation_blames_caller_and_skips_body():
    eng, co, spec = fresh()
    out = eng.checked_call(co, spec.routines["set_index"], (5,))
    assert out.invalid is True
    assert out.body_ran is False
    assert [v.kind for v in out.violations] == [PRECONDITION]
    v = out.violations[0]
    assert v.blame == CALLER
    assert v.clause == "in_range"
    assert co.concrete.index == 0


def test_entry_invariant_checked_before_precondition():
    eng, co, spec = fresh()
    # corrupt silently, then call a routine whose precondition would also fail
    co.concrete.index = -5
    out = eng.checked_call(co, spec.routines["set_index"], (99,))
    kinds = [v.kind for v in out.violations]
    assert kinds == [INVARIANT_ENTRY]
    assert out.body_ran is False
    assert out.invalid is False


@pytest.mark.parametrize("read", ["now", "now_int"])
def test_exit_state_read_in_precondition_is_a_model_eval_error(read):
    eng, co, spec = fresh()
    peek = RoutineSpec(
        "peek",
        [],
        Toy.noop,
        pre=[pred("reads_exit", lambda ctx: getattr(ctx, read)("index") is not None)],
        modify=(),
    )
    out = eng.checked_call(co, peek, ())
    assert [(v.kind, v.clause) for v in out.violations] == [(MODEL_EVAL_ERROR, "reads_exit")]
    assert out.violations[0].detail == repr(
        ModelEvalError("exit state is not available in a precondition")
    )
    assert out.body_ran is False and out.invalid is False


# --- snapshot -------------------------------------------------------------


def test_snapshot_is_eager_and_keyed_by_token():
    captured = {}

    def hook(e):
        if e[0] == "snapshot":
            captured["snap"] = e[2]

    spec = toy_specs()
    eng = Engine(hook=hook)
    co = eng.register(Toy(), spec)
    co.concrete.items.extend([4, 5])
    out = eng.checked_call(co, spec.routines["push"], (6,))
    assert not out.violations
    snap = captured["snap"]
    assert snap.entries[(co.token, "sequence")] == V.sequence(map(V.integer, [4, 5]))
    assert snap.entries[(co.token, "index")] == V.integer(0)
    # body mutation did not bleed into the snapshot
    assert co.concrete.items == [4, 5, 6]


def test_snapshot_covers_reference_arguments():
    captured = {}

    def hook(e):
        if e[0] == "snapshot":
            captured["snap"] = e[2]

    spec = toy_specs()
    eng = Engine(hook=hook)
    a = eng.register(Toy(), spec)
    b = eng.register(Toy(), spec)
    b.concrete.items.append(9)
    eng.checked_call(a, spec.routines["swap_index_with"], (b.concrete,))
    snap = captured["snap"]
    assert (b.token, "sequence") in snap.entries
    assert snap.entries[(b.token, "sequence")] == V.sequence([V.integer(9)])


# --- postconditions, frames, result --------------------------------------


def test_postcondition_failure_blames_callee():
    spec = toy_specs()
    # sabotage: push body appends the wrong value
    spec.routines["push"].body = lambda o, v: o.items.append(v + 1)
    eng = Engine()
    co = eng.register(Toy(), spec)
    out = eng.checked_call(co, spec.routines["push"], (3,))
    assert [v.kind for v in out.violations] == [POSTCONDITION]
    assert out.violations[0].blame == CALLEE
    assert out.violations[0].clause == "appended"


def test_frame_catches_unlisted_mutation():
    eng, co, spec = fresh()
    out = eng.checked_call(co, spec.routines["push_and_drift"], (1,))
    assert [v.kind for v in out.violations] == [FRAME]
    assert out.violations[0].clause == "unchanged:target.index"
    assert "0 -> 1" in out.violations[0].detail


def test_empty_modify_means_pure():
    spec = toy_specs()
    spec.routines["noop"].body = lambda o: o.items.append(1)
    eng = Engine()
    co = eng.register(Toy(), spec)
    out = eng.checked_call(co, spec.routines["noop"], ())
    assert [v.kind for v in out.violations] == [FRAME]


def test_unframed_routine_derives_no_frame_preds():
    spec = toy_specs(push_modify=None)
    assert spec.routines["push"].frame_preds == ()
    eng = Engine()
    co = eng.register(Toy(), spec)
    # same drifting body: without framing nothing fires beyond the post check
    out = eng.checked_call(co, spec.routines["push"], (1,))
    assert not out.violations


def test_result_flows_into_query_postconditions():
    eng, co, spec = fresh()
    co.concrete.items.extend([1, 2, 3])
    out = eng.checked_call(co, spec.routines["size"], ())
    assert out.result == 3
    assert not out.violations


def test_void_reference_argument_skips_its_frame_slice():
    eng, co, spec = fresh()
    out = eng.checked_call(co, spec.routines["swap_index_with"], (None,))
    # precondition rejects void, but no crash from frame/snapshot machinery
    assert out.invalid is True


def test_modify_unknown_query_rejected_at_bind_time():
    with pytest.raises(SpecError):
        toy_specs(push_modify=("sequins",))


def test_derive_frame_postconditions_enumerates_universe_minus_modify():
    spec = toy_specs()
    r = spec.routines["swap_index_with"]
    names = [p.name for p in r.frame_preds]
    assert names == ["unchanged:target.sequence", "unchanged:arg0.sequence"]
    preds = derive_frame_postconditions(r, spec, {"toy": spec})
    assert [p.name for p in preds] == names


# --- exit invariants and first-failure suppression ------------------------


def test_exit_invariant_violation_suppresses_post_and_frame():
    eng, co, spec = fresh()
    out = eng.checked_call(co, spec.routines["corrupt_then_push"], (1,))
    assert [v.kind for v in out.violations] == [INVARIANT_EXIT]
    assert out.violations[0].clause == "index_bounds"


def test_crash_recorded_and_checks_stop():
    eng, co, spec = fresh()
    out = eng.checked_call(co, spec.routines["crashy"], ())
    assert [v.kind for v in out.violations] == [MODEL_EVAL_ERROR]
    assert out.violations[0].clause == "crash"
    assert "kaboom" in out.violations[0].detail


def test_model_eval_error_during_query_evaluation():
    def bad_eval(o):
        raise ZeroDivisionError("nope")

    spec = toy_specs(seq_eval=bad_eval)
    eng = Engine()
    co = eng.register(Toy(), spec)
    out = eng.checked_call(co, spec.routines["noop"], ())
    assert [v.kind for v in out.violations] == [MODEL_EVAL_ERROR]
    assert out.violations[0].clause == "model"


# --- depend eligibility ---------------------------------------------------


def test_depend_clause_skipped_while_attached_object_open():
    spec = toy_specs()
    eng = Engine()
    a = eng.register(Toy(), spec)
    b = eng.register(Toy(), spec)
    a.concrete.peer = b.concrete
    b.concrete.link_ok = False  # peer_link clause is false right now

    clause = next(cl for cl in spec.invariants if cl.name == "peer_link")
    assert invariant_clause_eligible(clause, a) is False or not b.is_open
    b.is_open = True
    assert invariant_clause_eligible(clause, a) is False
    b.is_open = False
    assert invariant_clause_eligible(clause, a) is True
    a.is_open = True
    assert invariant_clause_eligible(clause, a) is False
    a.is_open = False

    # with b open, calls on a skip the clause entirely
    b.is_open = True
    out = eng.checked_call(a, spec.routines["noop"], ())
    assert not out.violations
    b.is_open = False
    out = eng.checked_call(a, spec.routines["noop"], ())
    assert any(
        v.kind == INVARIANT_ENTRY and v.clause == "peer_link" for v in out.violations
    )


def test_depend_on_void_attribute_is_eligible():
    eng, co, spec = fresh()
    clause = next(cl for cl in spec.invariants if cl.name == "peer_link")
    assert co.concrete.peer is None
    assert invariant_clause_eligible(clause, co) is True


# --- nesting and the re-entrancy guard ------------------------------------


def test_nested_qualified_call_violations_reach_top_outcome():
    spec = toy_specs()
    spec.routines["push"].body = lambda o, v: o.items.append(v + 1)  # breaks post
    eng = Engine()
    a = eng.register(Toy(), spec)
    b = eng.register(Toy(), spec)
    a.concrete.peer = b.concrete
    out = eng.checked_call(a, spec.routines["poke_peer"], ())
    assert any(v.kind == POSTCONDITION and v.routine == "push" for v in out.violations)
    assert out.invalid is False


def test_nested_precondition_violation_is_not_invalid_at_top():
    spec = toy_specs()

    def bad_poke(o):
        co = o.peer._checked
        co.engine.checked_call(co, co.spec.routines["set_index"], (99,))

    spec.routines["poke_peer"].body = bad_poke
    eng = Engine()
    a = eng.register(Toy(), spec)
    b = eng.register(Toy(), spec)
    a.concrete.peer = b.concrete
    out = eng.checked_call(a, spec.routines["poke_peer"], ())
    assert any(v.kind == PRECONDITION for v in out.violations)
    assert out.invalid is False  # the generated call itself was valid


def test_guard_suppresses_checking_within_model_evaluation():
    protocol_entries = []

    def tricky_eval(o):
        # a model query that itself calls a public routine of its object
        co = o._checked
        co.engine.checked_call(co, co.spec.routines["push"], (1,))
        return V.sequence(V.integer(x) for x in o.items)

    spec = toy_specs(seq_eval=tricky_eval)
    eng = Engine(hook=lambda e: protocol_entries.append(e[0]))
    co = eng.register(Toy(), spec)
    out = eng.checked_call(co, spec.routines["noop"], ())
    # the inner push ran (twice: entry eval + exit eval) without protocol events
    assert co.concrete.items == [1, 1]
    assert protocol_entries.count("body") == 1
    # frame preds compare entry eval vs exit eval: one extra 1 appended between
    assert [v.kind for v in out.violations] == [FRAME]


def qualified(o, name, *args):
    """A qualified call on a registered object, as container bodies make."""
    co = o._checked
    return co.engine.checked_call(co, co.spec.routines[name], args)


def test_guard_nests_and_unwinds():
    # a model query makes a qualified call; the body runs a nested protocol
    # on the peer; each model evaluation raises the guard to one, then zero
    seen = []

    def counting_eval(o):
        out = qualified(o, "size")
        seen.append((out.body_ran, out.violations, o._checked.engine._suppress))
        return V.sequence(V.integer(x) for x in o.items)

    eng, a, spec = fresh(toy_specs(seq_eval=counting_eval))
    b = eng.register(Toy(), spec)
    a.concrete.peer = b.concrete
    out = eng.checked_call(a, spec.routines["poke_peer"], ())
    assert not out.violations
    assert b.concrete.items == [7]
    # entry and exit models of the target, and of the peer inside the body
    assert seen == [(True, (), 1)] * 4
    assert eng._suppress == 0


def test_guard_model_evaluation_returns_value():
    # a qualified call made while checking is suppressed returns its result
    agrees = InvariantClause(
        "size_agrees",
        lambda m, o: qualified(o, "size").result == V.seq_count(m["sequence"]),
        kind="representation",
    )
    eng, co, spec = fresh(toy_specs(extra_invariants=[agrees]))
    for name, args in (("push", (5,)), ("push", (6,)), ("noop", ())):
        out = eng.checked_call(co, spec.routines[name], args)
        assert out.body_ran and not out.violations, name
    assert eng._suppress == 0


def test_suppressed_crash_propagates():
    # a crash in a suppressed qualified call reaches the enclosing model
    # query or predicate and is recorded there
    def crashing_eval(o):
        qualified(o, "crashy")

    eng, co, spec = fresh(toy_specs(seq_eval=crashing_eval))
    out = eng.checked_call(co, spec.routines["noop"], ())
    assert [(v.kind, v.clause) for v in out.violations] == [(MODEL_EVAL_ERROR, "model")]
    assert "kaboom" in out.violations[0].detail
    assert not out.body_ran
    assert eng._suppress == 0

    eng, co, spec = fresh()
    spec.routines["noop"].pre = (
        pred("calls_crashy", lambda ctx: qualified(ctx.obj, "crashy")),
    )
    out = eng.checked_call(co, spec.routines["noop"], ())
    assert [(v.kind, v.clause) for v in out.violations] == [
        (MODEL_EVAL_ERROR, "calls_crashy")
    ]
    assert not out.body_ran
    assert eng._suppress == 0


def test_depend_invariant_gated_through_the_protocol():
    # b's body calls a.push while b is open: on a, the depend clause
    # peer_link is skipped and the plain clause index_bounds still runs, at
    # entry and at exit; the gate holds on a spec that was never bound too
    for bound in (True, False):
        events = []
        spec = toy_specs(bound=bound)
        eng = Engine(hook=lambda e: events.append(e) if e[0].endswith("_clause") else None)
        a = eng.register(Toy(), spec)
        b = eng.register(Toy(), spec)
        a.concrete.peer = b.concrete
        b.concrete.peer = a.concrete
        b.concrete.link_ok = False  # peer_link on a is false while it is checked
        out = eng.checked_call(b, spec.routines["poke_peer"], ())
        assert not out.violations
        assert a.concrete.items == [7]
        assert [(e[0], e[2]) for e in events if e[1] == a.token] == [
            ("entry_clause", "index_bounds"),
            ("exit_clause", "index_bounds"),
        ]
        assert [(e[0], e[2]) for e in events if e[1] == b.token] == [
            ("entry_clause", "index_bounds"),
            ("entry_clause", "peer_link"),
            ("exit_clause", "index_bounds"),
            ("exit_clause", "peer_link"),
        ]
        # with b closed, the clause runs on a again
        out = eng.checked_call(a, spec.routines["noop"], ())
        assert [(v.kind, v.clause) for v in out.violations] == [(INVARIANT_ENTRY, "peer_link")]


# --- check plans and instrumentation --------------------------------------

CLAUSE_LAYERS = ("model", "invariant", "pre", "post", "frame")


def _instrument(spec, counts, wrapped):
    """Wrap every model query's ``evaluate`` and every clause's ``fn`` of an
    already bound spec with a counter, as the benchmark's tracer does; a
    clause object shared between specs is wrapped once. Appends (object,
    attribute, original) to ``wrapped`` for restoring."""

    def wrap(obj, attr, layer):
        if any(o is obj for o, _, _ in wrapped):
            return
        fn = getattr(obj, attr)

        def counted(*args):
            counts[layer] += 1
            return fn(*args)

        wrapped.append((obj, attr, fn))
        setattr(obj, attr, counted)

    for q in spec.model:
        wrap(q, "evaluate", "model")
    for cl in spec.invariants:
        wrap(cl, "fn", "invariant")
    for r in spec.routines.values():
        for layer, preds in (("pre", r.pre), ("post", r.post), ("frame", r.frame_preds)):
            for p in preds:
                wrap(p, "fn", layer)


def _cursor_list_calls(eng, spec):
    a, b = eng.create(spec), eng.create(spec)
    eng.call(b, "extend", 4)
    for name, args in (
        ("extend", (1,)),
        ("extend", (2,)),
        ("extend", (3,)),
        ("start", ()),
        ("forth", ()),
        ("item", ()),
        ("replace", (5,)),
        ("remove", ()),
        ("has", (2,)),
        ("back", ()),
        ("back", ()),
        ("go_i_th", (9,)),
        ("off", ()),
        ("finish", ()),
        ("is_equal", (None,)),
        ("is_equal", (b.concrete,)),
        ("merge_right", (b.concrete,)),
        ("wipe_out", ()),
    ):
        eng.call(a, name, *args)


def _binary_node_calls(eng, spec):
    r, c1, c2 = eng.create(spec), eng.create(spec), eng.create(spec)
    for co, name, args in (
        (r, "set_item", (5,)),
        (r, "set_left", (c1.concrete,)),
        (r, "set_right", (c2.concrete,)),
        (r, "set_left", (c2.concrete,)),
        (c1, "node_item", ()),
        (r, "is_leaf", ()),
        (c1, "set_parent", (None,)),
        (r, "prune_left", ()),
        (c1, "is_leaf", ()),
        (c2, "set_left", (r.concrete,)),
    ):
        eng.call(co, name, *args)


@pytest.mark.parametrize(
    "class_name, calls, expected, eligibility_tests",
    [
        (
            "cursor_list",
            _cursor_list_calls,
            {"model": 80, "invariant": 108, "pre": 12, "post": 18, "frame": 24},
            0,
        ),
        (
            "binary_node",
            _binary_node_calls,
            {"model": 124, "invariant": 61, "pre": 19, "post": 11, "frame": 48},
            63,
        ),
    ],
)
def test_plans_see_clauses_instrumented_after_build(
    monkeypatch, class_name, calls, expected, eligibility_tests
):
    # the runtime must reach each clause's fn and each query's evaluate
    # through the object at call time, never a function kept from bind():
    # the tracer rewraps them after build_class returns and counts every
    # call. The counts were measured on the protocol before this one.
    from mbcheck.containers import build_class
    from mbcheck.engine import runtime

    spec = build_class(class_name, "strong")
    counts = dict.fromkeys(CLAUSE_LAYERS, 0)
    wrapped = []
    _instrument(spec, counts, wrapped)
    tested = []
    eligible = runtime.invariant_clause_eligible
    monkeypatch.setattr(
        runtime,
        "invariant_clause_eligible",
        lambda cl, co: tested.append(cl.name) or eligible(cl, co),
    )
    try:
        calls(Engine(), spec)
    finally:
        for obj, attr, fn in reversed(wrapped):
            setattr(obj, attr, fn)
    assert counts == expected
    # only clauses that declare depend pay for the eligibility test; every
    # binary_node invariant does, no cursor_list invariant does
    assert len(tested) == eligibility_tests
