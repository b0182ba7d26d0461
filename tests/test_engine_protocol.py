"""Checked-call protocol behavior, observed through a synthetic toy binding."""

from __future__ import annotations

import pytest

import mbcheck.values as V
from mbcheck.engine import (
    ClassSpec,
    Engine,
    InvariantClause,
    ModelQuery,
    Param,
    RoutineSpec,
    TARGET,
    ARG0,
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


def toy_specs(seq_eval=None, push_modify=("sequence",), extra_invariants=()):
    seq_eval = seq_eval or (lambda o: V.sequence(o.items))
    model = [
        ModelQuery("sequence", seq_eval),
        ModelQuery("index", lambda o: o.index),
    ]
    invariants = [
        InvariantClause(
            "index_bounds",
            lambda m, o: 0 <= m["index"] <= V.seq_count(m["sequence"]),
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
                    == V.seq_extended(ctx.old("sequence"), ctx.arg(0)),
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
            post=[pred("index_set", lambda ctx: ctx.now("index") == ctx.arg(0))],
            modify=("index",),
        ),
        "set_peer": RoutineSpec(
            "set_peer", [ref_param()], Toy.set_peer, modify=()
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
            [ref_param()],
            lambda o, p: (setattr(o, "index", 0), setattr(p, "index", 0)),
            pre=[pred("peer_given", lambda ctx: not ctx.arg_is_void(0))],
            modify=(("target", "index"), (ARG0, "index")),
        ),
    }
    return ClassSpec("toy", "strong", model, invariants, routines, Toy)


def fresh(spec=None):
    spec = spec or toy_specs()
    eng = Engine()
    return eng, eng.create(spec), spec


def logged(spec):
    """Wrap every invariant, pre, post and frame ``fn`` and every routine
    ``body`` of a spec to log each call, as the benchmark's tracer
    wraps them; returns the event list, in call order. An invariant logs
    ("invariant", clause name, concrete object, its is_open flag), a
    predicate (phase, clause name, ctx) and a body ("body", routine name)."""
    events = []

    def log_invariant(cl):
        fn = cl.fn

        def logged_fn(m, o):
            events.append(("invariant", cl.name, o, o._checked.is_open))
            return fn(m, o)

        cl.fn = logged_fn

    def log_pred(p, phase):
        fn = p.fn

        def logged_fn(ctx):
            events.append((phase, p.name, ctx))
            return fn(ctx)

        p.fn = logged_fn

    def log_body(r):
        body = r.body

        def logged_body(o, *args):
            events.append(("body", r.name))
            return body(o, *args)

        r.body = logged_body

    for cl in spec.invariants:
        log_invariant(cl)
    for r in spec.routines.values():
        log_body(r)
        for phase, preds in (("pre", r.pre), ("post", r.post), ("frame", r.frame_preds)):
            for p in preds:
                log_pred(p, phase)
    return events


# --- protocol ordering and flags -----------------------------------------


def test_event_order_covers_all_phases():
    # entry invariants, body, exit invariants, postconditions, frames; every
    # invariant sees the target closed, so its flag is restored before the
    # exit invariants run
    eng, co, spec = fresh()
    events = logged(spec)
    out = eng.checked_call(co, spec.routines["push"], (3,))
    assert not out.violations
    assert [e[:2] for e in events] == [
        ("invariant", "index_bounds"),
        ("invariant", "peer_link"),
        ("body", "push"),
        ("invariant", "index_bounds"),
        ("invariant", "peer_link"),
        ("post", "appended"),
        ("frame", "unchanged:target.index"),
    ]
    assert {e[2:] for e in events if e[0] == "invariant"} == {(co.concrete, False)}


def test_pre_events_sit_between_entry_and_body():
    eng, co, spec = fresh()
    events = logged(spec)
    eng.checked_call(co, spec.routines["set_index"], (0,))
    phases = [e[0] for e in events]
    assert phases[:4] == ["invariant", "invariant", "pre", "body"]
    assert phases.count("pre") == 1


def test_is_open_restored_after_normal_and_failing_calls():
    eng, co, spec = fresh()
    assert co.is_open is False
    eng.checked_call(co, spec.routines["push"], (1,))
    assert co.is_open is False
    eng.checked_call(co, spec.routines["push_and_drift"], (1,))  # frame violation
    assert co.is_open is False
    eng.checked_call(co, spec.routines["crashy"], ())
    assert co.is_open is False


def test_call_back_on_an_open_target_checks_no_invariant_and_leaves_it_open():
    # the body of a call on co makes a checked call back on co: co is open,
    # so that call runs no entry or exit invariant and leaves co open
    eng, co, spec = fresh()
    events = logged(spec)
    seen = {}

    def call_back(o):
        start = len(events)
        inner = eng.checked_call(co, spec.routines["push"], (1,))
        seen["inner"] = [e[:2] for e in events[start:]]
        seen["violations"] = inner.violations
        seen["open"] = co.is_open

    spec.routines["noop"].body = call_back
    out = eng.checked_call(co, spec.routines["noop"], ())
    assert seen == {
        "inner": [("body", "push"), ("post", "appended"), ("frame", "unchanged:target.index")],
        "violations": (),
        "open": True,
    }
    assert co.is_open is False
    # the outer call is checked in full: noop modifies nothing, yet the
    # call back changed the sequence
    assert [e[1] for e in events if e[0] == "invariant"] == ["index_bounds", "peer_link"] * 2
    assert [(v.kind, v.clause, v.obj) for v in out.violations] == [
        (FRAME, "unchanged:target.sequence", co)
    ]


def test_direct_mutation_between_calls_is_seen_at_the_next_entry():
    # each call evaluates its entry models afresh, so a change made outside
    # any checked call shows at the next one
    eng, co, spec = fresh()
    assert not eng.checked_call(co, spec.routines["noop"], ()).violations
    co.concrete.index = -5
    out = eng.checked_call(co, spec.routines["noop"], ())
    assert [(v.kind, v.clause) for v in out.violations] == [(INVARIANT_ENTRY, "index_bounds")]


# --- preconditions --------------------------------------------------------


def test_precondition_violation_blames_caller_and_skips_body():
    eng, co, spec = fresh()
    out = eng.checked_call(co, spec.routines["set_index"], (5,))
    assert out.invalid is True
    assert [v.kind for v in out.violations] == [PRECONDITION]
    v = out.violations[0]
    assert v.blame == CALLER
    assert v.clause == "in_range"
    assert co.concrete.index == 0  # the body would have set it to 5


def test_entry_invariant_checked_before_precondition():
    eng, co, spec = fresh()
    # corrupt silently, then call a routine whose precondition would also fail
    co.concrete.index = -5
    out = eng.checked_call(co, spec.routines["set_index"], (99,))
    kinds = [v.kind for v in out.violations]
    assert kinds == [INVARIANT_ENTRY]
    assert co.concrete.index == -5  # the body would have set it to 99
    assert out.invalid is False


def test_exit_state_read_in_precondition_is_a_model_eval_error():
    eng, co, spec = fresh()
    peek = RoutineSpec(
        "peek",
        [],
        lambda o: o.items.append(0),
        pre=[pred("reads_exit", lambda ctx: ctx.now("index") is not None)],
        modify=(),
    )
    out = eng.checked_call(co, peek, ())
    assert [(v.kind, v.clause) for v in out.violations] == [(MODEL_EVAL_ERROR, "reads_exit")]
    assert out.violations[0].detail == repr(
        ModelEvalError("exit state is not available in a precondition")
    )
    assert co.concrete.items == [] and out.invalid is False


# --- snapshot -------------------------------------------------------------


def test_snapshot_is_eager():
    # the postcondition reads the pre-state models after the body ran
    eng, co, spec = fresh()
    events = logged(spec)
    co.concrete.items.extend([4, 5])
    out = eng.checked_call(co, spec.routines["push"], (6,))
    assert not out.violations
    (ctx,) = [e[2] for e in events if e[0] == "post"]
    assert ctx.old("sequence") == V.sequence([4, 5])
    assert ctx.old("index") == 0
    # body mutation did not bleed into the snapshot
    assert ctx.now("sequence") == V.sequence([4, 5, 6])
    assert co.concrete.items == [4, 5, 6]


def test_snapshot_covers_reference_arguments():
    # the body appends to the argument; the frame predicate on the
    # argument's sequence compares against the value from before the body
    spec = toy_specs()
    spec.routines["swap_index_with"].body = lambda o, p: p.items.append(1)
    events = logged(spec)
    eng = Engine()
    a = eng.create(spec)
    b = eng.create(spec)
    b.concrete.items.append(9)
    out = eng.checked_call(a, spec.routines["swap_index_with"], (b.concrete,))
    assert [(v.kind, v.clause, v.detail) for v in out.violations] == [
        (FRAME, "unchanged:arg0.sequence", "[9] -> [9, 1]")
    ]
    ctx = next(e[2] for e in events if e[0] == "frame")
    assert ctx.old("sequence", ARG0) == V.sequence([9])
    assert ctx.now("sequence", ARG0) == V.sequence([9, 1])


# --- postconditions, frames, result --------------------------------------


def test_postcondition_failure_blames_callee():
    spec = toy_specs()
    # sabotage: push body appends the wrong value
    spec.routines["push"].body = lambda o, v: o.items.append(v + 1)
    eng = Engine()
    co = eng.create(spec)
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
    co = eng.create(spec)
    out = eng.checked_call(co, spec.routines["noop"], ())
    assert [v.kind for v in out.violations] == [FRAME]


def test_unframed_routine_derives_no_frame_preds():
    spec = toy_specs(push_modify=None)
    assert spec.routines["push"].frame_preds == ()
    eng = Engine()
    co = eng.create(spec)
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


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: InvariantClause("c", lambda m, o: True, kind="ghost"), "invariant kind"),
        (lambda: Param("ghost"), "unknown param kind 'ghost'"),
        (
            lambda: ClassSpec("toy", "medium", [], [], {}, Toy),
            "level must be weak or strong",
        ),
        (
            lambda: ClassSpec(
                "toy", "strong", [ModelQuery("n", len), ModelQuery("n", len)], [], {}, Toy
            ),
            "duplicate model query names in toy",
        ),
    ],
    ids=["invariant_kind", "param_kind", "level", "duplicate_query"],
)
def test_malformed_declarations_are_spec_errors(build, message):
    with pytest.raises(SpecError, match=message):
        build()


def test_derive_frame_postconditions_enumerates_universe_minus_modify():
    spec = toy_specs()
    r = spec.routines["swap_index_with"]
    names = [p.name for p in r.frame_preds]
    assert names == ["unchanged:target.sequence", "unchanged:arg0.sequence"]
    preds = derive_frame_postconditions(r, spec)
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
    co = eng.create(spec)
    out = eng.checked_call(co, spec.routines["noop"], ())
    assert [v.kind for v in out.violations] == [MODEL_EVAL_ERROR]
    assert out.violations[0].clause == "model"


def test_model_query_raising_at_exit_skips_every_exit_check():
    # the entry state evaluates; the body breaks what the sequence query
    # reads, so only the exit models fail
    def seq_eval(o):
        if getattr(o, "broken", False):
            raise ZeroDivisionError("exit only")
        return V.sequence(o.items)

    spec = toy_specs(seq_eval=seq_eval)
    size = spec.routines["size"]
    body = size.body

    def break_then_size(o):
        o.broken = True
        return body(o)

    size.body = break_then_size
    events = logged(spec)
    eng = Engine()
    co = eng.create(spec)
    co.concrete.items = [4, 5]
    out = eng.checked_call(co, size, ())
    assert out.result == 2 and out.invalid is False
    assert [(v.kind, v.clause) for v in out.violations] == [(MODEL_EVAL_ERROR, "model")]
    assert "exit only" in out.violations[0].detail
    # no exit invariant, postcondition or frame predicate ran
    assert events[events.index(("body", "size")) + 1 :] == []


# --- depend eligibility ---------------------------------------------------


def test_depend_clause_skipped_while_attached_object_open():
    spec = toy_specs()
    eng = Engine()
    a = eng.create(spec)
    b = eng.create(spec)
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
    a = eng.create(spec)
    b = eng.create(spec)
    a.concrete.peer = b.concrete
    out = eng.checked_call(a, spec.routines["poke_peer"], ())
    nested = [v for v in out.violations if v.kind == POSTCONDITION and v.routine == "push"]
    assert len(nested) == 1 and nested[0].obj is b
    assert out.invalid is False


def test_nested_precondition_violation_is_not_invalid_at_top():
    spec = toy_specs()

    def bad_poke(o):
        co = o.peer._checked
        co.engine.checked_call(co, co.spec.routines["set_index"], (99,))

    spec.routines["poke_peer"].body = bad_poke
    eng = Engine()
    a = eng.create(spec)
    b = eng.create(spec)
    a.concrete.peer = b.concrete
    out = eng.checked_call(a, spec.routines["poke_peer"], ())
    assert any(v.kind == PRECONDITION for v in out.violations)
    assert out.invalid is False  # the generated call itself was valid


def test_guard_suppresses_checking_within_model_evaluation():
    def tricky_eval(o):
        # a model query that itself calls a public routine of its object
        co = o._checked
        co.engine.checked_call(co, co.spec.routines["push"], (1,))
        return V.sequence(o.items)

    eng, co, spec = fresh(toy_specs(seq_eval=tricky_eval))
    events = logged(spec)
    out = eng.checked_call(co, spec.routines["noop"], ())
    # the inner push body ran twice (entry eval + exit eval); none of its
    # clauses did
    assert co.concrete.items == [1, 1]
    assert [e[:2] for e in events] == [
        ("body", "push"),
        ("invariant", "index_bounds"),
        ("invariant", "peer_link"),
        ("body", "noop"),
        ("body", "push"),
        ("invariant", "index_bounds"),
        ("invariant", "peer_link"),
        ("frame", "unchanged:target.sequence"),
        ("frame", "unchanged:target.index"),
    ]
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
        seen.append((out.result, out.violations, o._checked.engine._suppress))
        return V.sequence(o.items)

    eng, a, spec = fresh(toy_specs(seq_eval=counting_eval))
    b = eng.create(spec)
    a.concrete.peer = b.concrete
    out = eng.checked_call(a, spec.routines["poke_peer"], ())
    assert not out.violations
    assert b.concrete.items == [7]
    # entry and exit models of the target, and of the peer inside the body;
    # each suppressed size call ran its body and returned its result
    assert seen == [(0, (), 1), (0, (), 1), (1, (), 1), (0, (), 1)]
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
        assert not out.violations, name
    assert co.concrete.items == [5, 6]
    assert eng._suppress == 0


def test_suppressed_crash_propagates():
    # a crash in a suppressed qualified call reaches the enclosing model
    # query or predicate and is recorded there
    def crashing_eval(o):
        qualified(o, "crashy")

    eng, co, spec = fresh(toy_specs(seq_eval=crashing_eval))
    events = logged(spec)
    out = eng.checked_call(co, spec.routines["noop"], ())
    assert [(v.kind, v.clause) for v in out.violations] == [(MODEL_EVAL_ERROR, "model")]
    assert "kaboom" in out.violations[0].detail
    assert events == [("body", "crashy")]
    assert eng._suppress == 0

    eng, co, spec = fresh()
    spec.routines["noop"].pre = (
        pred("calls_crashy", lambda ctx: qualified(ctx.obj, "crashy")),
    )
    events = logged(spec)
    out = eng.checked_call(co, spec.routines["noop"], ())
    assert [(v.kind, v.clause) for v in out.violations] == [
        (MODEL_EVAL_ERROR, "calls_crashy")
    ]
    assert [e[1] for e in events if e[0] == "body"] == ["crashy"]
    assert eng._suppress == 0


def _model_error_at_entry(spec, co):
    co.concrete.model_fails = True
    return "noop", (), (MODEL_EVAL_ERROR, "model"), False


def _model_error_at_exit(spec, co):
    spec.routines["noop"].body = lambda o: setattr(o, "model_fails", True)
    return "noop", (), (MODEL_EVAL_ERROR, "model"), True


def _entry_invariant_violation(spec, co):
    co.concrete.index = -5
    return "noop", (), (INVARIANT_ENTRY, "index_bounds"), False


def _exit_invariant_violation(spec, co):
    return "corrupt_then_push", (1,), (INVARIANT_EXIT, "index_bounds"), True


def _false_precondition(spec, co):
    return "set_index", (5,), (PRECONDITION, "in_range"), False


def _raising_precondition(spec, co):
    spec.routines["noop"].pre = (pred("divides", lambda ctx: 1 // 0),)
    return "noop", (), (MODEL_EVAL_ERROR, "divides"), False


def _body_crash(spec, co):
    return "crashy", (), (MODEL_EVAL_ERROR, "crash"), True


def _clean_call(spec, co):
    return "push", (1,), None, True


def _call_back_on_an_open_target(spec, co):
    # the call back is checked without invariants; noop modifies nothing
    spec.routines["noop"].body = lambda o: qualified(o, "push", 1)
    return "noop", (), (FRAME, "unchanged:target.sequence"), True


@pytest.mark.parametrize(
    "case",
    [
        _model_error_at_entry,
        _model_error_at_exit,
        _entry_invariant_violation,
        _exit_invariant_violation,
        _false_precondition,
        _raising_precondition,
        _body_crash,
        _clean_call,
        _call_back_on_an_open_target,
    ],
    ids=lambda case: case.__name__.lstrip("_"),
)
def test_guard_is_up_in_every_check_and_down_after_every_exit(case):
    # the guard is raised in every model query and clause, down in the body,
    # where a qualified call on another object is checked, and down again
    # however the call ends
    def seq_eval(o):
        if getattr(o, "model_fails", False):
            raise ZeroDivisionError("model")
        return V.sequence(o.items)

    eng, co, spec = fresh(toy_specs(seq_eval=seq_eval))
    peer = eng.create(spec)
    rname, args, expected, body_runs = case(spec, co)
    routine = spec.routines[rname]
    guards, in_body = [], []

    def noting(fn):
        def noted(*a):
            guards.append(eng._suppress)
            return fn(*a)

        return noted

    for q in spec.model:
        q.evaluate = noting(q.evaluate)
    for cl in spec.invariants:
        cl.fn = noting(cl.fn)
    for r in spec.routines.values():
        for p in (*r.pre, *r.post, *r.frame_preds):
            p.fn = noting(p.fn)
    body = routine.body

    def body_with_peer_call(o, *a):
        in_body.append(eng._suppress)
        qualified(peer.concrete, "set_index", 99)  # its precondition fails
        return body(o, *a)

    routine.body = body_with_peer_call
    out = eng.checked_call(co, routine, args)
    assert eng._suppress == 0
    assert guards and min(guards) >= 1
    assert in_body == ([0] if body_runs else [])
    on_target = [(v.kind, v.clause) for v in out.violations if v.obj is co]
    assert on_target == ([expected] if expected else [])
    on_peer = [(v.kind, v.routine, v.clause) for v in out.violations if v.obj is peer]
    assert on_peer == ([(PRECONDITION, "set_index", "in_range")] if body_runs else [])


def test_depend_invariant_gated_through_the_protocol():
    # b's body calls a.push while b is open: on a, the depend clause
    # peer_link is skipped and the plain clause index_bounds still runs, at
    # entry and at exit
    spec = toy_specs()
    events = logged(spec)
    eng = Engine()
    a = eng.create(spec)
    b = eng.create(spec)
    a.concrete.peer = b.concrete
    b.concrete.peer = a.concrete
    b.concrete.link_ok = False  # peer_link on a is false while it is checked
    out = eng.checked_call(b, spec.routines["poke_peer"], ())
    assert not out.violations
    assert a.concrete.items == [7]
    A, B = a.concrete, b.concrete
    assert [e[:3] for e in events if e[0] in ("invariant", "body")] == [
        ("invariant", "index_bounds", B),
        ("invariant", "peer_link", B),
        ("body", "poke_peer"),
        ("invariant", "index_bounds", A),
        ("body", "push"),
        ("invariant", "index_bounds", A),
        ("invariant", "index_bounds", B),
        ("invariant", "peer_link", B),
    ]
    # with b closed, the clause runs on a again
    out = eng.checked_call(a, spec.routines["noop"], ())
    assert [(v.kind, v.clause) for v in out.violations] == [(INVARIANT_ENTRY, "peer_link")]


# --- check plans and instrumentation --------------------------------------

CLAUSE_LAYERS = ("model", "invariant", "pre", "post", "frame")


def _instrument(spec, counts, wrapped):
    """Wrap every model query's ``evaluate`` and every clause's ``fn`` of an
    already built spec with a counter, as the benchmark's tracer does; a
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
    # through the object at call time, never a function kept from the build:
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
