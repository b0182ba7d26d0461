"""The checked-call runtime.

`Engine.checked_call` wraps one routine invocation with the full checking
protocol. It reads the routine's clause tuples and argument positions at call
time, and the frame predicates derived when its `ClassSpec` was built:

1. pre-state models of the frame universe (every model query of the target
   and of each reference argument), taken eagerly before the body; the
   postconditions and frame predicates read them as the old state,
2. entry invariant check on the target (only if it is closed),
3. precondition check (a violation aborts before the body; the harness treats
   a top-level precondition violation as an invalid test case, not a fault),
4. save the target's is_open flag and set it,
5. body execution (internal unqualified calls are plain Python calls and are
   never re-instrumented; qualified calls on other checked objects re-enter
   `checked_call`),
6. restore the target's saved flag,
7. exit invariant check on the target, only if it was closed before the call
   (a call made back on an open target, from inside its own body, checks no
   invariant at either end),
8. postconditions against the pre-state models,
9. derived frame predicates.

The re-entrancy guard ``_suppress`` goes up once as the protocol starts and
down only around the body (so qualified calls the body makes are checked);
one ``finally`` lowers it on every exit. Model queries and clauses thus run
with it raised and may freely call public routines of their own object
unchecked. One loop, `Engine._check`, evaluates the clauses of every phase.
A false clause is a violation of the phase's kind; a raising one is recorded
as kind ``model_eval_error`` on that clause. Preconditions stop at the first
violation; the other phases record every clause. An invariant that declares
``depend`` is skipped while an attached object is open; only a class with
such a clause (``ClassSpec.depend_gated``) looks at its attached objects,
once per check, and it tests the clauses one by one only while one of them
is open.

First-failure rules: a model evaluation error or an entry-invariant violation
aborts the call before the precondition check and body; an exit-invariant
violation suppresses the postcondition and frame checks. A body exception is
recorded as a violation of kind ``model_eval_error`` with clause ``crash``.
"""

from __future__ import annotations

from mbcheck.engine.specs import TARGET, ModelCtx
from mbcheck.values import mv_repr, object_id

PRECONDITION = "precondition"
INVARIANT_ENTRY = "invariant_entry"
INVARIANT_EXIT = "invariant_exit"
POSTCONDITION = "postcondition"
FRAME = "frame"
MODEL_EVAL_ERROR = "model_eval_error"

CALLER = "caller"
CALLEE = "callee"


class Violation:
    """One failed clause. ``obj`` is the ``CheckedObject`` it was checked
    on: the target of the call whose clause failed."""

    __slots__ = ("kind", "class_name", "routine", "clause", "blame", "obj", "detail")

    def __init__(self, kind, class_name, routine, clause, blame, obj, detail=""):
        self.kind = kind
        self.class_name = class_name
        self.routine = routine
        self.clause = clause
        self.blame = blame
        self.obj = obj
        self.detail = detail

    def key(self):
        return (self.class_name, self.routine, self.clause, self.kind)

    def __repr__(self):
        return "Violation(%s %s.%s:%s)" % (self.kind, self.class_name, self.routine, self.clause)


class CheckedObject:
    """Identity wrapper around a concrete object under checking."""

    __slots__ = ("token", "concrete", "spec", "is_open", "engine", "calls")

    def __init__(self, token, concrete, spec, engine):
        self.token = token
        self.concrete = concrete
        self.spec = spec
        self.is_open = False
        self.engine = engine
        self.calls = 0

    def __repr__(self):
        return "<%s #%d%s>" % (self.spec.name, self.token, " open" if self.is_open else "")


class CallOutcome:
    __slots__ = ("result", "violations", "invalid")

    def __init__(self, result, violations, invalid):
        self.result = result
        self.violations = violations
        self.invalid = invalid


def invariant_clause_eligible(clause, co):
    """True iff the clause may be checked on ``co`` right now: the object is
    closed and every ``depend`` attribute's attached object is absent or
    closed."""
    if co.is_open:
        return False
    obj = co.concrete
    for attr in clause.depend:
        other = getattr(obj, attr)
        if other is None:
            continue
        oc = getattr(other, "_checked", None)
        if oc is not None and oc.is_open:
            return False
    return True


class CallCtx(ModelCtx):
    """Evaluation context handed to pre/post/frame predicates at run time.

    The model accessors come from ``ModelCtx``; every role's spec is the
    target's, and the model maps are keyed by role name. ``obj`` is the
    live target (its pre-state in a precondition, its post-state
    afterwards), and ``self_id``/``arg_id`` give object identities as model
    values.
    """

    __slots__ = ("co",)

    def __init__(self, co, args, entry_models):
        self.co = co
        self.spec = co.spec
        self.args = args
        self.entry_models = entry_models
        self.exit_models = None
        self.result = None

    @property
    def obj(self):
        return self.co.concrete

    def arg_is_target(self, k):
        return self.args[k] is self.co.concrete

    def self_id(self):
        return object_id(self.co.token)

    def arg_id(self, k):
        a = self.args[k]
        return object_id(a._checked.token) if a is not None else object_id(0)


class Engine:
    """Owns object identity, the re-entrancy guard, and the call protocol.

    The protocol reaches every query's ``evaluate``, every clause's ``fn``
    and every routine's ``body`` through the spec at call time, so tests and
    the benchmark tracer observe it by wrapping those callables.
    """

    __slots__ = ("_next_token", "_objects", "_suppress", "_sink")

    def __init__(self):
        self._next_token = 1
        self._objects = {}
        self._suppress = 0
        self._sink = None

    # --- object identity ---

    def create(self, spec):
        concrete = spec.make()
        token = self._next_token
        self._next_token = token + 1
        co = CheckedObject(token, concrete, spec, self)
        self._objects[token] = co
        concrete._checked = co
        return co

    def object_by_token(self, token):
        return self._objects[token]

    # --- the protocol ---

    def call(self, co, routine_name, *args):
        return self.checked_call(co, co.spec.routines[routine_name], args)

    def checked_call(self, co, routine, args=()):
        if self._suppress:
            return CallOutcome(routine.body(co.concrete, *args), (), False)

        co.calls += 1
        sink = self._sink
        if sink is None:
            sink = self._sink = []
            try:
                result, invalid = self._protocol(co, routine, args, sink)
            finally:
                self._sink = None
            return CallOutcome(result, tuple(sink) if sink else (), invalid)
        # nested in a checked body: the outcome holds this call's violations
        start = len(sink)
        result, invalid = self._protocol(co, routine, args, sink)
        return CallOutcome(result, tuple(sink[start:]), invalid)

    def _frame_models(self, co, routine, args, sink):
        """Model maps of the frame universe, keyed by role name: the
        target's and each present reference argument's, evaluated under the
        caller's guard. On failure, records a ``model_eval_error`` on clause
        ``model`` and returns None."""
        try:
            models = {TARGET: _model_map(co)}
            for k, role in routine.ref_roles:
                a = args[k]
                if a is not None:
                    models[role] = _model_map(a._checked)
            return models
        except Exception as e:
            sink.append(_violation(MODEL_EVAL_ERROR, co, routine.name, "model", repr(e)))
            return None

    def _check(self, clauses, fnargs, kind, co, rname, sink, first=False):
        """Evaluate one phase's clauses on ``co`` under the caller's guard.

        ``fnargs`` is what each clause's ``fn`` takes: ``(model map, object)``
        for an invariant, ``(ctx,)`` for a predicate. A false clause records a
        violation of ``kind``; a raising one records a ``model_eval_error``.
        The phase stops at its first violation when ``first`` is set and goes
        on otherwise. Returns the kind of the last violation recorded, or
        None when every clause held.
        """
        failed = None
        for cl in clauses:
            try:
                ok = cl.fn(*fnargs)
            except Exception as e:
                failed = MODEL_EVAL_ERROR
                sink.append(_violation(failed, co, rname, cl.name, repr(e)))
            else:
                if ok:
                    continue
                failed = kind
                detail = _frame_detail(cl, fnargs[0]) if kind == FRAME else ""
                sink.append(_violation(kind, co, rname, cl.name, detail))
            if first:
                break
        return failed

    def _protocol(self, co, routine, args, sink):
        """Run the protocol's phases, appending violations to ``sink``.
        Returns ``(result, invalid)``; ``invalid`` is true when a
        precondition rejected the call. Entered with the guard down, it
        holds the guard up in every phase but the body."""
        rname = routine.name
        self._suppress = 1
        try:
            # (1) pre-state models for the whole frame universe
            entry_models = self._frame_models(co, routine, args, sink)
            if entry_models is None:
                return None, False

            # (2) entry invariants, target only, only when closed; the flag
            # is saved here for steps 4, 6 and 7
            was_open = co.is_open
            spec = co.spec
            if not was_open and spec.invariants and self._check(
                _eligible_invariants(spec, co) if spec.depend_gated else spec.invariants,
                (entry_models[TARGET], co.concrete), INVARIANT_ENTRY, co, rname, sink,
            ):
                return None, False

            # (3) preconditions; first failing clause aborts
            ctx = CallCtx(co, args, entry_models)
            if routine.pre:
                failed = self._check(routine.pre, (ctx,), PRECONDITION, co, rname, sink, True)
                if failed:
                    return None, failed == PRECONDITION

            # (4) open the target, (5) body with the guard down, (6) its flag
            co.is_open = True
            self._suppress = 0
            try:
                result = routine.body(co.concrete, *args)
            except Exception as e:
                sink.append(_violation(MODEL_EVAL_ERROR, co, rname, "crash", repr(e)))
                return None, False
            finally:
                co.is_open = was_open
            self._suppress = 1

            # post-state models
            exit_models = self._frame_models(co, routine, args, sink)
            if exit_models is None:
                return result, False

            # (7) exit invariants, target only, only when it was closed
            if not was_open and spec.invariants and self._check(
                _eligible_invariants(spec, co) if spec.depend_gated else spec.invariants,
                (exit_models[TARGET], co.concrete), INVARIANT_EXIT, co, rname, sink,
            ):
                # first-failure: a broken exit invariant makes postcondition
                # and frame reports noise, so they are suppressed
                return result, False

            # (8) postconditions, (9) derived frame predicates
            ctx.exit_models = exit_models
            ctx.result = result
            fnargs = (ctx,)
            if routine.post:
                self._check(routine.post, fnargs, POSTCONDITION, co, rname, sink)
            if routine.frame_preds:
                self._check(routine.frame_preds, fnargs, FRAME, co, rname, sink)

            return result, False
        finally:
            self._suppress = 0


def _violation(kind, co, routine_name, clause_name, detail=""):
    """The protocol's one violation constructor: blame falls on the caller
    for a precondition and on the callee for every other kind."""
    blame = CALLER if kind == PRECONDITION else CALLEE
    return Violation(kind, co.spec.name, routine_name, clause_name, blame, co, detail)


def _frame_detail(pred, ctx):
    role, qname = pred.frame_info
    return "%s -> %s" % (
        mv_repr(ctx.entry_models[role][qname]),
        mv_repr(ctx.exit_models[role][qname]),
    )


def _model_map(co):
    # a plain loop: on this path a dict comprehension's extra frame costs
    # more than the loop itself
    obj = co.concrete
    m = {}
    for q in co.spec.model:
        m[q.name] = q.evaluate(obj)
    return m


def _eligible_invariants(spec, co):
    """The invariant clauses of ``spec`` checkable on the closed object
    ``co`` now: every one unless an object attached through one of
    ``spec.depend_attrs`` is open, and then those that
    ``invariant_clause_eligible`` admits."""
    obj = co.concrete
    for attr in spec.depend_attrs:
        other = getattr(obj, attr)
        if other is None:
            continue
        oc = getattr(other, "_checked", None)
        if oc is not None and oc.is_open:
            return [
                cl for cl in spec.invariants if not cl.depend or invariant_clause_eligible(cl, co)
            ]
    return spec.invariants
