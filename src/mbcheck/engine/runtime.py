"""The checked-call runtime.

`Engine.checked_call` wraps one routine invocation with the full checking
protocol. It reads the routine's clause tuples and argument positions at call
time, and the frame predicates that `engine.specs.bind` derived:

1. pre-state models of the frame universe (every model query of the target
   and of each reference argument), which double as the snapshot,
2. entry invariant check on the target (only if it is closed),
3. precondition check (a violation aborts before the body; the harness treats
   a top-level precondition violation as an invalid test case, not a fault),
4. save + set the is_open flag on the target and open-listed arguments,
5. body execution (internal unqualified calls are plain Python calls and are
   never re-instrumented; qualified calls on other checked objects re-enter
   `checked_call`),
6. restore the saved is_open flags, last saved first,
7. exit invariant check on the target and on opened arguments,
8. postconditions against the snapshot,
9. derived frame predicates.

One loop, `Engine._check`, evaluates the clauses of every phase. It raises
the re-entrancy guard ``_suppress`` once for the whole phase, so clauses and
model queries may freely call public routines of their own object unchecked.
A false clause is a violation of the phase's kind; a raising one is recorded
as kind ``model_eval_error`` on that clause. Preconditions stop at the first
violation; the other phases record every clause. An invariant that declares
``depend`` is skipped while an attached object is open; only a class with
such a clause (``ClassSpec.depend_gated``) pays for that test.

First-failure rules: a model evaluation error or an entry-invariant violation
aborts the call before the precondition check and body; an exit-invariant
violation suppresses the postcondition and frame checks. A body exception is
recorded as a violation of kind ``model_eval_error`` with clause ``crash``.
"""

from __future__ import annotations

from mbcheck.errors import ModelEvalError
from mbcheck.engine.specs import NO_EXIT_STATE, TARGET
from mbcheck.values import as_int, mv_repr, object_id

PRECONDITION = "precondition"
INVARIANT_ENTRY = "invariant_entry"
INVARIANT_EXIT = "invariant_exit"
POSTCONDITION = "postcondition"
FRAME = "frame"
MODEL_EVAL_ERROR = "model_eval_error"

KINDS = (
    PRECONDITION,
    INVARIANT_ENTRY,
    INVARIANT_EXIT,
    POSTCONDITION,
    FRAME,
    MODEL_EVAL_ERROR,
)

CALLER = "caller"
CALLEE = "callee"


class Violation:
    __slots__ = ("kind", "class_name", "routine", "clause", "blame", "ordinal", "token", "detail")

    def __init__(self, kind, class_name, routine, clause, blame, ordinal, token, detail=""):
        self.kind = kind
        self.class_name = class_name
        self.routine = routine
        self.clause = clause
        self.blame = blame
        self.ordinal = ordinal
        self.token = token
        self.detail = detail

    def key(self):
        return (self.class_name, self.routine, self.clause, self.kind)

    def __repr__(self):
        return "Violation(%s %s.%s:%s @%d)" % (
            self.kind,
            self.class_name,
            self.routine,
            self.clause,
            self.ordinal,
        )


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


class ModelSnapshot:
    """Eagerly captured pre-state: (object token, query name) -> model value."""

    __slots__ = ("entries", "routine", "ordinal")

    def __init__(self, entries, routine, ordinal):
        self.entries = entries
        self.routine = routine
        self.ordinal = ordinal


class CallOutcome:
    __slots__ = ("result", "violations", "invalid", "body_ran")

    def __init__(self, result, violations, invalid, body_ran):
        self.result = result
        self.violations = violations
        self.invalid = invalid
        self.body_ran = body_ran


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


class CallCtx:
    """Evaluation context handed to pre/post/frame predicates.

    ``old``/``now`` read model values by query name and role; ``*_int``
    variants also resolve derived attribute names through the binding's
    derivation map. ``attr`` reads a live concrete attribute of the target
    (pre-state when evaluated in preconditions, post-state afterwards).
    """

    __slots__ = (
        "engine",
        "co",
        "routine",
        "args",
        "arg_cos",
        "entry_models",
        "exit_models",
        "result",
    )

    def __init__(self, engine, co, routine, args, arg_cos, entry_models):
        self.engine = engine
        self.co = co
        self.routine = routine
        self.args = args
        self.arg_cos = arg_cos
        self.entry_models = entry_models
        self.exit_models = None
        self.result = None

    # --- role plumbing ---

    def _models_for(self, models, role):
        idx = self.routine.role_index[role]
        m = models.get(idx)
        if m is None:
            raise ModelEvalError("no model state for role %s" % role)
        return m, idx

    def _spec_for(self, idx):
        return self.co.spec if idx == -1 else self.arg_cos[idx].spec

    def _resolve(self, models, qname, role):
        m, idx = self._models_for(models, role)
        v = m.get(qname)
        if v is not None:
            return v
        spec = self._spec_for(idx)
        deriv = spec.attr_derivations.get(qname)
        if deriv is None:
            raise ModelEvalError(
                "%s is neither a model query nor a derived attribute of %s"
                % (qname, spec.name)
            )
        return deriv(m)

    # --- model access ---

    def old(self, qname, role=TARGET):
        m, _ = self._models_for(self.entry_models, role)
        v = m.get(qname)
        if v is None:
            raise ModelEvalError("%s is not a model query of role %s" % (qname, role))
        return v

    def now(self, qname, role=TARGET):
        if self.exit_models is None:
            raise ModelEvalError(NO_EXIT_STATE)
        m, _ = self._models_for(self.exit_models, role)
        v = m.get(qname)
        if v is None:
            raise ModelEvalError("%s is not a model query of role %s" % (qname, role))
        return v

    def old_int(self, qname, role=TARGET):
        v = self._resolve(self.entry_models, qname, role)
        return as_int(v) if type(v) is tuple else v

    def now_int(self, qname, role=TARGET):
        if self.exit_models is None:
            raise ModelEvalError(NO_EXIT_STATE)
        v = self._resolve(self.exit_models, qname, role)
        return as_int(v) if type(v) is tuple else v

    # --- concrete access (not available on abstract states) ---

    @property
    def obj(self):
        return self.co.concrete

    def attr(self, name):
        return getattr(self.co.concrete, name)

    def arg_attr(self, k, name):
        return getattr(self.args[k], name)

    # --- arguments and identity ---

    def arg(self, k):
        return self.args[k]

    def arg_is_void(self, k):
        return self.args[k] is None

    def arg_is_target(self, k):
        return self.args[k] is self.co.concrete

    def self_id(self):
        return object_id(self.co.token)

    def arg_id(self, k):
        a = self.arg_cos[k]
        return object_id(a.token) if a is not None else object_id(0)


class Engine:
    """Owns object identity, the re-entrancy guard, and the call protocol.

    ``hook``, when set, receives one tuple per protocol event; used by tests
    to observe ordering and per-clause evaluation counts.
    """

    __slots__ = ("_next_token", "_objects", "_suppress", "_ordinal", "_sink", "hook")

    def __init__(self, hook=None):
        self._next_token = 1
        self._objects = {}
        self._suppress = 0
        self._ordinal = 0
        self._sink = None
        self.hook = hook

    # --- object identity ---

    def register(self, concrete, spec):
        token = self._next_token
        self._next_token = token + 1
        co = CheckedObject(token, concrete, spec, self)
        self._objects[token] = co
        concrete._checked = co
        return co

    def create(self, spec):
        return self.register(spec.make(), spec)

    def object_by_token(self, token):
        return self._objects[token]

    # --- the protocol ---

    def call(self, co, routine_name, *args):
        return self.checked_call(co, co.spec.routines[routine_name], args)

    def checked_call(self, co, routine, args=()):
        if self._suppress:
            return CallOutcome(routine.body(co.concrete, *args), (), False, True)

        self._ordinal = ordinal = self._ordinal + 1
        co.calls += 1
        sink = self._sink
        is_top = sink is None
        if is_top:
            sink = self._sink = []
        start = len(sink)
        try:
            return self._protocol(co, routine, args, ordinal, sink, start)
        finally:
            if is_top:
                self._sink = None

    def _frame_models(self, co, rname, refs, arg_cos, sink, ordinal):
        """Model maps of the frame universe: the target's under key -1 and
        each present reference argument's under its position, evaluated with
        checking suppressed. On failure, records a ``model_eval_error`` on
        clause ``model`` and returns None."""
        self._suppress += 1
        try:
            models = {-1: _model_map(co)}
            for k in refs:
                aco = arg_cos[k]
                if aco is not None:
                    models[k] = _model_map(aco)
            return models
        except Exception as e:
            sink.append(_violation(MODEL_EVAL_ERROR, co, rname, "model", ordinal, repr(e)))
            return None
        finally:
            self._suppress -= 1

    def _check(self, clauses, fnargs, kind, co, rname, ordinal, sink, first=False):
        """Evaluate one phase's clauses on ``co``, with checking suppressed
        once for the whole phase.

        ``fnargs`` is what each clause's ``fn`` takes: ``(model map, object)``
        for an invariant, ``(ctx,)`` for a predicate. A false clause records a
        violation of ``kind``; a raising one records a ``model_eval_error``.
        The phase stops at its first violation when ``first`` is set and goes
        on otherwise. Returns the kind of the last violation recorded, or
        None when every clause held.
        """
        hook = self.hook
        failed = None
        self._suppress += 1
        try:
            for cl in clauses:
                if hook is not None:
                    hook(_event(kind, co, cl))
                try:
                    ok = cl.fn(*fnargs)
                except Exception as e:
                    failed = MODEL_EVAL_ERROR
                    sink.append(_violation(failed, co, rname, cl.name, ordinal, repr(e)))
                else:
                    if ok:
                        continue
                    failed = kind
                    detail = _frame_detail(cl, fnargs[0]) if kind == FRAME else ""
                    sink.append(_violation(kind, co, rname, cl.name, ordinal, detail))
                if first:
                    break
        finally:
            self._suppress -= 1
        return failed

    def _protocol(self, co, routine, args, ordinal, sink, start):
        hook = self.hook
        rname = routine.name
        refs = routine.ref_params

        # reference-argument wrappers
        arg_cos = [None] * len(args)
        for k in refs:
            a = args[k]
            if a is not None:
                arg_cos[k] = a._checked

        # pre-state models for the whole frame universe (doubles as snapshot)
        entry_models = self._frame_models(co, rname, refs, arg_cos, sink, ordinal)
        if entry_models is None:
            return CallOutcome(None, tuple(sink[start:]), False, False)

        # (1) entry invariants, target only, only when closed
        if not co.is_open and self._check(
            _eligible_invariants(co),
            (entry_models[-1], co.concrete),
            INVARIANT_ENTRY,
            co,
            rname,
            ordinal,
            sink,
        ):
            return CallOutcome(None, tuple(sink[start:]), False, False)

        # (2) preconditions; first failing clause aborts
        ctx = CallCtx(self, co, routine, args, arg_cos, entry_models)
        if routine.pre:
            failed = self._check(routine.pre, (ctx,), PRECONDITION, co, rname, ordinal, sink, True)
            if failed:
                return CallOutcome(None, tuple(sink[start:]), failed == PRECONDITION, False)

        # (3) snapshot: entry_models rekeyed by object identity; only the hook
        # reads it
        if hook is not None:
            snap_entries = {}
            for idx, m in entry_models.items():
                t = co.token if idx == -1 else arg_cos[idx].token
                for qn, val in m.items():
                    snap_entries[(t, qn)] = val
            hook(("snapshot", rname, ModelSnapshot(snap_entries, rname, ordinal)))

        # (4) open the target and open-listed arguments
        saved = [(co, co.is_open)]
        co.is_open = True
        for k in routine.open_args:
            aco = arg_cos[k]
            if aco is not None:
                saved.append((aco, aco.is_open))
                aco.is_open = True

        # (5) body, (6) restore
        if hook is not None:
            hook(("body", rname))
        try:
            result = routine.body(co.concrete, *args)
        except Exception as e:
            sink.append(_violation(MODEL_EVAL_ERROR, co, rname, "crash", ordinal, repr(e)))
            return CallOutcome(None, tuple(sink[start:]), False, True)
        finally:
            # in reverse, so a target that is also an opened argument ends
            # with its own saved flag
            for o, flag in reversed(saved):
                o.is_open = flag
            if hook is not None:
                hook(("restore", rname))

        # post-state models
        exit_models = self._frame_models(co, rname, refs, arg_cos, sink, ordinal)
        if exit_models is None:
            return CallOutcome(result, tuple(sink[start:]), False, True)

        # (7) exit invariants: target plus opened arguments
        exit_failed = not co.is_open and self._check(
            _eligible_invariants(co),
            (exit_models[-1], co.concrete),
            INVARIANT_EXIT,
            co,
            rname,
            ordinal,
            sink,
        )
        for k in routine.open_args:
            aco = arg_cos[k]
            if (
                aco is not None
                and not aco.is_open
                and self._check(
                    _eligible_invariants(aco),
                    (exit_models[k], aco.concrete),
                    INVARIANT_EXIT,
                    aco,
                    rname,
                    ordinal,
                    sink,
                )
            ):
                exit_failed = True
        if exit_failed:
            # first-failure: a broken exit invariant makes postcondition and
            # frame reports noise, so they are suppressed
            return CallOutcome(result, tuple(sink[start:]), False, True)

        # (8) postconditions, (9) derived frame predicates
        ctx.exit_models = exit_models
        ctx.result = result
        fnargs = (ctx,)
        if routine.post:
            self._check(routine.post, fnargs, POSTCONDITION, co, rname, ordinal, sink)
        if routine.frame_preds:
            self._check(routine.frame_preds, fnargs, FRAME, co, rname, ordinal, sink)

        return CallOutcome(result, tuple(sink[start:]), False, True)


# hook event of each clause phase; invariant events also carry the token of
# the object checked
_EVENTS = {
    INVARIANT_ENTRY: "entry_clause",
    INVARIANT_EXIT: "exit_clause",
    PRECONDITION: "pre",
    POSTCONDITION: "post",
    FRAME: "frame",
}


def _event(kind, co, clause):
    if kind == INVARIANT_ENTRY or kind == INVARIANT_EXIT:
        return (_EVENTS[kind], co.token, clause.name)
    return (_EVENTS[kind], clause.name)


def _violation(kind, co, routine_name, clause_name, ordinal, detail=""):
    """The protocol's one violation constructor: blame falls on the caller
    for a precondition and on the callee for every other kind."""
    blame = CALLER if kind == PRECONDITION else CALLEE
    return Violation(
        kind, co.spec.name, routine_name, clause_name, blame, ordinal, co.token, detail
    )


def _frame_detail(pred, ctx):
    idx, qname = pred.frame_info
    return "%s -> %s" % (
        mv_repr(ctx.entry_models[idx][qname]),
        mv_repr(ctx.exit_models[idx][qname]),
    )


def _model_map(co):
    # a plain loop: on this path a dict comprehension's extra frame costs
    # more than the loop itself
    obj = co.concrete
    m = {}
    for q in co.spec.model:
        m[q.name] = q.evaluate(obj)
    return m


def _eligible_invariants(co):
    """The invariant clauses checkable on the closed object ``co`` now."""
    spec = co.spec
    if not spec.depend_gated:
        return spec.invariants
    eligible = []
    for cl in spec.invariants:
        if not cl.depend or invariant_clause_eligible(cl, co):
            eligible.append(cl)
    return eligible
