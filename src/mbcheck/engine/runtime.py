"""The checked-call runtime.

`Engine.checked_call` wraps one routine invocation with the full checking
protocol:

1. entry invariant check on the target (only if it is closed),
2. precondition check (a violation aborts before the body; the harness treats
   a top-level precondition violation as an invalid test case, not a fault),
3. eager snapshot of the frame universe (every model query of the target and
   of each reference argument),
4. save + set the is_open flag on the target and open-listed arguments,
5. body execution (internal unqualified calls are plain Python calls and are
   never re-instrumented; qualified calls on other checked objects re-enter
   `checked_call`),
6. restore the saved is_open flags,
7. exit invariant check on the target and on opened arguments,
8. postconditions against the snapshot,
9. derived frame predicates.

First-failure rules: an entry-invariant violation aborts the call before the
precondition check and body; an exit-invariant violation suppresses the
postcondition and frame checks. A body exception is recorded as a violation of
kind ``model_eval_error`` with clause ``crash``. Model evaluation and every
predicate evaluation run with contract checking suppressed (re-entrancy
guard), so model queries may freely call public routines of their own object.
"""

from __future__ import annotations

from mbcheck.errors import ModelEvalError
from mbcheck.engine.specs import TARGET
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
        m, _ = self._models_for(self.exit_models, role)
        v = m.get(qname)
        if v is None:
            raise ModelEvalError("%s is not a model query of role %s" % (qname, role))
        return v

    def old_int(self, qname, role=TARGET):
        v = self._resolve(self.entry_models, qname, role)
        return as_int(v) if type(v) is tuple else v

    def now_int(self, qname, role=TARGET):
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

    def _frame_models(self, co, routine, arg_cos, sink, ordinal):
        """Model maps of the frame universe: the target's under key -1 and
        each present reference argument's under its position, evaluated with
        checking suppressed. On failure, records a ``model_eval_error`` on
        clause ``model`` and returns None."""
        self._suppress += 1
        try:
            models = {-1: {q.name: q.evaluate(co.concrete) for q in co.spec.model}}
            for k in routine.ref_params:
                aco = arg_cos[k]
                if aco is not None:
                    models[k] = {q.name: q.evaluate(aco.concrete) for q in aco.spec.model}
            return models
        except Exception as e:
            sink.append(
                Violation(
                    MODEL_EVAL_ERROR,
                    co.spec.name,
                    routine.name,
                    "model",
                    CALLEE,
                    ordinal,
                    co.token,
                    repr(e),
                )
            )
            return None
        finally:
            self._suppress -= 1

    def _protocol(self, co, routine, args, ordinal, sink, start):
        hook = self.hook
        spec = co.spec
        cname = spec.name
        rname = routine.name
        token = co.token

        # reference-argument wrappers
        arg_cos = [None] * len(args)
        for k in routine.ref_params:
            a = args[k]
            if a is not None:
                arg_cos[k] = a._checked

        # pre-state models for the whole frame universe (doubles as snapshot)
        entry_models = self._frame_models(co, routine, arg_cos, sink, ordinal)
        if entry_models is None:
            return CallOutcome(None, tuple(sink[start:]), False, False)

        # (1) entry invariants, target only, only when closed
        if not co.is_open:
            tmodel = entry_models[-1]
            obj = co.concrete
            failed = False
            for cl in spec.invariants:
                if not invariant_clause_eligible(cl, co):
                    continue
                if hook is not None:
                    hook(("entry_clause", token, cl.name))
                self._suppress += 1
                try:
                    ok = cl.fn(tmodel, obj)
                except Exception as e:
                    sink.append(
                        Violation(
                            MODEL_EVAL_ERROR, cname, rname, cl.name, CALLEE, ordinal, token, repr(e)
                        )
                    )
                    ok, failed = True, True
                finally:
                    self._suppress -= 1
                if not ok:
                    sink.append(
                        Violation(INVARIANT_ENTRY, cname, rname, cl.name, CALLEE, ordinal, token)
                    )
                    failed = True
            if failed:
                return CallOutcome(None, tuple(sink[start:]), False, False)

        # (2) preconditions; first failing clause aborts
        ctx = CallCtx(self, co, routine, args, arg_cos, entry_models)
        for p in routine.pre:
            if hook is not None:
                hook(("pre", p.name))
            self._suppress += 1
            try:
                ok = p.fn(ctx)
            except Exception as e:
                sink.append(
                    Violation(
                        MODEL_EVAL_ERROR, cname, rname, p.name, CALLEE, ordinal, token, repr(e)
                    )
                )
                return CallOutcome(None, tuple(sink[start:]), False, False)
            finally:
                self._suppress -= 1
            if not ok:
                sink.append(Violation(PRECONDITION, cname, rname, p.name, CALLER, ordinal, token))
                return CallOutcome(None, tuple(sink[start:]), True, False)

        # (3) snapshot: entry_models rekeyed by object identity; only the hook
        # reads it
        if hook is not None:
            snap_entries = {}
            for idx, m in entry_models.items():
                t = token if idx == -1 else arg_cos[idx].token
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
        crashed = False
        result = None
        try:
            result = routine.body(co.concrete, *args)
        except Exception as e:
            crashed = True
            sink.append(
                Violation(MODEL_EVAL_ERROR, cname, rname, "crash", CALLEE, ordinal, token, repr(e))
            )
        finally:
            for o, flag in saved:
                o.is_open = flag
            if hook is not None:
                hook(("restore", rname))
        if crashed:
            return CallOutcome(None, tuple(sink[start:]), False, True)

        # post-state models
        exit_models = self._frame_models(co, routine, arg_cos, sink, ordinal)
        if exit_models is None:
            return CallOutcome(result, tuple(sink[start:]), False, True)

        # (7) exit invariants: target plus opened arguments
        to_check = []
        if not co.is_open:
            to_check.append((co, exit_models[-1]))
        for k in routine.open_args:
            aco = arg_cos[k]
            if aco is not None and not aco.is_open:
                to_check.append((aco, exit_models[k]))
        exit_failed = False
        for c_co, m in to_check:
            c_obj = c_co.concrete
            for cl in c_co.spec.invariants:
                if not invariant_clause_eligible(cl, c_co):
                    continue
                if hook is not None:
                    hook(("exit_clause", c_co.token, cl.name))
                self._suppress += 1
                try:
                    ok = cl.fn(m, c_obj)
                except Exception as e:
                    sink.append(
                        Violation(
                            MODEL_EVAL_ERROR,
                            c_co.spec.name,
                            rname,
                            cl.name,
                            CALLEE,
                            ordinal,
                            c_co.token,
                            repr(e),
                        )
                    )
                    ok, exit_failed = True, True
                finally:
                    self._suppress -= 1
                if not ok:
                    sink.append(
                        Violation(
                            INVARIANT_EXIT,
                            c_co.spec.name,
                            rname,
                            cl.name,
                            CALLEE,
                            ordinal,
                            c_co.token,
                        )
                    )
                    exit_failed = True
        if exit_failed:
            # first-failure: a broken exit invariant makes postcondition and
            # frame reports noise, so they are suppressed
            return CallOutcome(result, tuple(sink[start:]), False, True)

        # (8) postconditions
        ctx.exit_models = exit_models
        ctx.result = result
        for p in routine.post:
            if hook is not None:
                hook(("post", p.name))
            self._suppress += 1
            try:
                ok = p.fn(ctx)
            except Exception as e:
                sink.append(
                    Violation(
                        MODEL_EVAL_ERROR, cname, rname, p.name, CALLEE, ordinal, token, repr(e)
                    )
                )
                ok = True
            finally:
                self._suppress -= 1
            if not ok:
                sink.append(Violation(POSTCONDITION, cname, rname, p.name, CALLEE, ordinal, token))

        # (9) derived frame predicates
        for p in routine.frame_preds:
            if hook is not None:
                hook(("frame", p.name))
            self._suppress += 1
            try:
                ok = p.fn(ctx)
            except Exception as e:
                sink.append(
                    Violation(
                        MODEL_EVAL_ERROR, cname, rname, p.name, CALLEE, ordinal, token, repr(e)
                    )
                )
                ok = True
            finally:
                self._suppress -= 1
            if not ok:
                idx, qname = p.frame_info
                detail = "%s -> %s" % (
                    mv_repr(ctx.entry_models[idx][qname]),
                    mv_repr(ctx.exit_models[idx][qname]),
                )
                sink.append(Violation(FRAME, cname, rname, p.name, CALLEE, ordinal, token, detail))

        return CallOutcome(result, tuple(sink[start:]), False, True)
