"""Specification bindings: model queries, invariant clauses, routine specs,
class specs, and frame-postcondition derivation.

A binding attaches declarative structure to an ordinary Python class. Nothing
here executes checks; the runtime in `engine.runtime` interprets these
structures around each call.

Roles name the participants of a call: ``"target"`` for the receiver and
``"arg0"``, ``"arg1"``, ... for reference-valued arguments. ``modify`` clauses
and derived frame predicates are role-qualified; a bare query name elsewhere
defaults to the target role.
"""

from __future__ import annotations

from mbcheck.errors import ModelEvalError, SpecError

TARGET = "target"
ARG0 = "arg0"


# what ``now`` raises, in either predicate context, when a precondition
# asks for the exit state
NO_EXIT_STATE = "exit state is not available in a precondition"
_NO_ROLE_STATE = "no model state for role %s"  # a role the call does not have
_ABSENT = object()  # what a role map's ``get`` returns for a query it lacks


class ModelCtx:
    """The model accessors of a predicate context, shared by the runtime's
    ``CallCtx`` and the probe's ``AbstractCtx``.

    ``spec`` is the class spec of every role: a reference argument is of
    the target's class. ``entry_models`` and ``exit_models`` map a role
    name (``"target"``, ``"arg0"``, ...) to the role's model map; a void
    reference argument has no key in either, which is how a derived frame
    predicate skips it. ``exit_models`` is None until the exit state
    exists. ``old`` and ``now`` read a name from the role's map
    with one ``get``; a name the map lacks is a derived attribute of
    ``spec``, which they run over the map. The accessors read only those
    maps (by subscript and ``get``) and ``args`` (by subscript), so the
    probe can record reads in the data it hands over. A subclass supplies
    ``obj``, ``arg_is_target``, ``self_id`` and ``arg_id``.
    """

    __slots__ = ("spec", "entry_models", "exit_models", "args", "result")

    def old(self, qname, role=TARGET):
        try:
            m = self.entry_models[role]
        except KeyError:
            raise ModelEvalError(_NO_ROLE_STATE % role) from None
        v = m.get(qname, _ABSENT)
        return self._derive(m, qname) if v is _ABSENT else v

    def now(self, qname, role=TARGET):
        models = self.exit_models
        if models is None:
            raise ModelEvalError(NO_EXIT_STATE)
        try:
            m = models[role]
        except KeyError:
            raise ModelEvalError(_NO_ROLE_STATE % role) from None
        v = m.get(qname, _ABSENT)
        return self._derive(m, qname) if v is _ABSENT else v

    def _derive(self, m, qname):
        """A name the role map ``m`` lacks: run the spec's derivation of it
        over the map."""
        spec = self.spec
        deriv = spec.attr_derivations.get(qname)
        if deriv is None:
            raise ModelEvalError(
                "%s is neither a model query nor a derived attribute of %s"
                % (qname, spec.name)
            )
        return deriv(m)

    def arg(self, k):
        return self.args[k]

    def arg_is_void(self, k):
        return self.args[k] is None


class ModelQuery:
    """A named abstraction function: concrete object -> model value."""

    __slots__ = ("name", "evaluate")

    def __init__(self, name, evaluate):
        self.name = name
        self.evaluate = evaluate

    def __repr__(self):
        return "ModelQuery(%s)" % self.name


class NamedPred:
    """A named predicate over a call context."""

    __slots__ = ("name", "fn", "frame_info", "definition")

    def __init__(self, name, fn):
        self.name = name
        self.fn = fn
        self.frame_info = None  # (role name, query name) on derived frame preds
        self.definition = None  # (role, query, expected) on defining clauses

    def __repr__(self):
        return "NamedPred(%s)" % self.name


def pred(name, fn):
    return NamedPred(name, fn)


def defines(name, query, expected, role=TARGET):
    """A postcondition that fixes the exit value of one model query:
    ``ctx.now(query, role) == expected(ctx)``.

    ``expected`` computes that value from the entry state and the arguments
    (``old``, ``arg`` ...), never from the exit state or the result. The
    runtime evaluates the clause as it does any predicate; the completeness
    probe also solves it, keeping only the candidate exit values equal to
    ``expected`` instead of testing every one (see ``completeness_probe``).
    """

    def fn(ctx):
        return ctx.now(query, role) == expected(ctx)

    p = NamedPred(name, fn)
    p.definition = (role, query, expected)
    return p


class InvariantClause:
    """One invariant clause: ``fn(model_map, obj) -> bool``.

    ``kind`` is "model" for clauses over model values only (these also apply to
    abstract states in the completeness probe) or "representation" for clauses
    that probe private concrete state. ``depend`` lists reference-valued
    attribute names; the clause is only checked when every attached object is
    absent or closed.
    """

    __slots__ = ("name", "fn", "depend", "kind")

    def __init__(self, name, fn, depend=(), kind="model"):
        if kind not in ("model", "representation"):
            raise SpecError("invariant kind must be model or representation")
        self.name = name
        self.fn = fn
        self.depend = tuple(depend)
        self.kind = kind

    def __repr__(self):
        return "InvariantClause(%s)" % self.name


class Param:
    """Formal parameter descriptor, used by generation and the probe.

    kind: "item" (element value), "index" (position-like integer), or "ref"
    (a reference to an object of the routine's own class).
    """

    __slots__ = ("kind",)

    def __init__(self, kind):
        if kind not in ("item", "index", "ref"):
            raise SpecError("unknown param kind %r" % kind)
        self.kind = kind


def item_param():
    return Param("item")


def index_param():
    return Param("index")


def ref_param():
    return Param("ref")


class RoutineSpec:
    """One public routine: body plus contract clauses.

    ``modify`` is ``None`` for an unframed routine (no frame predicates are
    derived; the weak bindings use this) or a tuple of ``(role, query)`` pairs
    naming what may change; an empty tuple means "modifies nothing". Plain
    query-name strings are accepted and default to the target role.
    ``ref_roles`` pairs each reference parameter's position with its role
    name, ``"arg<position>"``.
    """

    __slots__ = (
        "name",
        "params",
        "body",
        "pre",
        "post",
        "modify",
        "returns_value",
        # frame_preds is derived when a ClassSpec is built over the routine
        "frame_preds",
        "ref_roles",
    )

    def __init__(
        self,
        name,
        params,
        body,
        pre=(),
        post=(),
        modify=None,
        returns_value=False,
    ):
        self.name = name
        self.params = tuple(params)
        self.body = body
        self.pre = tuple(pre)
        self.post = tuple(post)
        if modify is not None:
            modify = tuple(
                (TARGET, m) if isinstance(m, str) else (m[0], m[1]) for m in modify
            )
        self.modify = modify
        self.returns_value = returns_value
        self.frame_preds = ()
        self.ref_roles = tuple(
            (k, "arg%d" % k) for k, p in enumerate(self.params) if p.kind == "ref"
        )

    def __repr__(self):
        return "RoutineSpec(%s)" % self.name


class ClassSpec:
    """A complete binding for one class at one specification level.

    Construction derives each routine's ``frame_preds`` from its ``modify``
    clause. A reference parameter is of the spec's own class.

    ``attr_derivations`` maps derived attribute names (such as ``count``) to
    functions over a role's model map; ``ModelCtx.old``/``now`` run one
    when a predicate names no model query, at run time and in the probe
    alike. A derivation reads the map by subscript, ``get`` or ``in`` only,
    never by iterating it or taking its length: the probe hands it a map
    that holds just the queries read so far and copies each other one in on
    its first lookup, which is how it records the queries read.
    ``consistency_probe`` is an optional concrete-state predicate used by the
    harness for fault classification bookkeeping only. ``size_of`` reports an
    object's size for the pool's discard heuristic. ``model_invariants`` are
    the invariants of kind ``model``, the ones an abstract state obeys on its
    own; the probe's domains and searches filter candidate states by them.
    ``depend_gated`` is true when some invariant declares ``depend``; only
    then does the runtime test invariant eligibility clause by clause.
    """

    __slots__ = (
        "name",
        "level",
        "model",
        "model_names",
        "invariants",
        "model_invariants",
        "routines",
        "make",
        "attr_derivations",
        "consistency_probe",
        "size_of",
        "depend_gated",
    )

    def __init__(
        self,
        name,
        level,
        model,
        invariants,
        routines,
        make,
        attr_derivations=None,
        consistency_probe=None,
        size_of=None,
    ):
        if level not in ("weak", "strong"):
            raise SpecError("level must be weak or strong")
        self.name = name
        self.level = level
        self.model = tuple(model)
        self.model_names = frozenset(q.name for q in self.model)
        if len(self.model_names) != len(self.model):
            raise SpecError("duplicate model query names in %s" % name)
        self.invariants = tuple(invariants)
        self.model_invariants = tuple(cl for cl in self.invariants if cl.kind == "model")
        self.depend_gated = any(cl.depend for cl in self.invariants)
        self.routines = dict(routines)
        self.make = make
        self.attr_derivations = dict(attr_derivations or {})
        self.consistency_probe = consistency_probe
        self.size_of = size_of
        for routine in self.routines.values():
            routine.frame_preds = derive_frame_postconditions(routine, self)

    def __repr__(self):
        return "ClassSpec(%s, %s)" % (self.name, self.level)


def derive_frame_postconditions(routine, class_spec):
    """Turn a routine's ``modify`` clause into unchanged-predicates.

    The frame universe is every model query of the target plus every model
    query of each reference argument, which is of the target's own class.
    One predicate per (role, query) pair not listed in ``modify`` asserts the
    query's exit value equals its snapshot value. Returns ``()`` for an
    unframed routine (``modify is None``).
    """
    if routine.modify is None:
        return ()
    roles = [TARGET] + [role for _, role in routine.ref_roles]
    universe = [(role, q.name) for role in roles for q in class_spec.model]

    for role, qname in routine.modify:
        if (role, qname) not in universe:
            raise SpecError(
                "%s.%s: modify names %s.%s which is not in the frame universe"
                % (class_spec.name, routine.name, role, qname)
            )

    modified = set(routine.modify)
    return tuple(_unchanged_pred(*u) for u in universe if u not in modified)


def _unchanged_pred(role, qname):
    def fn(ctx):
        if role not in ctx.entry_models:  # a void reference argument
            return True
        try:
            return ctx.exit_models[role][qname] == ctx.entry_models[role][qname]
        except KeyError:
            # an abstract state may leave out queries of the full model
            raise ModelEvalError("%s.%s is not in the model map" % (role, qname)) from None

    p = NamedPred("unchanged:%s.%s" % (role, qname), fn)
    p.frame_info = (role, qname)
    return p
