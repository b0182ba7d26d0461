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
ARG1 = "arg1"


def arg_role(k: int) -> str:
    return "arg%d" % k


# what ``now``/``now_int`` raise, in either predicate context, when a
# precondition asks for the exit state
NO_EXIT_STATE = "exit state is not available in a precondition"


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

    __slots__ = ("name", "fn", "frame_info")

    def __init__(self, name, fn):
        self.name = name
        self.fn = fn
        self.frame_info = None  # (role index, query name) on derived frame preds

    def __repr__(self):
        return "NamedPred(%s)" % self.name


def pred(name, fn):
    return NamedPred(name, fn)


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
    (object reference; ``ref_class`` names its binding).
    """

    __slots__ = ("kind", "ref_class")

    def __init__(self, kind, ref_class=None):
        if kind not in ("item", "index", "ref"):
            raise SpecError("unknown param kind %r" % kind)
        if (kind == "ref") != (ref_class is not None):
            raise SpecError("ref params need ref_class, others must not have one")
        self.kind = kind
        self.ref_class = ref_class


def item_param():
    return Param("item")


def index_param():
    return Param("index")


def ref_param(class_name):
    return Param("ref", class_name)


class RoutineSpec:
    """One public routine: body plus contract clauses.

    ``modify`` is ``None`` for an unframed routine (no frame predicates are
    derived; the weak bindings use this) or a tuple of ``(role, query)`` pairs
    naming what may change; an empty tuple means "modifies nothing". Plain
    query-name strings are accepted and default to the target role.
    ``open_args`` lists argument positions opened for the duration of the call
    and re-checked at exit.
    """

    __slots__ = (
        "name",
        "params",
        "body",
        "pre",
        "post",
        "modify",
        "open_args",
        "returns_value",
        # filled in by bind()
        "frame_preds",
        "ref_params",
        "role_index",
    )

    def __init__(
        self,
        name,
        params,
        body,
        pre=(),
        post=(),
        modify=None,
        open_args=(),
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
        self.open_args = tuple(open_args)
        self.returns_value = returns_value
        self.frame_preds = ()
        self.ref_params = tuple(
            k for k, p in enumerate(self.params) if p.kind == "ref"
        )
        self.role_index = {TARGET: -1}
        for k in self.ref_params:
            self.role_index[arg_role(k)] = k

    def __repr__(self):
        return "RoutineSpec(%s)" % self.name


class ClassSpec:
    """A complete binding for one class at one specification level.

    ``attr_derivations`` maps attribute names to functions over the model map,
    letting shared (attribute-level) predicates evaluate on abstract states.
    ``consistency_probe`` is an optional concrete-state predicate used by the
    harness for fault classification bookkeeping only. ``size_of`` reports an
    object's size for the pool's discard heuristic. ``depend_gated`` is true
    when some invariant declares ``depend``; only then does the runtime test
    invariant eligibility clause by clause.
    """

    __slots__ = (
        "name",
        "level",
        "model",
        "model_names",
        "invariants",
        "routines",
        "make",
        "attr_derivations",
        "consistency_probe",
        "size_of",
        "bound",
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
        self.depend_gated = any(cl.depend for cl in self.invariants)
        self.routines = dict(routines)
        self.make = make
        self.attr_derivations = dict(attr_derivations or {})
        self.consistency_probe = consistency_probe
        self.size_of = size_of
        self.bound = False

    def __repr__(self):
        return "ClassSpec(%s, %s)" % (self.name, self.level)


def derive_frame_postconditions(routine, class_spec, specs_by_name):
    """Turn a routine's ``modify`` clause into unchanged-predicates.

    The frame universe is every model query of the target plus every model
    query of each reference argument. One predicate per (role, query) pair not
    listed in ``modify`` asserts the query's exit value equals its snapshot
    value. Returns ``()`` for an unframed routine (``modify is None``).
    """
    if routine.modify is None:
        return ()
    universe = []
    for qname in (q.name for q in class_spec.model):
        universe.append((TARGET, -1, qname))
    for k in routine.ref_params:
        arg_spec = specs_by_name[routine.params[k].ref_class]
        for qname in (q.name for q in arg_spec.model):
            universe.append((arg_role(k), k, qname))

    known = {(role, qname) for role, _, qname in universe}
    for role, qname in routine.modify:
        if (role, qname) not in known:
            raise SpecError(
                "%s.%s: modify names %s.%s which is not in the frame universe"
                % (class_spec.name, routine.name, role, qname)
            )

    modified = set(routine.modify)
    preds = []
    for role, idx, qname in universe:
        if (role, qname) in modified:
            continue
        preds.append(_unchanged_pred(role, idx, qname))
    return tuple(preds)


def _unchanged_pred(role, idx, qname):
    def fn(ctx):
        if idx != -1 and ctx.arg_cos[idx] is None:
            return True
        try:
            return ctx.exit_models[idx][qname] == ctx.entry_models[idx][qname]
        except KeyError:
            # an abstract state may leave out queries of the full model
            raise ModelEvalError("%s.%s is not in the model map" % (role, qname)) from None

    p = NamedPred("unchanged:%s.%s" % (role, qname), fn)
    p.frame_info = (idx, qname)
    return p


def bind(specs_by_name):
    """Validate a same-level family of class specs and derive their frames.

    Checks modify well-formedness, parameter references, and open_args, then
    attaches frame predicates to each routine. Call once per binding family;
    raises SpecError on ill-formed input.
    """
    for spec in specs_by_name.values():
        for routine in spec.routines.values():
            for k in routine.ref_params:
                cname = routine.params[k].ref_class
                if cname not in specs_by_name:
                    raise SpecError(
                        "%s.%s: parameter %d references unknown class %s"
                        % (spec.name, routine.name, k, cname)
                    )
            for k in routine.open_args:
                if k not in routine.ref_params:
                    raise SpecError(
                        "%s.%s: open argument %d is not a reference parameter"
                        % (spec.name, routine.name, k)
                    )
            routine.frame_preds = derive_frame_postconditions(
                routine, spec, specs_by_name
            )
        spec.bound = True
    return specs_by_name
