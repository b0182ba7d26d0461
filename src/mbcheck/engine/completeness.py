"""Bounded completeness probe.

A routine spec is complete (relative to the model) when, for every abstract
pre-state satisfying the precondition, exactly one post-state satisfies the
postconditions plus derived frame predicates. The probe enumerates a finite
abstract domain and counts admitted post-states, stopping at the first
pre-state that admits two (ambiguous spec) or zero (unsatisfiable spec).

The caller supplies the domain: an object yielding abstract pre-states and
candidate values per (role, query). Predicates are evaluated over an abstract
context with the same surface as the runtime one; predicates that probe
concrete state raise and are reported as not abstractly evaluable.
"""

from __future__ import annotations

import itertools

from mbcheck.errors import ConfigError, ModelEvalError
from mbcheck.engine.specs import TARGET, arg_role
from mbcheck.values import as_int


class AbstractCtx:
    """Predicate context over abstract model assignments.

    Attribute names mirror the runtime context so the same predicate objects
    (including derived frame predicates) evaluate on either.
    """

    __slots__ = ("role_index", "role_specs", "entry_models", "exit_models", "arg_cos", "args", "result")

    def __init__(self, role_index, role_specs, entry_models, arg_cos, args):
        self.role_index = role_index
        self.role_specs = role_specs
        self.entry_models = entry_models
        self.exit_models = None
        self.arg_cos = arg_cos
        self.args = args
        self.result = None

    def _resolve(self, models, qname, role):
        idx = self.role_index[role]
        m = models[idx]
        v = m.get(qname)
        if v is not None:
            return v
        deriv = self.role_specs[idx].attr_derivations.get(qname)
        if deriv is None:
            raise ModelEvalError(
                "%s is neither a model query nor a derived attribute" % qname
            )
        return deriv(m)

    def old(self, qname, role=TARGET):
        return self.entry_models[self.role_index[role]][qname]

    def now(self, qname, role=TARGET):
        return self.exit_models[self.role_index[role]][qname]

    def old_int(self, qname, role=TARGET):
        v = self._resolve(self.entry_models, qname, role)
        return as_int(v) if type(v) is tuple else v

    def now_int(self, qname, role=TARGET):
        v = self._resolve(self.exit_models, qname, role)
        return as_int(v) if type(v) is tuple else v

    @property
    def obj(self):
        raise ModelEvalError("concrete state is not available on abstract states")

    def attr(self, name):
        return self._resolve(self.entry_models, name, TARGET)

    def arg_attr(self, k, name):
        return self._resolve(self.entry_models, name, arg_role(k))

    def arg(self, k):
        return self.args[k]

    def arg_is_void(self, k):
        return self.arg_cos.get(k) is None and self.args[k] is None

    def arg_is_target(self, k):
        return False

    def self_id(self):
        raise ModelEvalError("object identity is not part of abstract states")

    def arg_id(self, k):
        raise ModelEvalError("object identity is not part of abstract states")


class ProbeResult:
    __slots__ = ("verdict", "witness_pre", "witness_posts", "pre_states_checked")

    def __init__(self, verdict, witness_pre, witness_posts, pre_states_checked):
        self.verdict = verdict
        self.witness_pre = witness_pre
        self.witness_posts = witness_posts
        self.pre_states_checked = pre_states_checked

    @property
    def unsatisfiable(self):
        return self.verdict == "incomplete" and not self.witness_posts

    def __repr__(self):
        return "ProbeResult(%s, %d pre-states)" % (self.verdict, self.pre_states_checked)


def completeness_probe(class_spec, routine, domain):
    """Probe one routine over ``domain``; see module docstring.

    ``class_spec`` provides the abstract state space (its model queries span
    the target role); the routine may come from any binding of the same
    concrete class, so a weak routine spec can be probed over the richer
    model.

    Candidate post-states are searched role by role: each role's free
    queries get their candidate values from the domain, and the role's
    model invariants filter those candidates once, not once per combination
    with the other roles. Combinations are then taken in the order of the
    flat product over (role, query) coordinates, target first, then
    arguments in ascending order, queries in role-map order.
    """
    if not class_spec.bound:
        raise ConfigError("class spec %s has not been bound" % class_spec.name)

    role_specs = {-1: class_spec}
    for k in routine.ref_params:
        role_specs[k] = domain.role_spec(routine.params[k].ref_class)

    # model-kind invariants filter candidate post-states per role
    model_invariants = {
        idx: tuple(cl for cl in spec.invariants if cl.kind == "model")
        for idx, spec in role_specs.items()
    }
    checks = routine.post + routine.frame_preds
    layouts = {}  # role-map shape -> see _layout
    admitted_by_role = {}  # see _role_candidates

    checked = 0
    for pre in domain.pre_states(class_spec, routine):
        entry = pre["roles"]
        args = pre["args"]
        arg_cos = {k: (object() if k in entry else None) for k in routine.ref_params}
        ctx = AbstractCtx(routine.role_index, role_specs, entry, arg_cos, args)
        try:
            if not all(p.fn(ctx) for p in routine.pre):
                continue
        except ModelEvalError as e:
            raise ConfigError(
                "%s.%s precondition is not abstractly evaluable: %s"
                % (class_spec.name, routine.name, e)
            )
        checked += 1

        shape = tuple((idx, tuple(m)) for idx, m in entry.items())
        layout = layouts.get(shape)
        if layout is None:
            layout = layouts[shape] = _layout(shape, routine.modify)

        exit_maps = {idx: dict(m) for idx, m in entry.items()}
        role_maps = []
        role_lists = []
        for idx, free, fixed in layout:
            m = exit_maps[idx]
            lists = tuple(domain.value_choices(idx, qname, pre) for qname in free)
            key = (idx, free, tuple(m[q] for q in fixed), tuple(map(id, lists)))
            hit = admitted_by_role.get(key)
            if hit is None:
                hit = admitted_by_role[key] = (
                    lists,
                    _role_candidates(m, free, lists, model_invariants[idx]),
                )
            role_maps.append(m)
            role_lists.append(hit[1])
        results = (
            domain.result_choices(routine, pre) if routine.returns_value else (None,)
        )

        ctx.exit_models = exit_maps
        found = []
        try:
            for combo in itertools.product(*role_lists):
                for m, assignment in zip(role_maps, combo):
                    m.update(assignment)
                for result in results:
                    ctx.result = result
                    admitted = True
                    for p in checks:
                        if not p.fn(ctx):
                            admitted = False
                            break
                    if admitted:
                        witness = {idx: dict(m) for idx, m in exit_maps.items()}
                        found.append((witness, result))
                        if len(found) == 2:
                            return ProbeResult("incomplete", pre, found, checked)
        except ModelEvalError as e:
            raise ConfigError(
                "%s.%s postcondition is not abstractly evaluable: %s"
                % (class_spec.name, routine.name, e)
            )
        if not found:
            return ProbeResult("incomplete", pre, [], checked)
    return ProbeResult("complete", None, [], checked)


def _layout(shape, modify):
    """Per role present, in search order: (role index, free query names,
    fixed query names). ``modify is None`` frees every query."""
    modified = None if modify is None else set(modify)
    out = []
    for idx, qnames in sorted(shape, key=lambda s: (s[0] != -1, s[0])):
        role = TARGET if idx == -1 else arg_role(idx)
        free = tuple(
            q for q in qnames if modified is None or (role, q) in modified
        )
        fixed = tuple(q for q in qnames if q not in free)
        out.append((idx, free, fixed))
    return out


def _role_candidates(m, free, lists, invariants):
    """The assignments to ``free`` (one per element of the product of
    ``lists``, as ``(query, value)`` pairs) under which role map ``m``
    satisfies every clause in ``invariants``. Writes each candidate into
    ``m``'s free slots; the other queries keep their values.

    The answer depends only on those other values, the lists and the
    clauses, which is what the caller keys its cache on. The cache entry
    holds ``lists`` too, so no list ``id`` in a key is reused while the
    probe runs."""
    out = []
    for values in itertools.product(*lists):
        assignment = tuple(zip(free, values))
        m.update(assignment)
        for cl in invariants:
            if not cl.fn(m, None):
                break
        else:
            out.append(assignment)
    return out
