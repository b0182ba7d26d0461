"""Bounded completeness probe.

A routine spec is complete (relative to the model) when, for every abstract
pre-state satisfying the precondition, exactly one post-state satisfies the
postconditions plus derived frame predicates. The probe enumerates a finite
abstract domain and counts admitted post-states, stopping at the first
pre-state that admits two (ambiguous spec) or zero (unsatisfiable spec). A
pre-state that agrees with an earlier, passing one on every value that
search read is counted but not searched again (see ``completeness_probe``).

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

    While a search records, ``reads`` collects each entry coordinate
    ``(role index, query)`` that a predicate reads and ``exit_reads`` each
    exit coordinate; a read through a derived attribute collects every
    coordinate of the role's map. ``arg_reads`` collects the positions of
    plain arguments read. All three are ``None`` when nothing is recorded.
    """

    __slots__ = (
        "role_index",
        "role_specs",
        "entry_models",
        "exit_models",
        "arg_cos",
        "args",
        "result",
        "reads",
        "exit_reads",
        "arg_reads",
    )

    def __init__(self, role_index, role_specs, entry_models, arg_cos, args):
        self.role_index = role_index
        self.role_specs = role_specs
        self.entry_models = entry_models
        self.exit_models = None
        self.arg_cos = arg_cos
        self.args = args
        self.result = None
        self.reads = None
        self.exit_reads = None
        self.arg_reads = None

    def old(self, qname, role=TARGET):
        try:
            idx = self.role_index[role]
            v = self.entry_models[idx][qname]
        except KeyError:
            raise ModelEvalError("%s.%s is not in the abstract state" % (role, qname)) from None
        reads = self.reads
        if reads is not None:
            reads.add((idx, qname))
        return v

    def now(self, qname, role=TARGET):
        try:
            idx = self.role_index[role]
            v = self.exit_models[idx][qname]
        except KeyError:
            raise ModelEvalError("%s.%s is not in the abstract state" % (role, qname)) from None
        reads = self.exit_reads
        if reads is not None:
            reads.add((idx, qname))
        return v

    def _resolve(self, models, qname, role, reads):
        """A model value or derived attribute of ``role``, recording the
        coordinates read in ``reads`` unless it is ``None``."""
        try:
            idx = self.role_index[role]
            m = models[idx]
        except KeyError:
            raise ModelEvalError("no model state for role %s" % role) from None
        v = m.get(qname)
        if v is not None:
            if reads is not None:
                reads.add((idx, qname))
            return v
        deriv = self.role_specs[idx].attr_derivations.get(qname)
        if deriv is None:
            raise ModelEvalError(
                "%s is neither a model query nor a derived attribute" % qname
            )
        if reads is not None:
            # a derivation may read the whole map
            reads.update((idx, q) for q in m)
        return deriv(m)

    def old_int(self, qname, role=TARGET):
        v = self._resolve(self.entry_models, qname, role, self.reads)
        return as_int(v) if type(v) is tuple else v

    def now_int(self, qname, role=TARGET):
        v = self._resolve(self.exit_models, qname, role, self.exit_reads)
        return as_int(v) if type(v) is tuple else v

    @property
    def obj(self):
        raise ModelEvalError("concrete state is not available on abstract states")

    def attr(self, name):
        return self._resolve(self.entry_models, name, TARGET, self.reads)

    def arg_attr(self, k, name):
        return self._resolve(self.entry_models, name, arg_role(k), self.reads)

    def arg(self, k):
        if self.arg_reads is not None:
            self.arg_reads.add(k)
        return self.args[k]

    def arg_is_void(self, k):
        if self.arg_reads is not None:
            self.arg_reads.add(k)
        return self.arg_cos.get(k) is None and self.args[k] is None

    def arg_is_target(self, k):
        return False

    def self_id(self):
        raise ModelEvalError("object identity is not part of abstract states")

    def arg_id(self, k):
        raise ModelEvalError("object identity is not part of abstract states")


class ProbeResult:
    """``pre_states_checked`` counts the pre-states that passed the
    precondition; ``pre_states_searched`` counts those of them whose
    post-states were searched rather than decided by an earlier search."""

    __slots__ = (
        "verdict",
        "witness_pre",
        "witness_posts",
        "pre_states_checked",
        "pre_states_searched",
    )

    def __init__(
        self, verdict, witness_pre, witness_posts, pre_states_checked, pre_states_searched
    ):
        self.verdict = verdict
        self.witness_pre = witness_pre
        self.witness_posts = witness_posts
        self.pre_states_checked = pre_states_checked
        self.pre_states_searched = pre_states_searched

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

    A pre-state already decided is counted but not searched again. Each
    search that admits exactly one post-state is stored under its *base
    key* (the role-map shape, each role's filtered candidate list by
    content, and the result choices) together with what it read: the
    pre-state coordinates and plain arguments the post and frame predicates
    read through the context (see ``AbstractCtx``), and the pre-state's
    values there (a reference argument by presence only). A later pre-state
    with the same base key that agrees with a stored one on everything that
    search read is not searched. This is sound because:

    - the checks are deterministic and read a pre-state only through the
      context's accessors, so two searches over the same candidates and
      results read the same values in the same order up to the first read
      where the pre-states differ, and a pre-state that agrees with the
      stored one on everything it read has no such read: it takes the same
      path and admits exactly one post-state too;
    - a derived frame predicate compares a fixed coordinate with itself
      (a fixed exit value is its entry value), so its answer follows from
      the role-map shape, which is in the base key;
    - a free exit coordinate holds a candidate, which the base key fixes.

    The assumption is that predicates touch the pre-state only through the
    accessors (``old``, ``now``, their ``_int`` forms, ``attr``,
    ``arg_attr``, ``arg``, ``arg_is_void``) and are pure functions of what
    they read. A search that fails (no post-state, two, or a
    ``ModelEvalError``) ends the probe at once and is never stored, so the
    verdict, the witnesses and ``pre_states_checked`` are those of a search
    of every pre-state. Pre-state, candidate and result values must be
    hashable.
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
    ref_ks = frozenset(routine.ref_params)
    layouts = {}  # role-map shape -> see _layout
    admitted_by_role = {}  # see _role_candidates
    interned = {}  # filtered candidate list -> its number, so equal lists key alike
    decided = {}  # base key -> {read set: projections of pre-states decided}

    checked = searched = 0
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
        order, free = layout

        role_lists = []
        list_numbers = []
        for idx, role_free, fixed in order:
            m = entry[idx]
            lists = tuple(domain.value_choices(idx, qname, pre) for qname in role_free)
            key = (idx, role_free, tuple(m[q] for q in fixed), tuple(map(id, lists)))
            hit = admitted_by_role.get(key)
            if hit is None:
                candidates = _role_candidates(
                    dict(m), role_free, lists, model_invariants[idx]
                )
                number = interned.setdefault(tuple(candidates), len(interned))
                hit = admitted_by_role[key] = (lists, candidates, number)
            role_lists.append(hit[1])
            list_numbers.append(hit[2])
        results = (
            tuple(domain.result_choices(routine, pre)) if routine.returns_value else (None,)
        )

        base = (shape, tuple(list_numbers), results)
        stored = decided.get(base)
        if stored is not None and any(
            _project(entry, args, ref_ks, read) in seen for read, seen in stored.items()
        ):
            continue
        searched += 1

        exit_maps = {idx: dict(m) for idx, m in entry.items()}
        role_maps = [exit_maps[idx] for idx, _, _ in order]
        ctx.exit_models = exit_maps
        ctx.reads = set()
        ctx.exit_reads = set()
        ctx.arg_reads = set()
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
                            return ProbeResult("incomplete", pre, found, checked, searched)
        except ModelEvalError as e:
            raise ConfigError(
                "%s.%s postcondition is not abstractly evaluable: %s"
                % (class_spec.name, routine.name, e)
            )
        if not found:
            return ProbeResult("incomplete", pre, [], checked, searched)
        # a fixed exit value is its entry value; a free one is a candidate
        coords = ctx.reads.union(ctx.exit_reads - free)
        read = (tuple(sorted(coords)), tuple(sorted(ctx.arg_reads)))
        decided.setdefault(base, {}).setdefault(read, set()).add(
            _project(entry, args, ref_ks, read)
        )
    return ProbeResult("complete", None, [], checked, searched)


def _project(entry, args, ref_ks, read):
    """The values of one pre-state at the coordinates and plain-argument
    positions of ``read``; a reference argument counts by presence."""
    coords, arg_ks = read
    return (
        tuple([entry[idx][q] for idx, q in coords]),
        tuple([args[k] is None if k in ref_ks else args[k] for k in arg_ks]),
    )


def _layout(shape, modify):
    """The search order, a list with one ``(role index, free query names,
    fixed query names)`` per role present, target first; and the set of free
    ``(role index, query)`` coordinates. ``modify is None`` frees every
    query."""
    modified = None if modify is None else set(modify)
    out = []
    for idx, qnames in sorted(shape, key=lambda s: (s[0] != -1, s[0])):
        role = TARGET if idx == -1 else arg_role(idx)
        free = tuple(
            q for q in qnames if modified is None or (role, q) in modified
        )
        fixed = tuple(q for q in qnames if q not in free)
        out.append((idx, free, fixed))
    return out, frozenset((idx, q) for idx, free, _ in out for q in free)


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
