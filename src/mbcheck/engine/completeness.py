"""Bounded completeness probe.

A routine spec is complete (relative to the model) when, for every abstract
pre-state satisfying the precondition, exactly one post-state satisfies the
postconditions plus derived frame predicates. The probe enumerates a finite
abstract domain and counts admitted post-states, stopping at the first
pre-state that admits two (the spec is incomplete: a proof) or none (the
verdict is inconclusive, since the admissible exit may lie outside the
domain's candidates). A proof at the first pre-state runs the model
invariants only on the candidates it visits, and a pre-state that agrees
with an earlier, passing one on every value that search read is counted but
not searched again (see ``completeness_probe``).

The caller supplies the domain, an object with three methods:
``pre_states(class_spec, routine)`` yields abstract pre-states as ``(roles,
args)`` pairs, a map from role name to model map and the argument tuple;
``value_choices(query)`` gives the candidate exit values of a model query
and ``result_choices(routine)`` the candidate results; candidates depend on
no pre-state. A reference argument is of the target's class, so every role
has ``class_spec``; its model lives in its role map, and a present one is
the same value in every pre-state's arguments, so arguments compare by
value.
Predicates are evaluated over an abstract context with the same model
accessors as the runtime one (``ModelCtx``); predicates that probe concrete
state raise, and a pre- or postcondition that raises any exception is
reported as not abstractly evaluable.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

from mbcheck.errors import ConfigError, ModelEvalError
from mbcheck.engine.specs import TARGET, ModelCtx


class AbstractCtx(ModelCtx):
    """Predicate context over abstract model assignments.

    The model accessors come from ``ModelCtx``, so the same predicate
    objects evaluate here and at run time; ``spec`` is every role's spec.
    An abstract state holds no concrete object and no identity: ``obj``,
    ``self_id`` and ``arg_id`` raise ``ModelEvalError``, and no argument is
    the target.
    """

    __slots__ = ()

    def __init__(self, spec, entry_models, args):
        self.spec = spec
        self.entry_models = entry_models
        self.exit_models = None
        self.args = args
        self.result = None

    @property
    def obj(self):
        raise ModelEvalError("concrete state is not available on abstract states")

    def arg_is_target(self, k):
        return False

    def self_id(self):
        raise ModelEvalError("object identity is not part of abstract states")

    def arg_id(self, k):
        raise ModelEvalError("object identity is not part of abstract states")


class _ReadMap(dict):
    """A role map, or the arguments by position, that starts empty and
    copies each key of ``src`` in on its first lookup, so its keys are the
    keys read. Subscript, ``get`` and ``in`` answer for the whole of
    ``src``; a key set in the map itself shadows ``src``."""

    __slots__ = ("src",)

    def __init__(self, src):
        self.src = src

    def __missing__(self, q):
        v = self[q] = self.src[q]
        return v

    def get(self, q, default=None):
        if q in self.src:
            return self[q]
        return dict.get(self, q, default)

    def __contains__(self, q):
        if q in self.src:
            self[q]  # a test for presence reads the query too
            return True
        return dict.__contains__(self, q)


def _reads(maps):
    """The ``(role name, query)`` coordinates held in role maps."""
    return {(role, q) for role, m in maps.items() for q in m}


class ProbeResult:
    """``verdict`` is ``complete``, ``incomplete`` (``witness_pre``, a
    ``(roles, args)`` pair, admits the two post-states in ``witness_posts``:
    a proof) or ``inconclusive`` (``witness_pre`` admits no candidate
    post-state, which holds only relative to the domain's candidates). ``pre_states_checked`` counts the
    pre-states that passed the precondition; ``pre_states_searched`` counts
    those of them whose post-states were searched rather than decided by an
    earlier search."""

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

    def __repr__(self):
        return "ProbeResult(%s, %d pre-states)" % (self.verdict, self.pre_states_checked)


def completeness_probe(class_spec, routine, domain):
    """Probe one routine over ``domain``; see module docstring.

    ``class_spec`` provides the abstract state space (its model queries span
    every role); the routine may come from any binding of the same
    concrete class, so a weak routine spec can be probed over the richer
    model.

    The domain answers ``value_choices(query)`` and
    ``result_choices(routine)`` with nothing of the pre-state, so the probe
    asks for the results once and for each free query's values once per
    role-map shape. Candidate post-states are searched role by role: the
    role's model invariants filter its candidates once per role, free and
    fixed query names and fixed values, not once per pre-state or per
    combination with the other roles; in a probe's first search, only when
    the search reaches a candidate. Combinations are taken in the order of
    the flat product over (role, query) coordinates, target first,
    then arguments by role name, queries in role-map order.

    Defining clauses (``defines``) are solved, not tested per candidate.
    A search takes the leading run of the routine's postconditions that are
    defining clauses over free coordinates (no run when the routine returns
    a value, which ``expected`` could read), evaluates each ``expected``
    once over the entry state, and keeps, in order, the candidates of that
    coordinate's role whose value there equals it (a complete list looks
    them up in an index it builds on first use). The search then gives
    what testing every candidate gives, because:

    - a dropped candidate would have failed the first clause of the run it
      does not match, before any later clause ran, so it admits nothing and
      raises nothing; the kept ones are tested in their original order;
    - ``expected`` reads only the entry state and the arguments, through the
      same recording maps, so solving reads what testing it read; a clause
      of the run reads no exit coordinate but its own, which is free;
    - if ``expected`` raises, solving stops and leaves the lists as the
      clauses before it left them, so the search raises where testing every
      candidate raises (or, had ``expected`` read the exit state, runs as
      that does); an empty list admits nothing either way;
    - a stored search is keyed by the lists before solving, which with what
      ``expected`` read decide the lists after it.

    Derived frame predicates are not run: ``_layout`` decides them once per
    role-map shape from each one's ``frame_info``, and a shape that lacks a
    framed query ends the probe at the first candidate that passes the
    postconditions.

    A pre-state already decided is counted but not searched again. Each
    search that admits exactly one post-state is stored under its *base
    key* (the role-map shape and each role's filtered candidate list by
    content) with what it read: the pre-state coordinates and arguments
    the postconditions read, and the pre-state's values there. Each role
    map of the context starts empty and copies a query in from the
    pre-state on its first lookup (by subscript, ``get`` or ``in``), so its
    keys are the queries read; the arguments, a map from position to value,
    work the same way. An exit map starts with the free coordinates and
    fills its fixed ones from the entry maps; its reads are its keys less
    the free ones. A later pre-state with the same base key that agrees
    with a stored one on everything that search read is not searched, and
    costs little beyond its precondition: the layout's ``itemgetter`` per
    role over its fixed queries gives the role's key, and each stored read
    set has a projector, a getter per role read and one over the arguments,
    built once from its sorted coordinates. This is sound because:

    - the checks are deterministic and read a pre-state only through those
      maps and arguments, so two searches over the same candidates and
      results read the same values in the same order up to the first read
      where the pre-states differ, and a pre-state that agrees with the
      stored one on everything it read has no such read: it takes the same
      path and admits exactly one post-state too;
    - the frame decision follows from the shape, which is in the base key;
    - a fixed exit coordinate holds its entry value, and a free one holds a
      candidate, which the base key fixes; the results are the same for
      every search;
    - a base key holds whole lists: the first search to succeed drew every
      candidate of its lists, and a list first needed after it is filled
      before its search; the filter is deterministic, so drawing on demand
      gives the lists that filtering them whole gives.

    A search that fails (no post-state, two, or a clause that raises) ends
    the probe at once and is never stored, so the verdict, the witnesses
    and ``pre_states_checked`` are those of a search of every pre-state. A
    model invariant ends the probe with its own exception if it raises on a
    candidate the first search reaches, or on any candidate of a list filled
    after it, which a search of every pre-state may never reach. Pre-state
    and candidate values must be hashable, and so must a defining clause's
    expected value.
    """
    posts = routine.post
    results = tuple(domain.result_choices(routine)) if routine.returns_value else (None,)
    layouts = {}  # role-map shape -> see _layout
    admitted_by_role = {}  # role key -> _Admitted; see _role_candidates
    interned = {}  # filtered candidate list -> its number, so equal lists key alike
    decided = {}  # base key -> {read set: (its projector, projections decided)}

    checked = searched = 0
    for entry, args in domain.pre_states(class_spec, routine):
        ctx = AbstractCtx(class_spec, entry, args)
        holds = True
        try:
            for p in routine.pre:
                if not p.fn(ctx):
                    holds = False
                    break
        except Exception as e:
            raise ConfigError(
                "%s.%s precondition is not abstractly evaluable: %s"
                % (class_spec.name, routine.name, _clause_error(e))
            )
        if not holds:
            continue
        checked += 1

        shape = tuple([(role, tuple(m)) for role, m in entry.items()])
        layout = layouts.get(shape)
        if layout is None:
            layout = layouts[shape] = _layout(shape, routine, domain)
        order, free, frame_error, solved = layout

        role_lists = []
        list_numbers = []
        for role, role_free, fixed, lists, fixed_values in order:
            m = entry[role]
            key = (role, role_free, fixed, fixed_values(m))
            admitted = admitted_by_role.get(key)
            if admitted is None:
                admitted = admitted_by_role[key] = _Admitted()
                admitted.pending = _role_candidates(
                    dict(m), role_free, lists, class_spec.model_invariants
                )
                if decided:  # the base key needs the list whole
                    admitted.fill(interned)
            role_lists.append(admitted)
            list_numbers.append(admitted.number)

        base = (shape, tuple(list_numbers))
        stored = decided.get(base)
        if stored is not None:
            for project, seen in stored.values():
                if project(entry, args) in seen:
                    break
            else:
                stored = None
        if stored is not None:  # an earlier search decided this pre-state
            continue
        searched += 1

        # the exit maps hold the free coordinates, which each candidate
        # assigns; fixed ones fill from the entry maps when first read
        ctx.entry_models = {role: _ReadMap(m) for role, m in entry.items()}
        ctx.args = _ReadMap(dict(enumerate(args)))
        exit_maps = {role: _ReadMap(m) for role, m in entry.items()}
        search_lists = _solve(ctx, solved, role_lists)
        role_maps = [exit_maps[role] for role, _, _, _, _ in order]
        ctx.exit_models = exit_maps
        found = []
        # once a search has succeeded every list is whole, so the later
        # searches take itertools.product: through _product's generators
        # they read strong probe throughput 3-5% lower. Only a
        # postcondition's exception is converted; a model invariant
        # raising as a candidate is drawn keeps its own exception
        for combo in (itertools.product if decided else _product)(*search_lists):
            for m, assignment in zip(role_maps, combo):
                m.update(assignment)
            for result in results:
                ctx.result = result
                try:
                    for p in posts:
                        if not p.fn(ctx):
                            break
                    else:
                        if frame_error is not None:
                            raise ModelEvalError(frame_error)
                        witness = {role: {**entry[role], **m} for role, m in exit_maps.items()}
                        found.append((witness, result))
                        if len(found) == 2:
                            return ProbeResult("incomplete", (entry, args), found, checked, searched)
                except Exception as e:
                    raise ConfigError(
                        "%s.%s postcondition is not abstractly evaluable: %s"
                        % (class_spec.name, routine.name, _clause_error(e))
                    )
        if not found:
            return ProbeResult("inconclusive", (entry, args), [], checked, searched)
        if not decided:  # the first search drew every candidate of its lists
            base = (shape, tuple([a.fill(interned) for a in role_lists]))
        # a fixed exit value is its entry value; a free one is a candidate
        coords = _reads(ctx.entry_models).union(_reads(exit_maps) - free)
        read = (tuple(sorted(coords)), tuple(sorted(ctx.args)))
        stored = decided.setdefault(base, {})
        if read not in stored:
            stored[read] = (_projector(*read), set())
        project, seen = stored[read]
        seen.add(project(entry, args))
    return ProbeResult("complete", None, [], checked, searched)


def _clause_error(e):
    """How a clause's exception reads in the probe's ``ConfigError``: a
    ``ModelEvalError`` by its text, any other exception by its repr."""
    return str(e) if isinstance(e, ModelEvalError) else repr(e)


def _values_at(keys):
    """``itemgetter(*keys)``, or a function giving () for no keys."""
    return itemgetter(*keys) if keys else lambda m: ()


def _projector(coords, arg_ks):
    """A function giving one pre-state's values at the sorted ``(role,
    query)`` coordinates ``coords`` and the argument positions ``arg_ks``:
    a getter per role read, and one over the arguments."""
    getters = tuple(
        (role, itemgetter(*[q for _, q in at]))
        for role, at in itertools.groupby(coords, key=itemgetter(0))
    )
    arg_values = _values_at(arg_ks)
    return lambda entry, args: (tuple([g(entry[r]) for r, g in getters]), arg_values(args))


def _layout(shape, routine, domain):
    """How to search the pre-states of one role-map shape:

    - the search order, a list with one ``(role name, free query names,
      fixed query names, candidate value list per free query, getter of
      the fixed values)`` per role present, target first, then the
      arguments by role name (``modify is None`` frees every query);
    - the set of free ``(role name, query)`` coordinates;
    - the error text for the first derived frame predicate whose
      ``frame_info`` names a query its role's map lacks, or None. On the
      probe's exit maps a frame predicate compares a fixed coordinate with
      its own entry value, so it holds wherever the role is absent (a void
      argument) or its map has the query, for every pre-state of the shape;
    - the leading run of the routine's postconditions that are defining
      clauses over free coordinates, as ``(search slot, position in the
      slot's free queries, expected)``; none for a routine that returns a
      value."""
    modified = None if routine.modify is None else set(routine.modify)
    out = []
    for role, qnames in sorted(shape, key=lambda s: (s[0] != TARGET, s[0])):
        free = tuple(
            q for q in qnames if modified is None or (role, q) in modified
        )
        fixed = tuple(q for q in qnames if q not in free)
        out.append((role, free, fixed, tuple(map(domain.value_choices, free)), _values_at(fixed)))
    qnames_of = dict(shape)
    frame_error = None
    for p in routine.frame_preds:
        role, qname = p.frame_info
        if role in qnames_of and qname not in qnames_of[role]:
            frame_error = "%s.%s is not in the model map" % (role, qname)
            break
    free = frozenset((role, q) for role, role_free, _, _, _ in out for q in role_free)
    slots = {role: (slot, role_free) for slot, (role, role_free, _, _, _) in enumerate(out)}
    solved = []
    if not routine.returns_value:  # expected could read a result
        for p in routine.post:
            if p.definition is None:
                break
            role, qname, expected = p.definition
            slot = slots.get(role)
            if slot is None or qname not in slot[1]:
                break
            solved.append((slot[0], slot[1].index(qname), expected))
    return out, free, frame_error, tuple(solved)


def _solve(ctx, solved, role_lists):
    """``role_lists`` narrowed by the defining clauses in ``solved``: each
    keeps, in order, the candidates of its search slot whose value at its
    query equals ``expected`` over the entry state (``ctx`` has no exit
    state yet). Stops at the first ``expected`` that raises. A narrowed
    list draws its candidates on demand too."""
    role_lists = list(role_lists)
    for slot, pos, expected in solved:
        try:
            want = expected(ctx)
        except Exception:
            # the search raises it where the flat search does, or, if
            # expected read the exit state, runs as the flat search does
            break
        role_lists[slot] = role_lists[slot].where(pos, want)
    return role_lists


class _Admitted(list):
    """The candidates of one role that its model invariants admit so far,
    in product order; ``pending`` yields the rest, and is None once the list
    is complete. ``number`` interns a complete list by content; ``index``
    maps ``(position, value)`` to a complete list's candidates there."""

    pending = None
    number = None
    index = None

    def draw(self):
        """Append and yield the pending candidates, one at a time."""
        for a in self.pending or ():
            self.append(a)
            yield a
        self.pending = None

    def where(self, pos, want):
        """A new list of the candidates whose value at ``pos`` is ``want``:
        of a complete list from ``index``, built on first use; of a pending
        one, those admitted so far at once and the pending ones on demand."""
        if self.pending is None:
            if self.index is None:
                self.index = {}
                for a in self:
                    for at, (_, v) in enumerate(a):
                        self.index.setdefault((at, v), []).append(a)
            return _Admitted(self.index.get((pos, want), ()))
        kept = _Admitted([a for a in self if a[pos][1] == want])
        kept.pending = (a for a in self.draw() if a[pos][1] == want)
        return kept

    def fill(self, interned):
        """Draw every pending candidate; give the list's number."""
        self.extend(self.pending or ())
        self.pending = None
        self.number = interned.setdefault(tuple(self), len(interned))
        return self.number


def _product(head, *rest):
    """``itertools.product`` over ``_Admitted`` lists, drawing each pending
    candidate only when a combination reaches it."""
    drawn = itertools.chain(head, head.draw())
    if not rest:
        return zip(drawn)
    return ((a, *tail) for a in drawn for tail in _product(*rest))


def _role_candidates(m, free, lists, invariants):
    """Yield, in product order, the assignments to ``free`` (one per element
    of the product of ``lists``, as ``(query, value)`` pairs) under which
    role map ``m`` satisfies every clause in ``invariants``. Writes each
    candidate into ``m``'s free slots; the other queries keep their values.

    The lists are fixed per free query for the whole probe, so the answer
    depends only on the role, its free and fixed query names, the fixed
    values and the clauses, which is what the caller keys its cache on."""
    for values in itertools.product(*lists):
        assignment = tuple(zip(free, values))
        m.update(assignment)
        for cl in invariants:
            if not cl.fn(m, None):
                break
        else:
            yield assignment
