"""Bounded completeness probe over small synthetic bindings, and its
role-by-role search, which skips pre-states an earlier search decided,
checked against a flat per-combination search of every pre-state over the
container bindings and over contracts built to defeat the skipping."""

from __future__ import annotations

import collections
import hashlib
import itertools
import json

import pytest

import mbcheck.values as V
from mbcheck.containers import ALL_CLASSES, build_class, domains
from mbcheck.containers.domains import REF_ARG, SequenceDomain
from mbcheck.engine import (
    ARG0,
    TARGET,
    CallCtx,
    ClassSpec,
    Engine,
    InvariantClause,
    ModelQuery,
    RoutineSpec,
    completeness_probe,
    defines,
    derive_frame_postconditions,
    index_param,
    item_param,
    pred,
    ref_param,
)
from mbcheck.engine.completeness import AbstractCtx, ProbeResult, _Admitted, _ReadMap
from mbcheck.engine.specs import NO_EXIT_STATE, ModelCtx
from mbcheck.errors import ConfigError, ModelEvalError


class Box:
    """Concrete class is irrelevant to the probe; bodies never run."""

    def __init__(self):
        self.n = 0
        self.cap = 0


def box_spec(routines, attr_derivations=None):
    model = [
        ModelQuery("n", lambda o: o.n),
        ModelQuery("cap", lambda o: o.cap),
    ]
    invariants = [
        InvariantClause(
            "n_in_cap",
            lambda m, o: 0 <= m["n"] <= m["cap"],
            kind="model",
        )
    ]
    return ClassSpec(
        "abox", "strong", model, invariants, routines, Box, attr_derivations=attr_derivations
    )


class BoxDomain:
    """Pre-states: every (n, cap) with 0 <= n <= cap <= 2.

    Candidate values per free coordinate: integers 0..4. Ref-argument roles
    get the same (n, cap) grid.
    """

    def __init__(self, caps=(0, 1, 2), vals=range(5)):
        self.caps = tuple(caps)
        self.vals = tuple(vals)

    def _grid(self):
        for cap in self.caps:
            for n in range(cap + 1):
                yield {"n": n, "cap": cap}

    def pre_states(self, class_spec, routine):
        for tm in self._grid():
            roles = {TARGET: tm}
            if routine.ref_roles:
                for am in self._grid():
                    r2 = dict(roles)
                    r2[ARG0] = am
                    yield {"roles": r2, "args": (REF_ARG,)}
                # and the void argument
                yield {"roles": roles, "args": (None,)}
            elif routine.params:
                for a in (0, 1):
                    yield {"roles": roles, "args": (a,)}
            else:
                yield {"roles": roles, "args": ()}

    def value_choices(self, qname):
        return list(self.vals)

    def result_choices(self, routine):
        return list(self.vals)


class ShortValuesDomain(SequenceDomain):
    """A ``SequenceDomain`` whose candidate sequences and indices are no
    longer than its pre-states'."""

    def __init__(self, role_specs, **bounds):
        super().__init__(role_specs, **bounds)
        self.value_seqs = self.pre_seqs
        self.index_values = list(range(self.max_len + 2))


def probe(routine_spec, domain=None):
    spec = box_spec({routine_spec.name: routine_spec})
    domain = domain or BoxDomain()
    return completeness_probe(spec, spec.routines[routine_spec.name], domain)


# --- verdicts -------------------------------------------------------------


def test_pinned_increment_is_complete():
    r = RoutineSpec(
        "bump",
        [],
        lambda o: None,
        pre=[pred("room", lambda ctx: ctx.old("n") < ctx.old("cap"))],
        post=[pred("up_one", lambda ctx: ctx.now("n") == ctx.old("n") + 1)],
        modify=("n",),
    )
    res = probe(r)
    assert res.verdict == "complete"
    # pre-states with n == cap were filtered by the precondition
    assert res.pre_states_checked == 3  # (0,1) (0,2) (1,2)


def test_lower_bound_only_is_incomplete_with_two_witnesses():
    r = RoutineSpec(
        "loosen",
        [],
        lambda o: None,
        pre=[pred("room", lambda ctx: ctx.old("n") < ctx.old("cap"))],
        post=[pred("not_less", lambda ctx: ctx.now("n") >= ctx.old("n"))],
        modify=("n",),
    )
    res = probe(r)
    assert res.verdict == "incomplete"
    assert len(res.witness_posts) == 2
    a = res.witness_posts[0][0][TARGET]["n"]
    b = res.witness_posts[1][0][TARGET]["n"]
    assert a != b


def test_unreachable_post_is_unsatisfiable():
    r = RoutineSpec(
        "teleport",
        [],
        lambda o: None,
        post=[pred("way_up", lambda ctx: ctx.now("n") == ctx.old("n") + 10)],
        modify=("n",),
    )
    res = probe(r)
    # no candidate fits, which proves nothing about the post-states beyond
    # the domain's candidates
    assert res.verdict == "inconclusive"
    assert res.witness_posts == []


def test_post_beyond_the_candidates_is_inconclusive():
    # strong merge_right splices the argument's sequence in, which runs past
    # the candidates once they are no longer than the pre-state sequences
    strong = build_class("cursor_list", "strong")
    dom = ShortValuesDomain({"cursor_list": strong}, max_len=3, alphabet=2)
    res = completeness_probe(strong, strong.routines["merge_right"], dom)
    assert res.verdict == "inconclusive"
    assert res.witness_posts == []


def test_invariant_filter_can_make_a_weak_post_complete():
    # at n == cap the model invariant leaves a single candidate above old n
    r = RoutineSpec(
        "nudge",
        [],
        lambda o: None,
        pre=[pred("full", lambda ctx: ctx.old("n") == ctx.old("cap"))],
        post=[pred("not_less", lambda ctx: ctx.now("n") >= ctx.old("n"))],
        modify=("n",),
    )
    res = probe(r)
    assert res.verdict == "complete"


def test_unframed_routine_frees_every_query():
    # the same pinned post is ambiguous once cap may drift too
    r = RoutineSpec(
        "bump_unframed",
        [],
        lambda o: None,
        pre=[pred("room", lambda ctx: ctx.old("n") < ctx.old("cap"))],
        post=[pred("up_one", lambda ctx: ctx.now("n") == ctx.old("n") + 1)],
        modify=None,
    )
    res = probe(r)
    assert res.verdict == "incomplete"
    caps = {w[0][TARGET]["cap"] for w in res.witness_posts}
    assert len(caps) == 2


def test_pure_routine_with_no_post_is_complete():
    r = RoutineSpec("peek", [], lambda o: None, modify=())
    res = probe(r)
    assert res.verdict == "complete"
    assert res.pre_states_checked == 6  # full (n, cap) grid


def test_query_with_pinned_result_is_complete():
    r = RoutineSpec(
        "value",
        [],
        lambda o: None,
        post=[pred("reports_n", lambda ctx: ctx.result == ctx.now("n"))],
        modify=(),
        returns_value=True,
    )
    res = probe(r)
    assert res.verdict == "complete"


def test_query_with_free_result_is_incomplete():
    r = RoutineSpec(
        "some_value",
        [],
        lambda o: None,
        post=[pred("anything", lambda ctx: True)],
        modify=(),
        returns_value=True,
    )
    res = probe(r)
    assert res.verdict == "incomplete"
    # both witnesses share the (unchanged) exit state, differing in result only
    assert res.witness_posts[0][0] == res.witness_posts[1][0]
    assert res.witness_posts[0][1] != res.witness_posts[1][1]


def test_reference_argument_coordinates_probe_jointly():
    r = RoutineSpec(
        "pour_into",
        [ref_param()],
        lambda o, p: None,
        pre=[
            pred("other_given", lambda ctx: not ctx.arg_is_void(0)),
            pred(
                "fits",
                lambda ctx: ctx.old("n") <= ctx.old("cap", ARG0),
            ),
        ],
        post=[
            pred(
                "moved",
                lambda ctx: ctx.now("n", ARG0) == ctx.old("n")
                and ctx.now("n") == 0,
            )
        ],
        modify=(("target", "n"), (ARG0, "n")),
    )
    res = probe(r)
    assert res.verdict == "complete"


def test_reference_argument_left_loose_is_incomplete():
    r = RoutineSpec(
        "spill_into",
        [ref_param()],
        lambda o, p: None,
        pre=[pred("other_given", lambda ctx: not ctx.arg_is_void(0))],
        post=[pred("emptied", lambda ctx: ctx.now("n") == 0)],
        modify=(("target", "n"), (ARG0, "n")),
    )
    res = probe(r)
    assert res.verdict == "incomplete"


def test_concrete_precondition_is_rejected_loudly():
    r = RoutineSpec(
        "grounded",
        [],
        lambda o: None,
        pre=[pred("concrete", lambda ctx: ctx.obj.n == 0)],
        modify=(),
    )
    with pytest.raises(ConfigError):
        probe(r)


def test_exit_state_read_in_precondition_is_refused():
    r = RoutineSpec(
        "peek",
        [],
        lambda o: None,
        pre=[pred("reads_exit", lambda ctx: ctx.now("n") is not None)],
        modify=(),
    )
    with pytest.raises(
        ConfigError,
        match="precondition is not abstractly evaluable: "
        "exit state is not available in a precondition",
    ):
        probe(r)


@pytest.mark.parametrize(
    "clause, stage, error",
    [
        ("pre", "precondition", r"IndexError\('tuple index out of range'\)"),
        ("post", "postcondition", r"KeyError\(1\)"),
    ],
    ids=["pre", "post"],
)
def test_any_clause_exception_is_refused_by_its_repr(clause, stage, error):
    # the routine has no arguments, so reading one raises: a precondition
    # reads the argument tuple, a postcondition the map of arguments read
    reads_arg = [pred("reads_arg", lambda ctx: ctx.arg(1) == 0)]
    r = RoutineSpec(
        "noop",
        [],
        lambda o: None,
        pre=reads_arg if clause == "pre" else (),
        post=reads_arg if clause == "post" else (),
        modify=(),
    )
    with pytest.raises(
        ConfigError,
        match=r"^abox\.noop %s is not abstractly evaluable: %s$" % (stage, error),
    ):
        probe(r)


# --- one predicate surface for the runtime and the probe -------------------

PREDICATE_SURFACE = (
    "old",
    "now",
    "arg",
    "arg_is_void",
    "arg_is_target",
    "obj",
    "self_id",
    "arg_id",
)
MODEL_ACCESSORS = ("old", "now", "arg", "arg_is_void")


@pytest.mark.parametrize("ctx_class", [CallCtx, AbstractCtx])
def test_both_contexts_answer_one_predicate_surface(ctx_class):
    assert issubclass(ctx_class, ModelCtx)
    public = {n for n, v in vars(ModelCtx).items() if callable(v) and not n.startswith("_")}
    assert public == set(MODEL_ACCESSORS)
    assert all(hasattr(ctx_class, name) for name in PREDICATE_SURFACE)
    # the model accessors are ModelCtx's alone
    assert not set(MODEL_ACCESSORS) & set(vars(ctx_class))
    assert not hasattr(ctx_class, "attr") and not hasattr(ctx_class, "arg_attr")


def test_old_and_now_resolve_a_derived_attribute():
    # strong cursor_list has no count query but derives count from the
    # sequence; over recording maps the derivation reads the sequence alone
    spec = build_class("cursor_list", "strong")
    engine = Engine()
    co = engine.create(spec)
    entry = {"sequence": V.sequence([7, 8, 9]), "index": 0}
    exit_ = {"sequence": V.sequence([7, 8, 9, 5]), "index": 0}
    recording = AbstractCtx(spec, {TARGET: _ReadMap(entry)}, _ReadMap({0: 5}))
    recording.exit_models = {TARGET: _ReadMap(exit_)}
    for ctx in (
        CallCtx(co, (5,), {TARGET: entry}),
        AbstractCtx(spec, {TARGET: entry}, (5,)),
    ):
        ctx.exit_models = {TARGET: exit_}
        assert (ctx.old("count"), ctx.now("count")) == (3, 4)
    assert (recording.old("count"), recording.now("count")) == (3, 4)
    assert (
        set(recording.entry_models[TARGET]) == set(recording.exit_models[TARGET]) == {"sequence"}
    )

    # an argument role derives count from its own sequence, at run time too
    other = engine.create(spec)
    arg_entry = {"sequence": V.sequence([1, 2]), "index": 0}
    for ctx in (
        CallCtx(co, (other.concrete,), {TARGET: entry, ARG0: arg_entry}),
        AbstractCtx(spec, {TARGET: entry, ARG0: arg_entry}, (object(),)),
    ):
        assert ctx.old("count", ARG0) == V.seq_count(arg_entry["sequence"]) == 2
        with pytest.raises(
            ModelEvalError, match="lower is neither a model query nor a derived attribute"
        ):
            ctx.old("lower", ARG0)


def test_both_contexts_read_and_refuse_alike():
    spec = build_class("cursor_list", "strong")
    engine = Engine()
    co = engine.create(spec)
    entry = {TARGET: {q.name: q.evaluate(co.concrete) for q in spec.model}}
    # finish moves the cursor; the exit state differs from the entry there
    moved = {"index": 1}
    exit_ = {TARGET: {**entry[TARGET], **moved}}

    def recording_exit():
        # as a recording search holds it: only the free coordinate assigned
        m = _ReadMap(entry[TARGET])
        m.update(moved)
        return {TARGET: m}

    # each read gets a fresh context, so a get or an in is the recording
    # maps' first lookup of its query
    contexts = (
        lambda: CallCtx(co, (), entry),
        lambda: AbstractCtx(spec, entry, ()),
        lambda: AbstractCtx(spec, {TARGET: _ReadMap(entry[TARGET])}, _ReadMap({})),
    )
    exits = (lambda: exit_, lambda: exit_, recording_exit)

    def answer(ctx, read):
        try:
            return read(ctx)
        except ModelEvalError as e:
            return "ModelEvalError: %s" % e

    entry_reads = [
        lambda ctx: ctx.old("sequence"),
        lambda ctx: ctx.old("count"),
        lambda ctx: ctx.old("lower"),
        lambda ctx: ctx.old("index", ARG0),
        lambda ctx: ctx.now("index"),
        lambda ctx: ctx.entry_models[TARGET].get("index"),
        lambda ctx: ctx.entry_models[TARGET].get("lower", "absent"),
        lambda ctx: "sequence" in ctx.entry_models[TARGET],
        lambda ctx: "lower" in ctx.entry_models[TARGET],
    ]
    exit_reads = [
        lambda ctx: ctx.now("index"),
        lambda ctx: ctx.now("sequence"),
        lambda ctx: ctx.now("count"),
        lambda ctx: ctx.now("lower"),
        lambda ctx: ctx.now("index", ARG0),
        lambda ctx: ctx.exit_models[TARGET].get("sequence"),
        lambda ctx: ctx.exit_models[TARGET].get("lower", "absent"),
        lambda ctx: "sequence" in ctx.exit_models[TARGET],
        lambda ctx: "lower" in ctx.exit_models[TARGET],
    ]

    def answers(make, make_exit):
        out = [answer(make(), read) for read in entry_reads]
        for read in exit_reads:
            ctx = make()
            ctx.exit_models = make_exit()
            out.append(answer(ctx, read))
        return out

    got = [answers(make, make_exit) for make, make_exit in zip(contexts, exits)]
    assert got[0] == got[1] == got[2]
    empty = V.EMPTY_SEQ
    assert got[0][1:] == [
        0,
        "ModelEvalError: lower is neither a model query nor a derived attribute of cursor_list",
        "ModelEvalError: no model state for role arg0",
        "ModelEvalError: " + NO_EXIT_STATE,
        0,
        "absent",
        True,
        False,
        1,
        empty,
        0,
        "ModelEvalError: lower is neither a model query nor a derived attribute of cursor_list",
        "ModelEvalError: no model state for role arg0",
        empty,
        "absent",
        True,
        False,
    ]


def test_abstract_context_has_no_identity():
    ctx = AbstractCtx(None, {TARGET: {}}, (REF_ARG,))
    for read in (ctx.self_id, lambda: ctx.arg_id(0)):
        with pytest.raises(ModelEvalError, match="object identity is not part of abstract states"):
            read()


def test_recording_map_keeps_what_was_read():
    src = {"n": 1, "cap": 2}
    m = _ReadMap(src)
    assert m.get("lower") is None and "lower" not in m and m.get("lower", 7) == 7
    assert not m  # a miss records nothing
    assert "cap" in m and set(m) == {"cap"}
    assert m.get("n") == 1 and set(m) == {"cap", "n"}
    m["n"] = 0  # a free coordinate, assigned, shadows the source
    assert m["n"] == m.get("n") == 0 and src["n"] == 1
    args = _ReadMap(dict(enumerate((5, None, 7))))
    assert args[2] == 7 and args[1] is None and sorted(args) == [1, 2]


# --- sequence-valued coordinates over the toy binding ---------------------


def all_seqs(max_len, alphabet):
    out = [[]]
    frontier = [[]]
    for _ in range(max_len):
        frontier = [s + [a] for s in frontier for a in range(alphabet)]
        out.extend(frontier)
    return [V.sequence(s) for s in out]


class SeqDomain:
    """Target role only: sequences up to length 2, index in bounds."""

    def __init__(self, pre_len=2, choice_len=3, alphabet=2):
        self.pre = all_seqs(pre_len, alphabet)
        self.choices = all_seqs(choice_len, alphabet)
        self.alphabet = alphabet

    def pre_states(self, class_spec, routine):
        for s in self.pre:
            for i in range(V.seq_count(s) + 2):
                roles = {TARGET: {"sequence": s, "index": i}}
                if routine.params:
                    for a in range(self.alphabet):
                        yield {"roles": roles, "args": (a,)}
                else:
                    yield {"roles": roles, "args": ()}

    def value_choices(self, qname):
        if qname == "sequence":
            return self.choices
        return list(range(-1, 5))

    def result_choices(self, routine):
        return list(range(self.alphabet))


def toy_seq_spec(routines):
    class Holder:
        pass

    model = [
        ModelQuery("sequence", lambda o: V.EMPTY_SEQ),
        ModelQuery("index", lambda o: 0),
    ]
    invariants = [
        InvariantClause(
            "index_bounds",
            lambda m, o: 0 <= m["index"] <= V.seq_count(m["sequence"]) + 1,
            kind="model",
        )
    ]
    return ClassSpec("holder", "strong", model, invariants, routines, Holder)


def test_append_post_is_complete_over_sequences():
    r = RoutineSpec(
        "append",
        [item_param()],
        lambda o, v: None,
        post=[
            pred(
                "appended",
                lambda ctx: ctx.now("sequence")
                == V.seq_extended(ctx.old("sequence"), ctx.arg(0)),
            )
        ],
        modify=("sequence",),
    )
    spec = toy_seq_spec({"append": r})
    res = completeness_probe(spec, spec.routines["append"], SeqDomain())
    assert res.verdict == "complete"
    assert res.pre_states_checked > 0


def test_count_only_post_is_incomplete_over_sequences():
    r = RoutineSpec(
        "append_loose",
        [item_param()],
        lambda o, v: None,
        post=[
            pred(
                "count_up",
                lambda ctx: V.seq_count(ctx.now("sequence"))
                == V.seq_count(ctx.old("sequence")) + 1,
            )
        ],
        modify=("sequence",),
    )
    spec = toy_seq_spec({"append_loose": r})
    res = completeness_probe(spec, spec.routines["append_loose"], SeqDomain())
    assert res.verdict == "incomplete"
    assert len(res.witness_posts) == 2


# --- the container bindings against the per-combination search ------------


def reference_probe(class_spec, routine, domain):
    """The probe as one flat search: every combination of candidate values
    over all free (role, query) coordinates, with the role maps copied and
    every role's model invariants checked again for each combination. The
    role-by-role search in ``completeness_probe`` must agree with it on
    verdict, pre-states checked and witnesses."""
    # every role is of the target's class
    model_invariants = tuple(cl for cl in class_spec.invariants if cl.kind == "model")
    checked = 0
    for pre in domain.pre_states(class_spec, routine):
        entry = pre["roles"]
        ctx = AbstractCtx(class_spec, entry, pre["args"])
        try:
            if not all(p.fn(ctx) for p in routine.pre):
                continue
        except Exception as e:
            raise ConfigError("precondition is not abstractly evaluable: %s" % e)
        checked += 1
        universe = []
        for role in sorted(entry, key=lambda r: (r != TARGET, r)):
            for qname in entry[role]:
                universe.append((role, qname))
        if routine.modify is None:
            free = universe
        else:
            free = [u for u in universe if u in set(routine.modify)]
        choice_lists = [domain.value_choices(qname) for _, qname in free]
        results = domain.result_choices(routine) if routine.returns_value else (None,)
        found = []
        for combo in itertools.product(*choice_lists):
            exit_maps = {role: dict(m) for role, m in entry.items()}
            for (role, qname), val in zip(free, combo):
                exit_maps[role][qname] = val
            if not all(
                cl.fn(m, None) for m in exit_maps.values() for cl in model_invariants
            ):
                continue
            ctx.exit_models = exit_maps
            for result in results:
                ctx.result = result
                try:
                    admitted = all(p.fn(ctx) for p in routine.post) and all(
                        p.fn(ctx) for p in routine.frame_preds
                    )
                except Exception as e:
                    raise ConfigError("postcondition is not abstractly evaluable: %s" % e)
                if admitted:
                    found.append((exit_maps, result))
                    if len(found) == 2:
                        return ProbeResult("incomplete", pre, found, checked, checked)
        if not found:
            return ProbeResult("inconclusive", pre, [], checked, checked)
    return ProbeResult("complete", None, [], checked, checked)


SEQUENCE_CLASSES = [
    c for c in ALL_CLASSES if "sequence" in build_class(c, "strong").model_names
]

# (max_len, alphabet, unique for cursor_set, domain class)
BOUNDS = {
    "len3-abc2": (3, 2, True, SequenceDomain),
    "len2-abc3": (2, 3, False, SequenceDomain),
    "len3-abc2-short-values": (3, 2, True, ShortValuesDomain),
}


def sequence_tasks(class_name, bound):
    max_len, alphabet, unique, domain = BOUNDS[bound]
    strong = build_class(class_name, "strong")
    weak = build_class(class_name, "weak")
    dom = domain(
        {class_name: strong},
        max_len=max_len,
        alphabet=alphabet,
        unique=unique and class_name == "cursor_set",
    )
    for binding in (strong, weak):
        for rname in sorted(binding.routines):
            yield "%s.%s.%s" % (class_name, rname, binding.level), strong, binding.routines[rname], dom


def outcome(probe_fn, strong, routine, dom):
    """What a probe run shows: its verdict, pre-states checked and
    witnesses, or whether it refused a clause as not abstractly evaluable."""
    try:
        res = probe_fn(strong, routine, dom)
    except ConfigError as e:
        return ("refused", "not abstractly evaluable" in str(e))
    return (res.verdict, res.pre_states_checked, res.witness_pre, res.witness_posts)


@pytest.mark.parametrize("bound", sorted(BOUNDS))
@pytest.mark.parametrize("class_name", SEQUENCE_CLASSES)
def test_role_by_role_search_matches_flat_search(class_name, bound):
    for key, strong, routine, dom in sequence_tasks(class_name, bound):
        want = outcome(reference_probe, strong, routine, dom)
        got = outcome(completeness_probe, strong, routine, dom)
        assert got == want, key


@pytest.mark.parametrize("bound", sorted(BOUNDS))
@pytest.mark.parametrize("unique", [False, True])
def test_domain_sequences_match_one_element_at_a_time(bound, unique):
    max_len, alphabet, _, domain = BOUNDS[bound]
    dom = domain({}, max_len=max_len, alphabet=alphabet, unique=unique)
    value_len = max_len if domain is ShortValuesDomain else 2 * max_len
    for n, got in ((max_len, dom.pre_seqs), (value_len, dom.value_seqs)):
        want = [
            s
            for s in all_seqs(n, alphabet)
            if not unique or len(set(V.seq_items(s))) == V.seq_count(s)
        ]
        assert got == want


def test_candidate_sequences_are_built_when_first_asked_for(monkeypatch):
    built = []

    def counted(*a):
        built.append(a)
        return all_seqs_of_domain(*a)

    all_seqs_of_domain = domains._all_seqs
    monkeypatch.setattr(domains, "_all_seqs", counted)
    strong = build_class("cursor_list", "strong")
    weak = build_class("cursor_list", "weak")
    # strong has frees no query; weak forth, unframed, frees the sequence
    for routine, builds in ((strong.routines["has"], 1), (weak.routines["forth"], 2)):
        built.clear()
        got = outcome(completeness_probe, strong, routine, SequenceDomain({"cursor_list": strong}))
        assert len(built) == builds, routine.name
        dom = SequenceDomain({"cursor_list": strong})
        dom.value_seqs  # built up front, as before
        assert outcome(completeness_probe, strong, routine, dom) == got, routine.name


def count_calls(monkeypatch, objs, counts, record=None):
    """Wrap each ``obj.fn`` to count its calls under ``counts[obj.name]``."""
    for obj in objs:
        inner = obj.fn

        def fn(*a, _inner=inner, _name=obj.name):
            counts[_name] += 1
            if record is not None:
                record(_name, a)
            return _inner(*a)

        monkeypatch.setattr(obj, "fn", fn)


def count_invariant_runs(monkeypatch, spec):
    """A Counter of the runs of ``spec``'s invariants from here on, by clause
    name and role map."""
    seen = collections.Counter()

    def record(name, a):
        seen[name, tuple(sorted(a[0].items()))] += 1

    count_calls(monkeypatch, spec.invariants, collections.Counter(), record)
    return seen


# pre-states searched / checked, derived by hand at the len3-abc2 bound: 64
# target states (15 sequences, cursor 0..count+1), 49 of them with the cursor
# not after the end. Strong merge_right reads the argument's sequence but not
# its cursor, so one search decides every argument state with that sequence
# (49 x 15 of 49 x 64); weak wipe_out reads nothing of the pre-state. Strong
# finish reads the derived count, which reads only the sequence, so one
# search decides every cursor of a sequence (15 of 64).
SEARCHED = {
    "cursor_list.finish.strong": (15, 64),
    "cursor_list.merge_right.strong": (735, 3136),
    "cursor_list.wipe_out.weak": (1, 64),
    "two_way_list.finish.strong": (15, 64),
}


@pytest.mark.parametrize("class_name", SEQUENCE_CLASSES)
def test_invariants_run_once_per_role_candidate(class_name, monkeypatch):
    figures = set()
    for key, strong, routine, dom in sequence_tasks(class_name, "len3-abc2"):
        roles = 1 + len(routine.ref_roles)
        runs = {}
        for probe_fn in (reference_probe, completeness_probe):
            clause_counts = collections.Counter()
            results = []

            def run(*a, _probe=probe_fn):
                results.append(_probe(*a))
                return results[-1]

            with monkeypatch.context() as mp:
                count_calls(mp, routine.post + routine.frame_preds, clause_counts)
                seen = count_invariant_runs(mp, strong)
                runs[probe_fn] = (outcome(run, strong, routine, dom), clause_counts)
            if probe_fn is completeness_probe:
                # one evaluation per distinct candidate of each role at most
                assert max(seen.values(), default=0) <= roles, key
                if key in SEARCHED:
                    res = results[0]
                    assert (res.pre_states_searched, res.pre_states_checked) == SEARCHED[key]
                    figures.add(key)
        assert runs[completeness_probe][0] == runs[reference_probe][0], key
        # decided pre-states are not searched again, so no clause runs more often
        for name, n in runs[completeness_probe][1].items():
            assert n <= runs[reference_probe][1][name], (key, name)
    assert figures == {k for k in SEARCHED if k.startswith(class_name + ".")}


# model-invariant runs of each weak task at len3-abc2 that ends at its first
# pre-state, over a fresh domain: the runs with which the domain keeps the
# target states the invariants allow (64 for cursor_list and two_way_list, 16
# for cursor_set) and those of the candidates the search reaches. Filtering
# every candidate first made 1,080 runs for an unframed cursor_list or
# two_way_list routine, 2,096 for one with a list argument, 112 for cursor_set
# and 192 for cursor_set.is_equal.
FIRST_PRE_STATE_INVARIANT_RUNS = {
    "cursor_list.back.weak": 73,
    "cursor_list.extend.weak": 74,
    "cursor_list.finish.weak": 73,
    "cursor_list.forth.weak": 74,
    "cursor_list.go_i_th.weak": 73,
    "cursor_list.has.weak": 66,
    "cursor_list.is_equal.weak": 66,
    "cursor_list.item.weak": 65,
    "cursor_list.merge_right.weak": 67,
    "cursor_list.off.weak": 66,
    "cursor_list.remove.weak": 66,
    "cursor_list.replace.weak": 74,
    "cursor_list.start.weak": 74,
    "cursor_set.forth.weak": 52,
    "cursor_set.has.weak": 36,
    "cursor_set.is_equal.weak": 36,
    "cursor_set.item.weak": 34,
    "cursor_set.off.weak": 36,
    "cursor_set.start.weak": 52,
    "two_way_list.back.weak": 73,
    "two_way_list.extend.weak": 74,
    "two_way_list.finish.weak": 73,
    "two_way_list.forth.weak": 74,
    "two_way_list.go_i_th.weak": 73,
    "two_way_list.has.weak": 66,
    "two_way_list.item.weak": 65,
    "two_way_list.off.weak": 66,
    "two_way_list.put_front.weak": 74,
    "two_way_list.remove.weak": 66,
    "two_way_list.replace.weak": 74,
    "two_way_list.start.weak": 74,
}


def test_search_filters_only_the_candidates_it_reaches(monkeypatch):
    max_len, alphabet, unique, _ = BOUNDS["len3-abc2"]
    runs = {}
    # the sequence classes whose strong model has invariants of kind model
    for class_name in ("cursor_list", "cursor_set", "two_way_list"):
        for key, strong, routine, _ in sequence_tasks(class_name, "len3-abc2"):
            if not key.endswith(".weak"):
                continue
            dom = SequenceDomain(
                {class_name: strong},
                max_len=max_len,
                alphabet=alphabet,
                unique=unique and class_name == "cursor_set",
            )
            with monkeypatch.context() as mp:
                seen = count_invariant_runs(mp, strong)
                try:
                    res = completeness_probe(strong, routine, dom)
                except ConfigError:
                    continue
            if res.verdict != "complete" and res.pre_states_checked == 1:
                runs[key] = sum(seen.values())
    assert runs == FIRST_PRE_STATE_INVARIANT_RUNS


def _fresh(v):
    """A copy of ``v`` sharing no tuple with it."""
    return tuple([_fresh(x) for x in v]) if isinstance(v, tuple) else v


class FreshCopiesDomain(SequenceDomain):
    """A ``SequenceDomain`` that hands out fresh copies of every role map,
    argument tuple and model value for each pre-state, so a probe that
    keyed anything on object identity would decide fewer pre-states."""

    def pre_states(self, class_spec, routine):
        for pre in super().pre_states(class_spec, routine):
            yield {
                "roles": {
                    role: {q: _fresh(v) for q, v in m.items()}
                    for role, m in pre["roles"].items()
                },
                "args": tuple(list(pre["args"])),
            }


@pytest.mark.parametrize("class_name", ["cursor_list", "cursor_set"])
def test_probe_keys_nothing_on_object_identity(class_name):
    strong = build_class(class_name, "strong")
    for level in ("strong", "weak"):
        routines = build_class(class_name, level).routines
        for rname, routine in sorted(routines.items()):
            got = []
            for domain in (SequenceDomain, FreshCopiesDomain):
                try:
                    res = completeness_probe(strong, routine, domain({class_name: strong}))
                except ConfigError as e:
                    got.append(str(e))
                    continue
                searched = (res.pre_states_checked, res.pre_states_searched)
                got.append((res.verdict, searched, res.witness_pre, res.witness_posts))
            assert got[0] == got[1], (rname, level)


def test_where_gives_what_filtering_gives():
    free = ("sequence", "index")
    values = all_seqs(2, 2)
    candidates = [tuple(zip(free, vs)) for vs in itertools.product(values, range(3))]
    complete = _Admitted(candidates)
    for pos, wants in ((0, values + [(V.SEQ, (5,))]), (1, [2, 0, 1, 9])):
        for want in wants:
            filtered = [a for a in candidates if a[pos][1] == want]
            got = complete.where(pos, want)
            assert got == filtered, (pos, want)
            got.append(candidates[0])  # a list handed out is the caller's
            got.reverse()
            assert complete.where(pos, want) == filtered
            pending = _Admitted(candidates[:4])
            pending.pending = iter(candidates[4:])
            kept = pending.where(pos, want)
            kept.fill({})
            assert kept == filtered, (pos, want)


def _box_with_invariant(fn):
    # the lower bound leaves n open, so with n_in_cap replaced by fn the
    # search admits every n >= old n that fn allows, in ascending order
    r = RoutineSpec(
        "grow",
        [],
        lambda o: None,
        post=[pred("not_less", lambda ctx: ctx.now("n") >= ctx.old("n"))],
        modify=("n",),
    )
    spec = box_spec({r.name: r})
    (invariant,) = spec.invariants
    invariant.fn = fn
    domain = BoxDomain()
    return spec, spec.routines[r.name], domain


def _raising_from(limit):
    def below_limit(m, o):
        if m["n"] >= limit:
            raise ModelEvalError("n = %d is beyond the invariant's reach" % limit)
        return True

    return below_limit


def test_invariant_raising_beyond_the_second_admitted_exit_is_not_reached():
    # the first pre-state, (n, cap) = (0, 0), admits n = 0 and n = 1 before
    # the search reaches n = 4
    spec, routine, domain = _box_with_invariant(_raising_from(4))
    want = outcome(reference_probe, spec, routine, domain)
    assert want[:2] == ("incomplete", 1)
    assert outcome(completeness_probe, spec, routine, domain) == want


def test_invariant_raising_on_the_first_candidate_is_not_converted():
    spec, routine, domain = _box_with_invariant(_raising_from(0))
    for probe_fn in (reference_probe, completeness_probe):
        with pytest.raises(ModelEvalError, match="beyond the invariant's reach"):
            probe_fn(spec, routine, domain)


def test_invariant_raising_at_a_later_pre_state_is_reached_by_the_fill():
    # Only a probe's first search filters on demand. (0, 0) admits n = 0
    # alone, so its search succeeds and the memo needs whole lists from then
    # on: the cap = 1 list of (0, 1) is filled before its search, and the
    # filter reaches n = 3, where the invariant raises, although a search of
    # every pre-state stops at (0, 1) with n = 0 and n = 1 admitted.
    def capped(m, o):
        n, cap = m["n"], m["cap"]
        if cap >= 1 and n >= 3:
            raise ModelEvalError("n = %d is beyond cap %d" % (n, cap))
        return 0 <= n <= cap

    spec, routine, domain = _box_with_invariant(capped)
    assert outcome(reference_probe, spec, routine, domain)[:2] == ("incomplete", 2)
    with pytest.raises(ModelEvalError, match="n = 3 is beyond cap 1"):
        completeness_probe(spec, routine, domain)


def test_merge_right_postcondition_evaluations_as_pinned(monkeypatch):
    # strong merge_right at the benchmark's probe bound (max_len 3, alphabet
    # 2) makes 735 searches over 127 candidate sequences. Its defining clause
    # is solved once per search and then tested on the one candidate left:
    # 735 evaluations, where testing every candidate made 92,805
    strong = build_class("cursor_list", "strong")
    routine = strong.routines["merge_right"]
    dom = SequenceDomain({"cursor_list": strong}, max_len=3, alphabet=2)
    counts = collections.Counter()
    count_calls(monkeypatch, routine.post, counts)
    (spliced,) = routine.post
    role, query, expected = spliced.definition

    def counted(ctx):
        counts["solved"] += 1
        return expected(ctx)

    monkeypatch.setattr(spliced, "definition", (role, query, counted))
    res = completeness_probe(strong, routine, dom)
    assert (res.verdict, res.pre_states_searched) == ("complete", 735)
    assert counts == {"spliced": 735, "solved": 735}


def search_figures(bound):
    """``(pre_states_searched, pre_states_checked)`` of every probe task at
    ``bound``, or the text of the probe's refusal."""
    out = {}
    for class_name in SEQUENCE_CLASSES:
        for key, strong, routine, dom in sequence_tasks(class_name, bound):
            try:
                res = completeness_probe(strong, routine, dom)
            except ConfigError as e:
                out[key] = str(e)
            else:
                out[key] = (res.pre_states_searched, res.pre_states_checked)
    return out


# what every search reads decides which later pre-states it settles, so
# these figures change whenever a recording change alters any search's read
# set. Measured before the recording maps filled on demand; the sha256 covers
# all three BOUNDS, as json.dumps({bound: figures}, sort_keys=True), and moved
# for cursor_set at len2-abc3 alone once the domain left out the pre-states
# with repeated elements that cursor_set's model invariant forbids.
SEARCH_FIGURES_SHA256 = "7baa700817b9108a4bd059f4ae7a583f5f483b812260451d6685c5da54c688a5"
SEARCH_FIGURES_LEN3_ABC2 = {
    "array_stack.is_empty.strong": (15, 15),
    "array_stack.is_empty.weak": (1, 1),
    "array_stack.pop.strong": (14, 14),
    "array_stack.pop.weak": (3, 3),
    "array_stack.push.strong": (30, 30),
    "array_stack.push.weak": (1, 1),
    "array_stack.top.strong": (14, 14),
    "array_stack.top.weak": (1, 1),
    "array_stack.wipe_out.strong": (1, 15),
    "array_stack.wipe_out.weak": (1, 15),
    "cursor_list.back.strong": (10, 49),
    "cursor_list.back.weak": (1, 1),
    "cursor_list.extend.strong": (98, 128),
    "cursor_list.extend.weak": (1, 1),
    "cursor_list.finish.strong": (15, 64),
    "cursor_list.finish.weak": (1, 1),
    "cursor_list.forth.strong": (10, 49),
    "cursor_list.forth.weak": (1, 1),
    "cursor_list.go_i_th.strong": (14, 286),
    "cursor_list.go_i_th.weak": (1, 1),
    "cursor_list.has.strong": (30, 128),
    "cursor_list.has.weak": (1, 1),
    "cursor_list.is_equal.strong": (225, 4096),
    "cursor_list.is_equal.weak": (1, 1),
    "cursor_list.item.strong": (34, 34),
    "cursor_list.item.weak": (1, 1),
    "cursor_list.merge_right.strong": (735, 3136),
    "cursor_list.merge_right.weak": (1, 1),
    "cursor_list.off.strong": (50, 64),
    "cursor_list.off.weak": (1, 1),
    "cursor_list.remove.strong": (34, 34),
    "cursor_list.remove.weak": (1, 1),
    "cursor_list.replace.strong": (68, 68),
    "cursor_list.replace.weak": (1, 1),
    "cursor_list.start.strong": (4, 64),
    "cursor_list.start.weak": (1, 1),
    "cursor_list.wipe_out.strong": (1, 64),
    "cursor_list.wipe_out.weak": (1, 64),
    "cursor_set.extend.strong": (22, 32),
    "cursor_set.extend.weak":
        "cursor_set.extend postcondition is not abstractly evaluable: concrete "
        "state is not available on abstract states",
    "cursor_set.forth.strong": (6, 11),
    "cursor_set.forth.weak": (1, 1),
    "cursor_set.has.strong": (10, 32),
    "cursor_set.has.weak": (1, 1),
    "cursor_set.is_equal.strong": (25, 256),
    "cursor_set.is_equal.weak": (1, 1),
    "cursor_set.item.strong": (6, 6),
    "cursor_set.item.weak": (1, 1),
    "cursor_set.off.strong": (12, 16),
    "cursor_set.off.weak": (1, 1),
    "cursor_set.remove.strong": (1, 1),
    "cursor_set.remove.weak":
        "cursor_set.remove postcondition is not abstractly evaluable: concrete "
        "state is not available on abstract states",
    "cursor_set.replace.strong":
        "cursor_set.replace postcondition is not abstractly evaluable: sequence"
        " position 0 outside 1..1",
    "cursor_set.replace.weak":
        "cursor_set.replace postcondition is not abstractly evaluable: concrete"
        " state is not available on abstract states",
    "cursor_set.start.strong": (3, 16),
    "cursor_set.start.weak": (1, 1),
    "cursor_set.wipe_out.strong": (1, 16),
    "cursor_set.wipe_out.weak": (1, 16),
    "resizable_array.force.strong":
        "resizable_array.force postcondition is not abstractly evaluable: lower"
        " is neither a model query nor a derived attribute of resizable_array",
    "resizable_array.force.weak":
        "resizable_array.force postcondition is not abstractly evaluable: "
        "concrete state is not available on abstract states",
    "resizable_array.item.strong":
        "resizable_array.item precondition is not abstractly evaluable: lower "
        "is neither a model query nor a derived attribute of resizable_array",
    "resizable_array.item.weak":
        "resizable_array.item precondition is not abstractly evaluable: lower "
        "is neither a model query nor a derived attribute of resizable_array",
    "resizable_array.item_count.strong":
        "resizable_array.item_count postcondition is not abstractly evaluable: "
        "target.lower is not in the model map",
    "resizable_array.item_count.weak": (1, 1),
    "resizable_array.put.strong":
        "resizable_array.put precondition is not abstractly evaluable: lower is"
        " neither a model query nor a derived attribute of resizable_array",
    "resizable_array.put.weak":
        "resizable_array.put precondition is not abstractly evaluable: lower is"
        " neither a model query nor a derived attribute of resizable_array",
    "resizable_array.wipe_out.strong":
        "resizable_array.wipe_out postcondition is not abstractly evaluable: "
        "lower is neither a model query nor a derived attribute of "
        "resizable_array",
    "resizable_array.wipe_out.weak":
        "resizable_array.wipe_out postcondition is not abstractly evaluable: "
        "lower is neither a model query nor a derived attribute of "
        "resizable_array",
    "ring_queue.is_empty.strong": (15, 15),
    "ring_queue.is_empty.weak": (1, 1),
    "ring_queue.item.strong": (14, 14),
    "ring_queue.item.weak": (1, 1),
    "ring_queue.put.strong": (30, 30),
    "ring_queue.put.weak": (1, 1),
    "ring_queue.remove.strong": (14, 14),
    "ring_queue.remove.weak": (3, 3),
    "ring_queue.wipe_out.strong": (1, 15),
    "ring_queue.wipe_out.weak": (1, 15),
    "two_way_list.back.strong": (10, 49),
    "two_way_list.back.weak": (1, 1),
    "two_way_list.extend.strong": (98, 128),
    "two_way_list.extend.weak": (1, 1),
    "two_way_list.finish.strong": (15, 64),
    "two_way_list.finish.weak": (1, 1),
    "two_way_list.forth.strong": (10, 49),
    "two_way_list.forth.weak": (1, 1),
    "two_way_list.go_i_th.strong": (14, 286),
    "two_way_list.go_i_th.weak": (1, 1),
    "two_way_list.has.strong": (30, 128),
    "two_way_list.has.weak": (1, 1),
    "two_way_list.item.strong": (34, 34),
    "two_way_list.item.weak": (1, 1),
    "two_way_list.off.strong": (50, 64),
    "two_way_list.off.weak": (1, 1),
    "two_way_list.put_front.strong": (98, 128),
    "two_way_list.put_front.weak": (1, 1),
    "two_way_list.remove.strong": (34, 34),
    "two_way_list.remove.weak": (1, 1),
    "two_way_list.replace.strong": (68, 68),
    "two_way_list.replace.weak": (1, 1),
    "two_way_list.start.strong": (4, 64),
    "two_way_list.start.weak": (1, 1),
    "two_way_list.wipe_out.strong": (1, 64),
    "two_way_list.wipe_out.weak": (1, 64),
}


def test_every_search_reads_as_pinned():
    figures = {bound: search_figures(bound) for bound in sorted(BOUNDS)}
    assert figures["len3-abc2"] == SEARCH_FIGURES_LEN3_ABC2
    assert SEARCHED == {k: SEARCH_FIGURES_LEN3_ABC2[k] for k in SEARCHED}
    blob = json.dumps(figures, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == SEARCH_FIGURES_SHA256


def test_unique_only_narrows_the_enumeration():
    # cursor_set's model invariant forbids repeated elements in the pre-states
    # and in the candidates alike, so leaving them out of the enumeration
    # changes no figure of any cursor_set task
    strong = build_class("cursor_set", "strong")
    weak = build_class("cursor_set", "weak")
    routines = [b.routines[r] for b in (strong, weak) for r in sorted(b.routines)]
    runs = []
    for unique in (False, True):
        dom = SequenceDomain({"cursor_set": strong}, max_len=3, alphabet=2, unique=unique)
        results = []

        def run(*a):
            results.append(completeness_probe(*a))
            return results[-1]

        outcomes = [outcome(run, strong, routine, dom) for routine in routines]
        runs.append((outcomes, [res.pre_states_searched for res in results]))
    assert len(routines) == 20
    assert runs[0] == runs[1]


# --- pre-states decided by an earlier search --------------------------------
#
# Each contract below is complete on the early pre-states and ambiguous on a
# late one that agrees with an early one on something the search does not
# read directly, so a memo that keys on too little would skip the late
# pre-state and report "complete".


def _drain_into():
    # reads the argument only when the target is non-empty; ambiguous only
    # for the last argument state, (n, cap) = (2, 2)
    def drained(ctx):
        if ctx.old("n") == 0 or ctx.old("n", ARG0) != 2:
            return ctx.now("n") == 0
        return ctx.now("n") < 2

    return RoutineSpec(
        "drain_into",
        [ref_param()],
        lambda o, p: None,
        pre=[pred("other_given", lambda ctx: not ctx.arg_is_void(0))],
        post=[pred("drained", drained)],
        modify=("n",),
    ), None


def _fill_by_room():
    # reads the entry only through the derived attribute "room"
    return RoutineSpec(
        "fill_by_room",
        [],
        lambda o: None,
        post=[
            pred(
                "filled",
                lambda ctx: ctx.now("n") == 0
                if ctx.old("room")
                else ctx.now("n") <= 1,
            )
        ],
        modify=("n",),
    ), {"room": lambda m: m["cap"] - m["n"]}


def _fill_by_room_through_get():
    # as _fill_by_room, with the derived attribute reading by ``get`` and the
    # clause testing ``in`` on the exit map, where "cap" is fixed and so not
    # yet copied in: a map answering for its own keys alone admits nothing
    def filled(ctx):
        if "cap" not in ctx.exit_models[TARGET]:
            return False
        if ctx.old("room"):
            return ctx.now("n") == 0
        return ctx.now("n") <= 1

    return RoutineSpec(
        "fill_by_room_through_get",
        [],
        lambda o: None,
        post=[pred("filled", filled)],
        modify=("n",),
    ), {"room": lambda m: m.get("cap") - m.get("n")}


def _step_or_loosen():
    # reads only the free coordinate n at entry
    return RoutineSpec(
        "step_or_loosen",
        [],
        lambda o: None,
        pre=[
            pred(
                "room_or_full_two",
                lambda ctx: ctx.old("n") < ctx.old("cap") or ctx.old("n") == 2,
            )
        ],
        post=[
            pred(
                "stepped",
                lambda ctx: ctx.now("n") == ctx.old("n") + 1
                if ctx.old("n") < 2
                else ctx.now("n") <= 1,
            )
        ],
        modify=("n",),
    ), None


def _small_n():
    # reads no pre-state value; the filtered candidates for n (0..cap) differ
    return RoutineSpec(
        "small_n",
        [],
        lambda o: None,
        post=[pred("small", lambda ctx: ctx.now("n") <= 1)],
        modify=("n",),
    ), None


@pytest.mark.parametrize(
    "contract",
    [
        _drain_into,
        _fill_by_room,
        _fill_by_room_through_get,
        _step_or_loosen,
        _small_n,
    ],
)
def test_decided_pre_states_match_flat_search(contract):
    r, derivations = contract()
    spec = box_spec({r.name: r}, derivations)
    domain = BoxDomain()
    routine = spec.routines[r.name]
    want = outcome(reference_probe, spec, routine, domain)
    assert want[0] == "incomplete"
    assert outcome(completeness_probe, spec, routine, domain) == want


# --- defining clauses, solved rather than tested per candidate -------------
#
# The probe solves the leading run of defining clauses over free coordinates
# and tests only the candidates they admit. Each contract below puts a run
# where solving it wrongly would show: a clause the run must not reach, an
# ``expected`` that raises or reads the exit state, a value no candidate has.


def _defined_after_a_raising_clause():
    # the ordinary clause raises on candidate n == 2, which the defining
    # clause would rule out were it solved first
    return RoutineSpec(
        "settle",
        [],
        lambda o: None,
        post=[
            pred("not_two", lambda ctx: ctx.now("n") != 2 or ctx.obj is None),
            defines("emptied", "n", lambda ctx: 0),
        ],
        modify=("n",),
    ), "refused"


def _expected_raises_on_a_late_pre_state():
    # complete up to cap 2, where expected reads a query the model lacks
    def expected(ctx):
        if ctx.old("cap") < 2:
            return 0
        return ctx.old("lower")

    return RoutineSpec(
        "reset", [], lambda o: None, post=[defines("reset", "n", expected)], modify=("n",)
    ), "refused"


def _expected_reads_the_exit_state():
    # expected cannot run before the exit state exists, so nothing is solved
    return RoutineSpec(
        "fill",
        [],
        lambda o: None,
        post=[defines("filled", "n", lambda ctx: ctx.now("cap"))],
        modify=("n",),
    ), "complete"


def _expected_outside_the_candidates():
    # cap + 3 passes the candidates 0..4 first at (n, cap) = (0, 2)
    return RoutineSpec(
        "widen",
        [],
        lambda o: None,
        post=[
            defines(
                "widened", "cap", lambda ctx: ctx.old("cap") + 3
            )
        ],
        modify=("cap",),
    ), "inconclusive"


def _defined_on_a_fixed_coordinate():
    # cap is framed, so the run stops at its clause, which raises from cap 2
    # on; solving the clause on n there would leave no candidate
    def cap_kept(ctx):
        return ctx.old("cap") if ctx.old("cap") < 2 else ctx.old("lower")

    def halved(ctx):
        if ctx.old("cap") < 2:
            return ctx.old("n") // 2
        return 9

    return RoutineSpec(
        "halve",
        [],
        lambda o: None,
        post=[defines("cap_kept", "cap", cap_kept), defines("halved", "n", halved)],
        modify=("n",),
    ), "refused"


def _defined_on_an_argument_role():
    return RoutineSpec(
        "pour_into",
        [ref_param()],
        lambda o, p: None,
        pre=[
            pred("other_given", lambda ctx: not ctx.arg_is_void(0)),
            pred("fits", lambda ctx: ctx.old("n") <= ctx.old("cap", ARG0)),
        ],
        post=[
            defines("received", "n", lambda ctx: ctx.old("n"), role=ARG0),
            defines("poured", "n", lambda ctx: 0),
        ],
        modify=(("target", "n"), (ARG0, "n")),
    ), "complete"


def _defined_on_an_absent_argument_role():
    # a void argument has no model state, which the flat search reads
    return RoutineSpec(
        "pour_maybe",
        [ref_param()],
        lambda o, p: None,
        post=[
            defines("poured", "n", lambda ctx: 0),
            defines("received", "n", lambda ctx: ctx.old("n"), role=ARG0),
        ],
        modify=(("target", "n"), (ARG0, "n")),
    ), "refused"


def _two_definitions_in_a_row():
    # unframed, so n and cap are free together in one role's candidates
    return RoutineSpec(
        "double_cap",
        [],
        lambda o: None,
        post=[
            defines("n_kept", "n", lambda ctx: ctx.old("n")),
            defines("cap_doubled", "cap", lambda ctx: 2 * ctx.old("cap")),
        ],
        modify=None,
    ), "complete"


def _definition_after_one_no_candidate_meets():
    # the flat search never reaches the second clause, so it never raises
    return RoutineSpec(
        "overflow",
        [],
        lambda o: None,
        post=[
            defines("n_nine", "n", lambda ctx: 9),
            defines("cap_broken", "cap", lambda ctx: 1 // 0),
        ],
        modify=None,
    ), "inconclusive"


def _definition_after_one_that_raises():
    # solving stops at the first clause, which raises on every pre-state;
    # solving the second would leave no candidate
    return RoutineSpec(
        "from_concrete",
        [],
        lambda o: None,
        post=[
            defines("n_copied", "n", lambda ctx: ctx.obj.n),
            defines("cap_nine", "cap", lambda ctx: 9),
        ],
        modify=None,
    ), "refused"


def _defined_by_the_result():
    # a routine's result is not known before its exit, so nothing is solved:
    # each n pairs with the one result equal to it
    return RoutineSpec(
        "report_n",
        [],
        lambda o: None,
        post=[defines("n_is_result", "n", lambda ctx: ctx.result)],
        modify=("n",),
        returns_value=True,
    ), "incomplete"


@pytest.mark.parametrize(
    "contract",
    [
        _defined_after_a_raising_clause,
        _expected_raises_on_a_late_pre_state,
        _expected_reads_the_exit_state,
        _expected_outside_the_candidates,
        _defined_on_a_fixed_coordinate,
        _defined_on_an_argument_role,
        _defined_on_an_absent_argument_role,
        _two_definitions_in_a_row,
        _definition_after_one_no_candidate_meets,
        _definition_after_one_that_raises,
        _defined_by_the_result,
    ],
)
def test_defining_clauses_match_flat_search(contract):
    r, verdict = contract()
    spec = box_spec({r.name: r})
    domain = BoxDomain()
    routine = spec.routines[r.name]
    want = outcome(reference_probe, spec, routine, domain)
    assert want[0] == verdict
    assert outcome(completeness_probe, spec, routine, domain) == want


@pytest.mark.parametrize(
    "contract",
    [_defined_on_an_argument_role, _two_definitions_in_a_row, _expected_reads_the_exit_state],
)
def test_invariants_run_once_per_role_candidate_over_fresh_lists(contract, monkeypatch):
    # BoxDomain builds a new candidate list on every value_choices call, so
    # the role filter must not key on the lists it is handed
    r = contract()[0]
    spec = box_spec({r.name: r})
    domain = BoxDomain()
    routine = spec.routines[r.name]
    seen = count_invariant_runs(monkeypatch, spec)
    assert completeness_probe(spec, routine, domain).verdict == "complete"
    assert 0 < max(seen.values()) <= 1 + len(routine.ref_roles)


def test_defining_clause_compares_the_exit_value():
    one = 1
    p = defines("appended", "sequence", lambda ctx: V.seq_extended(ctx.old("sequence"), one))
    assert p.definition[:2] == ("target", "sequence")
    spec = build_class("array_stack", "strong")
    ctx = AbstractCtx(spec, {TARGET: {"sequence": V.EMPTY_SEQ}}, ())
    ctx.exit_models = {TARGET: {"sequence": V.seq_extended(V.EMPTY_SEQ, one)}}
    assert p.fn(ctx) is True
    ctx.exit_models = {TARGET: {"sequence": V.EMPTY_SEQ}}
    assert p.fn(ctx) is False


def test_frame_over_a_query_the_domain_leaves_out_is_refused():
    # the strong resizable_array frames "lower", which sequence states lack
    strong = build_class("resizable_array", "strong")
    weak = build_class("resizable_array", "weak")
    dom = SequenceDomain({"resizable_array": strong})
    with pytest.raises(ConfigError, match="postcondition is not abstractly evaluable"):
        completeness_probe(strong, strong.routines["item_count"], dom)
    # the unframed weak routine still probes
    assert completeness_probe(strong, weak.routines["item_count"], dom).verdict == "incomplete"


@pytest.mark.parametrize(
    "clause, stage",
    [
        ("pre", "precondition"),
        ("post", "postcondition"),
    ],
)
def test_read_of_a_query_the_domain_leaves_out_is_refused(clause, stage):
    # cursor_list states have no "lower"; the read must refuse, not crash
    strong = build_class("cursor_list", "strong")
    old_forth = strong.routines["forth"]
    reads_lower = {
        "pre": pred("lower_known", lambda ctx: ctx.old("lower") is not None),
        "post": pred("lower_known", lambda ctx: ctx.now("lower") is not None),
    }[clause]
    forth = RoutineSpec(
        "forth",
        old_forth.params,
        old_forth.body,
        pre=old_forth.pre + ((reads_lower,) if clause == "pre" else ()),
        post=old_forth.post + ((reads_lower,) if clause == "post" else ()),
        modify=old_forth.modify,
    )
    forth.frame_preds = derive_frame_postconditions(forth, strong)
    dom = SequenceDomain({"cursor_list": strong})
    with pytest.raises(ConfigError, match="%s is not abstractly evaluable" % stage):
        completeness_probe(strong, forth, dom)


def test_domain_refuses_a_routine_with_two_reference_parameters():
    # the domain fills one reference role; a second would get no argument
    strong = build_class("cursor_list", "strong")
    pair = RoutineSpec("pair", [ref_param()] * 2, lambda o, p, q: None, modify=())
    dom = SequenceDomain({"cursor_list": strong})
    with pytest.raises(ConfigError, match="cursor_list.pair has 2 reference parameters"):
        next(dom.pre_states(strong, pair))
