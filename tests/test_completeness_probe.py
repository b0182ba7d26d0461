"""Bounded completeness probe over small synthetic bindings, and its
role-by-role search, which skips pre-states an earlier search decided,
checked against a flat per-combination search of every pre-state over the
container bindings and over contracts built to defeat the skipping."""

from __future__ import annotations

import collections
import itertools

import pytest

import mbcheck.values as V
from mbcheck.containers import ALL_CLASSES, build_class
from mbcheck.containers.domains import SequenceDomain
from mbcheck.engine import (
    ARG0,
    ClassSpec,
    InvariantClause,
    ModelQuery,
    RoutineSpec,
    bind,
    completeness_probe,
    index_param,
    item_param,
    pred,
    ref_param,
)
from mbcheck.engine.completeness import AbstractCtx, ProbeResult
from mbcheck.errors import ConfigError, ModelEvalError


class Box:
    """Concrete class is irrelevant to the probe; bodies never run."""

    def __init__(self):
        self.n = 0
        self.cap = 0


def box_spec(routines, attr_derivations=None):
    model = [
        ModelQuery("n", lambda o: V.integer(o.n)),
        ModelQuery("cap", lambda o: V.integer(o.cap)),
    ]
    invariants = [
        InvariantClause(
            "n_in_cap",
            lambda m, o: 0 <= V.as_int(m["n"]) <= V.as_int(m["cap"]),
            kind="model",
        )
    ]
    spec = ClassSpec(
        "abox", "strong", model, invariants, routines, Box, attr_derivations=attr_derivations
    )
    bind({"abox": spec})
    return spec


class BoxDomain:
    """Pre-states: every (n, cap) with 0 <= n <= cap <= 2.

    Candidate values per free coordinate: integers 0..4. Ref-argument roles
    get the same (n, cap) grid.
    """

    def __init__(self, caps=(0, 1, 2), vals=range(5)):
        self.caps = tuple(caps)
        self.vals = tuple(vals)
        self._spec = None

    def role_spec(self, ref_class):
        return self._spec

    def _grid(self):
        for cap in self.caps:
            for n in range(cap + 1):
                yield {"n": V.integer(n), "cap": V.integer(cap)}

    def pre_states(self, class_spec, routine):
        self._spec = class_spec
        for tm in self._grid():
            roles = {-1: tm}
            if routine.ref_params:
                for am in self._grid():
                    r2 = dict(roles)
                    r2[0] = am
                    yield {"roles": r2, "args": (object(),)}
                # and the void argument
                yield {"roles": roles, "args": (None,)}
            elif routine.params:
                for a in (0, 1):
                    yield {"roles": roles, "args": (a,)}
            else:
                yield {"roles": roles, "args": ()}

    def value_choices(self, idx, qname, pre):
        return [V.integer(v) for v in self.vals]

    def result_choices(self, routine, pre):
        return [V.integer(v) for v in self.vals]


def probe(routine_spec, domain=None):
    spec = box_spec({routine_spec.name: routine_spec})
    domain = domain or BoxDomain()
    domain._spec = spec
    return completeness_probe(spec, spec.routines[routine_spec.name], domain)


# --- verdicts -------------------------------------------------------------


def test_pinned_increment_is_complete():
    r = RoutineSpec(
        "bump",
        [],
        lambda o: None,
        pre=[pred("room", lambda ctx: ctx.old_int("n") < ctx.old_int("cap"))],
        post=[pred("up_one", lambda ctx: ctx.now_int("n") == ctx.old_int("n") + 1)],
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
        pre=[pred("room", lambda ctx: ctx.old_int("n") < ctx.old_int("cap"))],
        post=[pred("not_less", lambda ctx: ctx.now_int("n") >= ctx.old_int("n"))],
        modify=("n",),
    )
    res = probe(r)
    assert res.verdict == "incomplete"
    assert len(res.witness_posts) == 2
    assert not res.unsatisfiable
    a = V.as_int(res.witness_posts[0][0][-1]["n"])
    b = V.as_int(res.witness_posts[1][0][-1]["n"])
    assert a != b


def test_unreachable_post_is_unsatisfiable():
    r = RoutineSpec(
        "teleport",
        [],
        lambda o: None,
        post=[pred("way_up", lambda ctx: ctx.now_int("n") == ctx.old_int("n") + 10)],
        modify=("n",),
    )
    res = probe(r)
    assert res.verdict == "incomplete"
    assert res.witness_posts == []
    assert res.unsatisfiable is True


def test_invariant_filter_can_make_a_weak_post_complete():
    # at n == cap the model invariant leaves a single candidate above old n
    r = RoutineSpec(
        "nudge",
        [],
        lambda o: None,
        pre=[pred("full", lambda ctx: ctx.old_int("n") == ctx.old_int("cap"))],
        post=[pred("not_less", lambda ctx: ctx.now_int("n") >= ctx.old_int("n"))],
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
        pre=[pred("room", lambda ctx: ctx.old_int("n") < ctx.old_int("cap"))],
        post=[pred("up_one", lambda ctx: ctx.now_int("n") == ctx.old_int("n") + 1)],
        modify=None,
    )
    res = probe(r)
    assert res.verdict == "incomplete"
    caps = {V.as_int(w[0][-1]["cap"]) for w in res.witness_posts}
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
        [ref_param("abox")],
        lambda o, p: None,
        pre=[
            pred("other_given", lambda ctx: not ctx.arg_is_void(0)),
            pred(
                "fits",
                lambda ctx: ctx.old_int("n") <= ctx.old_int("cap", ARG0),
            ),
        ],
        post=[
            pred(
                "moved",
                lambda ctx: ctx.now_int("n", ARG0) == ctx.old_int("n")
                and ctx.now_int("n") == 0,
            )
        ],
        modify=(("target", "n"), (ARG0, "n")),
    )
    res = probe(r)
    assert res.verdict == "complete"


def test_reference_argument_left_loose_is_incomplete():
    r = RoutineSpec(
        "spill_into",
        [ref_param("abox")],
        lambda o, p: None,
        pre=[pred("other_given", lambda ctx: not ctx.arg_is_void(0))],
        post=[pred("emptied", lambda ctx: ctx.now_int("n") == 0)],
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


@pytest.mark.parametrize("read", ["now", "now_int"])
def test_exit_state_read_in_precondition_is_refused(read):
    r = RoutineSpec(
        "peek",
        [],
        lambda o: None,
        pre=[pred("reads_exit", lambda ctx: getattr(ctx, read)("n") is not None)],
        modify=(),
    )
    with pytest.raises(
        ConfigError,
        match="precondition is not abstractly evaluable: "
        "exit state is not available in a precondition",
    ):
        probe(r)


def test_unbound_spec_is_rejected():
    model = [ModelQuery("n", lambda o: V.integer(o.n))]
    spec = ClassSpec("loose", "strong", model, [], {"r": RoutineSpec("r", [], lambda o: None, modify=())}, Box)
    with pytest.raises(ConfigError):
        completeness_probe(spec, spec.routines["r"], BoxDomain())


# --- sequence-valued coordinates over the toy binding ---------------------


def all_seqs(max_len, alphabet):
    out = [[]]
    frontier = [[]]
    for _ in range(max_len):
        frontier = [s + [a] for s in frontier for a in range(alphabet)]
        out.extend(frontier)
    return [V.sequence(map(V.integer, s)) for s in out]


class SeqDomain:
    """Target role only: sequences up to length 2, index in bounds."""

    def __init__(self, pre_len=2, choice_len=3, alphabet=2):
        self.pre = all_seqs(pre_len, alphabet)
        self.choices = all_seqs(choice_len, alphabet)
        self.alphabet = alphabet

    def role_spec(self, ref_class):
        raise AssertionError("no reference params in these probes")

    def pre_states(self, class_spec, routine):
        for s in self.pre:
            for i in range(V.seq_count(s) + 2):
                roles = {-1: {"sequence": s, "index": V.integer(i)}}
                if routine.params:
                    for a in range(self.alphabet):
                        yield {"roles": roles, "args": (a,)}
                else:
                    yield {"roles": roles, "args": ()}

    def value_choices(self, idx, qname, pre):
        if qname == "sequence":
            return self.choices
        return [V.integer(v) for v in range(-1, 5)]

    def result_choices(self, routine, pre):
        return [V.integer(v) for v in range(self.alphabet)]


def toy_seq_spec(routines):
    class Holder:
        pass

    model = [
        ModelQuery("sequence", lambda o: V.EMPTY_SEQ),
        ModelQuery("index", lambda o: V.integer(0)),
    ]
    invariants = [
        InvariantClause(
            "index_bounds",
            lambda m, o: 0 <= V.as_int(m["index"]) <= V.seq_count(m["sequence"]) + 1,
            kind="model",
        )
    ]
    spec = ClassSpec("holder", "strong", model, invariants, routines, Holder)
    bind({"holder": spec})
    return spec


def test_append_post_is_complete_over_sequences():
    r = RoutineSpec(
        "append",
        [item_param()],
        lambda o, v: None,
        post=[
            pred(
                "appended",
                lambda ctx: ctx.now("sequence")
                == V.seq_extended(ctx.old("sequence"), V.integer(ctx.arg(0))),
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
    role_specs = {-1: class_spec}
    for k in routine.ref_params:
        role_specs[k] = domain.role_spec(routine.params[k].ref_class)
    model_invariants = {
        idx: tuple(cl for cl in spec.invariants if cl.kind == "model")
        for idx, spec in role_specs.items()
    }
    checked = 0
    for pre in domain.pre_states(class_spec, routine):
        entry = pre["roles"]
        arg_cos = {k: (object() if k in entry else None) for k in routine.ref_params}
        ctx = AbstractCtx(routine.role_index, role_specs, entry, arg_cos, pre["args"])
        try:
            if not all(p.fn(ctx) for p in routine.pre):
                continue
        except ModelEvalError as e:
            raise ConfigError("precondition is not abstractly evaluable: %s" % e)
        checked += 1
        universe = []
        for idx in sorted(entry, key=lambda i: (i != -1, i)):
            role = "target" if idx == -1 else "arg%d" % idx
            for qname in entry[idx]:
                universe.append((role, idx, qname))
        if routine.modify is None:
            free = universe
        else:
            free = [u for u in universe if (u[0], u[2]) in set(routine.modify)]
        choice_lists = [domain.value_choices(idx, qname, pre) for _, idx, qname in free]
        results = domain.result_choices(routine, pre) if routine.returns_value else (None,)
        found = []
        for combo in itertools.product(*choice_lists):
            exit_maps = {idx: dict(m) for idx, m in entry.items()}
            for (_, idx, qname), val in zip(free, combo):
                exit_maps[idx][qname] = val
            if not all(
                cl.fn(m, None)
                for idx, m in exit_maps.items()
                for cl in model_invariants[idx]
            ):
                continue
            ctx.exit_models = exit_maps
            for result in results:
                ctx.result = result
                try:
                    admitted = all(p.fn(ctx) for p in routine.post) and all(
                        p.fn(ctx) for p in routine.frame_preds
                    )
                except ModelEvalError as e:
                    raise ConfigError("postcondition is not abstractly evaluable: %s" % e)
                if admitted:
                    found.append((exit_maps, result))
                    if len(found) == 2:
                        return ProbeResult("incomplete", pre, found, checked, checked)
        if not found:
            return ProbeResult("incomplete", pre, [], checked, checked)
    return ProbeResult("complete", None, [], checked, checked)


SEQUENCE_CLASSES = [
    c for c in ALL_CLASSES if "sequence" in build_class(c, "strong").model_names
]

# (max_len, alphabet, unique for cursor_set, value_len)
BOUNDS = {
    "len3-abc2": (3, 2, True, None),
    "len2-abc3": (2, 3, False, None),
    "len3-abc2-short-values": (3, 2, True, 3),
}


def sequence_tasks(class_name, bound):
    max_len, alphabet, unique, value_len = BOUNDS[bound]
    strong = build_class(class_name, "strong")
    weak = build_class(class_name, "weak")
    dom = SequenceDomain(
        {class_name: strong},
        max_len=max_len,
        alphabet=alphabet,
        unique=unique and class_name == "cursor_set",
        value_len=value_len,
    )
    for binding in (strong, weak):
        for rname in sorted(binding.routines):
            yield "%s.%s.%s" % (class_name, rname, binding.level), strong, binding.routines[rname], dom


def outcome(probe_fn, strong, routine, dom):
    """What a probe run shows, with fresh argument tokens made comparable."""
    try:
        res = probe_fn(strong, routine, dom)
    except ConfigError as e:
        return ("refused", "not abstractly evaluable" in str(e))

    def pre(p):
        if p is None:
            return None
        args = tuple("<ref>" if type(a) is object else a for a in p["args"])
        return p["roles"], args

    return (res.verdict, res.pre_states_checked, pre(res.witness_pre), res.witness_posts)


@pytest.mark.parametrize("bound", sorted(BOUNDS))
@pytest.mark.parametrize("class_name", SEQUENCE_CLASSES)
def test_role_by_role_search_matches_flat_search(class_name, bound):
    for key, strong, routine, dom in sequence_tasks(class_name, bound):
        want = outcome(reference_probe, strong, routine, dom)
        got = outcome(completeness_probe, strong, routine, dom)
        assert got == want, key


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


# pre-states searched / checked, derived by hand at the len3-abc2 bound: 64
# target states (15 sequences, cursor 0..count+1), 49 of them with the cursor
# not after the end. Strong merge_right reads the argument's sequence but not
# its cursor, so one search decides every argument state with that sequence
# (49 x 15 of 49 x 64); weak wipe_out reads nothing of the pre-state.
SEARCHED = {
    "cursor_list.merge_right.strong": (735, 3136),
    "cursor_list.wipe_out.weak": (1, 64),
}


@pytest.mark.parametrize("class_name", SEQUENCE_CLASSES)
def test_invariants_run_once_per_role_candidate(class_name, monkeypatch):
    figures = set()
    for key, strong, routine, dom in sequence_tasks(class_name, "len3-abc2"):
        roles = 1 + len(routine.ref_params)
        runs = {}
        for probe_fn in (reference_probe, completeness_probe):
            clause_counts = collections.Counter()
            seen = collections.Counter()

            def record(name, a):
                m = a[0]
                seen[name, tuple(sorted(m.items()))] += 1

            results = []

            def run(*a, _probe=probe_fn):
                results.append(_probe(*a))
                return results[-1]

            with monkeypatch.context() as mp:
                count_calls(mp, routine.post + routine.frame_preds, clause_counts)
                count_calls(mp, strong.invariants, collections.Counter(), record)
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


# --- pre-states decided by an earlier search --------------------------------
#
# Each contract below is complete on the early pre-states and ambiguous on a
# late one that agrees with an early one on something the search does not
# read directly, so a memo that keys on too little would skip the late
# pre-state and report "complete".


class LateResultsDomain(BoxDomain):
    """Two result choices for the full (2, 2) box, one for the others."""

    def result_choices(self, routine, pre):
        full = pre["roles"][-1] == {"n": V.integer(2), "cap": V.integer(2)}
        return [V.integer(v) for v in ((0, 1) if full else (0,))]


def _drain_into():
    # reads the argument only when the target is non-empty; ambiguous only
    # for the last argument state, (n, cap) = (2, 2)
    def drained(ctx):
        if ctx.old_int("n") == 0 or ctx.old_int("n", ARG0) != 2:
            return ctx.now_int("n") == 0
        return ctx.now_int("n") < 2

    return RoutineSpec(
        "drain_into",
        [ref_param("abox")],
        lambda o, p: None,
        pre=[pred("other_given", lambda ctx: not ctx.arg_is_void(0))],
        post=[pred("drained", drained)],
        modify=("n",),
    ), None, None


def _fill_by_room():
    # reads the entry only through the derived attribute "room"
    return RoutineSpec(
        "fill_by_room",
        [],
        lambda o: None,
        post=[
            pred(
                "filled",
                lambda ctx: ctx.now_int("n") == 0
                if V.as_int(ctx.attr("room"))
                else ctx.now_int("n") <= 1,
            )
        ],
        modify=("n",),
    ), None, {"room": lambda m: V.integer(V.as_int(m["cap"]) - V.as_int(m["n"]))}


def _step_or_loosen():
    # reads only the free coordinate n at entry
    return RoutineSpec(
        "step_or_loosen",
        [],
        lambda o: None,
        pre=[
            pred(
                "room_or_full_two",
                lambda ctx: ctx.old_int("n") < ctx.old_int("cap") or ctx.old_int("n") == 2,
            )
        ],
        post=[
            pred(
                "stepped",
                lambda ctx: ctx.now_int("n") == ctx.old_int("n") + 1
                if ctx.old_int("n") < 2
                else ctx.now_int("n") <= 1,
            )
        ],
        modify=("n",),
    ), None, None


def _small_n():
    # reads no pre-state value; the filtered candidates for n (0..cap) differ
    return RoutineSpec(
        "small_n",
        [],
        lambda o: None,
        post=[pred("small", lambda ctx: ctx.now_int("n") <= 1)],
        modify=("n",),
    ), None, None


def _any_result():
    # reads nothing; only the result choices differ between pre-states
    return RoutineSpec(
        "any_result",
        [],
        lambda o: None,
        post=[pred("anything", lambda ctx: True)],
        modify=(),
        returns_value=True,
    ), LateResultsDomain(), None


@pytest.mark.parametrize(
    "contract", [_drain_into, _fill_by_room, _step_or_loosen, _small_n, _any_result]
)
def test_decided_pre_states_match_flat_search(contract):
    r, domain, derivations = contract()
    spec = box_spec({r.name: r}, derivations)
    domain = domain or BoxDomain()
    domain._spec = spec
    routine = spec.routines[r.name]
    want = outcome(reference_probe, spec, routine, domain)
    assert want[0] == "incomplete"
    assert outcome(completeness_probe, spec, routine, domain) == want


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
    forth = strong.routines["forth"]
    reads_lower = {
        "pre": pred("lower_known", lambda ctx: ctx.old("lower") is not None),
        "post": pred("lower_known", lambda ctx: ctx.now("lower") is not None),
    }[clause]
    strong.routines["forth"] = RoutineSpec(
        "forth",
        forth.params,
        forth.body,
        pre=forth.pre + ((reads_lower,) if clause == "pre" else ()),
        post=forth.post + ((reads_lower,) if clause == "post" else ()),
        modify=forth.modify,
    )
    bind({"cursor_list": strong})
    dom = SequenceDomain({"cursor_list": strong})
    with pytest.raises(ConfigError, match="%s is not abstractly evaluable" % stage):
        completeness_probe(strong, strong.routines["forth"], dom)
