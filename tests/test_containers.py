"""Directed scenarios per container: clean traces stay silent, each seeded
defect fires exactly its cataloged clause at each level."""

from __future__ import annotations

import pytest

import mbcheck.values as V
from mbcheck.engine import Engine, InvariantClause, ModelQuery
from mbcheck.containers import ALL_CLASSES, array_stack, binary_node, build_class, cursor_list
from mbcheck.containers import bugs as bug_catalog
from mbcheck.containers._shared import ClassDecl, RoutineDecl, chain_items
from mbcheck.containers.array_stack import ArrayStack
from mbcheck.containers.cursor_list import CursorList
from mbcheck.containers.cursor_set import CursorSet
from mbcheck.containers.two_way_list import TwoWayList
from mbcheck.errors import ConfigError, SpecError
from mbcheck.harness import SessionConfig, run_session
from mbcheck.harness import session as session_module


def mk(name, level, bugs=()):
    spec = build_class(name, level, frozenset(bugs))
    eng = Engine()
    return eng, spec


def binary_node_without_depend(bugs=()):
    """Strong ``binary_node`` with the ``depend`` annotations stripped from
    its invariants, so each is checked even while the object on its other
    end is open."""
    spec = binary_node.build("strong", frozenset(bugs))
    spec.invariants = tuple(
        InvariantClause(cl.name, cl.fn, depend=(), kind=cl.kind) for cl in spec.invariants
    )
    spec.depend_gated = False
    return spec


def signatures(outcome):
    return [(v.kind, v.clause) for v in outcome.violations]


# --- clean traces ---------------------------------------------------------

LEVELS = ("weak", "strong")


@pytest.mark.parametrize("level", LEVELS)
def test_cursor_list_clean_trace(level):
    eng, spec = mk("cursor_list", level)
    a = eng.create(spec)
    b = eng.create(spec)
    script = [
        (a, "extend", 1), (a, "extend", 2), (a, "extend", 3),
        (b, "extend", 8), (b, "extend", 9),
        (a, "start", ), (a, "forth",), (a, "item",), (a, "replace", 5),
        (a, "back",), (a, "off",), (a, "has", 5), (a, "finish",),
        (a, "remove",), (a, "go_i_th", 0), (a, "merge_right", b.concrete),
        (a, "is_equal", b.concrete), (a, "wipe_out",),
    ]
    for who, op, *args in script:
        out = eng.call(who, op, *args)
        assert not out.violations, (op, signatures(out))
        assert not out.invalid, op


@pytest.mark.parametrize("level", LEVELS)
def test_two_way_list_clean_trace(level):
    eng, spec = mk("two_way_list", level)
    a = eng.create(spec)
    for who, op, *args in [
        (a, "extend", 1), (a, "put_front", 2), (a, "extend", 3),
        (a, "start",), (a, "forth",), (a, "replace", 7), (a, "item",),
        (a, "back",), (a, "back",), (a, "off",), (a, "finish",),
        (a, "remove",), (a, "has", 2), (a, "wipe_out",), (a, "put_front", 4),
    ]:
        out = eng.call(who, op, *args)
        assert not out.violations, (op, signatures(out))


@pytest.mark.parametrize("cls", ["cursor_list", "two_way_list"])
def test_replace_checks_non_integer_items(cls):
    # any binding accepts any item; strong two_way_list's replaced post once
    # converted the item to an int and raised instead of checking
    eng, spec = mk(cls, "strong")
    a = eng.create(spec)
    for op, *args in [("extend", "x"), ("start",), ("replace", "y")]:
        out = eng.call(a, op, *args)
        assert not out.violations, (op, signatures(out))
    assert chain_items(a.concrete.first_cell) == ["y"]
    assert spec.routines["replace"].post == mk("cursor_list", "strong")[1].routines["replace"].post


@pytest.mark.parametrize("level", LEVELS)
def test_cursor_set_clean_trace(level):
    eng, spec = mk("cursor_set", level)
    a = eng.create(spec)
    b = eng.create(spec)
    for who, op, *args in [
        (a, "extend", 1), (a, "extend", 2), (a, "extend", 2),
        (b, "extend", 2), (b, "extend", 1),
        (a, "start",), (a, "forth",), (a, "replace", 3), (a, "replace", 1),
        (a, "item",), (a, "has", 3), (a, "remove", 1), (a, "off",),
        (a, "is_equal", b.concrete), (a, "wipe_out",),
    ]:
        out = eng.call(who, op, *args)
        assert not out.violations, (op, signatures(out))


@pytest.mark.parametrize("level", LEVELS)
def test_cursor_set_replace_unlinks_duplicate(level):
    eng, spec = mk("cursor_set", level)
    a = eng.create(spec)
    for v in (1, 2, 3):
        eng.call(a, "extend", v)
    eng.call(a, "start",)
    eng.call(a, "forth",)  # cursor on 2
    out = eng.call(a, "replace", 1)  # 1 already present at position 1
    assert not out.violations, signatures(out)
    assert chain_items(a.concrete.first_cell) == [1, 3]
    assert a.concrete.index == 1  # earlier duplicate removed, cursor shifted


@pytest.mark.parametrize("level", LEVELS)
def test_resizable_array_clean_trace(level):
    eng, spec = mk("resizable_array", level)
    a = eng.create(spec)
    for who, op, *args in [
        (a, "force", 7, 1), (a, "force", 8, 2), (a, "put", 9, 1),
        (a, "item", 2), (a, "item_count",), (a, "force", 5, 5),
        (a, "force", 4, -2), (a, "item", -2), (a, "wipe_out",),
        (a, "force", 3, 3),
    ]:
        out = eng.call(who, op, *args)
        assert not out.violations, (op, signatures(out))
    assert a.concrete.lower == 3 and a.concrete.storage == [3]


@pytest.mark.parametrize("level", LEVELS)
def test_array_stack_clean_trace(level):
    eng, spec = mk("array_stack", level)
    a = eng.create(spec)
    for who, op, *args in [
        (a, "push", 1), (a, "push", 2), (a, "top",), (a, "pop",),
        (a, "is_empty",), (a, "pop",), (a, "is_empty",), (a, "wipe_out",),
    ]:
        out = eng.call(who, op, *args)
        assert not out.violations, (op, signatures(out))


@pytest.mark.parametrize("level", LEVELS)
def test_ring_queue_clean_trace_with_growth(level):
    eng, spec = mk("ring_queue", level)
    a = eng.create(spec)
    for v in (1, 2, 3, 4):
        out = eng.call(a, "put", v)
        assert not out.violations
    out = eng.call(a, "put", 5)  # forces growth
    assert not out.violations, signatures(out)
    for expected in (1, 2, 3):
        out = eng.call(a, "item")
        assert out.result == expected and not out.violations
        out = eng.call(a, "remove")
        assert not out.violations, signatures(out)
    assert not eng.call(a, "is_empty").violations


@pytest.mark.parametrize("level", LEVELS)
def test_binary_node_clean_trace(level):
    eng, spec = mk("binary_node", level)
    p = eng.create(spec)
    l = eng.create(spec)
    r = eng.create(spec)
    for who, op, *args in [
        (p, "set_item", 3), (p, "set_left", l.concrete),
        (p, "set_right", r.concrete), (p, "node_item",), (p, "is_leaf",),
        (l, "is_leaf",), (p, "prune_left",), (l, "is_leaf",),
        (p, "prune_right",),
    ]:
        out = eng.call(who, op, *args)
        assert not out.violations, (op, signatures(out))
    assert l.concrete.parent is None and p.concrete.left is None


# --- seeded defects, strong signatures ------------------------------------


def test_mb1_wrong_splice_standalone():
    eng, spec = mk("cursor_list", "strong", ["MB-1"])
    a, b = eng.create(spec), eng.create(spec)
    for v in (1, 2):
        eng.call(a, "extend", v)
    for v in (8, 9):
        eng.call(b, "extend", v)
    eng.call(a, "go_i_th", 0)
    out = eng.call(a, "merge_right", b.concrete)
    assert signatures(out) == [("postcondition", "spliced")]
    # weak binding sees nothing
    eng, spec = mk("cursor_list", "weak", ["MB-1"])
    a, b = eng.create(spec), eng.create(spec)
    for v in (1, 2):
        eng.call(a, "extend", v)
    for v in (8, 9):
        eng.call(b, "extend", v)
    eng.call(a, "go_i_th", 0)
    out = eng.call(a, "merge_right", b.concrete)
    assert signatures(out) == []


def test_mb1_silent_on_empty_target():
    eng, spec = mk("cursor_list", "strong", ["MB-1"])
    a, b = eng.create(spec), eng.create(spec)
    eng.call(b, "extend", 8)
    out = eng.call(a, "merge_right", b.concrete)
    assert signatures(out) == []


def test_mb2_cursor_drift_frame_vs_post():
    eng, spec = mk("cursor_list", "strong", ["MB-2"])
    a, b = eng.create(spec), eng.create(spec)
    eng.call(a, "extend", 1)
    eng.call(b, "extend", 8)
    out = eng.call(a, "merge_right", b.concrete)
    assert signatures(out) == [("frame", "unchanged:target.index")]
    # content itself is right, only the cursor drifted
    assert chain_items(a.concrete.first_cell) == [8, 1]

    eng, spec = mk("cursor_list", "weak", ["MB-2"])
    a, b = eng.create(spec), eng.create(spec)
    eng.call(a, "extend", 1)
    eng.call(b, "extend", 8)
    out = eng.call(a, "merge_right", b.concrete)
    assert signatures(out) == [("postcondition", "index_unchanged")]


def test_mb2_frame_fires_on_a_spec_built_by_its_module():
    # a class module's own build returns a spec with its frames derived;
    # no second step is needed before an engine checks it
    spec = cursor_list.build("strong", frozenset({"MB-2"}))
    eng = Engine()
    a, b = eng.create(spec), eng.create(spec)
    eng.call(a, "extend", 1)
    eng.call(b, "extend", 2)
    out = eng.call(a, "merge_right", b.concrete)
    assert signatures(out) == [("frame", "unchanged:target.index")]


def test_ld1_stale_tail_cache():
    eng, spec = mk("cursor_list", "strong", ["LD-1"])
    a = eng.create(spec)
    for v in (1, 2, 3):
        eng.call(a, "extend", v)
    eng.call(a, "finish")
    out = eng.call(a, "remove")
    assert signatures(out) == [("invariant_exit", "tail_cached")]

    eng, spec = mk("cursor_list", "weak", ["LD-1"])
    a = eng.create(spec)
    for v in (1, 2, 3):
        eng.call(a, "extend", v)
    eng.call(a, "finish")
    out = eng.call(a, "remove")
    assert signatures(out) == []
    # the corruption stays latent: reads and later writes keep working
    assert not eng.call(a, "back").violations
    assert eng.call(a, "item").result == 2
    assert not eng.call(a, "extend", 7).violations
    assert chain_items(a.concrete.first_cell) == [1, 2, 7]


def test_tw1_missing_back_link():
    eng, spec = mk("two_way_list", "strong", ["TW-1"])
    a = eng.create(spec)
    eng.call(a, "extend", 1)
    out = eng.call(a, "put_front", 2)
    assert signatures(out) == [("invariant_exit", "back_links")]

    eng, spec = mk("two_way_list", "weak", ["TW-1"])
    a = eng.create(spec)
    eng.call(a, "extend", 1)
    out = eng.call(a, "put_front", 2)
    assert signatures(out) == []
    # forward reads unaffected
    assert chain_items(a.concrete.first_cell) == [2, 1]


def test_tw1_silent_on_empty():
    eng, spec = mk("two_way_list", "strong", ["TW-1"])
    a = eng.create(spec)
    out = eng.call(a, "put_front", 2)
    assert signatures(out) == []


@pytest.mark.parametrize("level", LEVELS)
def test_tw2_back_sticks_at_one(level):
    eng, spec = mk("two_way_list", level, ["TW-2"])
    a = eng.create(spec)
    eng.call(a, "extend", 5)
    eng.call(a, "start")
    out = eng.call(a, "back")
    assert ("postcondition", "stepped_back") in signatures(out)
    assert a.concrete.index == 1


def test_sr1_duplicate_after_replace():
    eng, spec = mk("cursor_set", "strong", ["SR-1"])
    a = eng.create(spec)
    eng.call(a, "extend", 1)
    eng.call(a, "extend", 2)
    eng.call(a, "start")
    out = eng.call(a, "replace", 2)
    assert signatures(out) == [("invariant_exit", "unique_items")]

    # weak: the replace passes, the corruption surfaces only downstream
    eng, spec = mk("cursor_set", "weak", ["SR-1"])
    a = eng.create(spec)
    eng.call(a, "extend", 1)
    eng.call(a, "extend", 2)
    eng.call(a, "start")
    out = eng.call(a, "replace", 2)
    assert signatures(out) == []
    assert chain_items(a.concrete.first_cell) == [2, 2]
    assert spec.consistency_probe(a.concrete) is False
    out = eng.call(a, "remove", 2)
    assert signatures(out) == [("postcondition", "not_has")]


def test_eq1_count_only_equality():
    eng, spec = mk("cursor_set", "strong", ["EQ-1"])
    a, b = eng.create(spec), eng.create(spec)
    eng.call(a, "extend", 1)
    eng.call(a, "extend", 2)
    eng.call(b, "extend", 1)
    eng.call(b, "extend", 3)
    out = eng.call(a, "is_equal", b.concrete)
    assert out.result is True  # same size, different members
    assert signatures(out) == [("postcondition", "reports_set_equality")]
    # genuinely equal sets still compare equal, so the defect stays plausible
    eng.call(b, "remove", 3)
    eng.call(b, "extend", 2)
    out = eng.call(a, "is_equal", b.concrete)
    assert out.result is True and signatures(out) == []

    eng, spec = mk("cursor_set", "weak", ["EQ-1"])
    a, b = eng.create(spec), eng.create(spec)
    eng.call(a, "extend", 1)
    eng.call(a, "extend", 2)
    eng.call(b, "extend", 1)
    eng.call(b, "extend", 3)
    out = eng.call(a, "is_equal", b.concrete)
    assert signatures(out) == []


def test_af1_garbage_in_growth_gap():
    eng, spec = mk("resizable_array", "strong", ["AF-1"])
    a = eng.create(spec)
    eng.call(a, "force", 7, 1)
    out = eng.call(a, "force", 5, 4)
    assert signatures(out) == [("postcondition", "force_extends")]
    assert a.concrete.storage == [7, 99, 0, 5]

    eng, spec = mk("resizable_array", "weak", ["AF-1"])
    a = eng.create(spec)
    eng.call(a, "force", 7, 1)
    out = eng.call(a, "force", 5, 4)
    assert signatures(out) == []


def test_af1_silent_without_gap():
    eng, spec = mk("resizable_array", "strong", ["AF-1"])
    a = eng.create(spec)
    eng.call(a, "force", 7, 1)
    out = eng.call(a, "force", 5, 2)
    assert signatures(out) == []


def test_st1_pop_removes_bottom():
    eng, spec = mk("array_stack", "strong", ["ST-1"])
    a = eng.create(spec)
    for v in (1, 2, 3):
        eng.call(a, "push", v)
    out = eng.call(a, "pop")
    assert signatures(out) == [("postcondition", "shrunk")]
    assert a.concrete.storage == [3, 2]

    eng, spec = mk("array_stack", "weak", ["ST-1"])
    a = eng.create(spec)
    for v in (1, 2, 3):
        eng.call(a, "push", v)
    out = eng.call(a, "pop")
    assert signatures(out) == []


@pytest.mark.parametrize("level", LEVELS)
def test_qu1_forgotten_count_decrement(level):
    eng, spec = mk("ring_queue", level, ["QU-1"])
    a = eng.create(spec)
    eng.call(a, "put", 1)
    eng.call(a, "put", 2)
    out = eng.call(a, "remove")
    expected = (
        ("postcondition", "dropped_front")
        if level == "strong"
        else ("postcondition", "count_down")
    )
    assert expected in signatures(out)


@pytest.mark.parametrize("level", LEVELS)
def test_qu2_growth_policy_invisible(level):
    eng, spec = mk("ring_queue", level, ["QU-2"])
    a = eng.create(spec)
    for v in range(9):  # two growth steps
        out = eng.call(a, "put", v)
        assert not out.violations, (v, signatures(out))
    assert len(a.concrete.storage) == 12  # doubling would give 16
    for _ in range(9):
        out = eng.call(a, "remove")
        assert not out.violations


def test_pl1_dangling_forward_link():
    eng, spec = mk("binary_node", "strong", ["PL-1"])
    p, c = eng.create(spec), eng.create(spec)
    eng.call(p, "set_left", c.concrete)
    out = eng.call(p, "prune_left")
    assert signatures(out) == [("invariant_exit", "parent_side_left")]
    assert p.concrete.left is c.concrete and c.concrete.parent is None

    eng, spec = mk("binary_node", "weak", ["PL-1"])
    p, c = eng.create(spec), eng.create(spec)
    eng.call(p, "set_left", c.concrete)
    out = eng.call(p, "prune_left")
    assert signatures(out) == [("postcondition", "left_void")]


# --- dependency gating on the node class ----------------------------------


def test_depend_gating_keeps_handshake_silent():
    eng, spec = mk("binary_node", "strong")
    p, c = eng.create(spec), eng.create(spec)
    assert not eng.call(p, "set_left", c.concrete).violations
    assert not eng.call(p, "prune_left").violations


def test_without_depend_the_handshake_trips_entry_check():
    eng, spec = Engine(), binary_node_without_depend()
    p, c = eng.create(spec), eng.create(spec)
    out = eng.call(p, "set_left", c.concrete)
    assert not out.violations  # forward link is set before the adoption call
    out = eng.call(p, "prune_left")
    # the inner adoption aborts at its entry check, which in turn leaves
    # the back-link dangling and the detach postcondition broken
    assert signatures(out) == [
        ("invariant_entry", "child_side"),
        ("postcondition", "former_child_detached"),
    ]
    assert c.concrete.parent is p.concrete and p.concrete.left is None


def test_detach_by_hand_breaks_the_absent_parent():
    # a legal detach leaves the uninvolved parent inconsistent; the breakage
    # surfaces as an entry violation on the parent's next call
    eng, spec = mk("binary_node", "strong")
    p, c = eng.create(spec), eng.create(spec)
    eng.call(p, "set_left", c.concrete)
    out = eng.call(c, "set_parent", None)
    assert not out.violations
    out = eng.call(p, "is_leaf")
    assert signatures(out) == [("invariant_entry", "parent_side_left")]


def test_raw_binary_nodes_link_without_an_engine():
    # no engine registered: the child's set_parent is called directly
    parent, child = binary_node.BinaryNode(), binary_node.BinaryNode()
    parent.set_left(child)
    assert parent.left is child and child.parent is parent
    parent.prune_left()
    assert parent.left is None and child.parent is None


def test_no_cycle_clause_is_experimental_and_strong_only():
    eng, spec = mk("binary_node", "strong")
    root, mid = eng.create(spec), eng.create(spec)
    eng.call(root, "set_left", mid.concrete)
    out = eng.call(mid, "set_right", root.concrete)
    assert out.invalid
    assert [v.clause for v in out.violations] == ["no_cycle"]
    assert ("binary_node", "no_cycle") in bug_catalog.EXPERIMENTAL_CLAUSES

    def pre_names(cls, level):
        spec = build_class(cls, level)
        return {p.name for r in spec.routines.values() for p in r.pre}

    # every catalogued experimental clause is a strong-only precondition
    for cls, clause in bug_catalog.EXPERIMENTAL_CLAUSES:
        assert clause in pre_names(cls, "strong")
        assert clause not in pre_names(cls, "weak")


# --- routine tables and level overlays ------------------------------------


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("cls", ALL_CLASSES)
def test_session_model_values_are_well_formed(cls, level, monkeypatch):
    # the bindings hand their int fields to the model as they stand; every
    # value a query or a derivation returns must still be a model value
    seen, bad = [0], []

    def checked(name, fn):
        def wrapped(x):
            v = fn(x)
            seen[0] += 1
            if not V.is_model_value(v):
                bad.append((name, v))
            return v

        return wrapped

    def build(*args):
        spec = build_class(*args)
        for q in spec.model:
            q.evaluate = checked(q.name, q.evaluate)
        for name, fn in spec.attr_derivations.items():
            spec.attr_derivations[name] = checked(name, fn)
        return spec

    monkeypatch.setattr(session_module, "build_class", build)
    bugs = tuple(e.bug_id for e in bug_catalog.bugs_for_class(cls))
    run_session(SessionConfig(cls, level, 0, max_calls=2000, bugs=bugs))
    assert seen[0] > 2000 and not bad, bad[:5]


@pytest.mark.parametrize("cls", ALL_CLASSES)
def test_every_build_makes_new_specs(cls):
    for level in LEVELS:
        a, b = build_class(cls, level), build_class(cls, level)
        assert a is not b
        assert list(a.routines) == list(b.routines)
        for name, routine in a.routines.items():
            assert routine is not b.routines[name]
            assert (routine.modify is None) == (level == "weak")


CURSOR_CLASSES = {
    "cursor_list": CursorList,
    "two_way_list": TwoWayList,
    "cursor_set": CursorSet,
}
SHARED_CURSOR_BODIES = [
    ("start", ("cursor_list", "two_way_list", "cursor_set")),
    ("forth", ("cursor_list", "two_way_list", "cursor_set")),
    ("has", ("cursor_list", "two_way_list", "cursor_set")),
    ("item", ("cursor_list", "two_way_list", "cursor_set")),
    ("off", ("cursor_list", "two_way_list", "cursor_set")),
    ("__init__", ("cursor_list", "two_way_list")),
    ("replace", ("cursor_list", "two_way_list")),
    ("finish", ("cursor_list", "two_way_list")),
    ("go_i_th", ("cursor_list", "two_way_list")),
    ("wipe_out", ("cursor_list", "two_way_list")),
]


@pytest.mark.parametrize("routine, classes", SHARED_CURSOR_BODIES)
def test_shared_cursor_body_is_one_function(routine, classes):
    bodies = {getattr(CURSOR_CLASSES[cls], routine) for cls in classes}
    if routine != "__init__":
        bodies.update(
            build_class(cls, level).routines[routine].body
            for cls in classes
            for level in LEVELS
        )
    assert len(bodies) == 1


def test_overlay_must_name_declared_routines():
    decl = ClassDecl("stack", ArrayStack, [RoutineDecl(ArrayStack.push)], size_of=len)
    with pytest.raises(SpecError, match="undeclared routines pop"):
        decl.spec("weak", frozenset(), model=[], post={"pop": []})
    with pytest.raises(SpecError, match="undeclared routines pop"):
        decl.spec("weak", frozenset(), model=[], post={}, pre={"pop": []})
    with pytest.raises(SpecError, match="undeclared routines pop"):
        decl.spec("strong", frozenset(), model=[], post={}, modify={"push": (), "pop": ()})
    with pytest.raises(SpecError, match="frame every command"):
        decl.spec("strong", frozenset(), model=[], post={}, modify={})
    with pytest.raises(SpecError, match="unframed"):
        decl.spec("weak", frozenset(), model=[], post={}, modify={"push": ()})


def test_strong_query_left_unframed_modifies_nothing():
    # a query the strong overlay leaves out derives the frame of modify=();
    # one it frames keeps its frame as written; a command must be framed
    commands = {"push": ("sequence",), "pop": ("sequence",), "wipe_out": ("sequence",)}

    def frames(modify):
        spec = array_stack.DECL.spec(
            "strong",
            frozenset(),
            model=[ModelQuery("sequence", lambda o: V.item_sequence(o.storage))],
            post={},
            modify=modify,
        )
        return {r.name: (r.modify, [p.name for p in r.frame_preds]) for r in spec.routines.values()}

    left_out = frames(commands)
    assert left_out == frames({**commands, "top": (), "is_empty": ()})
    assert left_out["top"] == left_out["is_empty"] == ((), ["unchanged:target.sequence"])
    framed = frames({**commands, "top": ("sequence",)})
    assert framed["top"] == ((("target", "sequence"),), [])
    assert framed["is_empty"] == left_out["is_empty"]
    with pytest.raises(SpecError, match="array_stack strong binding must frame every command"):
        frames({"push": ("sequence",), "pop": ("sequence",), "top": ()})


# --- catalog sanity -------------------------------------------------------


def test_catalog_covers_every_class_and_counts():
    classes = {e.class_name for e in bug_catalog.CATALOG}
    assert classes == set(ALL_CLASSES)
    assert len(bug_catalog.CATALOG) == 12
    strong_only = [e for e in bug_catalog.CATALOG if e.detectability == "strong_only"]
    both = [e for e in bug_catalog.CATALOG if e.detectability == "both"]
    neither = [e for e in bug_catalog.CATALOG if e.detectability == "neither"]
    assert (len(strong_only), len(both), len(neither)) == (7, 4, 1)
    assert set(bug_catalog.detectable_at("strong")) == {
        e.bug_id for e in strong_only + both
    }
    assert set(bug_catalog.detectable_at("weak")) == {e.bug_id for e in both}


def test_catalog_signatures_name_real_clauses():
    for entry in bug_catalog.CATALOG:
        for level, sig in (
            ("strong", entry.strong),
            ("weak", entry.weak),
            ("weak", entry.weak_analogue),
        ):
            if sig is None:
                continue
            spec = build_class(entry.class_name, level, frozenset([entry.bug_id]))
            routine = spec.routines[sig.routine]
            clauses = {
                "precondition": routine.pre,
                "postcondition": routine.post,
                "frame": routine.frame_preds,
                "invariant_entry": spec.invariants,
                "invariant_exit": spec.invariants,
            }[sig.kind]
            assert sig.clause in {c.name for c in clauses}, (entry.bug_id, level, sig)


def test_manifest_round_trips():
    import json

    data = json.loads(bug_catalog.manifest_json())
    assert len(data["bugs"]) == 12
    assert ["binary_node", "no_cycle"] in data["experimental_clauses"]
    ids = [b["id"] for b in data["bugs"]]
    assert len(ids) == len(set(ids))


def test_catalog_detectability_follows_the_signatures():
    sig = bug_catalog.Signature("remove", "count_down", "postcondition")
    entry = bug_catalog.BugEntry
    assert entry("X-1", "ring_queue", "remove", "d").detectability == "neither"
    assert entry("X-1", "ring_queue", "remove", "d", strong=sig).detectability == "strong_only"
    assert entry("X-1", "ring_queue", "remove", "d", strong=sig, weak=sig).detectability == "both"
    with pytest.raises(ValueError, match="X-1 has a weak signature but no strong one"):
        entry("X-1", "ring_queue", "remove", "d", weak=sig)


@pytest.mark.parametrize(
    "bugs, message",
    [
        ("LD-1", "bug ids must be a collection of ids, not the string 'LD-1'"),
        (("LD-2",), "unknown bug id 'LD-2'"),
        (("ST-1",), "bug ST-1 belongs to class array_stack, not cursor_list"),
        (("LD-1", "LD-1"), "bug id LD-1 given more than once"),
    ],
    ids=["bare_string", "unknown", "other_class", "repeated"],
)
def test_build_class_refuses_the_bug_ids_a_session_refuses(bugs, message):
    # each would otherwise build the class with no defect seeded
    with pytest.raises(ConfigError, match=message):
        build_class("cursor_list", "strong", bugs)
