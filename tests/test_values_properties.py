"""Property suite for the value kernel: equality laws, immutability, builders."""

from __future__ import annotations

import copy
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import mbcheck.values as V
from mbcheck.containers import build_class
from mbcheck.containers.domains import SequenceDomain
from mbcheck.engine import Engine, completeness_probe, pred

ints = st.integers(-30, 30)
bools = st.booleans().map(V.boolean)
oids = st.integers(0, 9).map(V.object_id)
scalars = ints | bools | oids


def collections_from(inner):
    return (
        st.lists(inner, max_size=5).map(V.sequence)
        | st.lists(inner, max_size=5).map(V.mset)
        | st.lists(inner, max_size=5).map(V.bag_of)
    )


model_values = st.recursive(scalars, collections_from, max_leaves=12)


@settings(max_examples=80, deadline=None)
@given(model_values)
def test_equality_reflexive_and_hash_consistent(v):
    assert v == v
    w = copy.deepcopy(v)
    assert v == w and w == v
    assert hash(v) == hash(w)
    assert V.is_model_value(v)


@settings(max_examples=80, deadline=None)
@given(model_values, model_values, model_values)
def test_equality_symmetric_and_transitive(a, b, c):
    assert (a == b) == (b == a)
    if a == b and b == c:
        assert a == c


@settings(max_examples=60, deadline=None)
@given(st.lists(ints, max_size=6), ints)
def test_sequence_builders_do_not_mutate_inputs(items, x):
    s = V.sequence(items)
    before = copy.deepcopy(s)
    V.seq_extended(s, x)
    V.seq_front(s, 1)
    V.seq_tail(s, 2)
    V.seq_concat(s, s)
    V.seq_to_bag(s)
    V.seq_to_set(s)
    V.seq_domain(s)
    if V.seq_count(s):
        V.seq_replaced_at(s, 1, x)
        V.seq_removed_at(s, 1)
    assert s == before


@settings(max_examples=60, deadline=None)
@given(st.lists(ints, max_size=6), ints)
def test_set_round_trip(items, x):
    s = V.mset(items)
    assert V.set_has(V.set_extended(s, x), x)
    assert not V.set_has(V.set_removed(s, x), x)
    assert V.set_count(s) == len(set(items))


@settings(max_examples=60, deadline=None)
@given(st.lists(ints, max_size=6))
def test_bag_total_count(items):
    b = V.bag_of(items)
    assert V.bag_count(b) == len(items)
    assert sum(V.bag_occurrences(b, x) for x in set(items)) == len(items)


# --- stored elements: the kernel against a reference ---------------------
#
# The reference holds no kernel form: it keys each stored item by whether it
# is an exact int, ``(True, x)`` for an exact int and ``(False, x)`` for
# anything else, so an int never equals the bool or float that ``==`` calls
# equal to it. ``_ref_of`` reads a kernel element into the reference and
# ``_kernel_of`` builds one from it with the public constructors; every
# figure read through the kernel's operations must agree with the reference.


def _ref_item(x):
    """The reference element for the stored item ``x``."""
    return (type(x) is int, x)


def _by_rule(xs):
    """The reference elements of the stored items ``xs``."""
    return tuple(_ref_item(x) for x in xs)


def _ref_of(v):
    """The reference element for the kernel element ``v``."""
    if type(v) is int:
        return (True, v)
    assert v[0] == V.ATOM
    return (False, v[1])


def _kernel_of(r):
    """The kernel element for the reference element ``r``."""
    is_int, x = r
    return x if is_int else V.atom(x)


def _ref_items(s):
    """The reference elements of the kernel sequence ``s``, in order."""
    return tuple(_ref_of(v) for v in V.seq_items(s))


def _ref_repr(r):
    is_int, x = r
    return str(x) if is_int else repr(x)


def _seq_repr(rs):
    return "[%s]" % ", ".join(_ref_repr(r) for r in rs)


def _set_repr(rs):
    return "{%s}" % ", ".join(sorted(_ref_repr(r) for r in rs))


def _bag_repr(counts):
    return "{%s}" % ", ".join(sorted("%s x%d" % (_ref_repr(r), n) for r, n in counts.items()))


# ints on both sides of small-int caches and past 64 bits, and the values a
# raw int would be confused with: bools and floats equal to ints
stored_item = (
    st.integers(-2000, 2000)
    | st.sampled_from([-0, 2**64, -(2**64), 2**70])
    | st.booleans()
    | st.integers(-5, 300).map(float)
    | st.sampled_from([-0.0, float(2**64)])
    | st.floats(allow_nan=False)
    | st.text(max_size=3)
)
stored_items = st.lists(stored_item, max_size=12)


def _look_alike(x):
    """A stored item that ``==`` calls equal to ``x`` but of another type,
    or ``x`` itself when there is none."""
    if type(x) is int:
        return bool(x) if x in (0, 1) else float(x)
    if type(x) is bool or (type(x) is float and x.is_integer()):
        return int(x)
    return x


@st.composite
def item_pairs(draw):
    """Two item lists that are often equal, or equal but for one element
    swapped for its look-alike."""
    xs = draw(stored_items)
    how = draw(st.sampled_from(["same", "look_alike", "other"]))
    if how == "other" or not xs:
        return xs, draw(stored_items)
    ys = list(xs)
    if how == "look_alike":
        i = draw(st.integers(0, len(xs) - 1))
        ys[i] = _look_alike(xs[i])
    return xs, ys


@settings(max_examples=120, deadline=None)
@given(stored_items)
def test_item_sequence_matches_per_element_rule(xs):
    expected = _by_rule(xs)
    got = V.item_sequence(xs)
    assert got == V.sequence(map(_kernel_of, expected)) == V.sequence(V.item(x) for x in xs)
    assert _ref_items(got) == expected
    assert tuple(_ref_of(V.seq_item(got, i)) for i in range(1, len(xs) + 1)) == expected
    assert tuple(_ref_of(V.item(x)) for x in xs) == expected
    assert V.mv_repr(got) == _seq_repr(expected)
    assert V.is_model_value(got)


@settings(max_examples=300, deadline=None)
@given(item_pairs(), stored_item, stored_item)
def test_item_sequence_paths_match_per_element_rule(pair, y, z):
    # item_sequence copies an all-int list and applies the per-element rule
    # to any other; both must agree with the reference through every kernel
    # operation that reads or writes an element
    xs, ys = pair
    a, b = V.item_sequence(xs), V.item_sequence(ys)
    ra, rb = _by_rule(xs), _by_rule(ys)
    assert (a == b) == (ra == rb)
    if ra == rb:
        assert hash(a) == hash(b)
    assert V.mv_repr(a) == _seq_repr(ra)
    if xs:
        assert _ref_of(V.seq_last(a)) == ra[-1]
    vy, ry = V.item(y), _ref_item(y)
    assert _ref_of(vy) == ry
    assert V.seq_has(a, vy) == (ry in ra)
    assert V.seq_index_of(a, vy) == (ra.index(ry) + 1 if ry in ra else 0)
    assert _ref_items(V.seq_extended(a, vy)) == ra + (ry,)
    if xs:
        assert _ref_items(V.seq_replaced_at(a, 1, vy)) == (ry,) + ra[1:]

    cat = V.seq_concat(a, b)
    assert cat == V.sequence(map(_kernel_of, ra + rb))
    assert _ref_items(cat) == ra + rb
    assert V.mv_repr(cat) == _seq_repr(ra + rb)

    st_a, rs_a = V.seq_to_set(a), frozenset(ra)
    assert V.set_count(st_a) == len(rs_a)
    assert V.set_has(st_a, vy) == (ry in rs_a)
    assert V.mv_repr(st_a) == _set_repr(rs_a)
    assert st_a == V.mset(map(_kernel_of, rs_a))
    vz, rz = V.item(z), _ref_item(z)
    ext, rext = V.set_extended(st_a, vy), rs_a | {ry}
    assert ext == V.mset(map(_kernel_of, rext)) and V.set_has(ext, vz) == (rz in rext)
    rem, rrem = V.set_removed(st_a, vy), rs_a - {ry}
    assert rem == V.mset(map(_kernel_of, rrem)) and V.set_has(rem, vz) == (rz in rrem)
    assert (V.seq_to_set(a) == V.seq_to_set(b)) == (rs_a == frozenset(rb))

    bag, counts = V.seq_to_bag(a), Counter(ra)
    assert V.bag_count(bag) == len(xs)
    assert V.bag_occurrences(bag, vy) == counts[ry]
    assert bag == V.bag_of(map(_kernel_of, ra))
    assert bag == V.bag_from_counts((_kernel_of(r), n) for r, n in counts.items())
    assert V.mv_repr(bag) == _bag_repr(counts)
    for v in (cat, st_a, ext, rem, bag):
        assert V.is_model_value(v)


SHORT_LISTS = {
    "empty": [],
    "one_int": [5],
    "one_bool": [True],
    "one_float": [2.0],
    "one_str": ["a"],
    "one_outside_int": [2**70],
    "two_ints": [5, 7],
    "bool_and_int": [True, 1],
    "int_and_bool": [0, False],
    "int_and_float": [1, 2.0],
    "int_and_str": [1, "a"],
    "int_and_outside_int": [1, 2**70],
}


@pytest.mark.parametrize("xs", list(SHORT_LISTS.values()), ids=list(SHORT_LISTS))
def test_item_sequence_short_lists_at_gate_zero(xs):
    # item_sequence tries its all-int copy first at every length, 0 and 1
    # included; a bool or a float among the ints must still make atoms
    got = V.item_sequence(xs)
    assert _ref_items(got) == _by_rule(xs)
    assert got == V.sequence(map(_kernel_of, _by_rule(xs)))
    assert V.is_model_value(got)


def test_item_sequence_keeps_bools_and_floats_atoms():
    got = V.item_sequence([True, 1.0, 1, False, 0])
    assert V.seq_items(got) == (
        V.atom(True),
        V.atom(1.0),
        1,
        V.atom(False),
        0,
    )
    assert [type(v) is int for v in V.seq_items(got)] == [False, False, True, False, True]
    assert V.item(True) == V.atom(True) != 1
    assert V.seq_has(got, 1) and V.seq_index_of(got, 1) == 3
    assert V.item_sequence([True]) != V.item_sequence([1]) != V.item_sequence([1.0])
    assert V.item_sequence([]) == V.EMPTY_SEQ


def test_exact_ints_are_their_own_model_values():
    # one integer representation: an exact int is a model value as it stands,
    # at top level as inside payloads; a bool or a float never is
    assert V.is_model_value(5) and V.is_model_value(2**70)
    for x in (True, False, 1.0, 0.0):
        assert not V.is_model_value(x)
    assert V.item(1) == 1 and V.item(True) != V.item(1) and V.item(1.0) != V.item(1)
    assert V.boolean(True) != 1 and V.object_id(1) != 1
    assert V.seq_item(V.sequence([4, 5]), 2) == 5 and V.seq_last(V.sequence([4, 5])) == 5

    # a built spec's model values, at run time and in the probe
    spec = build_class("cursor_list", "strong")
    forth = spec.routines["forth"]
    reads, items = [], []

    def spy(ctx):
        reads.append((ctx.old("index"), ctx.now("index"), ctx.old("count")))
        items.extend(V.seq_items(ctx.old("sequence")))
        return True

    forth.post = forth.post + (pred("reads_exact_ints", spy),)
    eng = Engine()
    a = eng.create(spec)
    for op, *args in [("extend", 4), ("extend", 5), ("start",), ("forth",)]:
        assert not eng.call(a, op, *args).violations
    models = {q.name: q.evaluate(a.concrete) for q in spec.model}
    assert models["index"] == 2 and type(models["index"]) is int
    assert V.seq_items(models["sequence"]) == (4, 5)
    assert reads == [(1, 2, 2)] and items == [4, 5]

    del reads[:], items[:]
    dom = SequenceDomain({"cursor_list": spec}, max_len=2, alphabet=2)
    assert completeness_probe(spec, forth, dom).pre_states_checked > 0
    assert reads and items
    assert all(type(v) is int for v in items + [v for r in reads for v in r])


def test_item_sequence_rejects_unhashable_elements():
    with pytest.raises(TypeError):
        V.item_sequence([1, [2]])
    with pytest.raises(TypeError):
        V.item_sequence([1] * 20 + [[2]])
    with pytest.raises(TypeError):
        V.item({})


@pytest.mark.parametrize("tag", [V.SEQ, V.SET, V.BAG])
def test_is_model_value_accepts_raw_ints_in_collections(tag):
    for x in (0, -1, 7, 2**70):
        payload = ((x, 1),) if tag == V.BAG else (x, V.atom("a"))
        kind = tuple if tag == V.SEQ else frozenset
        assert V.is_model_value((tag, kind(payload)))


@pytest.mark.parametrize("tag", [V.SEQ, V.SET, V.BAG])
@pytest.mark.parametrize("x", [True, False, 1.0, 0.0], ids=["true", "false", "float1", "float0"])
def test_is_model_value_rejects_raw_bools_and_floats_in_collections(tag, x):
    payload = ((x, 1),) if tag == V.BAG else (x,)
    kind = tuple if tag == V.SEQ else frozenset
    assert not V.is_model_value((tag, kind(payload)))
    # the same element tagged is well formed
    tagged = ((V.item(x), 1),) if tag == V.BAG else (V.item(x),)
    assert V.is_model_value((tag, kind(tagged)))
