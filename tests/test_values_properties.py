"""Property suite for the value kernel: equality laws, immutability, builders."""

from __future__ import annotations

import copy
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import mbcheck.values as V

ints = st.integers(-30, 30).map(V.integer)
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


# --- stored elements: the kernel against the tagged reference -----------
#
# The reference is the representation the kernel once had: every element of
# a payload in its tagged form, ``('i', x)`` for an exact int and an atom for
# anything else. The kernel stores exact ints raw inside payloads; every
# figure read through its boundary must agree with the reference.


def _ref_item(x):
    """The tagged element of the reference for the stored item ``x``."""
    return (V.INT, x) if type(x) is int else (V.ATOM, x)


def _by_rule(xs):
    """The reference sequence of the stored items ``xs``."""
    return (V.SEQ, tuple(_ref_item(x) for x in xs))


def _ref_repr(v):
    """The reference's printed form of a tagged element or collection."""
    tag, payload = v
    if tag == V.INT:
        return str(payload)
    if tag == V.ATOM:
        return repr(payload)
    if tag == V.SEQ:
        return "[%s]" % ", ".join(_ref_repr(x) for x in payload)
    if tag == V.SET:
        return "{%s}" % ", ".join(sorted(_ref_repr(x) for x in payload))
    assert tag == V.BAG
    return "{%s}" % ", ".join(sorted("%s x%d" % (_ref_repr(x), n) for x, n in payload))


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
    assert got == V.sequence(expected[1]) == V.sequence(V.item(x) for x in xs)
    assert V.seq_items(got) == expected[1]
    assert [V.seq_item(got, i) for i in range(1, len(xs) + 1)] == list(expected[1])
    assert [V.item(x) for x in xs] == list(expected[1])
    assert V.mv_repr(got) == _ref_repr(expected)
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
    assert V.mv_repr(a) == _ref_repr(ra)
    if xs:
        assert V.seq_last(a) == ra[1][-1]
    vy, ry = V.item(y), _ref_item(y)
    assert vy == ry
    assert V.seq_has(a, vy) == (ry in ra[1])
    assert V.seq_index_of(a, vy) == (ra[1].index(ry) + 1 if ry in ra[1] else 0)
    assert V.seq_extended(a, vy) == V.sequence(ra[1] + (ry,))

    cat = V.seq_concat(a, b)
    assert cat == V.sequence(ra[1] + rb[1])
    assert V.seq_items(cat) == ra[1] + rb[1]
    assert V.mv_repr(cat) == _ref_repr((V.SEQ, ra[1] + rb[1]))

    st_a, rs_a = V.seq_to_set(a), frozenset(ra[1])
    assert V.set_count(st_a) == len(rs_a)
    assert V.set_has(st_a, vy) == (ry in rs_a)
    assert V.mv_repr(st_a) == _ref_repr((V.SET, rs_a))
    assert st_a == V.mset(rs_a)
    vz, rz = V.item(z), _ref_item(z)
    ext, rext = V.set_extended(st_a, vy), rs_a | {ry}
    assert ext == V.mset(rext) and V.set_has(ext, vz) == (rz in rext)
    rem, rrem = V.set_removed(st_a, vy), rs_a - {ry}
    assert rem == V.mset(rrem) and V.set_has(rem, vz) == (rz in rrem)
    assert (V.seq_to_set(a) == V.seq_to_set(b)) == (rs_a == frozenset(rb[1]))

    bag, counts = V.seq_to_bag(a), Counter(ra[1])
    assert V.bag_count(bag) == len(xs)
    assert V.bag_occurrences(bag, vy) == counts[ry]
    assert bag == V.bag_of(ra[1]) == V.bag_from_counts(counts.items())
    assert V.mv_repr(bag) == _ref_repr((V.BAG, frozenset(counts.items())))
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
    assert V.seq_items(got) == _by_rule(xs)[1]
    assert got == V.sequence(_by_rule(xs)[1])
    assert V.is_model_value(got)


def test_item_sequence_keeps_bools_and_floats_atoms():
    got = V.item_sequence([True, 1.0, 1, False, 0])
    assert V.seq_items(got) == (
        V.atom(True),
        V.atom(1.0),
        V.integer(1),
        V.atom(False),
        V.integer(0),
    )
    assert V.kind(V.seq_item(got, 1)) == V.ATOM and V.kind(V.seq_item(got, 2)) == V.ATOM
    assert V.item(True) == V.atom(True) != V.integer(1)
    assert V.seq_has(got, V.integer(1)) and V.seq_index_of(got, V.integer(1)) == 3
    assert V.item_sequence([True]) != V.item_sequence([1]) != V.item_sequence([1.0])
    assert V.item_sequence([]) == V.EMPTY_SEQ


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
