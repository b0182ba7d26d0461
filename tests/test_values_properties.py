"""Property suite for the value kernel: equality laws, immutability, builders."""

from __future__ import annotations

import copy

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


def _item_rule(x):
    # the element rule as it stood before ``item_sequence`` existed
    return V.integer(x) if type(x) is int else V.atom(x)


stored_items = st.lists(
    st.integers(-100, 300) | st.booleans() | st.text(max_size=3) | st.floats(allow_nan=False),
    max_size=12,
)


@settings(max_examples=120, deadline=None)
@given(stored_items)
def test_item_sequence_matches_per_element_rule(xs):
    expected = V.sequence(_item_rule(x) for x in xs)
    got = V.item_sequence(xs)
    assert got == expected
    assert V.mv_repr(got) == V.mv_repr(expected)
    assert V.is_model_value(got)
    assert [V.item(x) for x in xs] == list(expected[1])


def _with_gate(gate, xs):
    """``item_sequence(xs)`` with the fast path's length gate at ``gate``."""
    saved = V.FAST_MIN_LEN
    V.FAST_MIN_LEN = gate
    try:
        return V.item_sequence(xs)
    finally:
        V.FAST_MIN_LEN = saved


def _by_rule(xs):
    """The per-element rule spelled out with no tag table."""
    return (V.SEQ, tuple((V.INT, x) if type(x) is int else (V.ATOM, x) for x in xs))


FAST = 0  # every sequence tries the fast path first
PER_ELEMENT = 1 << 62  # no sequence does

table_ints = st.integers(V.INT_TAGS_LO, V.INT_TAGS_HI - 1)
outside_ints = st.integers(max_value=V.INT_TAGS_LO - 1) | st.integers(2**64, 2**70)
odd_items = (
    st.booleans()
    | st.integers(-5, 300).map(float)
    | st.floats(allow_nan=False)
    | st.text(max_size=3)
)


@st.composite
def gated_items(draw):
    """Ints on both sides of the length gate, all in the tag table's range or
    some beyond it, with at most one non-int at any position."""
    n = draw(st.integers(0, max(3 * V.FAST_MIN_LEN, 48)))
    ints = table_ints | outside_ints if draw(st.booleans()) else table_ints
    xs = draw(st.lists(ints, min_size=n, max_size=n))
    if draw(st.booleans()):
        xs.insert(draw(st.integers(0, n)), draw(odd_items))
    return xs


@settings(max_examples=200, deadline=None)
@given(gated_items())
def test_item_sequence_paths_match_per_element_rule(xs):
    expected = _by_rule(xs)
    for tagged in (False, True):
        if tagged:  # now the table holds every int of xs inside its range
            for x in xs:
                if type(x) is int:
                    V.integer(x)
        for gate in (FAST, PER_ELEMENT, V.FAST_MIN_LEN):
            got = _with_gate(gate, xs)
            assert got == expected
            assert V.mv_repr(got) == V.mv_repr(expected)
            assert V.is_model_value(got)
            for x, v in zip(xs, got[1]):
                if type(x) is int and V._INT_TAGS.get(x) is not None:
                    assert v is V._INT_TAGS[x]  # the table's shared value


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
    # one element is a bare value to itemgetter, and a bool or a float finds
    # an int's entry; both must still come out by the per-element rule
    for x in xs:
        if type(x) is int:
            V.integer(x)
    got = _with_gate(FAST, xs)
    assert got == _by_rule(xs)
    assert V.is_model_value(got)


def test_int_tag_table_stays_within_its_bound():
    bound = V.INT_TAGS_HI - V.INT_TAGS_LO
    for x in range(-5 * bound, 5 * bound):
        V.integer(x)
    V.item_sequence(list(range(-7 * bound, 7 * bound)))
    V.seq_domain(V.sequence([V.TRUE] * 9 * bound))
    V.item_sequence([2**64 + i for i in range(bound)])
    assert len(V._INT_TAGS) == bound
    assert all(V.INT_TAGS_LO <= x < V.INT_TAGS_HI for x in V._INT_TAGS)


def test_item_sequence_keeps_bools_and_floats_atoms():
    got = V.item_sequence([True, 1.0, 1, False, 0])
    assert got[1] == (
        V.atom(True),
        V.atom(1.0),
        V.integer(1),
        V.atom(False),
        V.integer(0),
    )
    assert V.kind(got[1][0]) == V.ATOM and V.kind(got[1][1]) == V.ATOM
    assert V.item(True) == V.atom(True) != V.integer(1)
    # small ints are the kernel's own shared values
    assert got[1][2] is V.integer(1)
    assert V.item_sequence([]) == V.EMPTY_SEQ


def test_item_sequence_rejects_unhashable_elements():
    with pytest.raises(TypeError):
        V.item_sequence([1, [2]])
    with pytest.raises(TypeError):
        V.item_sequence([1] * V.FAST_MIN_LEN + [[2]])
    with pytest.raises(TypeError):
        V.item({})
