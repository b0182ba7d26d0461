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
        | st.lists(st.tuples(inner, inner), max_size=4).map(V.mmap)
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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(ints, ints), max_size=5), ints, ints)
def test_map_update_remove_laws(pairs, k, x):
    m = V.mmap(pairs)
    m2 = V.map_updated(m, k, x)
    assert V.map_item(m2, k) == x
    assert not V.map_has(V.map_removed(m2, k), k)
    assert V.map_count(m2) >= V.map_count(m)
    assert V.map_domain(m2) == V.set_extended(V.map_domain(m), k)


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
        V.item({})
