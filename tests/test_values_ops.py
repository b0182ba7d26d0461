"""Value-kernel operations against independent oracles.

The oracles work on plain Python lists/collections.Counter and never touch the
kernel representation; expected model values are rebuilt from oracle output via
the public constructors.
"""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

import mbcheck.values as V
from mbcheck.errors import ModelEvalError


def seq_of(xs):
    return V.sequence(xs)


def all_seqs(max_len, alphabet):
    """Every int list of length <= max_len over range(alphabet)."""
    out = []
    for n in range(max_len + 1):
        out.extend(list(p) for p in itertools.product(range(alphabet), repeat=n))
    return out


# --- directed examples ----------------------------------------------------


def test_variant_tags_keep_bool_and_int_distinct():
    assert V.boolean(True) != 1
    assert V.boolean(False) != 0
    assert len({V.boolean(True), 1}) == 2


def test_structural_equality_ignores_construction_route():
    a = V.seq_extended(V.seq_extended(V.EMPTY_SEQ, 1), 2)
    b = seq_of([1, 2])
    c = V.seq_concat(seq_of([1]), seq_of([2]))
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)


def test_splice_bart_one_gives_baronet():
    # b,a,r,t = 1,2,3,4; o,n,e = 5,6,7; splice after position 3
    s = seq_of([1, 2, 3, 4])
    other = seq_of([5, 6, 7])
    i = 3
    spliced = V.seq_concat(V.seq_concat(V.seq_front(s, i), other), V.seq_tail(s, i + 1))
    assert spliced == seq_of([1, 2, 3, 5, 6, 7, 4])


def test_front_tail_edges():
    s = seq_of([7, 8, 9])
    assert V.seq_front(s, 0) == V.EMPTY_SEQ
    assert V.seq_front(s, -2) == V.EMPTY_SEQ
    assert V.seq_front(s, 3) == s
    assert V.seq_front(s, 99) == s
    assert V.seq_tail(s, 1) == s
    assert V.seq_tail(s, 0) == s
    assert V.seq_tail(s, 4) == V.EMPTY_SEQ
    assert V.seq_tail(V.EMPTY_SEQ, 1) == V.EMPTY_SEQ


def test_positional_access_is_one_based_and_guarded():
    s = seq_of([5, 6])
    assert V.seq_item(s, 1) == 5
    assert V.seq_item(s, 2) == 6
    assert V.seq_last(s) == 6
    for bad in (0, 3, -1):
        with pytest.raises(ModelEvalError):
            V.seq_item(s, bad)
    with pytest.raises(ModelEvalError):
        V.seq_last(V.EMPTY_SEQ)


def test_bag_basics():
    b = V.bag_of([1, 1, 2])
    assert V.bag_occurrences(b, 1) == 2
    assert V.bag_occurrences(b, 9) == 0
    assert V.bag_count(b) == 3
    assert b == V.bag_from_counts([(1, 2), (2, 1)])
    with pytest.raises(ModelEvalError):
        V.bag_from_counts([(1, 0)])


def test_set_builders_are_idempotent_where_expected():
    s = V.mset([1, 2])
    assert V.set_extended(s, 1) == s
    assert V.set_extended(s, 3) == V.mset([1, 2, 3])
    assert V.set_removed(s, 9) == s
    assert V.set_removed(s, 1) == V.mset([2])
    assert V.set_has(s, 2) and not V.set_has(s, 5)


def test_object_ids():
    assert V.VOID_ID == V.object_id(0)
    assert V.object_id(3) == V.object_id(3)
    assert V.object_id(3) != V.object_id(4)
    assert V.oid_token(V.object_id(7)) == 7
    with pytest.raises(ModelEvalError):
        V.object_id(-1)


def test_values_nest_inside_collections():
    inner = seq_of([1, 2])
    outer = V.mset([inner, V.EMPTY_SEQ])
    assert V.set_has(outer, seq_of([1, 2]))
    assert V.set_has(outer, V.EMPTY_SEQ)
    assert not V.set_has(outer, seq_of([2, 1]))


# --- exhaustive oracle sweeps --------------------------------------------


def test_front_tail_match_slice_oracle_exhaustively():
    # lengths <= 6 over a 3-symbol alphabet, every cut point
    for xs in all_seqs(6, 3):
        s = seq_of(xs)
        for i in range(-1, len(xs) + 2):
            assert V.seq_front(s, i) == seq_of(xs[: max(i, 0)])
            lo = max(i, 1)
            assert V.seq_tail(s, i) == seq_of(xs[lo - 1 :])


def test_front_concat_tail_reassembles_exhaustively():
    for xs in all_seqs(6, 3):
        s = seq_of(xs)
        for i in range(0, len(xs) + 1):
            assert V.seq_concat(V.seq_front(s, i), V.seq_tail(s, i + 1)) == s


def test_concat_matches_list_append_oracle():
    pool = all_seqs(4, 2)
    for xs in pool:
        for ys in pool:
            assert V.seq_concat(seq_of(xs), seq_of(ys)) == seq_of(xs + ys)


def test_to_bag_of_concat_is_bag_union():
    pool = all_seqs(4, 2)
    for xs in pool:
        for ys in pool:
            got = V.seq_to_bag(V.seq_concat(seq_of(xs), seq_of(ys)))
            counts = Counter(xs) + Counter(ys)
            assert got == V.bag_from_counts(counts.items())


def test_to_bag_invariant_under_permutation():
    for xs in all_seqs(5, 3):
        base = V.seq_to_bag(seq_of(xs))
        seen = set()
        for p in itertools.permutations(xs):
            if p in seen:
                continue
            seen.add(p)
            assert V.seq_to_bag(seq_of(p)) == base


def test_replaced_and_removed_match_list_oracle():
    for xs in all_seqs(5, 2):
        s = seq_of(xs)
        for i in range(1, len(xs) + 1):
            rep = list(xs)
            rep[i - 1] = 9
            assert V.seq_replaced_at(s, i, 9) == seq_of(rep)
            rem = xs[: i - 1] + xs[i:]
            assert V.seq_removed_at(s, i) == seq_of(rem)
        for bad in (0, len(xs) + 1):
            with pytest.raises(ModelEvalError):
                V.seq_replaced_at(s, bad, 9)
            with pytest.raises(ModelEvalError):
                V.seq_removed_at(s, bad)


def test_domain_and_counts_match_oracle():
    for xs in all_seqs(6, 2):
        s = seq_of(xs)
        assert V.seq_count(s) == len(xs)
        assert V.seq_is_empty(s) == (len(xs) == 0)
        assert V.seq_domain(s) == V.mset(range(1, len(xs) + 1))
        assert V.seq_to_set(s) == V.mset(set(xs))
        for x in range(2):
            assert V.seq_has(s, x) == (x in xs)


def test_extended_appends():
    for xs in all_seqs(4, 3):
        assert V.seq_extended(seq_of(xs), 7) == seq_of(xs + [7])


def test_atoms_carry_arbitrary_hashables():
    f = V.atom("f")
    assert f == V.atom("f") and f != V.atom("o")
    assert f != 0 and V.atom(1) != 1  # tags keep kinds apart
    s = V.sequence(V.atom(c) for c in "fold")
    assert V.seq_count(s) == 4
    assert V.seq_has(s, V.atom("l")) and not V.seq_has(s, V.atom("z"))
    assert V.seq_item(s, 1) == f
    assert V.seq_to_set(s) == V.mset(V.atom(c) for c in "dofl")
    assert V.seq_concat(V.seq_front(s, 2), V.seq_tail(s, 3)) == s
    assert V.mv_repr(V.atom("f")) == "'f'"
    assert V.is_model_value(V.atom(("pair", 3)))
    with pytest.raises(TypeError):
        V.atom(["unhashable"])
