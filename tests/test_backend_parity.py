"""The compiled and pure kernels must agree operation-for-operation."""

from __future__ import annotations

import random

import pytest

import mbcheck.values as V
from mbcheck.errors import ModelEvalError
from mbcheck.values import _ops_pure

try:
    from mbcheck.values import _ops_cy
except ImportError:  # pragma: no cover - depends on build environment
    _ops_cy = None

needs_compiled = pytest.mark.skipif(_ops_cy is None, reason="compiled kernel not built")


def _result(ops, fn_name, args):
    try:
        return ("ok", getattr(ops, fn_name)(*args))
    except ModelEvalError:
        return ("model_eval_error", None)


@needs_compiled
def test_random_op_stream_agrees():
    rng = random.Random(20260822)
    for _ in range(4000):
        n = rng.randrange(0, 7)
        xs = [rng.randrange(0, 4) for _ in range(n)]
        ys = [rng.randrange(0, 4) for _ in range(rng.randrange(0, 5))]
        i = rng.randrange(-2, n + 3)
        v = rng.randrange(0, 4)
        # stored elements: ints on both sides of the small-int cache, and atoms
        zs = [rng.choice((rng.randrange(-20, 70), "f", 2.5, True)) for _ in range(n)]

        per_backend = []
        for ops in (_ops_pure, _ops_cy):
            s = ops.sequence(ops.integer(x) for x in xs)
            t = ops.sequence(ops.integer(y) for y in ys)
            snap = [
                _result(ops, "seq_front", (s, i)),
                _result(ops, "seq_tail", (s, i)),
                _result(ops, "seq_concat", (s, t)),
                _result(ops, "seq_item", (s, i)),
                _result(ops, "seq_replaced_at", (s, i, ops.integer(v))),
                _result(ops, "seq_removed_at", (s, i)),
                _result(ops, "seq_extended", (s, ops.integer(v))),
                _result(ops, "seq_to_bag", (s,)),
                _result(ops, "seq_to_set", (s,)),
                _result(ops, "seq_domain", (s,)),
                _result(ops, "seq_count", (s,)),
                _result(ops, "seq_has", (s, ops.integer(v))),
                _result(ops, "set_extended", (ops.mset([ops.integer(x) for x in xs]), ops.integer(v))),
                _result(ops, "bag_occurrences", (ops.bag_of([ops.integer(x) for x in xs]), ops.integer(v))),
                _result(ops, "map_updated", (ops.mmap([(ops.integer(x), ops.integer(x + 1)) for x in xs]), ops.integer(v), ops.integer(0))),
                _result(ops, "sequence", ([ops.integer(z) if type(z) is int else ops.atom(z) for z in zs],)),
            ]
            per_backend.append(snap)
        assert per_backend[0] == per_backend[1]
        assert per_backend[0][-1] == ("ok", V.item_sequence(zs))


@needs_compiled
def test_values_cross_backend_equal():
    # representations are identical, so values built by one kernel compare and
    # hash the same as values built by the other
    a = _ops_pure.sequence([_ops_pure.integer(1), _ops_pure.boolean(True)])
    b = _ops_cy.sequence([_ops_cy.integer(1), _ops_cy.boolean(True)])
    assert a == b
    assert hash(a) == hash(b)


@needs_compiled
def test_atom_constructor_agrees():
    for payload in ("f", "", 0, 3.5, ("t", 1), frozenset({1})):
        assert _ops_pure.atom(payload) == _ops_cy.atom(payload)
    for ops in (_ops_pure, _ops_cy):
        with pytest.raises(TypeError):
            ops.atom({})
    s_pure = _ops_pure.sequence(_ops_pure.atom(c) for c in "fun")
    s_cy = _ops_cy.sequence(_ops_cy.atom(c) for c in "fun")
    assert s_pure == s_cy
    assert _ops_pure.seq_has(s_pure, _ops_pure.atom("u")) == _ops_cy.seq_has(
        s_cy, _ops_cy.atom("u")
    )
