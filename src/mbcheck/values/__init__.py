"""Immutable model values: booleans, integers, object ids, sequences, sets,
bags, and maps with structural equality.

Two interchangeable kernels provide the operations: a compiled extension
(`_ops_cy`, built from Cython when available) and a pure-Python twin
(`_ops_pure`). Selection happens here at import time; set
``MBCHECK_VALUES_BACKEND=pure`` or ``=compiled`` to force one. ``BACKEND``
names the kernel in use.

``item`` and ``item_sequence`` give the model of stored container elements
(integers stay integers, anything else hashable becomes an atom); they live
here rather than in a kernel, so both kernels share them.
"""

from __future__ import annotations

import os

from mbcheck.errors import ModelEvalError

_choice = os.environ.get("MBCHECK_VALUES_BACKEND", "")
if _choice == "pure":
    from mbcheck.values import _ops_pure as _ops

    BACKEND = "pure"
elif _choice == "compiled":
    from mbcheck.values import _ops_cy as _ops  # type: ignore[no-redef]

    BACKEND = "compiled"
elif _choice == "":
    try:
        from mbcheck.values import _ops_cy as _ops  # type: ignore[no-redef]

        BACKEND = "compiled"
    except ImportError:
        from mbcheck.values import _ops_pure as _ops  # type: ignore[no-redef]

        BACKEND = "pure"
else:
    raise ImportError(
        "MBCHECK_VALUES_BACKEND must be 'pure' or 'compiled', got %r" % _choice
    )

BOOL = _ops.BOOL
INT = _ops.INT
ATOM = _ops.ATOM
OID = _ops.OID
SEQ = _ops.SEQ
SET = _ops.SET
BAG = _ops.BAG
MAP = _ops.MAP

TRUE = _ops.TRUE
FALSE = _ops.FALSE
EMPTY_SEQ = _ops.EMPTY_SEQ

boolean = _ops.boolean
integer = _ops.integer
atom = _ops.atom
object_id = _ops.object_id
sequence = _ops.sequence
mset = _ops.mset
bag_of = _ops.bag_of
bag_from_counts = _ops.bag_from_counts
mmap = _ops.mmap

kind = _ops.kind
as_bool = _ops.as_bool
as_int = _ops.as_int
oid_token = _ops.oid_token

seq_count = _ops.seq_count
seq_is_empty = _ops.seq_is_empty
seq_item = _ops.seq_item
seq_last = _ops.seq_last
seq_has = _ops.seq_has
seq_items = _ops.seq_items
seq_front = _ops.seq_front
seq_tail = _ops.seq_tail
seq_concat = _ops.seq_concat
seq_extended = _ops.seq_extended
seq_replaced_at = _ops.seq_replaced_at
seq_removed_at = _ops.seq_removed_at
seq_domain = _ops.seq_domain
seq_to_bag = _ops.seq_to_bag
seq_to_set = _ops.seq_to_set

set_count = _ops.set_count
set_has = _ops.set_has
set_extended = _ops.set_extended
set_removed = _ops.set_removed

bag_count = _ops.bag_count
bag_occurrences = _ops.bag_occurrences

map_count = _ops.map_count
map_domain = _ops.map_domain
map_has = _ops.map_has
map_item = _ops.map_item
map_updated = _ops.map_updated
map_removed = _ops.map_removed

# object token 0 is reserved for "no object"
VOID_ID = object_id(0)


def is_model_value(v) -> bool:
    """Deep well-formedness check. For tests and debugging, not the hot path."""
    if type(v) is not tuple or len(v) != 2:
        return False
    tag, payload = v
    if tag == BOOL:
        return payload is True or payload is False
    if tag == INT:
        return type(payload) is int
    if tag == ATOM:
        try:
            hash(payload)
        except TypeError:
            return False
        return True
    if tag == OID:
        return type(payload) is int and payload >= 0
    if tag == SEQ:
        return type(payload) is tuple and all(is_model_value(x) for x in payload)
    if tag == SET:
        return type(payload) is frozenset and all(is_model_value(x) for x in payload)
    if tag == BAG:
        return type(payload) is frozenset and all(
            type(p) is tuple
            and len(p) == 2
            and is_model_value(p[0])
            and type(p[1]) is int
            and p[1] >= 1
            for p in payload
        )
    if tag == MAP:
        if type(payload) is not frozenset:
            return False
        keys = [p[0] for p in payload]
        return all(
            type(p) is tuple and len(p) == 2 and is_model_value(p[0]) and is_model_value(p[1])
            for p in payload
        ) and len(keys) == len(set(keys))
    return False


def item(x):
    """Model value for a stored element: ints keep integer arithmetic,
    anything else hashable rides along as an opaque atom."""
    return integer(x) if type(x) is int else atom(x)


# the kernel's own small-int values, so cached items stay shared with it
_ITEM_INTS = {i: integer(i) for i in range(-16, 65)}


def item_sequence(xs):
    """``sequence(item(x) for x in xs)``, built in one pass."""
    get = _ITEM_INTS.get
    return (
        SEQ,
        tuple([(get(x) or (INT, x)) if type(x) is int else atom(x) for x in xs]),
    )


def mv_repr(v) -> str:
    """Deterministic printable form, used in violation details and witnesses."""
    tag, payload = v
    if tag == BOOL:
        return "true" if payload else "false"
    if tag == INT:
        return str(payload)
    if tag == ATOM:
        return repr(payload)
    if tag == OID:
        return "void" if payload == 0 else "#%d" % payload
    if tag == SEQ:
        return "[%s]" % ", ".join(mv_repr(x) for x in payload)
    if tag == SET:
        return "{%s}" % ", ".join(sorted(mv_repr(x) for x in payload))
    if tag == BAG:
        parts = sorted("%s x%d" % (mv_repr(x), n) for x, n in payload)
        return "{%s}" % ", ".join(parts)
    if tag == MAP:
        parts = sorted("%s -> %s" % (mv_repr(k), mv_repr(x)) for k, x in payload)
        return "{%s}" % ", ".join(parts)
    raise ModelEvalError("unknown value tag %r" % (tag,))
