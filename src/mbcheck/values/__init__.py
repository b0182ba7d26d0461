"""Immutable model values: booleans, integers, atoms, object ids, sequences,
sets and bags with structural equality.

An integer is its own exact ``int``. Every other model value is a tagged
pair ``(tag, payload)``:

    ('b', bool)                         boolean
    ('a', hashable)                     opaque atom (item payloads beyond ints)
    ('o', int)                          object identity token (0 = void)
    ('q', tuple of values)              sequence, positions 1..len
    ('s', frozenset of values)          set
    ('g', frozenset of (value, n))      bag, n >= 1

That one rule holds at top level and inside payloads alike, so no operation
converts between forms. A raw int is never a tuple, so the integer ``1``
stays distinct from the boolean ``('b', True)`` and the atoms ``('a', True)``
and ``('a', 1.0)`` although ``True == 1.0 == 1``; only an exact ``int`` is
raw, never a bool or a float. Payloads nest, so equality and hashing are the
native tuple/frozenset ones: structural, and entirely in C. All operations
return fresh values and never mutate their inputs; out-of-domain accesses
raise ModelEvalError.

``item`` and ``item_sequence`` give the model of stored container elements:
integers stay integers, anything else hashable becomes an atom. A sequence of
exact ints is its own payload, so ``item_sequence`` copies it in one C call.
"""

from __future__ import annotations

from operator import countOf

from mbcheck.errors import ModelEvalError

# the kernel's name, recorded in the env line of perfbench/run.py; this
# module is the only kernel
BACKEND = "pure"

BOOL = "b"
ATOM = "a"
OID = "o"
SEQ = "q"
SET = "s"
BAG = "g"

TRUE = (BOOL, True)
FALSE = (BOOL, False)
EMPTY_SEQ = (SEQ, ())


# --- constructors ---------------------------------------------------------


def boolean(x):
    return TRUE if x else FALSE


def atom(x):
    """Opaque element value; equality and hashing are the payload's own."""
    hash(x)  # not storable otherwise
    return (ATOM, x)


def object_id(token):
    if token < 0:
        raise ModelEvalError("object token must be >= 0")
    return (OID, token)


# object token 0 is reserved for "no object"
VOID_ID = object_id(0)


def sequence(items):
    return (SEQ, tuple(items))


def mset(items):
    return (SET, frozenset(items))


def bag_of(items):
    counts = {}
    for v in items:
        counts[v] = counts.get(v, 0) + 1
    return (BAG, frozenset(counts.items()))


def bag_from_counts(pairs):
    counts = {}
    for v, n in pairs:
        if n <= 0:
            raise ModelEvalError("bag multiplicity must be positive")
        counts[v] = counts.get(v, 0) + n
    return (BAG, frozenset(counts.items()))


def item(x):
    """Model value for a stored element: ints keep integer arithmetic,
    anything else hashable rides along as an opaque atom."""
    return x if type(x) is int else atom(x)


def item_sequence(xs):
    """``sequence(item(x) for x in xs)`` for a list or tuple ``xs``."""
    # True and 2.0 equal ints, but are atoms
    if countOf(map(type, xs), int) == len(xs):
        return (SEQ, tuple(xs))
    return (SEQ, tuple([x if type(x) is int else atom(x) for x in xs]))


# --- variant access -------------------------------------------------------


def oid_token(v):
    if v[0] != OID:
        raise ModelEvalError("not an object id: %r" % (v,))
    return v[1]


# --- sequences ------------------------------------------------------------


def seq_count(s):
    return len(s[1])


def seq_is_empty(s):
    return not s[1]


def seq_item(s, i):
    items = s[1]
    if i < 1 or i > len(items):
        raise ModelEvalError("sequence position %d outside 1..%d" % (i, len(items)))
    return items[i - 1]


def seq_last(s):
    items = s[1]
    if not items:
        raise ModelEvalError("last of empty sequence")
    return items[-1]


def seq_has(s, v):
    return v in s[1]


def seq_index_of(s, v):
    """The first position of ``v`` in ``s``, or 0 when ``s`` lacks it."""
    try:
        return s[1].index(v) + 1
    except ValueError:
        return 0


def seq_items(s):
    return s[1]


def seq_front(s, i):
    # prefix of the first i positions; clamped, so front(s, 0) = [] and
    # front(s, n) = s for n >= count
    items = s[1]
    if i <= 0:
        return EMPTY_SEQ
    if i >= len(items):
        return s
    return (SEQ, items[:i])


def seq_tail(s, i):
    # suffix starting at position i; tail(s, 1) = s, empty once i > count
    items = s[1]
    if i <= 1:
        return s
    if i > len(items):
        return EMPTY_SEQ
    return (SEQ, items[i - 1 :])


def seq_concat(a, b):
    if not a[1]:
        return b
    if not b[1]:
        return a
    return (SEQ, a[1] + b[1])


def seq_extended(s, v):
    return (SEQ, s[1] + (v,))


def seq_replaced_at(s, i, v):
    items = s[1]
    if i < 1 or i > len(items):
        raise ModelEvalError("sequence position %d outside 1..%d" % (i, len(items)))
    return (SEQ, items[: i - 1] + (v,) + items[i:])


def seq_removed_at(s, i):
    items = s[1]
    if i < 1 or i > len(items):
        raise ModelEvalError("sequence position %d outside 1..%d" % (i, len(items)))
    return (SEQ, items[: i - 1] + items[i:])


def seq_domain(s):
    return (SET, frozenset(range(1, len(s[1]) + 1)))


def seq_to_bag(s):
    counts = {}
    for v in s[1]:
        counts[v] = counts.get(v, 0) + 1
    return (BAG, frozenset(counts.items()))


def seq_to_set(s):
    return (SET, frozenset(s[1]))


# --- sets -----------------------------------------------------------------


def set_count(s):
    return len(s[1])


def set_has(s, v):
    return v in s[1]


def set_extended(s, v):
    if v in s[1]:
        return s
    return (SET, s[1] | {v})


def set_removed(s, v):
    if v not in s[1]:
        return s
    return (SET, s[1] - {v})


# --- bags -----------------------------------------------------------------


def bag_count(b):
    total = 0
    for _, n in b[1]:
        total += n
    return total


def bag_occurrences(b, v):
    for x, n in b[1]:
        if x == v:
            return n
    return 0


# --- checking and printing ------------------------------------------------


def is_model_value(v) -> bool:
    """Deep well-formedness check. For tests and debugging, not the hot path."""
    # a bool or float would equal an int, so only an exact int is raw
    if type(v) is int:
        return True
    if type(v) is not tuple or len(v) != 2:
        return False
    tag, payload = v
    if tag == BOOL:
        return payload is True or payload is False
    if tag == ATOM:
        try:
            hash(payload)
        except TypeError:
            return False
        return True
    if tag == OID:
        return type(payload) is int and payload >= 0
    if tag == SEQ:
        return type(payload) is tuple and all(map(is_model_value, payload))
    if tag == SET:
        return type(payload) is frozenset and all(map(is_model_value, payload))
    if tag == BAG:
        return type(payload) is frozenset and all(
            type(p) is tuple
            and len(p) == 2
            and is_model_value(p[0])
            and type(p[1]) is int
            and p[1] >= 1
            for p in payload
        )
    return False


def mv_repr(v) -> str:
    """Deterministic printable form, used in violation details and witnesses."""
    if type(v) is int:
        return str(v)
    tag, payload = v
    if tag == BOOL:
        return "true" if payload else "false"
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
    raise ModelEvalError("unknown value tag %r" % (tag,))
