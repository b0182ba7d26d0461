"""Immutable model values: booleans, integers, atoms, object ids, sequences,
sets and bags with structural equality.

A model value is a tagged pair ``(tag, payload)``:

    ('b', bool)                         boolean
    ('i', int)                          integer
    ('a', hashable)                     opaque atom (item payloads beyond ints)
    ('o', int)                          object identity token (0 = void)
    ('q', tuple of elements)            sequence, positions 1..len
    ('s', frozenset of elements)        set
    ('g', frozenset of (element, n))    bag, n >= 1

An element is an integer stored as its exact ``int``, or any other model
value in its tagged form. A raw int is never a tuple, so the element ``1``
and the atom ``('a', True)`` stay distinct although ``True == 1``; top-level
values are always tagged. Payloads nest, so equality and hashing are the
native tuple/frozenset ones: structural, and entirely in C. All operations
return fresh values and never mutate their inputs; out-of-domain accesses
raise ModelEvalError.

Tags change only at the kernel's boundary: operations that return an element
(``seq_item``, ``seq_last``, ``seq_items``) tag an int on the way out, and
operations that take one (``sequence``, ``seq_has``, ``seq_extended``,
``set_has``, ``bag_of`` and the like) untag a tagged int on the way in.

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
INT = "i"
ATOM = "a"
OID = "o"
SEQ = "q"
SET = "s"
BAG = "g"

TRUE = (BOOL, True)
FALSE = (BOOL, False)
EMPTY_SEQ = (SEQ, ())


def _raw(v):
    """The payload element for the model value ``v``."""
    return v[1] if v[0] == INT else v


def _tagged(x):
    """The model value for the payload element ``x``."""
    return (INT, x) if type(x) is int else x


# --- constructors ---------------------------------------------------------


def boolean(x):
    return TRUE if x else FALSE


def integer(x):
    return (INT, x if type(x) is int else int(x))


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
    return (SEQ, tuple([_raw(v) for v in items]))


def mset(items):
    return (SET, frozenset([_raw(v) for v in items]))


def bag_of(items):
    counts = {}
    for v in items:
        v = _raw(v)
        counts[v] = counts.get(v, 0) + 1
    return (BAG, frozenset(counts.items()))


def bag_from_counts(pairs):
    counts = {}
    for v, n in pairs:
        if n <= 0:
            raise ModelEvalError("bag multiplicity must be positive")
        v = _raw(v)
        counts[v] = counts.get(v, 0) + n
    return (BAG, frozenset(counts.items()))


def item(x):
    """Model value for a stored element: ints keep integer arithmetic,
    anything else hashable rides along as an opaque atom."""
    return (INT, x) if type(x) is int else atom(x)


def item_sequence(xs):
    """``sequence(item(x) for x in xs)`` for a list or tuple ``xs``."""
    # True and 2.0 equal ints, but are atoms
    if countOf(map(type, xs), int) == len(xs):
        return (SEQ, tuple(xs))
    return (SEQ, tuple([x if type(x) is int else atom(x) for x in xs]))


# --- variant access -------------------------------------------------------


def kind(v):
    return v[0]


def as_int(v):
    if v[0] != INT:
        raise ModelEvalError("not an integer value: %r" % (v,))
    return v[1]


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
    return _tagged(items[i - 1])


def seq_last(s):
    items = s[1]
    if not items:
        raise ModelEvalError("last of empty sequence")
    return _tagged(items[-1])


def seq_has(s, v):
    return _raw(v) in s[1]


def seq_index_of(s, v):
    """The first position of ``v`` in ``s``, or 0 when ``s`` lacks it."""
    try:
        return s[1].index(_raw(v)) + 1
    except ValueError:
        return 0


def seq_items(s):
    return tuple([_tagged(x) for x in s[1]])


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
    return (SEQ, s[1] + (_raw(v),))


def seq_replaced_at(s, i, v):
    items = s[1]
    if i < 1 or i > len(items):
        raise ModelEvalError("sequence position %d outside 1..%d" % (i, len(items)))
    return (SEQ, items[: i - 1] + (_raw(v),) + items[i:])


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
    return _raw(v) in s[1]


def set_extended(s, v):
    v = _raw(v)
    if v in s[1]:
        return s
    return (SET, s[1] | {v})


def set_removed(s, v):
    v = _raw(v)
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
    v = _raw(v)
    for x, n in b[1]:
        if x == v:
            return n
    return 0


# --- checking and printing ------------------------------------------------


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
        return type(payload) is tuple and all(_is_element(x) for x in payload)
    if tag == SET:
        return type(payload) is frozenset and all(_is_element(x) for x in payload)
    if tag == BAG:
        return type(payload) is frozenset and all(
            type(p) is tuple
            and len(p) == 2
            and _is_element(p[0])
            and type(p[1]) is int
            and p[1] >= 1
            for p in payload
        )
    return False


def _is_element(x) -> bool:
    # a raw bool or float would equal an int, so only an exact int is raw
    return type(x) is int or is_model_value(x)


def mv_repr(v) -> str:
    """Deterministic printable form, used in violation details and witnesses;
    ``v`` may also be a payload element."""
    if type(v) is int:
        return str(v)
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
    raise ModelEvalError("unknown value tag %r" % (tag,))
