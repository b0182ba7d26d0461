"""Immutable model values: booleans, integers, atoms, object ids, sequences,
sets and bags with structural equality.

A model value is a tagged pair ``(tag, payload)``:

    ('b', bool)                       boolean
    ('i', int)                        integer
    ('a', hashable)                   opaque atom (item payloads beyond ints)
    ('o', int)                        object identity token (0 = void)
    ('q', tuple of values)            sequence, positions 1..len
    ('s', frozenset of values)        set
    ('g', frozenset of (value, n))    bag, n >= 1

Payloads nest, so equality and hashing are the native tuple/frozenset ones:
structural, and entirely in C. Tags keep variants distinct even where Python
would conflate payloads (True == 1). All operations return fresh values and
never mutate their inputs; out-of-domain accesses raise ModelEvalError.

``item`` and ``item_sequence`` give the model of stored container elements:
integers stay integers, anything else hashable becomes an atom.

Tagged ints come from one table, shared by ``integer``, ``seq_domain`` and
``item_sequence``. It starts with the ints -16..64; ``integer`` adds each
other int in ``[INT_TAGS_LO, INT_TAGS_HI)`` the first time it tags it, so the
table never holds more than 2048 entries (about 0.2 MB). Filling on first use
keeps the table to the ints a process uses and costs little at import. An int
the table does not hold gets a fresh ``('i', x)``. Stored items reach the table
when a contract first tags them, for instance as an argument through ``item``.

``item_sequence`` has a fast path for a sequence of at least ``FAST_MIN_LEN``
elements, and never for fewer than two: one C call,
``operator.itemgetter(*xs)(table)``, looks every element up, and the payload
is kept when every element's type is exactly ``int`` (counted in C with
``operator.countOf(map(type, xs), int)``). The lookup stops at the first
element the table does not hold. Any other sequence (an int the table does not
hold, a ``bool``, a float equal to an int, a string, an unhashable value, or
fewer elements) takes the per-element rule. Both paths give equal values.
"""

from __future__ import annotations

from operator import countOf, itemgetter

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

# strong models wrap the same stored ints millions of times
INT_TAGS_LO = -1024
INT_TAGS_HI = 1024
_INT_TAGS = {i: (INT, i) for i in range(-16, 65)}  # ``integer`` adds the rest

# shortest sequence that tries the all-int fast path of ``item_sequence``.
# In five runs of benchmarks/bench_values.py (2-core VM, Python 3.11) the
# fast path's fitted cost lay below the per-element rule's at every length
# from 2 for ints the table holds (the lines met at a median of -2.5 elements,
# -4.3 to -0.8; about 46 against 82 reference ns per element), so the gate is
# the floor, 2. For ints outside the table's range, trying the fast path adds
# about 780 reference ns to a call of 2 elements and 1.1 to 1.9 us to one of
# 64 to 256.
FAST_MIN_LEN = 2


# --- constructors ---------------------------------------------------------


def boolean(x):
    return TRUE if x else FALSE


def integer(x):
    v = _INT_TAGS.get(x)
    if v is not None:
        return v
    x = int(x)
    v = (INT, x)
    if INT_TAGS_LO <= x < INT_TAGS_HI:
        _INT_TAGS[x] = v
    return v


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
    return integer(x) if type(x) is int else atom(x)


def item_sequence(xs):
    """``sequence(item(x) for x in xs)`` for a list or tuple ``xs``."""
    n = len(xs)
    # itemgetter with one key returns the bare value, not a 1-tuple
    if n >= FAST_MIN_LEN and n > 1:
        try:
            payload = itemgetter(*xs)(_INT_TAGS)
        except (KeyError, TypeError):
            pass  # an element the table does not hold, or an unhashable one
        else:
            # True and 2.0 find the entries of 1 and 2, but are atoms
            if countOf(map(type, xs), int) == n:
                return (SEQ, payload)
    get = _INT_TAGS.get
    return (SEQ, tuple([(get(x) or (INT, x)) if type(x) is int else atom(x) for x in xs]))


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
    return items[i - 1]


def seq_last(s):
    items = s[1]
    if not items:
        raise ModelEvalError("last of empty sequence")
    return items[-1]


def seq_has(s, v):
    return v in s[1]


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
    return (SET, frozenset(_INT_TAGS.get(i) or (INT, i) for i in range(1, len(s[1]) + 1)))


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
    return False


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
    raise ModelEvalError("unknown value tag %r" % (tag,))
