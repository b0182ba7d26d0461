"""Property tests for strong abstraction functions and representation checks
that take a shortcut: each is compared with its rule spelled out, on states
the classes' own routines never build."""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

import mbcheck.values as V
from mbcheck.containers import build_class
from mbcheck.containers._shared import DCell
from mbcheck.containers.ring_queue import RingQueue
from mbcheck.containers.two_way_list import TwoWayList


def outcome(f):
    """``f()``'s value, or the type and text of what it raised."""
    try:
        return ("value", f())
    except Exception as e:  # noqa: BLE001 - the exception is the outcome
        return ("raises", type(e), str(e))


# --- ring_queue's sequence model -----------------------------------------

RING_SEQUENCE = next(q for q in build_class("ring_queue", "strong").model if q.name == "sequence")


def ring_rule(s, h, n):
    """The queue's content by definition: ``n`` slots from ``h``, modulo the
    storage's length."""
    cap = len(s)
    return [s[(h + j) % cap] for j in range(n)]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 9) | st.text(max_size=2), max_size=9),
    st.integers(-12, 12),
    st.integers(-3, 12),
)
@example([], 0, 0)
@example([], 0, 1)
@example([], -1, 2)
@example([1, 2, 3], 2, 3)
@example([1, 2, 3], 3, 1)
@example([1, 2, 3], 0, 4)
def test_ring_sequence_model_matches_its_rule(storage, head, count):
    q = RingQueue()
    q.storage, q.head, q.count = storage, head, count
    got = outcome(lambda: RING_SEQUENCE.evaluate(q))
    expected = outcome(lambda: V.item_sequence(ring_rule(storage, head, count)))
    assert got == expected
    assert q.storage == storage  # the model only reads


def test_ring_sequence_model_never_calls_the_class():
    q = RingQueue()
    for v in range(7):
        q.put(v)
    for _ in range(3):
        q.remove()
    for v in range(7, 11):
        q.put(v)
    q._logical = None  # the model must not lean on the implementation
    assert q.head + q.count > len(q.storage)  # the content wraps
    assert RING_SEQUENCE.evaluate(q) == V.item_sequence(list(range(3, 11)))


# --- two_way_list's back_links invariant ---------------------------------

BACK_LINKS = next(
    c for c in build_class("two_way_list", "strong").invariants if c.name == "back_links"
)


def back_links_by_two_lists(o):
    """The invariant's earlier definition: the forward chain equals the
    backward chain from ``last_cell``, reversed, cell by cell."""
    forward = []
    cell = o.first_cell
    while cell is not None:
        forward.append(cell)
        cell = cell.next
    backward = []
    cell = o.last_cell
    while cell is not None:
        backward.append(cell)
        cell = cell.prev
    backward.reverse()
    return len(forward) == len(backward) and all(f is b for f, b in zip(forward, backward))


def prev_acyclic(cells):
    for start in cells:
        seen = set()
        cell = start
        while cell is not None:
            if id(cell) in seen:
                return False
            seen.add(id(cell))
            cell = cell.prev
    return True


@st.composite
def linked_lists(draw):
    """A sound list of up to 8 cells plus two foreign cells, then up to 4
    corruptions of ``prev``, ``first_cell`` or ``last_cell``. A corruption that
    would close a ``prev`` cycle is skipped, since the earlier definition never
    finishes on one."""
    n = draw(st.integers(0, 8))
    chain = [DCell(i) for i in range(n)]
    for a, b in zip(chain, chain[1:]):
        a.next, b.prev = b, a
    foreign = [DCell("f%d" % i) for i in range(2)]
    for f in foreign:
        f.next = draw(st.sampled_from([None, *chain]))
        f.prev = draw(st.sampled_from([None, *chain]))
    cells = chain + foreign
    o = TwoWayList()
    o.first_cell = chain[0] if chain else None
    o.last_cell = chain[-1] if chain else None
    o.count = n
    somewhere = st.sampled_from([None, *cells])
    for _ in range(draw(st.integers(0, 4))):
        what = draw(st.sampled_from(["prev", "first_cell", "last_cell"]))
        if what == "prev":
            cell = draw(st.sampled_from(cells))
            old, cell.prev = cell.prev, draw(somewhere)
            if not prev_acyclic(cells):
                cell.prev = old
        else:
            setattr(o, what, draw(somewhere))
    return o


@settings(max_examples=400, deadline=None)
@given(linked_lists())
def test_back_links_matches_the_two_list_definition(o):
    assert BACK_LINKS.fn(None, o) == back_links_by_two_lists(o)


def test_back_links_rejects_a_prev_cycle():
    # the two-list definition walks prev from last_cell and never ends here
    o = TwoWayList()
    a, b = DCell(1), DCell(2)
    a.next, b.prev, a.prev = b, a, b
    o.first_cell, o.last_cell, o.count = a, b, 2
    assert BACK_LINKS.fn(None, o) is False
