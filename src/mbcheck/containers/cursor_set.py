"""Set of integers stored as a duplicate-free linked list with a cursor.

Commands keep the no-duplicates property by construction: ``extend`` refuses
values already present, ``replace`` first unlinks any other cell holding the
new value. Value-based ``remove`` adjusts the cursor so it keeps pointing at
the same element (or its successor).
"""

from __future__ import annotations

import mbcheck.values as V
from mbcheck.engine import ARG0, InvariantClause, defines, item_param, pred

from mbcheck.containers._shared import (
    COUNT_ZERO,
    EMPTIED,
    SEQUENCE_COUNT,
    Cell,
    RoutineDecl,
    cell_at,
    chain_items,
)
from mbcheck.containers._cursor_specs import (
    EQUAL_IMPLIES_SAME_COUNT,
    FOUND_IMPLIES_NONEMPTY,
    MOTION,
    MOTION_POST,
    REPORTS_ITEM,
    CursorChain,
    cursor_decl,
    linked_invariants,
    linked_model,
)

CLASS_NAME = "cursor_set"


class CursorSet(CursorChain):
    """A ``CursorChain`` without ``last_cell``: ``__init__`` and ``wipe_out``
    leave it out."""

    def __init__(self, bugs=frozenset()):
        self._bugs = bugs
        self.first_cell = None
        self.count = 0
        self.index = 0

    # commands

    def extend(self, v):
        tail = None
        cell = self.first_cell
        while cell is not None:
            if cell.item == v:
                return
            tail = cell
            cell = cell.next
        new = Cell(v)
        if tail is None:
            self.first_cell = new
        else:
            tail.next = new
        self.count += 1

    def replace(self, v):
        if "SR-1" in self._bugs:
            cell_at(self.first_cell, self.index).item = v
            return
        target = cell_at(self.first_cell, self.index)
        if target.item == v:
            return
        # unlink any other cell already holding v
        prev = None
        cell = self.first_cell
        pos = 1
        dup_pos = 0
        while cell is not None:
            if cell is not target and cell.item == v:
                dup_pos = pos
                if prev is None:
                    self.first_cell = cell.next
                else:
                    prev.next = cell.next
                self.count -= 1
                break
            prev = cell
            cell = cell.next
            pos += 1
        if dup_pos and dup_pos < self.index:
            self.index -= 1
        target.item = v

    def remove(self, v):
        prev = None
        cell = self.first_cell
        pos = 1
        while cell is not None:
            if cell.item == v:
                if prev is None:
                    self.first_cell = cell.next
                else:
                    prev.next = cell.next
                self.count -= 1
                if pos < self.index:
                    self.index -= 1
                return
            prev = cell
            cell = cell.next
            pos += 1

    def wipe_out(self):
        self.first_cell = None
        self.count = 0
        self.index = 0

    # queries

    def is_equal(self, other):
        if "EQ-1" in self._bugs:
            return self.count == other.count
        mine = chain_items(self.first_cell)
        theirs = chain_items(other.first_cell)
        return set(mine) == set(theirs)


def _no_duplicates(o):
    items = chain_items(o.first_cell)
    return len(items) == len(set(items))


def _extended(ctx):
    s = ctx.old("sequence")
    v = V.item(ctx.arg(0))
    return s if V.seq_has(s, v) else V.seq_extended(s, v)


def _replaced_element(ctx):
    s = ctx.old("sequence")
    old_item = V.seq_item(s, ctx.old("index"))
    v = V.item(ctx.arg(0))
    expected = V.set_extended(V.set_removed(V.seq_to_set(s), old_item), v)
    return V.seq_to_set(ctx.now("sequence")) == expected


def _value_removed(ctx):
    s = ctx.old("sequence")
    v = V.item(ctx.arg(0))
    pos = V.seq_index_of(s, v)
    return V.seq_removed_at(s, pos) if pos else s


DECL = cursor_decl(
    CLASS_NAME,
    CursorSet,
    [
        "extend",
        "replace",
        RoutineDecl(CursorSet.remove, [item_param()]),
        "start",
        "forth",
        "wipe_out",
        "has",
        "item",
        "off",
        "is_equal",
    ],
    consistency_probe=_no_duplicates,
)

_HAS_NOW = pred("has_now", lambda ctx: ctx.obj.has(ctx.arg(0)))
_COUNT_NOT_INCREASED = pred(
    "count_not_increased", lambda ctx: ctx.now("count") <= ctx.old("count")
)


def build(level, bugs=frozenset()):
    motion = {r: MOTION[r] for r in ("start", "forth", "off")}
    if level == "strong":
        return DECL.spec(
            level,
            bugs,
            model=linked_model(level),
            invariants=[
                InvariantClause(
                    "unique_items",
                    lambda m, o: V.set_count(V.seq_to_set(m["sequence"]))
                    == V.seq_count(m["sequence"]),
                    kind="model",
                ),
                *linked_invariants(level),
            ],
            attr_derivations=SEQUENCE_COUNT,
            post={
                **motion,
                "extend": [defines("extended", "sequence", _extended)],
                "replace": [
                    pred("replaced_element", _replaced_element),
                    pred(
                        "cursor_on_new",
                        lambda ctx: V.seq_item(ctx.now("sequence"), ctx.now("index"))
                        == V.item(ctx.arg(0)),
                    ),
                ],
                "remove": [defines("value_removed", "sequence", _value_removed)],
                "wipe_out": [EMPTIED, MOTION_POST["cursor_reset"]],
                "has": [
                    pred(
                        "reports_membership",
                        lambda ctx: ctx.result
                        == V.set_has(
                            V.seq_to_set(ctx.now("sequence")), V.item(ctx.arg(0))
                        ),
                    )
                ],
                "item": [REPORTS_ITEM],
                "is_equal": [
                    pred(
                        "reports_set_equality",
                        lambda ctx: ctx.result
                        == (
                            V.seq_to_set(ctx.now("sequence"))
                            == V.seq_to_set(ctx.now("sequence", ARG0))
                        ),
                    )
                ],
            },
            modify={
                "extend": ("sequence",),
                "replace": ("sequence", "index"),
                "remove": ("sequence", "index"),
                "start": ("index",),
                "forth": ("index",),
                "wipe_out": ("sequence", "index"),
            },
        )
    return DECL.spec(
        level,
        bugs,
        model=linked_model(level),
        invariants=linked_invariants(level),
        post={
            **motion,
            "extend": [
                _HAS_NOW,
                pred(
                    "count_not_decreased",
                    lambda ctx: ctx.now("count") >= ctx.old("count"),
                ),
            ],
            "replace": [_HAS_NOW, _COUNT_NOT_INCREASED],
            "remove": [
                pred("not_has", lambda ctx: not ctx.obj.has(ctx.arg(0))),
                _COUNT_NOT_INCREASED,
            ],
            "wipe_out": [COUNT_ZERO, MOTION_POST["cursor_reset"]],
            "has": [FOUND_IMPLIES_NONEMPTY],
            "is_equal": [EQUAL_IMPLIES_SAME_COUNT],
        },
    )
