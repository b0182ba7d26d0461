"""Doubly linked list with an integer cursor.

Reads and cursor movement only ever walk forward, so the backward links are
pure redundancy; the representation invariant cross-checks them cell by cell
against the forward chain. ``put_front`` is the extra command this chaining
buys.
"""

from __future__ import annotations

import mbcheck.values as V
from mbcheck.engine import InvariantClause, defines, item_param

from mbcheck.containers._shared import (
    COUNT_UP,
    SEQUENCE_COUNT,
    DCell,
    RoutineDecl,
    cell_at,
)
from mbcheck.containers._cursor_specs import (
    LIST_MODIFY,
    LIST_POST,
    LIST_ROUTINES,
    CursorChain,
    cursor_decl,
    linked_invariants,
    linked_model,
)

CLASS_NAME = "two_way_list"


class TwoWayList(CursorChain):

    # commands

    def extend(self, v):
        cell = DCell(v)
        if self.first_cell is None:
            self.first_cell = cell
        else:
            tail = self.first_cell
            while tail.next is not None:
                tail = tail.next
            tail.next = cell
            cell.prev = tail
        self.last_cell = cell
        self.count += 1

    def put_front(self, v):
        cell = DCell(v, nxt=self.first_cell)
        if self.first_cell is not None and "TW-1" not in self._bugs:
            self.first_cell.prev = cell
        self.first_cell = cell
        if self.last_cell is None:
            self.last_cell = cell
        self.count += 1

    def remove(self):
        prev = cell_at(self.first_cell, self.index - 1) if self.index > 1 else None
        cur = prev.next if prev is not None else self.first_cell
        follower = cur.next
        if prev is None:
            self.first_cell = follower
        else:
            prev.next = follower
        if follower is not None:
            follower.prev = prev
        else:
            self.last_cell = prev
        self.count -= 1

    def back(self):
        if "TW-2" in self._bugs:
            if self.index > 1:
                self.index -= 1
        else:
            self.index -= 1


def _back_links_sound(o):
    """Walking ``prev`` from ``last_cell`` retraces the forward chain: one
    forward walk checks that each cell's ``prev`` is the cell before it and
    that ``last_cell`` is the final cell."""
    before = None
    cell = o.first_cell
    while cell is not None:
        if cell.prev is not before:
            return False
        before = cell
        cell = cell.next
    return o.last_cell is before


DECL = cursor_decl(
    CLASS_NAME,
    TwoWayList,
    # put_front follows extend
    [LIST_ROUTINES[0], RoutineDecl(TwoWayList.put_front, [item_param()]), *LIST_ROUTINES[1:]],
)


def build(level, bugs=frozenset()):
    if level == "strong":
        return DECL.spec(
            level,
            bugs,
            model=linked_model(level),
            invariants=[
                *linked_invariants(level),
                InvariantClause(
                    "back_links", lambda m, o: _back_links_sound(o), kind="representation"
                ),
            ],
            attr_derivations=SEQUENCE_COUNT,
            post={
                **LIST_POST[level],
                "put_front": [
                    defines(
                        "prefixed",
                        "sequence",
                        lambda ctx: V.seq_concat(
                            V.sequence([V.item(ctx.arg(0))]), ctx.old("sequence")
                        ),
                    )
                ],
            },
            modify={**LIST_MODIFY, "put_front": ("sequence",)},
        )
    return DECL.spec(
        level,
        bugs,
        model=linked_model(level),
        invariants=linked_invariants(level),
        post={**LIST_POST[level], "put_front": [COUNT_UP]},
    )
