"""Singly linked list with an integer cursor.

The cursor is a plain position, 0 = before, count + 1 = after; cells are
located by walking from the head, so a stale tail cache never breaks reads.
``last_cell`` is a cached reference to the final cell: mutators refresh it,
only the representation invariant dereferences it.
"""

from __future__ import annotations

import mbcheck.values as V
from mbcheck.engine import ARG0, InvariantClause, defines, pred, ref_param

from mbcheck.containers._shared import (
    SEQUENCE_COUNT,
    Cell,
    RoutineDecl,
    cell_at,
    chain_items,
)
from mbcheck.containers._cursor_specs import (
    EQUAL_IMPLIES_SAME_COUNT,
    INDEX_UNCHANGED,
    LIST_MODIFY,
    LIST_POST,
    LIST_ROUTINES,
    PRE,
    CursorChain,
    cursor_decl,
    linked_invariants,
    linked_model,
)

CLASS_NAME = "cursor_list"


class CursorList(CursorChain):

    # commands

    def extend(self, v):
        cell = Cell(v)
        if self.first_cell is None:
            self.first_cell = cell
        else:
            tail = self.first_cell
            while tail.next is not None:
                tail = tail.next
            tail.next = cell
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
        if follower is None and "LD-1" not in self._bugs:
            # removed the tail: the cache must follow
            self.last_cell = prev
        self.count -= 1

    def merge_right(self, other):
        items = chain_items(other.first_cell)
        if items:
            head = Cell(items[0])
            tail = head
            for it in items[1:]:
                tail.next = Cell(it)
                tail = tail.next
            if self.index == 0:
                if "MB-1" in self._bugs and self.first_cell is not None:
                    point = self.first_cell
                else:
                    point = None
            else:
                point = cell_at(self.first_cell, self.index)
            if point is None:
                tail.next = self.first_cell
                self.first_cell = head
            else:
                tail.next = point.next
                point.next = head
            if tail.next is None:
                self.last_cell = tail
            self.count += other.count
        if "MB-2" in self._bugs:
            self.index += 1

    # queries

    def is_equal(self, other):
        return chain_items(self.first_cell) == chain_items(other.first_cell)


def _true_tail(o):
    cell = o.first_cell
    while cell is not None and cell.next is not None:
        cell = cell.next
    return cell


DECL = cursor_decl(
    CLASS_NAME,
    CursorList,
    [
        *LIST_ROUTINES,
        "is_equal",
        RoutineDecl(
            CursorList.merge_right,
            [ref_param()],
            pre=[PRE["not_after"], PRE["other_given"], PRE["other_not_current"]],
        ),
    ],
)


def _spliced(ctx):
    s = ctx.old("sequence")
    i = ctx.old("index")
    return V.seq_concat(
        V.seq_concat(V.seq_front(s, i), ctx.old("sequence", ARG0)),
        V.seq_tail(s, i + 1),
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
                    "tail_cached",
                    lambda m, o: o.last_cell is _true_tail(o),
                    kind="representation",
                ),
            ],
            attr_derivations=SEQUENCE_COUNT,
            post={
                **LIST_POST[level],
                "is_equal": [
                    pred(
                        "reports_equality",
                        lambda ctx: ctx.result
                        == (ctx.now("sequence") == ctx.now("sequence", ARG0)),
                    )
                ],
                "merge_right": [defines("spliced", "sequence", _spliced)],
            },
            modify={**LIST_MODIFY, "merge_right": (("target", "sequence"),)},
        )
    return DECL.spec(
        level,
        bugs,
        model=linked_model(level),
        invariants=linked_invariants(level),
        post={
            **LIST_POST[level],
            "is_equal": [EQUAL_IMPLIES_SAME_COUNT],
            "merge_right": [
                pred(
                    "count_sum",
                    lambda ctx: ctx.now("count") == ctx.old("count") + ctx.old("count", ARG0),
                ),
                INDEX_UNCHANGED,
            ],
        },
    )
