"""Doubly linked list with an integer cursor.

Reads and cursor movement only ever walk forward, so the backward links are
pure redundancy; the representation invariant cross-checks them cell by cell
against the forward chain. ``put_front`` is the extra command this chaining
buys.
"""

from __future__ import annotations

import mbcheck.values as V
from mbcheck.engine import InvariantClause, defines, index_param, item_param, pred

from mbcheck.containers._shared import (
    APPENDED,
    COUNT_DOWN,
    COUNT_UNCHANGED,
    COUNT_UP,
    COUNT_ZERO,
    EMPTIED,
    SEQUENCE_COUNT,
    ClassDecl,
    DCell,
    RoutineDecl,
    cell_at,
    item_value,
    walk,
)
from mbcheck.containers._cursor_specs import (
    linked_invariants,
    linked_model,
    FOUND_IMPLIES_NONEMPTY,
    MOTION,
    MOTION_POST,
    PRE,
    REMOVED,
    REPLACED,
    REPORTS_ITEM,
    REPORTS_MEMBERSHIP,
)

CLASS_NAME = "two_way_list"


class TwoWayList:

    def __init__(self, bugs=frozenset()):
        self._bugs = bugs
        self.first_cell = None
        self.last_cell = None
        self.count = 0
        self.index = 0

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

    def replace(self, v):
        cell_at(self.first_cell, self.index).item = v

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

    def start(self):
        self.index = 1

    def finish(self):
        self.index = self.count

    def forth(self):
        self.index += 1

    def back(self):
        if "TW-2" in self._bugs:
            if self.index > 1:
                self.index -= 1
        else:
            self.index -= 1

    def go_i_th(self, i):
        self.index = i

    def wipe_out(self):
        self.first_cell = None
        self.last_cell = None
        self.count = 0
        self.index = 0

    # queries

    def has(self, v):
        return v in walk(self.first_cell)

    def item(self):
        return cell_at(self.first_cell, self.index).item

    def off(self):
        return self.index < 1 or self.index > self.count


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


DECL = ClassDecl(
    CLASS_NAME,
    TwoWayList,
    [
        RoutineDecl(TwoWayList.extend, [item_param()]),
        RoutineDecl(TwoWayList.put_front, [item_param()]),
        RoutineDecl(TwoWayList.replace, [item_param()], pre=[PRE["cursor_on_item"]]),
        RoutineDecl(TwoWayList.remove, pre=[PRE["cursor_on_item"]]),
        RoutineDecl(TwoWayList.start),
        RoutineDecl(TwoWayList.finish),
        RoutineDecl(TwoWayList.forth, pre=[PRE["not_after"]]),
        RoutineDecl(TwoWayList.back, pre=[PRE["not_before"]]),
        RoutineDecl(TwoWayList.go_i_th, [index_param()], pre=[PRE["position_in_range"]]),
        RoutineDecl(TwoWayList.wipe_out),
        RoutineDecl(TwoWayList.has, [item_param()], returns_value=True),
        RoutineDecl(TwoWayList.item, pre=[PRE["cursor_on_item"]], returns_value=True),
        RoutineDecl(TwoWayList.off, returns_value=True),
    ],
    size_of=lambda o: o.count,
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
                **MOTION,
                "extend": [APPENDED],
                "put_front": [
                    defines(
                        "prefixed",
                        "sequence",
                        lambda ctx: V.seq_concat(
                            V.sequence([item_value(ctx.arg(0))]), ctx.old("sequence")
                        ),
                    )
                ],
                "replace": [REPLACED],
                "remove": [REMOVED],
                "wipe_out": [EMPTIED, MOTION_POST["cursor_reset"]],
                "has": [REPORTS_MEMBERSHIP],
                "item": [REPORTS_ITEM],
            },
            modify={
                "extend": ("sequence",),
                "put_front": ("sequence",),
                "replace": ("sequence",),
                "remove": ("sequence",),
                "start": ("index",),
                "finish": ("index",),
                "forth": ("index",),
                "back": ("index",),
                "go_i_th": ("index",),
                "wipe_out": ("sequence", "index"),
                "has": (),
                "item": (),
                "off": (),
            },
        )
    return DECL.spec(
        level,
        bugs,
        model=linked_model(level),
        invariants=linked_invariants(level),
        post={
            **MOTION,
            "extend": [COUNT_UP],
            "put_front": [COUNT_UP],
            "replace": [COUNT_UNCHANGED],
            "remove": [COUNT_DOWN],
            "wipe_out": [COUNT_ZERO, MOTION_POST["cursor_reset"]],
            "has": [FOUND_IMPLIES_NONEMPTY],
        },
    )
