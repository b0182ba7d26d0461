"""Doubly linked list with an integer cursor.

Reads and cursor movement only ever walk forward, so the backward links are
pure redundancy; the representation invariant cross-checks them cell by cell
against the forward chain. ``put_front`` is the extra command this chaining
buys.
"""

from __future__ import annotations

import mbcheck.values as V
from mbcheck.engine import (
    ClassSpec,
    InvariantClause,
    ModelQuery,
    RoutineSpec,
    index_param,
    item_param,
    pred,
)

from mbcheck.containers._shared import DCell, cell_at, item_value, walk
from mbcheck.containers._cursor_specs import (
    COUNT_DOWN,
    COUNT_UNCHANGED,
    COUNT_UP,
    COUNT_ZERO,
    MOTION_POST,
    PRE,
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
    if len(forward) != len(backward):
        return False
    return all(f is b for f, b in zip(forward, backward))


def _strong_spec(bugs):
    model = [
        ModelQuery("sequence", lambda o: V.item_sequence(walk(o.first_cell))),
        ModelQuery("index", lambda o: V.integer(o.index)),
    ]
    invariants = [
        InvariantClause(
            "index_in_range",
            lambda m, o: 0 <= V.as_int(m["index"]) <= V.seq_count(m["sequence"]) + 1,
            kind="model",
        ),
        InvariantClause(
            "count_matches",
            lambda m, o: o.count == V.seq_count(m["sequence"]),
            kind="representation",
        ),
        InvariantClause(
            "back_links", lambda m, o: _back_links_sound(o), kind="representation"
        ),
    ]
    routines = {
        "extend": RoutineSpec(
            "extend",
            [item_param()],
            TwoWayList.extend,
            post=[
                pred(
                    "appended",
                    lambda ctx: ctx.now("sequence")
                    == V.seq_extended(ctx.old("sequence"), item_value(ctx.arg(0))),
                )
            ],
            modify=("sequence",),
        ),
        "put_front": RoutineSpec(
            "put_front",
            [item_param()],
            TwoWayList.put_front,
            post=[
                pred(
                    "prefixed",
                    lambda ctx: ctx.now("sequence")
                    == V.seq_concat(
                        V.sequence([item_value(ctx.arg(0))]), ctx.old("sequence")
                    ),
                )
            ],
            modify=("sequence",),
        ),
        "replace": RoutineSpec(
            "replace",
            [item_param()],
            TwoWayList.replace,
            pre=[PRE["cursor_on_item"]],
            post=[
                pred(
                    "replaced",
                    lambda ctx: ctx.now("sequence")
                    == V.seq_replaced_at(
                        ctx.old("sequence"), ctx.old_int("index"), V.integer(ctx.arg(0))
                    ),
                )
            ],
            modify=("sequence",),
        ),
        "remove": RoutineSpec(
            "remove",
            [],
            TwoWayList.remove,
            pre=[PRE["cursor_on_item"]],
            post=[
                pred(
                    "removed",
                    lambda ctx: ctx.now("sequence")
                    == V.seq_removed_at(ctx.old("sequence"), ctx.old_int("index")),
                )
            ],
            modify=("sequence",),
        ),
        "start": RoutineSpec(
            "start", [], TwoWayList.start, post=[MOTION_POST["at_first"]], modify=("index",)
        ),
        "finish": RoutineSpec(
            "finish", [], TwoWayList.finish, post=[MOTION_POST["at_last"]], modify=("index",)
        ),
        "forth": RoutineSpec(
            "forth",
            [],
            TwoWayList.forth,
            pre=[PRE["not_after"]],
            post=[MOTION_POST["stepped"]],
            modify=("index",),
        ),
        "back": RoutineSpec(
            "back",
            [],
            TwoWayList.back,
            pre=[PRE["not_before"]],
            post=[MOTION_POST["stepped_back"]],
            modify=("index",),
        ),
        "go_i_th": RoutineSpec(
            "go_i_th",
            [index_param()],
            TwoWayList.go_i_th,
            pre=[PRE["position_in_range"]],
            post=[MOTION_POST["went"]],
            modify=("index",),
        ),
        "wipe_out": RoutineSpec(
            "wipe_out",
            [],
            TwoWayList.wipe_out,
            post=[
                pred("emptied", lambda ctx: V.seq_is_empty(ctx.now("sequence"))),
                MOTION_POST["cursor_reset"],
            ],
            modify=("sequence", "index"),
        ),
        "has": RoutineSpec(
            "has",
            [item_param()],
            TwoWayList.has,
            post=[
                pred(
                    "reports_membership",
                    lambda ctx: ctx.result
                    == V.seq_has(ctx.now("sequence"), item_value(ctx.arg(0))),
                )
            ],
            modify=(),
            returns_value=True,
        ),
        "item": RoutineSpec(
            "item",
            [],
            TwoWayList.item,
            pre=[PRE["cursor_on_item"]],
            post=[
                pred(
                    "reports_item",
                    lambda ctx: ctx.result
                    == V.as_int(V.seq_item(ctx.now("sequence"), ctx.old_int("index"))),
                )
            ],
            modify=(),
            returns_value=True,
        ),
        "off": RoutineSpec(
            "off",
            [],
            TwoWayList.off,
            post=[MOTION_POST["reports_off"]],
            modify=(),
            returns_value=True,
        ),
    }
    return ClassSpec(
        CLASS_NAME,
        "strong",
        model,
        invariants,
        routines,
        lambda: TwoWayList(bugs),
        attr_derivations={
            "count": lambda m: V.integer(V.seq_count(m["sequence"])),
        },
        size_of=lambda o: o.count,
    )


def _weak_spec(bugs):
    model = [
        ModelQuery("count", lambda o: V.integer(o.count)),
        ModelQuery("index", lambda o: V.integer(o.index)),
    ]
    invariants = [
        InvariantClause(
            "index_in_range",
            lambda m, o: 0 <= V.as_int(m["index"]) <= V.as_int(m["count"]) + 1,
            kind="model",
        ),
    ]
    routines = {
        "extend": RoutineSpec(
            "extend", [item_param()], TwoWayList.extend, post=[COUNT_UP], modify=None
        ),
        "put_front": RoutineSpec(
            "put_front", [item_param()], TwoWayList.put_front, post=[COUNT_UP], modify=None
        ),
        "replace": RoutineSpec(
            "replace",
            [item_param()],
            TwoWayList.replace,
            pre=[PRE["cursor_on_item"]],
            post=[COUNT_UNCHANGED],
            modify=None,
        ),
        "remove": RoutineSpec(
            "remove",
            [],
            TwoWayList.remove,
            pre=[PRE["cursor_on_item"]],
            post=[COUNT_DOWN],
            modify=None,
        ),
        "start": RoutineSpec(
            "start", [], TwoWayList.start, post=[MOTION_POST["at_first"]], modify=None
        ),
        "finish": RoutineSpec(
            "finish", [], TwoWayList.finish, post=[MOTION_POST["at_last"]], modify=None
        ),
        "forth": RoutineSpec(
            "forth",
            [],
            TwoWayList.forth,
            pre=[PRE["not_after"]],
            post=[MOTION_POST["stepped"]],
            modify=None,
        ),
        "back": RoutineSpec(
            "back",
            [],
            TwoWayList.back,
            pre=[PRE["not_before"]],
            post=[MOTION_POST["stepped_back"]],
            modify=None,
        ),
        "go_i_th": RoutineSpec(
            "go_i_th",
            [index_param()],
            TwoWayList.go_i_th,
            pre=[PRE["position_in_range"]],
            post=[MOTION_POST["went"]],
            modify=None,
        ),
        "wipe_out": RoutineSpec(
            "wipe_out",
            [],
            TwoWayList.wipe_out,
            post=[COUNT_ZERO, MOTION_POST["cursor_reset"]],
            modify=None,
        ),
        "has": RoutineSpec(
            "has",
            [item_param()],
            TwoWayList.has,
            post=[
                pred(
                    "found_implies_nonempty",
                    lambda ctx: (not ctx.result) or ctx.old_int("count") > 0,
                )
            ],
            modify=None,
            returns_value=True,
        ),
        "item": RoutineSpec(
            "item",
            [],
            TwoWayList.item,
            pre=[PRE["cursor_on_item"]],
            modify=None,
            returns_value=True,
        ),
        "off": RoutineSpec(
            "off",
            [],
            TwoWayList.off,
            post=[MOTION_POST["reports_off"]],
            modify=None,
            returns_value=True,
        ),
    }
    return ClassSpec(
        CLASS_NAME,
        "weak",
        model,
        invariants,
        routines,
        lambda: TwoWayList(bugs),
        size_of=lambda o: o.count,
    )


def build(level, bugs=frozenset()):
    if level == "strong":
        return _strong_spec(bugs)
    return _weak_spec(bugs)
