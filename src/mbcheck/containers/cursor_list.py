"""Singly linked list with an integer cursor.

The cursor is a plain position, 0 = before, count + 1 = after; cells are
located by walking from the head, so a stale tail cache never breaks reads.
``last_cell`` is a cached reference to the final cell: mutators refresh it,
only the representation invariant dereferences it.
"""

from __future__ import annotations

import mbcheck.values as V
from mbcheck.engine import (
    ARG0,
    ClassSpec,
    InvariantClause,
    ModelQuery,
    RoutineSpec,
    index_param,
    item_param,
    pred,
    ref_param,
)

from mbcheck.containers._shared import Cell, cell_at, item_value, walk
from mbcheck.containers._cursor_specs import (
    COUNT_DOWN,
    COUNT_UNCHANGED,
    COUNT_UP,
    COUNT_ZERO,
    INDEX_UNCHANGED,
    MOTION_POST,
    PRE,
)

CLASS_NAME = "cursor_list"


class CursorList:

    def __init__(self, bugs=frozenset()):
        self._bugs = bugs
        self.first_cell = None
        self.last_cell = None
        self.count = 0
        self.index = 0

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
        if follower is None and "LD-1" not in self._bugs:
            # removed the tail: the cache must follow
            self.last_cell = prev
        self.count -= 1

    def start(self):
        self.index = 1

    def finish(self):
        self.index = self.count

    def forth(self):
        self.index += 1

    def back(self):
        self.index -= 1

    def go_i_th(self, i):
        self.index = i

    def wipe_out(self):
        self.first_cell = None
        self.last_cell = None
        self.count = 0
        self.index = 0

    def merge_right(self, other):
        items = list(walk(other.first_cell))
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

    def has(self, v):
        return v in walk(self.first_cell)

    def item(self):
        return cell_at(self.first_cell, self.index).item

    def off(self):
        return self.index < 1 or self.index > self.count

    def is_equal(self, other):
        return list(walk(self.first_cell)) == list(walk(other.first_cell))


def _true_tail(o):
    cell = o.first_cell
    while cell is not None and cell.next is not None:
        cell = cell.next
    return cell


def _strong_spec(bugs, redundant_index_clause=False):
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
            "tail_cached",
            lambda m, o: o.last_cell is _true_tail(o),
            kind="representation",
        ),
    ]

    def spliced(ctx):
        s = ctx.old("sequence")
        i = ctx.old_int("index")
        expected = V.seq_concat(
            V.seq_concat(V.seq_front(s, i), ctx.old("sequence", ARG0)),
            V.seq_tail(s, i + 1),
        )
        return ctx.now("sequence") == expected

    merge_post = [pred("spliced", spliced)]
    if redundant_index_clause:
        merge_post.append(INDEX_UNCHANGED)

    routines = {
        "extend": RoutineSpec(
            "extend",
            [item_param()],
            CursorList.extend,
            post=[
                pred(
                    "appended",
                    lambda ctx: ctx.now("sequence")
                    == V.seq_extended(ctx.old("sequence"), item_value(ctx.arg(0))),
                )
            ],
            modify=("sequence",),
        ),
        "replace": RoutineSpec(
            "replace",
            [item_param()],
            CursorList.replace,
            pre=[PRE["cursor_on_item"]],
            post=[
                pred(
                    "replaced",
                    lambda ctx: ctx.now("sequence")
                    == V.seq_replaced_at(
                        ctx.old("sequence"), ctx.old_int("index"), item_value(ctx.arg(0))
                    ),
                )
            ],
            modify=("sequence",),
        ),
        "remove": RoutineSpec(
            "remove",
            [],
            CursorList.remove,
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
            "start", [], CursorList.start, post=[MOTION_POST["at_first"]], modify=("index",)
        ),
        "finish": RoutineSpec(
            "finish", [], CursorList.finish, post=[MOTION_POST["at_last"]], modify=("index",)
        ),
        "forth": RoutineSpec(
            "forth",
            [],
            CursorList.forth,
            pre=[PRE["not_after"]],
            post=[MOTION_POST["stepped"]],
            modify=("index",),
        ),
        "back": RoutineSpec(
            "back",
            [],
            CursorList.back,
            pre=[PRE["not_before"]],
            post=[MOTION_POST["stepped_back"]],
            modify=("index",),
        ),
        "go_i_th": RoutineSpec(
            "go_i_th",
            [index_param()],
            CursorList.go_i_th,
            pre=[
                pred(
                    "position_in_range",
                    lambda ctx: 0 <= ctx.arg(0) <= ctx.old_int("count") + 1,
                )
            ],
            post=[MOTION_POST["went"]],
            modify=("index",),
        ),
        "wipe_out": RoutineSpec(
            "wipe_out",
            [],
            CursorList.wipe_out,
            post=[
                pred("emptied", lambda ctx: V.seq_is_empty(ctx.now("sequence"))),
                MOTION_POST["cursor_reset"],
            ],
            modify=("sequence", "index"),
        ),
        "has": RoutineSpec(
            "has",
            [item_param()],
            CursorList.has,
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
            CursorList.item,
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
            CursorList.off,
            post=[MOTION_POST["reports_off"]],
            modify=(),
            returns_value=True,
        ),
        "is_equal": RoutineSpec(
            "is_equal",
            [ref_param(CLASS_NAME)],
            CursorList.is_equal,
            pre=[PRE["other_given"]],
            post=[
                pred(
                    "reports_equality",
                    lambda ctx: ctx.result
                    == (ctx.now("sequence") == ctx.now("sequence", ARG0)),
                )
            ],
            modify=(),
            returns_value=True,
        ),
        "merge_right": RoutineSpec(
            "merge_right",
            [ref_param(CLASS_NAME)],
            CursorList.merge_right,
            pre=[
                PRE["not_after"],
                PRE["other_given"],
                PRE["other_not_current"],
            ],
            post=merge_post,
            modify=(("target", "sequence"),),
        ),
    }
    return ClassSpec(
        CLASS_NAME,
        "strong",
        model,
        invariants,
        routines,
        lambda: CursorList(bugs),
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
            "extend", [item_param()], CursorList.extend, post=[COUNT_UP], modify=None
        ),
        "replace": RoutineSpec(
            "replace",
            [item_param()],
            CursorList.replace,
            pre=[PRE["cursor_on_item"]],
            post=[COUNT_UNCHANGED],
            modify=None,
        ),
        "remove": RoutineSpec(
            "remove",
            [],
            CursorList.remove,
            pre=[PRE["cursor_on_item"]],
            post=[COUNT_DOWN],
            modify=None,
        ),
        "start": RoutineSpec(
            "start", [], CursorList.start, post=[MOTION_POST["at_first"]], modify=None
        ),
        "finish": RoutineSpec(
            "finish", [], CursorList.finish, post=[MOTION_POST["at_last"]], modify=None
        ),
        "forth": RoutineSpec(
            "forth",
            [],
            CursorList.forth,
            pre=[PRE["not_after"]],
            post=[MOTION_POST["stepped"]],
            modify=None,
        ),
        "back": RoutineSpec(
            "back",
            [],
            CursorList.back,
            pre=[PRE["not_before"]],
            post=[MOTION_POST["stepped_back"]],
            modify=None,
        ),
        "go_i_th": RoutineSpec(
            "go_i_th",
            [index_param()],
            CursorList.go_i_th,
            pre=[
                pred(
                    "position_in_range",
                    lambda ctx: 0 <= ctx.arg(0) <= ctx.old_int("count") + 1,
                )
            ],
            post=[MOTION_POST["went"]],
            modify=None,
        ),
        "wipe_out": RoutineSpec(
            "wipe_out",
            [],
            CursorList.wipe_out,
            post=[COUNT_ZERO, MOTION_POST["cursor_reset"]],
            modify=None,
        ),
        "has": RoutineSpec(
            "has",
            [item_param()],
            CursorList.has,
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
            CursorList.item,
            pre=[PRE["cursor_on_item"]],
            modify=None,
            returns_value=True,
        ),
        "off": RoutineSpec(
            "off",
            [],
            CursorList.off,
            post=[MOTION_POST["reports_off"]],
            modify=None,
            returns_value=True,
        ),
        "is_equal": RoutineSpec(
            "is_equal",
            [ref_param(CLASS_NAME)],
            CursorList.is_equal,
            pre=[PRE["other_given"]],
            post=[
                pred(
                    "equal_implies_same_count",
                    lambda ctx: (not ctx.result)
                    or ctx.old_int("count") == ctx.old_int("count", ARG0),
                )
            ],
            modify=None,
            returns_value=True,
        ),
        "merge_right": RoutineSpec(
            "merge_right",
            [ref_param(CLASS_NAME)],
            CursorList.merge_right,
            pre=[
                PRE["not_after"],
                PRE["other_given"],
                PRE["other_not_current"],
            ],
            post=[
                pred(
                    "count_sum",
                    lambda ctx: ctx.now_int("count")
                    == ctx.old_int("count") + ctx.old_int("count", ARG0),
                ),
                INDEX_UNCHANGED,
            ],
            modify=None,
        ),
    }
    return ClassSpec(
        CLASS_NAME,
        "weak",
        model,
        invariants,
        routines,
        lambda: CursorList(bugs),
        size_of=lambda o: o.count,
    )


def build(level, bugs=frozenset(), redundant_index_clause=False):
    if level == "strong":
        return _strong_spec(bugs, redundant_index_clause)
    return _weak_spec(bugs)
