"""Set of integers stored as a duplicate-free linked list with a cursor.

Commands keep the no-duplicates property by construction: ``extend`` refuses
values already present, ``replace`` first unlinks any other cell holding the
new value. Value-based ``remove`` adjusts the cursor so it keeps pointing at
the same element (or its successor).
"""

from __future__ import annotations

import mbcheck.values as V
from mbcheck.engine import (
    ARG0,
    ClassSpec,
    InvariantClause,
    ModelQuery,
    RoutineSpec,
    item_param,
    pred,
    ref_param,
)

from mbcheck.containers._shared import Cell, cell_at, item_value, walk
from mbcheck.containers._cursor_specs import MOTION_POST, PRE

CLASS_NAME = "cursor_set"


class CursorSet:

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

    def start(self):
        self.index = 1

    def forth(self):
        self.index += 1

    def wipe_out(self):
        self.first_cell = None
        self.count = 0
        self.index = 0

    # queries

    def has(self, v):
        return v in walk(self.first_cell)

    def item(self):
        return cell_at(self.first_cell, self.index).item

    def off(self):
        return self.index < 1 or self.index > self.count

    def is_equal(self, other):
        if "EQ-1" in self._bugs:
            return self.count == other.count
        mine = list(walk(self.first_cell))
        theirs = list(walk(other.first_cell))
        return set(mine) == set(theirs)


def _first_position(s, v):
    for pos, it in enumerate(V.seq_items(s), 1):
        if it == v:
            return pos
    return 0


def _strong_spec(bugs):
    model = [
        ModelQuery("sequence", lambda o: V.item_sequence(walk(o.first_cell))),
        ModelQuery("index", lambda o: V.integer(o.index)),
    ]
    invariants = [
        InvariantClause(
            "unique_items",
            lambda m, o: V.set_count(V.seq_to_set(m["sequence"]))
            == V.seq_count(m["sequence"]),
            kind="model",
        ),
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
    ]

    def extended(ctx):
        s = ctx.old("sequence")
        v = item_value(ctx.arg(0))
        expected = s if V.seq_has(s, v) else V.seq_extended(s, v)
        return ctx.now("sequence") == expected

    def replaced_element(ctx):
        s = ctx.old("sequence")
        old_item = V.seq_item(s, ctx.old_int("index"))
        v = item_value(ctx.arg(0))
        expected = V.set_extended(V.set_removed(V.seq_to_set(s), old_item), v)
        return V.seq_to_set(ctx.now("sequence")) == expected

    def value_removed(ctx):
        s = ctx.old("sequence")
        v = item_value(ctx.arg(0))
        pos = _first_position(s, v)
        expected = V.seq_removed_at(s, pos) if pos else s
        return ctx.now("sequence") == expected

    routines = {
        "extend": RoutineSpec(
            "extend",
            [item_param()],
            CursorSet.extend,
            post=[pred("extended", extended)],
            modify=("sequence",),
        ),
        "replace": RoutineSpec(
            "replace",
            [item_param()],
            CursorSet.replace,
            pre=[PRE["cursor_on_item"]],
            post=[
                pred("replaced_element", replaced_element),
                pred(
                    "cursor_on_new",
                    lambda ctx: V.seq_item(ctx.now("sequence"), ctx.now_int("index"))
                    == item_value(ctx.arg(0)),
                ),
            ],
            modify=("sequence", "index"),
        ),
        "remove": RoutineSpec(
            "remove",
            [item_param()],
            CursorSet.remove,
            post=[pred("value_removed", value_removed)],
            modify=("sequence", "index"),
        ),
        "start": RoutineSpec(
            "start", [], CursorSet.start, post=[MOTION_POST["at_first"]], modify=("index",)
        ),
        "forth": RoutineSpec(
            "forth",
            [],
            CursorSet.forth,
            pre=[PRE["not_after"]],
            post=[MOTION_POST["stepped"]],
            modify=("index",),
        ),
        "wipe_out": RoutineSpec(
            "wipe_out",
            [],
            CursorSet.wipe_out,
            post=[
                pred("emptied", lambda ctx: V.seq_is_empty(ctx.now("sequence"))),
                MOTION_POST["cursor_reset"],
            ],
            modify=("sequence", "index"),
        ),
        "has": RoutineSpec(
            "has",
            [item_param()],
            CursorSet.has,
            post=[
                pred(
                    "reports_membership",
                    lambda ctx: ctx.result
                    == V.set_has(V.seq_to_set(ctx.now("sequence")), item_value(ctx.arg(0))),
                )
            ],
            modify=(),
            returns_value=True,
        ),
        "item": RoutineSpec(
            "item",
            [],
            CursorSet.item,
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
            CursorSet.off,
            post=[MOTION_POST["reports_off"]],
            modify=(),
            returns_value=True,
        ),
        "is_equal": RoutineSpec(
            "is_equal",
            [ref_param(CLASS_NAME)],
            CursorSet.is_equal,
            pre=[PRE["other_given"]],
            post=[
                pred(
                    "reports_set_equality",
                    lambda ctx: ctx.result
                    == (
                        V.seq_to_set(ctx.now("sequence"))
                        == V.seq_to_set(ctx.now("sequence", ARG0))
                    ),
                )
            ],
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
        lambda: CursorSet(bugs),
        attr_derivations={
            "count": lambda m: V.integer(V.seq_count(m["sequence"])),
        },
        consistency_probe=_no_duplicates,
        size_of=lambda o: o.count,
    )


def _no_duplicates(o):
    items = list(walk(o.first_cell))
    return len(items) == len(set(items))


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
            "extend",
            [item_param()],
            CursorSet.extend,
            post=[
                pred("has_now", lambda ctx: ctx.obj.has(ctx.arg(0))),
                pred(
                    "count_not_decreased",
                    lambda ctx: ctx.now_int("count") >= ctx.old_int("count"),
                ),
            ],
            modify=None,
        ),
        "replace": RoutineSpec(
            "replace",
            [item_param()],
            CursorSet.replace,
            pre=[PRE["cursor_on_item"]],
            post=[
                pred("has_now", lambda ctx: ctx.obj.has(ctx.arg(0))),
                pred(
                    "count_not_increased",
                    lambda ctx: ctx.now_int("count") <= ctx.old_int("count"),
                ),
            ],
            modify=None,
        ),
        "remove": RoutineSpec(
            "remove",
            [item_param()],
            CursorSet.remove,
            post=[
                pred("not_has", lambda ctx: not ctx.obj.has(ctx.arg(0))),
                pred(
                    "count_not_increased",
                    lambda ctx: ctx.now_int("count") <= ctx.old_int("count"),
                ),
            ],
            modify=None,
        ),
        "start": RoutineSpec(
            "start", [], CursorSet.start, post=[MOTION_POST["at_first"]], modify=None
        ),
        "forth": RoutineSpec(
            "forth",
            [],
            CursorSet.forth,
            pre=[PRE["not_after"]],
            post=[MOTION_POST["stepped"]],
            modify=None,
        ),
        "wipe_out": RoutineSpec(
            "wipe_out",
            [],
            CursorSet.wipe_out,
            post=[
                pred("count_zero", lambda ctx: ctx.now_int("count") == 0),
                MOTION_POST["cursor_reset"],
            ],
            modify=None,
        ),
        "has": RoutineSpec(
            "has",
            [item_param()],
            CursorSet.has,
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
            CursorSet.item,
            pre=[PRE["cursor_on_item"]],
            modify=None,
            returns_value=True,
        ),
        "off": RoutineSpec(
            "off",
            [],
            CursorSet.off,
            post=[MOTION_POST["reports_off"]],
            modify=None,
            returns_value=True,
        ),
        "is_equal": RoutineSpec(
            "is_equal",
            [ref_param(CLASS_NAME)],
            CursorSet.is_equal,
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
    }
    return ClassSpec(
        CLASS_NAME,
        "weak",
        model,
        invariants,
        routines,
        lambda: CursorSet(bugs),
        consistency_probe=_no_duplicates,
        size_of=lambda o: o.count,
    )


def build(level, bugs=frozenset()):
    if level == "strong":
        return _strong_spec(bugs)
    return _weak_spec(bugs)
