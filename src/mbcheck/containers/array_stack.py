"""LIFO stack over a growable array; the top is the end of the storage."""

from __future__ import annotations

import mbcheck.values as V
from mbcheck.containers._shared import item_value
from mbcheck.engine import ClassSpec, ModelQuery, RoutineSpec, item_param, pred

CLASS_NAME = "array_stack"

_NOT_EMPTY = pred("not_empty", lambda ctx: ctx.old_int("count") > 0)

_COUNT_UP = pred(
    "count_up", lambda ctx: ctx.now_int("count") == ctx.old_int("count") + 1
)
_COUNT_DOWN = pred(
    "count_down", lambda ctx: ctx.now_int("count") == ctx.old_int("count") - 1
)


class ArrayStack:

    def __init__(self, bugs=frozenset()):
        self._bugs = bugs
        self.storage = []

    def push(self, v):
        self.storage.append(v)

    def pop(self):
        if "ST-1" in self._bugs and len(self.storage) > 1:
            self.storage[0], self.storage[-1] = self.storage[-1], self.storage[0]
        self.storage.pop()

    def wipe_out(self):
        self.storage = []

    def top(self):
        return self.storage[-1]

    def is_empty(self):
        return not self.storage


def _strong_spec(bugs):
    model = [
        ModelQuery("sequence", lambda o: V.item_sequence(o.storage)),
    ]
    routines = {
        "push": RoutineSpec(
            "push",
            [item_param()],
            ArrayStack.push,
            post=[
                pred(
                    "appended",
                    lambda ctx: ctx.now("sequence")
                    == V.seq_extended(ctx.old("sequence"), item_value(ctx.arg(0))),
                )
            ],
            modify=("sequence",),
        ),
        "pop": RoutineSpec(
            "pop",
            [],
            ArrayStack.pop,
            pre=[_NOT_EMPTY],
            post=[
                pred(
                    "shrunk",
                    lambda ctx: ctx.now("sequence")
                    == V.seq_front(
                        ctx.old("sequence"), V.seq_count(ctx.old("sequence")) - 1
                    ),
                )
            ],
            modify=("sequence",),
        ),
        "wipe_out": RoutineSpec(
            "wipe_out",
            [],
            ArrayStack.wipe_out,
            post=[pred("emptied", lambda ctx: V.seq_is_empty(ctx.now("sequence")))],
            modify=("sequence",),
        ),
        "top": RoutineSpec(
            "top",
            [],
            ArrayStack.top,
            pre=[_NOT_EMPTY],
            post=[
                pred(
                    "reports_top",
                    lambda ctx: item_value(ctx.result) == V.seq_last(ctx.now("sequence")),
                )
            ],
            modify=(),
            returns_value=True,
        ),
        "is_empty": RoutineSpec(
            "is_empty",
            [],
            ArrayStack.is_empty,
            post=[
                pred(
                    "reports_emptiness",
                    lambda ctx: ctx.result == V.seq_is_empty(ctx.now("sequence")),
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
        [],
        routines,
        lambda: ArrayStack(bugs),
        attr_derivations={
            "count": lambda m: V.integer(V.seq_count(m["sequence"])),
        },
        size_of=lambda o: len(o.storage),
    )


def _weak_spec(bugs):
    model = [ModelQuery("count", lambda o: V.integer(len(o.storage)))]
    routines = {
        "push": RoutineSpec(
            "push", [item_param()], ArrayStack.push, post=[_COUNT_UP], modify=None
        ),
        "pop": RoutineSpec(
            "pop",
            [],
            ArrayStack.pop,
            pre=[_NOT_EMPTY],
            post=[_COUNT_DOWN],
            modify=None,
        ),
        "wipe_out": RoutineSpec(
            "wipe_out",
            [],
            ArrayStack.wipe_out,
            post=[pred("count_zero", lambda ctx: ctx.now_int("count") == 0)],
            modify=None,
        ),
        "top": RoutineSpec(
            "top", [], ArrayStack.top, pre=[_NOT_EMPTY], modify=None, returns_value=True
        ),
        "is_empty": RoutineSpec(
            "is_empty",
            [],
            ArrayStack.is_empty,
            post=[
                pred(
                    "reports_emptiness",
                    lambda ctx: ctx.result == (ctx.old_int("count") == 0),
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
        [],
        routines,
        lambda: ArrayStack(bugs),
        size_of=lambda o: len(o.storage),
    )


def build(level, bugs=frozenset()):
    if level == "strong":
        return _strong_spec(bugs)
    return _weak_spec(bugs)
