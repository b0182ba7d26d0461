"""FIFO queue over a circular buffer that grows when full.

The logical content starts at ``head`` and wraps modulo the capacity; growth
linearizes it to the front of a longer buffer.
"""

from __future__ import annotations

import mbcheck.values as V
from mbcheck.containers._shared import item_value
from mbcheck.engine import (
    ClassSpec,
    InvariantClause,
    ModelQuery,
    RoutineSpec,
    item_param,
    pred,
)

CLASS_NAME = "ring_queue"

_NOT_EMPTY = pred("not_empty", lambda ctx: ctx.old_int("count") > 0)


class RingQueue:

    def __init__(self, bugs=frozenset()):
        self._bugs = bugs
        self.storage = [0, 0, 0, 0]
        self.head = 0
        self.count = 0

    def _logical(self):
        cap = len(self.storage)
        return [self.storage[(self.head + j) % cap] for j in range(self.count)]

    def put(self, v):
        cap = len(self.storage)
        if self.count == cap:
            grown = cap + 4 if "QU-2" in self._bugs else cap * 2
            flat = self._logical()
            self.storage = flat + [0] * (grown - len(flat))
            self.head = 0
            cap = grown
        self.storage[(self.head + self.count) % cap] = v
        self.count += 1

    def remove(self):
        self.head = (self.head + 1) % len(self.storage)
        if "QU-1" not in self._bugs:
            self.count -= 1

    def wipe_out(self):
        self.head = 0
        self.count = 0

    def item(self):
        return self.storage[self.head]

    def is_empty(self):
        return self.count == 0


def _strong_spec(bugs):
    model = [
        ModelQuery("sequence", lambda o: V.item_sequence(o._logical())),
    ]
    invariants = [
        InvariantClause(
            "count_within_capacity",
            lambda m, o: 0 <= o.count <= len(o.storage),
            kind="representation",
        ),
    ]
    routines = {
        "put": RoutineSpec(
            "put",
            [item_param()],
            RingQueue.put,
            post=[
                pred(
                    "appended",
                    lambda ctx: ctx.now("sequence")
                    == V.seq_extended(ctx.old("sequence"), item_value(ctx.arg(0))),
                )
            ],
            modify=("sequence",),
        ),
        "remove": RoutineSpec(
            "remove",
            [],
            RingQueue.remove,
            pre=[_NOT_EMPTY],
            post=[
                pred(
                    "dropped_front",
                    lambda ctx: ctx.now("sequence") == V.seq_tail(ctx.old("sequence"), 2),
                )
            ],
            modify=("sequence",),
        ),
        "wipe_out": RoutineSpec(
            "wipe_out",
            [],
            RingQueue.wipe_out,
            post=[pred("emptied", lambda ctx: V.seq_is_empty(ctx.now("sequence")))],
            modify=("sequence",),
        ),
        "item": RoutineSpec(
            "item",
            [],
            RingQueue.item,
            pre=[_NOT_EMPTY],
            post=[
                pred(
                    "reports_front",
                    lambda ctx: item_value(ctx.result)
                    == V.seq_item(ctx.now("sequence"), 1),
                )
            ],
            modify=(),
            returns_value=True,
        ),
        "is_empty": RoutineSpec(
            "is_empty",
            [],
            RingQueue.is_empty,
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
        invariants,
        routines,
        lambda: RingQueue(bugs),
        attr_derivations={
            "count": lambda m: V.integer(V.seq_count(m["sequence"])),
        },
        size_of=lambda o: o.count,
    )


def _weak_spec(bugs):
    model = [ModelQuery("count", lambda o: V.integer(o.count))]
    routines = {
        "put": RoutineSpec(
            "put",
            [item_param()],
            RingQueue.put,
            post=[
                pred(
                    "count_up",
                    lambda ctx: ctx.now_int("count") == ctx.old_int("count") + 1,
                )
            ],
            modify=None,
        ),
        "remove": RoutineSpec(
            "remove",
            [],
            RingQueue.remove,
            pre=[_NOT_EMPTY],
            post=[
                pred(
                    "count_down",
                    lambda ctx: ctx.now_int("count") == ctx.old_int("count") - 1,
                )
            ],
            modify=None,
        ),
        "wipe_out": RoutineSpec(
            "wipe_out",
            [],
            RingQueue.wipe_out,
            post=[pred("count_zero", lambda ctx: ctx.now_int("count") == 0)],
            modify=None,
        ),
        "item": RoutineSpec(
            "item", [], RingQueue.item, pre=[_NOT_EMPTY], modify=None, returns_value=True
        ),
        "is_empty": RoutineSpec(
            "is_empty",
            [],
            RingQueue.is_empty,
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
        lambda: RingQueue(bugs),
        size_of=lambda o: o.count,
    )


def build(level, bugs=frozenset()):
    if level == "strong":
        return _strong_spec(bugs)
    return _weak_spec(bugs)
