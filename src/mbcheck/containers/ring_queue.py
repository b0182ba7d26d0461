"""FIFO queue over a circular buffer that grows when full.

The logical content starts at ``head`` and wraps modulo the capacity; growth
linearizes it to the front of a longer buffer.
"""

from __future__ import annotations

import mbcheck.values as V
from mbcheck.containers._shared import (
    APPENDED,
    COUNT_DOWN,
    COUNT_REPORTS_EMPTINESS,
    COUNT_UP,
    COUNT_ZERO,
    EMPTIED,
    NOT_EMPTY,
    SEQUENCE_COUNT,
    SEQUENCE_REPORTS_EMPTINESS,
    ClassDecl,
    RoutineDecl,
)
from mbcheck.engine import InvariantClause, ModelQuery, defines, item_param, pred

CLASS_NAME = "ring_queue"


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


def _ring_items(o):
    """The queue's content, oldest first: ``count`` slots of ``storage`` from
    ``head`` on, wrapping modulo the capacity. A head and count within the
    capacity take at most two slices; any other state spells the rule out, so
    it fails as the rule does (``ZeroDivisionError`` on empty storage)."""
    s, h, n = o.storage, o.head, o.count
    cap = len(s)
    if 0 <= h < cap and 0 <= n <= cap:
        end = h + n
        if end <= cap:
            return s[h:end]
        return s[h:] + s[: end - cap]
    return [s[(h + j) % cap] for j in range(n)]


DECL = ClassDecl(
    CLASS_NAME,
    RingQueue,
    [
        RoutineDecl(RingQueue.put, [item_param()]),
        RoutineDecl(RingQueue.remove, pre=[NOT_EMPTY]),
        RoutineDecl(RingQueue.wipe_out),
        RoutineDecl(RingQueue.item, pre=[NOT_EMPTY], returns_value=True),
        RoutineDecl(RingQueue.is_empty, returns_value=True),
    ],
    size_of=lambda o: o.count,
)


def build(level, bugs=frozenset()):
    if level == "strong":
        return DECL.spec(
            level,
            bugs,
            model=[ModelQuery("sequence", lambda o: V.item_sequence(_ring_items(o)))],
            invariants=[
                InvariantClause(
                    "count_within_capacity",
                    lambda m, o: 0 <= o.count <= len(o.storage),
                    kind="representation",
                ),
            ],
            attr_derivations=SEQUENCE_COUNT,
            post={
                "put": [APPENDED],
                "remove": [
                    defines(
                        "dropped_front",
                        "sequence",
                        lambda ctx: V.seq_tail(ctx.old("sequence"), 2),
                    )
                ],
                "wipe_out": [EMPTIED],
                "item": [
                    pred(
                        "reports_front",
                        lambda ctx: V.item(ctx.result)
                        == V.seq_item(ctx.now("sequence"), 1),
                    )
                ],
                "is_empty": [SEQUENCE_REPORTS_EMPTINESS],
            },
            modify={
                "put": ("sequence",),
                "remove": ("sequence",),
                "wipe_out": ("sequence",),
            },
        )
    return DECL.spec(
        level,
        bugs,
        model=[ModelQuery("count", lambda o: o.count)],
        post={
            "put": [COUNT_UP],
            "remove": [COUNT_DOWN],
            "wipe_out": [COUNT_ZERO],
            "is_empty": [COUNT_REPORTS_EMPTINESS],
        },
    )
