"""LIFO stack over a growable array; the top is the end of the storage."""

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
from mbcheck.engine import ModelQuery, defines, item_param, pred

CLASS_NAME = "array_stack"


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


DECL = ClassDecl(
    CLASS_NAME,
    ArrayStack,
    [
        RoutineDecl(ArrayStack.push, [item_param()]),
        RoutineDecl(ArrayStack.pop, pre=[NOT_EMPTY]),
        RoutineDecl(ArrayStack.wipe_out),
        RoutineDecl(ArrayStack.top, pre=[NOT_EMPTY], returns_value=True),
        RoutineDecl(ArrayStack.is_empty, returns_value=True),
    ],
    size_of=lambda o: len(o.storage),
)


def build(level, bugs=frozenset()):
    if level == "strong":
        return DECL.spec(
            level,
            bugs,
            model=[ModelQuery("sequence", lambda o: V.item_sequence(o.storage))],
            attr_derivations=SEQUENCE_COUNT,
            post={
                "push": [APPENDED],
                "pop": [
                    defines(
                        "shrunk",
                        "sequence",
                        lambda ctx: V.seq_front(
                            ctx.old("sequence"), V.seq_count(ctx.old("sequence")) - 1
                        ),
                    )
                ],
                "wipe_out": [EMPTIED],
                "top": [
                    pred(
                        "reports_top",
                        lambda ctx: V.item(ctx.result)
                        == V.seq_last(ctx.now("sequence")),
                    )
                ],
                "is_empty": [SEQUENCE_REPORTS_EMPTINESS],
            },
            modify={
                "push": ("sequence",),
                "pop": ("sequence",),
                "wipe_out": ("sequence",),
            },
        )
    return DECL.spec(
        level,
        bugs,
        model=[ModelQuery("count", lambda o: len(o.storage))],
        post={
            "push": [COUNT_UP],
            "pop": [COUNT_DOWN],
            "wipe_out": [COUNT_ZERO],
            "is_empty": [COUNT_REPORTS_EMPTINESS],
        },
    )
