"""Array with adjustable bounds, indexed from ``lower``.

``put``/``item`` work inside the current bounds; ``force`` is total and grows
the array in either direction, filling newly created positions with the
default value 0.
"""

from __future__ import annotations

import mbcheck.values as V
from mbcheck.containers._shared import (
    COUNT_UNCHANGED,
    COUNT_ZERO,
    EMPTIED,
    SEQUENCE_COUNT,
    ClassDecl,
    RoutineDecl,
)
from mbcheck.engine import ModelQuery, defines, index_param, item_param, pred

CLASS_NAME = "resizable_array"

_DEFAULT = 0


def _in_bounds(k):
    """Argument ``k`` lies within the current bounds."""
    return pred(
        "index_in_bounds",
        lambda ctx: ctx.old("lower") <= ctx.arg(k) <= ctx.old("lower") + ctx.old("count") - 1,
    )


class ResizableArray:

    def __init__(self, bugs=frozenset()):
        self._bugs = bugs
        self.lower = 1
        self.storage = []

    @property
    def upper(self):
        return self.lower + len(self.storage) - 1

    def put(self, v, i):
        self.storage[i - self.lower] = v

    def force(self, v, i):
        if not self.storage:
            self.storage = [v]
            self.lower = i
        elif i < self.lower:
            self.storage[:0] = [v] + [_DEFAULT] * (self.lower - i - 1)
            self.lower = i
        elif i > self.upper:
            gap = i - self.upper - 1
            fill = [_DEFAULT] * gap
            if "AF-1" in self._bugs and gap >= 1:
                fill[0] = 99
            self.storage.extend(fill)
            self.storage.append(v)
        else:
            self.storage[i - self.lower] = v

    def wipe_out(self):
        self.lower = 1
        self.storage = []

    def item(self, i):
        return self.storage[i - self.lower]

    def item_count(self):
        return len(self.storage)


def _forced(ctx):
    s = ctx.old("sequence")
    n = V.seq_count(s)
    low = ctx.old("lower")
    v = V.item(ctx.arg(0))
    i = ctx.arg(1)
    if n == 0:
        expected = V.sequence([v])
        expected_lower = i
    elif i < low:
        pad = V.sequence([_DEFAULT] * (low - i - 1))
        expected = V.seq_concat(V.seq_concat(V.sequence([v]), pad), s)
        expected_lower = i
    elif i > low + n - 1:
        pad = V.sequence([_DEFAULT] * (i - (low + n - 1) - 1))
        expected = V.seq_extended(V.seq_concat(s, pad), v)
        expected_lower = low
    else:
        expected = V.seq_replaced_at(s, i - low + 1, v)
        expected_lower = low
    return ctx.now("sequence") == expected and ctx.now("lower") == expected_lower


DECL = ClassDecl(
    CLASS_NAME,
    ResizableArray,
    [
        RoutineDecl(
            ResizableArray.put, [item_param(), index_param()], pre=[_in_bounds(1)]
        ),
        RoutineDecl(ResizableArray.force, [item_param(), index_param()]),
        RoutineDecl(ResizableArray.wipe_out),
        RoutineDecl(
            ResizableArray.item, [index_param()], pre=[_in_bounds(0)], returns_value=True
        ),
        RoutineDecl(ResizableArray.item_count, returns_value=True),
    ],
    size_of=lambda o: len(o.storage),
)

_LOWER_RESET = pred("lower_reset", lambda ctx: ctx.now("lower") == 1)
_HOLDS_VALUE = pred("holds_value", lambda ctx: ctx.obj.item(ctx.arg(1)) == ctx.arg(0))


def build(level, bugs=frozenset()):
    if level == "strong":
        return DECL.spec(
            level,
            bugs,
            model=[
                ModelQuery("sequence", lambda o: V.item_sequence(o.storage)),
                ModelQuery("lower", lambda o: o.lower),
            ],
            attr_derivations=SEQUENCE_COUNT,
            post={
                "put": [
                    defines(
                        "stored",
                        "sequence",
                        lambda ctx: V.seq_replaced_at(
                            ctx.old("sequence"),
                            ctx.arg(1) - ctx.old("lower") + 1,
                            V.item(ctx.arg(0)),
                        ),
                    )
                ],
                "force": [pred("force_extends", _forced)],
                "wipe_out": [EMPTIED, _LOWER_RESET],
                "item": [
                    pred(
                        "reports_item",
                        lambda ctx: V.item(ctx.result)
                        == V.seq_item(
                            ctx.now("sequence"), ctx.arg(0) - ctx.old("lower") + 1
                        ),
                    )
                ],
                "item_count": [
                    pred(
                        "reports_count",
                        lambda ctx: ctx.result == V.seq_count(ctx.now("sequence")),
                    )
                ],
            },
            modify={
                "put": ("sequence",),
                "force": ("sequence", "lower"),
                "wipe_out": ("sequence", "lower"),
            },
        )
    return DECL.spec(
        level,
        bugs,
        model=[
            ModelQuery("count", lambda o: len(o.storage)),
            ModelQuery("lower", lambda o: o.lower),
        ],
        post={
            "put": [_HOLDS_VALUE, COUNT_UNCHANGED],
            "force": [
                _HOLDS_VALUE,
                pred(
                    "bounds_cover_index",
                    lambda ctx: ctx.now("lower")
                    <= ctx.arg(1)
                    <= ctx.now("lower") + ctx.now("count") - 1,
                ),
            ],
            "wipe_out": [COUNT_ZERO, _LOWER_RESET],
            "item_count": [
                pred("reports_count", lambda ctx: ctx.result == ctx.old("count"))
            ],
        },
    )
