"""What the cursor containers share: bodies, declarations and clauses.

``CursorChain`` holds the bodies of the linked cursor classes, the way
EiffelBase's ``TWO_WAY_LIST`` inherits ``LINKED_LIST``'s: a class overrides
only the bodies it changes. ``cursor_decl`` declares a class's routines from
one table of parameters, preconditions and result flags, with each body
taken from the class itself.

Preconditions are written over derivable names (``old`` resolves either a
model query or a derived attribute), so one predicate object serves the weak
binding, the strong binding, and abstract probe states alike. The motion
postconditions are pure index arithmetic and equally strong at either level.
``LIST_ROUTINES``, ``LIST_POST`` and ``LIST_MODIFY`` name the routines both
linked lists declare and give their postconditions and their commands' strong
frames; a query that a strong binding leaves unframed modifies nothing. Model
queries and invariants are made anew for each build, so no two bindings share
one.
"""

from __future__ import annotations

import mbcheck.values as V
from mbcheck.containers._shared import (
    APPENDED,
    COUNT_DOWN,
    COUNT_UNCHANGED,
    COUNT_UP,
    COUNT_ZERO,
    EMPTIED,
    ClassDecl,
    RoutineDecl,
    cell_at,
    chain_items,
)
from mbcheck.engine import ARG0, InvariantClause, ModelQuery, Param, defines, pred


class CursorChain:
    """A chain of cells from ``first_cell`` with a cached ``last_cell``, its
    ``count`` and an integer cursor, 0 = before and count + 1 = after. Cells
    are located by walking from the head."""

    def __init__(self, bugs=frozenset()):
        self._bugs = bugs
        self.first_cell = None
        self.last_cell = None
        self.count = 0
        self.index = 0

    # commands

    def replace(self, v):
        cell_at(self.first_cell, self.index).item = v

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

    # queries

    def has(self, v):
        return v in chain_items(self.first_cell)

    def item(self):
        return cell_at(self.first_cell, self.index).item

    def off(self):
        return self.index < 1 or self.index > self.count


def linked_model(level):
    """Model queries of a linked cursor class (``first_cell``, ``count``,
    ``index``)."""
    index = ModelQuery("index", lambda o: o.index)
    if level == "strong":
        sequence = ModelQuery("sequence", lambda o: V.item_sequence(chain_items(o.first_cell)))
        return [sequence, index]
    return [ModelQuery("count", lambda o: o.count), index]


def linked_invariants(level):
    """The cursor's range invariant and, at the strong level, the cached
    count against the sequence."""
    if level != "strong":
        return [
            InvariantClause(
                "index_in_range",
                lambda m, o: 0 <= m["index"] <= m["count"] + 1,
                kind="model",
            )
        ]
    return [
        InvariantClause(
            "index_in_range",
            lambda m, o: 0 <= m["index"] <= V.seq_count(m["sequence"]) + 1,
            kind="model",
        ),
        InvariantClause(
            "count_matches",
            lambda m, o: o.count == V.seq_count(m["sequence"]),
            kind="representation",
        ),
    ]


PRE = {
    "cursor_on_item": pred(
        "cursor_on_item",
        lambda ctx: 1 <= ctx.old("index") <= ctx.old("count"),
    ),
    "not_after": pred("not_after", lambda ctx: ctx.old("index") <= ctx.old("count")),
    "not_before": pred("not_before", lambda ctx: ctx.old("index") >= 1),
    "other_given": pred("other_given", lambda ctx: not ctx.arg_is_void(0)),
    "other_not_current": pred(
        "other_not_current", lambda ctx: not ctx.arg_is_target(0)
    ),
    "position_in_range": pred(
        "position_in_range",
        lambda ctx: 0 <= ctx.arg(0) <= ctx.old("count") + 1,
    ),
}

# routine name -> (parameter kinds, preconditions, returns a value); a "ref"
# parameter is of the declaring class
DECLARED = {
    "extend": (("item",), (), False),
    "replace": (("item",), (PRE["cursor_on_item"],), False),
    "remove": ((), (PRE["cursor_on_item"],), False),
    "start": ((), (), False),
    "finish": ((), (), False),
    "forth": ((), (PRE["not_after"],), False),
    "back": ((), (PRE["not_before"],), False),
    "go_i_th": (("index",), (PRE["position_in_range"],), False),
    "wipe_out": ((), (), False),
    "has": (("item",), (), True),
    "item": ((), (PRE["cursor_on_item"],), True),
    "off": ((), (), True),
    "is_equal": (("ref",), (PRE["other_given"],), True),
}


def cursor_decl(name, concrete, routines, consistency_probe=None):
    """The ``ClassDecl`` of cursor class ``concrete``. ``routines`` lists its
    routines in order: a name is declared from ``DECLARED`` with the body
    ``concrete`` has under that name; a ``RoutineDecl`` stands as given."""
    decls = []
    for r in routines:
        if isinstance(r, str):
            kinds, pre, returns_value = DECLARED[r]
            params = [Param(k) for k in kinds]
            r = RoutineDecl(getattr(concrete, r), params, pre, returns_value)
        decls.append(r)
    return ClassDecl(
        name, concrete, decls, size_of=lambda o: o.count, consistency_probe=consistency_probe
    )


MOTION_POST = {
    "at_first": pred("at_first", lambda ctx: ctx.now("index") == 1),
    "at_last": pred("at_last", lambda ctx: ctx.now("index") == ctx.old("count")),
    "stepped": pred("stepped", lambda ctx: ctx.now("index") == ctx.old("index") + 1),
    "stepped_back": pred("stepped_back", lambda ctx: ctx.now("index") == ctx.old("index") - 1),
    "went": pred("went", lambda ctx: ctx.now("index") == ctx.arg(0)),
    "cursor_reset": pred("cursor_reset", lambda ctx: ctx.now("index") == 0),
    "reports_off": pred(
        "reports_off",
        lambda ctx: ctx.result
        == (ctx.old("index") < 1 or ctx.old("index") > ctx.old("count")),
    ),
}

# the motion routines' postconditions, for a class that has all of them
MOTION = {
    "start": [MOTION_POST["at_first"]],
    "finish": [MOTION_POST["at_last"]],
    "forth": [MOTION_POST["stepped"]],
    "back": [MOTION_POST["stepped_back"]],
    "go_i_th": [MOTION_POST["went"]],
    "off": [MOTION_POST["reports_off"]],
}

INDEX_UNCHANGED = pred("index_unchanged", lambda ctx: ctx.now("index") == ctx.old("index"))

# strong postconditions over a "sequence" model and an "index" cursor
REMOVED = defines(
    "removed",
    "sequence",
    lambda ctx: V.seq_removed_at(ctx.old("sequence"), ctx.old("index")),
)
REPLACED = defines(
    "replaced",
    "sequence",
    lambda ctx: V.seq_replaced_at(
        ctx.old("sequence"), ctx.old("index"), V.item(ctx.arg(0))
    ),
)
REPORTS_ITEM = pred(
    "reports_item",
    lambda ctx: V.item(ctx.result) == V.seq_item(ctx.now("sequence"), ctx.old("index")),
)
REPORTS_MEMBERSHIP = pred(
    "reports_membership",
    lambda ctx: ctx.result == V.seq_has(ctx.now("sequence"), V.item(ctx.arg(0))),
)

# weak postconditions over the count
FOUND_IMPLIES_NONEMPTY = pred(
    "found_implies_nonempty", lambda ctx: (not ctx.result) or ctx.old("count") > 0
)
EQUAL_IMPLIES_SAME_COUNT = pred(
    "equal_implies_same_count",
    lambda ctx: (not ctx.result) or ctx.old("count") == ctx.old("count", ARG0),
)

# the routines both linked lists declare, in their order
LIST_ROUTINES = (
    "extend",
    "replace",
    "remove",
    "start",
    "finish",
    "forth",
    "back",
    "go_i_th",
    "wipe_out",
    "has",
    "item",
    "off",
)

# level -> postconditions of the routines both linked lists declare
LIST_POST = {
    "strong": {
        **MOTION,
        "extend": [APPENDED],
        "replace": [REPLACED],
        "remove": [REMOVED],
        "wipe_out": [EMPTIED, MOTION_POST["cursor_reset"]],
        "has": [REPORTS_MEMBERSHIP],
        "item": [REPORTS_ITEM],
    },
    "weak": {
        **MOTION,
        "extend": [COUNT_UP],
        "replace": [COUNT_UNCHANGED],
        "remove": [COUNT_DOWN],
        "wipe_out": [COUNT_ZERO, MOTION_POST["cursor_reset"]],
        "has": [FOUND_IMPLIES_NONEMPTY],
    },
}

# the strong frames of the commands both linked lists declare; their
# queries (has, item, off) modify nothing
LIST_MODIFY = {
    "extend": ("sequence",),
    "replace": ("sequence",),
    "remove": ("sequence",),
    "start": ("index",),
    "finish": ("index",),
    "forth": ("index",),
    "back": ("index",),
    "go_i_th": ("index",),
    "wipe_out": ("sequence", "index"),
}
