"""Model queries and contract clauses common to the cursor containers.

Preconditions are written over derivable names (``old_int`` resolves either a
model query or a derived attribute), so one predicate object serves the weak
binding, the strong binding, and abstract probe states alike. The motion
postconditions are pure index arithmetic and equally strong at either level.
Model queries and invariants are made anew for each build, so no two bindings
share one.
"""

from __future__ import annotations

import mbcheck.values as V
from mbcheck.containers._shared import chain_items, item_value
from mbcheck.engine import ARG0, InvariantClause, ModelQuery, defines, pred


def linked_model(level):
    """Model queries of a linked cursor class (``first_cell``, ``count``,
    ``index``)."""
    index = ModelQuery("index", lambda o: V.integer(o.index))
    if level == "strong":
        sequence = ModelQuery("sequence", lambda o: V.item_sequence(chain_items(o.first_cell)))
        return [sequence, index]
    return [ModelQuery("count", lambda o: V.integer(o.count)), index]


def linked_invariants(level):
    """The cursor's range invariant and, at the strong level, the cached
    count against the sequence."""
    if level != "strong":
        return [
            InvariantClause(
                "index_in_range",
                lambda m, o: 0 <= V.as_int(m["index"]) <= V.as_int(m["count"]) + 1,
                kind="model",
            )
        ]
    return [
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


PRE = {
    "cursor_on_item": pred(
        "cursor_on_item",
        lambda ctx: 1 <= ctx.old_int("index") <= ctx.old_int("count"),
    ),
    "not_after": pred(
        "not_after", lambda ctx: ctx.old_int("index") <= ctx.old_int("count")
    ),
    "not_before": pred("not_before", lambda ctx: ctx.old_int("index") >= 1),
    "other_given": pred("other_given", lambda ctx: not ctx.arg_is_void(0)),
    "other_not_current": pred(
        "other_not_current", lambda ctx: not ctx.arg_is_target(0)
    ),
    "position_in_range": pred(
        "position_in_range",
        lambda ctx: 0 <= ctx.arg(0) <= ctx.old_int("count") + 1,
    ),
}

MOTION_POST = {
    "at_first": pred("at_first", lambda ctx: ctx.now_int("index") == 1),
    "at_last": pred("at_last", lambda ctx: ctx.now_int("index") == ctx.old_int("count")),
    "stepped": pred("stepped", lambda ctx: ctx.now_int("index") == ctx.old_int("index") + 1),
    "stepped_back": pred(
        "stepped_back", lambda ctx: ctx.now_int("index") == ctx.old_int("index") - 1
    ),
    "went": pred("went", lambda ctx: ctx.now_int("index") == ctx.arg(0)),
    "cursor_reset": pred("cursor_reset", lambda ctx: ctx.now_int("index") == 0),
    "reports_off": pred(
        "reports_off",
        lambda ctx: ctx.result
        == (ctx.old_int("index") < 1 or ctx.old_int("index") > ctx.old_int("count")),
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

INDEX_UNCHANGED = pred(
    "index_unchanged", lambda ctx: ctx.now_int("index") == ctx.old_int("index")
)

# strong postconditions over a "sequence" model and an "index" cursor
REMOVED = defines(
    "removed",
    "sequence",
    lambda ctx: V.seq_removed_at(ctx.old("sequence"), ctx.old_int("index")),
)
REPLACED = defines(
    "replaced",
    "sequence",
    lambda ctx: V.seq_replaced_at(
        ctx.old("sequence"), ctx.old_int("index"), item_value(ctx.arg(0))
    ),
)
REPORTS_ITEM = pred(
    "reports_item",
    lambda ctx: ctx.result
    == V.as_int(V.seq_item(ctx.now("sequence"), ctx.old_int("index"))),
)
REPORTS_MEMBERSHIP = pred(
    "reports_membership",
    lambda ctx: ctx.result == V.seq_has(ctx.now("sequence"), item_value(ctx.arg(0))),
)

# weak postconditions over the count
FOUND_IMPLIES_NONEMPTY = pred(
    "found_implies_nonempty", lambda ctx: (not ctx.result) or ctx.old_int("count") > 0
)
EQUAL_IMPLIES_SAME_COUNT = pred(
    "equal_implies_same_count",
    lambda ctx: (not ctx.result) or ctx.old_int("count") == ctx.old_int("count", ARG0),
)
