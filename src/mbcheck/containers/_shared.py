"""Helpers shared by the checkable container classes.

Containers in this package follow one convention: qualified calls on other
checked objects go through the owning engine (so they are themselves checked,
and suppressed while a model query is being evaluated), while unqualified
calls on self stay plain Python and are never re-instrumented.

Each class declares its routines once, in a ``ClassDecl``: body, parameters,
preconditions and whether the routine returns a value. A level (weak or
strong) is an overlay on that table: it brings the model queries, invariants
and attribute derivations, each routine's postconditions and, at the strong
level only, each command's frame (``modify``). A query (a routine declared
with ``returns_value=True``) that the strong overlay leaves out modifies
nothing.
"""

from __future__ import annotations

import mbcheck.values as V
from mbcheck.engine import ClassSpec, RoutineSpec, defines, pred
from mbcheck.errors import SpecError


# clauses over the size of a container, shared by several bindings
NOT_EMPTY = pred("not_empty", lambda ctx: ctx.old("count") > 0)
COUNT_UP = pred("count_up", lambda ctx: ctx.now("count") == ctx.old("count") + 1)
COUNT_DOWN = pred("count_down", lambda ctx: ctx.now("count") == ctx.old("count") - 1)
COUNT_UNCHANGED = pred("count_unchanged", lambda ctx: ctx.now("count") == ctx.old("count"))
COUNT_ZERO = pred("count_zero", lambda ctx: ctx.now("count") == 0)
COUNT_REPORTS_EMPTINESS = pred(
    "reports_emptiness", lambda ctx: ctx.result == (ctx.old("count") == 0)
)

# clauses of the strong bindings over a "sequence" model, which derive the
# weak level's count from it
SEQUENCE_COUNT = {"count": lambda m: V.seq_count(m["sequence"])}
APPENDED = defines(
    "appended",
    "sequence",
    lambda ctx: V.seq_extended(ctx.old("sequence"), V.item(ctx.arg(0))),
)
EMPTIED = pred("emptied", lambda ctx: V.seq_is_empty(ctx.now("sequence")))
SEQUENCE_REPORTS_EMPTINESS = pred(
    "reports_emptiness", lambda ctx: ctx.result == V.seq_is_empty(ctx.now("sequence"))
)


class RoutineDecl:
    """One public routine as both levels share it; its name is the body's."""

    __slots__ = ("name", "body", "params", "pre", "returns_value")

    def __init__(self, body, params=(), pre=(), returns_value=False):
        self.name = body.__name__
        self.body = body
        self.params = tuple(params)
        self.pre = tuple(pre)
        self.returns_value = returns_value


class ClassDecl:
    """A container class's routine table, declared once for both levels.

    ``concrete`` is the class itself; ``concrete(bugs)`` makes an instance.
    """

    __slots__ = ("name", "concrete", "routines", "size_of", "consistency_probe")

    def __init__(self, name, concrete, routines, size_of, consistency_probe=None):
        self.name = name
        self.concrete = concrete
        self.routines = tuple(routines)
        self.size_of = size_of
        self.consistency_probe = consistency_probe

    def spec(
        self,
        level,
        bugs,
        model,
        post,
        invariants=(),
        attr_derivations=None,
        modify=(),
        pre=(),
    ):
        """A new ``ClassSpec`` for ``level``, its frames derived.

        ``post`` maps routine names to their postconditions and ``pre`` to
        preconditions appended at this level. The strong level maps every
        command to its ``modify`` frame, and a query it leaves out gets
        ``modify=()``; weak routines are unframed.
        """
        modify, pre = dict(modify), dict(pre)
        declared = {r.name for r in self.routines}
        for overlay in (post, modify, pre):
            unknown = set(overlay) - declared
            if unknown:
                raise SpecError(
                    "%s %s binding names undeclared routines %s"
                    % (self.name, level, ", ".join(sorted(unknown)))
                )
        framed = level == "strong"
        if framed and any(r.name not in modify for r in self.routines if not r.returns_value):
            raise SpecError("%s strong binding must frame every command" % self.name)
        if not framed and modify:
            raise SpecError("%s weak binding must be unframed" % self.name)
        concrete = self.concrete
        return ClassSpec(
            self.name,
            level,
            model,
            invariants,
            {
                r.name: RoutineSpec(
                    r.name,
                    r.params,
                    r.body,
                    pre=r.pre + tuple(pre.get(r.name, ())),
                    post=post.get(r.name, ()),
                    modify=modify.get(r.name, ()) if framed else None,
                    returns_value=r.returns_value,
                )
                for r in self.routines
            },
            lambda: concrete(bugs),
            attr_derivations=attr_derivations,
            consistency_probe=self.consistency_probe,
            size_of=self.size_of,
        )


class Cell:
    """Singly linked cell."""

    __slots__ = ("item", "next")

    def __init__(self, item, nxt=None):
        self.item = item
        self.next = nxt


class DCell:
    """Doubly linked cell."""

    __slots__ = ("item", "next", "prev")

    def __init__(self, item, nxt=None, prev=None):
        self.item = item
        self.next = nxt
        self.prev = prev


def qcall(other, routine_name, *args):
    """Route a call on another object through its engine when registered.

    Unregistered objects (plain unit-test usage) get a direct method call so
    the container classes stay usable without any checking engine.
    """
    co = getattr(other, "_checked", None)
    if co is None:
        return getattr(other, routine_name)(*args)
    return co.engine.checked_call(co, co.spec.routines[routine_name], args).result


def chain_items(first_cell):
    """The items of a linked chain in order, as a list. A plain loop costs
    about half of what a generator does, since a generator resumes once per
    item."""
    items = []
    cell = first_cell
    while cell is not None:
        items.append(cell.item)
        cell = cell.next
    return items


def cell_at(first_cell, position):
    """Cell holding the item at 1-based ``position``, or None."""
    cell = first_cell
    while cell is not None and position > 1:
        cell = cell.next
        position -= 1
    return cell if position == 1 else None
