"""Helpers shared by the checkable container classes.

Containers in this package follow one convention: qualified calls on other
checked objects go through the owning engine (so they are themselves checked,
and suppressed while a model query is being evaluated), while unqualified
calls on self stay plain Python and are never re-instrumented.
"""

from __future__ import annotations

import mbcheck.values as V


item_value = V.item


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


def walk(first_cell):
    """Yield the items of a linked chain in order."""
    cell = first_cell
    while cell is not None:
        yield cell.item
        cell = cell.next


def cell_at(first_cell, position):
    """Cell holding the item at 1-based ``position``, or None."""
    cell = first_cell
    while cell is not None and position > 1:
        cell = cell.next
        position -= 1
    return cell if position == 1 else None
