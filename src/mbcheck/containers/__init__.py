"""Checkable container classes and their weak/strong bindings.

Each module declares its routines once (a ``ClassDecl`` from ``_shared``) and
exposes ``build(level, bugs)``, which lays the level's model, invariants,
postconditions and, at the strong level, frames over that table and returns a
new class spec, its frame predicates derived. Reference parameters name only
the class's own spec.
"""

from __future__ import annotations

from mbcheck.errors import ConfigError

from mbcheck.containers import (
    array_stack,
    binary_node,
    cursor_list,
    cursor_set,
    resizable_array,
    ring_queue,
    two_way_list,
)
from mbcheck.containers import bugs as _bugs

BUILDERS = {
    array_stack.CLASS_NAME: array_stack.build,
    binary_node.CLASS_NAME: binary_node.build,
    cursor_list.CLASS_NAME: cursor_list.build,
    cursor_set.CLASS_NAME: cursor_set.build,
    resizable_array.CLASS_NAME: resizable_array.build,
    ring_queue.CLASS_NAME: ring_queue.build,
    two_way_list.CLASS_NAME: two_way_list.build,
}

ALL_CLASSES = tuple(sorted(BUILDERS))


def build_class(name, level, bugs=frozenset()):
    """Build one class spec with the defects ``bugs`` seeded; the ids are
    checked as a session's are (``bugs.check_ids``)."""
    builder = BUILDERS.get(name)
    if builder is None:
        raise ConfigError("unknown class %r; choose from %s" % (name, ", ".join(ALL_CLASSES)))
    if level not in ("weak", "strong"):
        raise ConfigError("unknown level %r; choose weak or strong" % (level,))
    _bugs.check_ids(name, bugs)
    return builder(level, frozenset(bugs))
