"""Seeded-fault catalog.

Every entry names one switchable defect in a container body, the routine that
hosts it, and the contract clause expected to flag it at each checking level.
``detectability`` is the ground truth a harness comparison is scored against,
read off the signatures an entry has:

- ``strong_only``: a strong signature and no weak one, so only the
  model-complete binding has a clause that fires;
- ``both``: both signatures, so some clause fires at either level;
- ``neither``: no signature; the defect is invisible to both bindings (its
  effect is not observable through any specified query).

An entry may not have a weak signature without a strong one: whatever the
weak binding flags, the strong binding flags too.

A ``weak_analogue`` is a clause the weak binding may trip *downstream* of the
defect, on a later call against an already-corrupted object. Those reports
classify as inconsistencies, not detections, so scoring excludes them; the
entry records the signature so the comparison can label them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Signature:
    routine: str
    clause: str
    kind: str

    def key(self, class_name):
        return (class_name, self.routine, self.clause, self.kind)


@dataclass(frozen=True)
class BugEntry:
    bug_id: str
    class_name: str
    routine: str
    description: str
    strong: Signature | None = None
    weak: Signature | None = None
    weak_analogue: Signature | None = None

    def __post_init__(self):
        if self.weak is not None and self.strong is None:
            raise ValueError(
                "%s has a weak signature but no strong one; whatever the weak "
                "binding flags, the strong one flags too" % (self.bug_id,)
            )

    @property
    def detectability(self):
        if self.strong is None:
            return "neither"
        return "strong_only" if self.weak is None else "both"


CATALOG = (
    BugEntry(
        "MB-1",
        "cursor_list",
        "merge_right",
        "merge at cursor position 0 splices after the first element instead of at the front",
        strong=Signature("merge_right", "spliced", "postcondition"),
    ),
    BugEntry(
        "MB-2",
        "cursor_list",
        "merge_right",
        "merge leaves the cursor one position to the right",
        strong=Signature("merge_right", "unchanged:target.index", "frame"),
        weak=Signature("merge_right", "index_unchanged", "postcondition"),
    ),
    BugEntry(
        "LD-1",
        "cursor_list",
        "remove",
        "removing the last element leaves the tail cache pointing at the removed cell",
        strong=Signature("remove", "tail_cached", "invariant_exit"),
    ),
    BugEntry(
        "TW-1",
        "two_way_list",
        "put_front",
        "prepending never sets the old head's backward link",
        strong=Signature("put_front", "back_links", "invariant_exit"),
    ),
    BugEntry(
        "TW-2",
        "two_way_list",
        "back",
        "stepping back from position 1 leaves the cursor at 1 instead of 0",
        strong=Signature("back", "stepped_back", "postcondition"),
        weak=Signature("back", "stepped_back", "postcondition"),
    ),
    BugEntry(
        "SR-1",
        "cursor_set",
        "replace",
        "replacing at the cursor skips the duplicate check, so the element may now occur twice",
        strong=Signature("replace", "unique_items", "invariant_exit"),
        weak_analogue=Signature("remove", "not_has", "postcondition"),
    ),
    BugEntry(
        "EQ-1",
        "cursor_set",
        "is_equal",
        "equality compares only the element counts, not the members",
        strong=Signature("is_equal", "reports_set_equality", "postcondition"),
    ),
    BugEntry(
        "AF-1",
        "resizable_array",
        "force",
        "growing past the upper bound fills the first new gap position with garbage",
        strong=Signature("force", "force_extends", "postcondition"),
    ),
    BugEntry(
        "PL-1",
        "binary_node",
        "prune_left",
        "pruning detaches the child but never clears the forward link",
        strong=Signature("prune_left", "parent_side_left", "invariant_exit"),
        weak=Signature("prune_left", "left_void", "postcondition"),
    ),
    BugEntry(
        "ST-1",
        "array_stack",
        "pop",
        "popping swaps the bottom element to the top first, so it removes the bottom",
        strong=Signature("pop", "shrunk", "postcondition"),
    ),
    BugEntry(
        "QU-1",
        "ring_queue",
        "remove",
        "removing advances the head but forgets to decrement the count",
        strong=Signature("remove", "dropped_front", "postcondition"),
        weak=Signature("remove", "count_down", "postcondition"),
    ),
    BugEntry(
        "QU-2",
        "ring_queue",
        "put",
        "a full buffer grows by four slots instead of doubling",
    ),
)

BY_ID = {e.bug_id: e for e in CATALOG}

# clauses present in one binding only, by design; their violations classify
# as specification-suspect rather than as detections
EXPERIMENTAL_CLAUSES = (("binary_node", "no_cycle"),)


def bugs_for_class(class_name):
    return tuple(e for e in CATALOG if e.class_name == class_name)


def detectable_at(level):
    """Bug ids whose seeded defect should produce a real fault at ``level``."""
    if level == "strong":
        wanted = ("strong_only", "both")
    elif level == "weak":
        wanted = ("both",)
    else:
        return ()
    return tuple(e.bug_id for e in CATALOG if e.detectability in wanted)


def signature_index(level):
    """(class, routine, clause, kind) -> bug id, for the primary signatures."""
    out = {}
    for e in CATALOG:
        sig = e.strong if level == "strong" else e.weak
        if sig is not None:
            out[sig.key(e.class_name)] = e.bug_id
    return out


def analogue_index():
    out = {}
    for e in CATALOG:
        if e.weak_analogue is not None:
            out[e.weak_analogue.key(e.class_name)] = e.bug_id
    return out


def manifest():
    """Machine-readable catalog dump."""
    entries = []
    for e in CATALOG:
        entries.append(
            {
                "id": e.bug_id,
                "class": e.class_name,
                "routine": e.routine,
                "description": e.description,
                "detectability": e.detectability,
                "strong_signature": list(e.strong.key(e.class_name)) if e.strong else None,
                "weak_signature": list(e.weak.key(e.class_name)) if e.weak else None,
                "weak_analogue": list(e.weak_analogue.key(e.class_name))
                if e.weak_analogue
                else None,
            }
        )
    return {
        "bugs": entries,
        "experimental_clauses": [list(x) for x in EXPERIMENTAL_CLAUSES],
    }


def manifest_json():
    return json.dumps(manifest(), indent=2, sort_keys=True)
