"""Completeness probe over the container bindings.

The strong routines pin a unique post-state inside small bounds; the weak
ones, probed over the same rich model, admit many. Weak clauses that consult
the live object cannot be probed at all and must be rejected loudly.
"""

from __future__ import annotations

import pytest

from mbcheck.engine import completeness_probe
from mbcheck.errors import ConfigError
from mbcheck.containers import build_class, cursor_list
from mbcheck.containers._cursor_specs import INDEX_UNCHANGED
from mbcheck.containers.domains import SequenceDomain


def list_domain(**kw):
    strong = build_class("cursor_list", "strong")
    kw.setdefault("max_len", 2)
    return strong, SequenceDomain({"cursor_list": strong}, **kw)


def test_strong_extend_is_complete():
    strong, dom = list_domain()
    res = completeness_probe(strong, strong.routines["extend"], dom)
    assert res.verdict == "complete"
    assert res.pre_states_checked > 0


def test_strong_remove_is_complete():
    strong, dom = list_domain()
    res = completeness_probe(strong, strong.routines["remove"], dom)
    assert res.verdict == "complete"


def test_strong_merge_is_complete():
    strong, dom = list_domain()
    res = completeness_probe(strong, strong.routines["merge_right"], dom)
    assert res.verdict == "complete"
    assert res.pre_states_checked > 100


def spelled_merge_spec():
    """Strong cursor_list with the cursor frame of ``merge_right`` also
    spelled out as the postcondition ``index_unchanged``."""
    spec = cursor_list.build("strong")
    merge = spec.routines["merge_right"]
    merge.post = (*merge.post, INDEX_UNCHANGED)
    return spec


def test_explicit_index_clause_on_merge_is_redundant():
    # the derived frame already pins the cursor; spelling it out as a
    # postcondition must not change the probe's verdict
    spelled = spelled_merge_spec()
    dom = SequenceDomain({"cursor_list": spelled}, max_len=2)
    assert [p.name for p in spelled.routines["merge_right"].post] == ["spliced", "index_unchanged"]
    res = completeness_probe(spelled, spelled.routines["merge_right"], dom)
    assert res.verdict == "complete"


def test_weak_merge_over_rich_model_is_incomplete():
    strong, dom = list_domain()
    weak = build_class("cursor_list", "weak")
    res = completeness_probe(strong, weak.routines["merge_right"], dom)
    assert res.verdict == "incomplete"
    assert len(res.witness_posts) == 2
    (m1, _), (m2, _) = res.witness_posts
    assert m1 != m2  # two distinct exits, both admitted


def test_weak_opaque_clause_is_refused():
    # the weak extend postcondition asks the live object, which an abstract
    # state cannot answer
    strong = build_class("cursor_set", "strong")
    weak = build_class("cursor_set", "weak")
    dom = SequenceDomain({"cursor_set": strong}, max_len=2, unique=True)
    with pytest.raises(ConfigError, match="not abstractly evaluable"):
        completeness_probe(strong, weak.routines["extend"], dom)


def test_stack_pop_strong_complete_weak_incomplete():
    strong = build_class("array_stack", "strong")
    weak = build_class("array_stack", "weak")
    dom = SequenceDomain({"array_stack": strong}, max_len=2)
    assert completeness_probe(strong, strong.routines["pop"], dom).verdict == "complete"
    res = completeness_probe(strong, weak.routines["pop"], dom)
    assert res.verdict == "incomplete"


def test_queue_remove_strong_complete_weak_incomplete():
    strong = build_class("ring_queue", "strong")
    weak = build_class("ring_queue", "weak")
    dom = SequenceDomain({"ring_queue": strong}, max_len=2)
    assert completeness_probe(strong, strong.routines["remove"], dom).verdict == "complete"
    res = completeness_probe(strong, weak.routines["remove"], dom)
    assert res.verdict == "incomplete"
