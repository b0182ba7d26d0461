"""Acceptance gate: nine checks, one line of verdict output each.

Run as ``pytest tests/test_acceptance.py -v -s``. The corpus sweep behind
checks 2, 3, and 9 (10 paired seeds x 100k calls per session, every class at
both levels, each class carrying its full seeded-defect set) runs once and
takes a few minutes; everything else is seconds.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter
from statistics import median

import pytest

import mbcheck.values as V
from mbcheck.engine import Engine, completeness_probe
from mbcheck.containers import ALL_CLASSES, build_class
from mbcheck.containers import bugs as bug_catalog
from mbcheck.containers.domains import SequenceDomain
from mbcheck.harness import SessionConfig, run_session, write_report
from mbcheck.harness.cli import main as cli_main
from test_containers import binary_node_without_depend

SEEDS = tuple(range(10))
CALLS = 100_000


def verdict(num, ok, text):
    print("criterion %d [%s]: %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, "criterion %d failed: %s" % (num, text)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """Full-corpus paired sweep; results and written reports are shared by the
    checks that read it. Each seed's weak and strong sessions run back to
    back, so a drift in the host's speed reaches both levels alike."""
    out_dir = tmp_path_factory.mktemp("sweep")
    results = {}
    paths = []
    t0 = time.monotonic()
    for cls in ALL_CLASSES:
        class_bugs = tuple(
            e.bug_id for e in bug_catalog.CATALOG if e.class_name == cls
        )
        for seed in SEEDS:
            for level in ("weak", "strong"):
                res = run_session(
                    SessionConfig(
                        cls, level, seed=seed, max_calls=CALLS, bugs=class_bugs
                    )
                )
                results[(cls, level, seed)] = res
                p = out_dir / ("%s-%s-%02d.jsonl" % (cls, level, seed))
                write_report(p, res)
                paths.append(p)
    return {
        "results": results,
        "paths": paths,
        "dir": out_dir,
        "wall_s": time.monotonic() - t0,
    }


def test_criterion_1_directed_merge():
    t0 = time.monotonic()
    outcomes = {}
    for level in ("weak", "strong"):
        spec = build_class("cursor_list", level, frozenset(["MB-1"]))
        eng = Engine()
        a, b = eng.create(spec), eng.create(spec)
        clean = True
        for ch in "fold":
            clean &= not eng.call(a, "extend", ch).violations
        for ch in "un":
            clean &= not eng.call(b, "extend", ch).violations
        clean &= not eng.call(a, "go_i_th", 0).violations
        out = eng.call(a, "merge_right", b.concrete)
        outcomes[level] = (clean, [(v.kind, v.clause) for v in out.violations])
    elapsed = time.monotonic() - t0
    ok = (
        outcomes["weak"] == (True, [])
        and outcomes["strong"][0] is True
        and outcomes["strong"][1] == [("postcondition", "spliced")]
        and elapsed < 1.0
    )
    verdict(
        1,
        ok,
        "buggy merge on the four-letter list: weak all-clear, strong exactly "
        "the sequence postcondition (%.2fs)" % elapsed,
    )


def test_criterion_2_oracle_strength(sweep):
    strong = weak = 0
    for (cls, level, seed), res in sweep["results"].items():
        n = len(res.by_classification("real"))
        if level == "strong":
            strong += n
        else:
            weak += n
    ok = weak > 0 and strong >= 2 * weak and sweep["wall_s"] < 600
    verdict(
        2,
        ok,
        "unique real faults: strong %d vs weak %d (ratio %.2f, need >= 2; sweep %.0fs)"
        % (strong, weak, strong / max(weak, 1), sweep["wall_s"]),
    )


def test_criterion_3_strong_only_detection(sweep):
    per_bug = {e.bug_id: {"strong": 0, "weak": 0} for e in bug_catalog.CATALOG}
    for (cls, level, seed), res in sweep["results"].items():
        for bug_id in res.detected_bugs():
            per_bug[bug_id][level] += 1
    bad = []
    for e in bug_catalog.CATALOG:
        if e.detectability != "strong_only":
            continue
        hits = per_bug[e.bug_id]
        if hits["strong"] < 0.9 * len(SEEDS) or hits["weak"] != 0:
            bad.append((e.bug_id, hits))
    ok = not bad
    verdict(
        3,
        ok,
        "all %d strong-only defects at >= 90%% of strong sessions and 0%% of weak%s"
        % (
            sum(1 for e in bug_catalog.CATALOG if e.detectability == "strong_only"),
            "" if ok else ": offenders %s" % (bad,),
        ),
    )


def test_criterion_4_frame_catches_drift():
    spec = build_class("cursor_list", "strong", frozenset(["MB-2"]))
    no_handwritten = all(
        "index" not in p.name for p in spec.routines["merge_right"].post
    )
    eng = Engine()
    a, b = eng.create(spec), eng.create(spec)
    eng.call(a, "extend", 1)
    eng.call(b, "extend", 2)
    out = eng.call(a, "merge_right", b.concrete)
    sigs = [(v.kind, v.clause) for v in out.violations]
    ok = no_handwritten and sigs == [("frame", "unchanged:target.index")]
    verdict(
        4,
        ok,
        "cursor drift caught solely by the derived frame clause %s" % (sigs,),
    )


def test_criterion_5_invariant_dependencies():
    def prune_replay(bugs, depend):
        if depend:
            spec = build_class("binary_node", "strong", frozenset(bugs))
        else:
            spec = binary_node_without_depend(bugs)
        eng = Engine()
        p, c = eng.create(spec), eng.create(spec)
        pre = eng.call(p, "set_left", c.concrete).violations
        out = eng.call(p, "prune_left")
        return list(pre) + list(out.violations)

    annotated = prune_replay((), True)
    stripped = prune_replay((), False)
    seeded = prune_replay(("PL-1",), True)
    ok = (
        annotated == []
        and any(v.kind == "invariant_entry" for v in stripped)
        and [(v.kind, v.clause) for v in seeded]
        == [("invariant_exit", "parent_side_left")]
    )
    verdict(
        5,
        ok,
        "prune replay: silent with the dependency annotation, %d spurious entry "
        "hit(s) without it, exactly one genuine exit hit with the defect"
        % sum(1 for v in stripped if v.kind == "invariant_entry"),
    )


def test_criterion_6_completeness_probe():
    t0 = time.monotonic()
    strong = build_class("cursor_list", "strong")
    weak = build_class("cursor_list", "weak")
    dom = SequenceDomain({"cursor_list": strong}, max_len=3, alphabet=2)
    loose = completeness_probe(strong, weak.routines["merge_right"], dom)
    witnesses_differ = (
        len(loose.witness_posts) == 2
        and loose.witness_posts[0][0] != loose.witness_posts[1][0]
    )
    tight = completeness_probe(strong, strong.routines["merge_right"], dom)
    elapsed = time.monotonic() - t0
    ok = (
        loose.verdict == "incomplete"
        and witnesses_differ
        and tight.verdict == "complete"
        and elapsed < 30.0
    )
    verdict(
        6,
        ok,
        "weak merge incomplete with a two-poststate witness, strong merge "
        "complete over %d pre-states (%.1fs)" % (tight.pre_states_checked, elapsed),
    )


def test_criterion_7_value_identities():
    alphabet = (0, 1)
    seqs = [
        xs
        for n in range(0, 7)
        for xs in itertools.product(alphabet, repeat=n)
    ]
    checked = 0
    for xs in seqs:
        s = V.sequence(xs)
        n = len(xs)
        for i in range(0, n + 1):
            assert V.seq_concat(V.seq_front(s, i), V.seq_tail(s, i + 1)) == s
            assert V.seq_count(V.seq_front(s, i)) == i
            assert V.seq_count(V.seq_tail(s, i + 1)) == n - i
            checked += 1
        assert V.seq_to_bag(s) == V.bag_of(xs)
        for x in alphabet:
            assert V.bag_occurrences(V.seq_to_bag(s), x) == xs.count(x)
    for xs in seqs:
        if len(xs) > 3:
            continue
        s = V.sequence(xs)
        for ys in seqs:
            if len(ys) > 3:
                continue
            t = V.sequence(ys)
            u = V.seq_concat(s, t)
            assert V.seq_count(u) == len(xs) + len(ys)
            assert V.seq_to_bag(u) == V.bag_of(xs + ys)
            checked += 1
    verdict(
        7,
        True,
        "front/tail/concat/bag identities hold on all %d exhaustive cases" % checked,
    )


def test_criterion_8_deterministic_reports(tmp_path):
    argv = [
        "run", "--class", "cursor_set", "--spec", "strong", "--seed", "123",
        "--max-calls", "3000", "--bugs", "SR-1,EQ-1",
    ]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    code_a = cli_main(argv + ["--report", str(a)])
    code_b = cli_main(argv + ["--report", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    ok = identical and code_a == code_b == 1
    verdict(8, ok, "two identical runs produced byte-identical reports")


def test_criterion_9_overhead_report(sweep, tmp_path):
    out = tmp_path / "cmp.json"
    code = cli_main(
        ["compare", *[str(p) for p in sweep["paths"]], "--out", str(out)]
    )
    with open(str(out) + ".timing") as f:
        ratios = json.load(f)["weak_over_strong_speed"]

    def wall_rate(cls, level):
        runs = [sweep["results"][(cls, level, s)] for s in SEEDS]
        return median(res.calls / res.wall_s for res in runs)

    wall = {cls: wall_rate(cls, "weak") / wall_rate(cls, "strong") for cls in ALL_CLASSES}
    ok = (
        code == 0
        and set(ratios) == set(ALL_CLASSES)
        and all(v > 0 for v in [*ratios.values(), *wall.values()])
    )
    verdict(
        9,
        ok,
        "per-class weak/strong speed ratios all present and positive: CPU %s, wall %s"
        % (
            {k: round(v, 2) for k, v in sorted(ratios.items())},
            {k: round(v, 2) for k, v in sorted(wall.items())},
        ),
    )


def test_catalog_balance_matches_sweep(sweep):
    # not a numbered check: the sweep's detected sets must equal the catalog's
    # detectability tags exactly, including the invisible defect
    detected = {"strong": Counter(), "weak": Counter()}
    for (cls, level, seed), res in sweep["results"].items():
        for b in res.detected_bugs():
            detected[level][b] += 1
    strong_ids = {b for b, n in detected["strong"].items() if n > 0}
    weak_ids = {b for b, n in detected["weak"].items() if n > 0}
    assert strong_ids == set(bug_catalog.detectable_at("strong"))
    assert weak_ids == set(bug_catalog.detectable_at("weak"))
    assert "QU-2" not in strong_ids and "QU-2" not in weak_ids
