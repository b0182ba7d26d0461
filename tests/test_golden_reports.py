"""Pinned outputs that a behaviour-preserving change must leave identical.

Golden reports hash the session reports of a small grid of configs; they only
see the clauses that fire. The spec fingerprints hash the declared shape of
every binding (clause names and order, frames, parameters), so they also
guard clauses that never fire in those sessions.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from mbcheck.containers import ALL_CLASSES, build_class
from mbcheck.containers.bugs import bugs_for_class
from mbcheck.harness import SessionConfig, render_report, run_session
from test_container_probes import spelled_merge_spec
from test_containers import binary_node_without_depend

GOLDEN_REPORTS_SHA256 = "f8a014a2c32f7b30c9edf779a5efc38484f644bd9fcadeb8d221ab1a21199f8e"


def golden_report_digest():
    """sha256 of the reports of every class x (strong, weak) x seeds 0 and 1,
    2,000 calls each, full bug set."""
    bodies = []
    for cls in ALL_CLASSES:
        bugs = tuple(e.bug_id for e in bugs_for_class(cls))
        for level in ("strong", "weak"):
            for seed in (0, 1):
                res = run_session(
                    SessionConfig(cls, level, seed, max_calls=2000, bugs=bugs)
                )
                bodies.append(render_report(res))
    return hashlib.sha256("".join(bodies).encode()).hexdigest()


def test_golden_reports():
    assert golden_report_digest() == GOLDEN_REPORTS_SHA256


def test_golden_reports_draw_only_through_random_and_getrandbits(monkeypatch):
    # Python may change how choice, randrange and randint turn bits into
    # values; the session stream is fixed only if it rests on random() and
    # getrandbits alone
    def refused(*args, **kwargs):
        raise AssertionError("a session drew through a stdlib helper")

    for name in ("choice", "randrange", "randint", "_randbelow"):
        monkeypatch.setattr(random.Random, name, refused)
    assert golden_report_digest() == GOLDEN_REPORTS_SHA256


def test_golden_reports_do_not_depend_on_the_hash_seed():
    # str hashes, and so set and dict-of-set order, change with the hash
    # seed; a report that iterated one of them would differ between runs
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, tests, env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c",
             "import test_golden_reports as g; print(g.golden_report_digest())"],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )
        assert out.stdout.strip() == GOLDEN_REPORTS_SHA256, hash_seed


LARGE_OBJECT_REPORTS_SHA256 = "d13604a41d50a6f58ae0f077b4b4ef16d51b2a6a7ba86d3c6a649d808d27a5ba"


def test_golden_large_object_reports():
    # every class x (strong, weak), seed 0, full and empty bug sets, 4,000
    # calls. With p_new at 0.02 objects live long: resizable_array grows to
    # 54 elements, well past the item_sequence gate, and ring_queue's content
    # wraps around its storage
    bodies = []
    for cls in ALL_CLASSES:
        full = tuple(e.bug_id for e in bugs_for_class(cls))
        for level in ("strong", "weak"):
            for bugs in (full, ()):
                cfg = SessionConfig(
                    cls, level, 0, max_calls=4000, bugs=bugs,
                    max_object_size=160, p_new=0.02,
                )
                bodies.append(render_report(run_session(cfg)))
    digest = hashlib.sha256("".join(bodies).encode()).hexdigest()
    assert digest == LARGE_OBJECT_REPORTS_SHA256


def spec_fingerprint(spec):
    """The declared shape of one bound class spec, as plain JSON data."""
    return {
        "model": [q.name for q in spec.model],
        "invariants": [[cl.name, cl.kind, list(cl.depend)] for cl in spec.invariants],
        "derivations": list(spec.attr_derivations),
        "consistency_probe": spec.consistency_probe is not None,
        "routines": [
            {
                "name": name,
                "params": [[p.kind, spec.name if p.kind == "ref" else None] for p in r.params],
                "pre": [p.name for p in r.pre],
                "post": [p.name for p in r.post],
                "frame": [p.name for p in r.frame_preds],
                "modify": None if r.modify is None else [list(m) for m in r.modify],
                "returns_value": r.returns_value,
            }
            for name, r in spec.routines.items()
        ],
    }


# (class, level, variant) -> sha256 of the fingerprint's JSON; a variant
# other than "" names a builder in VARIANTS
SPEC_FINGERPRINTS = {
    ("array_stack", "strong", ""):
        "3387227cd0aa630456448f082c129640546bf28398ba1d22f96939369bafdd57",
    ("array_stack", "weak", ""):
        "917fd43454f3fb2f43bec5fcc0b228e4ff5bb381b7e446c6406d72c3064c58c7",
    ("binary_node", "strong", ""):
        "68df6ed013607b87968933cbff51eee8b1be62c8980c17aab879ee1a5a6a73fe",
    ("binary_node", "strong", "depend_parent"):
        "85571c00169aaf9b9c96e1c009b4587714ed7a0f0cce98f77c337f315aa65010",
    ("binary_node", "weak", ""):
        "a6274ede74d506f641c02451fdec39ec48e6d67cfbcebdbd6df37aeae7f4350d",
    ("cursor_list", "strong", ""):
        "3ebed48813e40c7c33d08a323fe5ea21b4daa9da69a24c5c4670aee685ddbaf3",
    ("cursor_list", "strong", "spelled_merge"):
        "797eeca33d751e7da8715d7107c5ac121454f0af2f7e408aa85b0b3fc1dbb5c0",
    ("cursor_list", "weak", ""):
        "ee1ebef038c6ad7a230e62202d363557751cf7c800d11b83626b4520f8a27d8a",
    ("cursor_set", "strong", ""):
        "d7e6d72c32512f3d7e1fef05ef003717660282db17a3eeb46db09c39ddc7d243",
    ("cursor_set", "weak", ""):
        "e4d7f60825fcdbf8b51e5ee0101ee9875495bf8a0e7648b01d8dac65574afa75",
    ("resizable_array", "strong", ""):
        "ee5545cb91bab2779c3b1a5e762cdf2aabe3c1af4ba55fc30050698b0f1ca31b",
    ("resizable_array", "weak", ""):
        "a6158756652799c909b51a9a66de50f613cb7b23c10888f575f11176141cc47b",
    ("ring_queue", "strong", ""):
        "ca2730acfb8a5e9dd1c4f83f6ae30fa5ccc56de0fc5929a7243008cbafb42d96",
    ("ring_queue", "weak", ""):
        "c59f819c813ce72bccc1fe84445f94735b5f194cb9ce458f59bbfd70219f6492",
    ("two_way_list", "strong", ""):
        "d1cf88182e6af54599e05aa605bdbd59c7591e31d1090d659fc07d65d9d848ec",
    ("two_way_list", "weak", ""):
        "178477759cd642b61a1a4ac280e21b97e43f012a6626e937affc5d1fb1497ee8",
}


VARIANTS = {
    "depend_parent": binary_node_without_depend,
    "spelled_merge": spelled_merge_spec,
}


@pytest.mark.parametrize(
    "cls,level,variant",
    list(SPEC_FINGERPRINTS),
    ids=["-".join(filter(None, key)) for key in SPEC_FINGERPRINTS],
)
def test_spec_fingerprint(cls, level, variant):
    spec = VARIANTS[variant]() if variant else build_class(cls, level)
    data = spec_fingerprint(spec)
    text = json.dumps(data, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SPEC_FINGERPRINTS[
        (cls, level, variant)
    ], json.dumps(data, indent=1)


def test_spec_fingerprints_cover_every_binding():
    covered = {(cls, level) for cls, level, variant in SPEC_FINGERPRINTS if not variant}
    assert covered == {(cls, level) for cls in ALL_CLASSES for level in ("strong", "weak")}
