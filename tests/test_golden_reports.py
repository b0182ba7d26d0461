"""Pinned outputs that a behaviour-preserving change must leave identical.

Golden reports hash the session reports of a small grid of configs; they only
see the clauses that fire. The spec fingerprints hash the declared shape of
every binding (clause names and order, frames, parameters), so they also
guard clauses that never fire in those sessions.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from mbcheck.containers import ALL_CLASSES, build_class
from mbcheck.containers.bugs import bugs_for_class
from mbcheck.errors import ConfigError
from mbcheck.harness import SessionConfig, run_session, write_report

GOLDEN_REPORTS_SHA256 = "f8a014a2c32f7b30c9edf779a5efc38484f644bd9fcadeb8d221ab1a21199f8e"


def test_golden_reports(tmp_path):
    # every class x (strong, weak) x seeds 0 and 1, 2,000 calls, full bug set
    bodies = []
    for cls in ALL_CLASSES:
        bugs = tuple(e.bug_id for e in bugs_for_class(cls))
        for level in ("strong", "weak"):
            for seed in (0, 1):
                res = run_session(
                    SessionConfig(cls, level, seed, max_calls=2000, bugs=bugs)
                )
                bodies.append(write_report(tmp_path / "r.jsonl", res, timing=False))
    digest = hashlib.sha256("".join(bodies).encode()).hexdigest()
    assert digest == GOLDEN_REPORTS_SHA256


LARGE_OBJECT_REPORTS_SHA256 = "d13604a41d50a6f58ae0f077b4b4ef16d51b2a6a7ba86d3c6a649d808d27a5ba"


def test_golden_large_object_reports(tmp_path):
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
                bodies.append(write_report(tmp_path / "r.jsonl", run_session(cfg), timing=False))
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
                "params": [[p.kind, p.ref_class] for p in r.params],
                "pre": [p.name for p in r.pre],
                "post": [p.name for p in r.post],
                "frame": [p.name for p in r.frame_preds],
                "modify": None if r.modify is None else [list(m) for m in r.modify],
                "open_args": list(r.open_args),
                "returns_value": r.returns_value,
            }
            for name, r in spec.routines.items()
        ],
    }


# (class, level, builder options) -> sha256 of the fingerprint's JSON
SPEC_FINGERPRINTS = {
    ("array_stack", "strong", ()):
        "e9754e216d58e4194b228fc66abc323a1a7e2a51ebbea2a73c49812957cbfb88",
    ("array_stack", "weak", ()):
        "cbc3388a40817ae9c6515c8cd773d47c347143e9e1fa9d1aac27c5b50b506798",
    ("binary_node", "strong", ()):
        "c8683fbcc1b61ec9967035c6785977222ae850fef991d4d7775cf595ae53b0fd",
    ("binary_node", "strong", (("depend_parent", False),)):
        "cdafc8a937799ffe46c80b1e9d466e1f6f24666b4ab2811ab54a8a34943b761d",
    ("binary_node", "weak", ()):
        "c93702969575c683b4ebcdb594b426346a7f45b0fc3df5e11e99c44fc806caf0",
    ("cursor_list", "strong", ()):
        "90259b4f970594cc894bf28eb37e73dc13eb9a2c82ec37f761c9bd9916e8902e",
    ("cursor_list", "strong", (("redundant_index_clause", True),)):
        "34d375c40ccb1a668843cf574c1bc4d41ad667c77a4d7a52822be20a634cda0d",
    ("cursor_list", "weak", ()):
        "c81395792cb7da45022ea4fbe2c2f0026bd29ed90b286c620e689c033ece339b",
    ("cursor_set", "strong", ()):
        "4cd1ef02a40d33bf4f2fc3119ac1c5fdbba4cec621ebd195648c2958f38698e5",
    ("cursor_set", "weak", ()):
        "99b6f057a3d0fe7d3eec98c7dbf00a25bc75db3eea48fc3b886a9ba4f409ef4e",
    ("resizable_array", "strong", ()):
        "4feb8b83e28355e83ebff3c990eb29c01f4ee251f794cf27ec5ecb9a4b7bb0b5",
    ("resizable_array", "weak", ()):
        "08ea34fd1a523b420f85950356c12dc07b3bae49d134d41bca001585d314db63",
    ("ring_queue", "strong", ()):
        "0d82a50969467610b2a0ec976c7efe788cbf4cd62a7e58556aba79aa57486e51",
    ("ring_queue", "weak", ()):
        "e98d522c2d5417756d833874d54d1cb88c5c4f56873144dc4c783560737614b5",
    ("two_way_list", "strong", ()):
        "92288831e88e07ee0dff0a4271f3e185faaf6434c4e8e197b4bac274d9fc1013",
    ("two_way_list", "weak", ()):
        "f4c08007e2554058a3bde6c1be3b563cc13a7d462ffb0689711186f587dc9571",
}


@pytest.mark.parametrize(
    "cls,level,options",
    list(SPEC_FINGERPRINTS),
    ids=["-".join([c, lv, *(k for k, _ in o)]) for c, lv, o in SPEC_FINGERPRINTS],
)
def test_spec_fingerprint(cls, level, options):
    data = spec_fingerprint(build_class(cls, level, **dict(options)))
    text = json.dumps(data, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SPEC_FINGERPRINTS[
        (cls, level, options)
    ], json.dumps(data, indent=1)


@pytest.mark.parametrize(
    "cls,option",
    [("binary_node", ("depend_parent", False)), ("cursor_list", ("redundant_index_clause", True))],
)
def test_weak_level_rejects_strong_only_options(cls, option):
    # the weak binding has nothing the option could change
    message = "option %s applies only at level strong, not weak" % option[0]
    with pytest.raises(ConfigError, match=message):
        build_class(cls, "weak", **dict([option]))


def test_spec_fingerprints_cover_every_binding():
    covered = {(cls, level) for cls, level, options in SPEC_FINGERPRINTS if not options}
    assert covered == {(cls, level) for cls in ALL_CLASSES for level in ("strong", "weak")}
