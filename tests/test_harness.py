"""Session driver, report, and comparison behavior."""

from __future__ import annotations

import json
import os
import random
import shutil

import pytest

from mbcheck.containers import build_class, domains
from mbcheck.errors import ConfigError
from mbcheck.harness import (
    SessionConfig,
    SessionResult,
    compare_reports,
    read_report,
    render_report,
    run_session,
    write_report,
)
from mbcheck.harness import cli, compare
from mbcheck.harness.compare import throughput_ratios
from mbcheck.harness.session import _below
from mbcheck.harness.cli import main
from test_completeness_probe import ShortValuesDomain


def cfg(**kw):
    kw.setdefault("class_name", "cursor_list")
    kw.setdefault("level", "strong")
    kw.setdefault("seed", 42)
    if "wall_secs" not in kw:
        kw.setdefault("max_calls", 1500)
    return SessionConfig(**kw)


# --- config validation ----------------------------------------------------


def test_config_requires_exactly_one_budget():
    with pytest.raises(ConfigError):
        SessionConfig("cursor_list", "strong", seed=1)
    with pytest.raises(ConfigError):
        SessionConfig("cursor_list", "strong", seed=1, max_calls=10, wall_secs=1.0)


@pytest.mark.parametrize(
    "kw, message",
    [
        ({"wall_secs": float("nan")}, "wall_secs must be positive and finite"),
        ({"wall_secs": float("inf")}, "wall_secs must be positive and finite"),
        ({"max_object_size": -3}, "max_object_size must be >= 0"),
        # Random(-5) seeds exactly as Random(5) does, so compare would count
        # one session as two seeds
        ({"seed": -5}, "seed must be >= 0"),
    ],
    ids=["nan_wall_secs", "inf_wall_secs", "negative_max_object_size", "negative_seed"],
)
def test_config_rejects_unbounded_budget_and_negative_size(kw, message):
    # a nan budget never ends a session; a negative size evicts every object
    # after every call
    with pytest.raises(ConfigError, match=message):
        cfg(**kw)


@pytest.mark.parametrize(
    "kw, message",
    [
        ({"seed": None}, "seed must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"seed": "3"}, "seed must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"max_calls": True}, "max_calls must be an integer or None"),
        ({"max_calls": 2.5}, "max_calls must be an integer or None"),
        ({"alphabet": 2.5}, "alphabet must be an integer"),
        ({"pool_max": 2.5}, "pool_max must be an integer"),
        ({"max_object_size": True}, "max_object_size must be an integer"),
        ({"p_new": True}, "p_new must be a number"),
        ({"wall_secs": True}, "wall_secs must be a number or None"),
    ],
    ids=[
        "none_seed", "float_seed", "str_seed", "bool_seed", "bool_max_calls", "float_max_calls",
        "float_alphabet", "float_pool_max", "bool_max_object_size", "bool_p_new",
        "bool_wall_secs",
    ],
)
def test_config_refuses_what_a_report_cannot_hold(kw, message):
    # a None seed runs unseeded, so two runs of one config differ; a float
    # alphabet fails at the first item argument drawn; the others run to the
    # end and write a report header that read_report refuses or that holds
    # 2.5 or true where the generator wants a count or a number
    with pytest.raises(ConfigError, match=message):
        cfg(**kw)


@pytest.mark.parametrize(
    "kw, message",
    [
        ({"max_calls": 0}, "max_calls must be positive"),
        ({"p_new": 0.0}, r"p_new must be in \(0, 1\]"),
        ({"p_new": 1.5}, r"p_new must be in \(0, 1\]"),
        ({"pool_max": 0}, "pool_max must be positive"),
        ({"alphabet": 0}, "alphabet must be positive"),
    ],
    ids=["zero_max_calls", "zero_p_new", "large_p_new", "zero_pool_max", "zero_alphabet"],
)
def test_config_refuses_empty_generator_settings(kw, message):
    with pytest.raises(ConfigError, match=message):
        cfg(**kw)


def test_config_rejects_unknown_class_and_level():
    with pytest.raises(ConfigError):
        run_session(cfg(class_name="no_such_class"))
    with pytest.raises(ConfigError):
        run_session(cfg(level="medium"))


@pytest.mark.parametrize(
    "bugs, message",
    [
        (("XX-9",), "unknown bug id 'XX-9'"),
        (("QU-1",), "bug QU-1 belongs to class ring_queue, not cursor_list"),
        (("MB-1", "MB-1"), "bug id MB-1 given more than once"),
        ("MB-1", "bug ids must be a collection of ids, not the string 'MB-1'"),
    ],
    ids=["unknown", "other_class", "repeated", "bare_string"],
)
def test_config_refuses_the_bug_ids_the_cli_refuses(bugs, message):
    # a session would otherwise run and write these ids into its report header
    with pytest.raises(ConfigError, match=message):
        cfg(bugs=bugs)


# --- session mechanics ----------------------------------------------------


def test_clean_sessions_have_no_real_records_any_class():
    from mbcheck.containers import ALL_CLASSES

    for cls in ALL_CLASSES:
        for level in ("weak", "strong"):
            res = run_session(cfg(class_name=cls, level=level, max_calls=1500))
            assert res.by_classification("real") == [], (cls, level, res.records)
            assert res.calls == 1500
            assert res.valid_calls + res.invalid_calls == res.calls
            if cls != "binary_node":
                # only the node class has a protocol hole (one-sided detach)
                # that can leave records at all, and those are inconsistency
                assert res.records == [], (cls, level, res.records)


def test_same_seed_same_outcome_different_seed_differs():
    a = run_session(cfg(bugs=("MB-2",)))
    b = run_session(cfg(bugs=("MB-2",)))
    assert render_report(a) == render_report(b)
    c = run_session(cfg(bugs=("MB-2",), seed=43))
    assert render_report(a) != render_report(c)


# the first 200 draws of below(n) over Random(2012).getrandbits, a fresh
# stream for each n, one base-36 digit per draw
BELOW_DRAWS = {
    1: "0" * 200,
    2: "0110101110110110111100100101101011010111011011100100110000100000100010101100110100100011001110001010"
       "0110010101010101101111000010100000011001000100001000000110111110111110010000001100011001111110111110",
    3: "0110120221110110110122221212120010010110101102122012212102110112212001001100002100020222022210222200"
       "2120122012122022011220102012200012120011122022001201022021221202012012201220101011201211212000021022",
    4: "0321202230231321322201300312312133021323132033211301330100201000300121312210230300201023003230113131"
       "1331131303131212312233010021211011132103100300103010001220322331332321120001002301022002333230232320",
    6: "0321240442230231321354442424240130031231213304245134425314320335524113013301004201040455054530454501"
       "5251344125245154023550304024501025350032355045113513155143443514134134403441312123512523434010042155",
    13: "17535908945714637426a99948594903cc6006256352671948a26885b72965c077bbc492271277020185c0208c09ab1b8b61"
        "8a8b03ca5a368834a49b2b8056ccbb1609148b0204b6ac10747ba09b326cb262ab2869c87b38369279906892625357b34a5c",
    21: "3fb6ai0gj9af38d6f95dkiii9hbi9j06d01d5bc6b4df3i8h4dggae4idb1ee8i44e24ff0413ga040h1ik3gd3gkh07kb7dgg79"
        "8i4h0ac2c1j39h0408d21e8e1j74c4c5k5gcihe6h7ci5fij0dhi5d5b6be79kaejfg2621g94b640i55j6db40ke710fj13kh50",
}


@pytest.mark.parametrize("n", sorted(BELOW_DRAWS))
def test_below_draws_are_pinned(n):
    # every report hash rests on this stream, so it is pinned here rather
    # than compared with whatever the running interpreter's randrange does
    below = _below(random.Random(2012).getrandbits)
    assert [below(n) for _ in range(200)] == [int(c, 36) for c in BELOW_DRAWS[n]]


def test_below_one_is_zero_and_still_draws_a_bit_until_zero():
    # no shortcut for n == 1: it consumes one-bit draws exactly as the
    # rejection rule does, so later draws stay where they were
    script = [1, 1, 0, 0, 1, 0]
    seen = []

    def getrandbits(k):
        seen.append(k)
        return script.pop(0)

    below = _below(getrandbits)
    assert [below(1), below(1), below(1)] == [0, 0, 0]
    assert seen == [1] * 6
    assert script == []


@pytest.mark.parametrize("n", [0, -1, -21])
def test_below_refuses_an_empty_range(n):
    # getrandbits(0) is always 0, so without the check below(0) never returns
    below = _below(random.Random(0).getrandbits)
    with pytest.raises(ValueError):
        below(n)


def test_levels_see_the_same_generated_calls():
    # same seed, same class: the call sequence is level-independent, so the
    # valid/invalid split matches exactly
    a = run_session(cfg(level="weak"))
    b = run_session(cfg(level="strong"))
    assert (a.valid_calls, a.invalid_calls) == (b.valid_calls, b.invalid_calls)


def test_wall_budget_stops_near_deadline():
    res = run_session(cfg(max_calls=None, wall_secs=0.15))
    assert res.calls > 0
    assert res.wall_s < 1.0


def test_dedup_counts_repeats_and_keeps_first_ordinal():
    res = run_session(cfg(class_name="ring_queue", bugs=("QU-1",), max_calls=3000))
    recs = [r for r in res.records if r.matched_bug == "QU-1"]
    assert len(recs) == 1
    assert recs[0].count > 1
    assert recs[0].first_call <= res.calls
    assert res.series and res.series[0][0] == recs[0].first_call


def test_series_is_cumulative_and_monotone():
    res = run_session(
        cfg(class_name="cursor_list", bugs=("MB-1", "MB-2", "LD-1"), max_calls=20000)
    )
    assert [n for _, n in res.series] == list(range(1, len(res.series) + 1))
    ordinals = [o for o, _ in res.series]
    assert ordinals == sorted(ordinals)
    assert len(res.series) >= 3


def test_quarantine_evicts_corrupt_objects():
    # with SR-1 the corrupted sets leave the pool at the violation (strong) or
    # on the first tainted touch (weak), so records stay bounded
    strong = run_session(cfg(class_name="cursor_set", bugs=("SR-1",), max_calls=8000))
    weak = run_session(
        cfg(class_name="cursor_set", level="weak", bugs=("SR-1",), max_calls=8000)
    )
    assert strong.detected_bugs() == ["SR-1"]
    assert weak.detected_bugs() == []
    # weak sees only inconsistency fallout, every bit of it labeled as the
    # analogue of the seeded bug or ghost-tainted
    assert weak.by_classification("real") == []
    for r in weak.records:
        assert r.classification == "inconsistency"


def test_experimental_clause_yields_suspect_records():
    res = run_session(cfg(class_name="binary_node", max_calls=12000))
    suspects = res.by_classification("specification_suspect")
    assert suspects, "cycle attempts should trip the experimental clause"
    assert {r.clause for r in suspects} == {"no_cycle"}
    assert res.by_classification("real") == []


def test_weak_binary_node_builds_cycles_without_crashing():
    # without the experimental guard a cycle can actually form; sessions must
    # survive it (bounded traversals) and stay silent on correct code
    res = run_session(cfg(class_name="binary_node", level="weak", max_calls=12000))
    assert res.records == []


# --- reports --------------------------------------------------------------


def test_report_round_trip(tmp_path):
    res = run_session(cfg(bugs=("MB-2",), max_calls=2500))
    path = tmp_path / "r.jsonl"
    write_report(path, res)
    rep = read_report(path)
    assert rep["header"]["class"] == "cursor_list"
    assert rep["header"]["level"] == "strong"
    assert rep["header"]["bugs"] == ["MB-2"]
    assert rep["summary"]["calls"] == 2500
    assert rep["summary"]["detected_bugs"] == ["MB-2"]
    [fault] = [f for f in rep["faults"] if f["matched_bug"] == "MB-2"]
    assert fault["violation"] == "frame"
    assert fault["clause"] == "unchanged:target.index"
    timing = json.loads((tmp_path / "r.jsonl.timing").read_text())
    assert set(timing) == {"cpu_s", "wall_s"}
    assert timing["cpu_s"] > 0


def test_wall_budget_report_reads_back_and_sets_the_curve_budget(tmp_path):
    res = run_session(cfg(max_calls=None, wall_secs=0.05))
    path = tmp_path / "r.jsonl"
    write_report(path, res)
    rep = read_report(path)
    assert rep["header"]["budget"] == {"wall_secs": 0.05}
    # with no call budget, the curve runs to the calls the session made
    curve = compare_reports([path])["curves"]["strong"]
    assert curve[-1][0] == rep["summary"]["calls"] == res.calls > 0


def test_report_bytes_exclude_wall_clock(tmp_path):
    res1 = run_session(cfg(bugs=("LD-1",), max_calls=4000))
    res2 = run_session(cfg(bugs=("LD-1",), max_calls=4000))
    res2.wall_s = res1.wall_s * 10 + 1.0  # wildly different wall time
    assert render_report(res1) == render_report(res2)


def test_read_report_rejects_garbage(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"kind":"mystery"}\n')
    with pytest.raises(ConfigError):
        read_report(p)
    p.write_text("")
    with pytest.raises(ConfigError):
        read_report(p)


def test_cli_compare_non_utf8_report_is_a_config_error(tmp_path, capsys):
    p = tmp_path / "r.jsonl"
    p.write_bytes(b"\xff\xfe" + json.dumps(GOOD_HEADER).encode())
    assert main(["compare", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s is not UTF-8 text" % p)


# --- comparison -----------------------------------------------------------


@pytest.fixture(scope="module")
def report_batch(tmp_path_factory):
    base = tmp_path_factory.mktemp("reports")
    paths = []
    for cls, bugs in (("cursor_list", ("MB-1", "MB-2")), ("ring_queue", ("QU-1",))):
        for level in ("weak", "strong"):
            for seed in (1, 2):
                res = run_session(
                    SessionConfig(cls, level, seed=seed, max_calls=6000, bugs=bugs)
                )
                p = base / ("%s-%s-%d.jsonl" % (cls, level, seed))
                write_report(p, res)
                paths.append(p)
    return paths


def test_compare_partitions_by_level(report_batch):
    cmp_ = compare_reports(report_batch)
    assert cmp_["detected"]["strong"] == ["MB-1", "MB-2", "QU-1"]
    assert cmp_["detected"]["weak"] == ["MB-2", "QU-1"]
    assert cmp_["partition"]["strong_only"] == ["MB-1"]
    assert cmp_["partition"]["weak_only"] == []
    assert cmp_["partition"]["shared"] == ["MB-2", "QU-1"]
    assert cmp_["classes"] == ["cursor_list", "ring_queue"]
    assert cmp_["seeds"] == [1, 2]


def test_compare_curves_are_monotone_grids(report_batch):
    cmp_ = compare_reports(report_batch)
    for level in ("weak", "strong"):
        curve = cmp_["curves"][level]
        assert curve[0][0] == 0
        assert curve[-1][0] == 6000
        values = [v for _, v in curve]
        assert values == sorted(values)
    assert cmp_["curves"]["strong"][-1][1] >= cmp_["curves"]["weak"][-1][1]


def test_compare_is_deterministic(report_batch):
    a = json.dumps(compare_reports(report_batch), sort_keys=True)
    b = json.dumps(compare_reports(report_batch), sort_keys=True)
    assert a == b


def test_compare_refuses_a_report_given_twice(report_batch, monkeypatch, capsys):
    # counted twice, a report would double every figure of its level
    first = report_batch[0]
    monkeypatch.chdir(first.parent)
    again = os.path.join("..", first.parent.name, ".", first.name)
    with pytest.raises(ConfigError, match="given twice"):
        compare_reports([first, *report_batch[1:], again])
    assert main(["compare", str(first), first.name]) == 2
    assert capsys.readouterr().err == "error: report %s is given twice\n" % first.name
    assert compare_reports(report_batch)["reports"] == len(report_batch)


def test_throughput_ratios_refuse_a_report_given_twice(report_batch):
    # counted twice, a report's rate would move its level's median
    first = report_batch[0]
    with pytest.raises(ConfigError, match="given twice"):
        throughput_ratios([first, first, *report_batch[1:]])


def test_cli_compare_reads_each_report_once(report_batch, monkeypatch, tmp_path):
    read = []

    def counting_read_report(path):
        read.append(path)
        return read_report(path)

    monkeypatch.setattr(compare, "read_report", counting_read_report)
    out = tmp_path / "cmp.json"
    assert main(["compare", "--out", str(out), *map(str, report_batch[:2])]) == 0
    assert read == [str(p) for p in report_batch[:2]]


def test_throughput_ratios_cover_both_level_classes(report_batch):
    ratios = throughput_ratios(report_batch)
    assert set(ratios) == {"cursor_list", "ring_queue"}
    for v in ratios.values():
        assert v > 0


def _with_sidecars(report_batch, tmp_path, rates):
    """Copies of the batch's reports whose sidecars give each (class, level)
    the rates in ``rates``: ``(wall calls/s, CPU calls/s)``."""
    paths = []
    for src in report_batch:
        dst = tmp_path / src.name
        shutil.copy(src, dst)
        h = read_report(dst)["header"]
        wall, cpu = rates[(h["class"], h["level"])]
        timing = {"cpu_s": 6000 / cpu, "wall_s": 6000 / wall}
        (tmp_path / (src.name + ".timing")).write_text(json.dumps(timing))
        paths.append(dst)
    return paths


# wall and CPU ratios differ for both classes: cursor_list 1.0 and 4.0,
# ring_queue 3.0 and 1.5
RATES = {
    ("cursor_list", "weak"): (100.0, 200.0),
    ("cursor_list", "strong"): (100.0, 50.0),
    ("ring_queue", "weak"): (300.0, 90.0),
    ("ring_queue", "strong"): (100.0, 60.0),
}


def test_throughput_ratios_prefer_cpu_time(report_batch, tmp_path):
    # the ratios are the CPU ones; the sidecars' wall times are ignored
    paths = _with_sidecars(report_batch, tmp_path, RATES)
    assert throughput_ratios(paths) == pytest.approx({"cursor_list": 4.0, "ring_queue": 1.5})


@pytest.mark.parametrize(
    "calls, cpu_s", [(500, 0.0), (0, 0.5)], ids=["zero_cpu_s", "zero_calls"]
)
def test_throughput_ratios_leave_out_zero_rates(report_batch, tmp_path, calls, cpu_s):
    # a coarse process clock reads cpu_s 0, and a tiny wall_secs budget can
    # end a session before its first call. Two such reports would halve the
    # median of the level they join, and weak ones alone would give their
    # class a ratio of 0, so they are left out as reports without a sidecar are
    paths = _with_sidecars(report_batch, tmp_path, RATES)
    zero_rated = [("cursor_list", "weak"), ("ring_queue", "strong"), ("array_stack", "weak")]
    extra = [("array_stack", "strong", 100, 1.0)] + [
        (cls, level, calls, cpu_s) for cls, level in zero_rated for _ in range(2)
    ]
    for n, (cls, level, c, t) in enumerate(extra):
        p = tmp_path / ("extra-%d.jsonl" % n)
        res = SessionResult(SessionConfig(cls, level, seed=n, wall_secs=1.0), calls=c, cpu_s=t)
        write_report(p, res)
        paths.append(p)
    assert throughput_ratios(paths) == pytest.approx({"cursor_list": 4.0, "ring_queue": 1.5})


# --- CLI ------------------------------------------------------------------


def test_cli_run_clean_exits_zero(tmp_path, capsys):
    rep = tmp_path / "clean.jsonl"
    code = main(
        [
            "run", "--class", "array_stack", "--spec", "strong",
            "--seed", "5", "--max-calls", "800", "--report", str(rep),
        ]
    )
    assert code == 0
    assert rep.exists()
    assert "detected: -" in capsys.readouterr().out


def test_cli_run_with_bug_exits_one_and_is_deterministic(tmp_path):
    argv = [
        "run", "--class", "cursor_list", "--spec", "strong",
        "--seed", "9", "--max-calls", "4000", "--bugs", "MB-1,MB-2",
    ]
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert main(argv + ["--report", str(a)]) == 1
    assert main(argv + ["--report", str(b)]) == 1
    assert a.read_bytes() == b.read_bytes()


def test_cli_run_generator_defaults_are_the_session_defaults(tmp_path, capsys):
    argv = [
        "run", "--class", "cursor_list", "--spec", "strong",
        "--seed", "9", "--max-calls", "1500", "--bugs", "MB-1",
    ]
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    main(argv + ["--report", str(a)])
    main(
        argv
        + ["--p-new", "0.2", "--pool-max", "6", "--alphabet", "4",
           "--max-object-size", "16", "--report", str(b)]
    )
    assert a.read_bytes() == b.read_bytes()


def test_cli_run_to_stdout(capsys):
    code = main(
        ["run", "--class", "ring_queue", "--spec", "weak", "--seed", "3", "--max-calls", "500"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = [json.loads(x) for x in out.strip().splitlines()]
    assert lines[0]["kind"] == "header"
    assert lines[-1]["kind"] == "summary"


def test_cli_rejects_bad_config(capsys):
    assert main(["run", "--class", "cursor_list", "--spec", "strong", "--seed", "1"]) == 2
    assert (
        main(
            ["run", "--class", "cursor_list", "--spec", "strong", "--seed", "1",
             "--max-calls", "10", "--bugs", "XX-9"]
        )
        == 2
    )
    # a bug id from another class is a config error, not a silent no-op
    assert (
        main(
            ["run", "--class", "cursor_list", "--spec", "strong", "--seed", "1",
             "--max-calls", "10", "--bugs", "QU-1"]
        )
        == 2
    )
    # a repeated id would make the report header differ from the same session
    # seeded once
    assert (
        main(
            ["run", "--class", "cursor_list", "--spec", "strong", "--seed", "1",
             "--max-calls", "10", "--bugs", "MB-1,MB-1"]
        )
        == 2
    )
    assert "MB-1 given more than once" in capsys.readouterr().err
    assert (
        main(
            ["run", "--class", "cursor_list", "--spec", "strong", "--seed", "-1",
             "--max-calls", "10"]
        )
        == 2
    )
    assert "error: seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case",
    [
        "missing_directory",
        "path_is_a_directory",
        "path_under_proc",
        "timing_sidecar_is_a_directory",
    ],
)
def test_cli_run_missing_report_directory_fails_before_the_session(
    tmp_path, capsys, monkeypatch, case
):
    def no_session(cfg):
        raise AssertionError("the session ran before the report path was checked")

    monkeypatch.setattr(cli, "run_session", no_session)
    missing = tmp_path / "missing"
    if case == "missing_directory":
        report = missing / "r.jsonl"
        message = "[Errno 2] No such file or directory: '%s'" % report
    elif case == "path_is_a_directory":
        report = tmp_path
        message = "[Errno 21] Is a directory: '%s'" % tmp_path
    elif case == "timing_sidecar_is_a_directory":
        # the report can be made, but its timing sidecar cannot
        report = tmp_path / "r.jsonl"
        (tmp_path / "r.jsonl.timing").mkdir()
        message = "[Errno 21] Is a directory: '%s.timing'" % report
    else:
        # the directory exists, but no file can be made in it
        if not os.path.isdir("/proc"):
            pytest.skip("no /proc on this system")
        report = "/proc/x.jsonl"
        message = None
    code = main(
        ["run", "--class", "cursor_list", "--spec", "strong", "--seed", "1",
         "--max-calls", "200000", "--report", str(report)]
    )
    assert code == 2
    err = capsys.readouterr().err
    if message is None:
        assert err.startswith("error: [Errno ") and "'/proc/x.jsonl'" in err
    else:
        assert err == "error: %s\n" % message
    assert not missing.exists()


def test_cli_run_report_path_check_keeps_an_existing_report(tmp_path, monkeypatch):
    def failed_session(cfg):
        raise ConfigError("the session failed")

    monkeypatch.setattr(cli, "run_session", failed_session)
    report = tmp_path / "r.jsonl"
    report.write_text("kept\n")
    code = main(
        ["run", "--class", "cursor_list", "--spec", "strong", "--seed", "1",
         "--max-calls", "10", "--report", str(report)]
    )
    assert code == 2
    assert report.read_text() == "kept\n"


def test_cli_compare_end_to_end(tmp_path, capsys):
    paths = []
    for level in ("weak", "strong"):
        p = tmp_path / ("%s.jsonl" % level)
        assert main(
            ["run", "--class", "two_way_list", "--spec", level, "--seed", "4",
             "--max-calls", "3000", "--bugs", "TW-1,TW-2", "--report", str(p)]
        ) == 1
        paths.append(str(p))
    capsys.readouterr()
    out_path = tmp_path / "cmp.json"
    assert main(["compare", *paths, "--out", str(out_path)]) == 0
    cmp_ = json.loads(out_path.read_text())
    assert cmp_["partition"]["strong_only"] == ["TW-1"]
    assert cmp_["partition"]["shared"] == ["TW-2"]
    timing = json.loads((tmp_path / "cmp.json.timing").read_text())
    assert timing["weak_over_strong_speed"]["two_way_list"] > 0


def test_cli_compare_without_reports_is_a_config_error(capsys):
    assert main(["compare"]) == 2
    assert capsys.readouterr().err == "error: no reports to compare\n"


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda body: body[: len(body) - 20], "not valid JSON"),  # cut mid-line
        (lambda body: body + "[1]\n", "not a JSON object"),
    ],
)
def test_cli_compare_malformed_report_line_is_a_config_error(tmp_path, capsys, damage, message):
    p = tmp_path / "r.jsonl"
    main(
        ["run", "--class", "cursor_set", "--spec", "strong", "--seed", "2",
         "--max-calls", "200", "--report", str(p)]
    )
    p.write_text(damage(p.read_text()))
    capsys.readouterr()
    assert main(["compare", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "rows, message",
    [
        ([{"kind": "header"}, {"kind": "summary"}], "header lacks class, level, seed, budget"),
        ([{"kind": "header", "format": 1, "class": "cursor_list", "level": "strong",
           "seed": 1, "budget": {"max_calls": 10}}, {"kind": "summary", "calls": 10}],
         "summary lacks detected_bugs, unique_real, records"),
        ([{"kind": "header", "format": 1, "class": "cursor_list", "level": "strong",
           "seed": 1, "budget": 10}, {"kind": "summary", "calls": 10, "detected_bugs": [],
                                      "unique_real": 0, "records": {}}],
         "header budget must be a JSON object"),
        ([{"kind": "header"}, {"kind": "series"}], "series lacks points"),
        ([{"kind": "series", "points": 5}], "series points must be a JSON array"),
        ([{"kind": "header", "format": 1, "class": "cursor_list", "level": "strong",
           "seed": 1, "budget": {}}, {"kind": "summary", "calls": 10, "detected_bugs": 5,
                                      "unique_real": 0, "records": {}}],
         "summary detected_bugs must be a JSON array"),
    ],
)
def test_cli_compare_report_bad_fields_is_a_config_error(tmp_path, capsys, rows, message):
    p = tmp_path / "r.jsonl"
    p.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert main(["compare", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and str(p) in err


GOOD_HEADER = {"kind": "header", "format": 1, "class": "cursor_list", "level": "strong",
               "seed": 1, "budget": {"max_calls": 10}}
GOOD_SUMMARY = {"kind": "summary", "calls": 10, "detected_bugs": [], "unique_real": 0,
                "records": {}}


@pytest.mark.parametrize(
    "rows, message",
    [
        ([GOOD_HEADER, {"kind": "series", "points": [5]}, GOOD_SUMMARY],
         "series points must be [integer, integer] pairs"),
        ([GOOD_HEADER, dict(GOOD_SUMMARY, records={"real": "x"})],
         "summary records counts must be integers"),
        ([GOOD_HEADER, dict(GOOD_SUMMARY, detected_bugs=[1, "a"])],
         "summary detected_bugs must be strings"),
        ([dict(GOOD_HEADER, budget={"max_calls": "10"}), GOOD_SUMMARY],
         "header budget max_calls must be a JSON integer or null"),
        # the format this version writes, and no other
        ([{k: v for k, v in GOOD_HEADER.items() if k != "format"}, GOOD_SUMMARY],
         "header lacks format"),
        ([dict(GOOD_HEADER, format="1"), GOOD_SUMMARY], "header format must be a JSON integer"),
        ([dict(GOOD_HEADER, format=99), GOOD_SUMMARY], "header format must be 1"),
        ([dict(GOOD_HEADER, format=True), GOOD_SUMMARY], "header format must be a JSON integer"),
        # a JSON boolean is not an integer
        ([GOOD_HEADER, dict(GOOD_SUMMARY, calls=True)], "summary calls must be a JSON integer"),
        ([dict(GOOD_HEADER, seed=False), GOOD_SUMMARY], "header seed must be a JSON integer"),
        ([dict(GOOD_HEADER, budget={"max_calls": True}), GOOD_SUMMARY],
         "header budget max_calls must be a JSON integer or null"),
        ([GOOD_HEADER, dict(GOOD_SUMMARY, records={"real": True})],
         "summary records counts must be integers"),
        ([GOOD_HEADER, {"kind": "series", "points": [[1, False]]}, GOOD_SUMMARY],
         "series points must be [integer, integer] pairs"),
        # one row of each kind; the last one no longer wins
        ([GOOD_HEADER, GOOD_HEADER, GOOD_SUMMARY], "line 2 is a second header row"),
        ([GOOD_HEADER, GOOD_SUMMARY, GOOD_SUMMARY], "line 3 is a second summary row"),
        ([GOOD_HEADER, {"kind": "series", "points": []}, {"kind": "series", "points": []},
          GOOD_SUMMARY], "line 3 is a second series row"),
    ],
)
def test_cli_compare_report_bad_elements_is_a_config_error(tmp_path, capsys, rows, message):
    p = tmp_path / "r.jsonl"
    p.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert main(["compare", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and str(p) in err


@pytest.mark.parametrize(
    "sidecar, code, message",
    [
        (None, 0, ""),  # a missing sidecar is skipped
        ("{not json", 2, "not valid JSON"),
        ("[1]", 2, "not a JSON object"),
        ('{"wall_s": 1.0, "cpu_s": "slow"}', 2, "cpu_s must be a JSON number"),
        ('{"wall_s": 1.0, "cpu_s": true}', 2, "cpu_s must be a JSON number"),
        ('{"wall_s": 1.0, "cpu_s": null}', 2, "cpu_s must be a JSON number"),
        ('{"wall_s": 1.0}', 2, "cpu_s must be a JSON number"),
        # json reads NaN and Infinity, which no CPU time can be
        ('{"wall_s": 1.0, "cpu_s": NaN}', 2, "cpu_s must be finite and non-negative"),
        ('{"wall_s": 1.0, "cpu_s": Infinity}', 2, "cpu_s must be finite and non-negative"),
        ('{"wall_s": 1.0, "cpu_s": -1}', 2, "cpu_s must be finite and non-negative"),
        ('{"wall_s": 1.0, "cpu_s": 0}', 0, ""),  # a coarse process clock may read 0
    ],
    ids=[
        "missing",
        "not_json",
        "list",
        "text_cpu_s",
        "bool_cpu_s",
        "null_cpu_s",
        "no_cpu_s",
        "nan_cpu_s",
        "inf_cpu_s",
        "negative_cpu_s",
        "zero_cpu_s",
    ],
)
def test_cli_compare_timing_sidecar_missing_or_malformed(tmp_path, capsys, sidecar, code, message):
    p = tmp_path / "r.jsonl"
    main(
        ["run", "--class", "cursor_set", "--spec", "strong", "--seed", "2",
         "--max-calls", "200", "--report", str(p)]
    )
    timing = tmp_path / "r.jsonl.timing"
    if sidecar is None:
        timing.unlink()
    else:
        timing.write_text(sidecar)
    capsys.readouterr()
    assert main(["compare", str(p)]) == code
    if code:
        err = capsys.readouterr().err
        assert err.startswith("error: %s" % timing) and message in err


def test_cli_compare_unreadable_timing_sidecar_is_an_error(tmp_path, capsys):
    # a sidecar that exists but cannot be read is not a missing one
    p = tmp_path / "r.jsonl"
    main(
        ["run", "--class", "cursor_set", "--spec", "strong", "--seed", "2",
         "--max-calls", "200", "--report", str(p)]
    )
    timing = tmp_path / "r.jsonl.timing"
    timing.unlink()
    timing.mkdir()
    out = tmp_path / "cmp.json"
    capsys.readouterr()
    assert main(["compare", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(timing) in err
    assert not out.exists()


def test_cli_compare_unknown_level_is_a_config_error(tmp_path, capsys):
    p = tmp_path / "r.jsonl"
    rows = [dict(GOOD_HEADER, level="medium"), GOOD_SUMMARY]
    p.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert main(["compare", str(p)]) == 2
    assert capsys.readouterr().err == "error: unknown level 'medium' in reports\n"


def test_cli_probe_unknown_routine_is_a_config_error(capsys):
    assert main(["probe", "--class", "cursor_list", "--routine", "nope"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: cursor_list has no routine 'nope' at level strong\n"
    assert captured.out == ""


def test_cli_probe_prints_a_void_reference_argument():
    routine = build_class("cursor_list", "weak").routines["merge_right"]
    assert cli._fmt_args(routine, (None,)) == "(void)"
    assert cli._fmt_args(routine, (domains.REF_ARG,)) == "(<ref arg0>)"


def test_cli_probe_witness_prints_plain_arguments(capsys):
    # weak cursor_list.replace leaves the cursor free; its one argument is an
    # item, printed as its value
    assert main(
        ["probe", "--class", "cursor_list", "--routine", "replace", "--spec", "weak"]
    ) == 1
    out = capsys.readouterr().out
    assert "ambiguous pre-state:" in out
    assert "args=(0)" in out and "<ref" not in out
    # a reference argument still prints as a placeholder
    assert main(
        ["probe", "--class", "cursor_list", "--routine", "merge_right",
         "--spec", "weak", "--max-len", "2"]
    ) == 1
    assert "args=(<ref arg0>)" in capsys.readouterr().out


def test_cli_probe_verdict_exit_codes(capsys):
    assert main(
        ["probe", "--class", "cursor_list", "--routine", "merge_right", "--max-len", "2"]
    ) == 0
    # pre-states passing the precondition, and those of them searched
    assert capsys.readouterr().out == (
        "cursor_list.merge_right [strong]: complete (408 pre-states, 119 searched)\n"
    )
    assert main(
        ["probe", "--class", "cursor_list", "--routine", "merge_right",
         "--spec", "weak", "--max-len", "2"]
    ) == 1
    # the witness as README shows it: target first, then the argument role
    assert capsys.readouterr().out == (
        "cursor_list.merge_right [weak]: incomplete (1 pre-states, 1 searched)\n"
        "ambiguous pre-state: target{index=0, sequence=[]}; "
        "arg0{index=0, sequence=[]} args=(<ref arg0>)\n"
        "  admitted exit: target{index=0, sequence=[]}; "
        "arg0{index=0, sequence=[]} result=None\n"
        "  admitted exit: target{index=0, sequence=[]}; "
        "arg0{index=1, sequence=[]} result=None\n"
    )
    assert main(["probe", "--class", "binary_node", "--routine", "set_left"]) == 2


def test_cli_probe_weak_forth_at_a_larger_bound(capsys):
    # 88,573 candidate sequences x 12 cursors; the search stops at its
    # second admitted exit, having filtered only the candidates it reached
    argv = ["probe", "--class", "two_way_list", "--routine", "forth", "--spec", "weak",
            "--max-len", "5", "--alphabet", "3"]
    assert main(argv) == 1
    assert capsys.readouterr().out == (
        "two_way_list.forth [weak]: incomplete (1 pre-states, 1 searched)\n"
        "ambiguous pre-state: target{index=0, sequence=[]} args=()\n"
        "  admitted exit: target{index=1, sequence=[]} result=None\n"
        "  admitted exit: target{index=1, sequence=[0]} result=None\n"
    )


def test_cli_probe_inconclusive_exits_0(capsys, monkeypatch):
    # with candidates no longer than the pre-states, strong merge_right's
    # spliced sequence has no candidate; that is no proof of incompleteness
    monkeypatch.setattr(cli, "SequenceDomain", ShortValuesDomain)
    assert main(["probe", "--class", "cursor_list", "--routine", "merge_right"]) == 0
    out = capsys.readouterr().out
    assert "inconclusive" in out and "no admissible post-state" in out
    assert "admitted exit" not in out


def test_cli_probe_skips_states_the_model_invariants_forbid(capsys):
    # cursor_set's model invariant rules out repeated elements, so a state
    # such as sequence=[0, 0] is no pre-state, with or without --unique
    outs = []
    for extra in ([], ["--unique"]):
        assert main(["probe", "--class", "cursor_set", "--routine", "extend"] + extra) == 0
        outs.append(capsys.readouterr().out)
    assert outs == ["cursor_set.extend [strong]: complete (32 pre-states, 22 searched)\n"] * 2


@pytest.mark.parametrize("bound", [["--max-len", "0"], ["--alphabet", "0"], ["--max-len", "-1"]])
def test_cli_probe_rejects_empty_bounds(capsys, bound):
    # an empty domain would otherwise report "no admissible post-state"
    assert main(["probe", "--class", "cursor_list", "--routine", "extend"] + bound) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "at least 1" in captured.err
    assert "admissible" not in captured.out


def test_cli_probe_rejects_bounds_too_large_to_enumerate(capsys, monkeypatch):
    # the domain must refuse before building any sequence
    def no_enumeration(*a, **kw):
        raise AssertionError("sequences enumerated")

    monkeypatch.setattr(domains, "_all_seqs", no_enumeration)
    for bound in (
        # value sequences up to 16 elements, about 5.7e9 of them
        ["--max-len", "8", "--alphabet", "4"],
        # 2,001 sequences, but 2.0M elements and 502,502 role states
        ["--max-len", "1000", "--alphabet", "1"],
        # 200,001 sequences of about 2e10 elements
        ["--max-len", "100000", "--alphabet", "1"],
    ):
        argv = ["probe", "--class", "cursor_list", "--routine", "merge_right"] + bound
        assert main(argv) == 2, bound
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "candidate sequences" in captured.err
        assert captured.out == ""


def test_cli_probe_refuses_frame_over_missing_query(capsys):
    # the strong resizable_array frames "lower", which the sequence domain
    # does not model
    assert main(["probe", "--class", "resizable_array", "--routine", "item_count"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not abstractly evaluable" in err


def test_cli_probe_refuses_a_class_without_a_sequence_model(capsys):
    assert main(["probe", "--class", "binary_node", "--routine", "set_left"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sequence containers" in err


def test_cli_bugs_dump(capsys):
    assert main(["bugs"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["bugs"]) == 12
