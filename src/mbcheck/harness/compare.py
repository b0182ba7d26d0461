"""Cross-binding comparison over a batch of session reports.

Takes the reports from matched weak/strong runs (same classes, same seeds,
same budgets), partitions the detected catalog bugs by which binding caught
them, and builds median detection curves. Everything here derives from the
stable report bodies, so comparing the same reports twice gives identical
output; throughput ratios live in a sidecar because they come from the
reports' timing sidecars.
"""

from __future__ import annotations

import json
import os
from statistics import median

from mbcheck.errors import ConfigError
from mbcheck.containers import bugs as _bugs
from mbcheck.harness.reports import read_report, read_timing

GRID_POINTS = 21


def _step_value(points, t):
    # points is [(ordinal, cumulative)], ascending; value at call t
    v = 0
    for o, c in points:
        if o > t:
            break
        v = c
    return v


def _curve(series_by_class, budget, grid_points):
    """Sum per-class cumulative step functions, sampled on a fixed grid."""
    grid = [round(i * budget / (grid_points - 1)) for i in range(grid_points)]
    return [[t, sum(_step_value(s, t) for s in series_by_class)] for t in grid]


def read_reports(paths):
    """``(path, report)`` for each path, each report read once. A report
    given twice, under any spelling of its path, is refused: counted twice
    it would double every figure of its level."""
    seen = set()
    for p in paths:
        where = os.path.abspath(p)  # normalised, without touching the file
        if where in seen:
            raise ConfigError("report %s is given twice" % (p,))
        seen.add(where)
    return [(p, read_report(p)) for p in paths]


def compare_reports(paths):
    return compare_runs(read_reports(paths))


def throughput_ratios(paths):
    return run_throughput_ratios(read_reports(paths))


def compare_runs(runs):
    """The comparison of ``runs``, as ``read_reports`` returns them."""
    runs = [rep for _, rep in runs]
    if not runs:
        raise ConfigError("no reports to compare")

    levels = {}
    for rep in runs:
        h = rep["header"]
        levels.setdefault(h["level"], []).append(rep)
    for level in levels:
        if level not in ("weak", "strong"):
            raise ConfigError("unknown level %r in reports" % (level,))

    detected = {}
    unique_real = {}
    record_totals = {}
    for level, reps in sorted(levels.items()):
        ids = set()
        totals = {}
        unique = 0
        for rep in reps:
            s = rep["summary"]
            ids.update(s["detected_bugs"])
            unique += s["unique_real"]
            for cls, n in s["records"].items():
                totals[cls] = totals.get(cls, 0) + n
        detected[level] = sorted(ids)
        unique_real[level] = unique
        record_totals[level] = totals

    strong = set(detected.get("strong", ()))
    weak = set(detected.get("weak", ()))

    curves = {}
    for level, reps in sorted(levels.items()):
        by_seed = {}
        budget = 0
        for rep in reps:
            h = rep["header"]
            b = h["budget"].get("max_calls") or rep["summary"]["calls"]
            budget = max(budget, b)
            by_seed.setdefault(h["seed"], []).append(rep["series"])
        if budget == 0:
            curves[level] = []
            continue
        per_seed = {
            seed: _curve(series_list, budget, GRID_POINTS)
            for seed, series_list in by_seed.items()
        }
        grid = [t for t, _ in next(iter(per_seed.values()))]
        curves[level] = [
            [t, median(per_seed[seed][i][1] for seed in per_seed)]
            for i, t in enumerate(grid)
        ]

    expected = {
        "strong": sorted(_bugs.detectable_at("strong")),
        "weak": sorted(_bugs.detectable_at("weak")),
    }
    out = {
        "classes": sorted({r["header"]["class"] for r in runs}),
        "seeds": sorted({r["header"]["seed"] for r in runs}),
        "reports": len(runs),
        "detected": detected,
        "partition": {
            "strong_only": sorted(strong - weak),
            "weak_only": sorted(weak - strong),
            "shared": sorted(strong & weak),
        },
        "expected": expected,
        "missed": {
            lv: sorted(set(expected[lv]) - set(detected.get(lv, ())))
            for lv in ("strong", "weak")
        },
        "unexpected": {
            lv: sorted(set(detected.get(lv, ())) - set(expected[lv]))
            for lv in ("strong", "weak")
        },
        "unique_real": unique_real,
        "record_totals": record_totals,
        "curves": curves,
    }
    return out


def run_throughput_ratios(runs):
    """class -> median weak calls per CPU second over median strong calls per
    CPU second (how many times faster weak checking runs), from the timing
    sidecars of ``runs``, as ``read_reports`` returns them. Reports without
    a sidecar, reports whose calls or sidecar ``cpu_s`` is 0 (a coarse
    process clock can read 0), and classes missing either level are
    skipped; a sidecar that exists but cannot be read raises OSError."""
    rates = {}
    for p, rep in runs:
        h = rep["header"]
        try:
            cpu_s = read_timing(p)["cpu_s"]
        except FileNotFoundError:
            continue
        calls = rep["summary"]["calls"]
        if calls > 0 and cpu_s > 0:
            rates.setdefault(h["class"], {}).setdefault(h["level"], []).append(calls / cpu_s)
    out = {}
    for cls, by_level in sorted(rates.items()):
        if "weak" in by_level and "strong" in by_level:
            out[cls] = median(by_level["weak"]) / median(by_level["strong"])
    return out


def write_comparison(path, cmp_result, ratios):
    with open(path, "w") as f:
        f.write(json.dumps(cmp_result, sort_keys=True, indent=2) + "\n")
    with open(str(path) + ".timing", "w") as f:
        f.write(json.dumps({"weak_over_strong_speed": ratios}, sort_keys=True) + "\n")
