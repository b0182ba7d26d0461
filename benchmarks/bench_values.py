"""Per-call cost of ``values.item_sequence`` on each of its two paths.

For each length from 0 to 256 and two int ranges, times ``item_sequence`` on
a list of ints with the all-int fast path tried first and with the per-element
rule alone, and prints the median per-call cost over ``--repeats`` rounds in
reference nanoseconds. *Cached* ints lie inside the tag table's range and are
tagged once before timing, so the table holds them; *uncached* ints lie beyond
``2**64``, outside the range, so the fast path's lookup
fails at the first element and the call falls back to the per-element rule:
that column is the cost of trying. A path is chosen by setting
``values.FAST_MIN_LEN`` to 0 or beyond every length, so both runs go through
the one ``item_sequence``. Lengths 0 and 1 never take the fast path, whatever
the gate, so their two columns time the same code.

Each timing is CPU seconds (``time.process_time``) divided by the mean CPU time
of the benchmark's reference kernel (``perfbench/workloads.py``) run just
before and just after it, times 1 ms, as ``bench_sessions.py`` and
``perfbench/run.py`` do, so figures from two checkouts or two hosts compare.
The two paths alternate within each round, so a drift of the host's speed
reaches both alike.

The last lines give, for each range, the least-squares lines
``cost = fixed + per_element * length`` of the two paths, each fitted to the
lengths from 2 to 64, and the length where they meet (none when the fast
path's line is not the flatter one). A meeting point below 2 means the fast
path's line is the lower one at every length that can take it. A single timing
spreads by several percent, which at 256 elements is more than the two paths'
whole difference at small lengths, so the lines give a steadier crossover than
any one length. ``FAST_MIN_LEN`` cites the cached range's crossover, and is
never below 2.

Usage (from the repository root):

    PYTHONPATH=src python benchmarks/bench_values.py [--repeats N]

Every line before the last is human-readable; the last line is one JSON
object with every figure.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import reference_kernel

import mbcheck
import mbcheck.values as V

LENGTHS = (0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256)
RANGES = {"cached": 0, "uncached": 2**64}
PATHS = {"fast": 0, "per_element": 1 << 62}
REF_NOMINAL_S = 0.001
ELEMENTS_PER_TIMING = 100_000
FIT_MIN_LEN = 2  # shorter sequences always take the per-element rule
FIT_MAX_LEN = 64


def reference_kernel_cpu_s():
    c0 = time.process_time()
    reference_kernel()
    return time.process_time() - c0


def per_call_ref_ns(xs, gate):
    """Reference nanoseconds per ``item_sequence(xs)`` with the gate at ``gate``."""
    calls = max(200, ELEMENTS_PER_TIMING // (len(xs) + 1))
    f = V.item_sequence
    saved = V.FAST_MIN_LEN
    V.FAST_MIN_LEN = gate
    try:
        kernel = reference_kernel_cpu_s()
        c0 = time.process_time()
        for _ in range(calls):
            f(xs)
        cpu = time.process_time() - c0
        kernel = (kernel + reference_kernel_cpu_s()) / 2
    finally:
        V.FAST_MIN_LEN = saved
    return cpu * REF_NOMINAL_S / kernel / calls * 1e9


def fit(costs, path):
    """Least-squares ``(fixed, per_element)`` cost of ``path`` over lengths
    from ``FIT_MIN_LEN`` to ``FIT_MAX_LEN``."""
    pts = [(n, costs[n][path]) for n in LENGTHS if FIT_MIN_LEN <= n <= FIT_MAX_LEN]
    mx = sum(n for n, _ in pts) / len(pts)
    my = sum(c for _, c in pts) / len(pts)
    slope = sum((n - mx) * (c - my) for n, c in pts) / sum((n - mx) ** 2 for n, _ in pts)
    return my - slope * mx, slope


def crossover(costs):
    """Length at which the fitted lines of the two paths meet, or None when
    the fast path's line is not the flatter one."""
    (a_fast, b_fast), (a_elem, b_elem) = fit(costs, "fast"), fit(costs, "per_element")
    if b_fast >= b_elem:
        return None
    return round((a_fast - a_elem) / (b_elem - b_fast), 1)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=9)
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be positive")

    table = {}
    for rname, base in RANGES.items():
        table[rname] = {}
        for n in LENGTHS:
            xs = [base + (i * 37) % 256 for i in range(n)]
            for x in xs:
                V.integer(x)  # the table now holds the cached range
            runs = {p: [] for p in PATHS}
            for r in range(args.repeats):
                order = list(PATHS) if r % 2 == 0 else list(reversed(PATHS))
                for p in order:
                    runs[p].append(per_call_ref_ns(xs, PATHS[p]))
            table[rname][n] = {p: round(median(v), 1) for p, v in runs.items()}

    cross = {rname: crossover(costs) for rname, costs in table.items()}
    print("mbcheck from %s" % mbcheck.__file__)
    print(
        "Python %s, %s; %d rounds; median reference ns per call"
        % (platform.python_version(), platform.machine(), args.repeats)
    )
    heads = ("cached fast", "cached elem", "uncached fast", "uncached elem")
    print("%-6s %14s %14s %14s %14s" % ("length", *heads))
    for n in LENGTHS:
        c, u = table["cached"][n], table["uncached"][n]
        print(
            "%-6d %14.1f %14.1f %14.1f %14.1f"
            % (n, c["fast"], c["per_element"], u["fast"], u["per_element"])
        )
    for rname, costs in table.items():
        lines = [fit(costs, p) for p in PATHS]
        print(
            "%s: fast %.0f + %.1f n, per-element %.0f + %.1f n; lines meet at length %s"
            % (rname, *lines[0], *lines[1], cross[rname])
        )
    result = {"repeats": args.repeats, "ref_ns_per_call": table, "crossover": cross}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
