"""Per-call cost of ``values.item_sequence`` against a bare ``tuple(xs)``.

A list of exact ints is its own sequence payload, so ``item_sequence`` on one
costs a ``tuple(xs)`` copy plus its all-int test. For each length from 0 to
256 and two int ranges, this times ``item_sequence(xs)`` and ``tuple(xs)`` on
one list of ints and prints the median per-call cost of each over
``--repeats`` rounds in reference nanoseconds, and the difference: the price
of the all-int test. *Small* ints lie in 0..255; *large* ones lie beyond
``2**64``. Both take the same path, so their columns should agree.

Each timing is CPU seconds (``time.process_time``) divided by the mean CPU time
of the benchmark's reference kernel (``perfbench/workloads.py``) run just
before and just after it, times 1 ms, as ``bench_sessions.py`` and
``perfbench/run.py`` do, so figures from two checkouts or two hosts compare.
The two calls alternate within each round, so a drift of the host's speed
reaches both alike.

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

LENGTHS = (0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256)
RANGES = {"small": 0, "large": 2**64}
CALLS = {"item_sequence": V.item_sequence, "tuple": tuple}
REF_NOMINAL_S = 0.001
ELEMENTS_PER_TIMING = 100_000


def reference_kernel_cpu_s():
    c0 = time.process_time()
    reference_kernel()
    return time.process_time() - c0


def per_call_ref_ns(f, xs):
    """Reference nanoseconds per ``f(xs)``."""
    calls = max(200, ELEMENTS_PER_TIMING // (len(xs) + 1))
    kernel = reference_kernel_cpu_s()
    c0 = time.process_time()
    for _ in range(calls):
        f(xs)
    cpu = time.process_time() - c0
    kernel = (kernel + reference_kernel_cpu_s()) / 2
    return cpu * REF_NOMINAL_S / kernel / calls * 1e9


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
            runs = {c: [] for c in CALLS}
            for r in range(args.repeats):
                order = list(CALLS) if r % 2 == 0 else list(reversed(CALLS))
                for c in order:
                    runs[c].append(per_call_ref_ns(CALLS[c], xs))
            table[rname][n] = {c: round(median(v), 1) for c, v in runs.items()}

    print("mbcheck from %s" % mbcheck.__file__)
    print(
        "Python %s, %s; %d rounds; median reference ns per call"
        % (platform.python_version(), platform.machine(), args.repeats)
    )
    heads = ("length", "small", "tuple", "diff", "large", "tuple", "diff")
    print("%-6s %9s %9s %9s %9s %9s %9s" % heads)
    for n in LENGTHS:
        cells = []
        for rname in RANGES:
            c = table[rname][n]
            cells += [c["item_sequence"], c["tuple"], c["item_sequence"] - c["tuple"]]
        print("%-6d %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f" % (n, *cells))
    print(json.dumps({"repeats": args.repeats, "ref_ns_per_call": table}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
