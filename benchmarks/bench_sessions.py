"""Checked-call throughput of a session, per class and level.

For each class, runs ``--seeds`` seeded sessions of ``--calls`` calls (default
generator parameters, no seeded defects) at the strong level, at the weak
level, and unchecked, and prints the median calls per CPU second
(``time.process_time``) over the seeds, and the same rate in calls per
reference second. A shared host's CPU speed can drift by tens of percent within
minutes, so each session's CPU time is also divided by the CPU time of a fixed
pure-Python kernel run just before and just after it (the benchmark's
reference kernel, ``perfbench/workloads.py``), times 1 ms; compare two
checkouts by the reference rates. "Unchecked" drives the same generator
and harness, but each call runs only the routine's body: no model, no clause,
no frame. A call whose body raises counts as invalid. The generated calls
differ between the three columns, since the checked columns reject
precondition failures before the body and evict objects that fail a check.

Usage (from the repository root):

    PYTHONPATH=src python benchmarks/bench_sessions.py [--seeds N] [--calls N]

The package is imported from ``PYTHONPATH``, so pointing it at another
checkout's ``src`` measures that checkout. Every line before the last is
human-readable; the last line is one JSON object with every figure.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from statistics import median

# the benchmark's reference kernel, so reference seconds here and in
# perfbench/run.py measure the same work
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import reference_kernel

import mbcheck
import mbcheck.harness.session as session
from mbcheck.containers import ALL_CLASSES
from mbcheck.engine import CallOutcome, Engine
from mbcheck.harness.session import SessionConfig, run_session

COLUMNS = ("strong", "weak", "unchecked")
REF_NOMINAL_S = 0.001
UNITS = ("calls_per_cpu_s", "calls_per_ref_s")


class UncheckedEngine(Engine):
    """Runs each call's body alone; the session harness is unchanged."""

    __slots__ = ()

    def checked_call(self, co, routine, args=()):
        co.calls += 1
        try:
            return CallOutcome(routine.body(co.concrete, *args), (), False)
        except Exception:
            return CallOutcome(None, (), True)


def reference_kernel_cpu_s():
    """CPU seconds of one run of the benchmark's reference kernel."""
    c0 = time.process_time()
    reference_kernel()
    return time.process_time() - c0


def rates(class_name, column, seed, calls):
    """Calls per CPU second and per reference second of one session."""
    level = "strong" if column == "unchecked" else column
    cfg = SessionConfig(class_name, level, seed, max_calls=calls)
    session.Engine = UncheckedEngine if column == "unchecked" else Engine
    try:
        kernel = reference_kernel_cpu_s()
        c0 = time.process_time()
        res = run_session(cfg)
        cpu = time.process_time() - c0
        kernel = (kernel + reference_kernel_cpu_s()) / 2
    finally:
        session.Engine = Engine
    return res.calls / cpu, res.calls * kernel / (cpu * REF_NOMINAL_S)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--calls", type=int, default=40_000)
    args = ap.parse_args(argv)
    if args.seeds < 1 or args.calls < 1:
        ap.error("--seeds and --calls must be positive")

    seeds = range(1, args.seeds + 1)
    tables = {unit: {} for unit in UNITS}
    for c in ALL_CLASSES:
        # columns interleaved per seed, so a drift of the host's speed
        # reaches every column alike
        runs = {col: [] for col in COLUMNS}
        for seed in seeds:
            for col in COLUMNS:
                runs[col].append(rates(c, col, seed, args.calls))
        for i, unit in enumerate(UNITS):
            tables[unit][c] = {col: round(median(r[i] for r in v)) for col, v in runs.items()}

    print("mbcheck from %s" % mbcheck.__file__)
    print(
        "Python %s, %s; %d seeds x %d calls; median over the seeds"
        % (platform.python_version(), platform.machine(), args.seeds, args.calls)
    )
    for unit, table in tables.items():
        print("%-16s %10s %10s %10s %12s  %s" % ("class", *COLUMNS, "weak/strong", unit))
        for c, row in table.items():
            print(
                "%-16s %10.0f %10.0f %10.0f %12.2f"
                % (c, *(row[col] for col in COLUMNS), row["weak"] / row["strong"])
            )
    print(json.dumps({"seeds": args.seeds, "calls": args.calls, **tables}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
