"""Per-task cost of the completeness probe at the benchmark's probe bound.

Runs every probe task of the benchmark's ``probe`` workload: each routine of
each sequence-model class, strong and weak, probed over the strong model at
max_len 3, alphabet 2, duplicate-free states for ``cursor_set``. Each task
runs ``--repeats`` times; the median CPU time (``time.process_time``) is
printed per task, largest first, with its share of the summed medians, and
the summed medians per level (strong, weak). A shared host's CPU speed drifts,
so each task's CPU time is also divided by the CPU time of the benchmark's
reference kernel (``perfbench/workloads.py``), run just before and just after
the task, times 1 ms: the medians in these reference seconds compare two
checkouts measured at different times.

A last, separate run wraps the clauses to count evaluations: model-kind
invariants (the probe runs them on each role candidate once, in a probe's
first search only if the search reaches it; layer ``domain_invariant``
holds those the domain runs to keep only the role states they allow, as
it reaches them),
postconditions tested on a candidate, and the ``expected`` side of defining clauses, which the
probe evaluates once per search to solve the clause (layer ``solved``).
Derived frame predicates are decided once per pre-state shape, not run per
candidate, so they have no layer here. It also counts the probe's calls to
the domain's ``value_choices`` and ``result_choices``, and sums the
pre-states that pass the precondition and those of them whose post-states
were searched, not decided by an earlier search.
These counts are deterministic, so they compare two versions of the probe
exactly; the timings carry the machine's noise.

Usage (from the repository root):

    PYTHONPATH=src python benchmarks/bench_probe.py [--repeats N]

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
from collections import Counter
from pathlib import Path
from statistics import median

# the bound of the benchmark's probe workload, and its reference kernel, so
# reference seconds here and in perfbench/run.py measure the same work
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import (
    PROBE_ALPHABET,
    PROBE_MAX_LEN,
    PROBE_UNIQUE,
    REF_NOMINAL_S,
    reference_kernel,
)

import mbcheck
from mbcheck.containers import ALL_CLASSES, build_class
from mbcheck.containers.domains import SequenceDomain
from mbcheck.engine import completeness_probe
from mbcheck.errors import ConfigError


def tasks():
    out = []
    for c in ALL_CLASSES:
        strong = build_class(c, "strong")
        if "sequence" not in strong.model_names:
            continue
        weak = build_class(c, "weak")
        for binding in (strong, weak):
            for rname in sorted(binding.routines):
                key = "%s.%s.%s" % (c, rname, binding.level)
                out.append((key, c, strong, binding.routines[rname]))
    return out


def run_task(c, strong, routine):
    """The outcome as a string, and the result (None unless the probe ran)."""
    dom = SequenceDomain(
        {c: strong}, max_len=PROBE_MAX_LEN, alphabet=PROBE_ALPHABET, unique=c in PROBE_UNIQUE
    )
    try:
        res = completeness_probe(strong, routine, dom)
    except ConfigError as e:
        return ("refused" if "not abstractly evaluable" in str(e) else "error:ConfigError"), None
    except Exception as e:  # a crash is an outcome to report, as the benchmark does
        return "error:%s" % type(e).__name__, None
    return "%s/%d" % (res.verdict, res.pre_states_checked), res


def reference_kernel_cpu_s():
    """CPU seconds of one run of the benchmark's reference kernel."""
    c0 = time.process_time()
    reference_kernel()
    return time.process_time() - c0


def summed_by_level(medians):
    return {
        level: sum(v for key, v in medians.items() if key.endswith("." + level))
        for level in ("strong", "weak")
    }


def count_evaluations(all_tasks):
    """Evaluations per clause layer, calls to the domain's candidate
    methods, and pre-states checked and searched, over one run of every
    task."""
    counts = Counter()
    filtering = []  # non-empty while the domain filters its role states

    def counted(fn, layer):
        def wrapper(*a):
            counts["domain_" + layer if filtering else layer] += 1
            return fn(*a)

        return wrapper

    def filtered(step, *a):
        filtering.append(True)
        try:
            return step(*a)
        finally:
            filtering.pop()

    def role_states(*a):
        # the domain filters each state as it is reached, so every step of
        # the iterator it hands back is bracketed, not only the call
        states = filtered(saved["_role_states"], *a)
        while (state := filtered(next, states, None)) is not None:
            yield state

    saved = {
        name: vars(SequenceDomain)[name]
        for name in ("_role_states", "value_choices", "result_choices")
    }
    SequenceDomain._role_states = role_states
    for name in ("value_choices", "result_choices"):
        setattr(SequenceDomain, name, counted(saved[name], name))

    wrapped = set()
    for _, _, strong, routine in all_tasks:
        groups = (
            ("invariant", strong.model_invariants),
            ("post", routine.post),
        )
        for layer, objs in groups:
            for obj in objs:
                if id(obj) not in wrapped:
                    wrapped.add(id(obj))
                    obj.fn = counted(obj.fn, layer)
                    definition = getattr(obj, "definition", None)
                    if definition is not None:
                        role, query, expected = definition
                        obj.definition = (role, query, counted(expected, "solved"))
    try:
        for _, c, strong, routine in all_tasks:
            _, res = run_task(c, strong, routine)
            if res is not None:
                counts["pre_states_checked"] += res.pre_states_checked
                counts["pre_states_searched"] += res.pre_states_searched
    finally:
        for name, fn in saved.items():
            setattr(SequenceDomain, name, fn)
    return dict(counts)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    all_tasks = tasks()
    samples = {key: [] for key, _, _, _ in all_tasks}
    ref_samples = {key: [] for key in samples}
    outcomes = {}
    kernel = reference_kernel_cpu_s()
    for _ in range(args.repeats):
        for key, c, strong, routine in all_tasks:
            t0 = time.process_time()
            outcomes[key] = run_task(c, strong, routine)[0]
            cpu = time.process_time() - t0
            # the kernel run after one task is the one before the next
            after = reference_kernel_cpu_s()
            samples[key].append(cpu)
            ref_samples[key].append(cpu * REF_NOMINAL_S / ((kernel + after) / 2))
            kernel = after

    medians = {key: median(v) for key, v in samples.items()}
    ref_medians = {key: median(v) for key, v in ref_samples.items()}
    total = sum(medians.values())
    by_level = summed_by_level(medians)
    ref_by_level = summed_by_level(ref_medians)
    print("mbcheck from %s" % mbcheck.__file__)
    print("%d tasks, %d repeats, summed median CPU %.3f s" % (len(all_tasks), args.repeats, total))
    for level, cpu in by_level.items():
        print("summed median CPU, %s tasks: %.3f s" % (level, cpu))
    print("summed median reference seconds: %.3f s" % sum(ref_medians.values()))
    for level, ref in ref_by_level.items():
        print("summed median reference seconds, %s tasks: %.3f s" % (level, ref))
    print("%-42s %10s %6s %10s  %s" % ("task", "CPU", "share", "reference", "outcome"))
    for key in sorted(medians, key=lambda k: (-medians[k], k)):
        print(
            "%-42s %8.4f s %5.1f%% %8.4f s  %s"
            % (key, medians[key], 100 * medians[key] / total, ref_medians[key], outcomes[key])
        )
    counts = count_evaluations(all_tasks)
    for layer in ("invariant", "domain_invariant", "post", "solved"):
        print("%s evaluations per pass: %d" % (layer, counts.get(layer, 0)))
    for name in ("value_choices", "result_choices"):
        print("%s calls per pass: %d" % (name, counts.get(name, 0)))
    print(
        "pre-states searched per pass: %d of %d checked"
        % (counts.get("pre_states_searched", 0), counts.get("pre_states_checked", 0))
    )
    print(
        json.dumps(
            {
                "python": sys.version.split()[0],
                "machine": platform.machine(),
                "bound": {
                    "max_len": PROBE_MAX_LEN,
                    "alphabet": PROBE_ALPHABET,
                    "unique": sorted(PROBE_UNIQUE),
                },
                "repeats": args.repeats,
                "summed_median_cpu_s": total,
                "summed_median_cpu_s_by_level": by_level,
                "median_cpu_s": medians,
                "summed_median_ref_s": sum(ref_medians.values()),
                "summed_median_ref_s_by_level": ref_by_level,
                "median_ref_s": ref_medians,
                "outcomes": outcomes,
                "evaluations_per_pass": counts,
            },
            sort_keys=True,
        )
    )


if __name__ == "__main__":
    main()
