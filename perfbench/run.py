"""mbcheck benchmark: one workload, one process, closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload {sweep,large_objects,probe} \
        --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the checkout this file sits in; no
install is needed. ``--trace 0`` measures the end-to-end metrics with nothing
wrapped. ``--trace 1`` first runs untraced passes for half the time, then
wraps every layer boundary (see ``spans.py``) and runs traced passes for the
other half; it prints the per-layer metrics and the tracing overhead, and
writes the spans to ``.bench_out/``.

Every line before the last is human-readable: the environment record, each
metric by name with its unit, the workload's checked outputs. The last line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit code is 0 when every output check passed, 1 when one failed and 2 when
the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import sys
import time
from statistics import median

import spans
from workloads import WORKLOADS, Pass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 7
MAX_SPANS = 3_000_000  # spans kept in memory and written; self times cover all

clock = time.perf_counter
cpu_clock = time.process_time


class Modules:
    """The freshly imported ``mbcheck`` modules a workload may use."""

    def __init__(self):
        imp = importlib.import_module
        self.package = imp("mbcheck")
        self.values = imp("mbcheck.values")
        self.errors = imp("mbcheck.errors")
        self.engine = imp("mbcheck.engine")
        self.containers = imp("mbcheck.containers")
        self.bugs = imp("mbcheck.containers.bugs")
        self.domains = imp("mbcheck.containers.domains")
        self.harness = imp("mbcheck.harness")
        self.compare = imp("mbcheck.harness.compare")
        where = os.path.abspath(self.package.__file__)
        if not where.startswith(os.path.join(SRC, "")):
            raise ImportError("mbcheck was imported from %s, not from %s" % (where, SRC))


def fresh_import():
    for name in [n for n in sys.modules if n == "mbcheck" or n.startswith("mbcheck.")]:
        del sys.modules[name]
    return Modules()


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "mbcheck")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith((".py", ".pyx")):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without running
    git; None otherwise."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    parts = line.split()
                    if len(parts) == 2 and parts[1] == ref:
                        return parts[0]
    except OSError:
        pass
    return None


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(name, value, unit, note=""):
    print("%-34s %-22s %-10s %s" % (name, value, unit, note))


def run_passes(workload, seconds):
    """Run passes until ``seconds`` of wall time have gone by (at least one).
    Returns the ``Pass`` records and each pass's wall seconds."""
    end = clock() + seconds
    totals, walls = [], []
    while True:
        t0 = clock()
        totals.append(workload.run_pass())
        walls.append(clock() - t0)
        if clock() >= end:
            return totals, walls


def summarize(totals):
    """Per unit, the median over passes of its ops, CPU seconds and
    reference seconds; then a pass is the sum of its units' medians, and a
    rate is summed median ops over summed median reference seconds. A unit
    that repeats in every pass (a session, a probe) is thereby measured as
    often as there are passes, which damps the host's drift more than one
    median over a few whole passes."""
    by_key = {}
    for p in totals:
        for key, unit in p.units.items():
            by_key.setdefault(key, []).append(unit)
    med = [
        (us[0][0], median(u[1] for u in us), median(u[2] for u in us), median(u[3] for u in us))
        for us in by_key.values()
    ]
    out = {"pass_cpu_s": sum(u[2] for u in med), "pass_ref_s": sum(u[3] for u in med)}
    for name, levels in (("ops", ("strong", "weak")), ("strong_ops", ("strong",)), ("weak_ops", ("weak",))):
        ops = sum(u[1] for u in med if u[0] in levels)
        ref = sum(u[3] for u in med if u[0] in levels)
        out[name] = ops
        out[name + "_per_ref_s"] = ops / ref if ref else 0.0
    return out


def layer_metrics(tracer, traced_walls, traced_ref, untraced_ref):
    """Per-layer metrics, per traced pass; the layer self-time shares of the
    traced wall time; the largest self times by span name."""
    layer_s, layer_n, detail_s = tracer.layer_totals()
    roots = tracer.root_s()
    n = len(traced_walls)
    wall = sum(traced_walls)
    per = lambda x: x / n  # noqa: E731 - metrics are per traced pass
    calls = layer_n[spans.RUNTIME]
    enumerated = tracer.pre_states_enumerated
    sizes = sorted(tracer.target_sizes)
    m = {
        "harness.session.self_s": (per(layer_s[spans.SESSION]), "s"),
        "harness.session.valid_ratio": (
            tracer.session_valid / tracer.session_calls if tracer.session_calls else 0.0, "ratio"),
        "harness.session.objects_created": (per(tracer.objects_created), "count"),
        "engine.runtime.self_s": (per(layer_s[spans.RUNTIME]), "s"),
        "engine.runtime.checked_calls": (per(calls), "count"),
        "engine.runtime.self_us_per_call": (layer_s[spans.RUNTIME] / calls * 1e6 if calls else 0.0, "us"),
        "engine.runtime.valid_ratio": (
            1.0 - tracer.top_invalid / tracer.top_calls if tracer.top_calls else 0.0, "ratio"),
        "engine.runtime.target_size_p50": (sizes[len(sizes) // 2] if sizes else 0, "count"),
    }
    for layer, count_name in (
        (spans.MODEL, "evals"),
        (spans.INVARIANT, "evals"),
        (spans.PRE, "evals"),
        (spans.POST, "evals"),
        (spans.FRAME, "evals"),
        (spans.BODY, "calls"),
        (spans.VALUES, "calls"),
    ):
        m[layer + ".s"] = (per(layer_s[layer]), "s")
        m["%s.%s" % (layer, count_name)] = (per(layer_n[layer]), "count")
    m.update({
        "harness.reports.s": (per(layer_s[spans.REPORTS]), "s"),
        "harness.reports.bytes": (per(tracer.report_bytes), "bytes"),
        "harness.compare.s": (per(layer_s[spans.COMPARE]), "s"),
        "engine.completeness.self_s": (per(layer_s[spans.COMPLETENESS]), "s"),
        "engine.completeness.pre_states": (per(enumerated), "count"),
        "engine.completeness.checked_ratio": (
            tracer.pre_states_checked / enumerated if enumerated else 0.0, "ratio"),
        "containers.domains.s": (per(layer_s[spans.DOMAINS]), "s"),
        "bench.self_s": (per(wall - roots), "s"),
        "trace.pass_ref_s": (traced_ref, "s"),
        "trace.untraced_pass_ref_s": (untraced_ref, "s"),
        "trace.overhead_s": (traced_ref - untraced_ref, "s"),
        "trace.spans": (per(tracer.spans()), "count"),
        "trace.overhead_us_per_span": ((traced_ref - untraced_ref) / (tracer.spans() / n) * 1e6, "us"),
    })
    shares = {k: v / wall for k, v in layer_s.items()}
    shares["bench"] = (wall - roots) / wall
    top = sorted(detail_s.items(), key=lambda kv: -kv[1][0])[:12]
    return m, shares, top


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl_class = WORKLOADS.get(args.workload)
    if wl_class is None:
        print("error: unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)),
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "mbcheck", "__init__.py")):
        print("error: no mbcheck package under %s" % SRC, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)

    # set-up: import the package and build the workload's specs, repeatedly;
    # each set-up is timed like a unit of work
    setups = []
    for _ in range(SETUP_REPEATS):
        p = Pass()
        p.start()
        t0 = clock()
        mb = fresh_import()
        workload = wl_class(mb, args.seed, OUT, pins)
        wall = clock() - t0
        p.stop("setup", None, 0)
        setups.append((wall,) + p.units["setup"][2:])

    env = {
        "python": platform.python_version(),
        "values_backend": mb.values.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("env " + json.dumps(env, sort_keys=True))

    errors = []
    attempted = failed = 0
    if hasattr(workload, "check_reference"):
        ref, digest = workload.check_reference()
        emit("reference_sha256", digest, "", "pinned %s" % workload.pins["reference_sha256"])
        errors += ref.errors
        attempted += ref.attempted
        failed += ref.failed
    if hasattr(workload, "prepare"):
        t0 = clock()
        workload.prepare()
        emit("prepare_s", clock() - t0, "s", "untimed: growing the objects into the band")

    # the timed phase; a traced run spends half of it untraced, as the
    # baseline for the tracing overhead
    totals, walls = run_passes(workload, args.seconds / 2 if args.trace else args.seconds)
    errors += workload.report(emit)
    sm = summarize(totals)
    emit("wall_s", median(walls), "s", "median wall time of %d passes" % len(walls))
    emit("pass_cpu_s", sm["pass_cpu_s"], "s", "CPU time of a pass, summed unit medians")
    emit("cpu_share", sum(sum(u[2] for u in p.units.values()) for p in totals) / sum(walls), "ratio",
         "CPU seconds in units / wall seconds of passes")
    emit("setup_wall_s", median(w for w, _, _ in setups), "s")
    emit("setup_cpu_s", median(c for _, c, _ in setups), "s")
    m = {
        "setup_s": (median(r for _, _, r in setups), "s", "reference s, median of %d set-ups: %s"
                    % (len(setups), " ".join("%.4f" % r for _, _, r in setups))),
        "pass_ref_s": (sm["pass_ref_s"], "s", "reference s, summed unit medians over %d passes" % len(walls)),
        "peak_rss_mb": (peak_rss_mb(), "MB", ""),
        "ops_per_ref_s": (sm["ops_per_ref_s"], "1/s", "%s, %d per pass" % (workload.op_name, sm["ops"])),
        "strong_ops_per_ref_s": (sm["strong_ops_per_ref_s"], "1/s", "%d per pass" % sm["strong_ops"]),
        "weak_ops_per_ref_s": (sm["weak_ops_per_ref_s"], "1/s", "%d per pass" % sm["weak_ops"]),
    }
    if args.trace:
        tracer = spans.Tracer(MAX_SPANS)
        tracer.install(workload.specs)
        traced, traced_walls = run_passes(workload, args.seconds / 2)
        layers, shares, top = layer_metrics(
            tracer, traced_walls, summarize(traced)["pass_ref_s"], sm["pass_ref_s"])
        m = {k: (v, unit, "") for k, (v, unit) in layers.items()}
        totals += traced

    for p in totals:
        attempted += p.attempted
        failed += p.failed
        errors += p.errors
    emit("failed_ratio", failed / attempted if attempted else 0.0, "ratio",
         "%d failed / %d attempted operations" % (failed, attempted))
    metrics = {}
    for name, (value, unit, note) in m.items():
        emit(name, value, unit, note)
        metrics[name] = {"value": value, "unit": unit}
    if args.trace:
        print("self-time share of %d traced passes (wall clock):" % len(traced_walls))
        for k, v in sorted(shares.items(), key=lambda kv: -kv[1]):
            print("  %-24s %6.1f%%" % (k, 100 * v))
        print("largest self times (s, spans; all traced passes):")
        for k, (s, n) in top:
            print("  %-56s %9.4f %9d" % (k, s, n))
        stem = os.path.join(OUT, "trace-%s" % args.workload)
        tracer.write(stem)
        print("first %d spans written to %s.json and %s.bin" % (len(tracer.starts), stem, stem))

    for e in errors[:20]:
        print("CHECK FAILED: %s" % e)
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        code = main()
    except ImportError as e:
        print("error: %s" % (e,), file=sys.stderr)
        code = 2
    sys.exit(code)
