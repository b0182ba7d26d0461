"""The benchmark's three workloads.

Each workload is built from the freshly imported ``mbcheck`` modules and a
seed, and then runs *passes* of closed-loop work: each call, session or probe
starts when the previous one returned. A pass is made of *units* (a session,
a probe, a block of calls), each timed in CPU seconds and in reference
seconds (see ``Pass``); ``run.py`` turns the units into metrics. Workloads drive only public entry points:
``run_session``, ``write_report``/``read_report``,
``compare_reports``/``throughput_ratios``, ``Engine.create``/``checked_call``,
``build_class``, ``SequenceDomain`` and ``completeness_probe``. Every call
goes through a module or class attribute at call time, so a traced run sees
it.

See ``WORKLOADS.md`` for why each workload exists and what it should move.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from collections import Counter
from statistics import median

clock = time.perf_counter
cpu_clock = time.process_time


# Reference seconds: CPU seconds divided by the mean CPU time of the
# reference_kernel() runs made just before and just after, times REF_NOMINAL_S.
REF_NOMINAL_S = 0.001


def reference_kernel():
    """Fixed pure-Python work (small tuples, dict updates) that uses no
    mbcheck code; about a millisecond."""
    d = {}
    for i in range(2000):
        t = tuple(range(i % 7))
        d[t] = d.get(t, 0) + 1
    return d


def _kernel_cpu():
    c0 = cpu_clock()
    reference_kernel()
    return cpu_clock() - c0


class Pass:
    """What one pass did.

    ``units`` maps a unit key to (level, ops, CPU seconds, reference
    seconds); the level is "strong", "weak" or None for work of neither.
    Units are timed in CPU seconds of this process, since on a shared host
    the wall clock also counts time given to other guests. The host's CPU
    speed still drifts by tens of percent within seconds, so each unit is
    also expressed in reference seconds, against reference-kernel runs made
    just before and just after it.
    """

    def __init__(self):
        self.units = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []  # output-check failures: correct becomes false

    def start(self):
        self._kernel = _kernel_cpu()
        self._c0 = cpu_clock()

    def stop(self, key, level, ops):
        cpu = cpu_clock() - self._c0
        kernel = (self._kernel + _kernel_cpu()) / 2
        self.units[key] = (level, ops, cpu, cpu * REF_NOMINAL_S / kernel)


# --------------------------------------------------------------------------
# sweep: the paper's paired experiment at reduced scale
# --------------------------------------------------------------------------

SWEEP_SEEDS = 3  # session seeds per (class, level) in one pass
SWEEP_CALLS = 2000  # checked calls per session
REFERENCE_SEEDS = (0, 1, 2)  # session seeds of the pinned reference grid


class Sweep:
    """Every class x {strong, weak} x SWEEP_SEEDS session seeds through
    ``run_session`` with default generator parameters and each class's full
    seeded-defect set; every report written, then compared."""

    name = "sweep"
    op_name = "checked calls in sessions"

    def __init__(self, mb, seed, out_dir, pins):
        self.mb = mb
        self.pins = pins["sweep"]
        self.out_dir = os.path.join(out_dir, "sweep")
        os.makedirs(self.out_dir, exist_ok=True)
        self.class_bugs = {
            c: tuple(e.bug_id for e in mb.bugs.CATALOG if e.class_name == c)
            for c in mb.containers.ALL_CLASSES
        }
        # set-up: build and bind every spec the sessions will use
        self.specs = [
            mb.containers.build_class(c, level, frozenset(bugs))
            for c, bugs in self.class_bugs.items()
            for level in ("strong", "weak")
        ]
        rng = random.Random(seed)
        self.session_seeds = tuple(rng.randrange(1 << 30) for _ in range(SWEEP_SEEDS))
        self.digest = None
        self.headline = None
        self.speed_ratios = []

    def _run_grid(self, session_seeds, tag, p):
        """Run one grid of sessions, write their reports and compare them.
        Returns (sha256 of all report bodies, compare result, throughput
        ratios)."""
        h = self.mb.harness
        digest = hashlib.sha256()
        paths = []
        for c, bugs in self.class_bugs.items():
            for level in ("strong", "weak"):
                for s in session_seeds:
                    cfg = h.SessionConfig(c, level, seed=s, max_calls=SWEEP_CALLS, bugs=bugs)
                    path = os.path.join(self.out_dir, "%s-%s-%s-%d.jsonl" % (tag, c, level, s))
                    p.attempted += 1
                    p.start()
                    try:
                        res = h.run_session(cfg)
                        body = h.write_report(path, res)
                    except Exception as e:  # a crashing session is a failed operation
                        p.stop((c, level, s), level, 0)
                        p.failed += 1
                        p.errors.append("session %s %s seed %d raised %r" % (c, level, s, e))
                        continue
                    p.stop((c, level, s), level, res.calls)
                    digest.update(body.encode())
                    paths.append(path)
        p.start()
        cmp = h.compare_reports(paths)
        ratios = self.mb.compare.throughput_ratios(paths)
        p.stop("compare", None, 0)
        return digest.hexdigest(), cmp, ratios

    def check_reference(self):
        """The pinned reference grid: report bytes and detections must match."""
        p = Pass()
        digest, cmp, _ = self._run_grid(REFERENCE_SEEDS, "ref", p)
        if digest != self.pins["reference_sha256"]:
            p.errors.append("reference grid reports changed: sha256 %s, pinned %s"
                            % (digest, self.pins["reference_sha256"]))
        for level in ("strong", "weak"):
            if cmp["unexpected"][level]:
                p.errors.append("reference grid: unexpected %s detections %s"
                                % (level, cmp["unexpected"][level]))
        if cmp["missed"]["strong"]:
            p.errors.append("reference grid: strong missed %s" % (cmp["missed"]["strong"],))
        return p, digest

    def run_pass(self):
        p = Pass()
        digest, cmp, ratios = self._run_grid(self.session_seeds, "run", p)
        if self.digest is None:
            self.digest = digest
            self.headline = cmp
        elif digest != self.digest:
            p.errors.append("reports differ between passes of the same grid")
        for level in ("strong", "weak"):
            if cmp["unexpected"][level]:
                p.errors.append("unexpected %s detections %s" % (level, cmp["unexpected"][level]))
        if ratios:
            self.speed_ratios.append(median(ratios.values()))
        return p

    def report(self, emit):
        """Print the checked outputs; return the failed checks."""
        cmp = self.headline
        s, w = cmp["unique_real"].get("strong", 0), cmp["unique_real"].get("weak", 0)
        fault_ratio = s / w if w else float("inf")
        speed = median(self.speed_ratios) if self.speed_ratios else 0.0
        emit("session_seeds", list(self.session_seeds), "")
        emit("report_sha256", self.digest, "", "identical in every pass")
        emit("unique_real_faults_strong", s, "count")
        emit("unique_real_faults_weak", w, "count")
        emit("detected_bugs_strong", ",".join(cmp["detected"].get("strong", [])), "")
        emit("detected_bugs_weak", ",".join(cmp["detected"].get("weak", [])), "")
        errors = []
        ok = fault_ratio > 1.0
        emit("headline_unique_fault_ratio", fault_ratio, "strong/weak",
             "paper: about 2.7; check strong > weak: %s" % ("pass" if ok else "FAIL"))
        if not ok:
            errors.append("strong bindings found no more unique real faults than weak ones")
        ok = speed > 1.0
        emit("headline_weak_over_strong_speed", speed, "x",
             "paper: 1.2 to 1.8; median over passes of the median over classes of "
             "throughput_ratios; check weak faster: %s" % ("pass" if ok else "FAIL"))
        if not ok:
            errors.append("weak sessions were not faster than strong ones")
        return errors


# --------------------------------------------------------------------------
# large_objects: strong model cost grows with object size
# --------------------------------------------------------------------------

LARGE_CLASSES = ("cursor_list", "two_way_list", "cursor_set", "array_stack", "ring_queue")
OBJECTS_PER_GROUP = 4
BAND = 128  # growth routines run only below this size ...
BAND_LO = 112  # ... and shrinking ones only above this one
ITEMS = 256  # item values; > BAND so a duplicate-free set can reach the band
GROWTH = frozenset(["extend", "put_front", "push", "put"])
SHRINK = frozenset(["remove", "pop"])
# wipe_out resets an object to empty; merge_right adds a whole band-sized
# argument. Either would push objects out of the band, so both stay out.
LEFT_OUT = frozenset(["wipe_out", "merge_right"])
BLOCK_CALLS = 1000  # checked calls per level in one pass


class _Group:
    """The objects of one (class, level) and the routines drawn for them."""

    __slots__ = ("level", "spec", "objects", "names", "queries")

    def __init__(self, level, spec, objects):
        self.level = level
        self.spec = spec
        self.objects = objects
        self.names = tuple(sorted(n for n in spec.routines if n not in LEFT_OUT))
        self.queries = frozenset(n for n, r in spec.routines.items() if r.returns_value)


class LargeObjects:
    """Four objects per (class, level) grown into a band around BAND
    elements, then a random mix of queries and commands through
    ``Engine.checked_call``; no seeded bugs."""

    name = "large_objects"
    op_name = "checked calls"

    def __init__(self, mb, seed, out_dir, pins):
        self.mb = mb
        self.rng = random.Random(seed)
        self.by_group = {
            (c, level): mb.containers.build_class(c, level)
            for c in LARGE_CLASSES
            for level in ("strong", "weak")
        }
        self.specs = list(self.by_group.values())
        self.groups = None
        # wall latency of valid strong calls in whole microseconds -> calls
        self.lat = {"query": Counter(), "command": Counter()}
        self.invalid = 0
        self.calls = 0
        self.sizes = Counter()  # target size at call time -> calls

    def prepare(self):
        """Grow every object into the band with checked growth calls."""
        eng = self.engine = self.mb.engine.Engine()
        rng = self.rng
        groups = []
        for (c, level), spec in self.by_group.items():
            grow = spec.routines[next(n for n in ("extend", "push", "put") if n in spec.routines)]
            objects = []
            for _ in range(OBJECTS_PER_GROUP):
                co = eng.create(spec)
                while spec.size_of(co.concrete) < BAND:
                    out = eng.checked_call(co, grow, (rng.randrange(ITEMS),))
                    if out.violations:
                        raise RuntimeError("growth call violated %r" % (out.violations,))
                objects.append(co)
            groups.append(_Group(level, spec, objects))
        self.groups = groups

    def _args(self, g, co, routine, n):
        rng = self.rng
        args = []
        for prm in routine.params:
            if prm.kind == "item":
                args.append(rng.randrange(ITEMS))
            elif prm.kind == "index":
                args.append(rng.randint(0, n + 1))
            else:
                args.append(rng.choice([o for o in g.objects if o is not co]).concrete)
        return tuple(args)

    def run_pass(self):
        """One block of calls at each level. A block is one unit, so the
        generator's work is part of it; each call is also timed on the wall
        clock for the latency percentiles."""
        p = Pass()
        rng = self.rng
        engine = self.engine
        for level in ("strong", "weak"):
            groups = [g for g in self.groups if g.level == level]
            done = 0
            p.start()
            for _ in range(BLOCK_CALLS):
                g = rng.choice(groups)
                co = rng.choice(g.objects)
                n = g.spec.size_of(co.concrete)
                self.sizes[n] += 1
                name = rng.choice([
                    r for r in g.names
                    if not (r in GROWTH and n >= BAND) and not (r in SHRINK and n <= BAND_LO)
                ])
                routine = g.spec.routines[name]
                args = self._args(g, co, routine, n)
                p.attempted += 1
                try:
                    t0 = clock()
                    out = engine.checked_call(co, routine, args)
                    dt = clock() - t0
                except Exception as e:  # a crashing call is a failed operation
                    p.failed += 1
                    p.errors.append("%s[%s].%s raised %r" % (g.spec.name, level, name, e))
                    continue
                done += 1
                self.calls += 1
                self.invalid += out.invalid
                bad = [v for v in out.violations if v.kind != "precondition"]
                if bad:
                    p.failed += 1
                    p.errors.append("%s[%s].%s: %r" % (g.spec.name, level, name, bad))
                elif level == "strong" and not out.invalid:
                    self.lat["query" if name in g.queries else "command"][int(dt * 1e6)] += 1
            p.stop(level, level, done)
        return p

    def report(self, emit):
        def pct(hist, q):
            xs = sorted(hist.elements())
            return xs[min(len(xs) - 1, int(q * len(xs)))] if xs else 0

        q, c = self.lat["query"], self.lat["command"]
        both = q + c
        nq, nc, nb = sum(q.values()), sum(c.values()), sum(both.values())
        emit("strong_query_p50_us", pct(q, 0.5), "us", "wall, n=%d valid strong query calls" % nq)
        emit("strong_command_p50_us", pct(c, 0.5), "us", "wall, n=%d valid strong command calls" % nc)
        emit("strong_call_p99_us", pct(both, 0.99), "us",
             "wall, n=%d valid strong calls, %d beyond p99" % (nb, nb - int(0.99 * nb) - 1))
        emit("invalid_call_share", self.invalid / max(self.calls, 1), "ratio",
             "top-level precondition rejections / %d checked calls" % self.calls)
        sizes = sorted(self.sizes.elements())
        emit("target_size_p50", sizes[len(sizes) // 2], "count",
             "elements in the target at call time, range %d..%d" % (sizes[0], sizes[-1]))
        return []


# --------------------------------------------------------------------------
# probe: bounded completeness over every routine the probe accepts
# --------------------------------------------------------------------------

PROBE_MAX_LEN = 3
PROBE_ALPHABET = 2
PROBE_UNIQUE = frozenset(["cursor_set"])  # duplicate-free states only


class Probe:
    """``completeness_probe`` over every (sequence class, routine, level)
    that ``mbc-test probe`` accepts, at one fixed bound; the seed orders
    the probes."""

    name = "probe"
    op_name = "pre-states passing the precondition"

    def __init__(self, mb, seed, out_dir, pins):
        self.mb = mb
        self.pins = pins["probe"]
        self.rng = random.Random(seed)
        self.tasks = []
        self.specs = []
        for c in mb.containers.ALL_CLASSES:
            strong = mb.containers.build_class(c, "strong")
            if "sequence" not in strong.model_names:
                continue  # the command line refuses these before probing
            weak = mb.containers.build_class(c, "weak")
            self.specs += [strong, weak]
            for level, binding in (("strong", strong), ("weak", weak)):
                for rname in sorted(binding.routines):
                    self.tasks.append((c, rname, level, strong, binding.routines[rname]))
        self.outcomes = {}

    def run_pass(self):
        mb = self.mb
        p = Pass()
        order = list(self.tasks)
        self.rng.shuffle(order)
        verdicts = self.pins["verdicts"]
        known = self.pins["known_failures"]
        for c, rname, level, strong, routine in order:
            key = "%s.%s.%s" % (c, rname, level)
            p.attempted += 1
            checked = 0
            p.start()
            try:
                dom = mb.domains.SequenceDomain(
                    {c: strong}, max_len=PROBE_MAX_LEN, alphabet=PROBE_ALPHABET,
                    unique=c in PROBE_UNIQUE,
                )
                res = mb.engine.completeness_probe(strong, routine, dom)
                outcome, checked = res.verdict, res.pre_states_checked
            except mb.errors.ConfigError as e:
                outcome = "refused" if "not abstractly evaluable" in str(e) else "error:ConfigError"
            except Exception as e:  # the probe must refuse, not crash
                outcome = "error:%s" % type(e).__name__
            p.stop(key, level, checked)
            self.outcomes[key] = outcome
            if outcome == verdicts.get(key):
                continue
            p.failed += 1
            if known.get(key) != outcome:
                p.errors.append("%s: %s, pinned %s" % (key, outcome, verdicts.get(key)))
        if len(self.tasks) != len(verdicts):
            p.errors.append("%d probe tasks, %d pinned verdicts" % (len(self.tasks), len(verdicts)))
        return p

    def report(self, emit):
        counts = Counter(self.outcomes.values())
        emit("probe_tasks", len(self.tasks), "count",
             " ".join("%s=%d" % kv for kv in sorted(counts.items())))
        emit("probe_refused", counts["refused"], "count",
             "ConfigError 'not abstractly evaluable': the probe's intended refusal, not a failure")
        for key in sorted(self.pins["known_failures"]):
            emit("known_failure." + key, self.outcomes.get(key), "", "counted in failed_ratio")
        for key in ("cursor_list.merge_right.strong", "cursor_list.merge_right.weak"):
            emit("verdict." + key, self.outcomes.get(key), "")
        return []


WORKLOADS = {w.name: w for w in (Sweep, LargeObjects, Probe)}
