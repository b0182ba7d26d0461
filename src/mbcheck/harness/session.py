"""Seeded random call sessions against one checked class.

A session checks the calls a call source (``_Generator``) draws from its
object pool; a recorder (``_Recorder``) drops invalid calls' precondition
failures, deduplicates the rest into fault records and classifies each:

  real                   evidence of a body defect
  inconsistency          fallout of earlier corruption, not a fresh defect
  specification_suspect  an experimental clause fired; blame the clause

The classifier is deliberately local: no bug oracle is consulted. The bug
catalog enters only to label records afterwards (``matched_bug``), so the
session transcript stays honest about what checking alone can see.

The call stream is defined by two draws on one ``random.Random`` seeded with
the config's seed: ``random()`` and ``below(n)``, this module's bounded draw
over ``getrandbits``. Python documents that ``choice``, ``randrange`` and
``randint`` may change between versions, so sessions use none of them.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from mbcheck.errors import ConfigError
from mbcheck.containers import build_class, check_class
from mbcheck.containers import bugs as _bugs
from mbcheck.engine import Engine

REAL = "real"
INCONSISTENCY = "inconsistency"
SUSPECT = "specification_suspect"

_EXPERIMENTAL = frozenset(_bugs.EXPERIMENTAL_CLAUSES)


@dataclass(frozen=True)
class SessionConfig:
    """Everything a session needs; two configs with equal fields replay
    identically."""

    class_name: str
    level: str
    seed: int
    max_calls: int | None = None
    wall_secs: float | None = None
    bugs: tuple = ()
    p_new: float = 0.2
    pool_max: int = 6
    max_object_size: int = 16
    alphabet: int = 4

    def __post_init__(self):
        # the report's rule: its reader refuses any other type, a bool too
        for name in ("seed", "pool_max", "max_object_size", "alphabet"):
            if type(getattr(self, name)) is not int:
                raise ConfigError("%s must be an integer" % name)
        if self.max_calls is not None and type(self.max_calls) is not int:
            raise ConfigError("max_calls must be an integer or None")
        if type(self.p_new) not in (int, float):
            raise ConfigError("p_new must be a number")
        if self.wall_secs is not None and type(self.wall_secs) not in (int, float):
            raise ConfigError("wall_secs must be a number or None")
        # stored sorted: two configs naming the same ids replay alike, so compare equal
        object.__setattr__(self, "bugs", check_class(self.class_name, self.level, self.bugs))
        if (self.max_calls is None) == (self.wall_secs is None):
            raise ConfigError("give exactly one of max_calls and wall_secs")
        # Random(-s) seeds as Random(s) does: one session under two seeds
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.max_calls is not None and self.max_calls < 1:
            raise ConfigError("max_calls must be positive")
        # nan <= 0 is false, and a nan or infinite budget never runs out
        if self.wall_secs is not None and not (
            math.isfinite(self.wall_secs) and self.wall_secs > 0
        ):
            raise ConfigError("wall_secs must be positive and finite")
        if not 0.0 < self.p_new <= 1.0:
            raise ConfigError("p_new must be in (0, 1]")
        if self.pool_max < 1:
            raise ConfigError("pool_max must be positive")
        if self.alphabet < 1:
            raise ConfigError("alphabet must be positive")
        if self.max_object_size < 0:
            raise ConfigError("max_object_size must be >= 0")


@dataclass
class FaultRecord:
    """One deduplicated violation site. ``count`` accumulates repeats; the
    classification is fixed by the first occurrence."""

    class_name: str
    routine: str
    clause: str
    kind: str
    classification: str
    blame: str
    first_call: int
    detail: str
    count: int = 1
    matched_bug: str | None = None
    analogue_of: str | None = None


@dataclass
class SessionResult:
    config: SessionConfig
    records: list = field(default_factory=list)
    series: list = field(default_factory=list)  # (call ordinal, unique real so far)
    calls: int = 0
    invalid_calls: int = 0
    objects_created: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0  # process CPU time of the session loop

    @property
    def valid_calls(self):
        return self.calls - self.invalid_calls

    def by_classification(self, cls):
        return [r for r in self.records if r.classification == cls]

    def detected_bugs(self):
        """Catalog ids evidenced by a real record at the bug's primary
        signature for this level."""
        return sorted(
            {r.matched_bug for r in self.records if r.classification == REAL and r.matched_bug}
        )


def _below(getrandbits):
    """Return ``below(n)``, a uniform draw from ``range(n)``: draw
    ``n.bit_length()`` bits until the value is below ``n``.

    This is CPython 3.11's rule for ``Random._randbelow``, so the stream
    matches the stdlib draws of 3.11 bit for bit. There is no shortcut for
    ``n == 1`` or a power of two: it would consume fewer bits and shift every
    later draw.
    """

    def below(n):
        if n < 1:
            # getrandbits(0) is 0, so the loop below would never end
            raise ValueError("below(n) needs n >= 1, got %r" % (n,))
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below


class _Generator:
    """The call source: target, routine and argument selection, and every
    pool rule. Every draw is ``rng.random()`` or ``below(n)`` over
    ``rng.getrandbits``, so seed + config fixes the call sequence."""

    def __init__(self, cfg, spec, engine, rng):
        self.cfg = cfg
        self.spec = spec
        self.engine = engine
        self.random = rng.random
        self.below = _below(rng.getrandbits)
        self.pool = []
        self.created = 0
        self.routines = tuple(spec.routines[name] for name in sorted(spec.routines))

    def _new_object(self):
        pool = self.pool
        if len(pool) >= self.cfg.pool_max:
            pool.pop(self.below(len(pool)))
        co = self.engine.create(self.spec)
        pool.append(co)
        self.created += 1
        return co

    def calls(self):
        """Yield calls forever as (target, routine, args, checked ref
        participants). Before each draw, the previous target leaves the pool
        if its call left it larger than ``max_object_size``."""
        random = self.random
        below = self.below
        pool = self.pool
        p_new = self.cfg.p_new
        routines = self.routines
        size_of = self.spec.size_of
        max_object_size = self.cfg.max_object_size
        while True:
            if not pool or random() < p_new:
                target = self._new_object()
            else:
                target = pool[below(len(pool))]
            routine = routines[below(len(routines))]
            args = []
            refs = []
            for p in routine.params:
                kind = p.kind
                if kind == "item":
                    args.append(below(self.cfg.alphabet))
                elif kind == "index":
                    if random() < 0.5:
                        n = size_of(target.concrete)
                        args.append((0, 1, -1, n, n + 1, max(n - 1, 0))[below(6)])
                    else:
                        args.append(-10 + below(21))
                elif random() < 0.1:
                    args.append(None)
                elif pool and random() >= p_new:
                    co = pool[below(len(pool))]
                    args.append(co.concrete)
                    refs.append(co)
                else:
                    co = self._new_object()
                    args.append(co.concrete)
                    refs.append(co)
            yield target, routine, tuple(args), refs
            if target in pool and size_of(target.concrete) > max_object_size:
                self.evict(target)

    def evict(self, co):
        if co in self.pool:  # identity: CheckedObject defines no __eq__
            self.pool.remove(co)


class _Recorder:
    """The classifier: files each call's violations as deduplicated fault
    records, labels them from the bug catalog and keeps the series."""

    def __init__(self, cfg, spec):
        self.records = []
        self.series = []  # (call ordinal, unique real so far)
        self.by_key = {}
        self.signature = _bugs.signature_index(cfg.level)
        self.analogue = _bugs.analogue_index() if cfg.level == "weak" else {}
        self.probe = spec.consistency_probe
        if self.probe is None:
            self.tainted = None  # nothing to probe: the loop skips the call

    def tainted(self, target, refs):
        """Participants whose consistency probe already fails before the
        call. Fresh objects are exempt: corruption needs history."""
        out = []
        for co in (target, *refs):
            if co.calls > 0 and self.probe(co.concrete) is False:
                out.append(co)
        return out

    def record(self, ordinal, out, tainted):
        """File the violations of call ``ordinal``; returns the objects of
        the callee-blamed ones, for eviction."""
        call_tainted = bool(tainted)
        blamed = []
        for v in out.violations:
            if (v.class_name, v.clause) in _EXPERIMENTAL:
                cls = SUSPECT
            elif out.invalid and v.blame == "caller":
                # top-level precondition failure: the generated call itself
                # is at fault, not the class
                continue
            elif call_tainted:
                cls = INCONSISTENCY
            elif v.kind == "invariant_entry" and v.obj.calls > 1:
                # corruption discovered mid-call: everything after it in this
                # call is fallout, not fresh evidence
                cls = INCONSISTENCY
                call_tainted = True
            else:
                cls = REAL

            key = v.key()
            rec = self.by_key.get(key)
            if rec is not None:
                rec.count += 1
            else:
                rec = self.by_key[key] = FaultRecord(
                    v.class_name, v.routine, v.clause, v.kind, cls, v.blame, ordinal, v.detail,
                    matched_bug=self.signature.get(key), analogue_of=self.analogue.get(key),
                )
                self.records.append(rec)
                if cls == REAL:
                    self.series.append((ordinal, len(self.series) + 1))
            if v.blame == "callee":
                blamed.append(v.obj)
        return blamed


def run_session(cfg):
    spec = build_class(cfg.class_name, cfg.level, cfg.bugs)
    engine = Engine()
    gen = _Generator(cfg, spec, engine, random.Random(cfg.seed))
    recorder = _Recorder(cfg, spec)

    # bound per session, not at import: a tracer may wrap
    # Engine.checked_call on the class between sessions
    checked_call = engine.checked_call
    next_call = gen.calls().__next__
    tainted_of = recorder.tainted
    max_calls = math.inf if cfg.max_calls is None else cfg.max_calls
    monotonic = time.monotonic
    deadline = None if cfg.wall_secs is None else monotonic() + cfg.wall_secs
    calls = 0
    invalid_calls = 0
    started = monotonic()
    cpu_started = time.process_time()

    while calls < max_calls:
        if deadline is not None and monotonic() >= deadline:
            break

        target, routine, args, refs = next_call()
        tainted = () if tainted_of is None else tainted_of(target, refs)

        out = checked_call(target, routine, args)
        calls += 1
        if out.invalid:
            invalid_calls += 1

        if out.violations:
            for co in recorder.record(calls, out, tainted):
                gen.evict(co)
        for co in tainted:
            gen.evict(co)

    return SessionResult(
        cfg, recorder.records, recorder.series, calls, invalid_calls, gen.created,
        wall_s=monotonic() - started, cpu_s=time.process_time() - cpu_started,
    )
