"""Seeded random call sessions against one checked class.

A session drives a pool of objects with generated calls, discards invalid
ones (top-level precondition failures), deduplicates contract violations into
fault records, and classifies each record:

  real                   evidence of a body defect
  inconsistency          fallout of earlier corruption, not a fresh defect
  specification_suspect  an experimental clause fired; blame the clause

The classifier is deliberately local: no bug oracle is consulted. The bug
catalog enters only to label records afterwards (``matched_bug``), so the
session transcript stays honest about what checking alone can see.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from mbcheck.errors import ConfigError
from mbcheck.containers import build_class
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
        _bugs.check_ids(self.class_name, self.bugs)
        if (self.max_calls is None) == (self.wall_secs is None):
            raise ConfigError("give exactly one of max_calls and wall_secs")
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


class _Generator:
    """Argument and target selection. All randomness flows through one
    ``random.Random`` so seed + config fixes the call sequence."""

    def __init__(self, cfg, spec, engine, rng):
        self.cfg = cfg
        self.spec = spec
        self.engine = engine
        self.rng = rng
        self.pool = []
        self.created = 0
        self.routine_names = sorted(spec.routines)

    def _new_object(self):
        if len(self.pool) >= self.cfg.pool_max:
            self.pool.pop(self.rng.randrange(len(self.pool)))
        co = self.engine.create(self.spec)
        self.pool.append(co)
        self.created += 1
        return co

    def pick_target(self):
        if not self.pool or self.rng.random() < self.cfg.p_new:
            return self._new_object()
        return self.rng.choice(self.pool)

    def _index_arg(self, target):
        if self.rng.random() < 0.5:
            n = self.spec.size_of(target.concrete)
            return self.rng.choice((0, 1, -1, n, n + 1, max(n - 1, 0)))
        return self.rng.randint(-10, 10)

    def build_args(self, target, routine):
        """Returns (args for the call, checked ref participants)."""
        args = []
        refs = []
        for p in routine.params:
            if p.kind == "item":
                args.append(self.rng.randrange(self.cfg.alphabet))
            elif p.kind == "index":
                args.append(self._index_arg(target))
            else:
                if self.rng.random() < 0.1:
                    args.append(None)
                elif self.pool and self.rng.random() >= self.cfg.p_new:
                    co = self.rng.choice(self.pool)
                    args.append(co.concrete)
                    refs.append(co)
                else:
                    co = self._new_object()
                    args.append(co.concrete)
                    refs.append(co)
        return tuple(args), refs

    def evict(self, co):
        for i, other in enumerate(self.pool):
            if other is co:
                self.pool.pop(i)
                return


def _tainted_participants(probe, target, refs):
    """Participants whose consistency probe already fails before the call.
    Fresh objects are exempt: corruption needs history."""
    out = []
    for co in [target] + refs:
        if co.calls > 0 and probe(co.concrete) is False:
            out.append(co)
    return out


def run_session(cfg):
    spec = build_class(cfg.class_name, cfg.level, frozenset(cfg.bugs))
    engine = Engine()
    rng = random.Random(cfg.seed)
    gen = _Generator(cfg, spec, engine, rng)
    res = SessionResult(cfg)
    by_key = {}
    signature = _bugs.signature_index(cfg.level)
    analogue = _bugs.analogue_index() if cfg.level == "weak" else {}
    probe = spec.consistency_probe

    deadline = None if cfg.wall_secs is None else time.monotonic() + cfg.wall_secs
    started = time.monotonic()
    cpu_started = time.process_time()

    while True:
        if cfg.max_calls is not None and res.calls >= cfg.max_calls:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break

        target = gen.pick_target()
        routine = spec.routines[rng.choice(gen.routine_names)]
        args, refs = gen.build_args(target, routine)
        tainted = () if probe is None else _tainted_participants(probe, target, refs)

        out = engine.checked_call(target, routine, args)
        res.calls += 1
        ordinal = res.calls
        if out.invalid:
            res.invalid_calls += 1

        if out.violations:
            call_tainted = bool(tainted)
            for v in out.violations:
                if (v.class_name, v.clause) in _EXPERIMENTAL:
                    cls = SUSPECT
                elif out.invalid and v.blame == "caller":
                    # top-level precondition failure: the generated call
                    # itself is at fault, not the class
                    continue
                elif call_tainted:
                    cls = INCONSISTENCY
                elif v.kind == "invariant_entry" and v.obj.calls > 1:
                    # corruption discovered mid-call: everything after it
                    # in this call is fallout, not fresh evidence
                    cls = INCONSISTENCY
                    call_tainted = True
                else:
                    cls = REAL

                key = v.key()
                rec = by_key.get(key)
                if rec is not None:
                    rec.count += 1
                else:
                    rec = FaultRecord(
                        class_name=v.class_name,
                        routine=v.routine,
                        clause=v.clause,
                        kind=v.kind,
                        classification=cls,
                        blame=v.blame,
                        first_call=ordinal,
                        detail=v.detail,
                        matched_bug=signature.get(key),
                        analogue_of=analogue.get(key),
                    )
                    by_key[key] = rec
                    res.records.append(rec)
                    if cls == REAL:
                        res.series.append((ordinal, len(res.series) + 1))

                if v.blame == "callee":
                    gen.evict(v.obj)

        for co in tainted:
            gen.evict(co)
        # ``in`` on the pool is identity membership: CheckedObject defines no
        # __eq__
        if target in gen.pool and spec.size_of(target.concrete) > cfg.max_object_size:
            gen.evict(target)

    res.wall_s = time.monotonic() - started
    res.cpu_s = time.process_time() - cpu_started
    res.objects_created = gen.created
    return res
