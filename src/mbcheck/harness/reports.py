"""Line-delimited JSON session reports.

A report is a function of the session config alone: ordinals stand in for
time, keys are sorted, separators are fixed. Running the same config twice
must produce byte-identical files. Wall-clock and CPU-time figures go to a
sidecar file (``<report>.timing``) so they cannot leak into the stable part.
"""

from __future__ import annotations

import json
import math

from mbcheck.errors import ConfigError

FORMAT = 1

# the fields a report row must hold (those comparing reports reads, and the
# format), with their JSON types
_FIELDS = {
    "header": {"class": str, "level": str, "seed": int, "budget": dict, "format": int},
    "series": {"points": list},
    "summary": {"calls": int, "detected_bugs": list, "unique_real": int, "records": dict},
}
_JSON_TYPES = {str: "string", int: "integer", list: "array", dict: "object"}


def _line(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def render_report(result):
    """The report body as a string; see module docstring for stability."""
    cfg = result.config
    budget = (
        {"max_calls": cfg.max_calls}
        if cfg.max_calls is not None
        else {"wall_secs": cfg.wall_secs}
    )
    lines = [
        _line(
            {
                "kind": "header",
                "format": FORMAT,
                "class": cfg.class_name,
                "level": cfg.level,
                "seed": cfg.seed,
                "budget": budget,
                "bugs": sorted(cfg.bugs),
                "alphabet": cfg.alphabet,
                "p_new": cfg.p_new,
                "pool_max": cfg.pool_max,
                "max_object_size": cfg.max_object_size,
            }
        )
    ]
    counts = {}
    for rec in result.records:
        counts[rec.classification] = counts.get(rec.classification, 0) + 1
        lines.append(
            _line(
                {
                    "kind": "fault",
                    "class": rec.class_name,
                    "routine": rec.routine,
                    "clause": rec.clause,
                    "violation": rec.kind,
                    "classification": rec.classification,
                    "blame": rec.blame,
                    "first_call": rec.first_call,
                    "count": rec.count,
                    "matched_bug": rec.matched_bug,
                    "analogue_of": rec.analogue_of,
                    "detail": rec.detail,
                }
            )
        )
    lines.append(_line({"kind": "series", "points": [list(p) for p in result.series]}))
    lines.append(
        _line(
            {
                "kind": "summary",
                "calls": result.calls,
                "valid": result.valid_calls,
                "invalid": result.invalid_calls,
                "objects": result.objects_created,
                "records": counts,
                "unique_real": len(result.by_classification("real")),
                "detected_bugs": result.detected_bugs(),
            }
        )
    )
    return "".join(lines)


def write_report(path, result):
    body = render_report(result)
    with open(path, "w") as f:
        f.write(body)
    with open(str(path) + ".timing", "w") as f:
        f.write(json.dumps({"cpu_s": result.cpu_s, "wall_s": result.wall_s}) + "\n")
    return body


def read_report(path):
    """Parse one report into {"header": ..., "faults": [...], "series": [...],
    "summary": ...}. A report holds one header and one summary row, and at
    most one series row."""
    rows = {}  # kind -> its one header, series or summary row
    faults = []
    with open(path, encoding="utf-8") as f:
        try:
            for lineno, raw in enumerate(f, 1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    row = json.loads(raw)
                except ValueError as e:
                    raise ConfigError("%s line %d is not valid JSON: %s" % (path, lineno, e))
                if not isinstance(row, dict):
                    raise ConfigError("%s line %d is not a JSON object" % (path, lineno))
                kind = row.get("kind")
                if kind == "fault":
                    faults.append(row)
                    continue
                if kind not in _FIELDS:
                    raise ConfigError("unknown report row kind %r in %s" % (kind, path))
                if kind in rows:
                    raise ConfigError("%s line %d is a second %s row" % (path, lineno, kind))
                if kind == "series":
                    _check_fields(path, kind, row)
                rows[kind] = row
        except UnicodeDecodeError as e:
            # decoding happens as the loop reads the file
            raise ConfigError("%s is not UTF-8 text: %s" % (path, e))
    if "header" not in rows or "summary" not in rows:
        raise ConfigError("%s is not a complete report" % (path,))
    _check_fields(path, "header", rows["header"])
    _check_fields(path, "summary", rows["summary"])
    return {
        "header": rows["header"],
        "faults": faults,
        "series": rows["series"]["points"] if "series" in rows else [],
        "summary": rows["summary"],
    }


def _check_fields(path, kind, row):
    # JSON gives each type exactly, so ``type`` tells a boolean from an integer
    fields = _FIELDS[kind]
    missing = [f for f in fields if f not in row]
    if missing:
        raise ConfigError("%s %s lacks %s" % (path, kind, ", ".join(missing)))
    for f, t in fields.items():
        if type(row[f]) is not t:
            raise ConfigError("%s %s %s must be a JSON %s" % (path, kind, f, _JSON_TYPES[t]))
    if kind == "header":
        if row["format"] != FORMAT:
            raise ConfigError("%s %s format must be %d" % (path, kind, FORMAT))
        max_calls = row["budget"].get("max_calls")
        if max_calls is not None and type(max_calls) is not int:
            raise ConfigError(
                "%s %s budget max_calls must be a JSON integer or null" % (path, kind)
            )
    elif kind == "series":
        for p in row["points"]:
            if not (type(p) is list and len(p) == 2 and all(type(x) is int for x in p)):
                raise ConfigError("%s %s points must be [integer, integer] pairs" % (path, kind))
    else:
        if not all(type(b) is str for b in row["detected_bugs"]):
            raise ConfigError("%s %s detected_bugs must be strings" % (path, kind))
        if not all(type(n) is int for n in row["records"].values()):
            raise ConfigError("%s %s records counts must be integers" % (path, kind))


def read_timing(path):
    """The ``.timing`` sidecar of the report at ``path``. A missing sidecar
    raises FileNotFoundError and an unreadable one another OSError; a
    malformed one, or one whose ``cpu_s`` is not a finite
    non-negative number, raises ConfigError naming the file."""
    tpath = str(path) + ".timing"
    with open(tpath) as f:
        try:
            timing = json.load(f)
        except ValueError as e:
            raise ConfigError("%s is not valid JSON: %s" % (tpath, e))
    if not isinstance(timing, dict):
        raise ConfigError("%s is not a JSON object" % (tpath,))
    cpu_s = timing.get("cpu_s")
    if type(cpu_s) not in (int, float):
        raise ConfigError("%s cpu_s must be a JSON number" % (tpath,))
    # json reads NaN and Infinity as floats
    if not (math.isfinite(cpu_s) and cpu_s >= 0):
        raise ConfigError("%s cpu_s must be finite and non-negative, not %r" % (tpath, cpu_s))
    return timing
