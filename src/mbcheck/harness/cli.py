"""Command line front end.

Subcommands:

  run      one seeded session against one class binding
  compare  partition detected bugs and build curves from saved reports
  probe    bounded completeness check of one routine spec
  bugs     dump the seeded-defect catalog

Exit codes: 0 clean, complete or inconclusive, 1 real faults found or spec
proved incomplete, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import json
import sys

import mbcheck.values as V
from mbcheck.errors import ConfigError, SpecError
from mbcheck.containers import ALL_CLASSES, build_class
from mbcheck.containers import bugs as _bugs
from mbcheck.containers.domains import DEFAULT_ALPHABET, DEFAULT_MAX_LEN, SequenceDomain
from mbcheck.engine import TARGET, completeness_probe
from mbcheck.harness.compare import (
    compare_runs,
    read_reports,
    run_throughput_ratios,
    write_comparison,
)
from mbcheck.harness.reports import render_report, write_report
from mbcheck.harness.session import SessionConfig, run_session


def _parser():
    p = argparse.ArgumentParser(
        prog="mbc-test",
        description="Random testing of checked container classes under weak or strong contract bindings.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one seeded session")
    run.add_argument("--class", dest="class_name", required=True, choices=ALL_CLASSES)
    run.add_argument("--spec", dest="level", required=True, choices=("weak", "strong"))
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--max-calls", type=int, default=None)
    run.add_argument("--wall-secs", type=float, default=None)
    run.add_argument(
        "--bugs",
        default="",
        help="comma-separated defect ids to seed (see the bugs subcommand)",
    )
    run.add_argument("--report", default=None, help="report path; stdout if omitted")
    run.add_argument("--p-new", type=float, default=SessionConfig.p_new)
    run.add_argument("--pool-max", type=int, default=SessionConfig.pool_max)
    run.add_argument("--alphabet", type=int, default=SessionConfig.alphabet)
    run.add_argument("--max-object-size", type=int, default=SessionConfig.max_object_size)
    run.set_defaults(func=_cmd_run)

    cmp_ = sub.add_parser("compare", help="compare saved weak/strong reports")
    cmp_.add_argument("reports", nargs="*", help="report paths")
    cmp_.add_argument("--out", default=None, help="output path; stdout if omitted")
    cmp_.set_defaults(func=_cmd_compare)

    probe = sub.add_parser("probe", help="bounded completeness check of one routine")
    probe.add_argument("--class", dest="class_name", required=True, choices=ALL_CLASSES)
    probe.add_argument("--routine", required=True)
    probe.add_argument("--spec", dest="level", default="strong", choices=("weak", "strong"))
    probe.add_argument("--max-len", type=int, default=DEFAULT_MAX_LEN)
    probe.add_argument("--alphabet", type=int, default=DEFAULT_ALPHABET)
    probe.add_argument(
        "--unique",
        action="store_true",
        help="enumerate duplicate-free sequences only; states the model "
        "invariants forbid are skipped either way, so this only narrows the "
        "enumeration",
    )
    probe.set_defaults(func=_cmd_probe)

    sub.add_parser("bugs", help="print the seeded-defect catalog").set_defaults(func=_cmd_bugs)
    return p


def _parse_bugs(raw):
    return tuple(x for x in (s.strip() for s in raw.split(",")) if x)


def _cmd_run(args):
    cfg = SessionConfig(
        class_name=args.class_name,
        level=args.level,
        seed=args.seed,
        max_calls=args.max_calls,
        wall_secs=args.wall_secs,
        bugs=_parse_bugs(args.bugs),
        p_new=args.p_new,
        pool_max=args.pool_max,
        alphabet=args.alphabet,
        max_object_size=args.max_object_size,
    )
    # fail before the session, not after it; appending keeps an existing
    # report and its timing sidecar
    if args.report:
        open(args.report, "a").close()
        open(args.report + ".timing", "a").close()
    res = run_session(cfg)
    if args.report:
        write_report(args.report, res)
        print(
            "%s: %d calls (%d invalid), %d fault records, detected: %s"
            % (
                args.report,
                res.calls,
                res.invalid_calls,
                len(res.records),
                ",".join(res.detected_bugs()) or "-",
            )
        )
    else:
        sys.stdout.write(render_report(res))
    return 1 if res.by_classification("real") else 0


def _cmd_compare(args):
    runs = read_reports(args.reports)
    result = compare_runs(runs)
    ratios = run_throughput_ratios(runs)
    if args.out:
        write_comparison(args.out, result, ratios)
        print("%s: %d reports compared" % (args.out, result["reports"]))
    else:
        print(json.dumps(result, sort_keys=True, indent=2))
    return 0


def _fmt_roles(roles):
    parts = []
    for role, models in sorted(roles.items(), key=lambda rm: (rm[0] != TARGET, rm[0])):
        inner = ", ".join("%s=%s" % (m, V.mv_repr(v)) for m, v in sorted(models.items()))
        parts.append("%s{%s}" % (role, inner))
    return "; ".join(parts)


def _fmt_args(routine, args):
    refs = dict(routine.ref_roles)
    out = []
    for k, a in enumerate(args):
        if k not in refs:
            out.append(repr(a))
        elif a is None:
            out.append("void")
        else:
            out.append("<ref %s>" % refs[k])  # model lives in the role map
    return "(%s)" % ", ".join(out)


def _cmd_probe(args):
    strong = build_class(args.class_name, "strong")
    binding = strong if args.level == "strong" else build_class(args.class_name, "weak")
    routine = binding.routines.get(args.routine)
    if routine is None:
        raise ConfigError(
            "%s has no routine %r at level %s"
            % (args.class_name, args.routine, args.level)
        )
    dom = SequenceDomain(
        {args.class_name: strong},
        max_len=args.max_len,
        alphabet=args.alphabet,
        unique=args.unique,
    )
    res = completeness_probe(strong, routine, dom)
    print(
        "%s.%s [%s]: %s (%d pre-states, %d searched)"
        % (
            args.class_name,
            args.routine,
            args.level,
            res.verdict,
            res.pre_states_checked,
            res.pre_states_searched,
        )
    )
    if res.verdict == "complete":
        return 0
    pre = "%s args=%s" % (
        _fmt_roles(res.witness_pre["roles"]),
        _fmt_args(routine, res.witness_pre["args"]),
    )
    if res.verdict == "inconclusive":
        print("no admissible post-state among the candidates for pre-state: %s" % pre)
        return 0
    print("ambiguous pre-state: %s" % pre)
    for maps, result in res.witness_posts:
        shown = V.mv_repr(result) if V.is_model_value(result) else repr(result)
        print("  admitted exit: %s result=%s" % (_fmt_roles(maps), shown))
    return 1


def _cmd_bugs(args):
    print(_bugs.manifest_json())
    return 0


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SpecError, OSError) as e:
        print("error: %s" % (e,), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
