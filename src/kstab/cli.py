"""Command-line interface.

Subcommands::

    kstab suite [--format text|json] [--seed S] [--cases DIR]
    kstab run CASE.json [--seed S]
    kstab formulas eval NAME --params JSON
    kstab git weight --support 02,12,21,22 --lambda 1,2
    kstab git destabilize --support ...
    kstab inv dims --upto N
    kstab inv peano --coeffs JSON
    kstab inv check-invariance [--trials N] [--seed S]

``formulas``, ``git`` and ``inv`` build a case's ``inputs`` and call
``runner.compute`` as ``kstab run`` does, so a badly shaped argument is a
SchemaError naming the subcommand and field (``git weight.subgroup.r0``).

Exit codes: 0 on success, 1 when any case fails, 2 on usage or parse
errors and on any other ``KstabError``, printed as one line.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import runner


def _print_json(value):
    print(json.dumps(runner.encode(value), sort_keys=True, indent=2))


def _cmd_suite(args) -> int:
    report = runner.run_suite(seed=args.seed, cases_dir=args.cases)
    sys.stdout.write(runner.emit_report(report, args.format))
    return 1 if report.failed else 0


def _cmd_run(args) -> int:
    result = runner.run_case(args.case, seed=args.seed)
    report = runner.StabilityReport(seed=args.seed, results=[result])
    sys.stdout.write(runner.emit_report(report, args.format))
    return 1 if report.failed else 0


def _cmd_formulas(args) -> int:
    inputs = {"name": args.name,
              "params": json.loads(args.params) if args.params else {}}
    _print_json(runner.compute("formula", inputs,
                               where=f"formula {args.name}"))
    return 0


def _cmd_git(args) -> int:
    inputs = {"op": args.gitcmd,
              "support": [t for t in args.support.split(",") if t]}
    if args.gitcmd == "weight":
        inputs["subgroup"] = args.subgroup.split(",")
    value = runner.compute("git", inputs, where=f"git {args.gitcmd}")
    if args.gitcmd == "weight":
        print(value)
    elif value == "none":
        print("no certificate: the weight is positive on every subgroup")
    else:
        kind = ("strictly semistable direction"
                if value["strictly_semistable"] else "unstable")
        r0, r1 = value["subgroup"]
        print(f"lambda = ({r0}, {r1}), weight = {value['weight']} ({kind})")
    return 0


def _cmd_inv(args) -> int:
    def check(name, seed=runner.DEFAULT_SEED, **inputs):
        return runner.compute("invariant", {"check": name, **inputs}, seed,
                              f"inv {args.invcmd}")

    if args.invcmd == "dims":
        dims, series = (check(c, upto=args.upto) for c in ("dims", "hilbert"))
        _print_json({"dims": dims, "series": series, "match": dims == series})
        return 0
    if args.invcmd == "peano":
        j = check("peano", coeffs=json.loads(args.coeffs))
        _print_json(dict(zip(("J2", "J3", "J4"), j)))
        return 0
    ok = check("invariance", args.seed, trials=args.trials)
    _print_json(dict(trials=args.trials, seed=args.seed, all_invariant=ok))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kstab",
        description="exact-arithmetic K-stability regression computations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("suite", help="run all bundled regression cases")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--seed", type=int, default=runner.DEFAULT_SEED)
    p.add_argument("--cases", default=None,
                   help="override the bundled case directory")
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("run", help="run one case file")
    p.add_argument("case")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--seed", type=int, default=runner.DEFAULT_SEED)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("formulas", help="closed-form evaluators")
    fsub = p.add_subparsers(dest="fcmd", required=True)
    pe = fsub.add_parser("eval", help="evaluate a named formula")
    pe.add_argument("name")
    pe.add_argument("--params", default="{}",
                    help="JSON object of parameters")
    pe.set_defaults(func=_cmd_formulas)

    p = sub.add_parser("git", help="numerical GIT for (2,2)-forms")
    gsub = p.add_subparsers(dest="gitcmd", required=True)
    pw = gsub.add_parser("weight")
    pw.add_argument("--support", required=True,
                    help="comma-separated ij pairs, e.g. 02,12,21,22")
    pw.add_argument("--lambda", dest="subgroup", required=True,
                    help="r0,r1")
    pw.set_defaults(func=_cmd_git)
    pd = gsub.add_parser("destabilize")
    pd.add_argument("--support", required=True)
    pd.set_defaults(func=_cmd_git)

    p = sub.add_parser("inv", help="invariant-ring computations")
    isub = p.add_subparsers(dest="invcmd", required=True)
    pd = isub.add_parser("dims")
    pd.add_argument("--upto", type=int, default=8)
    pd.set_defaults(func=_cmd_inv)
    pp = isub.add_parser("peano")
    pp.add_argument("--coeffs", required=True,
                    help='JSON map like {"11": "1"}')
    pp.set_defaults(func=_cmd_inv)
    pc = isub.add_parser("check-invariance")
    pc.add_argument("--trials", type=int, default=20)
    pc.add_argument("--seed", type=int, default=runner.DEFAULT_SEED)
    pc.set_defaults(func=_cmd_inv)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (runner.KstabError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
