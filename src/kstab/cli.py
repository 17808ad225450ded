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

Exit codes: 0 on success, 1 when any case fails, 2 on usage or parse
errors and on any other ``KstabError``, printed as one line.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import KstabError, githm, invariants, runner


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
    params = json.loads(args.params) if args.params else {}
    value = runner._compute_formula(runner._Fields(
        {"name": args.name, "params": params}, f"formula {args.name}",
        runner.SchemaError))
    _print_json(value)
    return 0


def _parse_support(text: str):
    return githm.support(t for t in text.split(",") if t)


def _cmd_git(args) -> int:
    if args.gitcmd == "weight":
        try:
            r0, r1 = (int(x) for x in args.subgroup.split(","))
        except ValueError:
            raise githm.GitError(
                f"--lambda needs two integers r0,r1, got {args.subgroup!r}")
        w = githm.hm_weight(_parse_support(args.support),
                            githm.OneParamSubgroup(r0, r1))
        print(w)
        return 0
    if args.gitcmd == "destabilize":
        cert = githm.find_destabilizer(_parse_support(args.support))
        if cert is None:
            print("no certificate: the weight is positive on every subgroup")
        else:
            kind = ("strictly semistable direction"
                    if cert.strictly_semistable_direction else "unstable")
            print(f"lambda = ({cert.subgroup.r0}, {cert.subgroup.r1}), "
                  f"weight = {cert.weight} ({kind})")
        return 0
    raise AssertionError(args.gitcmd)


def _cmd_inv(args) -> int:
    if args.invcmd == "dims":
        dims = [invariants.invariant_dimension(k)
                for k in range(args.upto + 1)]
        series = invariants.hilbert_prefix(args.upto)
        _print_json({"dims": dims, "series": series,
                     "match": dims == series})
        return 0
    if args.invcmd == "peano":
        c = json.loads(args.coeffs)
        j2, j3, j4 = invariants.peano_invariants(c)
        _print_json({"J2": j2, "J3": j3, "J4": j4})
        return 0
    if args.invcmd == "check-invariance":
        results = invariants.invariance_trials(args.trials, args.seed)
        _print_json({"trials": args.trials, "seed": args.seed,
                     "all_invariant": all(results)})
        return 0 if all(results) else 1
    raise AssertionError(args.invcmd)


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
    except (KstabError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
