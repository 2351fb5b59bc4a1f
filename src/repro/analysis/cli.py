"""CLI entry points for the static analyzer and the repo linter.

Dispatched from the main ``repro`` command::

    repro analyze                     # classify memo sites of every program
    repro analyze saxpy sobel_gx      # just these programs
    repro analyze --check             # + dynamic cross-validation (CI gate)
    repro analyze --json report.json

    repro analyze --concurrency       # race/atomicity analyzer (CI gate)
    repro analyze --concurrency tests/fixtures/concurrency

    repro lint                        # lint the installed repro package
    repro lint src/repro/workloads    # lint specific paths
    repro lint --json lint.json

All exit non-zero on failure (bound violation / finding), so they gate
CI directly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .. import cliargs
from .tables import format_ratio, format_table

__all__ = ["main_analyze", "main_lint"]


def _analyze_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description=(
            "Static dataflow analysis over the bundled ISA programs: "
            "classify multiply/divide sites and bound MEMO-TABLE hit "
            "ratios without executing a trace."
        ),
    )
    parser.add_argument(
        "programs",
        nargs="*",
        metavar="PROGRAM",
        help="bundled program names (default: all; see `repro-trace programs`)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "execute each program on the reference harness and assert "
            "static lower <= measured <= static upper"
        ),
    )
    parser.add_argument(
        "--n",
        type=cliargs.positive_int,
        default=None,
        help="trip count for the reference harness (default 48)",
    )
    parser.add_argument(
        "--sites",
        action="store_true",
        help="print one line per static multiply/divide site",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the full report as JSON ('-' for stdout)",
    )
    group = parser.add_argument_group(
        "concurrency analysis",
        "flow-sensitive race & filesystem-atomicity checks over the "
        "service/corpus layer (positional arguments become paths)",
    )
    group.add_argument(
        "--concurrency",
        action="store_true",
        help=(
            "run the CONC race/atomicity checks instead of the memo-site "
            "classifier (default paths: repro.serve, repro.corpus, "
            "repro.obs, repro.fsutil)"
        ),
    )
    group.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="accepted-findings baseline JSON to subtract from the report",
    )
    group.add_argument(
        "--write-baseline",
        metavar="PATH",
        default=None,
        help="write the current findings out as a new baseline and exit 0",
    )
    group.add_argument(
        "--list-checks",
        action="store_true",
        help="list the CONC check ids and exit",
    )
    return parser


def _main_concurrency(args: argparse.Namespace) -> int:
    from .concurrency import CHECKS, Baseline, run

    if args.list_checks:
        for check_id, (name, description) in CHECKS.items():
            print(f"{check_id}  {name:<24} {description}")
        return 0
    paths = [Path(token) for token in args.programs] or None
    baseline = None
    if args.baseline:
        baseline = Baseline.load(Path(args.baseline))
    report = run(paths=paths, baseline=baseline)
    if args.write_baseline:
        fresh = Baseline.from_findings(report.findings)
        fresh.save(Path(args.write_baseline))
        print(
            f"wrote {args.write_baseline} "
            f"({len(report.findings)} accepted finding(s))"
        )
        return 0
    if args.json is not None:
        payload = json.dumps(report.to_dict(), indent=2)
        if args.json == "-":
            print(payload)
        else:
            Path(args.json).write_text(payload + "\n", encoding="utf-8")
            print(f"wrote {args.json}")
    print(report.render())
    if report.findings:
        print(f"{len(report.findings)} concurrency finding(s)", file=sys.stderr)
        return 1
    return 0


def main_analyze(argv: Optional[List[str]] = None) -> int:
    args = _analyze_parser().parse_args(argv)
    if args.concurrency or args.list_checks:
        return _main_concurrency(args)
    if args.baseline or args.write_baseline:
        print(
            "--baseline/--write-baseline require --concurrency",
            file=sys.stderr,
        )
        return 2

    from ..isa.programs import PROGRAMS
    from .static import REFERENCE_N, SiteClass, analyze_source, check_program

    names = args.programs or list(PROGRAMS)
    unknown = [name for name in names if name not in PROGRAMS]
    if unknown:
        print(
            f"unknown program(s): {', '.join(unknown)}; "
            f"try: {', '.join(PROGRAMS)}",
            file=sys.stderr,
        )
        return 2

    document: dict = {"programs": [], "checks": []}
    summary_rows = []
    failures = 0
    for name in names:
        analysis = analyze_source(name, PROGRAMS[name])
        document["programs"].append(analysis.to_dict())
        counts = analysis.class_counts
        summary_rows.append([
            name,
            len(analysis.sites),
            *(counts.get(cls, 0) for cls in SiteClass),
            f"{analysis.predictable_fraction:.0%}",
        ])
        if args.sites:
            print(f"{name}:")
            for site in analysis.sites:
                consts = ", ".join(
                    "?" if value is None else f"{value:g}"
                    for value in site.operand_consts
                )
                print(
                    f"  line {site.line:>3} pc {site.pc:#x} "
                    f"{site.mnemonic:<6} {site.classification.value:<13} "
                    f"({consts}) {site.note}"
                )
    class_names = [cls.value for cls in SiteClass]
    print(format_table(
        ["program", "sites", *class_names, "predictable"],
        summary_rows,
        title="static memo-opportunity classification",
    ))

    if args.check:
        print()
        check_rows = []
        for name in names:
            kwargs = {} if args.n is None else {"n": args.n}
            result = check_program(name, **kwargs)
            document["checks"].append(result.to_dict())
            check_rows.append([
                name,
                result.total_ops,
                format_ratio(result.bounds.lower),
                format_ratio(result.measured),
                format_ratio(result.bounds.upper),
                f"{result.gap:.3f}",
                "ok" if result.ok else "VIOLATION",
            ])
            if not result.ok:
                failures += 1
        n_used = args.n if args.n is not None else REFERENCE_N
        print(format_table(
            ["program", "ops", "static lower", "measured", "static upper",
             "bracket", "verdict"],
            check_rows,
            title=(
                "static bounds vs dynamic infinite-table hit ratio "
                f"(reference harness, n={n_used})"
            ),
        ))

    if args.json is not None:
        payload = json.dumps(document, indent=2)
        if args.json == "-":
            print(payload)
        else:
            Path(args.json).write_text(payload + "\n", encoding="utf-8")
            print(f"wrote {args.json}")

    if failures:
        print(
            f"\n{failures} program(s) violate their static bounds",
            file=sys.stderr,
        )
        return 1
    return 0


def _lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "AST linter enforcing repo invariants: seeded RNG only, no "
            "wall clock on deterministic paths, bit-pattern keying, "
            "pool-callback purity, opcode-table exhaustiveness."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files/directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--rules",
        metavar="IDS",
        default=None,
        help="comma-separated rule ids to run (e.g. REPRO001,REPRO005)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write findings as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the available rules and exit",
    )
    return parser


def main_lint(argv: Optional[List[str]] = None) -> int:
    from .lint import ALL_RULES, default_target, lint_paths
    from .lint.rules import violations_to_json

    args = _lint_parser().parse_args(argv)
    rules = ALL_RULES()
    if args.list:
        for rule in rules:
            print(f"{rule.id}  {rule.name:<24} {rule.description}")
        return 0
    if args.rules:
        wanted = {token.strip().upper() for token in args.rules.split(",")}
        rules = [rule for rule in rules if rule.id in wanted]
        if not rules:
            print(f"no rules match {args.rules!r}", file=sys.stderr)
            return 2
    paths = (
        [Path(token) for token in args.paths]
        if args.paths
        else [default_target()]
    )
    findings = lint_paths(paths, rules)
    for finding in findings:
        print(finding.render())
    if args.json is not None:
        payload = violations_to_json(findings)
        if args.json == "-":
            print(payload)
        else:
            Path(args.json).write_text(payload + "\n", encoding="utf-8")
            print(f"wrote {args.json}")
    if findings:
        print(f"{len(findings)} violation(s)", file=sys.stderr)
        return 1
    print(f"clean: {len(rules)} rule(s) over {len(paths)} path(s)")
    return 0
