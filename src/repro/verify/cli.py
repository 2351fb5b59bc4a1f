"""``repro verify`` -- the differential fuzzing front door.

Subcommands:

* ``fuzz``  -- run a seeded fuzz campaign; any divergence is shrunk and
  written into the regression corpus (exit 1).  With ``--inject FAULT``
  the campaign instead runs against a deliberately-broken kernel and
  exits 0 only if the harness *caught* the planted bug.
* ``smoke`` -- the mutation-testing gate: a clean pass must find
  nothing, and each known kernel fault must be detected within a small
  budget.  Run on every PR.
* ``seed``  -- materialize the hand-minimized seed regressions.
* ``replay`` -- re-run every stored regression through the full
  differential check (what ``tests/test_regressions.py`` automates).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from ..core import backend as execution
from .differential import run_case
from .faults import KERNEL_FAULTS, inject
from .fuzz import fuzz_run
from .regressions import load_cases, seed_cases, write_case
from .shrink import shrink_case

__all__ = ["main"]

DEFAULT_REGRESSIONS = Path("tests/regressions")

#: Bundled programs cross-checked against the static analyzer's bounds
#: during a fuzz campaign (dynamic hit ratio must fall inside them).
STATIC_CHECK_PROGRAMS = ("saxpy", "dot_product", "gamma_lut")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro verify",
        description="Golden-oracle differential fuzzing of the memo kernel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fuzz = sub.add_parser("fuzz", help="run a fuzz campaign")
    fuzz.add_argument("--budget", type=int, default=1000,
                      help="number of fuzz cases (default 1000)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign seed (default 0)")
    fuzz.add_argument("--max-events", type=int, default=192,
                      help="max events per generated trace")
    fuzz.add_argument("--regressions-dir", type=Path,
                      default=DEFAULT_REGRESSIONS,
                      help="where shrunk divergences are written")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="report divergences without minimizing them")
    fuzz.add_argument("--no-static-check", action="store_true",
                      help="skip the static-bounds cross-validation")
    fuzz.add_argument("--inject", choices=sorted(KERNEL_FAULTS),
                      help="plant a known kernel fault; exit 0 iff caught")
    fuzz.add_argument("--metrics-out", metavar="PATH", default=None,
                      help="enable the metrics registry for the campaign "
                           "and write its JSON snapshot to PATH")
    fuzz.add_argument("--submit", action="store_true",
                      help="run the campaign as a job on a running "
                           "`repro serve` instance instead of in-process "
                           "(endpoint discovered via the default queue "
                           "directory's server.json)")

    smoke = sub.add_parser(
        "smoke", help="mutation-testing gate: clean pass + all faults caught"
    )
    smoke.add_argument("--budget", type=int, default=400,
                       help="fuzz cases per fault (default 400)")
    smoke.add_argument("--seed", type=int, default=0)

    seed = sub.add_parser("seed", help="write the hand-minimized seed cases")
    seed.add_argument("--dir", type=Path, default=DEFAULT_REGRESSIONS)
    seed.add_argument("--overwrite", action="store_true")

    replay = sub.add_parser("replay", help="re-run the regression corpus")
    replay.add_argument("--dir", type=Path, default=DEFAULT_REGRESSIONS)
    return parser


def _progress(done: int, report) -> None:
    print(
        f"  ... {done} cases, {report.features} coverage features, "
        f"{len(report.divergent)} divergent",
        flush=True,
    )


def _static_cross_check(seed: int) -> List[str]:
    """Fuzz the static analyzer's reference harness size too.

    The fuzzer proper exercises synthetic traces; this leg runs a few
    bundled programs at a seeded problem size and demands the measured
    infinite-table hit ratio stay inside the analyzer's sound bracket.
    """
    from ..analysis.static.memo import check_program

    failures = []
    for i, name in enumerate(STATIC_CHECK_PROGRAMS):
        n = 4 + (seed * 7 + i * 13) % 61  # deterministic n in [4, 64]
        result = check_program(name, n=n)
        if not result.ok:
            failures.append(
                f"static bounds violated for {name} (n={n}): measured "
                f"{result.measured:.4f} outside "
                f"[{result.bounds.lower:.4f}, {result.bounds.upper:.4f}]"
            )
    return failures


def _submit_fuzz(args) -> int:
    """Run the campaign as a ``fuzz`` job on a live ``repro serve``.

    The service executes the identical :func:`fuzz_run` the in-process
    path uses, so the verdict (and exit status) carries over; shrinking
    and fault injection stay local-only concerns.
    """
    from ..serve.cli import _default_url, render_result_document
    from ..serve.client import ServeClient, ServeError

    if args.inject:
        print("--submit cannot be combined with --inject", file=sys.stderr)
        return 2
    spec = {"type": "fuzz", "budget": args.budget, "seed": args.seed,
            "max_events": args.max_events}
    client = ServeClient(_default_url(None))
    try:
        submitted = client.submit(spec)
        job_id = submitted["id"]
        print(f"{job_id} submitted ({submitted.get('describe')})")
        record = client.wait(job_id)
        if record["state"] != "done":
            print(f"job {job_id} {record['state']}: {record.get('error')}",
                  file=sys.stderr)
            return 1
        document = client.result(job_id)
    except ServeError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    print(render_result_document(document))
    return 0 if document.get("ok", not document.get("divergent")) else 1


def _run_fuzz(args) -> int:
    if args.submit:
        return _submit_fuzz(args)
    if execution.selected_name() != execution.DEFAULT_BACKEND:
        # Faults and most divergences live in the fused probe loop, and
        # the differential legs pin their backends explicitly; forcing a
        # process-wide backend would fuzz a path against itself.
        execution.set_backend(None)
        print("note: REPRO_BACKEND ignored under `repro verify`")

    if args.inject:
        with inject(args.inject):
            report = fuzz_run(
                args.budget, seed=args.seed, max_events=args.max_events,
                stop_after=1, progress=_progress,
            )
        if report.divergent:
            case = report.divergent[0]
            print(
                f"fault {args.inject!r} DETECTED after {report.cases} "
                f"cases ({case.case.describe()})"
            )
            return 0
        print(
            f"fault {args.inject!r} NOT detected within {report.cases} cases",
            file=sys.stderr,
        )
        return 1

    report = fuzz_run(
        args.budget, seed=args.seed, max_events=args.max_events,
        stop_after=1, progress=_progress,
    )
    print(
        f"{report.cases} cases, {report.events} events, "
        f"{report.features} coverage features, "
        f"{len(report.divergent)} divergent"
    )
    status = 0
    for result in report.divergent:
        status = 1
        case = result.case
        print(f"\nDIVERGENCE in {case.describe()}:")
        for line in result.divergences:
            print(f"  - {line}")
        if not args.no_shrink:
            small = shrink_case(case, result=result)
            final = run_case(small)
            print(f"  shrunk to {small.describe()}:")
            for line in final.divergences:
                print(f"  - {line}")
            path = write_case(
                args.regressions_dir, small,
                description="; ".join(final.divergences)
                or "; ".join(result.divergences),
                name=f"fuzz-seed{args.seed}",
            )
            print(f"  regression written to {path}")

    if status == 0 and not args.no_static_check:
        failures = _static_cross_check(args.seed)
        for line in failures:
            status = 1
            print(f"DIVERGENCE: {line}")
        if not failures:
            print(
                "static-bounds cross-check ok "
                f"({len(STATIC_CHECK_PROGRAMS)} programs)"
            )
    return status


def _run_smoke(args) -> int:
    if execution.selected_name() != execution.DEFAULT_BACKEND:
        execution.set_backend(None)
        print("note: REPRO_BACKEND ignored under `repro verify`")
    failures = []

    clean = fuzz_run(args.budget, seed=args.seed, stop_after=1)
    if clean.divergent:
        failures.append(
            "clean kernel diverged: "
            + "; ".join(clean.divergent[0].divergences)
        )
        print(f"clean pass: FAILED ({clean.cases} cases)")
    else:
        print(f"clean pass: ok ({clean.cases} cases, no divergence)")

    for fault in KERNEL_FAULTS:
        with inject(fault):
            report = fuzz_run(args.budget, seed=args.seed, stop_after=1)
        if report.divergent:
            print(f"fault {fault}: detected after {report.cases} cases")
        else:
            failures.append(f"fault {fault} escaped {report.cases} cases")
            print(f"fault {fault}: NOT DETECTED")

    if failures:
        print(f"\nsmoke FAILED: {len(failures)} problem(s)", file=sys.stderr)
        for line in failures:
            print(f"  - {line}", file=sys.stderr)
        return 1
    print("\nsmoke ok: clean pass silent, all "
          f"{len(KERNEL_FAULTS)} faults detected")
    return 0


def _run_seed(args) -> int:
    written = seed_cases(args.dir, overwrite=args.overwrite)
    for path in written:
        print(f"wrote {path}")
    if not written:
        print("seed cases already present (use --overwrite to rewrite)")
    return 0


def _run_replay(args) -> int:
    cases = load_cases(args.dir)
    if not cases:
        print(f"no regressions under {args.dir}", file=sys.stderr)
        return 1
    status = 0
    for regression in cases:
        result = run_case(regression.case)
        if result.ok:
            print(f"{regression.name}: ok ({regression.case.describe()})")
        else:
            status = 1
            print(f"{regression.name}: DIVERGED")
            for line in result.divergences:
                print(f"  - {line}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "fuzz":
        if args.metrics_out is not None:
            from .. import obs
            from ..obs.cli import write_snapshot

            obs.set_enabled(True)
            obs.registry().clear()
            try:
                with obs.span("verify.fuzz"):
                    status = _run_fuzz(args)
                write_snapshot(obs.registry().as_dict(), args.metrics_out)
            finally:
                obs.set_enabled(None)
            return status
        return _run_fuzz(args)
    if args.command == "smoke":
        return _run_smoke(args)
    if args.command == "seed":
        return _run_seed(args)
    return _run_replay(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
