"""``repro stats`` -- inspect and export the metrics stream.

Two sources, three formats::

    repro stats --program saxpy                   # run + terminal table
    repro stats --program saxpy --metrics-out m.json
    repro stats --from m.json --format prom       # re-render a snapshot
    repro stats --from m.json --validate          # schema check (CI)

``--program`` executes one bundled ISA program on the deterministic
reference harness (the same one ``repro analyze --check`` measures on)
with metrics enabled, through the instrumented Shade front-end, then
renders the registry.  ``--from`` renders or validates a previously
written ``--metrics-out`` document without running anything.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .. import cliargs
from ..errors import ReproError
from . import (
    MetricsRegistry,
    render_table,
    to_json,
    to_prometheus,
    use_registry,
    validate_snapshot,
)
from .registry import set_enabled

__all__ = ["main", "write_snapshot"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro stats",
        description="Run, render or validate repro.obs metrics snapshots.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--program",
        metavar="NAME",
        help="run one bundled ISA program with metrics enabled",
    )
    source.add_argument(
        "--from",
        dest="from_path",
        metavar="PATH",
        help="load a previously written --metrics-out JSON document",
    )
    parser.add_argument(
        "-n", type=cliargs.positive_int, default=48,
        help="problem size for --program (default 48)",
    )
    parser.add_argument(
        "--format",
        choices=("table", "json", "prom"),
        default="table",
        help="output format (default: table)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="also write the snapshot as JSON to PATH",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="schema-check the snapshot; exit 1 on problems",
    )
    return parser


def write_snapshot(snapshot: dict, path: str) -> None:
    """Write one snapshot document ('-' for stdout)."""
    payload = to_json(snapshot) + "\n"
    if path == "-":
        sys.stdout.write(payload)
    else:
        Path(path).write_text(payload, encoding="utf-8")
        print(f"wrote metrics to {path}")


def _run_program(name: str, n: int) -> dict:
    """Execute one bundled program under a scoped registry."""
    from ..analysis.static.memo import reference_machine
    from ..core.bank import MemoTableBank
    from ..core.operations import Operation
    from ..isa.programs import PROGRAM_STEP_BUDGET
    from ..simulator.shade import ShadeSimulator

    local = MetricsRegistry()
    set_enabled(True)
    try:
        with use_registry(local):
            with local.span(f"program.{name}"):
                machine = reference_machine(name, n)
                machine.run(max_steps=PROGRAM_STEP_BUDGET)
                bank = MemoTableBank.paper_baseline(
                    operations=tuple(Operation)
                )
                simulator = ShadeSimulator(bank=bank)
                report = simulator.run(machine.trace)
            local.counter_add("program.instructions", report.instructions)
    finally:
        set_enabled(None)
    return local.as_dict()


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.from_path is not None:
        try:
            snapshot = json.loads(Path(args.from_path).read_text())
        except (OSError, ValueError) as exc:
            print(f"cannot read {args.from_path}: {exc}", file=sys.stderr)
            return 1
    else:
        try:
            snapshot = _run_program(args.program, args.n)
        except ReproError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    status = 0
    if args.validate:
        problems = validate_snapshot(snapshot)
        if problems:
            status = 1
            for line in problems:
                print(f"invalid: {line}", file=sys.stderr)
        else:
            print("snapshot valid")

    if args.format == "json":
        print(to_json(snapshot))
    elif args.format == "prom":
        sys.stdout.write(to_prometheus(snapshot))
    elif not args.validate or args.from_path is None:
        print(render_table(snapshot))

    if args.metrics_out:
        write_snapshot(snapshot, args.metrics_out)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
