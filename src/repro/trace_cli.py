"""Trace tooling CLI: record, inspect and simulate archived traces.

Subcommands::

    repro-trace record vgauss mandrill out.trc [--scale S] [--pc]
        Record one MM kernel on one catalogue image.  ``.trc``/``.bin``
        write the binary format (:mod:`repro.isa.binfmt`), which keeps
        dataflow annotations; any other extension writes the value-only
        text format.  ``--pc`` stamps events with synthetic call sites
        (useful for PC-indexed schemes like the Reuse Buffer).

    repro-trace stats out.trc
        Instruction frequency breakdown of an archived trace.

    repro-trace simulate out.trc [--entries N --ways W --mantissa]
        Replay a trace through MEMO-TABLES and print hit ratios.

    repro-trace programs
        List the bundled assembly programs.

    repro-trace asm saxpy out.trc [--n 64]
        Execute a bundled program on the reference harness
        (:func:`repro.analysis.static.memo.reference_machine`), archiving
        its trace.

``stats`` and ``simulate`` report a missing or unreadable trace file on
one stderr line and exit 2; ``asm`` reports an unknown program, an
``--n`` past :func:`~repro.isa.programs.n_ceiling` or an exhausted
step budget the same way.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from . import cliargs
from .analysis.static.memo import reference_machine
from .analysis.tables import format_ratio, format_table
from .core.bank import MemoTableBank
from .core.config import MemoTableConfig, TagMode
from .core.operations import Operation
from .errors import ReproError, TraceFormatError
from .images import catalog_names, generate
from .isa.binfmt import read_column_blocks, write_column_trace
from .isa.columns import ColumnBatch
from .isa.programs import PROGRAM_STEP_BUDGET, PROGRAMS, check_n
from .isa.trace import Trace, read_trace, write_trace
from .simulator.shade import ShadeSimulator
from .workloads.khoros import kernel_names, run_kernel
from .workloads.recorder import OperationRecorder

__all__ = ["main"]


def _is_binary(path: Path) -> bool:
    return path.suffix in (".trc", ".bin")


def _save(trace: Trace, path: Path) -> int:
    if _is_binary(path):
        with path.open("wb") as stream:
            return write_column_trace(trace, stream)
    with path.open("w", encoding="ascii") as stream:
        return write_trace(trace, stream)


def _load(path: Path) -> Optional[Trace]:
    """The trace at ``path``, or None after reporting why it cannot be read."""
    try:
        if _is_binary(path):
            with path.open("rb") as stream:
                return Trace(
                    columns=ColumnBatch.concat(read_column_blocks(stream))
                )
        with path.open("r", encoding="ascii") as stream:
            return Trace(read_trace(stream))
    except (TraceFormatError, OSError, UnicodeDecodeError) as exc:
        print(f"cannot read trace {path}: {exc}", file=sys.stderr)
        return None


def _cmd_record(args) -> int:
    recorder = OperationRecorder(record_sites=args.pc)
    image = generate(args.image, scale=args.scale)
    run_kernel(args.kernel, recorder, image)
    written = _save(recorder.trace, Path(args.output))
    print(f"recorded {written} events from {args.kernel} on {args.image} "
          f"-> {args.output}")
    return 0


def _cmd_stats(args) -> int:
    trace = _load(Path(args.trace))
    if trace is None:
        return 2
    counts = trace.breakdown()
    total = len(trace)
    rows = [
        [opcode.value, count, f"{count / total:.1%}"]
        for opcode, count in sorted(counts.items(), key=lambda kv: -kv[1])
    ]
    print(format_table(["opcode", "count", "share"], rows,
                       title=f"{args.trace}: {total} events"))
    return 0


def _cmd_simulate(args) -> int:
    trace = _load(Path(args.trace))
    if trace is None:
        return 2
    config = MemoTableConfig(
        entries=args.entries,
        associativity=args.ways,
        tag_mode=TagMode.MANTISSA if args.mantissa else TagMode.FULL,
    )
    bank = MemoTableBank.paper_baseline(config=config)
    report = ShadeSimulator(bank).run(trace)
    rows = []
    for op in (Operation.INT_MUL, Operation.FP_MUL, Operation.FP_DIV):
        stats = report.unit_stats.get(op)
        if stats is None or stats.operations == 0:
            continue
        rows.append(
            [op.mnemonic, stats.operations, format_ratio(stats.hit_ratio)]
        )
    print(
        format_table(
            ["unit", "operations", "hit ratio"],
            rows,
            title=(
                f"{args.trace} on {args.entries}-entry "
                f"{args.ways}-way tables"
                + (" (mantissa tags)" if args.mantissa else "")
            ),
        )
    )
    return 0


def _cmd_programs(_args) -> int:
    for name in PROGRAMS:
        print(name)
    return 0


def _cmd_asm(args) -> int:
    try:
        check_n(args.program, args.n, PROGRAM_STEP_BUDGET)
        machine = reference_machine(args.program, args.n)
        steps = machine.run(max_steps=PROGRAM_STEP_BUDGET)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    written = _save(machine.trace, Path(args.output))
    print(f"executed {steps} instructions; archived {written} events "
          f"-> {args.output}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace", description="Trace tooling for the repro library."
    )
    commands = parser.add_subparsers(dest="command", required=True)

    record = commands.add_parser("record", help="record an MM kernel trace")
    record.add_argument("kernel", choices=list(kernel_names()))
    record.add_argument("image", choices=list(catalog_names()))
    record.add_argument("output")
    record.add_argument("--scale", type=cliargs.scale, default=0.15)
    record.add_argument(
        "--pc", action="store_true",
        help="stamp events with synthetic call-site PCs",
    )
    record.set_defaults(func=_cmd_record)

    stats = commands.add_parser("stats", help="instruction breakdown")
    stats.add_argument("trace")
    stats.set_defaults(func=_cmd_stats)

    simulate = commands.add_parser("simulate", help="replay through MEMO-TABLES")
    simulate.add_argument("trace")
    simulate.add_argument("--entries", type=int, default=32)
    simulate.add_argument("--ways", type=int, default=4)
    simulate.add_argument("--mantissa", action="store_true")
    simulate.set_defaults(func=_cmd_simulate)

    programs = commands.add_parser("programs", help="list bundled programs")
    programs.set_defaults(func=_cmd_programs)

    asm = commands.add_parser("asm", help="run a bundled assembly program")
    asm.add_argument("program")
    asm.add_argument("output")
    asm.add_argument("--n", type=cliargs.positive_int, default=64)
    asm.set_defaults(func=_cmd_asm)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
