"""``repro sample`` -- phase-aware sampled estimation from the terminal.

Runs a bundled program on the deterministic reference harness, then
estimates its per-unit MEMO-TABLE hit ratios from a handful of
phase-representative intervals (:func:`~repro.simulator.sampling.
estimate_phases`) instead of simulating the whole trace::

    repro sample --program sobel_gx --n 65536 --phases 16
    repro sample --program saxpy --backend scalar --json -
    repro sample --program gamma_lut --compare-full

``--compare-full`` additionally simulates the full trace and prints the
per-unit absolute error of the sampled estimate -- the same check the
``bench-sampling`` CI gate enforces across every bundled program.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

__all__ = ["main_sample"]


def _build_parser() -> argparse.ArgumentParser:
    from ..sampling.estimator import PhasePlan

    defaults = PhasePlan()
    parser = argparse.ArgumentParser(
        prog="repro sample",
        description=(
            "Estimate per-unit memo hit ratios from phase-representative "
            "intervals instead of simulating the whole trace."
        ),
    )
    parser.add_argument(
        "--program",
        required=True,
        metavar="NAME",
        help="bundled ISA program to trace (see 'repro corpus ls' programs)",
    )
    parser.add_argument(
        "--n",
        type=int,
        default=65536,
        help="workload size handed to the program (default 65536)",
    )
    parser.add_argument(
        "--phases",
        type=int,
        default=16,
        help="target phase count for k-means (default 16)",
    )
    parser.add_argument(
        "--interval",
        type=int,
        default=250,
        help=f"interval length in events (default 250; plan default "
             f"{defaults.interval})",
    )
    parser.add_argument(
        "--warmup",
        type=int,
        default=500,
        help="functional-warming events before each window (default 500)",
    )
    parser.add_argument(
        "--samples-per-phase",
        type=int,
        default=4,
        help="measured windows per phase (default 4)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seeds clustering, window sampling, and signatures (default 0)",
    )
    parser.add_argument(
        "--backend",
        metavar="NAME",
        default=None,
        help=(
            "execution backend for the simulated windows (scalar | "
            "fused; default fused)"
        ),
    )
    parser.add_argument(
        "--no-bound",
        action="store_true",
        help="skip the oracle replay (no warm-up error bound, less work)",
    )
    parser.add_argument(
        "--no-cold-start",
        action="store_true",
        help="disable the cold-start residency correction",
    )
    parser.add_argument(
        "--no-control-variate",
        action="store_true",
        help=(
            "disable the analytic-model control variate (plain weighted "
            "window average)"
        ),
    )
    parser.add_argument(
        "--compare-full",
        action="store_true",
        help="also simulate the full trace and report per-unit abs error",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the estimate document as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help=(
            "enable the metrics registry for this run and write its "
            "snapshot to PATH ('-' for stdout)"
        ),
    )
    return parser


def main_sample(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    from ... import obs
    from ...analysis.static.memo import reference_machine
    from ...core import backend as execution
    from ...core.bank import MemoTableBank
    from ...errors import ReproError
    from .estimator import PhasePlan, estimate_phases

    metrics_enabled = args.metrics_out is not None
    if metrics_enabled:
        obs.set_enabled(True)
        obs.registry().clear()
    try:
        try:
            plan = PhasePlan(
                phases=args.phases,
                interval=args.interval,
                warmup=args.warmup,
                seed=args.seed,
                samples_per_phase=args.samples_per_phase,
                correct_cold_start=not args.no_cold_start,
                control_variate=not args.no_control_variate,
            )
            machine = reference_machine(args.program, args.n)
            machine.run(max_steps=8_000_000)
            estimate = estimate_phases(
                machine.trace,
                plan=plan,
                backend=args.backend,
                bound_warmup=not args.no_bound,
            )
        except ReproError as exc:
            print(str(exc), file=sys.stderr)
            return 2

        document = estimate.as_dict()
        document["program"] = args.program
        document["n"] = args.n
        print(
            f"sample {args.program} (n={args.n}): "
            f"{estimate.events_total} events, {estimate.intervals} "
            f"intervals, {estimate.phases} phases, "
            f"{len(estimate.representatives)} windows "
            f"[backend={estimate.backend}]"
        )
        print(
            f"  simulated {estimate.events_simulated} + oracle "
            f"{estimate.oracle_events} events "
            f"-> work reduction {estimate.work_reduction:.1f}x"
        )
        full = None
        if args.compare_full:
            bank = MemoTableBank.paper_baseline()
            execution.dispatch(
                machine.trace, bank.units, backend=args.backend
            )
            full = {}
            for op, unit in bank.units.items():
                eligible = unit.stats.table.lookups + unit.stats.trivial_hits
                if eligible:
                    full[op] = unit.stats.hit_ratio
            document["full_hit_ratios"] = {
                op.name: ratio for op, ratio in sorted(
                    full.items(), key=lambda pair: pair[0].name
                )
            }
        worst = 0.0
        for op in sorted(estimate.hit_ratios, key=lambda op: op.name):
            ratio = estimate.hit_ratios[op]
            bound = estimate.warmup_error_bound.get(op)
            line = f"  {op.name:10s} est={ratio:.4f}"
            if bound is not None:
                line += f" warmup_bound={bound:.4f}"
            if full is not None and op in full:
                error = abs(ratio - full[op])
                worst = max(worst, error)
                line += f" full={full[op]:.4f} abs_err={error:.4f}"
            print(line)
        if full is not None:
            print(f"  worst abs error {worst:.4f}")

        if args.json is not None:
            payload = json.dumps(document, indent=2)
            if args.json == "-":
                print(payload)
            else:
                with open(args.json, "w", encoding="utf-8") as stream:
                    stream.write(payload + "\n")
                print(f"wrote {args.json}")
        if metrics_enabled:
            from ...obs.cli import write_snapshot

            write_snapshot(obs.registry().as_dict(), args.metrics_out)
    finally:
        if metrics_enabled:
            obs.set_enabled(None)
    return 0


if __name__ == "__main__":
    sys.exit(main_sample())
