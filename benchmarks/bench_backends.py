"""Per-backend probe-kernel throughput (records/second).

Times the same column-backed MM trace through both execution
backends (``repro.core.backend``: the ``scalar`` reference
and the ``fused`` kernel) under four bank configurations -- the
paper's EXCLUDE policy with FULL tags, the two other trivial-operation
policies of Table 9 (INTEGRATED, CACHE_ALL) and the mantissa-only tags
of Table 10 -- and writes ``BENCH_kernel_backends.json`` with each
backend's records/sec plus its speedup over ``scalar`` per
configuration.  CI's perf-smoke job runs this as a script and fails the
build (exit 1) if ``fused`` is less than ``TARGET`` (3x) faster than
``scalar`` on any configuration -- the whole point of the columnar
pair-id kernel is that partitioning and the LUT precompute amortize,
so a regression here means a fast path stopped paying for itself (or a
configuration fell back to the ``unit.execute`` tier).

Best-of-N timing: each backend runs ``ROUNDS`` times on a fresh bank
and the fastest round counts, which filters allocator/GC noise the
same way the sim benchmarks do.  Every timed ``fused`` round gets its
own copy of the trace's columns: the kernel's probe memo would serve a
batch it has already probed without running the loop.  Replay
throughput -- the same batch dispatched again, served from the memo --
is reported per configuration as ``fused_replay_records_per_sec``,
without a gate.

Also runnable under pytest-benchmark alongside the other benchmarks
(``make bench``).
"""

import json
import sys
import time
from pathlib import Path

from repro.core import backend as execution
from repro.core.bank import MemoTableBank
from repro.core.config import MemoTableConfig, TagMode, TrivialPolicy
from repro.core.operations import Operation
from repro.experiments.common import record_mm_trace

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _config import BENCH_SCALE  # noqa: E402

#: Where the perf-smoke numbers land (repo root, next to CHANGES.md).
REPORT_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_kernel_backends.json"
)

#: Minimum events for a stable records/sec figure.
MIN_EVENTS = 200_000

#: Timed rounds per backend (best one counts).
ROUNDS = 3

#: The baseline every backend is compared against.
BASELINE = "scalar"

#: Speedup floor for ``fused`` over ``scalar``, on every configuration.
TARGET = 3.0

#: Bank configurations timed: name -> ``MemoTableBank.paper_baseline``
#: keyword arguments.
CONFIGS = {
    "exclude": {},
    "integrated": {"trivial_policy": TrivialPolicy.INTEGRATED},
    "cache_all": {"trivial_policy": TrivialPolicy.CACHE_ALL},
    "mantissa": {"config": MemoTableConfig(tag_mode=TagMode.MANTISSA)},
}


def _bench_trace():
    """A realistic MM trace, tiled up to ``MIN_EVENTS`` events.

    Column-backed, exactly as the corpus store hands traces to the
    simulators, so ``fused`` takes its fast path while the scalar
    reference walks the same events."""
    from repro.isa.columns import ColumnBatch
    from repro.isa.trace import Trace

    base = record_mm_trace(
        "vgauss", "Muppet1", scale=BENCH_SCALE, cache=False
    ).columns()
    tiled = ColumnBatch()
    while len(tiled) < MIN_EVENTS:
        tiled.extend_batch(base)
    trace = Trace(columns=tiled)
    trace.events  # materialize both views before anything is timed
    return trace


def _one_round(events, backend, bank_kwargs):
    bank = MemoTableBank.paper_baseline(
        operations=tuple(Operation), latencies=None, **bank_kwargs
    )
    started = time.perf_counter()
    report = execution.dispatch(events, bank.units, backend=backend)
    elapsed = time.perf_counter() - started
    return report.instructions / elapsed


def _unseen(events):
    """A trace over a copy of ``events``' columns, which no dispatch has
    probed, so no partition of it can be served by the probe memo."""
    from repro.isa.columns import ColumnBatch
    from repro.isa.trace import Trace

    batch = ColumnBatch()
    batch.extend_batch(events.columns())
    return Trace(columns=batch)


def _throughput(events, backend, bank_kwargs, rounds=ROUNDS):
    """Best of ``rounds``; the scalar reference keeps no memo and walks
    the cached event view, every other backend an unseen copy."""
    return max(
        _one_round(
            events if backend == BASELINE else _unseen(events),
            backend,
            bank_kwargs,
        )
        for _ in range(rounds)
    )


def _replay_throughput(events, bank_kwargs, rounds=ROUNDS):
    """Best of ``rounds`` fused dispatches of one batch that a first,
    untimed dispatch has put in the probe memo."""
    seen = _unseen(events)
    _one_round(seen, "fused", bank_kwargs)
    return max(
        _one_round(seen, "fused", bank_kwargs) for _ in range(rounds)
    )


def measure(events=None):
    """Measure both backends under every configuration;
    returns the JSON result dict."""
    if events is None:
        events = _bench_trace()
    from repro.isa.trace import Trace

    warm = Trace(events.events[:2000])
    configs = {}
    for config, bank_kwargs in CONFIGS.items():
        for name in execution.names():
            _one_round(warm, name, bank_kwargs)
        # The scalar reference is several times slower; one round on
        # the full trace is plenty for a stable baseline-ratio
        # denominator.
        rates = {}
        for name in execution.names():
            rounds = 1 if name == "scalar" else ROUNDS
            rates[name] = _throughput(events, name, bank_kwargs, rounds)
        baseline = rates[BASELINE]
        configs[config] = {
            "backends": {
                name: {
                    "records_per_sec": round(rate, 1),
                    "speedup_vs_scalar": round(rate / baseline, 3),
                }
                for name, rate in rates.items()
            },
            "fused_vs_scalar": round(rates["fused"] / baseline, 3),
            "fused_replay_records_per_sec": round(
                _replay_throughput(events, bank_kwargs), 1
            ),
        }
    return {
        "events": len(events),
        "configs": configs,
        "fused_vs_scalar": min(c["fused_vs_scalar"] for c in configs.values()),
        "target": TARGET,
    }


def test_fused_faster_than_scalar(benchmark):
    """pytest-benchmark entry: per-backend throughput, fused >= 3x scalar
    on every configuration."""
    events = _bench_trace()
    result = benchmark.pedantic(
        lambda: measure(events), rounds=1, iterations=1
    )
    benchmark.extra_info.update(result)
    assert result["fused_vs_scalar"] >= TARGET, (
        f"fused backend below {TARGET}x scalar: {result}"
    )


def main():
    result = measure()
    REPORT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    slow = [
        name for name, config in result["configs"].items()
        if config["fused_vs_scalar"] < result["target"]
    ]
    if slow:
        print(
            f"FAIL: fused backend is below {TARGET}x the scalar reference "
            f"on: {', '.join(slow)}",
            file=sys.stderr,
        )
        return 1
    print(
        "fused/scalar speedup "
        + ", ".join(
            f"{name} {config['fused_vs_scalar']}x"
            for name, config in result["configs"].items()
        )
        + f" (floor {result['target']}x) -> {REPORT_PATH.name}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
