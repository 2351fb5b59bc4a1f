"""Per-backend probe-kernel throughput (records/second).

Times the same column-backed MM trace through every registered
execution backend (``repro.core.backend``: the ``scalar`` reference
and the ``fused`` kernel) and writes ``BENCH_kernel_backends.json``
with each backend's records/sec plus its speedup over ``scalar``.
CI's perf-smoke job runs this as a script and fails the build (exit 1)
if ``fused`` is less than ``TARGET`` (3x) faster than ``scalar`` --
the whole point of the columnar pair-id kernel is that partitioning
and the LUT precompute amortize, so a regression here means the fast
path stopped paying for itself.

Best-of-N timing: each backend runs ``ROUNDS`` times on a fresh bank
and the fastest round counts, which filters allocator/GC noise the
same way the sim benchmarks do.

Also runnable under pytest-benchmark alongside the other benchmarks
(``make bench``).
"""

import json
import sys
import time
from pathlib import Path

from repro.core import backend as execution
from repro.core.bank import MemoTableBank
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

#: Speedup floor for ``fused`` over ``scalar``.
TARGET = 3.0


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


def _one_round(events, backend):
    bank = MemoTableBank.paper_baseline(
        operations=tuple(Operation), latencies=None
    )
    started = time.perf_counter()
    report = execution.dispatch(events, bank.units, backend=backend)
    elapsed = time.perf_counter() - started
    return report.instructions / elapsed


def _throughput(events, backend, rounds=ROUNDS):
    return max(_one_round(events, backend) for _ in range(rounds))


def measure(events=None):
    """Measure every registered backend; returns the JSON result dict."""
    if events is None:
        events = _bench_trace()
    from repro.isa.trace import Trace

    warm = Trace(events.events[:2000])
    for name in execution.names():
        _one_round(warm, name)
    # The scalar reference is several times slower; one round on the
    # full trace is plenty for a stable baseline-ratio denominator.
    rates = {}
    for name in execution.names():
        rounds = 1 if name == "scalar" else ROUNDS
        rates[name] = _throughput(events, name, rounds=rounds)
    baseline = rates[BASELINE]
    return {
        "events": len(events),
        "backends": {
            name: {
                "records_per_sec": round(rate, 1),
                "speedup_vs_scalar": round(rate / baseline, 3),
            }
            for name, rate in rates.items()
        },
        "fused_vs_scalar": round(rates["fused"] / baseline, 3),
        "target": TARGET,
    }


def test_fused_faster_than_scalar(benchmark):
    """pytest-benchmark entry: per-backend throughput, fused >= 3x scalar."""
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
    if result["fused_vs_scalar"] < result["target"]:
        print(
            f"FAIL: fused backend is below {TARGET}x the scalar reference",
            file=sys.stderr,
        )
        return 1
    print(
        f"fused/scalar speedup {result['fused_vs_scalar']}x "
        f"(floor {result['target']}x) -> {REPORT_PATH.name}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
