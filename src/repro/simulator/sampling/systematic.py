"""Systematic (SMARTS-style) trace sampling.

Full-size multimedia runs produce traces far longer than the reduced
ones used in tests; systematic sampling (in the spirit of SMARTS-style
simulation sampling) estimates MEMO-TABLE hit ratios from periodic
measurement windows.  Each window is preceded by a warm-up slice that
fills the tables but is excluded from the estimate.

Warm-up semantics -- :attr:`SamplingPlan.flush_between` selects one of
two documented behaviours:

``flush_between=False`` (the default)
    Table state *persists across the skipped gaps*: the bank rides
    through every interval, so a window's starting state reflects all
    previously simulated slices, not just its own warm-up.  For large
    tables whose content survives a gap this functional warming is a
    *better* approximation of the full run; for small tables after long
    skips it can systematically over-warm (stale entries the full run
    would have evicted are still resident).

``flush_between=True``
    The bank is flushed at every interval boundary, so each window sees
    exactly ``plan.warmup`` events of table history and nothing else.
    This is the strict SMARTS cold-start discipline: the per-window
    bias is bounded by the warm-up length alone (the phase-aware
    estimator in :mod:`repro.simulator.sampling.estimator` bounds that
    residual error against the oracle's infinite-table replay).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ...core import backend as execution
from ...core.bank import MemoTableBank
from ...core.operations import Operation
from ...core.stats import UnitStats
from ...errors import ConfigurationError
from ...isa.trace import TraceEvent

__all__ = ["SamplingPlan", "SampledEstimate", "estimate_hit_ratios"]


@dataclass(frozen=True)
class SamplingPlan:
    """Systematic sampling parameters (all in events).

    Every ``interval`` events, simulate ``warmup`` events with counting
    off, then ``window`` events with counting on; skip the rest.
    ``flush_between`` selects the warm-up semantics (see the module
    docstring): False rides the bank through the gaps, True flushes it
    at every interval boundary so a window depends only on its own
    warm-up slice.
    """

    window: int = 1000
    interval: int = 10_000
    warmup: int = 250
    flush_between: bool = False

    def __post_init__(self) -> None:
        if self.window <= 0 or self.interval <= 0 or self.warmup < 0:
            raise ConfigurationError(
                "window/interval must be positive, warmup non-negative"
            )
        if self.warmup + self.window > self.interval:
            raise ConfigurationError(
                "warmup + window must not exceed the sampling interval"
            )

    @property
    def simulated_fraction(self) -> float:
        """Fraction of the trace actually simulated."""
        return min(1.0, (self.warmup + self.window) / self.interval)


@dataclass
class SampledEstimate:
    """Outcome of a sampled run.

    ``events_measured`` counts every event inside a measurement window
    -- memoizable or not, trivial or not -- matching what
    ``events_simulated`` counts for the simulated slices.  (It used to
    sum per-unit table lookups, which silently dropped trivial-hit and
    non-memo events from the "measured" count while ``hit_ratios``
    still included trivial hits.)
    """

    plan: SamplingPlan
    events_total: int
    events_simulated: int
    events_measured: int
    hit_ratios: Dict[Operation, float]

    @property
    def speedup_factor(self) -> float:
        """How much simulation work sampling saved."""
        if not self.events_simulated:
            return 1.0
        return self.events_total / self.events_simulated


def estimate_hit_ratios(
    events: Sequence[TraceEvent],
    bank: Optional[MemoTableBank] = None,
    plan: Optional[SamplingPlan] = None,
    backend: Optional[str] = None,
) -> SampledEstimate:
    """Estimate per-unit hit ratios by simulating sampled windows.

    ``events`` must support indexing (a list or Trace); only the sampled
    slices are touched, so cost scales with ``plan.simulated_fraction``.
    ``backend`` pins the execution backend for every simulated slice
    (default: the registry's precedence chain, see
    :mod:`repro.core.backend`).
    """
    if bank is None:
        bank = MemoTableBank.paper_baseline()
    if plan is None:
        plan = SamplingPlan()
    units = bank.units
    total = len(events)
    simulated = 0
    measured_events = 0
    # Counters over measurement windows only.
    measured: Dict[Operation, UnitStats] = {}

    position = 0
    while position < total:
        if plan.flush_between and position:
            bank.flush()
        # Warm-up slice: update tables, ignore statistics.  Both slices
        # run through the selected execution backend (fused for
        # column-backed traces; the scalar reference loop otherwise).
        warm_end = min(position + plan.warmup, total)
        execution.dispatch(
            events, units, start=position, stop=warm_end, backend=backend
        )
        simulated += warm_end - position

        # Measurement window: snapshot per-unit counters around it.
        window_end = min(warm_end + plan.window, total)
        before = {
            op: (unit.table.stats.lookups, unit.table.stats.hits,
                 unit.stats.trivial_hits)
            for op, unit in units.items()
        }
        execution.dispatch(
            events, units, start=warm_end, stop=window_end, backend=backend
        )
        simulated += window_end - warm_end
        measured_events += window_end - warm_end
        for op, unit in units.items():
            lookups0, hits0, trivial0 = before[op]
            delta = measured.setdefault(op, UnitStats())
            delta.table.lookups += unit.table.stats.lookups - lookups0
            delta.table.hits += unit.table.stats.hits - hits0
            delta.trivial_hits += unit.stats.trivial_hits - trivial0

        position += plan.interval

    ratios = {op: stats.hit_ratio for op, stats in measured.items()}
    return SampledEstimate(
        plan=plan,
        events_total=total,
        events_simulated=simulated,
        events_measured=measured_events,
        hit_ratios=ratios,
    )
