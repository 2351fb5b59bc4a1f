"""Phase-weighted hit-ratio estimation from representative intervals.

The SimPoint recipe applied to memo simulation:

1. fingerprint every fixed-length interval of the trace
   (:mod:`.features`),
2. cluster the fingerprints into phases with seeded k-means
   (:mod:`.phases`),
3. simulate *a few representative intervals per phase* -- warm-up
   slice first, then the measured window -- through the selected
   execution backend, and
4. report the cluster-weighted hit-ratio estimate together with a
   **bounded warm-up error**.

Every simulation here is a kernel run
(:func:`~repro.core.backend.dispatch` or
:func:`~repro.core.backend.probe_outcomes`); the estimator keeps no
table model of its own.

The error bound: each representative starts from a flushed bank plus
``plan.warmup`` events of functional warming, so the only events whose
hit/miss outcome can differ from the full run are those in the
measurement window whose operand pair never occurred since the warm-up
began -- with *any* pre-interval table state they could at most flip
from miss to hit.  Dispatching the warm-up slice and then the window
into a fresh infinite bank (:meth:`MemoTableBank.infinite` under the
bank's trivial policy) counts exactly those first-occurrence window
lookups, and their weighted fraction of eligible window lookups is an
upper bound on how much the estimate can undershoot the full run per
unit.  (Finite-table replacement noise is second-order and not covered
by the bound; the CI accuracy gate measures the realized end-to-end
error on every bundled program.)

The residency model: one kernel pass of the *whole* trace through a
never-probed copy of the bank's units gives every event's full-run
outcome (:mod:`.features`); a lookup is *resident* when that pass hit
it.  The verdicts are the simulator's own under every replacement
policy, tag mode, trivial policy and infinite table.

The cold-start correction: the first-occurrence-in-slice window
lookups split into two populations.  Pairs that *never* occurred
before the slice miss in the full run too -- truncated warm-up already
simulates them faithfully.  Pairs that did occur earlier in the trace
and that the full run serves from its table are cold in the truncated
run only because of the truncation; the cold-start correction
counts them back as hits.  Key identity follows the
default table semantics -- full-value keys, trivial operands excluded
from lookups, commutative operand matching where the operation
declares it (:func:`~.features.prior_lookup_index`) -- and the bound
above still brackets the corrected estimate: the correction moves the
point estimate from the "all unknown lookups miss" end of the bracket
toward the "resident pairs hit" end.

The control variate: the estimate is

    model(full trace) + sum over windows of
        weight * (measured(window) - model(window))

rather than a pure weighted window average, where the model counts
each unit's events by their outcome in the residency model's full run:
an event is eligible unless it bypassed the table (a trivial operation
under EXCLUDE) and a hit when that run hit it (under INTEGRATED a
trivial operation is one; under CACHE_ALL it hits or misses in the
table).  That is the counting rule of ``UnitStats.hit_ratio``, so the
model's full-trace term is the full run's exact hit ratio
(``model_hit_ratios``), and a window's model counts cover the same
events as its measured ``lookups + trivial_hits``.  Where the windows
measure what the full run did the residuals vanish and sampling
variance with them; where they do not (misses a window's truncated
warm-up causes) the residuals carry the difference.

For an LRU table with FULL tags under EXCLUDE or INTEGRATED the
residuals always vanish.  A window lookup hits in the truncated run
exactly when the full run hits it and its previous same-key lookup
lies inside the warm-up slice: its set has then seen the same distinct
keys since that lookup in both runs.  The cold-start correction adds
back exactly the full-run hits whose previous lookup lies before the
slice, so every window's measured counts equal its model's and the
estimate is the full run's exact ratio.  FIFO and MANTISSA tables can
differ.

All simulation follows the process-wide backend selection (``scalar``
| ``fused``; scope one with ``use_backend``) and stays bit-identical
across them -- the parity suite asserts it.  ``work_reduction`` counts
the window and bound events only; the whole-trace residency pass, one
more kernel run over every event, is not in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ... import obs
from ...core import backend as execution
from ...core.bank import MemoTableBank
from ...core.operations import Operation
from ...errors import ConfigurationError
from ...isa.opcodes import OPCODE_LIST
from .features import FeatureConfig, interval_features
from .phases import cluster_phases, sample_intervals

__all__ = ["PhasePlan", "PhaseEstimate", "RepresentativeWindow",
           "estimate_phases"]


@dataclass(frozen=True)
class PhasePlan:
    """Phase-aware sampling parameters.

    ``phases``
        Target number of phases (k-means k; clamped to the interval
        count).
    ``interval``
        Interval length in events -- both the feature granularity and
        the measurement-window length.
    ``warmup``
        Functional-warming events simulated before each representative
        window (truncated at the start of the trace).
    ``seed``
        Seeds the k-means init and the pc-signature mixing.
    ``samples_per_phase``
        Measured windows per phase: the centroid-nearest
        representative plus seeded extra members, stratified so
        within-phase variance averages out instead of riding on one
        interval.

    The defaults are the plan ``repro sample`` and serve's ``sample``
    jobs run.
    """

    phases: int = 16
    interval: int = 250
    warmup: int = 500
    seed: int = 0
    samples_per_phase: int = 4

    def __post_init__(self) -> None:
        if self.phases <= 0:
            raise ConfigurationError("phase count must be positive")
        if self.interval <= 0:
            raise ConfigurationError("interval must be positive")
        if self.warmup < 0:
            raise ConfigurationError("warmup must be non-negative")
        if self.samples_per_phase <= 0:
            raise ConfigurationError("samples per phase must be positive")


@dataclass
class RepresentativeWindow:
    """One simulated representative: which interval stands for a phase."""

    phase: int
    start: int
    stop: int
    weight: float
    #: Per-unit ``(eligible_lookups, hits)`` measured inside the window.
    measured: Dict[Operation, Tuple[int, int]] = field(default_factory=dict)
    #: Per-unit ``(eligible_lookups, infinite_misses)`` from the
    #: infinite-table replay of the warm-up + window slice (empty when
    #: bounding is off or on a phase's extra windows).
    oracle: Dict[Operation, Tuple[int, int]] = field(default_factory=dict)
    #: Per-unit count of window lookups counted back as hits by the
    #: cold-start correction (units with none are left out).
    cold_corrections: Dict[Operation, int] = field(default_factory=dict)
    #: Per-unit ``(eligible_lookups, hits)`` the residency model
    #: predicts for this window.
    model: Dict[Operation, Tuple[int, int]] = field(default_factory=dict)


@dataclass
class PhaseEstimate:
    """Outcome of a phase-weighted sampled run."""

    plan: PhasePlan
    backend: str
    events_total: int
    #: Events dispatched through the execution backend (warm-up + windows).
    events_simulated: int
    #: Events inside measurement windows.
    events_measured: int
    #: Events replayed through infinite tables for the warm-up bound.
    oracle_events: int
    intervals: int
    phases: int
    representatives: List[RepresentativeWindow]
    #: Cluster-weighted hit-ratio estimate per unit.
    hit_ratios: Dict[Operation, float]
    #: Upper bound on per-unit estimate undershoot from truncated warm-up.
    warmup_error_bound: Dict[Operation, float]
    #: The residency model's own full-trace hit-ratio per unit.
    model_hit_ratios: Dict[Operation, float] = field(default_factory=dict)

    @property
    def speedup_factor(self) -> float:
        """Full-trace events over backend-simulated events."""
        if not self.events_simulated:
            return 1.0
        return self.events_total / self.events_simulated

    @property
    def work_reduction(self) -> float:
        """Full-trace events over window and bound events.

        This is the >10x figure the CI gate checks: the bound's
        infinite-table replay is per-event work even though it only
        feeds the error bound.  The whole-trace residency pass is not
        counted (see module docstring).
        """
        touched = self.events_simulated + self.oracle_events
        if not touched:
            return 1.0
        return self.events_total / touched

    @property
    def max_warmup_error_bound(self) -> float:
        if not self.warmup_error_bound:
            return 0.0
        return max(self.warmup_error_bound.values())

    def as_dict(self) -> Dict[str, object]:
        """JSON-able document (the serve job result / CLI --json body)."""
        return {
            "plan": {
                "phases": self.plan.phases,
                "interval": self.plan.interval,
                "warmup": self.plan.warmup,
                "seed": self.plan.seed,
                "samples_per_phase": self.plan.samples_per_phase,
            },
            "backend": self.backend,
            "events_total": self.events_total,
            "events_simulated": self.events_simulated,
            "events_measured": self.events_measured,
            "oracle_events": self.oracle_events,
            "intervals": self.intervals,
            "phases": self.phases,
            "speedup_factor": self.speedup_factor,
            "work_reduction": self.work_reduction,
            "representatives": [
                {
                    "phase": rep.phase,
                    "start": rep.start,
                    "stop": rep.stop,
                    "weight": rep.weight,
                }
                for rep in self.representatives
            ],
            "hit_ratios": {
                op.name: ratio for op, ratio in sorted(
                    self.hit_ratios.items(), key=lambda pair: pair[0].name
                )
            },
            "warmup_error_bound": {
                op.name: bound for op, bound in sorted(
                    self.warmup_error_bound.items(),
                    key=lambda pair: pair[0].name,
                )
            },
            "max_warmup_error_bound": self.max_warmup_error_bound,
            "model_hit_ratios": {
                op.name: ratio for op, ratio in sorted(
                    self.model_hit_ratios.items(),
                    key=lambda pair: pair[0].name,
                )
            },
        }


def _unit_counts(units) -> Dict[Operation, Tuple[int, int, int]]:
    """Per-unit ``(lookups, hits, trivial_hits)`` so far."""
    return {
        op: (unit.table.stats.lookups, unit.table.stats.hits,
             unit.stats.trivial_hits)
        for op, unit in units.items()
    }


def _window_counts(
    batch, units, warm_start: int, start: int, stop: int
) -> Dict[Operation, Tuple[int, int, int]]:
    """Dispatch ``[warm_start, start)`` and then ``[start, stop)`` into
    ``units``; per-unit ``(lookups, hits, trivial_hits)`` of the
    window alone."""
    if warm_start < start:
        execution.dispatch(batch, units, start=warm_start, stop=start)
    before = _unit_counts(units)
    execution.dispatch(batch, units, start=start, stop=stop)
    return {
        op: tuple(after - base for after, base in zip(counts, before[op]))
        for op, counts in _unit_counts(units).items()
    }


def _model_events(
    batch, unit_ops, outcomes
) -> Dict[Operation, Tuple[np.ndarray, np.ndarray]]:
    """Per unit, the residency model's eligible events and hits as
    per-event masks: the unit's events whose full-run outcome is not a
    bypass, and those whose outcome is a hit.

    These are the events and the counting rule of
    :attr:`~repro.core.stats.UnitStats.hit_ratio` under every trivial
    policy (a bypass is an EXCLUDE trivial operation; an INTEGRATED
    one is a hit; a CACHE_ALL one hits or misses in the table), so a
    window's model counts cover the events its measured
    ``lookups + trivial_hits`` cover, and the totals are the full
    run's own counts.
    """
    opcode = batch.views().opcode
    counted = outcomes != execution.OUTCOME_BYPASS
    hit = outcomes == execution.OUTCOME_HIT
    masks = {}
    for op in unit_ops:
        mine = np.isin(opcode, [
            code for code, entry in enumerate(OPCODE_LIST)
            if entry.operation is op
        ])
        masks[op] = (mine & counted, mine & hit)
    return masks


def estimate_phases(
    events,
    bank: Optional[MemoTableBank] = None,
    plan: Optional[PhasePlan] = None,
    bound_warmup: bool = True,
) -> PhaseEstimate:
    """Phase-weighted hit-ratio estimate of ``events``.

    ``events`` is a :class:`~repro.isa.trace.Trace`, a
    :class:`~repro.isa.columns.ColumnBatch` or a plain event sequence,
    taken as :func:`repro.core.backend.as_batch` converts it.  ``bank``
    supplies the table geometry (fresh
    paper baseline by default); it is flushed before every
    representative so phase order cannot leak state between windows.
    ``bound_warmup=False`` skips the infinite-table replay (no error
    bound, less work).
    """
    if plan is None:
        plan = PhasePlan()
    if bank is None:
        bank = MemoTableBank.paper_baseline()
    batch = execution.as_batch(events)
    total = len(batch)
    if not total:
        raise ConfigurationError("cannot estimate phases of an empty trace")

    with obs.span("sampling.estimate"):
        feature_config = FeatureConfig(
            interval=plan.interval, seed=plan.seed
        )
        features = interval_features(batch, feature_config, bank=bank)
        normalized = features.normalized()
        clustering = cluster_phases(
            normalized, plan.phases, seed=plan.seed
        )
        weights = clustering.weights()
        sampled = sample_intervals(
            clustering, normalized, plan.samples_per_phase, seed=plan.seed
        )

        impl_name = execution.resolve()
        # The per-event arrays were already computed for the
        # residency-rate feature columns; reuse them verbatim.
        prev, unit_of = features.prev, features.unit_of
        unit_ops, resident = features.ops, features.resident
        model_events = _model_events(batch, unit_ops, features.outcomes)
        simulated = 0
        measured_events = 0
        oracle_events = 0
        representatives: List[RepresentativeWindow] = []
        for phase in range(clustering.k):
            windows = sampled[phase]
            for which, interval_index in enumerate(windows):
                start, stop = features.bounds[int(interval_index)]
                warm_start = max(0, start - plan.warmup)
                bank.flush()
                counts = _window_counts(
                    batch, bank.units, warm_start, start, stop
                )
                simulated += stop - warm_start
                measured_events += stop - start
                rep = RepresentativeWindow(
                    phase=phase,
                    start=start,
                    stop=stop,
                    weight=float(weights[phase]) / len(windows),
                )
                # Window lookups whose key last occurred before the
                # slice began: cold in the truncated run, resident in
                # the full one (see module docstring).
                window_prev = prev[start:stop]
                cold = (
                    (window_prev >= 0)
                    & (window_prev < warm_start)
                    & resident[start:stop]
                )
                window_units = unit_of[start:stop]
                for index, op in enumerate(unit_ops):
                    count = int((cold & (window_units == index)).sum())
                    if count:
                        rep.cold_corrections[op] = count
                rep.model = {
                    op: (
                        int(np.count_nonzero(eligible[start:stop])),
                        int(np.count_nonzero(hits[start:stop])),
                    )
                    for op, (eligible, hits) in model_events.items()
                }
                for op, (lookups, hits, trivial_hits) in counts.items():
                    hits += rep.cold_corrections.get(op, 0)
                    rep.measured[op] = (lookups + trivial_hits,
                                        min(lookups, hits) + trivial_hits)
                if bound_warmup and which == 0:
                    # The infinite-table replay prices the warm-up bound
                    # on the phase's primary (centroid-nearest) window;
                    # extra stratified samples share their phase's bound.
                    infinite = MemoTableBank.infinite(
                        tuple(bank.units),
                        next(iter(bank.units.values())).trivial_policy,
                    )
                    rep.oracle = {
                        op: (lookups + trivial_hits, lookups - hits)
                        for op, (lookups, hits, trivial_hits) in
                        _window_counts(
                            batch, infinite.units, warm_start, start, stop
                        ).items()
                    }
                    oracle_events += stop - warm_start
                representatives.append(rep)

        hit_ratios: Dict[Operation, float] = {}
        bounds: Dict[Operation, float] = {}
        model_ratios: Dict[Operation, float] = {}
        for op in bank.units:
            # Anchor on the residency model's full-trace rates; the
            # windows below then contribute only their
            # measured-minus-model residual rates.
            model_eligible_t, model_hits_t = (
                int(np.count_nonzero(mask)) for mask in model_events[op]
            )
            num = model_hits_t / total
            den = model_eligible_t / total
            model_ratios[op] = (
                model_hits_t / model_eligible_t if model_eligible_t else 0.0
            )
            bound_num = bound_den = 0.0
            for rep in representatives:
                length = rep.stop - rep.start
                eligible, hits = rep.measured[op]
                model_eligible, model_hits = rep.model[op]
                num += rep.weight * (hits - model_hits) / length
                den += rep.weight * (eligible - model_eligible) / length
                if rep.oracle:
                    oracle_eligible, cold = rep.oracle[op]
                    bound_num += rep.weight * cold / length
                    bound_den += rep.weight * oracle_eligible / length
            ratio = num / den if den > 0.0 else 0.0
            hit_ratios[op] = min(1.0, max(0.0, ratio))
            bounds[op] = bound_num / bound_den if bound_den else 0.0

    estimate = PhaseEstimate(
        plan=plan,
        backend=impl_name,
        events_total=total,
        events_simulated=simulated,
        events_measured=measured_events,
        oracle_events=oracle_events,
        intervals=len(features),
        phases=clustering.k,
        representatives=representatives,
        hit_ratios=hit_ratios,
        warmup_error_bound=bounds if bound_warmup else {},
        model_hit_ratios=model_ratios,
    )
    if obs.enabled():
        reg = obs.registry()
        reg.counter_add("sampling.runs")
        reg.counter_add("sampling.intervals", estimate.intervals)
        reg.counter_add("sampling.representatives",
                        len(estimate.representatives))
        reg.counter_add("sampling.events_simulated",
                        estimate.events_simulated)
        reg.counter_add("sampling.events_measured",
                        estimate.events_measured)
        reg.counter_add("sampling.oracle_events", estimate.oracle_events)
        reg.gauge_set("sampling.phases", float(estimate.phases))
        reg.gauge_set("sampling.speedup_factor", estimate.speedup_factor)
        reg.gauge_set("sampling.work_reduction", estimate.work_reduction)
        reg.gauge_set("sampling.max_warmup_error_bound",
                      estimate.max_warmup_error_bound)
        for op, ratio in estimate.hit_ratios.items():
            reg.gauge_set(f"sampling.hit_ratio.{op.name}", ratio)
    return estimate
