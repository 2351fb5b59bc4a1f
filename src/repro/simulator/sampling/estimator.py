"""Phase-weighted hit-ratio estimation from representative intervals.

The SimPoint recipe applied to memo simulation:

1. fingerprint every fixed-length interval of the trace
   (:mod:`.features`),
2. cluster the fingerprints into phases with seeded k-means
   (:mod:`.phases`),
3. simulate *one representative interval per phase* -- warm-up slice
   first, then the measured window -- through the execution-backend
   registry, and
4. report the cluster-weighted hit-ratio estimate together with an
   **oracle-bounded warm-up error**.

The error bound: each representative starts from a flushed bank plus
``plan.warmup`` events of functional warming, so the only events whose
hit/miss outcome can differ from the full run are those in the
measurement window whose operand pair never occurred since the warm-up
began -- with *any* pre-interval table state they could at most flip
from miss to hit.  Replaying the warm-up-plus-window slice through the
golden oracle's infinite table (:class:`repro.verify.oracle.OracleBank`
with ``infinite=True``) counts exactly those first-occurrence window
lookups, and their weighted fraction of eligible window lookups is an
upper bound on how much the estimate can undershoot the full run per
unit.  (Finite-table replacement noise is second-order and not covered
by the bound; the CI accuracy gate measures the realized end-to-end
error on every bundled program.)

The cold-start correction: those first-occurrence-in-slice window
lookups split into two populations that a single vectorized
previous-occurrence pass over the trace columns (no simulation, no
per-event Python) can tell apart.  Pairs that *never* occurred before
the slice miss in the full run too -- truncated warm-up already
simulates them faithfully.  Pairs that did occur earlier in the trace
were (replacement noise aside) resident in the full run's table, so the
truncated run's one cold miss per such pair is pure warm-up artifact;
``plan.correct_cold_start`` (default on) counts them back as hits.  The
correction models the default table semantics -- full-value tags,
trivial operands excluded from lookups, commutative operand matching
where the operation declares it -- and the oracle bound above still
brackets the corrected estimate: the correction moves the point
estimate from the "all unknown lookups miss" end of the bracket toward
the "resident pairs hit" end.

The control variate: the residency sweep behind the correction
(:func:`~repro.simulator.sampling.features.likely_resident`) is an
analytic replay of the bank's real geometry -- set mapping, ways, LRU
recency -- over the *whole* trace, so its per-unit hit prediction is
near-exact for the default table semantics.  With
``plan.control_variate`` (default on) the estimate becomes

    model(full trace) + sum over windows of
        weight * (measured(window) - model(window))

instead of a pure weighted window average.  Where the model is exact
the window residuals vanish and sampling variance with them; where the
model is biased (non-LRU replacement, exotic tag modes) the sampled
residuals correct it, because measured and model are differenced on
identical events.  The simulated windows thus audit the model instead
of carrying the whole estimate, which is what makes small sample
budgets robust.

All simulation goes through :func:`repro.core.backend.dispatch`, so the
estimator inherits every registered backend (``scalar`` | ``fused``)
and stays bit-identical across them -- the parity suite asserts it.
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
    ``correct_cold_start``
        Count window lookups whose operand pair occurred before the
        warm-up slice (and would therefore have been table-resident in
        the full run) as hits instead of cold misses (see module
        docstring).
    ``control_variate``
        Anchor the estimate on the analytic residency model of the
        full trace and let the simulated windows contribute only their
        measured-minus-model residuals (see module docstring).  Off,
        the estimate is the plain weighted window average.
    """

    phases: int = 4
    interval: int = 1000
    warmup: int = 250
    seed: int = 0
    samples_per_phase: int = 1
    correct_cold_start: bool = True
    control_variate: bool = True

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
    #: Per-unit ``(eligible_lookups, infinite_misses)`` from the oracle
    #: replay of the warm-up + window slice (empty when bounding is off).
    oracle: Dict[Operation, Tuple[int, int]] = field(default_factory=dict)
    #: Per-unit count of window lookups counted back as hits by the
    #: cold-start correction (empty when the correction is off).
    cold_corrections: Dict[Operation, int] = field(default_factory=dict)
    #: Per-unit ``(eligible_lookups, hits)`` the analytic residency
    #: model predicts for this window (empty when the control variate
    #: is off).
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
    #: Events replayed through the oracle for the warm-up bound.
    oracle_events: int
    intervals: int
    phases: int
    representatives: List[RepresentativeWindow]
    #: Cluster-weighted hit-ratio estimate per unit.
    hit_ratios: Dict[Operation, float]
    #: Upper bound on per-unit estimate undershoot from truncated warm-up.
    warmup_error_bound: Dict[Operation, float]
    #: The analytic residency model's own full-trace hit-ratio per unit
    #: (empty when the control variate is off).
    model_hit_ratios: Dict[Operation, float] = field(default_factory=dict)

    @property
    def speedup_factor(self) -> float:
        """Full-trace events over backend-simulated events."""
        if not self.events_simulated:
            return 1.0
        return self.events_total / self.events_simulated

    @property
    def work_reduction(self) -> float:
        """Full-trace events over *all* touched events (backend + oracle).

        This is the honest >10x figure the CI gate checks: the oracle
        replay is real per-event work even though it only feeds the
        error bound.
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
                "correct_cold_start": self.plan.correct_cold_start,
                "control_variate": self.plan.control_variate,
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


def _oracle_window_stats(
    batch,
    bank: MemoTableBank,
    warm_start: int,
    window_start: int,
    stop: int,
) -> Dict[Operation, Tuple[int, int]]:
    """Replay ``[warm_start, stop)`` through infinite oracle tables.

    Returns per-unit ``(eligible_window_lookups, infinite_misses)``:
    the misses are the window events whose operand pair first occurs
    inside the slice -- the only events truncated warm-up can have
    mis-simulated (see module docstring).
    """
    from ...verify.oracle import OracleBank

    sample_unit = next(iter(bank.units.values()))
    oracle = OracleBank(
        trivial_policy=sample_unit.trivial_policy,
        operations=tuple(bank.units),
        infinite=True,
    )
    marks: Dict[Operation, Tuple[int, int, int]] = {}
    for index in range(warm_start, stop):
        if index == window_start:
            marks = {
                op: (unit.table.lookups, unit.table.hits, unit.trivial_hits)
                for op, unit in oracle.units.items()
            }
        event = batch.event(index)
        operation = event.opcode.operation
        if operation is None or operation not in oracle.units:
            continue
        oracle.step(operation, event.a, event.b)
    if not marks:  # window_start == warm_start
        marks = {op: (0, 0, 0) for op in oracle.units}
    out: Dict[Operation, Tuple[int, int]] = {}
    for op, unit in oracle.units.items():
        lookups0, hits0, trivial0 = marks[op]
        lookups = unit.table.lookups - lookups0
        hits = unit.table.hits - hits0
        trivial_hits = unit.trivial_hits - trivial0
        out[op] = (lookups + trivial_hits, lookups - hits)
    return out


def estimate_phases(
    events,
    bank: Optional[MemoTableBank] = None,
    plan: Optional[PhasePlan] = None,
    backend: Optional[str] = None,
    bound_warmup: bool = True,
) -> PhaseEstimate:
    """Phase-weighted hit-ratio estimate of ``events``.

    ``events`` is anything with a columnar view (a
    :class:`~repro.isa.trace.Trace`, a
    :class:`~repro.isa.columns.ColumnBatch`) or a plain event sequence
    (converted once).  ``bank`` supplies the table geometry (fresh
    paper baseline by default); it is flushed before every
    representative so phase order cannot leak state between windows.
    ``bound_warmup=False`` skips the oracle replay (no error bound,
    less non-backend work).
    """
    if plan is None:
        plan = PhasePlan()
    if bank is None:
        bank = MemoTableBank.paper_baseline()
    batch = execution.as_batch(events)
    if batch is None:
        from ...isa.columns import ColumnBatch

        batch = ColumnBatch.from_events(events)
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

        impl_name = execution.resolve(backend).name
        # The per-event arrays were already computed for the
        # residency-rate feature columns; reuse them verbatim.
        prev, unit_of = features.prev, features.unit_of
        unit_ops, resident = features.ops, features.resident
        if plan.control_variate:
            # Attribute every event (lookups *and* trivial skips) to
            # its unit so the model's eligible counts line up with the
            # measured ``lookups + trivial_hits`` on identical events.
            from ...isa.opcodes import OPCODE_LIST

            op_index = {op: i for i, op in enumerate(unit_ops)}
            code_to_idx = np.full(len(OPCODE_LIST), -1, dtype=np.int64)
            for code, opcode in enumerate(OPCODE_LIST):
                operation = opcode.operation
                if operation is not None and operation in op_index:
                    code_to_idx[code] = op_index[operation]
            event_unit = code_to_idx[batch.views().opcode]
            model_totals: Dict[Operation, Tuple[int, int]] = {}
            for index, op in enumerate(unit_ops):
                lookups_t = int((unit_of == index).sum())
                resident_t = int(resident[unit_of == index].sum())
                trivial_t = int((event_unit == index).sum()) - lookups_t
                model_totals[op] = (
                    lookups_t + trivial_t, resident_t + trivial_t
                )
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
                if warm_start < start:
                    execution.dispatch(
                        batch, bank.units,
                        start=warm_start, stop=start, backend=backend,
                    )
                    simulated += start - warm_start
                before = {
                    op: (unit.table.stats.lookups, unit.table.stats.hits,
                         unit.stats.trivial_hits)
                    for op, unit in bank.units.items()
                }
                execution.dispatch(
                    batch, bank.units, start=start, stop=stop,
                    backend=backend,
                )
                simulated += stop - start
                measured_events += stop - start
                rep = RepresentativeWindow(
                    phase=phase,
                    start=start,
                    stop=stop,
                    weight=float(weights[phase]) / len(windows),
                )
                if plan.correct_cold_start:
                    # Window lookups whose key last occurred before the
                    # slice began: cold in the truncated run, resident
                    # in the full one (see module docstring).
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
                if plan.control_variate:
                    window_units = unit_of[start:stop]
                    window_events = event_unit[start:stop]
                    window_resident = resident[start:stop]
                    for index, op in enumerate(unit_ops):
                        mine = window_units == index
                        lookups_w = int(mine.sum())
                        resident_w = int(window_resident[mine].sum())
                        trivial_w = (
                            int((window_events == index).sum()) - lookups_w
                        )
                        rep.model[op] = (
                            lookups_w + trivial_w, resident_w + trivial_w
                        )
                for op, unit in bank.units.items():
                    lookups0, hits0, trivial0 = before[op]
                    lookups = unit.table.stats.lookups - lookups0
                    hits = unit.table.stats.hits - hits0
                    trivial_hits = unit.stats.trivial_hits - trivial0
                    hits += rep.cold_corrections.get(op, 0)
                    rep.measured[op] = (lookups + trivial_hits,
                                        min(lookups, hits) + trivial_hits)
                if bound_warmup and which == 0:
                    # The oracle replay prices the warm-up bound on the
                    # phase's primary (centroid-nearest) window; extra
                    # stratified samples share their phase's bound.
                    rep.oracle = _oracle_window_stats(
                        batch, bank, warm_start, start, stop
                    )
                    oracle_events += stop - warm_start
                representatives.append(rep)

        hit_ratios: Dict[Operation, float] = {}
        bounds: Dict[Operation, float] = {}
        model_ratios: Dict[Operation, float] = {}
        for op in bank.units:
            num = den = 0.0
            if plan.control_variate:
                # Anchor on the analytic model's full-trace rates; the
                # windows below then contribute only their
                # measured-minus-model residual rates.
                model_eligible_t, model_hits_t = model_totals[op]
                num = model_hits_t / total
                den = model_eligible_t / total
                model_ratios[op] = (
                    model_hits_t / model_eligible_t
                    if model_eligible_t else 0.0
                )
            bound_num = bound_den = 0.0
            for rep in representatives:
                length = rep.stop - rep.start
                eligible, hits = rep.measured[op]
                if plan.control_variate:
                    model_eligible, model_hits = rep.model[op]
                    num += rep.weight * (hits - model_hits) / length
                    den += rep.weight * (eligible - model_eligible) / length
                else:
                    num += rep.weight * hits / length
                    den += rep.weight * eligible / length
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
