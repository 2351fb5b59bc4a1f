"""Tests for the phase-aware sampling package (repro.simulator.sampling).

Covers the three layers the estimator composes -- interval features,
seeded k-means phase clustering, representative selection -- plus the
end-to-end phase-weighted estimate, its infinite-table warm-up bound
(held to the oracle's replay), the CLI
entry point and the `sample` serve job type.
"""

import json
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.static.memo import reference_machine
from repro.core import backend as execution
from repro.core.bank import MemoTableBank
from repro.core.config import (
    MemoTableConfig,
    ReplacementKind,
    TagMode,
    TrivialPolicy,
)
from repro.core.operations import Operation
from repro.errors import ConfigurationError
from repro.isa.columns import ColumnBatch
from repro.isa.opcodes import Opcode
from repro.isa.programs import PROGRAMS
from repro.isa.trace import TraceEvent
from repro.simulator.sampling import (
    FeatureConfig,
    PhaseClustering,
    PhasePlan,
    cluster_phases,
    estimate_phases,
    interval_features,
    prior_lookup_index,
    sample_intervals,
)
from repro.verify.oracle import OracleBank


@pytest.fixture(scope="module")
def saxpy_trace():
    machine = reference_machine("saxpy", 4096)
    machine.run(max_steps=2_000_000)
    return machine.trace


def _full_ratios(events):
    bank = MemoTableBank.paper_baseline()
    execution.dispatch(events, bank.units)
    return {
        op: unit.stats.hit_ratio
        for op, unit in bank.units.items()
        if unit.stats.table.lookups + unit.stats.trivial_hits
    }


class TestIntervalFeatures:
    def test_deterministic(self, saxpy_trace):
        config = FeatureConfig(interval=256, seed=3)
        one = interval_features(saxpy_trace, config)
        two = interval_features(saxpy_trace, config)
        assert np.array_equal(one.matrix, two.matrix)
        assert one.bounds == two.bounds

    def test_bounds_tile_the_trace(self, saxpy_trace):
        features = interval_features(saxpy_trace, FeatureConfig(interval=256))
        batch = execution.as_batch(saxpy_trace)
        assert features.bounds[0][0] == 0
        assert features.bounds[-1][1] == len(batch)
        for (_, stop), (start, _) in zip(features.bounds, features.bounds[1:]):
            assert stop == start

    def test_bank_adds_residency_columns(self, saxpy_trace):
        config = FeatureConfig(interval=256)
        plain = interval_features(saxpy_trace, config)
        with_bank = interval_features(
            saxpy_trace, config, bank=MemoTableBank.paper_baseline()
        )
        lo, hi = plain.reuse_columns
        lo2, hi2 = with_bank.reuse_columns
        # Without a bank: every memoizable op, 2 reuse columns each.
        # With one: only the bank's units, plus the residency column.
        assert hi - lo == 2 * len(plain.ops)
        assert hi2 - lo2 == 3 * len(with_bank.ops)
        assert len(with_bank.ops) < len(plain.ops)
        assert plain.resident is None
        assert with_bank.resident is not None

    def test_bounds_outside_the_trace_rejected(self, saxpy_trace):
        batch = execution.as_batch(saxpy_trace)
        total = len(batch)
        for start, stop in (
            (-300, None), (0, total + 1), (total, total + 300),
        ):
            with pytest.raises(ConfigurationError):
                interval_features(batch, start=start, stop=stop)

    def test_normalized_scales_reuse_block(self, saxpy_trace):
        config = FeatureConfig(interval=256, reuse_weight=5.0)
        features = interval_features(saxpy_trace, config)
        base = interval_features(
            saxpy_trace, FeatureConfig(interval=256, reuse_weight=1.0)
        )
        lo, hi = features.reuse_columns
        assert np.allclose(
            features.normalized()[:, lo:hi],
            5.0 * base.normalized()[:, lo:hi],
        )


def _mixed_trace(length=3000, seed=5):
    """FMUL/FDIV/IMUL events with reuse, set conflicts, operands that
    share a mantissa, and integer multiplies by -1, 0 and 1."""
    rng = random.Random(seed)
    floats = [1.5, 3.0, 6.0, -0.75, 2.25, 4.5, 0.0, 1.0, -1.0] + [
        1.0 + k / 64.0 for k in range(40)
    ]
    ints = [-1, 0, 1, 2, 3, -5, 7, 12, 100] + list(range(20, 60))
    events = []
    for _ in range(length):
        kind = rng.random()
        if kind < 0.4:
            a, b = rng.choice(floats), rng.choice(floats)
            events.append(TraceEvent(Opcode.FMUL, a, b, a * b))
        elif kind < 0.6:
            a, b = rng.choice(floats), rng.choice(floats[1:6])
            events.append(TraceEvent(Opcode.FDIV, a, b, a / b))
        elif kind < 0.9:
            a, b = rng.choice(ints), rng.choice(ints)
            events.append(TraceEvent(Opcode.IMUL, a, b, a * b))
        else:
            events.append(TraceEvent(Opcode.IALU, 1, 2, 3))
    return ColumnBatch.from_events(events)


def _walk_hits(batch, bank):
    """Each event's ``unit.execute(...).hit`` in an event-at-a-time walk."""
    hits = []
    for event in batch.to_events():
        unit = bank.units.get(event.opcode.operation)
        hits.append(unit is not None and unit.execute(event.a, event.b).hit)
    return np.array(hits)


_BANKS = {
    f"{replacement.name}-{policy.name}-{tags.name}": (
        lambda replacement=replacement, policy=policy, tags=tags:
        MemoTableBank.paper_baseline(
            config=MemoTableConfig(replacement=replacement, tag_mode=tags),
            trivial_policy=policy,
        )
    )
    for replacement in ReplacementKind
    for policy in TrivialPolicy
    for tags in TagMode
}
_BANKS.update({
    f"infinite-{policy.name}": (
        lambda policy=policy: MemoTableBank.infinite(trivial_policy=policy)
    )
    for policy in TrivialPolicy
})


class TestResidencyModel:
    def test_first_occurrence_never_resident(self):
        events = [
            TraceEvent(Opcode.FDIV, float(i) + 2.5, 2.0, (float(i) + 2.5) / 2)
            for i in range(64)
        ]
        features = interval_features(
            ColumnBatch.from_events(events), FeatureConfig(interval=16),
            bank=MemoTableBank.paper_baseline(),
        )
        assert not features.resident.any()  # 64 distinct pairs, no reuse

    def test_steady_reuse_is_resident(self):
        events = [TraceEvent(Opcode.FDIV, 3.0, 2.0, 1.5)] * 50
        features = interval_features(
            ColumnBatch.from_events(events), FeatureConfig(interval=16),
            bank=MemoTableBank.paper_baseline(),
        )
        assert not features.resident[0]
        assert features.resident[1:].all()

    @pytest.mark.parametrize("config", sorted(_BANKS))
    def test_verdicts_are_the_simulators(self, config):
        batch = _mixed_trace()
        bank = _BANKS[config]()
        features = interval_features(
            batch, FeatureConfig(interval=250), bank=bank
        )
        walked = _walk_hits(batch, _BANKS[config]())
        assert np.array_equal(features.resident, walked)
        # The model runs on a copy: the bank it was given stays unprobed.
        assert all(
            unit.stats.operations == 0 for unit in bank.units.values()
        )

    def test_lookup_mask_skips_trivial_integer_operands(self):
        batch = _mixed_trace()
        prev, unit_of, ops = prior_lookup_index(
            batch, operations=(Operation.INT_MUL,)
        )
        events = batch.to_events()
        for position, event in enumerate(events):
            trivial = event.a in (-1, 0, 1) or event.b in (-1, 0, 1)
            if event.opcode is Opcode.IMUL and not trivial:
                assert unit_of[position] == 0
            else:
                assert unit_of[position] == -1
                assert prev[position] == -1
        assert ops == [Operation.INT_MUL]

    def test_model_tracks_full_run_on_reference_programs(self):
        for name in sorted(PROGRAMS):
            machine = reference_machine(name, 2048)
            machine.run(max_steps=2_000_000)
            batch = execution.as_batch(machine.trace)
            bank = MemoTableBank.paper_baseline()
            features = interval_features(
                batch, FeatureConfig(interval=250), bank=bank
            )
            execution.dispatch(batch, bank.units)
            for index, op in enumerate(features.ops):
                mine = features.unit_of == index
                # The lookups are the table's, and so are their hits.
                table = bank.units[op].stats.table
                assert int(mine.sum()) == table.lookups, (name, op)
                assert int(features.resident[mine].sum()) == table.hits, (
                    name, op
                )


def _oracle_bound(events, window_start, operations, policy):
    """Per-unit ``(eligible, infinite misses)`` of ``events[window_start:]``
    after replaying all of ``events`` through the oracle's infinite
    tables (the reference the estimator's bound is held to)."""
    oracle = OracleBank(
        trivial_policy=policy, operations=operations, infinite=True
    )
    marks = {op: (0, 0, 0) for op in operations}
    for index, event in enumerate(events):
        if index == window_start:
            marks = {
                op: (unit.table.lookups, unit.table.hits, unit.trivial_hits)
                for op, unit in oracle.units.items()
            }
        if event.opcode.operation in oracle.units:
            oracle.step(event.opcode.operation, event.a, event.b)
    out = {}
    for op, unit in oracle.units.items():
        lookups0, hits0, trivial0 = marks[op]
        lookups = unit.table.lookups - lookups0
        trivial_hits = unit.trivial_hits - trivial0
        out[op] = (lookups + trivial_hits, lookups - (unit.table.hits - hits0))
    return out


class TestPhaseClustering:
    def _blobs(self):
        rng = np.random.default_rng(7)
        a = rng.normal(0.0, 0.05, size=(40, 3))
        b = rng.normal(4.0, 0.05, size=(40, 3))
        c = rng.normal(-3.0, 0.05, size=(8, 3))
        return np.vstack([a, b, c])

    def test_deterministic_and_separates_blobs(self):
        points = self._blobs()
        one = cluster_phases(points, 3, seed=11)
        two = cluster_phases(points, 3, seed=11)
        assert np.array_equal(one.labels, two.labels)
        assert one.inertia == two.inertia
        # Each blob lands in exactly one phase.
        for lo, hi in ((0, 40), (40, 80), (80, 88)):
            assert len(set(one.labels[lo:hi].tolist())) == 1
        assert len(set(one.labels.tolist())) == 3

    def test_k_clamped_to_interval_count(self):
        points = np.arange(6, dtype=np.float64).reshape(3, 2)
        clustering = cluster_phases(points, 10, seed=0)
        assert clustering.k == 3

    def test_restarts_validated(self):
        with pytest.raises(ConfigurationError):
            cluster_phases(np.zeros((4, 2)), 2, restarts=0)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_too_few_distinct_rows_leave_no_empty_phase(self, k):
        # Two distinct rows cannot fill three or four phases: the repair
        # steals the one-member cluster's point and empties it.  That
        # phase is dropped, so every phase keeps a representative.
        points = np.zeros((15, 2))
        points[0] = [1.0, 0.0]
        clustering = cluster_phases(points, k, seed=0)
        assert clustering.k == 2
        assert np.bincount(clustering.labels).tolist() == [14, 1]
        assert sorted(sample_intervals(clustering, points, 1)[1]) == [0]

    def test_weights_sum_to_one(self):
        clustering = cluster_phases(self._blobs(), 3, seed=0)
        assert clustering.weights().sum() == pytest.approx(1.0)

    def test_restarts_keep_lowest_inertia(self):
        points = self._blobs()
        best = cluster_phases(points, 3, seed=5, restarts=6)
        singles = [
            cluster_phases(points, 3, seed=5 + i, restarts=1)
            for i in range(6)
        ]
        assert best.inertia == min(s.inertia for s in singles)


class TestSampleIntervals:
    def test_leads_with_representative_and_is_deterministic(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(60, 4))
        clustering = cluster_phases(points, 4, seed=0)
        one = sample_intervals(clustering, points, 3, seed=1)
        two = sample_intervals(clustering, points, 3, seed=1)
        assert len(one) == clustering.k
        for got, again, phase in zip(one, two, range(clustering.k)):
            assert np.array_equal(got, again)
            members = set(np.nonzero(clustering.labels == phase)[0].tolist())
            assert set(got.tolist()) <= members
            assert len(set(got.tolist())) == len(got)  # no replacement
            assert len(got) <= 3

    def test_samples_validated(self):
        clustering = PhaseClustering(
            labels=np.zeros(4, dtype=np.int64),
            centroids=np.zeros((1, 2)),
            inertia=0.0,
            iterations=1,
        )
        with pytest.raises(ConfigurationError):
            sample_intervals(clustering, None, 0)


class TestEstimatePhases:
    PLAN = PhasePlan(phases=8, interval=250, warmup=250, samples_per_phase=2)

    def test_tracks_full_simulation(self, saxpy_trace):
        full = _full_ratios(saxpy_trace)
        estimate = estimate_phases(saxpy_trace, plan=self.PLAN)
        for op, ratio in full.items():
            assert estimate.hit_ratios[op] == pytest.approx(ratio, abs=0.02)
        assert estimate.events_simulated < estimate.events_total / 2

    def test_deterministic(self, saxpy_trace):
        one = estimate_phases(saxpy_trace, plan=self.PLAN)
        two = estimate_phases(saxpy_trace, plan=self.PLAN)
        assert one.hit_ratios == two.hit_ratios
        assert one.warmup_error_bound == two.warmup_error_bound
        assert [
            (r.phase, r.start, r.stop, r.weight) for r in one.representatives
        ] == [
            (r.phase, r.start, r.stop, r.weight) for r in two.representatives
        ]

    def test_bound_warmup_off_skips_oracle(self, saxpy_trace):
        estimate = estimate_phases(
            saxpy_trace, plan=self.PLAN, bound_warmup=False
        )
        assert estimate.oracle_events == 0
        assert estimate.max_warmup_error_bound == 0.0
        assert estimate.work_reduction == estimate.speedup_factor

    @pytest.mark.parametrize("backend", execution.names())
    def test_backend_parity(self, saxpy_trace, backend):
        with execution.use_backend("scalar"):
            reference = estimate_phases(saxpy_trace, plan=self.PLAN)
        with execution.use_backend(backend):
            estimate = estimate_phases(saxpy_trace, plan=self.PLAN)
        assert estimate.hit_ratios == reference.hit_ratios
        assert estimate.events_simulated == reference.events_simulated
        assert estimate.backend == backend

    @pytest.mark.parametrize("policy", list(TrivialPolicy))
    def test_warmup_bound_equals_an_oracle_replay(self, policy):
        batch = _mixed_trace()
        bank = MemoTableBank.paper_baseline(trivial_policy=policy)
        plan = PhasePlan(
            phases=4, interval=200, warmup=150, samples_per_phase=2
        )
        estimate = estimate_phases(batch, bank=bank, plan=plan)
        primaries = [rep for rep in estimate.representatives if rep.oracle]
        assert len(primaries) == estimate.phases
        events = batch.to_events()
        for rep in primaries:
            warm_start = max(0, rep.start - plan.warmup)
            assert rep.oracle == _oracle_bound(
                events[warm_start:rep.stop], rep.start - warm_start,
                tuple(bank.units), policy,
            )

    @pytest.mark.parametrize("policy", list(TrivialPolicy))
    def test_model_counts_the_full_runs_events(self, policy):
        """The control variate's model is the full run's own count:
        its ratio is the unit's hit ratio under every trivial policy,
        and each window's model covers the events the window measures."""
        batch = _mixed_trace()
        estimate = estimate_phases(
            batch, bank=MemoTableBank.paper_baseline(trivial_policy=policy),
            plan=self.PLAN,
        )
        bank = MemoTableBank.paper_baseline(trivial_policy=policy)
        execution.dispatch(batch, bank.units)
        assert estimate.model_hit_ratios == {
            op: unit.hit_ratio for op, unit in bank.units.items()
        }
        for rep in estimate.representatives:
            for op, (eligible, _) in rep.measured.items():
                assert rep.model[op][0] == eligible

    def test_representative_weights_sum_to_one(self, saxpy_trace):
        estimate = estimate_phases(saxpy_trace, plan=self.PLAN)
        assert sum(r.weight for r in estimate.representatives) == (
            pytest.approx(1.0)
        )

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate_phases([])

    def test_plan_validation(self):
        with pytest.raises(ConfigurationError):
            PhasePlan(phases=0)
        with pytest.raises(ConfigurationError):
            PhasePlan(interval=0)
        with pytest.raises(ConfigurationError):
            PhasePlan(warmup=-1)
        with pytest.raises(ConfigurationError):
            PhasePlan(samples_per_phase=0)

    def test_as_dict_round_trips_through_json(self, saxpy_trace):
        estimate = estimate_phases(saxpy_trace, plan=self.PLAN)
        document = json.loads(json.dumps(estimate.as_dict()))
        assert document["plan"] == {
            "phases": 8, "interval": 250, "warmup": 250, "seed": 0,
            "samples_per_phase": 2,
        }
        assert document["events_total"] == estimate.events_total
        assert set(document["hit_ratios"]) == {
            op.name for op in estimate.hit_ratios
        }
        assert document["work_reduction"] == pytest.approx(
            estimate.work_reduction
        )
        assert len(document["representatives"]) == len(
            estimate.representatives
        )


#: Float operands with reuse, values sharing a mantissa, trivial ones,
#: signed zeros and a NaN; integer ones with trivial values.
_FLOATS = st.sampled_from([
    0.0, -0.0, 1.0, -1.0, 1.5, 3.0, -6.0, 0.75, 2.25, 4.5, 1.125,
    float("nan"),
])
_INTS = st.sampled_from([-1, 0, 1, 2, 3, -5, 7, 12, 100])


@st.composite
def _drawn_events(draw):
    opcode = draw(st.sampled_from(
        [Opcode.FMUL, Opcode.FDIV, Opcode.IMUL, Opcode.IALU]
    ))
    if opcode is Opcode.IMUL:
        return TraceEvent(opcode, draw(_INTS), draw(_INTS), 0)
    if opcode is Opcode.IALU:
        return TraceEvent(opcode, 1, 2, 3)
    return TraceEvent(opcode, draw(_FLOATS), draw(_FLOATS), 0.0)


@st.composite
def _drawn_traces(draw):
    """A few distinct events replayed in drawn order: heavy reuse and
    set conflicts, so window lookups hit, miss and evict."""
    pool = draw(st.lists(_drawn_events(), min_size=1, max_size=12))
    length = draw(st.integers(1, 600))
    rng = draw(st.randoms(use_true_random=False))
    return ColumnBatch.from_events(
        [rng.choice(pool) for _ in range(length)]
    )


def _differing_windows(estimate):
    return [
        (rep.start, rep.stop, rep.measured, rep.model)
        for rep in estimate.representatives
        if rep.measured != rep.model
    ]


class TestWindowsMatchTheModel:
    """Under LRU with FULL tags and EXCLUDE or INTEGRATED, every
    window's measured counts equal its model's.  A window lookup hits
    in the truncated run exactly when the full run hits it and its
    previous same-key lookup lies inside the warm-up slice (its set has
    then seen the same distinct keys since that lookup in both runs),
    and the cold-start correction adds back exactly the full-run hits
    whose previous lookup lies before the slice.  So the sampled
    windows never move the estimate off the full run's ratio."""

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_bundled_programs_at_the_paper_baseline(self, name):
        machine = reference_machine(name, 1024)
        machine.run(max_steps=2_000_000)
        for seed in (0, 1):
            estimate = estimate_phases(
                machine.trace, bank=MemoTableBank.paper_baseline(),
                plan=PhasePlan(seed=seed),
            )
            assert estimate.representatives
            assert _differing_windows(estimate) == [], seed

    @given(
        batch=_drawn_traces(),
        sets_log=st.integers(0, 3),
        ways=st.sampled_from([1, 2, 4]),
        policy=st.sampled_from(
            [TrivialPolicy.EXCLUDE, TrivialPolicy.INTEGRATED]
        ),
        phases=st.integers(1, 4),
        interval=st.integers(5, 80),
        warmup=st.integers(0, 120),
        samples=st.integers(1, 3),
        seed=st.integers(0, 3),
    )
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_drawn_lru_geometries(
        self, batch, sets_log, ways, policy, phases, interval, warmup,
        samples, seed,
    ):
        bank = MemoTableBank.paper_baseline(
            config=MemoTableConfig(
                entries=ways << sets_log, associativity=ways
            ),
            trivial_policy=policy,
        )
        estimate = estimate_phases(
            batch, bank=bank,
            plan=PhasePlan(
                phases=phases, interval=interval, warmup=warmup,
                seed=seed, samples_per_phase=samples,
            ),
        )
        assert _differing_windows(estimate) == []


class TestSampleCli:
    def test_json_output(self, capsys, tmp_path):
        from repro.simulator.sampling.cli import main_sample

        metrics = tmp_path / "metrics.json"
        report = tmp_path / "estimate.json"
        code = main_sample([
            "--program", "saxpy", "--n", "2048", "--phases", "6",
            "--interval", "200", "--warmup", "200",
            "--compare-full", "--json", str(report),
            "--metrics-out", str(metrics),
        ])
        assert code == 0
        assert "worst abs error" in capsys.readouterr().out
        document = json.loads(report.read_text())
        assert document["program"] == "saxpy"
        assert document["full_hit_ratios"]
        for name, ratio in document["full_hit_ratios"].items():
            assert document["hit_ratios"][name] == pytest.approx(
                ratio, abs=0.05
            )
        snapshot = json.loads(metrics.read_text())
        assert any(
            name.startswith("sampling.") for name in snapshot["counters"]
        )

    def test_short_intervals_of_a_small_trace(self, capsys):
        # dot_product at n = 64 cut into 20-event intervals has fewer
        # distinct fingerprints than 16 phases; the estimate used to end
        # in a ValueError from an empty phase.
        from repro.simulator.sampling.cli import main_sample

        assert main_sample([
            "--program", "dot_product", "--n", "64", "--interval", "20",
        ]) == 0
        assert "dot_product" in capsys.readouterr().out

    def test_unknown_program_rejected(self, capsys):
        from repro.simulator.sampling.cli import main_sample

        assert main_sample(["--program", "nope"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_backend_flag_is_scoped_to_the_run(self, capsys):
        from repro.simulator.sampling.cli import main_sample

        before = execution.selected_name()
        # The name is checked before the program runs.
        assert main_sample(["--program", "nope", "--backend", "warp"]) == 2
        assert "warp" in capsys.readouterr().err
        assert main_sample([
            "--program", "saxpy", "--n", "2048", "--phases", "4",
            "--backend", "scalar", "--compare-full",
        ]) == 0
        assert "[backend=scalar]" in capsys.readouterr().out
        assert execution.selected_name() == before


class TestSampleServeJob:
    def test_normalize_fills_defaults(self):
        from repro.serve.protocol import normalize_spec

        spec = normalize_spec({"type": "sample", "program": "saxpy"})
        assert spec["n"] == 16384
        assert spec["phases"] == 16
        assert spec["interval"] == 250
        assert spec["warmup"] == 500
        assert spec["samples_per_phase"] == 4
        assert spec["seed"] == 0
        assert spec["bound"] is True

    def test_serve_and_cli_take_the_plan_defaults(self):
        from repro.serve.protocol import normalize_spec
        from repro.simulator.sampling.cli import _build_parser

        plan = PhasePlan()
        defaults = (
            plan.phases, plan.interval, plan.warmup, plan.samples_per_phase
        )
        spec = normalize_spec({"type": "sample", "program": "saxpy"})
        assert defaults == (
            spec["phases"], spec["interval"], spec["warmup"],
            spec["samples_per_phase"],
        )
        args = _build_parser().parse_args(["--program", "saxpy"])
        assert defaults == (
            args.phases, args.interval, args.warmup, args.samples_per_phase
        )

    def test_normalize_rejects_unknown_program(self):
        from repro.errors import ReproError
        from repro.serve.protocol import normalize_spec

        with pytest.raises(ReproError):
            normalize_spec({"type": "sample", "program": "not-a-program"})

    def test_describe(self):
        from repro.serve.protocol import JobSpec

        spec = JobSpec({"type": "sample", "program": "saxpy", "n": 4096})
        assert spec.describe() == "sample:saxpy(n=4096,phases=16)"

    def test_run_job_returns_estimate_document(self):
        from repro.serve.jobs import run_job

        result = run_job({
            "type": "sample", "program": "saxpy", "n": 2048,
            "phases": 6, "interval": 200, "warmup": 200,
        })
        assert result["type"] == "sample"
        assert result["program"] == "saxpy"
        assert result["n"] == 2048
        assert result["hit_ratios"]
        assert 0.0 <= result["max_warmup_error_bound"] <= 1.0
