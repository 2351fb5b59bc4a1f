"""The observability layer: registry, exporters, and the parity gate.

The load-bearing guarantee is the last class: enabling metrics changes
*no simulation result bit* for any bundled program, and a serial
experiment batch reports the same metrics structure (and counter
values) as a ``jobs > 1`` batch.
"""

import json

import pytest

from repro import obs
from repro.analysis.static.memo import PROGRAMS, reference_machine
from repro.core.bank import MemoTableBank
from repro.core.operations import Operation
from repro.obs.export import (
    render_table,
    to_json,
    to_prometheus,
    validate_snapshot,
)
from repro.obs.registry import MetricsRegistry


@pytest.fixture(autouse=True)
def _metrics_disabled():
    """Every test starts and ends with the layer in its default state."""
    obs.set_enabled(None)
    obs.registry().clear()
    yield
    obs.set_enabled(None)
    obs.registry().clear()


class TestRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.counter_add("a")
        reg.counter_add("a", 4)
        assert reg.as_dict()["counters"] == {"a": 5}

    def test_add_counters_skips_zero_deltas(self):
        reg = MetricsRegistry()
        reg.add_counters("k", {"hits": 3, "misses": 0})
        assert reg.as_dict()["counters"] == {"k.hits": 3}

    def test_gauges_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge_set("ratio", 0.25)
        reg.gauge_set("ratio", 0.75)
        assert reg.as_dict()["gauges"] == {"ratio": 0.75}

    def test_span_records_monotonic_time(self):
        reg = MetricsRegistry()
        with reg.span("work"):
            sum(range(1000))
        with reg.span("work"):
            pass
        data = reg.as_dict()["spans"]["work"]
        assert data["count"] == 2
        assert data["wall_s"] >= 0.0
        assert data["max_wall_s"] <= data["wall_s"] + 1e-9

    def test_merge_adds_counters_and_spans(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.counter_add("n", 2)
        b.counter_add("n", 3)
        with b.span("s"):
            pass
        a.merge(b.as_dict())
        merged = a.as_dict()
        assert merged["counters"]["n"] == 5
        assert merged["spans"]["s"]["count"] == 1

    def test_enabled_tracks_env_and_override(self, monkeypatch):
        monkeypatch.delenv(obs.ENV_VAR, raising=False)
        assert not obs.enabled()
        monkeypatch.setenv(obs.ENV_VAR, "1")
        assert obs.enabled()
        monkeypatch.setenv(obs.ENV_VAR, "0")
        assert not obs.enabled()

    def test_set_enabled_mirrors_env_for_workers(self, monkeypatch):
        monkeypatch.delenv(obs.ENV_VAR, raising=False)
        import os

        obs.set_enabled(True)
        assert os.environ.get(obs.ENV_VAR) == "1"
        obs.set_enabled(None)
        assert obs.ENV_VAR not in os.environ

    def test_use_registry_scopes_writes(self):
        local = MetricsRegistry()
        with obs.use_registry(local):
            obs.registry().counter_add("scoped")
        assert local.as_dict()["counters"] == {"scoped": 1}
        assert "scoped" not in obs.registry().as_dict()["counters"]

    def test_module_span_is_noop_when_disabled(self):
        with obs.span("never"):
            pass
        assert "never" not in obs.registry().as_dict()["spans"]


class TestExporters:
    def _snapshot(self):
        reg = MetricsRegistry()
        reg.counter_add("kernel.FP_MUL.table_hits", 7)
        reg.gauge_set("sim.FP_MUL.hit_ratio", 0.5)
        with reg.span("shade.run"):
            pass
        return reg.as_dict()

    def test_json_roundtrip_validates(self):
        snapshot = json.loads(to_json(self._snapshot()))
        assert validate_snapshot(snapshot) == []

    def test_prometheus_names(self):
        text = to_prometheus(self._snapshot())
        assert "repro_kernel_FP_MUL_table_hits_total 7" in text
        assert "repro_sim_FP_MUL_hit_ratio 0.5" in text
        assert "repro_span_shade_run_count 1" in text

    def test_table_renders_every_section(self):
        text = render_table(self._snapshot())
        assert "counters:" in text and "gauges:" in text and "spans:" in text
        assert render_table(MetricsRegistry().as_dict()) == (
            "(no metrics recorded)"
        )

    def test_validate_rejects_malformed_documents(self):
        assert validate_snapshot([]) != []
        assert validate_snapshot({"schema": "nope"}) != []
        bad = self._snapshot()
        bad["counters"]["negative"] = -1
        bad["gauges"]["stringy"] = "x"
        bad["spans"]["broken"] = {"count": 1}
        problems = validate_snapshot(bad)
        assert any("negative" in p for p in problems)
        assert any("stringy" in p for p in problems)
        assert any("broken" in p for p in problems)


def _simulate(name, n=24):
    """Run one bundled program; returns everything result-bearing."""
    machine = reference_machine(name, n)
    machine.run(max_steps=2_000_000)
    bank = MemoTableBank.paper_baseline(operations=tuple(Operation))
    from repro.simulator.shade import ShadeSimulator

    report = ShadeSimulator(bank=bank).run(machine.trace)
    tables = {op.name: unit.table.snapshot() for op, unit in bank.units.items()}
    return {
        "instructions": report.instructions,
        "breakdown": {op.name: c for op, c in report.breakdown.items()},
        "stats": {
            op.name: unit.stats.as_dict() for op, unit in bank.units.items()
        },
        "tables": tables,
    }


class TestParity:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_metrics_change_no_simulation_bit(self, name):
        baseline = _simulate(name)
        obs.set_enabled(True)
        try:
            with obs.use_registry(MetricsRegistry()):
                instrumented = _simulate(name)
        finally:
            obs.set_enabled(None)
        assert instrumented == baseline

    def test_instrumented_run_actually_records(self):
        obs.set_enabled(True)
        local = MetricsRegistry()
        try:
            with obs.use_registry(local):
                _simulate("saxpy")
        finally:
            obs.set_enabled(None)
        snapshot = local.as_dict()
        assert validate_snapshot(snapshot) == []
        assert "shade.run" in snapshot["spans"]
        assert any(
            key.startswith("sim.") for key in snapshot["counters"]
        )


class TestBatchMetrics:
    def _batch(self, jobs, tmp_path, tag):
        from repro.corpus import set_active_corpus
        from repro.corpus.engine import run_experiments

        set_active_corpus(str(tmp_path / f"corpus-{tag}"))
        obs.set_enabled(True)
        local = MetricsRegistry()
        try:
            with obs.use_registry(local):
                batch = run_experiments(["figure3"], jobs=jobs, scale=0.05)
        finally:
            obs.set_enabled(None)
            set_active_corpus(None)
        return batch, local.as_dict()

    @pytest.mark.slow
    def test_serial_and_parallel_report_identically(self, tmp_path):
        serial_batch, serial = self._batch(1, tmp_path, "serial")
        pooled_batch, pooled = self._batch(2, tmp_path, "pooled")
        assert serial["counters"] == pooled["counters"]
        assert set(serial["spans"]) == set(pooled["spans"])
        assert set(serial_batch.timings) == set(pooled_batch.timings)

    def test_worker_side_timing_present(self, tmp_path):
        from repro.corpus.engine import ExperimentTiming

        batch, snapshot = self._batch(1, tmp_path, "timing")
        timing = batch.timings["figure3"]
        assert isinstance(timing, ExperimentTiming)
        assert timing.wall > 0.0 and timing.cpu >= 0.0
        assert batch.durations["figure3"] == timing.wall
        assert "experiment.figure3" in snapshot["spans"]
