"""Unit tests for the execution-backend registry (repro.core.backend).

Covers the registry proper (registration, lookup, selection
precedence), the ``--backend`` flag and ``REPRO_BACKEND`` validation of
the experiment CLI, the serve job-spec ``backend`` field, the
per-backend metrics attribution, and a handful of targeted fused-kernel
parity cases (persistent tables across runs, pre-existing commutative
twins) that the broad parity suite only hits statistically.
"""

import os
import struct

import pytest

from repro import obs
from repro.core import backend as execution
from repro.core.bank import MemoTableBank
from repro.core.config import MemoTableConfig
from repro.core.operations import Operation
from repro.isa.columns import ColumnBatch
from repro.isa.opcodes import Opcode
from repro.isa.trace import TraceEvent
from repro.serve.protocol import JobSpec, ServeProtocolError, normalize_spec

ALL_OPERATIONS = tuple(Operation)


@pytest.fixture(autouse=True)
def _clean_selection():
    """Every test starts and ends with no backend forced."""
    saved = os.environ.pop(execution.ENV_VAR, None)
    execution.set_backend(None)
    try:
        yield
    finally:
        execution.set_backend(None)
        if saved is None:
            os.environ.pop(execution.ENV_VAR, None)
        else:
            os.environ[execution.ENV_VAR] = saved


def _bits(value):
    if isinstance(value, int) and not isinstance(value, bool):
        return ("i", value)
    return ("f", struct.unpack("<Q", struct.pack("<d", float(value)))[0])


def _fingerprint(bank):
    out = {}
    for op, unit in bank.units.items():
        t = unit.stats.table
        entries = None
        table = unit.table
        if hasattr(table, "_sets"):
            entries = [
                [
                    (e.tag, _bits(e.value), tuple(map(_bits, e.operands)),
                     e.last_used, e.inserted)
                    for e in ways
                ]
                for ways in table._sets
            ]
        out[op] = (
            unit.stats.operations, unit.stats.trivial,
            t.lookups, t.hits, t.insertions, t.evictions,
            t.commutative_hits, entries,
        )
    return out


class TestRegistry:
    def test_registered_names(self):
        assert execution.names() == ("scalar", "fused")

    def test_unknown_name_raises(self):
        with pytest.raises(execution.UnknownBackendError) as excinfo:
            execution.get("warp-drive")
        message = str(excinfo.value)
        assert "warp-drive" in message
        assert "fused" in message  # lists what IS registered

    def test_set_backend_rejects_unknown_eagerly(self):
        with pytest.raises(execution.UnknownBackendError):
            execution.set_backend("warp-drive")
        assert execution.ENV_VAR not in os.environ

    def test_describe_covers_every_backend(self):
        described = execution.describe()
        assert set(described) == set(execution.names())
        assert all(described.values())

    def test_duplicate_registration_rejected(self):
        with pytest.raises(execution.BackendError):
            execution.register(execution.FusedBackend())


class TestSelectionPrecedence:
    def test_default_is_fused(self):
        assert execution.selected_name() == "fused"

    def test_env_var_selects(self):
        os.environ[execution.ENV_VAR] = "scalar"
        assert execution.selected_name() == "scalar"

    def test_set_backend_beats_env(self):
        os.environ[execution.ENV_VAR] = "fused"
        execution.set_backend("scalar")
        assert execution.selected_name() == "scalar"

    def test_explicit_argument_beats_everything(self):
        execution.set_backend("scalar")
        assert execution.resolve("fused").name == "fused"

    def test_set_backend_mirrors_into_env(self):
        execution.set_backend("fused")
        assert os.environ[execution.ENV_VAR] == "fused"
        execution.set_backend(None)
        assert execution.ENV_VAR not in os.environ

    def test_use_backend_restores_override_and_env(self):
        os.environ[execution.ENV_VAR] = "fused"
        with execution.use_backend("scalar"):
            assert execution.selected_name() == "scalar"
            assert os.environ[execution.ENV_VAR] == "scalar"
        assert execution.selected_name() == "fused"
        assert os.environ[execution.ENV_VAR] == "fused"

    def test_use_backend_none_is_a_no_op(self):
        execution.set_backend("scalar")
        with execution.use_backend(None):
            assert execution.selected_name() == "scalar"
        assert execution.selected_name() == "scalar"


class TestCliAliases:
    def test_backend_flag_selects_named_backend(self, capsys):
        from repro.cli import main

        assert main(["list", "--backend", "scalar"]) == 0
        assert execution.selected_name() == "scalar"

    def test_unknown_backend_exits_2(self, capsys):
        from repro.cli import main

        assert main(["list", "--backend", "warp-drive"]) == 2
        assert "warp-drive" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["warp-drive", "batched"])
    def test_unknown_env_backend_exits_2(self, capsys, name):
        # A stale REPRO_BACKEND (a made-up name, or a backend that no
        # longer exists) is rejected before any experiment runs, with
        # the registered names instead of a traceback.
        from repro.cli import main

        os.environ[execution.ENV_VAR] = name
        assert main(["figure3", "--scale", "0.01"]) == 2
        err = capsys.readouterr().err
        assert name in err
        assert "scalar, fused" in err


class TestServeSpecBackend:
    def test_backend_field_accepted_and_canonical(self):
        spec = normalize_spec(
            {"type": "program", "program": "saxpy", "backend": "fused"}
        )
        assert spec["backend"] == "fused"

    def test_backend_field_validated_against_registry(self):
        with pytest.raises(ServeProtocolError):
            normalize_spec(
                {"type": "program", "program": "saxpy",
                 "backend": "warp-drive"}
            )

    def test_backend_field_changes_job_identity(self):
        base = {"type": "program", "program": "saxpy"}
        plain = JobSpec(dict(base))
        pinned = JobSpec(dict(base, backend="fused"))
        assert plain.id != pinned.id

    def test_backend_allowed_on_every_job_type(self):
        for spec in (
            {"type": "experiment", "experiment": "table7",
             "backend": "fused"},
            {"type": "fuzz", "backend": "scalar"},
        ):
            assert normalize_spec(spec)["backend"] == spec["backend"]

    def test_run_job_scopes_backend_and_restores(self):
        from repro.serve.jobs import run_job

        result = run_job(
            {"type": "program", "program": "saxpy", "n": 8,
             "backend": "scalar"}
        )
        assert result["backend"] == "scalar"
        assert result["instructions"] > 0
        # The job-scoped selection must not leak into the worker.
        assert execution.selected_name() == "fused"


class TestMetricsAttribution:
    def test_dispatch_records_backend_metrics(self):
        events = [TraceEvent(Opcode.FMUL, 2.0, 3.0, 6.0)] * 4
        bank = MemoTableBank.paper_baseline(operations=ALL_OPERATIONS)
        obs.set_enabled(True)
        obs.registry().clear()
        try:
            execution.dispatch(events, bank.units, backend="fused")
            snapshot = obs.registry().as_dict()
        finally:
            obs.set_enabled(None)
        assert snapshot["counters"]["backend.fused.dispatches"] == 1
        assert snapshot["gauges"]["backend.fused.selected"] == 1.0
        assert "backend.fused.run" in snapshot["spans"]
        assert snapshot["counters"]["kernel.instructions"] == 4


class TestFusedTargetedParity:
    """Cases the fused kernel's dedup/LUT structure makes delicate."""

    def _run(self, backend, runs, config=None):
        bank = MemoTableBank.paper_baseline(
            config=config, operations=ALL_OPERATIONS
        )
        for events in runs:
            # Columnar input, so the fused side runs its pair-id loop
            # rather than degrading to the scalar one.
            batch = ColumnBatch.from_events(events)
            assert execution.as_batch(batch) is not None
            execution.dispatch(batch, bank.units, backend=backend)
        return _fingerprint(bank)

    def test_table_state_persists_across_runs(self):
        first = [
            TraceEvent(Opcode.FMUL, 2.5, 3.5, 8.75),
            TraceEvent(Opcode.FMUL, 1.5, 4.0, 6.0),
            TraceEvent(Opcode.FDIV, 9.0, 3.0, 3.0),
        ]
        second = [
            TraceEvent(Opcode.FMUL, 2.5, 3.5, 8.75),  # hit from run 1
            TraceEvent(Opcode.FMUL, 7.0, 2.0, 14.0),
            TraceEvent(Opcode.FDIV, 9.0, 3.0, 3.0),   # hit from run 1
        ]
        config = MemoTableConfig(entries=8, associativity=2)
        assert self._run("fused", [first, second], config) == (
            self._run("scalar", [first, second], config)
        )

    def test_commutative_twin_from_previous_run(self):
        # Run 1 inserts (2.5, 3.5); run 2 probes (3.5, 2.5) and must
        # take the commutative hit against the *pre-existing* entry.
        first = [TraceEvent(Opcode.FMUL, 2.5, 3.5, 8.75)]
        second = [TraceEvent(Opcode.FMUL, 3.5, 2.5, 8.75)]
        fused = self._run("fused", [first, second])
        scalar = self._run("scalar", [first, second])
        assert fused == scalar
        assert fused[Operation.FP_MUL][6] == 1  # commutative_hits

    def test_duplicate_heavy_trace_bit_exact(self):
        events = []
        for i in range(6):
            a, b = float(i % 3) + 0.5, float(i % 2) + 1.5
            events.append(TraceEvent(Opcode.FMUL, a, b, a * b))
            events.append(TraceEvent(Opcode.FMUL, b, a, a * b))
        config = MemoTableConfig(entries=4, associativity=1)
        assert self._run("fused", [events], config) == (
            self._run("scalar", [events], config)
        )
