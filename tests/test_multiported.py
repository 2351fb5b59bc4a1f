"""Tests for the reference model of shared multi-ported tables and the
table-as-unit (``tests/dual_issue_reference.py``)."""

import pytest

from repro.core.config import MemoTableConfig
from repro.core.memo_table import MemoTable
from repro.core.operations import Operation

from .dual_issue_reference import DualIssueModel, SharedMemoTable, TableOnlyUnit


def _table():
    return MemoTable(MemoTableConfig(commutative=True))


class TestSharedMemoTable:
    def test_port_validation(self):
        with pytest.raises(ValueError):
            SharedMemoTable(_table(), ports=0)

    def test_no_conflict_within_port_budget(self):
        shared = SharedMemoTable(_table(), ports=2)
        shared.begin_cycle()
        shared.lookup(1.0, 2.0)
        shared.lookup(3.0, 4.0)
        assert shared.port_conflicts == 0

    def test_conflict_beyond_ports(self):
        shared = SharedMemoTable(_table(), ports=2)
        shared.begin_cycle()
        for pair in ((1.0, 2.0), (3.0, 4.0), (5.0, 6.0)):
            shared.lookup(*pair)
        assert shared.port_conflicts == 1

    def test_begin_cycle_resets_ports(self):
        shared = SharedMemoTable(_table(), ports=1)
        shared.begin_cycle()
        shared.lookup(1.0, 2.0)
        shared.begin_cycle()
        shared.lookup(3.0, 4.0)
        assert shared.port_conflicts == 0

    def test_sharing_enables_cross_unit_reuse(self):
        """Section 2.3: one unit benefits from work performed by another."""
        shared = SharedMemoTable(_table(), ports=2)
        shared.begin_cycle()
        shared.insert(2.5, 4.0, 10.0)  # "unit A" computed this
        shared.begin_cycle()
        assert shared.lookup(2.5, 4.0).hit  # "unit B" reuses it


class TestTableOnlyUnit:
    def test_hit_completes_in_one_cycle(self):
        shared = SharedMemoTable(_table(), ports=2)
        unit = TableOnlyUnit(Operation.FP_MUL, shared, latency=3)
        shared.insert(2.5, 4.0, 10.0)
        shared.begin_cycle()
        outcome = unit.issue(2.5, 4.0, stall=0)
        assert outcome.hit and outcome.cycles == 1

    def test_miss_stalls_for_real_unit(self):
        shared = SharedMemoTable(_table(), ports=2)
        unit = TableOnlyUnit(Operation.FP_MUL, shared, latency=3)
        shared.begin_cycle()
        outcome = unit.issue(2.5, 4.0, stall=3)
        assert not outcome.hit and outcome.cycles == 6
        assert outcome.value == 10.0


class TestDualIssue:
    def test_pair_results_correct(self):
        model = DualIssueModel(Operation.FP_MUL, _table(), latency=3)
        values = model.issue_pair(2.0, 3.0, 4.0, 5.0)
        assert values == [6.0, 20.0]

    def test_repeated_pairs_hit_second_slot(self):
        model = DualIssueModel(Operation.FP_MUL, _table(), latency=3)
        model.issue_pair(2.0, 3.0, 4.0, 5.0)
        model.issue_pair(7.0, 8.0, 4.0, 5.0)  # second op repeats
        assert model.second_slot_hits == 1
        assert model.second_slot_hit_ratio == 0.5

    def test_speedup_at_least_one_with_reuse(self):
        model = DualIssueModel(Operation.FP_MUL, _table(), latency=5)
        for _ in range(10):
            model.issue_pair(2.0, 3.0, 4.0, 5.0)
        assert model.speedup > 1.0

    def test_baseline_serializes(self):
        model = DualIssueModel(Operation.FP_MUL, _table(), latency=5)
        model.issue_pair(2.0, 3.0, 4.0, 5.0)
        assert model.baseline_cycles == 10
