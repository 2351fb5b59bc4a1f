"""Parity: the hazard model's probes vs. every batch backend.

The hazard-aware pipeline model must resolve each event's hit/miss
before the next issues.  Its event-walking reference
(``tests/hazard_reference.py``) probes through ``probe_one`` one event
at a time; the model itself takes the kernel's outcome column; the
fused backend reorders work into per-opcode columns and dense pair ids.
Every one must leave a bank in the identical state -- same statistics,
same table contents -- for the same trace, and the model must report
what the reference reports, or the hazard model's hit ratios (and
therefore its stall accounting) silently drift from the headline
results.
"""

import pytest

from repro.arch.latency import FAST_DESIGN, SLOW_DESIGN
from repro.core import backend as execution
from repro.core.bank import MemoTableBank
from repro.core.config import MemoTableConfig, ReplacementKind, TagMode
from repro.core.operations import Operation
from repro.isa.columns import ColumnBatch
from repro.simulator.hazard import HazardModel
from repro.verify.differential import (
    ALL_OPERATIONS,
    _bank_fingerprint,
    canonicalize,
    table_contents,
)
from repro.verify.fuzz import TraceFuzzer

from .hazard_reference import ReferenceHazardModel

BACKENDS = execution.names()


def _fuzzed_events(seed, n_cases=6):
    """A few deterministic fuzzer traces, canonicalized."""
    fuzzer = TraceFuzzer(seed=seed, max_events=96)
    merged = []
    for _ in range(n_cases):
        merged.extend(fuzzer.next_case().events)
    return canonicalize(merged)


def _bank(machine, config):
    return MemoTableBank.paper_baseline(
        config=config,
        operations=ALL_OPERATIONS,
        latencies=machine.latencies(),
    )


def _reference_bank(machine, config, events):
    """The bank the event-walking reference leaves; the model must
    leave the same bank and report what the reference reports."""
    reference_bank = _bank(machine, config)
    expected = ReferenceHazardModel(machine, bank=reference_bank).run(events)
    model_bank = _bank(machine, config)
    assert HazardModel(machine, bank=model_bank).run(events) == expected
    assert _bank_fingerprint(model_bank) == _bank_fingerprint(reference_bank)
    assert table_contents(model_bank) == table_contents(reference_bank)
    return reference_bank


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("machine", [FAST_DESIGN, SLOW_DESIGN],
                         ids=lambda m: m.name)
@pytest.mark.parametrize("seed", [3, 11])
def test_hazard_probe_sequence_matches_every_backend(machine, seed, backend):
    events = _fuzzed_events(seed)
    config = MemoTableConfig(entries=16, associativity=4)

    hazard_bank = _reference_bank(machine, config, events)

    backend_bank = _bank(machine, config)
    execution.dispatch(
        ColumnBatch.from_events(events), backend_bank.units, backend=backend
    )

    assert _bank_fingerprint(hazard_bank) == _bank_fingerprint(backend_bank)
    assert table_contents(hazard_bank) == table_contents(backend_bank)


@pytest.mark.parametrize(
    "config",
    [
        MemoTableConfig(entries=4, associativity=2),
        MemoTableConfig(entries=8, associativity=8,
                        replacement=ReplacementKind.FIFO),
        MemoTableConfig(entries=8, associativity=2,
                        replacement=ReplacementKind.RANDOM, seed=7),
        MemoTableConfig(entries=8, associativity=2,
                        tag_mode=TagMode.MANTISSA),
    ],
    ids=["lru-tiny", "fifo-full-assoc", "random", "mantissa"],
)
@pytest.mark.parametrize("backend", BACKENDS)
def test_hazard_parity_across_table_shapes(config, backend):
    events = _fuzzed_events(seed=5)
    hazard_bank = _reference_bank(FAST_DESIGN, config, events)

    backend_bank = _bank(FAST_DESIGN, config)
    execution.dispatch(
        ColumnBatch.from_events(events), backend_bank.units, backend=backend
    )

    assert _bank_fingerprint(hazard_bank) == _bank_fingerprint(backend_bank)
    assert table_contents(hazard_bank) == table_contents(backend_bank)


def test_hazard_report_hit_ratios_come_from_the_shared_stats():
    events = _fuzzed_events(seed=9)
    bank = _bank(FAST_DESIGN, MemoTableConfig(entries=16, associativity=4))
    report = HazardModel(FAST_DESIGN, bank=bank).run(events)

    assert report.instructions == len(events)
    for op, ratio in report.hit_ratios.items():
        assert ratio == bank.units[op].hit_ratio

    used = [op for op, unit in bank.units.items() if unit.stats.operations]
    assert used, "fuzzed trace should exercise at least one memoizable op"
