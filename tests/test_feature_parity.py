"""The whole-range feature matrix against the per-interval reference.

:func:`repro.simulator.sampling.interval_features` builds every
interval's fingerprint in a few whole-range numpy passes;
:func:`tests.sampling_reference.reference_interval_features` builds it
one interval at a time, the way the passes replaced.  For the same
batch, range, config and bank both must return equal bounds and a
bit-equal matrix, so phases, windows and estimates cannot move.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.static.memo import reference_machine
from repro.core import backend as execution
from repro.core.bank import MemoTableBank
from repro.isa.columns import ColumnBatch
from repro.isa.opcodes import OPCODE_LIST, Opcode
from repro.isa.programs import PROGRAMS
from repro.isa.trace import TraceEvent
from repro.simulator.sampling import FeatureConfig, PhasePlan, interval_features

from .sampling_reference import reference_interval_features

_CODES = len(OPCODE_LIST)
_ENTROPY_A, _ENTROPY_B, _DISTINCT, _PC_FRACTION = range(_CODES, _CODES + 4)
_PAIR = slice(_CODES + 4, _CODES + 20)
_PC_SIGNATURE = slice(-8, None)


def _assert_parity(batch, config, start=0, stop=None, bank_factory=None):
    features = interval_features(
        batch, config, start=start, stop=stop,
        bank=bank_factory() if bank_factory else None,
    )
    matrix, bounds = reference_interval_features(
        batch, config, start=start, stop=stop,
        bank=bank_factory() if bank_factory else None,
    )
    assert features.bounds == bounds
    assert features.matrix.shape == matrix.shape
    assert features.matrix.dtype == matrix.dtype
    assert np.array_equal(
        features.matrix.view(np.uint64), matrix.view(np.uint64)
    )
    return features


# ---------------------------------------------------------------------------
# drawn traces

#: Float operands: zeros and ones (trivial operations), repeats, values
#: that share a mantissa, an infinity, a NaN and the odd drawn value.
FLOATS = st.one_of(
    st.sampled_from([
        0.0, -0.0, 1.0, -1.0, 2.0, 1.5, 3.0, -0.75, 6.0,
        float("inf"), float("nan"),
    ]),
    st.floats(width=64),
)
INTS = st.one_of(
    st.sampled_from([-1, 0, 1, 2, 3, -5, 7, 12]),
    st.integers(-(2 ** 63), 2 ** 63 - 1),
)
PCS = st.sampled_from([0x10000 + 4 * k for k in range(12)])


@st.composite
def events(draw, pc_mode):
    opcode = draw(st.sampled_from(
        [Opcode.FMUL, Opcode.FDIV, Opcode.IMUL, Opcode.IALU]
    ))
    if opcode in (Opcode.FMUL, Opcode.FDIV):
        a, b, result = draw(FLOATS), draw(FLOATS), 0.0
    elif opcode is Opcode.IMUL:
        a, b, result = draw(INTS), draw(INTS), 0
    else:
        a, b, result = 1, 2, 3
    if pc_mode == "all" or (pc_mode == "some" and draw(st.booleans())):
        pc = draw(PCS)
    else:
        pc = None
    return TraceEvent(opcode, a, b, result, pc=pc)


@st.composite
def traces(draw):
    pc_mode = draw(st.sampled_from(["none", "all", "some"]))
    unique = draw(st.lists(events(pc_mode), min_size=1, max_size=40))
    # Repeat drawn events so operand pairs recur, as memoization needs.
    # A drawn length and a seeded generator reach the stated size, where
    # a drawn list of picks stays a few events long.
    length = draw(st.integers(1, 700))
    rng = draw(st.randoms(use_true_random=False))
    return ColumnBatch.from_events(
        [rng.choice(unique) for _ in range(length)]
    )


class TestDrawnTraces:
    @given(
        batch=traces(),
        # Short intervals make a prior lookup exactly one interval back
        # (the short-reuse boundary) common.
        interval=st.one_of(st.integers(1, 16), st.integers(1, 600)),
        seed=st.integers(0, 2 ** 64 - 1),
        with_bank=st.booleans(),
        cut=st.tuples(st.floats(0, 1), st.floats(0, 1)),
    )
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_matrix_matches_reference(
        self, batch, interval, seed, with_bank, cut
    ):
        start, stop = sorted(int(round(c * len(batch))) for c in cut)
        _assert_parity(
            batch, FeatureConfig(interval=interval, seed=seed), start, stop,
            MemoTableBank.paper_baseline if with_bank else None,
        )


# ---------------------------------------------------------------------------
# edge cases


def _trace(length=1000, pc=True):
    """FMUL/FDIV/IMUL with reuse and trivial operands, IALU between."""
    out = []
    for i in range(length):
        kind = i % 7
        site = 0x10000 + 4 * kind if pc else None
        if kind < 3:
            a, b = float(i % 5), float(i % 3 + 1)
            out.append(TraceEvent(Opcode.FMUL, a, b, a * b, pc=site))
        elif kind == 3:
            a = 1.0 + (i % 11) / 8
            out.append(TraceEvent(Opcode.FDIV, a, 3.0, a / 3.0, pc=site))
        elif kind == 4:
            out.append(TraceEvent(Opcode.IMUL, i % 4 - 1, 9, 0, pc=site))
        else:
            out.append(TraceEvent(Opcode.IALU, 1, 2, 3, pc=site))
    return ColumnBatch.from_events(out)


@pytest.mark.parametrize("with_bank", [False, True], ids=["plain", "bank"])
class TestEdges:
    def _bank(self, with_bank):
        return MemoTableBank.paper_baseline if with_bank else None

    def test_empty_range(self, with_bank):
        features = _assert_parity(
            _trace(), FeatureConfig(interval=250), 400, 400,
            self._bank(with_bank),
        )
        assert features.matrix.shape == (0, 0)
        assert features.bounds == []

    def test_range_shorter_than_one_interval(self, with_bank):
        features = _assert_parity(
            _trace(), FeatureConfig(interval=250), 10, 50,
            self._bank(with_bank),
        )
        assert features.bounds == [(10, 50)]
        assert features.matrix[0, :_CODES].sum() == pytest.approx(1.0)

    def test_final_partial_interval(self, with_bank):
        features = _assert_parity(
            _trace(), FeatureConfig(interval=300), 0, None,
            self._bank(with_bank),
        )
        assert features.bounds[-1] == (900, 1000)
        assert np.allclose(features.matrix[:, :_CODES].sum(axis=1), 1.0)

    def test_intervals_without_memoizable_events(self, with_bank):
        batch = ColumnBatch.from_events(
            _trace(300).to_events()
            + [TraceEvent(Opcode.IALU, 1, 2, 3, pc=0x20000)] * 500
        )
        features = _assert_parity(
            batch, FeatureConfig(interval=100), 0, None,
            self._bank(with_bank),
        )
        quiet = features.matrix[3:]
        assert (quiet[:, _DISTINCT] == 1.0).all()
        assert (quiet[:, _PAIR] == 0.0).all()
        assert (quiet[:, [_ENTROPY_A, _ENTROPY_B]] == 0.0).all()
        lo, hi = features.reuse_columns
        assert (quiet[:, lo:hi] == 0.0).all()
        assert (features.matrix[:3, _DISTINCT] < 1.0).all()

    def test_reuse_exactly_one_interval_back(self, with_bank):
        fill = TraceEvent(Opcode.IALU, 1, 2, 3)
        pair = TraceEvent(Opcode.FDIV, 3.0, 2.0, 1.5)
        batch = ColumnBatch.from_events(
            [pair] + [fill] * 99 + [pair] + [fill] * 100 + [pair]
            + [fill] * 98
        )
        features = _assert_parity(
            batch, FeatureConfig(interval=100), 0, None,
            self._bank(with_bank),
        )
        lo, _ = features.reuse_columns
        width = 3 if with_bank else 2
        column = lo + width * [op.name for op in features.ops].index(
            "FP_DIV"
        )
        # 100 events back is within one interval; 101 is not.
        assert features.matrix[:, column].tolist() == [0.0, 1.0, 1.0]
        assert features.matrix[:, column + 1].tolist() == [0.0, 1.0, 0.0]

    def test_intervals_without_recorded_pc(self, with_bank):
        batch = ColumnBatch.from_events(
            _trace(400).to_events() + _trace(400, pc=False).to_events()
        )
        features = _assert_parity(
            batch, FeatureConfig(interval=200), 0, None,
            self._bank(with_bank),
        )
        assert (features.matrix[:2, _PC_FRACTION] == 1.0).all()
        assert (features.matrix[2:, _PC_FRACTION] == 0.0).all()
        assert (features.matrix[2:, _PC_SIGNATURE] == 0.0).all()
        assert np.allclose(features.matrix[:2, _PC_SIGNATURE].sum(axis=1), 1)


# ---------------------------------------------------------------------------
# bundled programs


@pytest.mark.parametrize(
    "n", [256, pytest.param(8192, marks=pytest.mark.slow)]
)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_bundled_program_matches_reference(name, n):
    """The serve path's fingerprint: a bundled program under the paper
    baseline bank with the default phase plan's interval, at both
    sampling seeds (n = 8192 is a sample job's size)."""
    machine = reference_machine(name, n)
    machine.run(max_steps=8_000_000)
    batch = execution.as_batch(machine.trace)
    for seed in (0, 1):
        _assert_parity(
            batch, FeatureConfig(interval=PhasePlan().interval, seed=seed),
            bank_factory=MemoTableBank.paper_baseline,
        )
