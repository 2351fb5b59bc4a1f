"""The reference fingerprint for :mod:`repro.simulator.sampling.features`.

:func:`reference_interval_features` builds the feature matrix the direct
way: one row per interval, each from its own slice of the columns with
a dozen small numpy reductions (an opcode histogram, ``np.unique`` over
the operand triples, a byte histogram per operand column, a pair-hash
histogram, per-unit means of the reuse and residency verdicts and a
pc-hash histogram).  Production builds the whole matrix in a few
whole-range passes keyed by interval id; the tests require both to
return equal bounds and a bit-equal matrix.  Written for obviousness,
not speed: it shares the per-event arrays (``prior_lookup_index``, the
residency pass, ``pc_signature_keys``) with production and nothing
else.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core import backend as execution
from repro.isa.opcodes import OPCODE_LIST
from repro.simulator.sampling.features import (
    FeatureConfig,
    _full_run_outcomes,
    pc_signature_keys,
    prior_lookup_index,
)

__all__ = ["reference_interval_features"]

_MEMO_CODES = np.array(
    [i for i, op in enumerate(OPCODE_LIST) if op.operation is not None],
    dtype=np.uint8,
)

_PC_BUCKET_BITS = 3
_PAIR_BUCKET_BITS = 4

_PAIR_MUL_A = np.uint64(0x9E3779B97F4A7C15)
_PAIR_MUL_B = np.uint64(0xBF58476D1CE4E5B9)
_PAIR_MUL_OP = np.uint64(0x94D049BB133111EB)


def _pair_signature(
    opcode: np.ndarray, a: np.ndarray, b: np.ndarray, seed: int
) -> np.ndarray:
    """Normalized hash-bucket histogram of ``(opcode, a, b)`` patterns."""
    with np.errstate(over="ignore"):
        mixed = (
            a.view(np.uint64) * _PAIR_MUL_A
            ^ b.view(np.uint64) * _PAIR_MUL_B
            ^ opcode.astype(np.uint64) * _PAIR_MUL_OP
            ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        )
        mixed ^= mixed >> np.uint64(31)
        mixed *= _PAIR_MUL_B
        mixed ^= mixed >> np.uint64(29)
    buckets = (mixed >> np.uint64(64 - _PAIR_BUCKET_BITS)).astype(np.int64)
    return (
        np.bincount(buckets, minlength=1 << _PAIR_BUCKET_BITS) / len(buckets)
    )


def _byte_entropy(column: np.ndarray) -> float:
    """Shannon entropy (bits, normalized to [0, 1]) of a column's bytes."""
    if not column.size:
        return 0.0
    counts = np.bincount(column.view(np.uint8), minlength=256)
    total = counts.sum()
    probs = counts[counts > 0] / total
    return float(-(probs * np.log2(probs)).sum() / 8.0)


def _interval_row(
    views,
    start: int,
    stop: int,
    seed: int,
    prev: np.ndarray,
    unit_of: np.ndarray,
    n_units: int,
    short_distance: int,
    resident: Optional[np.ndarray],
) -> np.ndarray:
    """One interval's raw feature row."""
    n = stop - start
    opcode = views.opcode[start:stop]
    mix = np.bincount(opcode, minlength=len(OPCODE_LIST)) / n

    memo_mask = np.isin(opcode, _MEMO_CODES)
    memo_idx = np.nonzero(memo_mask)[0]
    if memo_idx.size:
        a = views.a_i[start:stop][memo_idx]
        b = views.b_i[start:stop][memo_idx]
        entropy_a = _byte_entropy(a)
        entropy_b = _byte_entropy(b)
        triples = np.stack(
            (opcode[memo_idx].astype(np.int64), a, b), axis=1
        )
        distinct = len(np.unique(triples, axis=0)) / memo_idx.size
        pair_signature = _pair_signature(opcode[memo_idx], a, b, seed)
    else:
        entropy_a = entropy_b = 0.0
        distinct = 1.0
        pair_signature = np.zeros(1 << _PAIR_BUCKET_BITS, dtype=np.float64)

    width = 2 if resident is None else 3
    reuse = np.zeros(width * n_units, dtype=np.float64)
    window_prev = prev[start:stop]
    window_unit = unit_of[start:stop]
    for unit in range(n_units):
        mine = np.nonzero(window_unit == unit)[0]
        if not mine.size:
            continue
        prior = window_prev[mine]
        has_prior = prior >= 0
        short = has_prior & ((mine + start) - prior <= short_distance)
        reuse[width * unit] = has_prior.mean()
        reuse[width * unit + 1] = short.mean()
        if resident is not None:
            reuse[width * unit + 2] = resident[start:stop][mine].mean()

    keys, present = pc_signature_keys(views, start, stop, seed)
    present_count = int(present.sum())
    signature = np.zeros(1 << _PC_BUCKET_BITS, dtype=np.float64)
    if present_count:
        buckets = (keys[present] >> np.uint64(64 - _PC_BUCKET_BITS)).astype(
            np.int64
        )
        signature = (
            np.bincount(buckets, minlength=1 << _PC_BUCKET_BITS)
            / present_count
        )
    pc_fraction = present_count / n

    return np.concatenate((
        mix,
        np.array([entropy_a, entropy_b, distinct, pc_fraction]),
        pair_signature,
        reuse,
        signature,
    ))


def reference_interval_features(
    batch,
    config: Optional[FeatureConfig] = None,
    start: int = 0,
    stop: Optional[int] = None,
    bank=None,
) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
    """``(matrix, bounds)`` of ``batch[start:stop]``, one row at a time."""
    cfg = config if config is not None else FeatureConfig()
    batch = execution.as_batch(batch)
    if stop is None:
        stop = len(batch)
    views = batch.views()
    if bank is not None:
        prev, unit_of, ops = prior_lookup_index(batch, operations=bank.units)
        resident = _full_run_outcomes(batch, bank) == execution.OUTCOME_HIT
    else:
        prev, unit_of, ops = prior_lookup_index(batch)
        resident = None
    bounds: List[Tuple[int, int]] = []
    rows: List[np.ndarray] = []
    position = start
    while position < stop:
        end = min(position + cfg.interval, stop)
        bounds.append((position, end))
        rows.append(_interval_row(
            views, position, end, cfg.seed,
            prev, unit_of, len(ops), cfg.interval, resident,
        ))
        position = end
    matrix = np.vstack(rows) if rows else np.empty((0, 0), dtype=np.float64)
    return matrix, bounds
