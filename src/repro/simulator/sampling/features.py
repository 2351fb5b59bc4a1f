"""Per-interval feature vectors over columnar trace chunks.

SimPoint-style phase detection needs a compact fingerprint of what each
fixed-length interval of the trace *does*; intervals that fingerprint
alike are the same program phase and one representative can stand in
for all of them.  Each interval's row holds the feature families below,
in this column order:

opcode mix
    The normalized opcode histogram of the interval -- the classic
    basic-block-vector surrogate at the granularity this trace format
    records.

operand structure
    Byte-level entropy of the ``a`` and ``b`` operand columns of the
    memoizable events (how much the operand values vary inside the
    interval), their distinct ``(opcode, a, b)`` triple fraction (1.0
    for an interval without memoizable events), the recorded-pc
    fraction, and a bucketed hash histogram of the triples' bit
    patterns themselves (the pair signature).  These are the features
    that matter *for memoization*: a low distinct-triple fraction is
    exactly what makes a MEMO-TABLE hit, and the pair signature
    separates intervals that reuse *different* pair populations -- two
    regimes can agree on every aggregate statistic yet thrash each
    other's table entries.

reuse distance
    Per memoizable operation, the fraction of the interval's lookups
    whose operand pair occurred before at all, and the fraction whose
    previous occurrence lies within one interval length
    (:func:`prior_lookup_index`).  This is the fingerprint closest to
    the quantity being estimated: a sliver of the trace where one
    unit's lookups suddenly recur cannot hide inside a phase whose
    opcode mix it happens to share.

residency rate (only when a bank is supplied)
    Per unit, the fraction of the interval's lookups that hit in one
    kernel pass of the whole trace through a never-probed copy of the
    bank (:func:`_full_run_outcomes`).  Two intervals can agree on
    every content feature above yet hit at different rates because of
    the *history* each inherits; the residency rate is exactly that
    history effect, so phases become homogeneous in the quantity the
    estimator measures.

pc-region signature
    A small bucketed histogram of a seeded pc mix
    (:func:`pc_signature_keys`) over the events with a recorded pc.
    Intervals executing different static code regions land in
    different buckets even when their opcode mixes agree.

The matrix is built in whole-range passes over the
:class:`~repro.isa.columns.ColumnBatch` numpy views, keyed by interval
id (event offset // interval length): one ``bincount`` per histogram
family, one ``lexsort`` for the distinct triples, one per-unit count
per reuse column and one byte histogram per operand column.  Only each
entropy row's final sum runs per interval, so that it adds its terms
in the same order as a sum over that interval alone.

Everything is deterministic: same batch, same config, same matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ...core import backend as execution
from ...core.config import OperandKind
from ...core.memo_table import InfiniteMemoTable
from ...core.unit import MemoizedUnit
from ...errors import ConfigurationError
from ...isa.opcodes import OPCODE_LIST

__all__ = [
    "FeatureConfig",
    "IntervalFeatures",
    "interval_features",
    "pc_signature_keys",
    "prior_lookup_index",
]

#: Per opcode index: does it feed a memo unit?  (Operand features only
#: look at these records.)
_IS_MEMO = np.array([op.operation is not None for op in OPCODE_LIST])

_F_PC = 4  # recorded-pc flag bit of repro.isa.columns
_U64 = (1 << 64) - 1

_PC_BUCKET_BITS = 3  # 8 pc-signature buckets
_PAIR_BUCKET_BITS = 4  # 16 operand-pair-signature buckets


def pc_signature_keys(views, start: int, stop: int, seed: int = 0):
    """Seeded pc mixing: ``(keys, present)``.

    ``keys`` is one seeded 64-bit mix per record of ``views[start:stop]``
    (position-unique salts where no pc was recorded, so those records
    never share a key), ``present`` the recorded-pc mask.
    """
    pcs = views.pc[start:stop].view(np.uint64)
    present = np.bitwise_and(views.flags[start:stop], _F_PC) != 0
    x = (pcs + np.uint64((2 * seed + 1) & _U64)) * np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(29)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(32)
    absent = np.nonzero(~present)[0]
    if absent.size:
        x[absent] = (
            np.uint64(0xD6E8FEB86659FD93)
            + absent.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        )
    return x, present


# splitmix64-style mixing constants (same family the pc mixer uses).
_PAIR_MUL_A = np.uint64(0x9E3779B97F4A7C15)
_PAIR_MUL_B = np.uint64(0xBF58476D1CE4E5B9)
_PAIR_MUL_OP = np.uint64(0x94D049BB133111EB)


@dataclass(frozen=True)
class FeatureConfig:
    """Feature-extraction knobs.

    ``interval`` is the fixed interval length in events (the final
    interval may be shorter); ``seed`` feeds the pc mixing so the
    signature buckets are stable but re-saltable.  ``reuse_weight``
    scales the z-scored reuse-distance columns before clustering:
    reuse is the feature family closest to the estimated quantity, and
    boosting it keeps a short high-reuse region from being absorbed by
    a large phase that merely shares its opcode mix.
    """

    interval: int = 1000
    seed: int = 0
    reuse_weight: float = 2.0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigurationError("feature interval must be positive")
        if self.reuse_weight <= 0:
            raise ConfigurationError("reuse weight must be positive")


@dataclass
class IntervalFeatures:
    """The feature matrix plus the interval boundaries it describes."""

    #: ``(n_intervals, dim)`` float64 matrix, raw (unnormalized) rows.
    matrix: np.ndarray
    #: ``[start, stop)`` event bounds of each interval, in trace order.
    bounds: List[Tuple[int, int]]
    config: FeatureConfig
    #: ``[start, stop)`` column range of the reuse-distance block.
    reuse_columns: Tuple[int, int] = (0, 0)
    #: Previous same-key lookup position per event (see
    #: :func:`prior_lookup_index`); reusable by downstream estimators.
    prev: Optional[np.ndarray] = field(default=None, repr=False)
    #: Unit index per event (``-1`` for non-lookups).
    unit_of: Optional[np.ndarray] = field(default=None, repr=False)
    #: Operations backing ``unit_of`` indices, name-sorted.
    ops: Tuple = ()
    #: Per-event full-run outcome codes (:func:`_full_run_outcomes`)
    #: when a bank was supplied to :func:`interval_features`, else
    #: ``None``.
    outcomes: Optional[np.ndarray] = field(default=None, repr=False)
    #: Per-event residency verdicts (``outcomes == OUTCOME_HIT``), or
    #: ``None`` without a bank.
    resident: Optional[np.ndarray] = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.bounds)

    def normalized(self) -> np.ndarray:
        """Z-scored copy of the matrix (constant columns drop to 0).

        The reuse-distance columns are additionally scaled by
        ``config.reuse_weight`` (see :class:`FeatureConfig`).
        """
        mean = self.matrix.mean(axis=0)
        std = self.matrix.std(axis=0)
        safe = np.where(std > 0.0, std, 1.0)
        out = (self.matrix - mean) / safe
        lo, hi = self.reuse_columns
        if hi > lo and out.size:
            out[:, lo:hi] *= self.config.reuse_weight
        return out


def prior_lookup_index(batch, operations=None):
    """Previous same-key lookup position for every event in ``batch``.

    Returns ``(prev, unit_of, ops)``: ``prev[i]`` is the index of the
    latest earlier event presenting the same memo key to the same unit
    (``-1`` if none, and for events that perform no table lookup);
    ``unit_of[i]`` indexes into ``ops`` (``-1`` for non-lookups).  Pure
    numpy over the columnar views -- one stable lexsort, no simulation.

    Key identity follows the default table semantics: full operand
    values (full-value tags), trivial operands skipped (EXCLUDE policy;
    tested on the values of the operation's operand kind, so an integer
    multiply by 1 is trivial), and operand order canonicalized for
    commutative operations.  ``operations`` restricts the units
    considered (every memoizable operation in the opcode table by
    default).
    """
    views = batch.views()
    total = len(batch)
    if operations is None:
        operations = {
            opcode.operation
            for opcode in OPCODE_LIST
            if opcode.operation is not None
        }
    ops = sorted(operations, key=lambda op: op.name)
    op_index = {op: i for i, op in enumerate(ops)}
    code_to_op = np.full(len(OPCODE_LIST), -1, dtype=np.int64)
    for code, opcode in enumerate(OPCODE_LIST):
        if opcode.operation is not None and opcode.operation in op_index:
            code_to_op[code] = op_index[opcode.operation]

    unit_of = code_to_op[views.opcode]
    prev = np.full(total, -1, dtype=np.int64)
    key_a = views.a_i.copy()
    key_b = views.b_i.copy()
    lookup = unit_of >= 0
    for op, idx in op_index.items():
        mine = unit_of == idx
        if not mine.any():
            continue
        if op.operand_kind is OperandKind.INT:
            a, b = views.a_i[mine], views.b_i[mine]
        else:
            a, b = views.a_f[mine], views.b_f[mine]
        lookup[np.nonzero(mine)[0][execution.trivial_mask(op, a, b)]] = False
        if op.commutative:
            a, b = key_a[mine], key_b[mine]
            key_a[mine] = np.minimum(a, b)
            key_b[mine] = np.maximum(a, b)
    unit_of = np.where(lookup, unit_of, -1)

    positions = np.nonzero(lookup)[0]
    if len(positions):
        opx = unit_of[positions]
        ka = key_a[positions]
        kb = key_b[positions]
        order = np.lexsort((positions, kb, ka, opx))
        sorted_pos = positions[order]
        same = (
            (opx[order][1:] == opx[order][:-1])
            & (ka[order][1:] == ka[order][:-1])
            & (kb[order][1:] == kb[order][:-1])
        )
        prev[sorted_pos[1:][same]] = sorted_pos[:-1][same]
    return prev, unit_of, ops


def _full_run_outcomes(batch, bank) -> np.ndarray:
    """Each event's outcome code in the full run of ``batch`` through
    ``bank``.

    One :func:`repro.core.backend.probe_outcomes` pass of the whole
    trace into a never-probed copy of the bank's units (same table
    class and configuration, trivial policy and latencies), so each
    code is the simulator's own, under every replacement policy, tag
    mode, trivial policy and infinite table; ``bank`` itself is not
    touched.

    Two consumers: the per-interval residency-rate feature (phases
    become homogeneous in the measured quantity) and the estimator's
    cold-start correction and control variate.
    """
    units = {}
    for op, unit in bank.units.items():
        config = unit.table.config
        if isinstance(unit.table, InfiniteMemoTable):
            table = InfiniteMemoTable(
                config.operand_kind, config.tag_mode, config.commutative
            )
        else:
            table = type(unit.table)(config)
        units[op] = MemoizedUnit(
            op,
            table=table,
            latency=unit.latency,
            hit_latency=unit.hit_latency,
            trivial_latency=unit.trivial_latency,
            trivial_policy=unit.trivial_policy,
        )
    return execution.probe_outcomes(batch, units)


def _cells(ids: np.ndarray, values: np.ndarray, width: int, rows: int):
    """``(rows, width)`` counts of each ``(interval id, value)`` pair."""
    cell = ids * width
    cell += values
    return np.bincount(cell, minlength=rows * width).reshape(rows, width)


def _rates(counts: np.ndarray, totals: np.ndarray, empty: float = 0.0):
    """``counts / totals`` (broadcast); ``empty`` where a total is 0."""
    out = np.full(counts.shape, empty)
    return np.divide(counts, totals, out=out, where=totals > 0)


def _byte_entropies(
    column: np.ndarray, ids: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Shannon entropy (bits, normalized to [0, 1]) of each interval's
    bytes of ``column``; ``ids`` gives each value's interval and
    ``counts`` the values per interval (0.0 for an interval with
    none)."""
    rows = len(counts)
    cell = column.view(np.uint8).reshape(-1, 8).astype(np.int64)
    cell += (ids * 256)[:, None]
    hist = np.bincount(cell.ravel(), minlength=rows * 256)
    cells = np.flatnonzero(hist)
    row_of = cells >> 8
    probs = hist[cells] / (8 * counts)[row_of]
    terms = probs * np.log2(probs)
    edges = np.searchsorted(row_of, np.arange(rows + 1)).tolist()
    entropy = np.zeros(rows)
    for row in np.flatnonzero(counts).tolist():
        entropy[row] = -terms[edges[row]:edges[row + 1]].sum() / 8.0
    return entropy


def _distinct_triples(
    ids: np.ndarray, opcode: np.ndarray, a: np.ndarray, b: np.ndarray,
    rows: int,
) -> np.ndarray:
    """Distinct ``(opcode, a, b)`` triples per interval."""
    order = np.lexsort((b, a, opcode, ids))
    repeat = np.ones(len(order), dtype=bool)
    repeat[:1] = False
    for column in (ids, opcode, a, b):
        ranked = column[order]
        repeat[1:] &= ranked[1:] == ranked[:-1]
    return np.bincount(ids[order[~repeat]], minlength=rows)


def _pair_buckets(
    opcode: np.ndarray, a: np.ndarray, b: np.ndarray, seed: int
) -> np.ndarray:
    """Hash bucket of each memoizable event's ``(opcode, a, b)`` bits.

    Each operand-pair identity is mixed down to a 64-bit key and
    bucketed by its top bits, so the histogram fingerprints *which*
    pairs an interval draws from, not just how varied they are.
    """
    with np.errstate(over="ignore"):
        mixed = (
            a.view(np.uint64) * _PAIR_MUL_A
            ^ b.view(np.uint64) * _PAIR_MUL_B
            ^ opcode.astype(np.uint64) * _PAIR_MUL_OP
            ^ np.uint64(seed & _U64)
        )
        mixed ^= mixed >> np.uint64(31)
        mixed *= _PAIR_MUL_B
        mixed ^= mixed >> np.uint64(29)
    return (mixed >> np.uint64(64 - _PAIR_BUCKET_BITS)).astype(np.int64)


def _reuse_block(
    ids: np.ndarray,
    start: int,
    stop: int,
    interval: int,
    prev: np.ndarray,
    unit_of: np.ndarray,
    n_units: int,
    resident: Optional[np.ndarray],
    rows: int,
) -> np.ndarray:
    """Per unit: has-prior, prior-within-one-interval and (with a bank)
    resident fractions of each interval's lookups."""
    width = 2 if resident is None else 3
    block = np.zeros((rows, width * n_units))
    lookups = np.flatnonzero(unit_of[start:stop] >= 0)
    if not lookups.size:
        return block
    cell = ids[lookups] * n_units + unit_of[start:stop][lookups]
    cells = rows * n_units
    counts = np.bincount(cell, minlength=cells).reshape(rows, n_units)
    prior = prev[start:stop][lookups]
    has_prior = prior >= 0
    flags = [has_prior, has_prior & (lookups + start - prior <= interval)]
    if resident is not None:
        flags.append(resident[start:stop][lookups])
    for offset, flag in enumerate(flags):
        hits = np.bincount(cell[flag], minlength=cells).reshape(rows, n_units)
        np.divide(hits, counts, out=block[:, offset::width], where=counts > 0)
    return block


def _operand_features(
    views, start: int, stop: int, ids: np.ndarray, rows: int, seed: int
):
    """Per interval, over its memoizable events: the byte entropy of
    ``a`` and of ``b``, the distinct-triple fraction and the pair
    signature."""
    opcode = views.opcode[start:stop]
    memo = np.flatnonzero(_IS_MEMO[opcode])
    memo_ids = ids[memo]
    counts = np.bincount(memo_ids, minlength=rows)
    memo_opcode = opcode[memo]
    a = views.a_i[start:stop][memo]
    b = views.b_i[start:stop][memo]
    return (
        _byte_entropies(a, memo_ids, counts),
        _byte_entropies(b, memo_ids, counts),
        _rates(
            _distinct_triples(memo_ids, memo_opcode, a, b, rows), counts,
            empty=1.0,
        ),
        _rates(
            _cells(
                memo_ids, _pair_buckets(memo_opcode, a, b, seed),
                1 << _PAIR_BUCKET_BITS, rows,
            ),
            counts[:, None],
        ),
    )


def _pc_features(
    views, start: int, stop: int, ids: np.ndarray, lengths: np.ndarray,
    seed: int,
):
    """Per interval: the recorded-pc fraction and the pc signature."""
    keys, present = pc_signature_keys(views, start, stop, seed)
    keys >>= np.uint64(64 - _PC_BUCKET_BITS)
    buckets = keys.view(np.int64)
    # Events without a recorded pc land in one extra bucket, dropped.
    buckets[~present] = 1 << _PC_BUCKET_BITS
    cells = _cells(ids, buckets, (1 << _PC_BUCKET_BITS) + 1, len(lengths))
    counts = lengths - cells[:, -1]
    return counts / lengths, _rates(cells[:, :-1], counts[:, None])


def _feature_matrix(
    views,
    start: int,
    stop: int,
    config: FeatureConfig,
    prev: np.ndarray,
    unit_of: np.ndarray,
    n_units: int,
    resident: Optional[np.ndarray],
) -> np.ndarray:
    """The raw ``(intervals, dim)`` matrix of ``views[start:stop]`` (see
    module docstring), one whole-range pass per feature family."""
    n = stop - start
    if not n:
        return np.empty((0, 0), dtype=np.float64)
    interval = config.interval
    rows = -(-n // interval)
    lengths = np.full(rows, interval, dtype=np.int64)
    lengths[-1] = n - (rows - 1) * interval
    ids = np.repeat(np.arange(rows, dtype=np.int64), lengths)

    mix = _cells(ids, views.opcode[start:stop], len(OPCODE_LIST), rows)
    entropy_a, entropy_b, distinct, pair_signature = _operand_features(
        views, start, stop, ids, rows, config.seed
    )
    pc_fraction, pc_signature = _pc_features(
        views, start, stop, ids, lengths, config.seed
    )
    return np.hstack((
        mix / lengths[:, None],
        entropy_a[:, None],
        entropy_b[:, None],
        distinct[:, None],
        pc_fraction[:, None],
        pair_signature,
        _reuse_block(
            ids, start, stop, interval, prev, unit_of, n_units, resident,
            rows,
        ),
        pc_signature,
    ))


def interval_features(
    batch,
    config: Optional[FeatureConfig] = None,
    start: int = 0,
    stop: Optional[int] = None,
    bank=None,
) -> IntervalFeatures:
    """Chop ``batch[start:stop]`` into intervals and fingerprint each.

    ``batch`` is a :class:`~repro.isa.columns.ColumnBatch`, a
    :class:`~repro.isa.trace.Trace` or a plain event sequence, taken
    as :func:`repro.core.backend.as_batch` converts it; the final
    interval may be shorter
    than ``config.interval`` and its row is normalized by its own
    length, so partial tails cluster with the phase they belong to.
    ``0 <= start <= stop <= len(batch)``, else
    :class:`~repro.errors.ConfigurationError`.

    ``bank`` (a :class:`~repro.core.bank.MemoTableBank`) enables the
    residency-rate feature family: lookups are restricted to the
    bank's units and each row gains one residency column per unit
    (see module docstring).  The computed per-event arrays ride along
    on the returned :class:`IntervalFeatures` so estimators can reuse
    them without a second pass.
    """
    cfg = config if config is not None else FeatureConfig()
    batch = execution.as_batch(batch)
    if stop is None:
        stop = len(batch)
    if start < 0:
        raise ConfigurationError("start must not be negative")
    if stop > len(batch):
        raise ConfigurationError("stop must not pass the end of the trace")
    if stop < start:
        raise ConfigurationError("stop must not precede start")
    prev, unit_of, ops = prior_lookup_index(
        batch, operations=None if bank is None else bank.units
    )
    outcomes: Optional[np.ndarray] = None
    resident: Optional[np.ndarray] = None
    if bank is not None:
        outcomes = _full_run_outcomes(batch, bank)
        resident = outcomes == execution.OUTCOME_HIT
    matrix = _feature_matrix(
        batch.views(), start, stop, cfg, prev, unit_of, len(ops), resident
    )
    reuse_start = len(OPCODE_LIST) + 4 + (1 << _PAIR_BUCKET_BITS)
    width = 2 if resident is None else 3
    return IntervalFeatures(
        matrix=matrix,
        bounds=[
            (position, min(position + cfg.interval, stop))
            for position in range(start, stop, cfg.interval)
        ],
        config=cfg,
        reuse_columns=(reuse_start, reuse_start + width * len(ops)),
        prev=prev,
        unit_of=unit_of,
        ops=tuple(ops),
        outcomes=outcomes,
        resident=resident,
    )
