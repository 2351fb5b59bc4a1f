"""Per-interval feature vectors over columnar trace chunks.

SimPoint-style phase detection needs a compact fingerprint of what each
fixed-length interval of the trace *does*; intervals that fingerprint
alike are the same program phase and one representative can stand in
for all of them.  Three feature families, all computed directly on the
:class:`~repro.isa.columns.ColumnBatch` numpy views (no event
materialization):

opcode mix
    The normalized opcode histogram of the interval -- the classic
    basic-block-vector surrogate at the granularity this trace format
    records.

operand structure
    Byte-level entropy of the ``a``/``b`` operand columns (how much the
    operand values vary inside the interval), the distinct
    operand-pair fraction of the memoizable events, and a bucketed
    hash histogram of the ``(opcode, a, b)`` bit patterns themselves.
    These are the features that matter *for memoization*: a low
    distinct-pair fraction is exactly what makes a MEMO-TABLE hit, and
    the pair signature separates intervals that reuse *different* pair
    populations -- two regimes can agree on every aggregate statistic
    yet thrash each other's table entries.

reuse distance
    Per memoizable operation, the fraction of the interval's lookups
    whose operand pair occurred before at all, and the fraction whose
    previous occurrence lies within one interval length
    (:func:`prior_lookup_index`).  This is the fingerprint closest to
    the quantity being estimated: a sliver of the trace where one
    unit's lookups suddenly recur cannot hide inside a phase whose
    opcode mix it happens to share.

residency rate (only when a bank is supplied)
    Per unit, the fraction of the interval's lookups whose previous
    occurrence was still table-resident under the bank's real geometry
    -- an analytic set-associative LRU sweep
    (:func:`likely_resident`) using the production set mapping.  Two
    intervals can agree on every content feature above yet hit at
    different rates because of the *history* each inherits; the
    residency rate is exactly that history effect, so phases become
    homogeneous in the quantity the estimator measures.

pc-region signature
    A small bucketed histogram of a seeded pc mix
    (:func:`pc_signature_keys`), plus the recorded-pc fraction.
    Intervals executing different static code regions land in
    different buckets even when their opcode mixes agree.

Everything is deterministic: same batch, same config, same matrix.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ...core import backend as execution
from ...core.config import OperandKind
from ...errors import ConfigurationError
from ...isa.opcodes import OPCODE_LIST

__all__ = [
    "FeatureConfig",
    "IntervalFeatures",
    "interval_features",
    "likely_resident",
    "pc_signature_keys",
    "prior_lookup_index",
]

#: Opcode indices that feed a memo unit (operand features only look at
#: these records).
_MEMO_CODES = np.array(
    [i for i, op in enumerate(OPCODE_LIST) if op.operation is not None],
    dtype=np.uint8,
)

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


def _pair_signature(
    opcode: np.ndarray, a: np.ndarray, b: np.ndarray, seed: int
) -> np.ndarray:
    """Normalized hash-bucket histogram of ``(opcode, a, b)`` patterns.

    Each memoizable event's operand-pair identity is mixed down to a
    64-bit key and bucketed by its top bits; the histogram fingerprints
    *which* pairs an interval draws from, not just how varied they are.
    """
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
    #: Per-event residency verdicts (:func:`likely_resident`) when a
    #: bank was supplied to :func:`interval_features`, else ``None``.
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

    Key identity follows the default table semantics: exact operand bit
    patterns (full-value tags), trivial operands skipped (EXCLUDE
    policy), and operand order canonicalized for commutative
    operations.  ``operations`` restricts the units considered (every
    memoizable operation in the opcode table by default).
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
        trivial = execution.trivial_mask(
            op, views.a_f[mine], views.b_f[mine]
        )
        lookup[np.nonzero(mine)[0][trivial]] = False
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


def likely_resident(batch, prev, unit_of, ops, bank):
    """Was each lookup's previous occurrence plausibly still cached?

    An analytic hit model over the whole trace: per unit, an exact
    set-associative LRU sweep with the real table geometry of ``bank``
    -- each pair's set index comes from the production mapping
    (:func:`repro.core.backend.set_indices`), and each set keeps an
    LRU stack of ``associativity`` entries.  The previous-occurrence
    chain from :func:`prior_lookup_index` doubles as key identity: a
    stack entry is the trace position of a key's latest occurrence, so
    a lookup's prior is resident exactly when that position is still
    on its set's stack.  Capacity *and* conflict evictions are both
    modeled.

    Two consumers: the per-interval residency-rate feature (phases
    become homogeneous in the measured quantity) and the estimator's
    cold-start correction (window lookups whose resident prior predates
    the warm-up slice are counted back as hits).
    """
    views = batch.views()
    resident = np.zeros(len(prev), dtype=bool)
    for index, op in enumerate(ops):
        config = bank.units[op].table.config
        mine = np.nonzero(unit_of == index)[0]
        if not len(mine):
            continue
        if config.operand_kind is OperandKind.INT:
            a, b = views.a_i[mine], views.b_i[mine]
        else:
            a, b = views.a_f[mine], views.b_f[mine]
        set_of = np.asarray(
            execution.set_indices(config, a, b), dtype=np.int64
        ).tolist()
        ways = config.associativity
        stacks: "list[OrderedDict[int, None]]" = [
            OrderedDict() for _ in range(config.n_sets)
        ]
        for where, position in enumerate(mine.tolist()):
            stack = stacks[set_of[where]]
            prior = int(prev[position])
            if prior >= 0 and prior in stack:
                resident[position] = True
                del stack[prior]
            stack[position] = None
            if len(stack) > ways:
                stack.popitem(last=False)
    return resident


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
    batch,
    start: int,
    stop: int,
    seed: int,
    prev: np.ndarray,
    unit_of: np.ndarray,
    n_units: int,
    short_distance: int,
    resident: Optional[np.ndarray],
) -> np.ndarray:
    """One interval's raw feature row (see module docstring)."""
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
        # Distinct (opcode, a, b) triples over memoizable events: the
        # per-interval fingerprint of how much value reuse exists.
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


def interval_features(
    batch,
    config: Optional[FeatureConfig] = None,
    start: int = 0,
    stop: Optional[int] = None,
    bank=None,
) -> IntervalFeatures:
    """Chop ``batch[start:stop]`` into intervals and fingerprint each.

    ``batch`` is a :class:`~repro.isa.columns.ColumnBatch` (or anything
    with a compatible ``views()``), a column-backed
    :class:`~repro.isa.trace.Trace`, or a plain event sequence
    (converted once); the final interval may be shorter
    than ``config.interval`` and its row is normalized by its own
    length, so partial tails cluster with the phase they belong to.

    ``bank`` (a :class:`~repro.core.bank.MemoTableBank`) enables the
    residency-rate feature family: lookups are restricted to the
    bank's units and each row gains one analytic LRU-residency column
    per unit (see module docstring).  The computed per-event arrays
    ride along on the returned :class:`IntervalFeatures` so estimators
    can reuse them without a second pass.
    """
    cfg = config if config is not None else FeatureConfig()
    # Accept the same trace shapes estimate_phases does: a columnar
    # view when one exists, otherwise a one-time event conversion (a
    # plain Trace used to AttributeError on .views()).
    if not hasattr(batch, "views"):
        from ...isa.columns import ColumnBatch

        coerced = execution.as_batch(batch)
        batch = (
            coerced if coerced is not None else ColumnBatch.from_events(batch)
        )
    if stop is None:
        stop = len(batch)
    if stop < start:
        raise ConfigurationError("stop must not precede start")
    views = batch.views()
    if bank is not None:
        prev, unit_of, ops = prior_lookup_index(
            batch, operations=bank.units
        )
        resident = likely_resident(batch, prev, unit_of, ops, bank)
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
            views, batch, position, end, cfg.seed,
            prev, unit_of, len(ops), cfg.interval, resident,
        ))
        position = end
    matrix = (
        np.vstack(rows) if rows else np.empty((0, 0), dtype=np.float64)
    )
    reuse_start = len(OPCODE_LIST) + 4 + (1 << _PAIR_BUCKET_BITS)
    width = 2 if resident is None else 3
    return IntervalFeatures(
        matrix=matrix,
        bounds=bounds,
        config=cfg,
        reuse_columns=(reuse_start, reuse_start + width * len(ops)),
        prev=prev,
        unit_of=unit_of,
        ops=tuple(ops),
        resident=resident,
    )
