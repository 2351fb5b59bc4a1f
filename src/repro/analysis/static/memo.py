"""The memo-opportunity pass: static bounds on MEMO-TABLE hit ratios.

Composes the dataflow passes into a per-site classification of every
static multiply/divide/sqrt instruction:

``trivial``
    An operand is a compile-time constant the trivial detector of
    section 3.2 short-circuits (x0, x+-1, /+-1).
``constant``
    Both operands are compile-time constants: after the first dynamic
    execution the operand pair is resident, so the site misses at most
    once in an infinite MEMO-TABLE.
``redundant``
    An earlier instruction in the same basic block computes the same
    operation over the same value numbers, so every dynamic execution
    of this site finds the pair already inserted (classic CSE).
``range-bounded``
    Interval analysis bounds the operand pair space to ``K`` distinct
    values, so the site misses at most ``K`` times.
``unknown``
    No static guarantee (typically loads feeding the operand).

From those facts the pass derives *sound bounds on the hit ratio of an
infinite MEMO-TABLE*: per-site hit counts are bounded as functions of
the site's execution count, and compulsory misses (first touch of each
operation-class table, first touch of each distinct constant pair) bound
the hits from above.  Instantiating the bounds with observed per-PC
execution counts -- pure frequency data, no operand values -- yields
numeric brackets the dynamic simulator's measured hit ratio must fall
inside; :func:`check_program` asserts exactly that.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ...core.operations import Operation
from ...isa.machine import BINARY_OPS, FP_UNARY_OPS, Machine, Program, assemble
from ...isa.opcodes import OPCODE_LIST, opcode_to_operation
from ...isa.programs import PROGRAM_STEP_BUDGET, PROGRAMS
from .cfg import ControlFlowGraph, build_cfg
from .passes import (
    BOTTOM,
    TOP,
    ConstantLattice,
    Interval,
    _const_key,
    constant_propagation,
    local_value_numbers,
    reaching_definitions,
    value_ranges,
)

__all__ = [
    "SiteClass",
    "MemoSite",
    "StaticBounds",
    "CheckResult",
    "ProgramAnalysis",
    "analyze_program",
    "analyze_source",
    "check_program",
    "reference_machine",
    "REFERENCE_N",
]

#: Mnemonic -> memoizable operation class of each static site kind: the
#: operation of the opcode the machine traces the mnemonic as.
_TRACED_CODES = {
    **{mnemonic: entry[1] for mnemonic, entry in BINARY_OPS.items()},
    **{mnemonic: entry[1] for mnemonic, entry in FP_UNARY_OPS.items()},
}
SITE_OPERATIONS = {
    mnemonic: operation
    for mnemonic, code in _TRACED_CODES.items()
    if (operation := opcode_to_operation(OPCODE_LIST[code])) is not None
}

#: Pair spaces larger than this are not worth calling bounded.
RANGE_CAP = 4096

#: Default trip count for the reference harness.
REFERENCE_N = 48


class SiteClass(enum.Enum):
    """Static classification of one multiply/divide site."""

    TRIVIAL = "trivial"
    CONSTANT = "constant"
    REDUNDANT = "redundant"
    RANGE_BOUNDED = "range-bounded"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class MemoSite:
    """One static multiply/divide instruction and what we know about it."""

    index: int  # instruction index in the program
    pc: int
    line: int
    mnemonic: str
    operation: Operation
    classification: SiteClass
    #: Compile-time operand values where known (None = unknown).
    operand_consts: Tuple[Optional[float], ...]
    #: Upper bound on distinct operand pairs the site can generate
    #: (None = unbounded).
    pair_space: Optional[int]
    #: True when an earlier same-block site computes the same expression.
    locally_redundant: bool
    loop_depth: int
    note: str = ""

    @property
    def const_pair(self) -> bool:
        return bool(self.operand_consts) and all(
            value is not None for value in self.operand_consts
        )

    def lower_hits(self, executions: int) -> int:
        """Sound lower bound on this site's hits in an infinite table."""
        if executions <= 0:
            return 0
        if self.locally_redundant:
            return executions
        if self.const_pair:
            return executions - 1
        if self.pair_space is not None:
            return max(0, executions - self.pair_space)
        return 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "pc": self.pc,
            "line": self.line,
            "mnemonic": self.mnemonic,
            "operation": self.operation.mnemonic,
            "class": self.classification.value,
            "operand_consts": list(self.operand_consts),
            "pair_space": self.pair_space,
            "locally_redundant": self.locally_redundant,
            "loop_depth": self.loop_depth,
            "note": self.note,
        }


@dataclass(frozen=True)
class StaticBounds:
    """Hit-ratio bracket from static facts + per-site execution counts."""

    lower: float
    upper: float
    total_ops: int
    lower_hits: int
    upper_hits: int

    def contains(self, measured: float, slack: float = 1e-12) -> bool:
        return self.lower - slack <= measured <= self.upper + slack


@dataclass(frozen=True)
class CheckResult:
    """Static-vs-dynamic agreement for one program."""

    program: str
    bounds: StaticBounds
    measured: float
    hits: int
    total_ops: int

    @property
    def ok(self) -> bool:
        return self.bounds.contains(self.measured)

    @property
    def gap(self) -> float:
        """Width of the static bracket (1.0 = vacuous, 0.0 = exact)."""
        return self.bounds.upper - self.bounds.lower

    def to_dict(self) -> Dict[str, object]:
        return {
            "program": self.program,
            "static_lower": self.bounds.lower,
            "static_upper": self.bounds.upper,
            "measured": self.measured,
            "hits": self.hits,
            "total_ops": self.total_ops,
            "bracket_width": self.gap,
            "ok": self.ok,
        }


@dataclass
class ProgramAnalysis:
    """Everything the memo-opportunity pass learned about one program."""

    name: str
    cfg: ControlFlowGraph
    sites: List[MemoSite] = field(default_factory=list)

    @property
    def class_counts(self) -> Dict[SiteClass, int]:
        counts = Counter(site.classification for site in self.sites)
        return {cls: counts.get(cls, 0) for cls in SiteClass}

    @property
    def predictable_fraction(self) -> float:
        """Fraction of sites whose asymptotic hit ratio is provably 1."""
        if not self.sites:
            return 0.0
        predictable = sum(
            1 for site in self.sites
            if site.locally_redundant or site.const_pair
            or site.pair_space is not None
        )
        return predictable / len(self.sites)

    def site_at(self, pc: int) -> Optional[MemoSite]:
        for site in self.sites:
            if site.pc == pc:
                return site
        return None

    def bounds(self, counts: Mapping[int, int]) -> StaticBounds:
        """Instantiate the static per-site bounds with execution counts.

        ``counts`` maps site PCs to observed execution counts (frequency
        information only -- the value-locality facts are all static).
        """
        total = sum(counts.get(site.pc, 0) for site in self.sites)
        lower_hits = sum(
            site.lower_hits(counts.get(site.pc, 0)) for site in self.sites
        )
        # Compulsory misses: per executed operation class, the first
        # probe of the (initially empty) table misses; each distinct
        # constant operand pair that executes costs its own first-touch
        # miss.
        compulsory = 0
        by_operation: Dict[Operation, List[MemoSite]] = {}
        for site in self.sites:
            if counts.get(site.pc, 0) > 0:
                by_operation.setdefault(site.operation, []).append(site)
        for operation, sites in by_operation.items():
            const_pairs = set()
            for site in sites:
                if site.const_pair:
                    pair = tuple(_const_key(v) for v in site.operand_consts)
                    if operation.commutative and len(pair) == 2:
                        pair = tuple(sorted(pair, key=repr))
                    const_pairs.add(pair)
            compulsory += max(1, len(const_pairs))
        upper_hits = max(0, total - compulsory)
        lower_hits = min(lower_hits, upper_hits)
        if total == 0:
            return StaticBounds(0.0, 1.0, 0, 0, 0)
        return StaticBounds(
            lower=lower_hits / total,
            upper=upper_hits / total,
            total_ops=total,
            lower_hits=lower_hits,
            upper_hits=upper_hits,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "program": self.name,
            "blocks": len(self.cfg.blocks),
            "sites": [site.to_dict() for site in self.sites],
            "class_counts": {
                cls.value: count for cls, count in self.class_counts.items()
            },
            "predictable_fraction": self.predictable_fraction,
        }


def _const_float(value: object) -> Optional[float]:
    if value is TOP or value is BOTTOM:
        return None
    return float(value)  # type: ignore[arg-type]


def _is_trivial(
    mnemonic: str, a: Optional[float], b: Optional[float]
) -> Tuple[bool, str]:
    """Would the section-3.2 trivial detector catch *every* execution?"""
    if mnemonic in ("smul", "fmul"):
        for value in (a, b):
            if value is not None and value in (0.0, 1.0, -1.0):
                return True, f"multiply by constant {value:g}"
    elif mnemonic in ("sdiv", "fdiv"):
        if b is not None and b in (1.0, -1.0):
            return True, f"divide by constant {b:g}"
    elif mnemonic == "fsqrt":
        if a is not None and a in (0.0, 1.0):
            return True, f"sqrt of constant {a:g}"
    elif mnemonic == "frecip":
        if a is not None and a in (1.0, -1.0):
            return True, f"reciprocal of constant {a:g}"
    return False, ""


def _pair_space(
    mnemonic: str,
    operation: Operation,
    ranges: Dict[str, Interval],
    operands: Tuple[str, ...],
    consts: Tuple[Optional[float], ...],
) -> Optional[int]:
    """Bound on distinct operand pairs, from intervals (integer ops only)."""
    if operation not in (Operation.INT_MUL, Operation.INT_DIV):
        return None
    cards: List[int] = []
    for token, const in zip(operands[:2], consts):
        if const is not None:
            cards.append(1)
            continue
        if token.startswith("%r"):
            interval = ranges.get(token[1:])
            if token[1:] == "r0":
                interval = Interval(0, 0)
            if interval is None or not interval.finite:
                return None
            cards.append(int(interval.cardinality))
        else:
            cards.append(1)  # immediate
    space = 1
    for card in cards:
        space *= card
    return space if space <= RANGE_CAP else None


def analyze_program(name: str, program: Program) -> ProgramAnalysis:
    """Run every pass over ``program`` and classify its memo sites."""
    cfg = build_cfg(program)
    constants = constant_propagation(cfg)
    ranges = value_ranges(cfg)
    numbering = local_value_numbers(cfg, constants)
    reaching_definitions(cfg)  # exercised for its own consumers/tests
    depths = cfg.loop_depths()

    analysis = ProgramAnalysis(name, cfg)
    for index, instruction in enumerate(program.instructions):
        mnemonic = instruction.mnemonic
        operation = SITE_OPERATIONS.get(mnemonic)
        if operation is None:
            continue
        state: ConstantLattice = constants[index]
        operand_tokens = (
            instruction.operands[:1]
            if operation.is_unary
            else instruction.operands[:2]
        )
        consts = tuple(
            _const_float(
                state.get(token[1:])
                if token.startswith(("%r", "%f"))
                else _parse_immediate(token)
            )
            for token in operand_tokens
        )
        a = consts[0] if consts else None
        b = consts[1] if len(consts) > 1 else None

        vns = numbering.operand_vns.get(index, ())
        key = None
        if vns and all(isinstance(v, tuple) for v in vns):
            pair = vns
            if operation.commutative and len(pair) == 2:
                pair = tuple(sorted(pair, key=repr))
            key = (mnemonic, pair)
        first = numbering.first_seen.get(key) if key is not None else None
        redundant = (
            first is not None
            and first < index
            and cfg.block_of[first] == cfg.block_of[index]
        )

        space = _pair_space(
            mnemonic, operation, ranges[index], instruction.operands, consts
        )
        trivial, trivial_note = _is_trivial(mnemonic, a, b)

        if trivial:
            classification, note = SiteClass.TRIVIAL, trivial_note
        elif all(value is not None for value in consts):
            classification = SiteClass.CONSTANT
            note = "both operands compile-time constants"
        elif redundant:
            classification = SiteClass.REDUNDANT
            note = (
                "same value pair computed earlier in the block "
                f"(instruction {first})"
            )
        elif space is not None:
            classification = SiteClass.RANGE_BOUNDED
            note = f"operand pair space bounded to {space} values"
        else:
            classification = SiteClass.UNKNOWN
            known = [v for v in consts if v is not None]
            note = (
                f"{len(known)} constant operand(s)" if known
                else "operands not statically bound"
            )

        analysis.sites.append(
            MemoSite(
                index=index,
                pc=instruction.pc,
                line=instruction.line,
                mnemonic=mnemonic,
                operation=operation,
                classification=classification,
                operand_consts=consts,
                pair_space=space,
                locally_redundant=redundant,
                loop_depth=depths.get(cfg.block_of[index], 0),
                note=note,
            )
        )
    return analysis


def _parse_immediate(token: str) -> object:
    try:
        return int(token, 0)
    except ValueError:
        try:
            return float(token)
        except ValueError:
            return BOTTOM


def analyze_source(name: str, source: str) -> ProgramAnalysis:
    """Assemble ``source`` and analyze it."""
    return analyze_program(name, assemble(source))


# -- dynamic cross-validation ----------------------------------------------

def reference_machine(name: str, n: int = REFERENCE_N) -> Machine:
    """A machine running a bundled program on the deterministic harness.

    Seeds the conventional input protocol (n at %r1, arrays of
    quantised values at 0x1000/0x2000) used by the trace CLI; the value
    stream repeats every 16 elements so operand locality exists to
    measure.  ``sobel_gx`` takes width/height instead of a flat n.
    """
    source = PROGRAMS.get(name)
    if source is None:
        from ...errors import ConfigurationError

        # A ReproError, so CLI entry points report it as a clean usage
        # failure instead of a traceback (it used to be a KeyError).
        raise ConfigurationError(
            f"unknown program {name!r}; try: {', '.join(PROGRAMS)}"
        )
    machine = Machine(assemble(source))
    values = [float((i * 7) % 16 + 1) for i in range(max(n, 1))]
    if name == "sobel_gx":
        width = max(4, min(16, n // 3))
        height = max(4, n // width)
        machine.int_regs[1] = width
        machine.int_regs[2] = height
        machine.write_doubles(
            0x1000,
            [float((i * 5) % 9) for i in range(width * height)],
        )
    else:
        machine.int_regs[1] = n
        machine.write_doubles(0x1000, values)
        machine.write_doubles(0x2000, values[::-1])
    return machine


def measure_infinite_hit_ratio(
    machine: Machine,
) -> Tuple[Dict[int, int], int, int]:
    """Replay a machine's trace through per-class infinite MEMO-TABLES.

    Returns ``(per-pc execution counts, hits, total memoizable ops)``.
    The replay is one kernel dispatch into an infinite bank over every
    operation under CACHE_ALL, so each memoizable event, trivial or not,
    is one lookup; the per-pc counts come from the trace's pc column.
    """
    import numpy as np

    from ...core import backend as execution
    from ...core.bank import MemoTableBank
    from ...core.config import TrivialPolicy
    from ...isa.columns import _F_PC
    from ...isa.opcodes import MEMOIZABLE_OPCODES, OPCODE_INDEX

    batch = execution.as_batch(machine.trace)
    bank = MemoTableBank.infinite(tuple(Operation), TrivialPolicy.CACHE_ALL)
    execution.dispatch(batch, bank.units)
    views = batch.views()
    memoizable = np.isin(
        views.opcode, [OPCODE_INDEX[opcode] for opcode in MEMOIZABLE_OPCODES]
    )
    stamped = np.bitwise_and(views.flags, _F_PC) != 0
    pcs, pc_counts = np.unique(
        views.pc[memoizable & stamped], return_counts=True
    )
    units = bank.units.values()
    return (
        dict(zip(pcs.tolist(), pc_counts.tolist())),
        sum(unit.table.stats.hits for unit in units),
        sum(unit.stats.operations for unit in units),
    )


def check_program(
    name: str,
    n: int = REFERENCE_N,
    max_steps: int = PROGRAM_STEP_BUDGET,
) -> CheckResult:
    """Cross-validate static bounds against the dynamic simulator.

    Executes the program on the reference harness, measures the
    infinite-table hit ratio, and instantiates the static bounds with
    the observed per-PC execution counts.  A sound analysis satisfies
    ``lower <= measured <= upper``.
    """
    machine = reference_machine(name, n)
    machine.run(max_steps=max_steps)
    analysis = analyze_program(name, machine.program)
    counts, hits, total = measure_infinite_hit_ratio(machine)
    bounds = analysis.bounds(counts)
    measured = hits / total if total else 0.0
    return CheckResult(
        program=name,
        bounds=bounds,
        measured=measured,
        hits=hits,
        total_ops=total,
    )
