"""Concrete dataflow passes over the SPARC-flavoured ISA.

All passes share one operand model: integer registers ``r1..r31``
(``r0`` is hardwired zero), floating point registers ``f0..f31`` and the
condition code ``cc``.  Memory is not modelled -- a load produces an
unknown value -- which keeps every pass sound for arbitrary harness
seedings of the input arrays.

Passes provided:

* :func:`reaching_definitions` -- which instruction (or the register
  file reset, index ``-1``) last wrote each operand.
* :func:`constant_propagation` -- sparse conditional-free constant
  folding over the register file (entry registers are harness inputs
  and therefore unknown).
* :func:`value_ranges` -- interval analysis over the integer registers
  with widening at loop joins.
* :func:`local_value_numbers` -- per-block value numbering with
  commutative canonicalization, for redundancy (CSE) detection.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, NamedTuple, Optional, Tuple, Union

from ...arch.ieee754 import float64_to_bits
from ...core.operations import int_div
from ...isa.machine import BINARY_OPS, FP_UNARY_OPS
from .cfg import ControlFlowGraph
from .dataflow import DataflowProblem, instruction_states, solve

__all__ = [
    "ConstantLattice",
    "Interval",
    "reaching_definitions",
    "constant_propagation",
    "value_ranges",
    "local_value_numbers",
    "INT_REGS",
    "FP_REGS",
]

INT_REGS = tuple(f"r{i}" for i in range(32))
FP_REGS = tuple(f"f{i}" for i in range(32))
ALL_REGS = INT_REGS + FP_REGS + ("cc",)

#: Commutative mnemonics (canonicalized during value numbering).
_COMMUTATIVE = {"add", "and", "or", "xor", "smul", "fadd", "fmul"}


def written_register(mnemonic: str, operands: Tuple[str, ...]) -> Optional[str]:
    """Register a single instruction defines, or None."""
    if mnemonic in ("set", "fset", "ld") and len(operands) >= 2:
        return _reg_name(operands[1])
    if mnemonic in BINARY_OPS and len(operands) >= 3:
        return _reg_name(operands[2])
    if mnemonic in FP_UNARY_OPS and len(operands) >= 2:
        return _reg_name(operands[1])
    if mnemonic == "cmp":
        return "cc"
    return None


def _reg_name(token: str) -> Optional[str]:
    if token.startswith("%r") or token.startswith("%f"):
        name = token[1:]
        return None if name == "r0" else name  # r0 writes vanish
    return None


# -- reaching definitions --------------------------------------------------

#: A definition: (register, defining instruction index); -1 is the reset.
Definition = Tuple[str, int]
_DefSet = FrozenSet[Definition]


class _ReachingDefs(DataflowProblem):
    name = "reaching-definitions"

    def __init__(self, cfg: ControlFlowGraph) -> None:
        self.cfg = cfg

    def initial(self) -> _DefSet:
        return frozenset()

    def boundary(self) -> _DefSet:
        return frozenset((reg, -1) for reg in ALL_REGS)

    def join(self, left: _DefSet, right: _DefSet) -> _DefSet:
        return left | right

    def transfer(self, block_id: int, value: _DefSet) -> _DefSet:
        current = value
        for index, instruction in self.cfg.blocks[block_id]:
            current = _defs_step(current, instruction.mnemonic,
                                 instruction.operands, index)
        return current


def _defs_step(
    defs: _DefSet, mnemonic: str, operands: Tuple[str, ...], index: int
) -> _DefSet:
    target = written_register(mnemonic, operands)
    if target is None:
        return defs
    return frozenset(d for d in defs if d[0] != target) | {(target, index)}


def reaching_definitions(cfg: ControlFlowGraph) -> Dict[int, _DefSet]:
    """Definitions reaching the *input* of every instruction."""
    block_inputs = solve(cfg, _ReachingDefs(cfg))

    def step(defs: _DefSet, index: int) -> _DefSet:
        instruction = cfg.program.instructions[index]
        return _defs_step(defs, instruction.mnemonic, instruction.operands,
                          index)

    return instruction_states(cfg, block_inputs, step)


# -- constant propagation --------------------------------------------------

class _Sentinel:
    def __init__(self, label: str) -> None:
        self.label = label

    def __repr__(self) -> str:
        return self.label


#: Lattice elements: TOP (unreached), a Python int/float, or BOTTOM.
TOP = _Sentinel("TOP")
BOTTOM = _Sentinel("BOTTOM")

ConstValue = Union[_Sentinel, int, float]


def _const_key(value: ConstValue) -> object:
    """Hashable identity that is bit-exact for floats (NaN-safe)."""
    if value is TOP or value is BOTTOM:
        return value
    if isinstance(value, float):
        return ("f", float64_to_bits(value))
    return ("i", value)


class ConstantLattice:
    """Register file mapped onto the constant lattice."""

    __slots__ = ("regs",)

    def __init__(self, regs: Optional[Dict[str, ConstValue]] = None) -> None:
        self.regs: Dict[str, ConstValue] = regs if regs is not None else {}

    def get(self, reg: str) -> ConstValue:
        if reg == "r0":
            return 0
        return self.regs.get(reg, TOP)

    def set(self, reg: str, value: ConstValue) -> "ConstantLattice":
        updated = dict(self.regs)
        updated[reg] = value
        return ConstantLattice(updated)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConstantLattice):
            return NotImplemented
        keys = set(self.regs) | set(other.regs)
        return all(
            _const_key(self.get(k)) == _const_key(other.get(k)) for k in keys
        )

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __repr__(self) -> str:
        known = {
            k: v for k, v in sorted(self.regs.items())
            if v is not TOP and v is not BOTTOM
        }
        return f"ConstantLattice({known})"


def _const_join_value(left: ConstValue, right: ConstValue) -> ConstValue:
    if left is TOP:
        return right
    if right is TOP:
        return left
    if left is BOTTOM or right is BOTTOM:
        return BOTTOM
    if _const_key(left) == _const_key(right):
        return left
    return BOTTOM


class _ConstProp(DataflowProblem):
    name = "constant-propagation"

    def __init__(self, cfg: ControlFlowGraph) -> None:
        self.cfg = cfg

    def initial(self) -> ConstantLattice:
        return ConstantLattice()

    def boundary(self) -> ConstantLattice:
        # Harnesses seed input registers (and memory) before `run()`,
        # so nothing can be assumed about the entry register file.
        return ConstantLattice({reg: BOTTOM for reg in ALL_REGS})

    def join(self, left: ConstantLattice, right: ConstantLattice) -> ConstantLattice:
        keys = set(left.regs) | set(right.regs)
        return ConstantLattice({
            key: _const_join_value(left.get(key), right.get(key))
            for key in keys
        })

    def transfer(self, block_id: int, value: ConstantLattice) -> ConstantLattice:
        current = value
        for index, _ in self.cfg.blocks[block_id]:
            current = _const_step(current, self.cfg, index)
        return current


def _eval_int_operand(state: ConstantLattice, token: str) -> ConstValue:
    if token.startswith("%r"):
        return state.get(token[1:])
    try:
        return int(token, 0)
    except ValueError:
        return BOTTOM


def _eval_fp_operand(state: ConstantLattice, token: str) -> ConstValue:
    if token.startswith("%f"):
        return state.get(token[1:])
    try:
        return float(token)
    except ValueError:
        return BOTTOM


def _const_step(
    state: ConstantLattice, cfg: ControlFlowGraph, index: int
) -> ConstantLattice:
    instruction = cfg.program.instructions[index]
    mnemonic = instruction.mnemonic
    operands = instruction.operands
    target = written_register(mnemonic, operands)
    if target is None:
        return state
    if mnemonic == "set":
        return state.set(target, _eval_int_operand(state, operands[0]))
    if mnemonic == "fset":
        try:
            return state.set(target, float(operands[0]))
        except ValueError:
            return state.set(target, BOTTOM)
    if mnemonic == "ld":
        return state.set(target, BOTTOM)  # memory is not modelled
    # Fold with the machine's own callables, so a constant is the value
    # the machine would compute.
    if mnemonic in BINARY_OPS:
        fold, _, is_float = BINARY_OPS[mnemonic]
        kind, evaluate = (
            (float, _eval_fp_operand) if is_float else (int, _eval_int_operand)
        )
        a = evaluate(state, operands[0])
        b = evaluate(state, operands[1])
        if isinstance(a, kind) and isinstance(b, kind):
            return state.set(target, fold(a, b))
        return state.set(target, BOTTOM)
    if mnemonic in FP_UNARY_OPS:
        a = _eval_fp_operand(state, operands[0])
        if isinstance(a, float):
            return state.set(target, float(FP_UNARY_OPS[mnemonic][0](a)))
        return state.set(target, BOTTOM)
    if mnemonic == "cmp":
        a = _eval_int_operand(state, operands[0])
        b = _eval_int_operand(state, operands[1])
        if isinstance(a, int) and isinstance(b, int):
            return state.set(target, (a > b) - (a < b))
        return state.set(target, BOTTOM)
    return state.set(target, BOTTOM)


def constant_propagation(cfg: ControlFlowGraph) -> Dict[int, ConstantLattice]:
    """Constant register state at the *input* of every instruction."""
    block_inputs = solve(cfg, _ConstProp(cfg))
    return instruction_states(
        cfg, block_inputs, lambda state, index: _const_step(state, cfg, index)
    )


# -- integer value ranges --------------------------------------------------

_NEG_INF = float("-inf")
_POS_INF = float("inf")


class Interval(NamedTuple):
    """A closed integer interval; infinities mark unbounded ends."""

    lo: float
    hi: float

    @property
    def finite(self) -> bool:
        return self.lo != _NEG_INF and self.hi != _POS_INF

    @property
    def cardinality(self) -> float:
        """Number of integers contained (inf when unbounded)."""
        if not self.finite:
            return _POS_INF
        return int(self.hi) - int(self.lo) + 1

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


FULL = Interval(_NEG_INF, _POS_INF)


def _interval_hull(left: Interval, right: Interval) -> Interval:
    return Interval(min(left.lo, right.lo), max(left.hi, right.hi))


class _Ranges:
    """Integer register file mapped onto intervals (TOP = absent)."""

    __slots__ = ("regs",)

    def __init__(self, regs: Optional[Dict[str, Interval]] = None) -> None:
        self.regs: Dict[str, Interval] = regs if regs is not None else {}

    def get(self, reg: str) -> Optional[Interval]:
        if reg == "r0":
            return Interval(0, 0)
        return self.regs.get(reg)

    def set(self, reg: str, interval: Interval) -> "_Ranges":
        updated = dict(self.regs)
        updated[reg] = interval
        return _Ranges(updated)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Ranges):
            return NotImplemented
        return self.regs == other.regs

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result


class _RangeAnalysis(DataflowProblem):
    name = "value-ranges"

    #: Sweeps before changing bounds are widened to infinity.
    WIDEN_AFTER = 4

    def __init__(self, cfg: ControlFlowGraph) -> None:
        self.cfg = cfg
        self._previous: Dict[int, _Ranges] = {}
        self._visits: Dict[int, int] = {}

    def initial(self) -> _Ranges:
        return _Ranges()

    def boundary(self) -> _Ranges:
        # Entry registers are harness inputs: unbounded.
        return _Ranges({reg: FULL for reg in INT_REGS if reg != "r0"})

    def join(self, left: _Ranges, right: _Ranges) -> _Ranges:
        merged: Dict[str, Interval] = dict(left.regs)
        for reg, interval in right.regs.items():
            existing = merged.get(reg)
            merged[reg] = (
                interval if existing is None
                else _interval_hull(existing, interval)
            )
        return _Ranges(merged)

    def transfer(self, block_id: int, value: _Ranges) -> _Ranges:
        current = value
        for index, _ in self.cfg.blocks[block_id]:
            current = _range_step(current, self.cfg, index)
        visits = self._visits.get(block_id, 0) + 1
        self._visits[block_id] = visits
        previous = self._previous.get(block_id)
        if previous is not None and visits > self.WIDEN_AFTER:
            current = _widen(previous, current)
        self._previous[block_id] = current
        return current


def _widen(previous: _Ranges, current: _Ranges) -> _Ranges:
    widened: Dict[str, Interval] = {}
    for reg, interval in current.regs.items():
        old = previous.regs.get(reg)
        if old is None:
            widened[reg] = interval
            continue
        lo = interval.lo if interval.lo >= old.lo else _NEG_INF
        hi = interval.hi if interval.hi <= old.hi else _POS_INF
        widened[reg] = Interval(lo, hi)
    return _Ranges(widened)


def _range_of_operand(state: _Ranges, token: str) -> Interval:
    if token.startswith("%r"):
        interval = state.get(token[1:])
        return interval if interval is not None else FULL
    try:
        value = int(token, 0)
        return Interval(value, value)
    except ValueError:
        return FULL


def _range_binop(mnemonic: str, a: Interval, b: Interval) -> Interval:
    if mnemonic == "add":
        return Interval(a.lo + b.lo, a.hi + b.hi)
    if mnemonic == "sub":
        return Interval(a.lo - b.hi, a.hi - b.lo)
    if mnemonic == "and":
        # A non-negative operand caps the result (the mask idiom).
        caps = [x.hi for x in (a, b) if x.lo >= 0]
        if caps:
            return Interval(0, min(caps))
        return FULL
    if mnemonic in ("or", "xor"):
        if a.lo >= 0 and b.lo >= 0 and a.finite and b.finite:
            bound = max(int(a.hi), int(b.hi))
            width = bound.bit_length()
            return Interval(0, (1 << width) - 1)
        return FULL
    if mnemonic in ("sll", "srl"):
        if b.lo == b.hi and b.finite and a.finite and a.lo >= 0:
            shift = int(b.lo) & 63
            if mnemonic == "sll":
                return Interval(int(a.lo) << shift, int(a.hi) << shift)
            return Interval(int(a.lo) >> shift, int(a.hi) >> shift)
        return FULL
    if mnemonic == "smul":
        if a.finite and b.finite:
            corners = [
                int(x) * int(y)
                for x in (a.lo, a.hi)
                for y in (b.lo, b.hi)
            ]
            return Interval(min(corners), max(corners))
        return FULL
    if mnemonic == "sdiv":
        if a.finite and b.finite and (b.lo > 0 or b.hi < 0):
            corners = [
                int_div(int(x), int(y))
                for x in (a.lo, a.hi)
                for y in (b.lo, b.hi)
            ]
            return Interval(min(corners), max(corners))
        return FULL
    return FULL


def _range_step(state: _Ranges, cfg: ControlFlowGraph, index: int) -> _Ranges:
    instruction = cfg.program.instructions[index]
    mnemonic = instruction.mnemonic
    operands = instruction.operands
    target = written_register(mnemonic, operands)
    if target is None or target.startswith("f") or target == "cc":
        return state
    if mnemonic == "set":
        return state.set(target, _range_of_operand(state, operands[0]))
    if mnemonic in BINARY_OPS:  # FP mnemonics range over FULL
        a = _range_of_operand(state, operands[0])
        b = _range_of_operand(state, operands[1])
        return state.set(target, _range_binop(mnemonic, a, b))
    return state.set(target, FULL)


def value_ranges(cfg: ControlFlowGraph) -> Dict[int, Dict[str, Interval]]:
    """Integer register intervals at the *input* of every instruction."""
    block_inputs = solve(cfg, _RangeAnalysis(cfg))
    states = instruction_states(
        cfg, block_inputs, lambda state, index: _range_step(state, cfg, index)
    )
    return {index: dict(state.regs) for index, state in states.items()}


# -- local value numbering -------------------------------------------------

class ValueNumbering(NamedTuple):
    """Per-instruction value numbers for one basic block walk.

    ``operand_vns`` maps an instruction index to the value numbers of
    its source operands; ``first_seen`` maps an expression key to the
    instruction index that first computed it, so a later instruction
    with the same key is locally redundant.
    """

    operand_vns: Dict[int, Tuple[object, ...]]
    first_seen: Dict[object, int]


def local_value_numbers(
    cfg: ControlFlowGraph,
    constants: Optional[Dict[int, ConstantLattice]] = None,
) -> ValueNumbering:
    """Value-number every block; constants share numbers across blocks."""
    operand_vns: Dict[int, Tuple[object, ...]] = {}
    first_seen: Dict[object, int] = {}
    fresh = 0
    for block in cfg.blocks:
        register_vn: Dict[str, object] = {}

        def vn_of(token: str, index: int) -> object:
            nonlocal fresh
            if not (token.startswith("%r") or token.startswith("%f")):
                try:
                    return ("const", _const_key(int(token, 0)))
                except ValueError:
                    return ("const", token)
            reg = token[1:]
            if reg == "r0":
                return ("const", _const_key(0))
            if constants is not None:
                value = constants[index].get(reg)
                if value is not TOP and value is not BOTTOM:
                    return ("const", _const_key(value))
            if reg not in register_vn:
                fresh += 1
                register_vn[reg] = ("in", block.index, reg, fresh)
            return register_vn[reg]

        for index, instruction in block:
            mnemonic = instruction.mnemonic
            operands = instruction.operands
            target = written_register(mnemonic, operands)
            if mnemonic in ("set", "fset"):
                vns: Tuple[object, ...] = (vn_of(operands[0], index),)
            elif mnemonic in BINARY_OPS or mnemonic == "cmp":
                vns = (
                    vn_of(operands[0], index),
                    vn_of(operands[1], index),
                )
            elif mnemonic in FP_UNARY_OPS:
                vns = (vn_of(operands[0], index),)
            else:
                # Loads/stores/branches: operands are not value-numbered.
                vns = tuple()
            operand_vns[index] = vns
            if target is None:
                continue
            if mnemonic == "ld":
                fresh += 1
                register_vn[target] = ("load", index, fresh)
                continue
            if vns and all(isinstance(v, tuple) for v in vns):
                pair = vns
                if mnemonic in _COMMUTATIVE and len(pair) == 2:
                    pair = tuple(sorted(pair, key=repr))
                key = (mnemonic, pair)
                if key not in first_seen:
                    first_seen[key] = index
                register_vn[target] = ("expr", key)
            else:
                fresh += 1
                register_vn[target] = ("def", index, fresh)
    return ValueNumbering(operand_vns, first_seen)
