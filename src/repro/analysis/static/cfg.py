"""Control-flow graph construction over assembled ISA programs.

Works directly on :class:`~repro.isa.machine.Program`: leaders are the
entry instruction, branch targets and branch fall-throughs; a basic
block runs from a leader to the next control transfer.  A branch taken
under every condition code (``ba``) cannot fall through; ``halt`` (and
falling off the end) terminates a path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ...isa.machine import BRANCH_CONDITIONS, Instruction, MachineError, Program

__all__ = ["BasicBlock", "ControlFlowGraph", "build_cfg"]

#: The machine's branch mnemonics, and those that can fall through (not
#: taken under some condition code).
BRANCHES = frozenset(BRANCH_CONDITIONS)
CONDITIONAL = frozenset(
    mnemonic for mnemonic, taken in BRANCH_CONDITIONS.items() if not all(taken)
)


@dataclass
class BasicBlock:
    """A maximal straight-line instruction sequence."""

    index: int  # block id (dense, in program order)
    start: int  # index of first instruction in Program.instructions
    instructions: List[Instruction] = field(default_factory=list)
    successors: List[int] = field(default_factory=list)
    predecessors: List[int] = field(default_factory=list)

    @property
    def terminator(self) -> Optional[Instruction]:
        return self.instructions[-1] if self.instructions else None

    def __iter__(self) -> Iterator[Tuple[int, Instruction]]:
        """Yield ``(program_index, instruction)`` pairs."""
        for offset, instruction in enumerate(self.instructions):
            yield self.start + offset, instruction

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass
class ControlFlowGraph:
    """Basic blocks plus the edges between them."""

    program: Program
    blocks: List[BasicBlock] = field(default_factory=list)
    #: instruction index -> block index, for site lookups.
    block_of: Dict[int, int] = field(default_factory=dict)

    @property
    def entry(self) -> Optional[BasicBlock]:
        return self.blocks[0] if self.blocks else None

    def reverse_postorder(self) -> List[int]:
        """Block ids in reverse postorder from the entry (good worklist
        seed for forward problems); unreachable blocks are appended in
        program order so passes still cover them."""
        if not self.blocks:
            return []
        seen = set()
        order: List[int] = []

        def visit(block_id: int) -> None:
            stack = [(block_id, iter(self.blocks[block_id].successors))]
            seen.add(block_id)
            while stack:
                current, successors = stack[-1]
                advanced = False
                for successor in successors:
                    if successor not in seen:
                        seen.add(successor)
                        stack.append(
                            (successor, iter(self.blocks[successor].successors))
                        )
                        advanced = True
                        break
                if not advanced:
                    order.append(current)
                    stack.pop()

        visit(0)
        postorder = list(reversed(order))
        for block in self.blocks:
            if block.index not in seen:
                postorder.append(block.index)
        return postorder

    def loop_depths(self) -> Dict[int, int]:
        """Approximate loop nesting depth per block.

        A retreating edge ``b -> h`` (h appears before b in reverse
        postorder and h reaches b) marks a natural loop; every block on
        a path from h to b belongs to it.  Depth is how many such loops
        contain the block.  Exact for the reducible CFGs the assembler
        produces.
        """
        rpo = self.reverse_postorder()
        position = {block_id: i for i, block_id in enumerate(rpo)}
        depths = {block.index: 0 for block in self.blocks}
        for block in self.blocks:
            for successor in block.successors:
                if position.get(successor, 0) <= position.get(block.index, 0):
                    # Natural loop of header `successor`: walk predecessors
                    # back from the latch until the header.
                    members = {successor}
                    stack = [block.index]
                    while stack:
                        node = stack.pop()
                        if node in members:
                            continue
                        members.add(node)
                        stack.extend(self.blocks[node].predecessors)
                    for member in members:
                        depths[member] += 1
        return depths


def build_cfg(program: Program) -> ControlFlowGraph:
    """Split ``program`` into basic blocks and connect the edges."""
    instructions = program.instructions
    count = len(instructions)
    if count == 0:
        return ControlFlowGraph(program)

    label_targets: Dict[str, int] = {}
    for label, pc in program.labels.items():
        label_targets[label] = (pc - instructions[0].pc) // 4

    leaders = {0}
    for index, instruction in enumerate(instructions):
        if instruction.mnemonic in BRANCHES:
            target = label_targets.get(instruction.operands[0])
            if target is None:
                raise MachineError(
                    f"line {instruction.line}: unknown label "
                    f"{instruction.operands[0]!r}"
                )
            if target < count:
                leaders.add(target)
            if index + 1 < count:
                leaders.add(index + 1)
        elif instruction.mnemonic == "halt" and index + 1 < count:
            leaders.add(index + 1)

    starts = sorted(leaders)
    cfg = ControlFlowGraph(program)
    for block_id, start in enumerate(starts):
        end = starts[block_id + 1] if block_id + 1 < len(starts) else count
        block = BasicBlock(block_id, start, list(instructions[start:end]))
        cfg.blocks.append(block)
        for index in range(start, end):
            cfg.block_of[index] = block_id

    block_at = {block.start: block.index for block in cfg.blocks}
    for block in cfg.blocks:
        terminator = block.terminator
        if terminator is None:
            continue
        mnemonic = terminator.mnemonic
        next_start = block.start + len(block)
        if mnemonic in BRANCHES:
            target = label_targets[terminator.operands[0]]
            if target < count:
                block.successors.append(block_at[target])
            if mnemonic in CONDITIONAL and next_start < count:
                fallthrough = block_at[next_start]
                if fallthrough not in block.successors:
                    block.successors.append(fallthrough)
        elif mnemonic != "halt" and next_start < count:
            block.successors.append(block_at[next_start])
    for block in cfg.blocks:
        for successor in block.successors:
            cfg.blocks[successor].predecessors.append(block.index)
    return cfg
