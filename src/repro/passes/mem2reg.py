"""Promote alloca'd scalars to SSA registers (the classic mem2reg pass).

This is the paper's "aggressive register promotion": GPU register files are
large, so every promotable local — including the pointer-typed temporaries
the SVM lowering will later care about — is lifted out of memory.  Standard
algorithm: phi insertion at iterated dominance frontiers, then renaming via
a depth-first walk of the dominator tree.

An alloca is promotable when every use is a direct ``load`` or a ``store``
of a *value* into it (not of its address) and the allocated type is scalar.
Taking the address of a local (which the paper's model forbids on the GPU;
the restriction checker flags it) blocks promotion.
"""

from __future__ import annotations

from collections import defaultdict

from ..ir import (
    Constant,
    DominatorTree,
    Function,
    Instruction,
    add_phi_incoming,
    replace_uses,
)
from ..ir.types import FloatType, IntType, PointerType


def promote_memory_to_registers(function: Function) -> bool:
    if not function.blocks:
        return False
    allocas = _promotable_allocas(function)
    if not allocas:
        return False

    domtree = DominatorTree.of(function)
    reachable = domtree.reachable()

    # 1. Phi placement at iterated dominance frontiers of defining blocks.
    phis: dict[Instruction, dict] = {}  # alloca -> {block: phi}
    for alloca, uses in allocas.items():
        def_blocks = {
            use.block
            for use in uses
            if use.op == "store" and use.block in reachable
        }
        placed: dict = {}
        worklist = list(def_blocks)
        seen = set(def_blocks)
        while worklist:
            block = worklist.pop()
            for frontier_block in domtree.frontier.get(block, ()):
                if frontier_block in placed:
                    continue
                phi = Instruction("phi", alloca.alloc_type, [], name=f"{alloca.name}.phi")
                phi.loc = alloca.loc
                frontier_block.insert(0, phi)
                placed[frontier_block] = phi
                if frontier_block not in seen:
                    seen.add(frontier_block)
                    worklist.append(frontier_block)
        phis[alloca] = placed

    # 2. Renaming along the dominator tree.  A load maps to the value
    # current at that point (possibly a load retired earlier: replace_uses
    # follows the chain); the function is rewritten once at the end.
    undef = {a: _undef_value(a.alloc_type) for a in allocas}
    stacks: dict[Instruction, list] = {a: [] for a in allocas}
    replaced: dict[Instruction, object] = {}
    dead: set[Instruction] = set()

    def current(alloca: Instruction):
        return stacks[alloca][-1] if stacks[alloca] else undef[alloca]

    unwind: list[list] = []  # per open block: the allocas it pushed values for
    for block, entering in domtree.walk():
        if not entering:
            for alloca in unwind.pop():
                stacks[alloca].pop()
            continue
        pushed: list[Instruction] = []
        unwind.append(pushed)
        for alloca, placed in phis.items():
            phi = placed.get(block)
            if phi is not None:
                stacks[alloca].append(phi)
                pushed.append(alloca)
        for instr in block.instructions:
            if instr in allocas:
                dead.add(instr)
            elif instr.op == "load" and instr.operands[0] in allocas:
                replaced[instr] = current(instr.operands[0])
                dead.add(instr)
            elif instr.op == "store" and instr.operands[1] in allocas:
                alloca = instr.operands[1]
                stacks[alloca].append(instr.operands[0])
                pushed.append(alloca)
                dead.add(instr)
        for succ in block.successors():
            for alloca, placed in phis.items():
                phi = placed.get(succ)
                if phi is not None:
                    add_phi_incoming(phi, current(alloca), block)

    replace_uses(function, replaced)
    function.remove_instructions(dead)
    # Prune phis whose block became unreachable mentions or that merge a
    # single distinct value; keep it simple, later DCE/simplifycfg finish up.
    return True


def _promotable_allocas(function: Function) -> dict[Instruction, list[Instruction]]:
    """Promotable allocas, each with the instructions that use it."""
    uses: dict[Instruction, list[Instruction]] = defaultdict(list)
    allocas: list[Instruction] = []
    for instr in function.instructions():
        if instr.op == "alloca":
            alloc_type = instr.alloc_type
            if isinstance(alloc_type, (IntType, FloatType, PointerType)):
                allocas.append(instr)
        for operand in instr.operands:
            if isinstance(operand, Instruction):
                uses[operand].append(instr)
    result = {}
    for alloca in allocas:
        ok = True
        for use in uses.get(alloca, ()):
            if use.op == "load" and use.operands[0] is alloca:
                continue
            if use.op == "store" and use.operands[1] is alloca and use.operands[0] is not alloca:
                continue
            ok = False
            break
        if ok:
            result[alloca] = uses.get(alloca, [])
    return result


def _undef_value(type_):
    """A benign default for paths that read before writing (UB in C++)."""
    if isinstance(type_, FloatType):
        return Constant(type_, 0.0)
    return Constant(type_, 0)
