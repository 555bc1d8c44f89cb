"""Function inlining.

Device code cannot make real calls on the simulated GPU (and the paper's
compiler flattens everything except the devirtualized targets it expands
inline), so the inliner is aggressive: every direct call to a function with
a body whose size is under the budget is inlined, iterating to a fixed
point.  Recursive cycles are left alone — the restriction checker will
reject them for device code (after tail-recursion elimination has had its
chance).
"""

from __future__ import annotations

from typing import Callable

from ..ir import (
    Argument,
    BasicBlock,
    Constant,
    Function,
    GlobalVariable,
    Instruction,
    Module,
    add_phi_incoming,
    replace_uses,
)
from ..ir.types import VoidType

INLINE_BUDGET = 4000  # max instructions of the callee
MAX_INLINE_ROUNDS = 12


def make_inliner(module: Module) -> Callable[[Function], bool]:
    def inline_calls(function: Function) -> bool:
        return inline_all_calls(module, function)

    inline_calls.__name__ = "inline_calls"
    return inline_calls


def inline_all_calls(module: Module, function: Function) -> bool:
    results: dict[Instruction, object] = {}  # inlined call -> its return value
    inlined = 0
    for block in function.blocks:  # grows: callee blocks and the site's tail are appended
        if inlined == MAX_INLINE_ROUNDS:
            break
        for instr in block.instructions:
            if _is_inlinable_call(function, instr):
                _inline_call_site(function, instr, results)
                inlined += 1
                break
    replace_uses(function, results)
    return inlined > 0


def _is_inlinable_call(function: Function, instr: Instruction) -> bool:
    if instr.op != "call":
        return False
    callee = instr.callee
    if not isinstance(callee, Function) or not callee.blocks:
        return False
    if callee is function:
        return False  # direct recursion: handled by tailrec/restrictions
    size = sum(len(b.instructions) for b in callee.blocks)
    return size <= INLINE_BUDGET and not callee.attributes.get("noinline")


def _inline_call_site(function: Function, call: Instruction, results: dict) -> None:
    callee: Function = call.callee
    call_block = call.block
    call_index = call_block.instructions.index(call)

    # Split the call block: instructions after the call move to a new block.
    after = function.new_block(f"{call_block.name}.after")
    tail = call_block.instructions[call_index + 1 :]
    del call_block.instructions[call_index + 1 :]
    for instr in tail:
        instr.block = after
        after.instructions.append(instr)
    # phi edges pointing at successors must see "after" as the predecessor.
    for succ in _successors_of_instrs(tail):
        for phi in succ.phis():
            phi.phi_blocks = [after if b is call_block else b for b in phi.phi_blocks]

    # Clone callee blocks/instructions with a value map.
    vmap: dict[object, object] = {}
    for arg, actual in zip(callee.args, call.operands):
        vmap[arg] = actual
    block_map: dict[BasicBlock, BasicBlock] = {}
    for cblock in callee.blocks:
        block_map[cblock] = function.new_block(f"inl.{callee.name}.{cblock.name}")

    returns: list[tuple[BasicBlock, object]] = []
    for cblock in callee.blocks:
        nblock = block_map[cblock]
        for cinstr in cblock.instructions:
            if cinstr.op == "ret":
                value = (
                    _mapped(vmap, cinstr.operands[0]) if cinstr.operands else None
                )
                returns.append((nblock, value))
                br = Instruction("br", cinstr.type, [])
                br.targets = [after]
                br.loc = _chained_loc(cinstr.loc, call.loc)
                nblock.append(br)
                continue
            clone = _clone_instruction(cinstr, vmap, block_map)
            clone.loc = _chained_loc(cinstr.loc, call.loc)
            nblock.append(clone)
            vmap[cinstr] = clone
    # Second pass fixes forward references (operands defined later).
    for cblock in callee.blocks:
        for cinstr, ninstr in (
            (ci, vmap.get(ci)) for ci in cblock.instructions if ci.op != "ret"
        ):
            if not isinstance(ninstr, Instruction):
                continue
            ninstr.operands = [_mapped(vmap, o) for o in cinstr.operands]
            ninstr.phi_blocks = [block_map[b] for b in cinstr.phi_blocks]
            ninstr.targets = [block_map[t] for t in cinstr.targets]

    # Wire the call block into the inlined entry.
    entry_clone = block_map[callee.entry]
    call_block.remove(call)
    br = Instruction("br", call.type, [])
    br.targets = [entry_clone]
    br.loc = call.loc
    call_block.append(br)

    # Merge return value(s) at the join block.
    if not isinstance(call.type, VoidType):
        if len(returns) == 1:
            result = returns[0][1]
        else:
            phi = Instruction("phi", call.type, [], name=f"{callee.name}.ret")
            phi.loc = call.loc
            after.insert(0, phi)
            for rblock, rvalue in returns:
                add_phi_incoming(phi, rvalue, rblock)
            result = phi
        results[call] = result


def _clone_instruction(instr: Instruction, vmap, block_map) -> Instruction:
    clone = Instruction(instr.op, instr.type, [], name=instr.name)
    clone.pred = instr.pred
    clone.alloc_type = instr.alloc_type
    clone.callee = instr.callee
    clone.gep_offset = instr.gep_offset
    clone.gep_scales = list(instr.gep_scales)
    clone.vslot = instr.vslot
    clone.vclass = instr.vclass
    clone.annotations = dict(instr.annotations)
    # operands/targets/phi_blocks are fixed up in the second pass
    clone.operands = list(instr.operands)
    clone.phi_blocks = list(instr.phi_blocks)
    clone.targets = list(instr.targets)
    return clone


def _chained_loc(callee_loc, call_loc):
    """Debug-info chain for an inlined instruction: the callee's own
    frames followed by the call site's (LLVM's ``inlinedAt``)."""
    if callee_loc is None:
        return call_loc
    if call_loc is None:
        return callee_loc
    return tuple(callee_loc) + tuple(call_loc)


def _mapped(vmap, value):
    if value is None:
        return None
    if isinstance(value, (Constant, GlobalVariable)):
        return value
    seen = 0
    while value in vmap and seen < 64:
        value = vmap[value]
        seen += 1
    return value


def _successors_of_instrs(instrs) -> set:
    result = set()
    for instr in instrs:
        result.update(instr.targets)
    return result
