"""Tail-recursion elimination.

The paper's programming model (section 2.1) forbids recursion on the GPU
*except* tail recursion the compiler can eliminate.  This pass rewrites a
self-call in tail position (``ret f(args)`` or a tail ``call`` followed by
``ret`` of its value / plain ``ret`` for void) into a jump back to a loop
header whose phis merge the entry arguments with the recursive arguments.
"""

from __future__ import annotations

from ..ir import Function, Instruction, add_phi_incoming, replace_uses


def eliminate_tail_recursion(function: Function) -> bool:
    if not function.blocks:
        return False
    sites = _tail_call_sites(function)
    if not sites:
        return False

    # Create a dispatch header after entry: entry branches to it, phis merge
    # argument values from entry and from each tail-call site.
    old_entry = function.entry
    header = function.new_block("tailrec.header")
    # header must follow entry in the block list but act as the loop target.
    function.blocks.remove(header)
    function.blocks.insert(1, header)

    # Move all original entry instructions into the header; the entry keeps
    # only an unconditional branch.  (Allocas stay in entry so they are not
    # re-executed per iteration.)
    moved: list[Instruction] = []
    for instr in list(old_entry.instructions):
        if instr.op == "alloca":
            continue
        old_entry.remove(instr)
        moved.append(instr)
    for instr in moved:
        header.append(instr)
    br = Instruction("br", function.ftype.ret.__class__() if False else _void(), [])
    br.targets = [header]
    old_entry.append(br)
    _redirect_phi_blocks(function, old_entry, header, exclude=header)

    # Argument phis in the header.
    first_call_loc = sites[0][0].loc
    arg_phis = []
    for arg in function.args:
        phi = Instruction("phi", arg.type, [], name=f"{arg.name}.tr")
        phi.loc = first_call_loc
        header.insert(0, phi)
        arg_phis.append(phi)
    # All uses of arguments now use the phis (the entry keeps none: allocas
    # and a branch), then the phis themselves take the arguments from it.
    replace_uses(function, dict(zip(function.args, arg_phis)))
    for arg, phi in zip(function.args, arg_phis):
        add_phi_incoming(phi, arg, old_entry)

    # Rewrite each tail-call site into a jump to the header.
    for call, ret in sites:
        block = call.block
        for arg_phi, actual in zip(arg_phis, call.operands):
            add_phi_incoming(arg_phi, actual, block)
        block.remove(ret)
        block.remove(call)
        jump = Instruction("br", _void(), [])
        jump.targets = [header]
        jump.loc = call.loc
        block.append(jump)
    return True


def _tail_call_sites(function: Function) -> list[tuple[Instruction, Instruction]]:
    sites = []
    for block in function.blocks:
        instrs = block.instructions
        if len(instrs) < 2:
            continue
        ret = instrs[-1]
        call = instrs[-2]
        if ret.op != "ret" or call.op != "call" or call.callee is not function:
            continue
        if ret.operands and ret.operands[0] is not call:
            continue  # returns something other than the call result
        # The call result must not be used anywhere else.
        uses = sum(
            1
            for instr in function.instructions()
            for op in instr.operands
            if op is call
        )
        if ret.operands and uses != 1:
            continue
        if not ret.operands and uses != 0:
            continue
        sites.append((call, ret))
    return sites


def has_nontail_recursion(function: Function) -> bool:
    """True if the function still calls itself after tail-call elimination
    has run — the restriction checker uses this (paper section 2.1)."""
    return any(
        instr.op == "call" and instr.callee is function
        for instr in function.instructions()
    )


def _void():
    from ..ir.types import VOID

    return VOID


def _redirect_phi_blocks(function: Function, old_block, new_block, exclude) -> None:
    for block in function.blocks:
        if block is exclude:
            continue
        for phi in block.phis():
            phi.phi_blocks = [
                new_block if b is old_block else b for b in phi.phi_blocks
            ]
