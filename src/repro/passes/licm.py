"""Loop-invariant code motion (the paper's "aggressive register promotion
... to eliminate memory loads of the same location, in particular, across
loop iterations").

Without alias analysis we hoist conservatively:

* pure arithmetic/casts/geps whose operands are loop-invariant are hoisted
  to the preheader unconditionally;
* a ``load`` with a loop-invariant address is hoisted only when the loop
  body contains *no* stores, atomics, or opaque calls (so nothing can
  change the loaded location mid-loop).  This is exactly what makes body
  fields (``this->n``, ``this->a``) live in registers across iterations.

Loops are processed innermost-first so hoisted values can cascade outward.
Speculation safety: hoisted instructions come only from blocks that
dominate every loop latch (they execute on every iteration), so executing
them in the preheader adds no new faults.
"""

from __future__ import annotations

from ..ir import Constant, DominatorTree, Function, Instruction, find_loops
from ..ir.values import BINARY_OPS, CAST_OPS


def loop_invariant_code_motion(function: Function) -> bool:
    if not function.blocks:
        return False
    changed = False
    loops = find_loops(function)
    # innermost first
    loops.sort(key=lambda l: -l.depth)
    for loop in loops:
        changed = _hoist_one_loop(function, loop) or changed
    return changed


def _hoist_one_loop(function: Function, loop) -> bool:
    domtree = DominatorTree.of(function)
    outside_preds = [p for p in domtree.preds[loop.header] if p not in loop.blocks]
    if len(outside_preds) != 1:
        return False
    preheader = outside_preds[0]
    if preheader.terminator is None or preheader.terminator.op == "condbr":
        # Only hoist into a dedicated edge; a conditional preheader would
        # speculate the hoisted code on the untaken path.  (The frontend
        # always emits a straight-line block before for/while headers.)
        if len(preheader.successors()) != 1:
            return False

    loop_has_memory_writes = any(
        instr.op == "store"
        or (
            instr.op in ("call", "vcall")
            and instr.has_side_effects
        )
        for block in loop.blocks
        for instr in block.instructions
    )

    loop_defs = {
        instr
        for block in loop.blocks
        for instr in block.instructions
    }

    def is_invariant(value) -> bool:
        if isinstance(value, Instruction):
            return value not in loop_defs
        return True  # constants, arguments, globals

    changed = False
    again = True
    while again:
        again = False
        for block in loop.ordered():
            # Only from blocks executed on every iteration.
            if not all(domtree.dominates(block, latch) for latch in loop.latches):
                continue
            for instr in list(block.instructions):
                if not all(is_invariant(op) for op in instr.operands):
                    continue
                hoistable = False
                if instr.op in BINARY_OPS or instr.op in CAST_OPS or instr.op in (
                    "icmp",
                    "fcmp",
                    "select",
                    "gep",
                ):
                    if instr.op in ("sdiv", "udiv", "srem", "urem"):
                        divisor = instr.operands[1]
                        hoistable = isinstance(divisor, Constant) and divisor.value != 0
                    else:
                        hoistable = True
                elif instr.op == "call" and instr.callee is not None:
                    hoistable = not instr.has_side_effects
                elif instr.op == "load":
                    hoistable = not loop_has_memory_writes
                if not hoistable:
                    continue
                block.remove(instr)
                term_index = preheader.instructions.index(preheader.terminator)
                preheader.insert(term_index, instr)
                loop_defs.discard(instr)
                changed = True
                again = True
    return changed
