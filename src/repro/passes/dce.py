"""Dead code elimination: remove side-effect-free instructions with no uses
and basic blocks unreachable from the entry.

The SVM lowering pass relies on this: it emits eager ``svm.to_gpu``
translations for every loaded pointer, and pointers that are never
dereferenced on the GPU have their (pure) translation deleted here —
exactly the division of labour the paper describes in section 4.1.
"""

from __future__ import annotations

from ..ir import Function, Instruction
from .simplifycfg import remove_unreachable_blocks


def dead_code_elimination(function: Function) -> bool:
    """Runs to fixpoint: removing a dead alloca's stores can orphan the
    stored values, which the next sweep then collects — one call leaves
    nothing for a second call to find (idempotence)."""
    changed = False
    while _dce_round(function):
        changed = True
    return changed


def _dce_round(function: Function) -> bool:
    if not function.blocks:
        return False
    changed = remove_unreachable_blocks(function)

    use_counts: dict[int, int] = {}
    for instr in function.instructions():
        for operand in instr.operands:
            if isinstance(operand, Instruction):
                use_counts[operand.uid] = use_counts.get(operand.uid, 0) + 1

    worklist = [
        instr
        for instr in function.instructions()
        if not instr.has_side_effects
        and instr.op not in ("alloca",)
        and use_counts.get(instr.uid, 0) == 0
    ]
    dead: set[Instruction] = set()
    while worklist:
        instr = worklist.pop()
        if instr in dead or instr.block is None:
            continue
        dead.add(instr)
        for operand in instr.operands:
            if isinstance(operand, Instruction) and not operand.has_side_effects:
                count = use_counts.get(operand.uid, 0) - 1
                use_counts[operand.uid] = count
                if count <= 0 and operand.op != "alloca" and operand.block is not None:
                    worklist.append(operand)
    function.remove_instructions(dead)
    changed = changed or bool(dead)

    # Allocas with only stores into them (dead locals) can also go.
    changed = _remove_dead_allocas(function) or changed
    return changed


def _remove_dead_allocas(function: Function) -> bool:
    loads_from: set[int] = set()
    stores_to: dict[int, list[Instruction]] = {}
    allocas: dict[int, Instruction] = {}
    escaped: set[int] = set()
    for instr in function.instructions():
        if instr.op == "alloca":
            allocas[instr.uid] = instr
    for instr in function.instructions():
        for pos, operand in enumerate(instr.operands):
            if not isinstance(operand, Instruction) or operand.uid not in allocas:
                continue
            if instr.op == "load" and pos == 0:
                loads_from.add(operand.uid)
            elif instr.op == "store" and pos == 1:
                stores_to.setdefault(operand.uid, []).append(instr)
            else:
                escaped.add(operand.uid)
    dead: set[Instruction] = set()
    for uid, alloca in allocas.items():
        if uid in loads_from or uid in escaped:
            continue
        dead.update(stores_to.get(uid, ()))
        dead.add(alloca)
    function.remove_instructions(dead)
    return bool(dead)
