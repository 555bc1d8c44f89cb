"""PTROPT — reduce software-SVM translation overhead (paper section 4.1).

The SVM lowering pass translates lazily: a ``svm.to_gpu`` sits in front of
every GPU dereference, so a pointer dereferenced in a loop pays translation
arithmetic on every iteration (the paper's Figure 4 discussion).  PTROPT
implements the paper's dual-representation strategy:

1. **Commute translation through address arithmetic.**  ``to_gpu(gep(p, i))``
   is rewritten to ``gep(to_gpu(p), i)`` — translation is adding a runtime
   constant, so it distributes over pointer arithmetic.  The original
   CPU-representation gep *stays* for any use that needs the CPU form (for
   example storing the pointer into memory, like ``b[i] = a[i]``); dead
   copies are cleaned by DCE.  After the rewrite the translated value is the
   *base* pointer, which is typically loop-invariant.

2. **Eager placement at the definition.**  Each distinct source value gets
   one translation placed immediately after its definition (entry block for
   arguments), and all translation sites of that value are merged into it.
   Combined with step 1 this hoists translations out of loops.

3. **Live-range shrinking (sinking).**  A translation whose uses all sit in
   a single block that is not in a deeper loop is moved down to that block,
   shrinking the register live range — the paper's nod to optimal code
   motion [Knoop et al.].

DCE afterwards deletes translations of pointers never dereferenced on the
GPU (the "lazy is better" case of Figure 4 falls out for free: pointers that
are only loaded and stored keep their CPU representation end to end).
"""

from __future__ import annotations

from ..ir import Argument, Function, Instruction, find_loops, replace_uses, resolve
from ..ir.intrinsics import SVM_TO_GPU


def optimize_pointer_translations(function: Function) -> bool:
    if not function.blocks:
        return False
    changed = False
    changed = _commute_through_geps(function) or changed
    changed = _unify_at_definitions(function) or changed
    changed = _sink_translations(function) or changed
    return changed


def _is_translation(instr: Instruction) -> bool:
    return instr.op == "call" and instr.callee is SVM_TO_GPU


def _translation_sites(function: Function) -> list[Instruction]:
    return [instr for instr in function.instructions() if _is_translation(instr)]


def _commute_through_geps(function: Function) -> bool:
    """One forward pass: a rewritten site leaves its translated base where
    it stood, so that is examined next (a gep over a gep commutes twice)."""
    commuted: dict[Instruction, Instruction] = {}  # site -> its gpu gep
    for block in function.blocks:
        index = 0
        while index < len(block.instructions):
            site = block.instructions[index]
            source = resolve(commuted, site.operands[0]) if _is_translation(site) else None
            if not isinstance(source, Instruction) or source.op != "gep":
                index += 1
                continue
            base = resolve(commuted, source.operands[0])
            translated_base = Instruction(
                "call", base.type, [base], name="gpu_base_ptr"
            )
            translated_base.callee = SVM_TO_GPU
            translated_base.loc = site.loc
            gpu_gep = Instruction(
                "gep",
                site.type,
                [translated_base, *source.operands[1:]],
                name=f"{source.name or 'gep'}.gpu",
            )
            gpu_gep.gep_offset = source.gep_offset
            gpu_gep.gep_scales = list(source.gep_scales)
            gpu_gep.loc = source.loc
            translated_base.block = gpu_gep.block = block
            block.instructions[index : index + 1] = [translated_base, gpu_gep]
            site.block = None
            commuted[site] = gpu_gep
    replace_uses(function, commuted)
    return bool(commuted)


def _unify_at_definitions(function: Function) -> bool:
    sites = _translation_sites(function)
    if not sites:
        return False
    by_source: dict[int, list[Instruction]] = {}
    source_of: dict[int, object] = {}
    for site in sites:
        source = site.operands[0]
        key = id(source)
        by_source.setdefault(key, []).append(site)
        source_of[key] = source

    moved = False
    unified: dict[Instruction, Instruction] = {}  # duplicate site -> canonical
    for key, group in by_source.items():
        source = source_of[key]
        canonical, placed = _place_eager_translation(function, source, group)
        moved = moved or placed
        if canonical is None:
            continue
        for site in group:
            if site is not canonical:
                unified[site] = canonical
    replace_uses(function, unified)
    function.remove_instructions(set(unified))
    return moved or bool(unified)


def _place_eager_translation(function, source, group) -> tuple:
    """Move the group's first translation right after ``source``'s def.
    Returns it (None: leave the group alone) and whether it moved."""
    if isinstance(source, Argument):
        target_block = function.entry
        insert_index = target_block.first_non_phi_index()
    elif isinstance(source, Instruction):
        if source.op == "phi":
            target_block = source.block
            insert_index = target_block.first_non_phi_index()
        elif source.block is not None:
            target_block = source.block
            insert_index = target_block.instructions.index(source) + 1
        else:
            return None, False
    else:
        # Constants/globals: translation folds at codegen; just dedupe to
        # the first site.
        return group[0], False
    canonical = group[0]
    if canonical.block is target_block and (
        target_block.instructions.index(canonical) == insert_index
    ):
        return canonical, False
    canonical.block.remove(canonical)
    target_block.insert(insert_index, canonical)
    return canonical, True


def _sink_translations(function: Function) -> bool:
    """Move a translation down into the unique block of its uses, unless
    that block sits in a deeper loop (which would add dynamic work)."""
    loops = find_loops(function)
    depth: dict = {}
    for loop in loops:
        for block in loop.ordered():
            depth[block] = max(depth.get(block, 0), loop.depth)

    uses: dict[int, list[Instruction]] = {}
    for instr in function.instructions():
        for operand in instr.operands:
            if isinstance(operand, Instruction):
                uses.setdefault(operand.uid, []).append(instr)

    changed = False
    for site in _translation_sites(function):
        site_uses = uses.get(site.uid, [])
        if not site_uses:
            continue
        use_blocks = {u.block for u in site_uses if u.block is not None}
        if len(use_blocks) != 1:
            continue
        target = next(iter(use_blocks))
        if target is site.block:
            continue
        if any(u.op == "phi" for u in site_uses):
            continue
        if depth.get(target, 0) > depth.get(site.block, 0):
            continue
        first_use_index = min(
            target.instructions.index(u) for u in site_uses
        )
        if first_use_index <= target.first_non_phi_index() - 1:
            continue
        site.block.remove(site)
        target.insert(max(first_use_index, target.first_non_phi_index()), site)
        changed = True
    return changed
