"""Virtual-call expansion for GPU code (paper section 3.2).

GPU hardware has no function pointers, so a virtual call cannot simply load
a function address from the vtable and jump.  Concord's compiler instead:

a) places vtables (and RTTI) in the SVM shared region,
b) shares the global symbols of the candidate virtual functions, and
c) translates each virtual call into an inline sequence of tests of the
   loaded vtable-slot value against the possible targets, found by class
   hierarchy analysis (CHA).

We reproduce exactly that: ``vcall`` pseudo-instructions carry the static
class and vtable slot; this pass loads the object's vtable pointer, loads
the slot entry (a function *symbol id* materialized in the shared region by
the program loader), and expands an if/else-if chain comparing the id
against each CHA candidate, calling the corresponding function directly.
When CHA finds a single candidate the call is devirtualized with no test at
all (the alias-analysis fast path the paper mentions).
"""

from __future__ import annotations

from ..ir import (
    BasicBlock,
    Function,
    Instruction,
    IRBuilder,
    Module,
    add_phi_incoming,
    const_int,
    replace_uses,
)
from ..ir.types import I64, PointerType, VoidType, ptr


def expand_virtual_calls(module: Module, function: Function) -> bool:
    results: dict[Instruction, Instruction] = {}  # vcall -> its merged result
    expanded = False
    for block in function.blocks:  # grows: a site's tail moves to a new last block
        for instr in block.instructions:
            if instr.op == "vcall":
                _expand_site(module, function, instr, results)
                expanded = True
                break
    replace_uses(function, results)
    return expanded


def _expand_site(module: Module, function: Function, vcall: Instruction, results: dict) -> None:
    block = vcall.block
    index = block.instructions.index(vcall)
    vclass = vcall.vclass
    slot = vcall.vslot
    candidates = _cha_candidates(module, vclass, slot)
    if not candidates:
        raise RuntimeError(
            f"no CHA candidates for virtual slot {slot} of {vclass.name}"
        )

    obj = vcall.operands[0]
    args = vcall.operands[1:]

    # Split block at the vcall.
    after = function.new_block(f"{block.name}.vret")
    tail = block.instructions[index + 1 :]
    del block.instructions[index + 1 :]
    for instr in tail:
        instr.block = after
        after.instructions.append(instr)
    for succ_block in set(t for i in tail for t in i.targets):
        for phi in succ_block.phis():
            phi.phi_blocks = [after if b is block else b for b in phi.phi_blocks]
    block.remove(vcall)

    builder = IRBuilder(block)
    # The whole expansion is charged to the virtual call's source location.
    builder.loc = vcall.loc
    # Load the vtable pointer (stored at offset 0 of every polymorphic
    # object) and then the slot's function-symbol id.
    vptr_addr = builder.gep(obj, ptr(ptr(I64)), offset=0, name="vptr.addr")
    vptr = builder.load(vptr_addr, name="vptr")
    slot_addr = builder.gep(vptr, ptr(I64), offset=8 * slot, name="vslot.addr")
    target_id = builder.load(slot_addr, name="vtarget")

    result_incoming: list[tuple] = []
    current = block
    for pos, (class_name, target_fn) in enumerate(candidates):
        is_last = pos == len(candidates) - 1
        builder.position_at_end(current)
        call_block = function.new_block(f"vcall.{target_fn.name}.{vcall.uid}")
        if is_last:
            # Last candidate needs no test (exactly the paper's chain shape).
            builder.br(call_block)
            next_block = None
        else:
            next_block = function.new_block(f"vtest.{vcall.uid}.{pos + 1}")
            symbol = const_int(_symbol_id(module, target_fn), I64)
            cond = builder.icmp("eq", target_id, symbol, name="is_target")
            # Tag the chain's compares so the source-line profiler can count
            # devirtualization tests separately from ordinary arithmetic.
            cond.annotations["devirt_chain"] = True
            builder.condbr(cond, call_block, next_block)
        builder.position_at_end(call_block)
        this_arg = obj
        call = builder.call(target_fn, [this_arg, *args], name=f"v.{target_fn.name}")
        builder.br(after)
        result_incoming.append((call_block, call))
        if next_block is None:
            break
        current = next_block

    if not isinstance(vcall.type, VoidType):
        if len(result_incoming) == 1:
            result = result_incoming[0][1]
        else:
            phi = Instruction("phi", vcall.type, [], name=f"vres.{vcall.uid}")
            phi.loc = vcall.loc
            after.insert(0, phi)
            for src_block, value in result_incoming:
                add_phi_incoming(phi, value, src_block)
            result = phi
        results[vcall] = result


def _cha_candidates(module: Module, vclass, slot: int) -> list[tuple[str, Function]]:
    """All (class, function) overrides of ``slot`` in the hierarchy rooted at
    ``vclass``, from class-hierarchy analysis recorded in module vtables.

    Candidates are ordered leaf-classes-first: concrete subclasses are what
    objects actually are at runtime, so testing them first lets the inline
    compare chain short-circuit on the common case (the base class's own
    implementation, often never instantiated, goes last and absorbs the
    untested fall-through)."""
    names = list(reversed(_subclasses_of(module, vclass)))
    seen: dict[str, Function] = {}
    result = []
    for name in names:
        vtable = module.vtables.get(name)
        if vtable is None or slot >= len(vtable):
            continue
        target = vtable[slot]
        if target.name not in seen:
            seen[target.name] = target
            result.append((name, target))
    return result


def _subclasses_of(module: Module, vclass) -> list[str]:
    """The class itself plus all transitive subclasses (by vtable metadata).

    Class hierarchy facts are stashed on the module by the frontend as
    ``module.class_hierarchy``: mapping class name -> list of direct
    subclass names.
    """
    hierarchy = getattr(module, "class_hierarchy", {})
    root = vclass.name if hasattr(vclass, "name") else str(vclass)
    order = [root]
    seen = {root}
    queue = [root]
    while queue:
        current = queue.pop()
        for child in hierarchy.get(current, ()):
            if child not in seen:
                seen.add(child)
                order.append(child)
                queue.append(child)
    return order


def _symbol_id(module: Module, function: Function) -> int:
    """Stable symbol id for a device function, shared with the loader that
    materializes vtables in the SVM region (paper: 'share the global
    symbols of relevant virtual functions ... using shared memory')."""
    table = getattr(module, "symbol_ids", None)
    if table is None:
        table = {}
        module.symbol_ids = table
    if function.name not in table:
        table[function.name] = 0x1000 + len(table)
    return table[function.name]
