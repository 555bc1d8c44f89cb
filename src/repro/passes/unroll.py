"""Loop unrolling bounded by register pressure (max-live).

The paper (section 4) unrolls loops to exploit the GPU's large register
file, "controlling the unroll-factor by restricting max live to the
available physical registers".  We implement the same policy:

* only innermost natural loops with a single latch and a body under the
  size budget are candidates;
* the unroll factor starts at ``DEFAULT_FACTOR`` and is halved until the
  estimated max-live value count times the factor fits the register file;
* unrolling replicates the loop body ``factor - 1`` extra times along the
  backedge (no trip-count knowledge is needed: every copy keeps the exit
  test, i.e. this is "unrolling with exits", which preserves semantics for
  any trip count).
"""

from __future__ import annotations

from ..ir import (
    BasicBlock,
    Constant,
    DominatorTree,
    Function,
    GlobalVariable,
    Instruction,
    add_phi_incoming,
    find_loops,
)

DEFAULT_FACTOR = 4
MAX_BODY_INSTRUCTIONS = 40
PHYSICAL_REGISTERS = 128  # per-thread GRF budget on Gen7.5 (4KB / 32B)


def unroll_loops(function: Function) -> bool:
    if not function.blocks:
        return False
    changed = False
    loops = [l for l in find_loops(function) if l.is_innermost()]
    for loop in loops:
        if len(loop.latches) != 1:
            continue
        body_size = sum(len(b.instructions) for b in loop.blocks)
        if body_size > MAX_BODY_INSTRUCTIONS:
            continue
        factor = DEFAULT_FACTOR
        max_live = _estimate_max_live(function, loop)
        while factor > 1 and max_live * factor > PHYSICAL_REGISTERS:
            factor //= 2
        if factor <= 1:
            continue
        if _unroll_one(function, loop, factor):
            changed = True
    return changed


def _estimate_max_live(function: Function, loop) -> int:
    """Crude max-live estimate: values defined in the loop that are used
    after their defining instruction, plus loop-invariant inputs."""
    defined = set()
    used = set()
    for block in loop.blocks:
        for instr in block.instructions:
            defined.add(instr)
            for operand in instr.operands:
                if isinstance(operand, Instruction):
                    used.add(operand)
    live_through = len(used - defined)  # invariants kept in registers
    produced = len([i for i in defined if i in used])
    return max(1, live_through + produced)


def _unroll_one(function: Function, loop, factor: int) -> bool:
    """Replicate the loop body ``factor - 1`` times.

    The latch's backedge is redirected to a clone of the whole loop body;
    each clone's backedge goes to the next clone, the last clone jumps to
    the original header.  Header phis are rewritten so the value flowing in
    from each clone's latch is the clone's version of the original latch
    value.  Exits from clones go to the original exit blocks; any phi in
    exit blocks gains matching incoming edges.
    """
    header = loop.header
    latch = loop.latches[0]
    blocks = loop.ordered()
    exit_edges = loop.exits()

    # Require a single exit block whose predecessors are all in the loop,
    # and put the function into LCSSA form for this loop so values computed
    # inside and used outside flow through exit phis the clone step can
    # extend.
    exit_blocks = {outside for _, outside in exit_edges}
    if len(exit_blocks) != 1:
        return False
    exit_block = next(iter(exit_blocks))
    preds = function.compute_preds()
    if any(p not in loop.blocks for p in preds[exit_block]):
        return False
    if not _make_lcssa(function, loop, exit_block, exit_edges):
        return False

    prev_blocks = {b: b for b in blocks}  # maps original -> previous copy
    prev_values: dict[Instruction, object] = {}
    for block in blocks:
        for instr in block.instructions:
            prev_values[instr] = instr
    # The latch's successor list before any redirection: clones rebuild
    # their backedge from this, pointing at the ORIGINAL header.
    latch_term = latch.terminator
    original_latch_targets = list(latch_term.targets)

    for copy_index in range(1, factor):
        block_map: dict[BasicBlock, BasicBlock] = {}
        value_map: dict[object, object] = {}
        for block in blocks:
            block_map[block] = function.new_block(f"{block.name}.u{copy_index}")
        for block in blocks:
            nblock = block_map[block]
            for instr in block.instructions:
                clone = _clone(instr)
                nblock.append(clone)
                value_map[instr] = clone
        # Header phis in the clone become copies of the value that flowed
        # around the backedge of the *previous* copy.
        for phi in header.phis():
            clone_phi = value_map[phi]
            latch_index = phi.phi_blocks.index(latch)
            incoming = phi.operands[latch_index]
            prev_incoming = prev_values.get(incoming, incoming)
            value_map[phi] = prev_incoming
            nheader = block_map[header]
            if clone_phi.block is nheader:
                nheader.remove(clone_phi)
        # Fix up operands/targets in clones.  The clone latch's backedge
        # initially points at the ORIGINAL header: when the next copy is
        # created it is redirected there, and the final copy's backedge is
        # exactly the loop-closing edge we want.
        for block in blocks:
            for instr in block.instructions:
                if instr.op == "phi" and block is header:
                    continue  # mapped to a value above, not a clone
                clone = value_map.get(instr)
                if not isinstance(clone, Instruction):
                    continue
                clone.operands = [
                    _map_value(value_map, prev_values, o) for o in clone.operands
                ]
                if instr is latch_term:
                    clone.targets = [
                        header if t is header else block_map.get(t, t)
                        for t in original_latch_targets
                    ]
                else:
                    clone.targets = [block_map.get(t, t) for t in instr.targets]
                clone.phi_blocks = [
                    block_map.get(b, b) for b in clone.phi_blocks
                ]
        # Previous copy's backedge now enters this clone's header.
        prev_latch = prev_blocks[latch]
        pterm = prev_latch.terminator
        pterm.targets = [
            block_map[header] if t is header else t for t in pterm.targets
        ]
        # Exit-block phis: clone edges.
        for inside, outside in exit_edges:
            for phi in outside.phis():
                if prev_blocks[inside] in phi.phi_blocks or inside in phi.phi_blocks:
                    src = inside
                    idx = (
                        phi.phi_blocks.index(src)
                        if src in phi.phi_blocks
                        else None
                    )
                    if idx is None:
                        continue
                    value = phi.operands[idx]
                    mapped = _map_value(value_map, prev_values, value)
                    phi.phi_blocks.append(block_map[inside])
                    phi.operands.append(mapped)
        prev_blocks = block_map
        prev_values = {
            orig: value_map.get(orig, prev_values.get(orig, orig))
            for orig in prev_values
        }

    # Final copy's backedge returns to the original header; header phis must
    # take their latch value from the final copy.
    final_latch = prev_blocks[latch]
    for phi in header.phis():
        latch_index = phi.phi_blocks.index(latch)
        incoming = phi.operands[latch_index]
        phi.phi_blocks[latch_index] = final_latch
        phi.operands[latch_index] = prev_values.get(incoming, incoming)
    return True


def _make_lcssa(function: Function, loop, exit_block, exit_edges) -> bool:
    """Rewrite uses outside the loop to go through phis in the exit block.

    Returns False, with nothing rewritten, when LCSSA cannot be established
    cheaply (a definition that does not dominate every exiting block), in
    which case the caller skips unrolling this loop.
    """
    domtree = DominatorTree.of(function)
    exiting = [inside for inside, _ in exit_edges]
    outside_users: dict[Instruction, list[Instruction]] = {}
    for block in function.blocks:
        if block in loop.blocks:
            continue
        for user in block.instructions:
            for operand in user.operands:
                if isinstance(operand, Instruction) and operand.block in loop.blocks:
                    outside_users.setdefault(operand, []).append(user)
    escaping = [
        instr
        for block in loop.ordered()
        for instr in block.instructions
        if instr in outside_users
        and instr.op not in ("store", "br", "condbr", "ret", "unreachable")
    ]
    if not all(domtree.dominates(i.block, ex) for i in escaping for ex in exiting):
        return False
    for instr in escaping:
        phi = Instruction("phi", instr.type, [], name=f"{instr.name or 'v'}.lcssa")
        phi.loc = instr.loc
        exit_block.insert(0, phi)
        for inside in exiting:
            add_phi_incoming(phi, instr, inside)
        for user in outside_users[instr]:
            user.replace_uses_of(instr, phi)
    return True


def _clone(instr: Instruction) -> Instruction:
    clone = Instruction(instr.op, instr.type, list(instr.operands), name=instr.name)
    clone.pred = instr.pred
    clone.alloc_type = instr.alloc_type
    clone.callee = instr.callee
    clone.gep_offset = instr.gep_offset
    clone.gep_scales = list(instr.gep_scales)
    clone.vslot = instr.vslot
    clone.vclass = instr.vclass
    clone.targets = list(instr.targets)
    clone.phi_blocks = list(instr.phi_blocks)
    clone.annotations = dict(instr.annotations)
    clone.loc = instr.loc
    return clone


def _map_value(value_map, prev_values, value):
    if isinstance(value, (Constant, GlobalVariable)) or value is None:
        return value
    if value in value_map:
        return value_map[value]
    return value
