"""CFG simplification: delete unreachable blocks, merge straight-line
block chains, thread trivial jumps, and drop empty forwarding blocks
(keeping phi edges consistent)."""

from __future__ import annotations

from ..ir import Function, Instruction, replace_uses, resolve


def simplify_cfg(function: Function) -> bool:
    if not function.blocks:
        return False
    changed = False
    changed = remove_unreachable_blocks(function) or changed
    changed = _merge_linear_chains(function) or changed
    changed = _remove_forwarding_blocks(function) or changed
    return changed


def remove_unreachable_blocks(function: Function) -> bool:
    """Delete blocks no path from entry reaches, dropping the phi edges
    they feed into surviving blocks.

    Branch folding (constfold) can orphan whole subgraphs; a surviving
    phi that still lists a dead predecessor is invalid (its incoming
    value no longer dominates any real edge), so the edges must go with
    the blocks.
    """
    reachable = set()
    work = [function.entry]
    while work:
        block = work.pop()
        if block in reachable:
            continue
        reachable.add(block)
        term = block.terminator
        if term is not None:
            work.extend(term.targets)
    dead = [block for block in function.blocks if block not in reachable]
    if not dead:
        return False
    dead_set = set(dead)
    for block in function.blocks:
        if block in dead_set:
            continue
        for phi in block.phis():
            for idx in reversed(range(len(phi.phi_blocks))):
                if phi.phi_blocks[idx] in dead_set:
                    del phi.phi_blocks[idx]
                    del phi.operands[idx]
    for block in dead:
        function.remove_block(block)
    return True


def _merge_linear_chains(function: Function) -> bool:
    """Merge B into A when A's only successor is B and B's only
    predecessor is A.

    One pass: a merge hands A the terminator of B and leaves every other
    block's predecessor count as it was, so the mergeable edges are known
    from the start and each block absorbs its whole chain when visited.
    Retired phis and merged-away blocks are rewritten once at the end.
    """
    preds = function.compute_preds()
    replaced: dict[Instruction, object] = {}
    merged_into: dict = {}  # absorbed block -> the block it now lives in
    for block in function.blocks:
        if block in merged_into:
            continue
        while True:
            term = block.terminator
            if term is None or term.op != "br":
                break
            succ = term.targets[0]
            if succ is block or succ is function.entry or len(preds[succ]) != 1:
                break
            kept = []
            for instr in succ.instructions:
                if instr.op == "phi" and instr.operands:
                    # Single predecessor: the phi is trivial.
                    replaced[instr] = instr.operands[0]
                    instr.block = None
                else:
                    instr.block = block
                    kept.append(instr)
            block.instructions[-1:] = kept
            term.block = None
            succ.instructions = []
            merged_into[succ] = block
    if not merged_into:
        return False
    replace_uses(function, replaced)
    function.blocks[:] = [b for b in function.blocks if b not in merged_into]
    for block in function.blocks:
        for phi in block.phis():
            phi.phi_blocks = [resolve(merged_into, b) for b in phi.phi_blocks]
    return True


def _remove_forwarding_blocks(function: Function) -> bool:
    """Remove blocks containing only ``br target`` by retargeting their
    predecessors, when phi consistency allows it.

    One pass in block order with the predecessor sets kept current: a
    removal only ever adds predecessors to its target, which cannot make a
    block that was refused earlier removable, so nothing is revisited.
    """
    order = {block: index for index, block in enumerate(function.blocks)}
    preds = {block: set(ps) for block, ps in function.compute_preds().items()}
    removed = set()
    for block in function.blocks:
        if block is function.entry:
            continue
        if len(block.instructions) != 1:
            continue
        term = block.terminator
        if term is None or term.op != "br":
            continue
        target = term.targets[0]
        if target is block:
            continue
        # Phi edges are per block, so predecessors are a set; in block
        # order, which is the order phi edges are appended in.
        block_preds = sorted(preds[block], key=order.__getitem__)
        if not block_preds:
            continue
        # A phi in the target distinguishes incoming edges; retargeting
        # is safe only if no pred already flows into target (it would
        # create a duplicate edge with possibly-different phi values).
        target_phis = target.phis()
        if target_phis:
            if not preds[target].isdisjoint(block_preds):
                continue
            for phi in target_phis:
                if block in phi.phi_blocks:
                    idx = phi.phi_blocks.index(block)
                    incoming_value = phi.operands[idx]
                    del phi.phi_blocks[idx]
                    del phi.operands[idx]
                    for pred in block_preds:
                        phi.phi_blocks.append(pred)
                        phi.operands.append(incoming_value)
        for pred in block_preds:
            pterm = pred.terminator
            pterm.targets = [target if t is block else t for t in pterm.targets]
        preds[target].discard(block)
        preds[target].update(block_preds)
        removed.add(block)
    function.blocks[:] = [b for b in function.blocks if b not in removed]
    return bool(removed)
