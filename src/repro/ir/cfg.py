"""Control-flow-graph analyses: dominators, post-dominators, natural loops.

Dominators use the Cooper–Harvey–Kennedy iterative algorithm over a reverse
post-order numbering.  Post-dominators run the same algorithm on the reversed
CFG with a virtual exit joining every ``ret``/``unreachable`` block.  Natural
loops are found from back edges (edge ``t -> h`` where ``h`` dominates ``t``)
and grouped per header.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .values import BasicBlock, Function


def _cfg_shape(function: Function) -> list:
    """What every analysis here is a function of: the block list and each
    terminator's targets."""
    return [(block, block.successors()) for block in function.blocks]


def reverse_postorder(function: Function) -> list[BasicBlock]:
    return _reverse_postorder(function.entry, dict(_cfg_shape(function)))


def _reverse_postorder(entry: BasicBlock, succs: dict) -> list[BasicBlock]:
    # Iterative DFS to avoid Python recursion limits on deep CFGs.
    seen = {entry}
    order: list[BasicBlock] = []
    stack: list[tuple[BasicBlock, int]] = [(entry, 0)]
    while stack:
        current, idx = stack.pop()
        targets = succs[current]
        if idx < len(targets):
            stack.append((current, idx + 1))
            nxt = targets[idx]
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, 0))
        else:
            order.append(current)
    order.reverse()
    return order


class DominatorTree:
    """Immediate-dominator tree plus dominance frontiers.

    Passes and the verifier ask :meth:`of` instead of constructing: it
    returns the tree built for the function's current CFG shape, so nothing
    has to announce a CFG change and nothing can read a stale tree.
    """

    def __init__(self, function: Function):
        self.function = function
        self.shape = _cfg_shape(function)
        succs = dict(self.shape)
        #: predecessors in ``Function.compute_preds`` order
        self.preds: dict[BasicBlock, list[BasicBlock]] = {b: [] for b in succs}
        for block, targets in self.shape:
            for succ in targets:
                self.preds[succ].append(block)
        self.rpo = _reverse_postorder(function.entry, succs)
        self._rpo_index = {b: i for i, b in enumerate(self.rpo)}
        self.idom: dict[BasicBlock, Optional[BasicBlock]] = {}
        self._compute_idoms()
        self.children: dict[BasicBlock, list[BasicBlock]] = {b: [] for b in self.rpo}
        for block, parent in self.idom.items():
            if parent is not None and parent is not block:
                self.children[parent].append(block)
        self.frontier = self._compute_frontiers()

    @classmethod
    def of(cls, function: Function) -> "DominatorTree":
        """The tree for ``function`` as its CFG is *now*: the one kept on
        the function if its recorded shape (block list and terminator
        targets, compared on every ask) still matches, else a new one.
        Transient like ``CompiledProgram.jit_code``: never pickled, and
        the pipelines drop it when they are done with the function."""
        tree = function.domtree
        if tree is None or tree.shape != _cfg_shape(function):
            tree = function.domtree = cls(function)
        return tree

    def walk(self):
        """Pre-order over the tree, on an explicit stack (straight-line
        code makes it as deep as the function is long): yields
        ``(block, True)`` on entering a block and ``(block, False)`` once
        its whole subtree is done."""
        stack = [(self.function.entry, True)]
        while stack:
            block, entering = stack.pop()
            yield block, entering
            if entering:
                stack.append((block, False))
                stack.extend((child, True) for child in reversed(self.children[block]))

    def _compute_idoms(self) -> None:
        entry = self.function.entry
        preds = self.preds
        idom: dict[BasicBlock, Optional[BasicBlock]] = {b: None for b in self.rpo}
        idom[entry] = entry
        changed = True
        while changed:
            changed = False
            for block in self.rpo:
                if block is entry:
                    continue
                new_idom: Optional[BasicBlock] = None
                for pred in preds[block]:
                    if pred not in self._rpo_index or idom.get(pred) is None:
                        continue
                    if new_idom is None:
                        new_idom = pred
                    else:
                        new_idom = self._intersect(idom, new_idom, pred)
                if new_idom is not None and idom[block] is not new_idom:
                    idom[block] = new_idom
                    changed = True
        self.idom = idom

    def _intersect(self, idom, a: BasicBlock, b: BasicBlock) -> BasicBlock:
        index = self._rpo_index
        while a is not b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    def _compute_frontiers(self) -> dict[BasicBlock, set[BasicBlock]]:
        frontier: dict[BasicBlock, set[BasicBlock]] = {b: set() for b in self.rpo}
        for block in self.rpo:
            block_preds = [p for p in self.preds[block] if p in self._rpo_index]
            if len(block_preds) < 2:
                continue
            for pred in block_preds:
                runner = pred
                while runner is not self.idom[block] and runner is not None:
                    frontier[runner].add(block)
                    runner = self.idom[runner]
        return frontier

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if ``a`` dominates ``b`` (reflexive)."""
        runner: Optional[BasicBlock] = b
        entry = self.function.entry
        while runner is not None:
            if runner is a:
                return True
            if runner is entry:
                return False
            runner = self.idom.get(runner)
        return False

    def reachable(self) -> set[BasicBlock]:
        return set(self.rpo)


@dataclass
class Loop:
    header: BasicBlock
    blocks: set[BasicBlock] = field(default_factory=set)
    latches: list[BasicBlock] = field(default_factory=list)
    parent: Optional["Loop"] = None
    children: list["Loop"] = field(default_factory=list)

    def ordered(self) -> list:
        """Loop blocks in deterministic (uid) order.  ``blocks`` is a set
        for fast membership; iterate THIS for anything that generates code
        or reports, or results will vary run to run with object identity.
        """
        return sorted(self.blocks, key=lambda b: b.uid)

    @property
    def depth(self) -> int:
        depth = 1
        loop = self.parent
        while loop is not None:
            depth += 1
            loop = loop.parent
        return depth

    def is_innermost(self) -> bool:
        return not self.children

    def exits(self) -> list[tuple[BasicBlock, BasicBlock]]:
        """(inside_block, outside_successor) pairs leaving the loop."""
        result = []
        for block in self.ordered():
            for succ in block.successors():
                if succ not in self.blocks:
                    result.append((block, succ))
        return result

    def __repr__(self) -> str:
        return f"Loop(header={self.header.name}, {len(self.blocks)} blocks)"


def find_loops(function: Function, domtree: Optional[DominatorTree] = None) -> list[Loop]:
    """Natural loops from back edges, nested via containment."""
    domtree = domtree or DominatorTree.of(function)
    preds = domtree.preds
    loops: dict[BasicBlock, Loop] = {}
    for block in domtree.rpo:
        for succ in block.successors():
            if domtree.dominates(succ, block):
                loop = loops.setdefault(succ, Loop(header=succ))
                loop.latches.append(block)
                _collect_loop_body(loop, block, preds)
    all_loops = list(loops.values())
    for loop in all_loops:
        loop.blocks.add(loop.header)
    # Establish nesting: the parent is the smallest strictly-containing loop.
    for loop in all_loops:
        best: Optional[Loop] = None
        for other in all_loops:
            if other is loop:
                continue
            if loop.header in other.blocks and loop.blocks <= other.blocks:
                if best is None or len(other.blocks) < len(best.blocks):
                    best = other
        loop.parent = best
        if best is not None:
            best.children.append(loop)
    return all_loops


def _collect_loop_body(loop: Loop, latch: BasicBlock, preds) -> None:
    stack = [latch]
    while stack:
        block = stack.pop()
        if block in loop.blocks or block is loop.header:
            continue
        loop.blocks.add(block)
        stack.extend(preds.get(block, []))
