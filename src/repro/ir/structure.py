"""The region tree of a function's CFG: control flow a structured language
can spell.

:func:`structure` turns the reachable CFG into nested statement lists over
seven node kinds — what a printer for a language with ``if``/``else``,
``while True``/``break``/``continue`` and no ``goto`` needs, with the phis
already off the blocks and onto the edges:

``Block(block)``
    run the block's non-phi instructions up to its terminator.  A ``ret``,
    ``unreachable`` or missing terminator ends the path there; a ``br`` is
    the ``Jump`` that follows, a ``condbr`` the ``If``.
``Jump(src, dst)``
    take the CFG edge: ``dst``'s phis receive their ``src`` values as one
    parallel copy (:func:`edge_copies`).  Where control goes next is the
    node after it — nothing (fall through into what follows), ``Break``,
    ``Continue``, ``Next`` (a member of an enclosing ``Forward`` or
    ``Dispatch``), or ``dst``'s own tree inlined in place.
``If(block, then, orelse)``
    ``block``'s ``condbr``; each arm starts with its edge's ``Jump``.
``Loop(header, body)``
    ``while True``: falling off the body or ``Continue`` re-enters the
    header, ``Break`` leaves to whatever follows the loop.
``Forward(members)``
    a merge some path skips (short-circuit ``&&`` / ``||``): the first
    member runs, then the later members in order, each only if the one
    before it ended in ``Next(that member)``.  A member that ends any other
    way — running off its end included — leaves the region, so ``Break``
    and ``Continue`` inside one still mean the enclosing ``Loop``.
``Dispatch(members)``
    the fallback, a state machine: ``while True`` over a state variable
    with one arm per member block, entered at the first.  ``Next(dst)``
    selects the next member, ``Break`` leaves the region.  Members are
    flat — a block and its terminator's jumps, with a block whose only
    predecessor jumps to it unconditionally carried in that predecessor's
    arm — so every edge among them is expressible.

The builder walks the dominator tree (the scheme of Ramsey's *Beyond
Relooper*, cut down to single-level exits): a block with one forward
predecessor is inlined at that edge, a merge block is placed after the
construct of its immediate dominator (several of them as one ``Forward``
region), a natural loop becomes a ``Loop`` whose one non-inlinable exit
target is its follow.  Whenever an edge
cannot be spelled that way — an irreducible entry, a jump past the next
merge block, a second loop exit, ``break`` out of two loops — or the
nesting would pass what CPython compiles (:data:`MAX_DEPTH` indentation
levels, :data:`MAX_LOOPS` nested loops), the smallest dominator subtree
whose exits *are* expressible becomes one ``Dispatch`` region; the entry
block's subtree always qualifies, so the builder is total.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .cfg import DominatorTree, find_loops
from .values import BasicBlock, Function

#: Structured constructs stop nesting here.  CPython's tokenizer refuses
#: more than 100 indentation levels and its compiler more than 20
#: statically nested blocks; the margins are what a dispatch region (a
#: ``while``, a binary search over the state, one ``if``) and the widest
#: instruction template still need below the deepest structured statement.
MAX_DEPTH = 60
MAX_LOOPS = 16


class _Node:
    """A statement of the tree: the fields named by ``__slots__``, given
    in that order (``typing.NamedTuple`` would do, at ten times the
    import cost)."""

    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields):
            setattr(self, name, value)

    def __repr__(self) -> str:
        fields = ", ".join(repr(getattr(self, name)) for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Block(_Node):
    __slots__ = ("block",)


class Jump(_Node):
    __slots__ = ("src", "dst")


class If(_Node):
    __slots__ = ("block", "then", "orelse")


class Loop(_Node):
    __slots__ = ("header", "body")


class Forward(_Node):
    __slots__ = ("members",)  # [(block, statements)]; the first always runs


class Dispatch(_Node):
    __slots__ = ("members",)  # [(block, statements)]; the first is the entry


class Next(_Node):
    __slots__ = ("dst",)


class Break(_Node):
    __slots__ = ()


class Continue(_Node):
    __slots__ = ()


def edge_copies(src: Optional[BasicBlock], dst: BasicBlock):
    """The parallel copy on the edge ``src -> dst``: ``[(phi, value)]`` for
    every phi of ``dst``, or ``None`` when one of them has no incoming
    value for ``src`` (taking the edge is then an error).  ``src`` is
    ``None`` for the function's entry."""
    copies = []
    for phi in dst.phis():
        for value, pred in zip(phi.operands, phi.phi_blocks):
            if pred is src:
                copies.append((phi, value))
                break
        else:
            return None
    return copies


def flat(blocks, successors) -> list:
    """The degenerate tree: one dispatch region over ``blocks`` (entry
    first), ``successors(block)`` giving each one's branch targets.  Total
    over any graph, which is what makes it the fallback."""
    members = set(blocks)
    preds: dict = {}
    for block in blocks:
        for succ in successors(block):
            preds.setdefault(succ, []).append(block)

    def chained(src, dst) -> bool:
        return (
            dst in members
            and dst is not blocks[0]
            and preds[dst] == [src]
            and len(successors(src)) == 1
        )

    def arm(block) -> list:
        stmts = [Block(block)]
        targets = successors(block)
        while len(targets) == 1 and chained(block, targets[0]):
            stmts.append(Jump(block, targets[0]))
            block = targets[0]
            stmts.append(Block(block))
            targets = successors(block)
        jumps = [
            [Jump(block, t), Next(t) if t in members else Break()] for t in targets
        ]
        if len(jumps) == 1:
            stmts += jumps[0]
        elif jumps:
            stmts.append(If(block, jumps[0], jumps[1]))
        return stmts

    heads = [
        b
        for b in blocks
        if not (len(preds.get(b, ())) == 1 and chained(preds[b][0], b))
    ]
    return [Dispatch([(block, arm(block)) for block in heads])]


class _Unstructured(Exception):
    """An edge the structured vocabulary cannot spell from where it is."""


class _Ctx(NamedTuple):
    fall: Optional[BasicBlock]  # reached by running off the statement list
    brk: Optional[BasicBlock]  # reached by ``break``
    cont: Optional[BasicBlock]  # reached by ``continue``
    pending: tuple  # later members of the enclosing forward regions
    depth: int
    loops: int


class _Builder:
    def __init__(self, function: Function):
        self.dom = dom = DominatorTree(function)
        self.index = {block: i for i, block in enumerate(dom.rpo)}
        self.loops = {loop.header: loop for loop in find_loops(function, dom)}
        #: innermost natural loop around each block
        self.scope: dict = {}
        for loop in sorted(self.loops.values(), key=lambda l: -len(l.blocks)):
            for block in loop.blocks:
                self.scope[block] = loop
        #: in-edges that are not back edges
        self.forward: dict = {block: 0 for block in dom.rpo}
        for block in dom.rpo:
            for succ in block.successors():
                if not dom.dominates(succ, block):
                    self.forward[succ] += 1

    # -- structured ---------------------------------------------------------

    def tree(self, block, ctx: _Ctx) -> list:
        """``block`` and everything it dominates that no enclosing
        construct places, ending where ``ctx`` says control may go."""
        try:
            if ctx.depth > MAX_DEPTH or ctx.loops > MAX_LOOPS:
                raise _Unstructured
            if block in self.loops:
                return self.loop(block, ctx)
            return self.node(block, ctx)
        except _Unstructured:
            return self.dispatch(block, ctx)

    def loop(self, header, ctx: _Ctx) -> list:
        loop = self.loops[header]
        # (a natural loop's body may hold blocks nothing reaches)
        exits = [(src, dst) for src, dst in loop.exits() if src in self.index]
        targets = list(dict.fromkeys(dst for _src, dst in exits))
        # ``break`` reaches one block.  An exit target that merges paths
        # or is where the context already goes has to be it; otherwise
        # every target can sit inside the body, and the follow is where
        # their subtrees all go on to (or, when they all end in ``ret``,
        # the target of the header's own exit, to keep the nesting flat).
        pinned = [
            t
            for t in targets
            if t in (ctx.fall, ctx.brk, ctx.cont, *ctx.pending)
            or self.forward[t] != 1
            or self.dom.idom[t] not in loop.blocks
        ]
        if not pinned:
            pinned = list(dict.fromkeys(o for t in targets for o in self.escapes(t)))
        if len(pinned) > 1:
            raise _Unstructured
        if pinned:
            follow = pinned[0]
        else:
            follow = next((dst for src, dst in exits if src is header), None)
            if follow is None and targets:
                follow = targets[0]
        inner = _Ctx(header, follow, header, (), ctx.depth + 1, ctx.loops + 1)
        stmts = [Loop(header, self.node(header, inner))]
        if follow is None:
            return stmts
        if follow in (ctx.fall, ctx.brk, ctx.cont, *ctx.pending):
            return stmts + self.reach(follow, ctx)
        if self.dom.idom[follow] in loop.blocks:
            return stmts + self.tree(follow, ctx)
        raise _Unstructured

    def node(self, block, ctx: _Ctx) -> list:
        scope = self.scope.get(block)
        merges = sorted(
            (
                child
                for child in self.dom.children[block]
                if self.forward[child] > 1
                and (scope is None or child in scope.blocks)
            ),
            key=self.index.__getitem__,
        )
        if len(merges) > 1:
            # Short-circuit conditions: some path skips a merge block.
            inner = ctx._replace(depth=ctx.depth + 1)
            members = [(block, self.ending(block, inner, merges))]
            for at, merge in enumerate(merges, start=1):
                later = tuple(merges[at:]) + ctx.pending
                members.append((merge, self.tree(merge, inner._replace(pending=later))))
            return [Forward(members)]
        if merges:
            # The arms are not the end of this list: what it may name as
            # next does not carry into them.
            return self.ending(block, ctx._replace(fall=merges[0], pending=())) + (
                self.tree(merges[0], ctx)
            )
        return self.ending(block, ctx)

    def ending(self, block, ctx: _Ctx, merges=()) -> list:
        ctx = ctx._replace(pending=tuple(merges) + ctx.pending)
        return [Block(block)] + self.terminator(block, ctx)

    def terminator(self, block, ctx: _Ctx) -> list:
        targets = block.successors()
        if len(targets) == 1:
            return [Jump(block, targets[0])] + self.reach(targets[0], ctx, block)
        if len(targets) == 2:
            inner = ctx._replace(depth=ctx.depth + 1)
            arms = [
                [Jump(block, target)] + self.reach(target, inner, block)
                for target in targets
            ]
            return [If(block, arms[0], arms[1])]
        return []

    def reach(self, target, ctx: _Ctx, src=None) -> list:
        """Get to ``target`` from the end of the current statement list:
        by one of the ways the context offers, or — for a block whose one
        way in is this edge — by putting its tree right here."""
        if target is ctx.fall:
            return []
        if target is ctx.cont:
            return [Continue()]
        if target is ctx.brk:
            return [Break()]
        if target in ctx.pending:
            return [Next(target)]
        if self.forward[target] == 1 and self.dom.idom[target] is src:
            return self.tree(target, ctx)
        raise _Unstructured

    def escapes(self, block) -> list:
        """Where paths from ``block`` leave its dominator subtree (empty
        when they all end in ``ret`` or a trap inside it)."""
        members = self.subtree(block)
        inside = set(members)
        return [s for m in members for s in m.successors() if s not in inside]

    def subtree(self, block) -> list:
        """The blocks ``block`` dominates, in reverse post-order."""
        found = []
        stack = [block]
        while stack:
            current = stack.pop()
            found.append(current)
            stack.extend(self.dom.children[current])
        return sorted(found, key=self.index.__getitem__)

    # -- fallback -------------------------------------------------------------

    def dispatch(self, block, ctx: _Ctx) -> list:
        """The dominator subtree of ``block`` as one flat region; its
        exits must all be where falling out of the region goes."""
        if ctx.depth > MAX_DEPTH or ctx.loops > MAX_LOOPS:
            raise _Unstructured
        members = self.subtree(block)
        inside = set(members)
        for member in members:
            for succ in member.successors():
                if succ not in inside and succ is not ctx.fall:
                    raise _Unstructured
        return flat(members, BasicBlock.successors)


def structure(function: Function) -> list:
    """The region tree of ``function``'s reachable CFG as a statement
    list (see the module docstring).  Follows ``BasicBlock.successors``,
    like every analysis in :mod:`repro.ir.cfg`."""
    builder = _Builder(function)
    return builder.tree(function.entry, _Ctx(None, None, None, (), 0, 0))


def dispatched(stmts) -> set:
    """The blocks of ``stmts`` that sit inside a dispatch region."""
    found: set = set()

    def walk(stmts, inside: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, Block) and inside:
                found.add(stmt.block)
            elif isinstance(stmt, If):
                walk(stmt.then, inside)
                walk(stmt.orelse, inside)
            elif isinstance(stmt, Loop):
                walk(stmt.body, inside)
            elif isinstance(stmt, Forward):
                for _block, arm in stmt.members:
                    walk(arm, inside)
            elif isinstance(stmt, Dispatch):
                for _block, arm in stmt.members:
                    walk(arm, True)

    walk(stmts, False)
    return found
