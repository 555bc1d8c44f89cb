"""The region tree, executed: the oracle for :mod:`repro.ir.structure`.

:class:`RegionInterpreter` is the reference :class:`Interpreter` with its
block-to-block walk replaced by a walk over ``structure(function)``: the
instructions run through the interpreter's own ``_execute`` rows, only
*which block comes next* is read off the tree — ``If`` arms, ``Loop``
iterations, ``Break`` / ``Continue`` / ``Next``, phis as the parallel copy
of each ``Jump``.  Equal return values, heap bytes and traces (block
counts, branch outcomes, memory events) against the plain interpreter are
what show a tree faithful before any printer is hung on it (``tests/test_structure.py``, the ``structure`` fuzz
target).
"""

from __future__ import annotations

from ..ir.structure import (
    Block,
    Break,
    Continue,
    Dispatch,
    Forward,
    If,
    Jump,
    Loop,
    Next,
    edge_copies,
    structure,
)
from .interp import _MAX_CALL_DEPTH, ExecutionError, Interpreter

_BREAK, _CONTINUE = object(), object()


class RegionInterpreter(Interpreter):
    def __init__(self, *args, trees=None, **kwargs):
        super().__init__(*args, **kwargs)
        #: function -> its region tree; pass one dict to every interpreter
        #: of a run to build each tree once
        self._trees: dict = {} if trees is None else trees

    def _run(self, function, args: list, depth: int):
        if depth > _MAX_CALL_DEPTH:
            raise ExecutionError(f"call depth limit exceeded in {function.name}")
        env = {id(formal): actual for formal, actual in zip(function.args, args)}
        trace = self.trace

        def copy(src, dst):
            copies = edge_copies(src, dst)
            if copies is None:
                trace.block_counts[dst.uid] = trace.block_counts.get(dst.uid, 0) + 1
                raise ExecutionError(
                    f"{function.name}: phi in {dst.name} has no incoming "
                    f"edge from {src.name if src else '<entry>'}"
                )
            values = [self._value(env, value) for _phi, value in copies]
            for (phi, _value), value in zip(copies, values):
                env[id(phi)] = value
            trace.instructions += len(copies)

        def run(stmts):
            """Run a statement list; what ends it early — ``_BREAK``,
            ``_CONTINUE``, a ``Next`` or ``("ret", value)`` — is returned,
            running off its end is ``None``."""
            for stmt in stmts:
                if isinstance(stmt, Block):
                    block = stmt.block
                    trace.block_counts[block.uid] = trace.block_counts.get(block.uid, 0) + 1
                    for instr in block.non_phis():
                        trace.instructions += 1
                        if instr.op in ("br", "condbr"):
                            break
                        if instr.op == "ret":
                            operands = instr.operands
                            return ("ret", self._value(env, operands[0]) if operands else None)
                        if instr.op == "unreachable":
                            raise ExecutionError(f"reached unreachable in {function.name}")
                        env[id(instr)] = self._execute(function, env, instr, depth)
                    else:
                        raise ExecutionError(f"{function.name}: block {block.name} fell through")
                    continue
                if isinstance(stmt, Jump):
                    copy(stmt.src, stmt.dst)
                    continue
                if isinstance(stmt, If):
                    branch = stmt.block.terminator
                    cond = self._value(env, branch.operands[0])
                    stats = trace.branch_stats.setdefault(branch.uid, [0, 0])
                    stats[0] += 1 if cond else 0
                    stats[1] += 1
                    signal = run(stmt.then if cond else stmt.orelse)
                elif isinstance(stmt, Loop):
                    signal = run(stmt.body)
                    while signal is None or signal is _CONTINUE:
                        signal = run(stmt.body)
                    if signal is _BREAK:
                        continue
                elif isinstance(stmt, Forward):
                    signal = Next(stmt.members[0][0])
                    for block, arm in stmt.members:
                        if isinstance(signal, Next) and signal.dst is block:
                            signal = run(arm)
                elif isinstance(stmt, Dispatch):
                    arms = dict(stmt.members)
                    signal = Next(stmt.members[0][0])
                    while isinstance(signal, Next) and signal.dst in arms:
                        signal = run(arms[signal.dst])
                    if signal is _BREAK:
                        continue
                else:
                    return {Break: _BREAK, Continue: _CONTINUE}.get(type(stmt), stmt)
                if signal is not None:
                    return signal
            return None

        copy(None, function.entry)
        tree = self._trees.get(function)
        if tree is None:
            tree = self._trees[function] = structure(function)
        signal = run(tree)
        if type(signal) is tuple:
            return signal[1]
        raise ExecutionError(f"{function.name}: region tree ended without ret ({signal!r})")
