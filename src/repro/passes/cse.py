"""Dominator-scoped common subexpression elimination.

Walks the dominator tree with a scoped hash table of available pure
expressions (the paper leans on classical sub-expression elimination to
keep SVM translation arithmetic from being recomputed; PTROPT then removes
the remaining translations).  Loads are *not* CSE'd — we have no alias
analysis for arbitrary pointer programs, so only arithmetic, casts, geps,
comparisons, selects and pure intrinsic calls participate.
"""

from __future__ import annotations

from typing import Optional

from ..ir import Constant, DominatorTree, Function, Instruction, replace_uses
from ..ir.values import COMMUTATIVE_OPS, BINARY_OPS, CAST_OPS


def common_subexpression_elimination(function: Function) -> bool:
    if not function.blocks:
        return False
    domtree = DominatorTree.of(function)
    #: eliminated instruction -> the available one that stands in for it;
    #: operands are read through it, applied to the function once at the end
    replaced: dict[Instruction, Instruction] = {}

    def value_key(value):
        if isinstance(value, Constant):
            return ("const", value.type, value.value)
        if isinstance(value, Instruction):
            return ("instr", replaced.get(value, value).uid)
        name = getattr(value, "name", None)
        if name is not None:
            return ("named", type(value).__name__, name)
        return None

    def key_of(instr: Instruction) -> Optional[tuple]:
        op = instr.op
        if op in BINARY_OPS or op in ("icmp", "fcmp", "select"):
            ids = [value_key(v) for v in instr.operands]
            if None in ids:
                return None
            if op in COMMUTATIVE_OPS or (
                op == "icmp" and instr.pred in ("eq", "ne")
            ):
                ids = sorted(ids)
            return (op, instr.pred, instr.type, tuple(ids))
        if op in CAST_OPS:
            k = value_key(instr.operands[0])
            return None if k is None else (op, instr.type, k)
        if op == "gep":
            ids = [value_key(v) for v in instr.operands]
            if None in ids:
                return None
            return (
                "gep",
                instr.type,
                instr.gep_offset,
                tuple(instr.gep_scales),
                tuple(ids),
            )
        if op == "call" and instr.callee is not None and not instr.has_side_effects:
            ids = [value_key(v) for v in instr.operands]
            if None in ids:
                return None
            return ("call", instr.callee.name, tuple(ids))
        return None

    # One table holds the expressions available on the path from the entry.
    # A block only ever adds keys that were absent, so leaving its subtree
    # is deleting the keys it added.
    available: dict[tuple, Instruction] = {}
    scopes: list[list] = []
    for block, entering in domtree.walk():
        if not entering:
            for key in scopes.pop():
                del available[key]
            continue
        added: list = []
        scopes.append(added)
        for instr in block.instructions:
            key = key_of(instr)
            if key is None:
                continue
            existing = available.get(key)
            if existing is not None:
                replaced[instr] = existing
            else:
                available[key] = instr
                added.append(key)

    replace_uses(function, replaced)
    function.remove_instructions(set(replaced))
    return bool(replaced)
