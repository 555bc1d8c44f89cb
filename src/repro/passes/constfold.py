"""Constant folding and algebraic simplification (instcombine-lite)."""

from __future__ import annotations

import math

from ..ir import Constant, Function, Instruction, replace_uses
from ..ir.types import BOOL, FloatType, IntType
from ..ir.values import BINARY_OPS, CAST_OPS
from .simplifycfg import remove_unreachable_blocks

_FOLDABLE_OPS = BINARY_OPS | CAST_OPS | {"icmp", "fcmp", "select", "phi"}


def constant_fold(function: Function) -> bool:
    """Fold to a fixpoint (folding one instruction can enable folding its
    users, e.g. icmp -> select -> condbr chains)."""
    changed = False
    for _ in range(64):
        if not _fold_once(function):
            break
        changed = True
    return changed


def _fold_once(function: Function) -> bool:
    # Folded instruction -> its value, which may itself fold this round
    # (y -> x, x -> n): replace_uses rewrites y's users straight to n.
    replacements: dict[Instruction, object] = {}
    for instr in function.instructions():
        folded = _fold(instr)
        if folded is not None:
            replacements[instr] = folded
    replace_uses(function, replacements)
    function.remove_instructions(set(replacements))
    changed = bool(replacements)

    # Fold condbr on constant condition into unconditional branch.
    folded = False
    for block in function.blocks:
        term = block.terminator
        if term is not None and term.op == "condbr" and isinstance(term.operands[0], Constant):
            taken = term.targets[0] if term.operands[0].value else term.targets[1]
            not_taken = term.targets[1] if term.operands[0].value else term.targets[0]
            _remove_phi_edges(not_taken, block)
            term.op = "br"
            term.operands = []
            term.targets = [taken]
            changed = True
            folded = True
    if folded:
        # Folding can orphan whole subgraphs whose blocks still feed phi
        # edges elsewhere; drop them so the IR stays verifier-clean.
        remove_unreachable_blocks(function)
    return changed


def _remove_phi_edges(target, pred) -> None:
    for phi in target.phis():
        while pred in phi.phi_blocks:
            idx = phi.phi_blocks.index(pred)
            del phi.phi_blocks[idx]
            del phi.operands[idx]


_ICMP_FNS = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "slt": lambda a, b: a < b,
    "sle": lambda a, b: a <= b,
    "sgt": lambda a, b: a > b,
    "sge": lambda a, b: a >= b,
    "ult": lambda a, b: a < b,
    "ule": lambda a, b: a <= b,
    "ugt": lambda a, b: a > b,
    "uge": lambda a, b: a >= b,
}

_FCMP_FNS = {
    "oeq": lambda a, b: a == b,
    "one": lambda a, b: a != b,
    "olt": lambda a, b: a < b,
    "ole": lambda a, b: a <= b,
    "ogt": lambda a, b: a > b,
    "oge": lambda a, b: a >= b,
}


def _as_unsigned(value: int, bits: int) -> int:
    return value & ((1 << bits) - 1)


def _fold(instr: Instruction):
    op = instr.op
    if op not in _FOLDABLE_OPS:
        return None
    ops = instr.operands

    if op == "phi":
        distinct = {id(o) for o in ops}
        if len(distinct) == 1 and ops:
            return ops[0]
        non_self = [o for o in ops if o is not instr]
        if non_self and all(o is non_self[0] for o in non_self):
            return non_self[0]
        return None

    if op == "select":
        if isinstance(ops[0], Constant):
            return ops[1] if ops[0].value else ops[2]
        return None

    consts = [o.value for o in ops if isinstance(o, Constant)]
    all_const = len(consts) == len(ops) and ops

    if op in ("icmp", "fcmp"):
        if not all_const:
            return None
        a, b = consts
        if op == "icmp":
            if instr.pred.startswith("u"):
                bits = ops[0].type.bits if isinstance(ops[0].type, IntType) else 64
                a, b = _as_unsigned(a, bits), _as_unsigned(b, bits)
            result = _ICMP_FNS[instr.pred](a, b)
        else:
            result = _FCMP_FNS[instr.pred](a, b)
        return Constant(BOOL, 1 if result else 0)

    if op in CAST_OPS:
        if not all_const:
            return None
        if op in ("zext", "sext", "trunc"):
            return Constant(instr.type, instr.type.wrap(consts[0]))
        if op == "fptosi":
            return Constant(instr.type, instr.type.wrap(int(consts[0])))
        if op in ("ptrtoint", "inttoptr", "bitcast"):
            return Constant(instr.type, consts[0])
        value = float(consts[0])  # sitofp uitofp fpext fptrunc
        if isinstance(instr.type, FloatType) and instr.type.bits == 32:
            value = _to_f32(value)
        return Constant(instr.type, value)

    if all_const and len(ops) == 2:
        return _fold_binary(instr, consts[0], consts[1])

    # Algebraic identities with one constant operand.
    if len(ops) == 2:
        lhs, rhs = ops
        if isinstance(rhs, Constant):
            if op in ("add", "sub", "or", "xor", "shl", "lshr", "ashr") and rhs.value == 0:
                return lhs
            if op == "fadd" and rhs.value == 0.0:
                return lhs
            if op in ("mul",) and rhs.value == 1:
                return lhs
            if op in ("mul", "and") and rhs.value == 0:
                return Constant(instr.type, 0)
            if op in ("sdiv", "udiv") and rhs.value == 1:
                return lhs
            if op == "fmul" and rhs.value == 1.0:
                return lhs
        if isinstance(lhs, Constant):
            if op in ("add", "or", "xor") and lhs.value == 0:
                return rhs
            if op == "mul" and lhs.value == 1:
                return rhs
            if op in ("mul", "and") and lhs.value == 0:
                return Constant(instr.type, 0)
    return None


def _fold_binary(instr: Instruction, a, b):
    op = instr.op
    type_ = instr.type
    try:
        if op == "add":
            return Constant(type_, type_.wrap(a + b))
        if op == "sub":
            return Constant(type_, type_.wrap(a - b))
        if op == "mul":
            return Constant(type_, type_.wrap(a * b))
        if op == "sdiv":
            if b == 0:
                return None
            return Constant(type_, type_.wrap(int(a / b) if (a < 0) != (b < 0) else a // b))
        if op == "udiv":
            if b == 0:
                return None
            bits = type_.bits
            return Constant(type_, type_.wrap(_as_unsigned(a, bits) // _as_unsigned(b, bits)))
        if op == "srem":
            if b == 0:
                return None
            return Constant(type_, type_.wrap(int(math.fmod(a, b))))
        if op == "urem":
            if b == 0:
                return None
            bits = type_.bits
            return Constant(type_, type_.wrap(_as_unsigned(a, bits) % _as_unsigned(b, bits)))
        if op == "fadd":
            return Constant(type_, _maybe_f32(type_, a + b))
        if op == "fsub":
            return Constant(type_, _maybe_f32(type_, a - b))
        if op == "fmul":
            return Constant(type_, _maybe_f32(type_, a * b))
        if op == "fdiv":
            if b == 0:
                return None
            return Constant(type_, _maybe_f32(type_, a / b))
        if op == "shl":
            return Constant(type_, type_.wrap(a << (b % type_.bits)))
        if op == "lshr":
            bits = type_.bits
            return Constant(type_, type_.wrap(_as_unsigned(a, bits) >> (b % bits)))
        if op == "ashr":
            return Constant(type_, type_.wrap(a >> (b % type_.bits)))
        if op == "and":
            return Constant(type_, type_.wrap(a & b))
        if op == "or":
            return Constant(type_, type_.wrap(a | b))
        if op == "xor":
            return Constant(type_, type_.wrap(a ^ b))
    except (OverflowError, ValueError):
        return None
    return None


def _to_f32(value: float) -> float:
    import struct

    return struct.unpack("f", struct.pack("f", value))[0]


def _maybe_f32(type_, value: float) -> float:
    if isinstance(type_, FloatType) and type_.bits == 32:
        return _to_f32(value)
    return value
