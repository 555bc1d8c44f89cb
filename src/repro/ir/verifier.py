"""IR structural verifier.

Run after the frontend and between passes in debug/test configurations to
catch malformed IR early: missing terminators, phi/predecessor mismatches,
type errors on memory ops, uses that do not dominate definitions (only
checked for SSA-form functions, i.e. those without allocas of promoted
scalars), and dangling block references.
"""

from __future__ import annotations

from .cfg import DominatorTree
from .types import IntType, PointerType, VoidType
from .values import TERMINATOR_OPS, Function, Instruction, Module


class VerificationError(Exception):
    pass


def verify_module(module: Module) -> None:
    for function in module.functions.values():
        if function.blocks:
            verify_function(function)


#: ops that must keep ``loc`` metadata in functions lowered from source
#: (``attributes["source_locs"]``) — the profiler's attribution anchors.
_LOC_REQUIRED_OPS = frozenset({"load", "store", "call", "vcall"})
_TYPE_CHECKED_OPS = frozenset({"load", "store", "condbr", "br", "ret", "gep"})


def verify_function(function: Function) -> None:
    blocks = set(function.blocks)
    defined: dict[Instruction, int] = {}  # every instruction -> index in its block
    has_locs = bool(function.attributes.get("source_locs"))
    for block in function.blocks:
        if block.terminator is None:
            raise VerificationError(
                f"{function.name}: block {block.name} has no terminator"
            )
        last = len(block.instructions) - 1
        for idx, instr in enumerate(block.instructions):
            if instr.op in TERMINATOR_OPS and idx != last:
                raise VerificationError(
                    f"{function.name}: terminator {instr.op} not at end of {block.name}"
                )
            if instr.op == "phi" and idx and block.instructions[idx - 1].op != "phi":
                raise VerificationError(
                    f"{function.name}: phi not grouped at head of {block.name}"
                )
            for target in instr.targets:
                if target not in blocks:
                    raise VerificationError(
                        f"{function.name}: {block.name} branches to removed block "
                        f"{target.name}"
                    )
            if instr.op in _TYPE_CHECKED_OPS:
                _check_types(function, instr)
            if has_locs and instr.op in _LOC_REQUIRED_OPS and instr.loc is None:
                raise VerificationError(
                    f"{function.name}: {instr.op} in {block.name} lost its "
                    f"source location (function is marked source_locs)"
                )
            defined[instr] = idx

    # Every target is a live block (checked above), which is all the tree
    # needs; it is the one the passes share while the CFG keeps its shape.
    domtree = DominatorTree.of(function)
    for block in function.blocks:
        expected = domtree.preds[block]
        for phi in block.phis():
            if not phi.operands:
                raise VerificationError(
                    f"{function.name}: phi in {block.name} has no incoming values"
                )
            if len(phi.operands) != len(phi.phi_blocks):
                raise VerificationError(
                    f"{function.name}: phi operand/block arity mismatch in {block.name}"
                )
            # One entry per predecessor block.  A block reached twice by the
            # same condbr (both targets equal) still lists that predecessor
            # once; duplicate entries would make the incoming value
            # ambiguous (the engines take the first match).
            if len(set(phi.phi_blocks)) != len(phi.phi_blocks):
                dupes = sorted(
                    b.name
                    for b in set(phi.phi_blocks)
                    if phi.phi_blocks.count(b) > 1
                )
                raise VerificationError(
                    f"{function.name}: phi in {block.name} lists incoming "
                    f"block(s) {dupes} more than once"
                )
            incoming = set(phi.phi_blocks)
            if incoming != set(expected):
                names = sorted(b.name for b in incoming)
                want = sorted(set(b.name for b in expected))
                raise VerificationError(
                    f"{function.name}: phi in {block.name} has incoming {names}, "
                    f"preds are {want}"
                )

    _check_dominance(function, defined, domtree)


def _check_types(function: Function, instr: Instruction) -> None:
    if instr.op == "load":
        ptr = instr.operands[0]
        if not isinstance(ptr.type, PointerType):
            raise VerificationError(
                f"{function.name}: load from non-pointer in {instr!r}"
            )
    elif instr.op == "store":
        ptr = instr.operands[1]
        if not isinstance(ptr.type, PointerType):
            raise VerificationError(
                f"{function.name}: store to non-pointer in {instr!r}"
            )
        value = instr.operands[0]
        pointee = ptr.type.pointee
        if not isinstance(pointee, VoidType) and value.type.size() != pointee.size():
            raise VerificationError(
                f"{function.name}: store of {value.type} ({value.type.size()}B) "
                f"through pointer to {pointee} ({pointee.size()}B) in {instr!r}"
            )
    elif instr.op == "condbr":
        if len(instr.targets) != 2:
            raise VerificationError(f"{function.name}: condbr needs two targets")
        cond = instr.operands[0]
        if not isinstance(cond.type, IntType):
            raise VerificationError(
                f"{function.name}: condbr condition has non-integer type "
                f"{cond.type}"
            )
    elif instr.op == "br":
        if len(instr.targets) != 1:
            raise VerificationError(f"{function.name}: br needs exactly one target")
    elif instr.op == "ret":
        wants_value = not isinstance(function.return_type, VoidType)
        if wants_value and not instr.operands:
            raise VerificationError(
                f"{function.name}: ret without value in non-void function"
            )
        if not wants_value and instr.operands:
            raise VerificationError(
                f"{function.name}: ret with value in void function"
            )
    elif instr.op == "gep":
        if len(instr.gep_scales) != len(instr.operands) - 1:
            raise VerificationError(
                f"{function.name}: gep scale/operand arity mismatch"
            )


def _check_dominance(
    function: Function, defined: dict[Instruction, int], domtree: DominatorTree
) -> None:
    reachable = domtree.reachable()
    for block in function.blocks:
        if block not in reachable:
            continue
        for instr in block.instructions:
            operands = instr.operands
            for op_index, operand in enumerate(operands):
                if not isinstance(operand, Instruction):
                    continue
                if operand not in defined:
                    raise VerificationError(
                        f"{function.name}: {instr!r} uses value from removed "
                        f"instruction {operand.op}"
                    )
                def_block = operand.block
                if def_block is None or def_block not in reachable:
                    continue
                if instr.op == "phi":
                    incoming = instr.phi_blocks[op_index]
                    if not domtree.dominates(def_block, incoming):
                        raise VerificationError(
                            f"{function.name}: phi incoming value does not dominate "
                            f"edge from {incoming.name}"
                        )
                    continue
                if def_block is instr.block:
                    if defined[operand] >= defined[instr]:
                        raise VerificationError(
                            f"{function.name}: use before def of {operand.op} "
                            f"in {block.name}"
                        )
                elif not domtree.dominates(def_block, instr.block):
                    raise VerificationError(
                        f"{function.name}: def in {def_block.name} does not dominate "
                        f"use in {block.name} ({instr!r})"
                    )
