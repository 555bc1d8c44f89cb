"""Values, instructions, basic blocks, functions and modules of the IR.

The IR is SSA after the ``mem2reg`` pass: every instruction defines at most
one value, control flow is explicit through terminators, and ``phi``
instructions merge values at join points.  The frontend initially emits
``alloca``/``load``/``store`` for local variables (pre-SSA form), exactly as
CLANG does at -O0, and the pass pipeline promotes them.

Instruction opcodes
-------------------
Arithmetic      add sub mul sdiv udiv fadd fsub fmul fdiv srem urem
Bitwise         shl lshr ashr and or xor
Comparison      icmp (eq ne slt sle sgt sge ult ule ugt uge)
                fcmp (oeq one olt ole ogt oge)
Conversions     zext sext trunc sitofp uitofp fptosi fpext fptrunc
                bitcast ptrtoint inttoptr
Memory          alloca load store gep
Control         br condbr ret select phi unreachable
Calls           call vcall (virtual, expanded by the devirt pass)
Intrinsics      modelled as calls to ``Intrinsic`` callees; see
                :mod:`repro.ir.intrinsics`.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional

from .types import (
    BOOL,
    FunctionType,
    I64,
    IntType,
    PointerType,
    Type,
    VOID,
)

ICMP_PREDS = ("eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge")
FCMP_PREDS = ("oeq", "one", "olt", "ole", "ogt", "oge")

BINARY_OPS = frozenset(
    "add sub mul sdiv udiv fadd fsub fmul fdiv srem urem "
    "shl lshr ashr and or xor".split()
)
CAST_OPS = frozenset(
    "zext sext trunc sitofp uitofp fptosi fpext fptrunc "
    "bitcast ptrtoint inttoptr".split()
)
TERMINATOR_OPS = frozenset(("br", "condbr", "ret", "unreachable"))
# Binary ops that commute; used by CSE/constant folding for canonicalization.
COMMUTATIVE_OPS = frozenset("add mul fadd fmul and or xor".split())


class Value:
    """Anything usable as an instruction operand."""

    type: Type

    def short(self) -> str:
        raise NotImplementedError


class Constant(Value):
    """An immediate constant (int/float/bool/null pointer)."""

    __slots__ = ("type", "value")

    def __init__(self, type_: Type, value):
        self.type = type_
        self.value = value

    def short(self) -> str:
        return f"{self.type} {self.value}"

    def __repr__(self) -> str:
        return f"Constant({self.value}: {self.type})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Constant)
            and other.type == self.type
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.type, self.value))


def const_int(value: int, type_: IntType = I64) -> Constant:
    return Constant(type_, type_.wrap(value))


def const_bool(value: bool) -> Constant:
    return Constant(BOOL, 1 if value else 0)


def null(type_: PointerType) -> Constant:
    return Constant(type_, 0)


class Argument(Value):
    __slots__ = ("type", "name", "function")

    def __init__(self, type_: Type, name: str, function: "Function"):
        self.type = type_
        self.name = name
        self.function = function

    def short(self) -> str:
        return f"{self.type} %{self.name}"

    def __repr__(self) -> str:
        return f"Argument(%{self.name}: {self.type})"


class GlobalVariable(Value):
    """A module-level variable placed in the SVM shared region at link time.

    A runtime that loads the program gives every global an address in its
    own region (the paper moves vtables and shared global symbols into
    the shared region; we do the same for every global) and keeps it in
    ``ConcordRuntime.global_addresses``: one program object serves many
    runtimes.  ``address`` stays ``None``; the slot is kept so stored
    programs keep their bytes.
    """

    __slots__ = ("type", "name", "value_type", "initializer", "address")

    def __init__(self, name: str, value_type: Type, initializer=None):
        self.name = name
        self.value_type = value_type
        self.type = PointerType(value_type)
        self.initializer = initializer
        self.address: Optional[int] = None

    def short(self) -> str:
        return f"{self.type} @{self.name}"

    def __repr__(self) -> str:
        return f"GlobalVariable(@{self.name}: {self.value_type})"


class Instruction(Value):
    """A single IR instruction.

    ``operands`` is the list of :class:`Value` inputs.  Extra static
    information (icmp predicate, gep scales, callee, phi incoming
    blocks) lives in dedicated attributes so operand iteration stays
    uniform for the passes.
    """

    _ids = itertools.count()

    __slots__ = (
        "op",
        "type",
        "operands",
        "name",
        "block",
        "pred",
        "alloc_type",
        "callee",
        "gep_offset",
        "gep_scales",
        "phi_blocks",
        "targets",
        "vslot",
        "vclass",
        "uid",
        "annotations",
        "loc",
    )

    def __init__(self, op: str, type_: Type, operands: list[Value], name: str = ""):
        self.op = op
        self.type = type_
        self.operands = list(operands)
        self.name = name
        self.block: Optional[BasicBlock] = None
        self.pred: Optional[str] = None  # icmp/fcmp predicate
        self.alloc_type: Optional[Type] = None  # alloca
        self.callee = None  # call: Function or Intrinsic
        self.gep_offset: int = 0  # gep: constant byte offset
        self.gep_scales: list[int] = []  # gep: byte scale per index operand
        self.phi_blocks: list[BasicBlock] = []  # phi: incoming block per operand
        self.targets: list[BasicBlock] = []  # br/condbr successor blocks
        self.vslot: Optional[int] = None  # vcall: vtable slot index
        self.vclass = None  # vcall: static class (sema ClassInfo)
        self.uid = next(Instruction._ids)
        self.annotations: dict = {}
        # Source location: tuple of (line, col) frames, innermost first.
        # Inlining appends the call site's frames, so an instruction carries
        # its whole call chain (the LLVM debug-info "inlinedAt" shape).
        self.loc: Optional[tuple] = None

    # -- structural helpers ----------------------------------------------

    @property
    def is_terminator(self) -> bool:
        return self.op in TERMINATOR_OPS

    @property
    def has_side_effects(self) -> bool:
        if self.op in ("store", "vcall"):
            return True
        if self.op == "call":
            callee = self.callee
            if callee is None:
                return True
            return getattr(callee, "has_side_effects", True)
        return self.is_terminator

    def replace_uses_of(self, old: Value, new: Value) -> None:
        """Rewrite this one instruction.  To retire values from a whole
        function, collect them and call :func:`replace_uses` once."""
        self.operands = [new if v is old else v for v in self.operands]

    def successors(self) -> list["BasicBlock"]:
        return list(self.targets)

    def short(self) -> str:
        if self.type is VOID or isinstance(self.type, type(VOID)):
            return self.op
        return f"{self.type} %{self.name or self.uid}"

    def __repr__(self) -> str:
        from .printer import format_instruction

        return format_instruction(self)


class BasicBlock:
    _ids = itertools.count()

    def __init__(self, name: str, function: "Function"):
        self.name = name
        self.function = function
        self.instructions: list[Instruction] = []
        self.uid = next(BasicBlock._ids)

    def append(self, instr: Instruction) -> Instruction:
        instr.block = self
        self.instructions.append(instr)
        return instr

    def insert(self, index: int, instr: Instruction) -> Instruction:
        instr.block = self
        self.instructions.insert(index, instr)
        return instr

    def remove(self, instr: Instruction) -> None:
        self.instructions.remove(instr)
        instr.block = None

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successors(self) -> list["BasicBlock"]:
        term = self.terminator
        return term.successors() if term else []

    def phis(self) -> list[Instruction]:
        return [i for i in self.instructions if i.op == "phi"]

    def non_phis(self) -> list[Instruction]:
        return [i for i in self.instructions if i.op != "phi"]

    def first_non_phi_index(self) -> int:
        for idx, instr in enumerate(self.instructions):
            if instr.op != "phi":
                return idx
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"BasicBlock({self.name})"


class Function:
    """An IR function: arguments plus a list of basic blocks.

    ``attributes`` carries frontend facts the passes and the runtime
    need: ``kernel`` (device entry point), ``device`` (callable from
    device code), ``body_class`` (the mangled Body class of a kernel),
    ``construct`` ('for'/'reduce'), and restriction-check verdicts.
    """

    def __init__(self, name: str, ftype: FunctionType, param_names: Iterable[str] = ()):
        self.name = name
        self.ftype = ftype
        names = list(param_names) or [f"arg{i}" for i in range(len(ftype.params))]
        self.args = [Argument(t, n, self) for t, n in zip(ftype.params, names)]
        self.blocks: list[BasicBlock] = []
        self.attributes: dict = {}
        self.module: Optional[Module] = None

    #: the tree ``DominatorTree.of`` keeps here; derived, so never pickled
    domtree = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("domtree", None)
        return state

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    @property
    def return_type(self) -> Type:
        return self.ftype.ret

    def new_block(self, name: str) -> BasicBlock:
        block = BasicBlock(_unique_name(name, {b.name for b in self.blocks}), self)
        self.blocks.append(block)
        return block

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def remove_block(self, block: BasicBlock) -> None:
        self.blocks.remove(block)

    def remove_instructions(self, dead: set) -> None:
        """Detach every instruction in ``dead`` in one pass over the blocks
        (``BasicBlock.remove`` scans its list once per instruction)."""
        if not dead:
            return
        for block in self.blocks:
            block.instructions[:] = [i for i in block.instructions if i not in dead]
        for instr in dead:
            instr.block = None

    def compute_preds(self) -> dict[BasicBlock, list[BasicBlock]]:
        preds: dict[BasicBlock, list[BasicBlock]] = {b: [] for b in self.blocks}
        for block in self.blocks:
            for succ in block.successors():
                preds[succ].append(block)
        return preds

    def __repr__(self) -> str:
        return f"Function(@{self.name}, {len(self.blocks)} blocks)"


class Intrinsic:
    """A runtime/device intrinsic callable from IR (not itself IR).

    ``has_side_effects`` drives DCE/CSE; e.g. ``svm.to_gpu`` is pure and
    freely removable, while ``atomic.add`` is not.
    """

    def __init__(self, name: str, ftype: FunctionType, has_side_effects: bool):
        self.name = name
        self.ftype = ftype
        self.has_side_effects = has_side_effects

    @property
    def return_type(self) -> Type:
        return self.ftype.ret

    def __repr__(self) -> str:
        return f"Intrinsic({self.name})"


class Module:
    """A compilation unit: functions, globals, vtables and named structs."""

    def __init__(self, name: str = "module"):
        self.name = name
        #: original source text when lowered from MiniC++ (line profiler
        #: uses it to print source excerpts); empty for hand-built IR.
        self.source_text: str = ""
        self.functions: dict[str, Function] = {}
        self.globals: dict[str, GlobalVariable] = {}
        self.structs: dict[str, Type] = {}
        # vtables: mangled class name -> list of Function (slot order);
        # materialized into globals in the shared region at load time.
        self.vtables: dict[str, list[Function]] = {}

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise ValueError(f"duplicate function {function.name}")
        function.module = self
        self.functions[function.name] = function
        return function

    def add_global(self, gvar: GlobalVariable) -> GlobalVariable:
        if gvar.name in self.globals:
            raise ValueError(f"duplicate global {gvar.name}")
        self.globals[gvar.name] = gvar
        return gvar

    def kernels(self) -> list[Function]:
        return [f for f in self.functions.values() if f.attributes.get("kernel")]

    def __repr__(self) -> str:
        return f"Module({self.name}, {len(self.functions)} functions)"


def resolve(mapping: dict, value):
    """``value`` followed through ``mapping`` (old value -> replacement,
    keyed by instructions and arguments) to the end of its chain.  A cycle —
    phis that only feed each other — stops where the walk would repeat."""
    seen: set[int] = set()
    while not isinstance(value, Constant) and value in mapping and id(value) not in seen:
        seen.add(id(value))
        value = mapping[value]
    return value


def replace_uses(function: Function, mapping: dict) -> None:
    """Rewrite every operand in ``function`` that is a key of ``mapping``
    to the end of its replacement chain, in one walk over the operands.

    This is how a pass retires values: it records ``old -> new`` while it
    scans (``new`` may itself be retired later — chains are followed to
    their end) and calls this once, instead of sweeping the function per
    value.  Operands are matched by identity, as ``replace_uses_of`` does.
    """
    if not mapping:
        return
    ends = {id(old): resolve(mapping, old) for old in mapping}
    for block in function.blocks:
        for instr in block.instructions:
            operands = instr.operands
            for value in operands:
                if id(value) in ends:
                    instr.operands = [ends.get(id(v), v) for v in operands]
                    break


def _unique_name(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    for i in itertools.count(1):
        candidate = f"{base}.{i}"
        if candidate not in taken:
            return candidate
    raise AssertionError("unreachable")
