"""Threaded-code execution engine: IR compiled once to Python closures.

The reference :class:`~repro.exec.interp.Interpreter` re-walks the IR
object graph for every work-item: string-compared opcode dispatch,
``dict[id(instr)]`` environments, a ``phi_blocks.index(prev_block)`` scan
per phi per block entry, and a fresh ``struct`` pack/unpack path per memory
access.  For a ``parallel_for_hetero`` over *n* work-items all of that is
paid *n* times, which makes the interpreter the wall-clock bottleneck of
every experiment.

This module does what the paper's runtime does with its
``gpu_program_t``/``gpu_function_t`` JIT cache (section 3.4), one level up:
each IR :class:`~repro.ir.values.Function` is lowered **once** to a flat
threaded program and every subsequent launch replays the compiled form:

* **Integer register slots.**  Every SSA value (argument or instruction
  result) gets a fixed index into a preallocated ``regs`` list; operand
  access compiles to ``regs[slot]`` instead of an ``id()``-keyed dict
  lookup.

* **Specialized step closures.**  Each non-phi instruction becomes one
  closure with its operands, result slot, type codecs and evaluation
  function burned in — no opcode dispatch at run time.

* **Per-edge phi-move plans.**  For every (predecessor, block) edge the
  parallel phi assignment is resolved at compile time to a list of
  ``(dst_slot, source)`` moves, applied read-all-then-write-all.

* **Direct block threading.**  ``br``/``condbr`` resolve to integer block
  indices; the driver loop is an index chase over a tuple of block records.

* **Fused trace counters.**  Per-block instruction/flop/int-op/translation
  totals are computed at compile time; the driver accumulates them (and
  per-block execution counts and per-branch outcomes) in local variables
  and flushes them into the :class:`~repro.exec.interp.ExecTrace` once per
  invocation instead of once per instruction.

* **Precompiled scalar codecs.**  Every scalar type's load/store path is a
  captured ``struct.Struct`` bound directly to the region's backing
  bytearray, with the SVM surface-window checks inlined.

Compiled functions are cached in a :class:`CodeCache` keyed by
``(function, device, collect_events)``; the runtime owns one cache per
region, so each kernel compiles at most once per runtime no matter how
many work-items are launched.  Results are bit-identical to the reference
interpreter: same return values, same ``ExecTrace`` contents (the
equivalence suite asserts this for all nine workloads on both devices).
The one intended divergence is error paths: the interpreter updates trace
counters per instruction, the compiled engine per block, so a trace
observed *after* an :class:`ExecutionError` may differ in its last partial
block.
"""

from __future__ import annotations

import operator
from struct import Struct
from typing import Optional

from ..ir.intrinsics import MATH_EVAL
from ..ir.types import FloatType, I64, IntType, PointerType
from ..ir.values import Constant, Function, GlobalVariable, Instruction
from ..svm.memory import MemoryFault
from .buffers import MemEventColumns, PrivateMemoryPool
from .interp import (
    _BINOP_EVAL,
    _CAST_EVAL,
    _FLOAT_OPS,
    _MAX_CALL_DEPTH,
    _MAX_STEPS_DEFAULT,
    _F32_PACK,
    _F32_UNPACK,
    ExecTrace,
    ExecutionError,
    Interpreter,
    MemEvent,
    _f32,
)

_MASK64 = (1 << 64) - 1
_PB = Interpreter.PRIVATE_BASE
_PE = _PB + Interpreter.PRIVATE_WINDOW + 0x1000

_INT_FMT = {
    (1, True): "<b",
    (1, False): "<B",
    (2, True): "<h",
    (2, False): "<H",
    (4, True): "<i",
    (4, False): "<I",
    (8, True): "<q",
    (8, False): "<Q",
}

_CMP_OPS = {
    "eq": operator.eq,
    "ne": operator.ne,
    "slt": operator.lt,
    "sle": operator.le,
    "sgt": operator.gt,
    "sge": operator.ge,
    "oeq": operator.eq,
    "one": operator.ne,
    "olt": operator.lt,
    "ole": operator.le,
    "ogt": operator.gt,
    "oge": operator.ge,
}

#: integer division/remainder ops that can raise ZeroDivisionError
_DIV_OPS = frozenset(("sdiv", "udiv", "srem", "urem"))
#: ops whose operands the interpreter pre-masks to the result width
_UNSIGNED_MASK_OPS = frozenset(("udiv", "urem", "lshr"))

# terminator kinds for the driver loop
_T_BR = 0
_T_CONDBR = 1
_T_RET = 2
_T_UNREACHABLE = 3
_T_FALLTHROUGH = 4


def _int_finisher(type_):
    """``type_.wrap(int(value))`` as one closure with the type's mask and
    sign constants burned in (the hot path of every integer binop and
    store)."""
    bits = type_.bits
    mask = (1 << bits) - 1
    if type_.signed:
        sign = 1 << (bits - 1)
        span = 1 << bits

        def finish_signed(value):
            value = int(value) & mask
            return value - span if value >= sign else value

        return finish_signed

    def finish_unsigned(value):
        return int(value) & mask

    return finish_unsigned


def _scalar_format(type_) -> Optional[str]:
    if isinstance(type_, IntType):
        return _INT_FMT.get((type_.size(), type_.signed))
    if isinstance(type_, FloatType):
        return "<f" if type_.bits == 32 else "<d"
    if isinstance(type_, PointerType):
        return "<Q"
    return None


def _make_reader(region, device: str, type_):
    """Compile a ``read(address, ctx) -> value`` closure for one scalar
    type on one device, with the SVM window checks inlined."""
    size = type_.size()
    fmt = _scalar_format(type_)
    if fmt is None:

        def bad_read(address, ctx, _t=type_):
            raise ExecutionError(f"cannot load aggregate {_t} as scalar")

        return bad_read, size

    unpack = Struct(fmt).unpack_from
    data = region.physical.data
    limit = region.size
    if device == "gpu":
        base = region.gpu_base
        end = base + limit

        def read(address, ctx):
            if _PB <= address < _PE:
                buf = ctx._priv_buf
                if buf is None:
                    buf = ctx._acquire_private()
                return unpack(buf, address - _PB)[0]
            offset = address - base
            if offset < 0 or offset + size > limit:
                raise MemoryFault(
                    f"GPU address {address:#x} (+{size}) outside surface "
                    f"[{base:#x}, {end:#x}) — untranslated shared pointer?"
                )
            return unpack(data, offset)[0]

    else:
        base = region.cpu_base
        end = base + limit

        def read(address, ctx):
            if _PB <= address < _PE:
                buf = ctx._priv_buf
                if buf is None:
                    buf = ctx._acquire_private()
                return unpack(buf, address - _PB)[0]
            offset = address - base
            if offset < 0 or offset + size > limit:
                raise MemoryFault(
                    f"CPU address {address:#x} (+{size}) outside the shared "
                    f"region [{base:#x}, {end:#x})"
                )
            return unpack(data, offset)[0]

    return read, size


def _make_writer(region, device: str, type_):
    """Compile a ``write(address, value, ctx)`` closure (see
    :func:`_make_reader`); private stores update the engine's dirty
    high-water mark for buffer pooling."""
    size = type_.size()
    fmt = _scalar_format(type_)
    if fmt is None:

        def bad_write(address, value, ctx, _t=type_):
            raise ExecutionError(f"cannot store aggregate {_t} as scalar")

        return bad_write, size

    pack_into = Struct(fmt).pack_into
    if isinstance(type_, IntType):
        conv = _int_finisher(type_)
    elif isinstance(type_, FloatType):
        conv = float
    else:

        def conv(value):
            return int(value) & _MASK64

    data = region.physical.data
    limit = region.size
    base = region.gpu_base if device == "gpu" else region.cpu_base
    end = base + limit
    gpu = device == "gpu"

    def write(address, value, ctx):
        if _PB <= address < _PE:
            buf = ctx._priv_buf
            if buf is None:
                buf = ctx._acquire_private()
            off = address - _PB
            pack_into(buf, off, conv(value))
            if off + size > ctx._priv_dirty:
                ctx._priv_dirty = off + size
            return
        offset = address - base
        if offset < 0 or offset + size > limit:
            if gpu:
                raise MemoryFault(
                    f"GPU address {address:#x} (+{size}) outside surface "
                    f"[{base:#x}, {end:#x}) — untranslated shared pointer?"
                )
            raise MemoryFault(
                f"CPU address {address:#x} (+{size}) outside the shared "
                f"region [{base:#x}, {end:#x})"
            )
        pack_into(data, offset, conv(value))

    return write, size


class _Block:
    """One compiled basic block: phi plan, step closures, terminator."""

    __slots__ = (
        "uid_list",
        "name",
        "steps",
        "n_steps",
        "d_instr",
        "d_flops",
        "d_int_ops",
        "d_translations",
        "d_calls",
        "phi_plans",
        "kind",
        "true_index",
        "false_index",
        "cond",
        "branch_uid",
        "ret_get",
        "message",
    )

    def __init__(self):
        self.uid_list = ()
        self.steps = ()
        self.n_steps = 0
        self.d_instr = 0
        self.d_flops = 0
        self.d_int_ops = 0
        self.d_translations = 0
        self.d_calls = 0
        self.phi_plans = None
        self.kind = _T_FALLTHROUGH
        self.true_index = 0
        self.false_index = 0
        self.cond = None
        self.branch_uid = -1
        self.ret_get = None
        self.message = ""


class CodeCache:
    """Per-runtime cache of compiled functions (the simulator-level
    analogue of the paper's ``gpu_program_t``/``gpu_function_t`` cache).

    Keyed by ``(function, device, collect_events)``; compiled code binds
    directly to one region's backing memory, so the cache is created per
    :class:`~repro.svm.region.SharedRegion` and shared by every engine the
    runtime spawns.  ``compilations``/``hits`` let tests assert the
    compile-once/launch-many property.
    """

    def __init__(self, region, counters=None):
        self.region = region
        self._cache: dict[tuple, "CompiledFunction"] = {}
        self.compilations = 0
        self.hits = 0
        # Optional repro.obs.CounterRegistry; mirrors the two totals above
        # as code_cache.hits / code_cache.compilations when attached.
        self.counters = counters

    def get(
        self, function: Function, device: str, collect_events: bool
    ) -> "CompiledFunction":
        key = (function, device, collect_events)
        compiled = self._cache.get(key)
        if compiled is not None:
            self.hits += 1
            if self.counters is not None:
                self.counters.add("code_cache.hits")
            return compiled
        self.compilations += 1
        if self.counters is not None:
            self.counters.add("code_cache.compilations")
        compiled = CompiledFunction(function, device, collect_events, self)
        # Register before compiling the body so recursive (and mutually
        # recursive) calls resolve to the same object.
        self._cache[key] = compiled
        compiled._compile()
        return compiled


def _effective_terminator(block):
    """The first terminator in the instruction list — the one execution
    actually reaches (``BasicBlock.terminator`` only looks at the last
    instruction, which may differ in malformed blocks)."""
    for instr in block.instructions:
        if instr.op in ("br", "condbr", "ret", "unreachable"):
            return instr
    return None


class FunctionPlan:
    """The engine-independent lowering plan for one IR function: the
    reachable-block closure, the SSA register-slot assignment, and the
    superblock partition.  Both the threaded-code engine and the vector
    engine compile from the same plan, which is what keeps their unit
    structure — and therefore block counts, branch stats and derived
    per-unit counters — identical by construction."""

    __slots__ = (
        "blocks",
        "terms",
        "slots",
        "nregs",
        "arg_slots",
        "units",
        "unit_idx_by_block",
    )

    def __init__(self, blocks, terms, slots, nregs, arg_slots, units, unit_idx_by_block):
        self.blocks = blocks
        self.terms = terms
        self.slots = slots
        self.nregs = nregs
        self.arg_slots = arg_slots
        self.units = units
        self.unit_idx_by_block = unit_idx_by_block


def plan_function(fn: Function) -> Optional[FunctionPlan]:
    """Compute the shared lowering plan for ``fn`` (or ``None`` for a
    bodyless function)."""
    # Also pick up blocks reachable only through branch targets but
    # absent from fn.blocks (a pass may leave such edges); the compiler
    # must be total over the same object graph the interpreter walks.
    blocks = list(fn.blocks)
    if not blocks:
        return None
    seen = {id(block) for block in blocks}
    terms: dict[int, object] = {}
    i = 0
    while i < len(blocks):
        block = blocks[i]
        term = _effective_terminator(block)
        terms[id(block)] = term
        targets = list(block.successors())
        if term is not None and term.op in ("br", "condbr"):
            targets.extend(term.targets)
        for succ in targets:
            if id(succ) not in seen:
                seen.add(id(succ))
                blocks.append(succ)
        i += 1
    slots: dict[int, int] = {}
    for arg in fn.args:
        slots[id(arg)] = len(slots)
    for block in blocks:
        for instr in block.instructions:
            slots[id(instr)] = len(slots)
    nregs = len(slots)
    arg_slots = [slots[id(arg)] for arg in fn.args]

    # Superblock formation: a block whose only predecessor reaches it
    # through an unconditional ``br`` is fused into that predecessor's
    # unit — the driver loop then runs whole straight-line chains per
    # iteration.  Block counts stay exact because every constituent
    # executes whenever its chain head does.
    preds: dict[int, int] = {}
    for block in blocks:
        term = terms[id(block)]
        if term is not None and term.op in ("br", "condbr"):
            for succ in term.targets:
                preds[id(succ)] = preds.get(id(succ), 0) + 1
    entry_id = id(blocks[0])
    merge_after: dict[int, object] = {}
    merged: set[int] = set()
    for block in blocks:
        term = terms[id(block)]
        if (
            term is not None
            and term.op == "br"
            and block.instructions
            and term is block.instructions[-1]
        ):
            succ = term.targets[0]
            if (
                id(succ) in seen
                and id(succ) != entry_id
                and id(succ) != id(block)
                and preds.get(id(succ), 0) == 1
            ):
                merge_after[id(block)] = succ
                merged.add(id(succ))

    units: list[list] = []
    placed: set[int] = set()

    def build_chain(head) -> None:
        chain = [head]
        placed.add(id(head))
        cursor = head
        while True:
            nxt = merge_after.get(id(cursor))
            if nxt is None or id(nxt) in placed:
                break
            chain.append(nxt)
            placed.add(id(nxt))
            cursor = nxt
        units.append(chain)

    for block in blocks:
        if id(block) not in merged and id(block) not in placed:
            build_chain(block)
    for block in blocks:  # unreachable merge cycles: force a head
        if id(block) not in placed:
            build_chain(block)

    unit_idx_by_block = {
        block: i for i, chain in enumerate(units) for block in chain
    }
    return FunctionPlan(
        blocks, terms, slots, nregs, arg_slots, units, unit_idx_by_block
    )


class CompiledFunction:
    """A function lowered to a flat tuple of :class:`_Block` records."""

    __slots__ = (
        "function",
        "name",
        "device",
        "collect",
        "cache",
        "region",
        "nargs",
        "arg_slots",
        "nregs",
        "blocks",
        "block_names",
    )

    def __init__(self, function: Function, device: str, collect: bool, cache: CodeCache):
        self.function = function
        self.name = function.name
        self.device = device
        self.collect = collect
        self.cache = cache
        self.region = cache.region
        self.nargs = len(function.args)
        self.arg_slots: list[int] = []
        self.nregs = 0
        self.blocks: tuple = ()
        self.block_names: tuple = ()

    # -- compilation -----------------------------------------------------

    def _compile(self) -> None:
        plan = plan_function(self.function)
        if plan is None:
            return
        slots = plan.slots
        self.nregs = plan.nregs
        self.arg_slots = list(plan.arg_slots)
        unit_idx_by_block = plan.unit_idx_by_block
        self.blocks = tuple(
            self._compile_unit(chain, slots, unit_idx_by_block)
            for chain in plan.units
        )
        self.block_names = tuple(chain[-1].name for chain in plan.units)

    def _getter(self, value, slots):
        """Compile operand access: constants fold to the captured value,
        SSA values to a register read, globals to a late-bound address
        read (addresses are assigned when a runtime loads the program)."""
        if isinstance(value, Constant):
            return lambda regs, _v=value.value: _v
        slot = slots.get(id(value))
        if slot is not None:
            return lambda regs, _s=slot: regs[_s]
        if isinstance(value, GlobalVariable):

            def read_global(regs, _gv=value):
                address = _gv.address
                if address is None:
                    raise ExecutionError(
                        f"global @{_gv.name} has no address (not loaded)"
                    )
                return address

            return read_global

        def undefined(regs, _v=value):
            raise ExecutionError(f"use of undefined value {_v!r}")

        return undefined

    def _reg_slot(self, value, slots) -> Optional[int]:
        if isinstance(value, Constant):
            return None
        return slots.get(id(value))

    def _compile_unit(self, chain, slots, unit_idx_by_block) -> _Block:
        """Compile one superblock: the head's phi plans, then every
        constituent block's steps back to back with mid-chain phi edges
        lowered to plain move steps."""
        out = _Block()
        head = chain[0]
        out.uid_list = tuple(block.uid for block in chain)
        out.name = head.name
        out.phi_plans = self._compile_phis(head, head.phis(), slots, unit_idx_by_block)

        steps: list = []
        terminator = None
        term_block = chain[-1]
        n_steps = 0
        last = len(chain) - 1
        for bi, block in enumerate(chain):
            phis = block.phis()
            if bi > 0 and phis:
                moves, error = self._phi_moves(block, phis, chain[bi - 1], slots)
                if error is not None:

                    def step_phi_error(regs, ctx, _msg=error):
                        raise ExecutionError(_msg)

                    steps.append(step_phi_error)
                else:
                    move = self._compile_moves(moves, slots)

                    def step_phi(regs, ctx, _m=move):
                        _m(regs)

                    steps.append(step_phi)
            n_nonphi = 0
            block_term = None
            for instr in block.instructions:
                if instr.op == "phi":
                    continue
                n_nonphi += 1
                if instr.op in ("br", "condbr", "ret", "unreachable"):
                    block_term = instr
                    break
                self._account(instr, out)
                steps.append(self._compile_instr(instr, slots))
            n_steps += n_nonphi
            out.d_instr += len(phis) + n_nonphi
            if bi == last:
                terminator = block_term
                term_block = block
            # mid-chain block_term is the fused unconditional br — its
            # control transfer is implicit in the step concatenation.
        out.steps = tuple(steps)
        out.n_steps = n_steps

        if terminator is None:
            out.kind = _T_FALLTHROUGH
            out.message = f"{self.name}: block {term_block.name} fell through"
        elif terminator.op == "br":
            out.kind = _T_BR
            out.true_index = unit_idx_by_block[terminator.targets[0]]
        elif terminator.op == "condbr":
            out.kind = _T_CONDBR
            out.cond = self._getter(terminator.operands[0], slots)
            out.true_index = unit_idx_by_block[terminator.targets[0]]
            out.false_index = unit_idx_by_block[terminator.targets[1]]
            out.branch_uid = terminator.uid
        elif terminator.op == "ret":
            out.kind = _T_RET
            if terminator.operands:
                out.ret_get = self._getter(terminator.operands[0], slots)
        else:
            out.kind = _T_UNREACHABLE
            out.message = f"reached unreachable in {self.name}"
        return out

    def _phi_moves(self, block, phis, pred, slots):
        """Resolve one (pred, block) edge's phi assignment to a move list,
        or an error message when a phi has no incoming value for it."""
        moves = []
        for phi in phis:
            try:
                k = phi.phi_blocks.index(pred)
            except ValueError:
                return None, (
                    f"{self.name}: phi in {block.name} has no incoming "
                    f"edge from {pred.name}"
                )
            moves.append((slots[id(phi)], phi.operands[k]))
        return moves, None

    def _compile_phis(self, block, phis, slots, unit_idx_by_block):
        """Per-edge phi-move plans: pred unit index -> move closure (or an
        error message for edges a phi has no incoming value for).  The
        parallel assignment is resolved at compile time; multi-move plans
        read all sources before writing any destination."""
        if not phis:
            return None
        plans: dict[int, object] = {}
        for pred, unit_index in unit_idx_by_block.items():
            if block not in pred.successors():
                continue
            moves, error = self._phi_moves(block, phis, pred, slots)
            plans[unit_index] = (
                error if error is not None else self._compile_moves(moves, slots)
            )
        return plans

    def _compile_moves(self, moves, slots):
        """Compile one phi edge's parallel moves to a ``move(regs)``
        closure, with the register→register and constant→register shapes
        fully specialized."""
        if len(moves) == 1:
            dst, value = moves[0]
            src = self._reg_slot(value, slots)
            if src is not None:

                def move_r(regs):
                    regs[dst] = regs[src]

                return move_r
            if isinstance(value, Constant):
                const = value.value

                def move_c(regs):
                    regs[dst] = const

                return move_c
            get = self._getter(value, slots)

            def move_g(regs):
                regs[dst] = get(regs)

            return move_g
        if len(moves) == 2:
            (d0, v0), (d1, v1) = moves
            s0 = self._reg_slot(v0, slots)
            s1 = self._reg_slot(v1, slots)
            if s0 is not None and s1 is not None:

                def move_rr(regs):
                    a = regs[s0]
                    b = regs[s1]
                    regs[d0] = a
                    regs[d1] = b

                return move_rr
            g0 = self._getter(v0, slots)
            g1 = self._getter(v1, slots)

            def move_gg(regs):
                a = g0(regs)
                b = g1(regs)
                regs[d0] = a
                regs[d1] = b

            return move_gg
        if len(moves) == 3:
            (d0, v0), (d1, v1), (d2, v2) = moves
            g0 = self._getter(v0, slots)
            g1 = self._getter(v1, slots)
            g2 = self._getter(v2, slots)

            def move_3(regs):
                a = g0(regs)
                b = g1(regs)
                c = g2(regs)
                regs[d0] = a
                regs[d1] = b
                regs[d2] = c

            return move_3
        if len(moves) == 4:
            (d0, v0), (d1, v1), (d2, v2), (d3, v3) = moves
            g0 = self._getter(v0, slots)
            g1 = self._getter(v1, slots)
            g2 = self._getter(v2, slots)
            g3 = self._getter(v3, slots)

            def move_4(regs):
                a = g0(regs)
                b = g1(regs)
                c = g2(regs)
                d = g3(regs)
                regs[d0] = a
                regs[d1] = b
                regs[d2] = c
                regs[d3] = d

            return move_4
        dsts = tuple(dst for dst, _ in moves)
        gets = tuple(self._getter(value, slots) for _, value in moves)

        def move_n(regs):
            values = [g(regs) for g in gets]
            for dst, value in zip(dsts, values):
                regs[dst] = value

        return move_n

    def _account(self, instr: Instruction, out: _Block) -> None:
        """Fold one instruction's fixed trace-counter contributions into
        the block totals (mirrors the reference interpreter exactly)."""
        op = instr.op
        if op == "gep":
            out.d_int_ops += 1
        elif op in ("icmp",):
            out.d_int_ops += 1
        elif op == "fcmp":
            out.d_flops += 1
        elif op in _BINOP_EVAL:
            if op in _FLOAT_OPS:
                out.d_flops += 1
            else:
                out.d_int_ops += 1
        elif op == "vcall":
            out.d_calls += 1
            out.d_instr += 3  # vptr load, slot load, compare/jump
        elif op == "call":
            callee = instr.callee
            if isinstance(callee, Function):
                out.d_calls += 1
            else:
                name = getattr(callee, "name", "")
                if name in ("svm.to_gpu", "svm.to_cpu"):
                    out.d_translations += 1
                    out.d_int_ops += 1
                elif name.startswith("math."):
                    out.d_flops += 4  # transcendental cost hint

    # -- per-opcode step compilation -------------------------------------

    def _compile_instr(self, instr: Instruction, slots):
        op = instr.op
        slot = slots[id(instr)]
        if op == "load":
            return self._compile_load(instr, slot, slots)
        if op == "store":
            return self._compile_store(instr, slots)
        if op == "gep":
            return self._compile_gep(instr, slot, slots)
        if op in ("icmp", "fcmp"):
            return self._compile_compare(instr, slot, slots)
        if op in _BINOP_EVAL:
            return self._compile_binop(instr, slot, slots)
        if op in _CAST_EVAL:
            return self._compile_cast(instr, slot, slots)
        if op == "select":
            get_cond = self._getter(instr.operands[0], slots)
            get_true = self._getter(instr.operands[1], slots)
            get_false = self._getter(instr.operands[2], slots)

            def step_select(regs, ctx):
                regs[slot] = (get_true if get_cond(regs) else get_false)(regs)

            return step_select
        if op == "alloca":
            size = instr.alloc_type.size()

            def step_alloca(regs, ctx):
                regs[slot] = ctx._alloc_private(size)

            return step_alloca
        if op == "call":
            return self._compile_call(instr, slot, slots)
        if op == "vcall":
            return self._compile_vcall(instr, slot, slots)

        def step_unknown(regs, ctx, _op=op, _n=self.name):
            raise ExecutionError(f"unhandled opcode {_op} in {_n}")

        return step_unknown

    def _compile_load(self, instr, slot, slots):
        sa = self._reg_slot(instr.operands[0], slots)
        fmt = _scalar_format(instr.type)
        if sa is not None and fmt is not None:
            # Hot shape (register address, scalar type): inline the whole
            # access — private window, trace bookkeeping, canonicalization,
            # bounds check, codec — into one closure.
            size = instr.type.size()
            unpack = Struct(fmt).unpack_from
            region = self.region
            data = region.physical.data
            limit = region.size
            gpu = self.device == "gpu"
            base = region.gpu_base if gpu else region.cpu_base
            end = base + limit
            if not self.collect:

                def step_load_ri(regs, ctx):
                    address = regs[sa]
                    if _PB <= address < _PE:
                        buf = ctx._priv_buf
                        if buf is None:
                            buf = ctx._acquire_private()
                        regs[slot] = unpack(buf, address - _PB)[0]
                        return
                    offset = address - base
                    if offset < 0 or offset + size > limit:
                        raise MemoryFault(
                            f"GPU address {address:#x} (+{size}) outside "
                            f"surface [{base:#x}, {end:#x}) — untranslated "
                            f"shared pointer?"
                            if gpu
                            else f"CPU address {address:#x} (+{size}) outside "
                            f"the shared region [{base:#x}, {end:#x})"
                        )
                    regs[slot] = unpack(data, offset)[0]

                return step_load_ri
            uid = instr.uid
            if gpu:
                cend = base + region.surface.size
                svm_const = region.svm_const

                def step_load_traced_ri_gpu(regs, ctx):
                    address = regs[sa]
                    if _PB <= address < _PE:
                        buf = ctx._priv_buf
                        if buf is None:
                            buf = ctx._acquire_private()
                        regs[slot] = unpack(buf, address - _PB)[0]
                        return
                    seqs = ctx._mem_seq
                    seq = seqs.get(uid, 0)
                    seqs[uid] = seq + 1
                    ctx._record(
                        uid,
                        seq,
                        address - svm_const if base <= address < cend else address,
                        size,
                        False,
                    )
                    offset = address - base
                    if offset < 0 or offset + size > limit:
                        raise MemoryFault(
                            f"GPU address {address:#x} (+{size}) outside "
                            f"surface [{base:#x}, {end:#x}) — untranslated "
                            f"shared pointer?"
                        )
                    regs[slot] = unpack(data, offset)[0]

                return step_load_traced_ri_gpu

            def step_load_traced_ri_cpu(regs, ctx):
                address = regs[sa]
                if _PB <= address < _PE:
                    buf = ctx._priv_buf
                    if buf is None:
                        buf = ctx._acquire_private()
                    regs[slot] = unpack(buf, address - _PB)[0]
                    return
                seqs = ctx._mem_seq
                seq = seqs.get(uid, 0)
                seqs[uid] = seq + 1
                ctx._record(uid, seq, address, size, False)
                offset = address - base
                if offset < 0 or offset + size > limit:
                    raise MemoryFault(
                        f"CPU address {address:#x} (+{size}) outside the "
                        f"shared region [{base:#x}, {end:#x})"
                    )
                regs[slot] = unpack(data, offset)[0]

            return step_load_traced_ri_cpu
        read, size = _make_reader(self.region, self.device, instr.type)
        get_addr = self._getter(instr.operands[0], slots)
        if not self.collect:

            def step_load(regs, ctx):
                regs[slot] = read(get_addr(regs), ctx)

            return step_load
        uid = instr.uid
        canonical = self._canonicalizer()

        def step_load_traced(regs, ctx):
            address = get_addr(regs)
            if not (_PB <= address < _PE):
                seqs = ctx._mem_seq
                seq = seqs.get(uid, 0)
                seqs[uid] = seq + 1
                ctx._record(uid, seq, canonical(address), size, False)
            regs[slot] = read(address, ctx)

        return step_load_traced

    def _compile_store(self, instr, slots):
        type_ = instr.operands[0].type
        get_value = self._getter(instr.operands[0], slots)
        sa = self._reg_slot(instr.operands[1], slots)
        fmt = _scalar_format(type_)
        if sa is not None and fmt is not None:
            # Hot shape (register address, scalar type): fully inlined,
            # see _compile_load.
            size = type_.size()
            pack_into = Struct(fmt).pack_into
            if isinstance(type_, IntType):
                conv = _int_finisher(type_)
            elif isinstance(type_, FloatType):
                conv = float
            else:

                def conv(value):
                    return int(value) & _MASK64

            region = self.region
            data = region.physical.data
            limit = region.size
            gpu = self.device == "gpu"
            base = region.gpu_base if gpu else region.cpu_base
            end = base + limit
            if not self.collect:

                def step_store_ri(regs, ctx):
                    value = get_value(regs)
                    address = regs[sa]
                    if _PB <= address < _PE:
                        buf = ctx._priv_buf
                        if buf is None:
                            buf = ctx._acquire_private()
                        off = address - _PB
                        pack_into(buf, off, conv(value))
                        if off + size > ctx._priv_dirty:
                            ctx._priv_dirty = off + size
                        return
                    offset = address - base
                    if offset < 0 or offset + size > limit:
                        raise MemoryFault(
                            f"GPU address {address:#x} (+{size}) outside "
                            f"surface [{base:#x}, {end:#x}) — untranslated "
                            f"shared pointer?"
                            if gpu
                            else f"CPU address {address:#x} (+{size}) outside "
                            f"the shared region [{base:#x}, {end:#x})"
                        )
                    pack_into(data, offset, conv(value))

                return step_store_ri
            uid = instr.uid
            if gpu:
                cend = base + region.surface.size
                svm_const = region.svm_const

                def step_store_traced_ri_gpu(regs, ctx):
                    value = get_value(regs)
                    address = regs[sa]
                    if _PB <= address < _PE:
                        buf = ctx._priv_buf
                        if buf is None:
                            buf = ctx._acquire_private()
                        off = address - _PB
                        pack_into(buf, off, conv(value))
                        if off + size > ctx._priv_dirty:
                            ctx._priv_dirty = off + size
                        return
                    seqs = ctx._mem_seq
                    seq = seqs.get(uid, 0)
                    seqs[uid] = seq + 1
                    ctx._record(
                        uid,
                        seq,
                        address - svm_const if base <= address < cend else address,
                        size,
                        True,
                    )
                    offset = address - base
                    if offset < 0 or offset + size > limit:
                        raise MemoryFault(
                            f"GPU address {address:#x} (+{size}) outside "
                            f"surface [{base:#x}, {end:#x}) — untranslated "
                            f"shared pointer?"
                        )
                    pack_into(data, offset, conv(value))

                return step_store_traced_ri_gpu

            def step_store_traced_ri_cpu(regs, ctx):
                value = get_value(regs)
                address = regs[sa]
                if _PB <= address < _PE:
                    buf = ctx._priv_buf
                    if buf is None:
                        buf = ctx._acquire_private()
                    off = address - _PB
                    pack_into(buf, off, conv(value))
                    if off + size > ctx._priv_dirty:
                        ctx._priv_dirty = off + size
                    return
                seqs = ctx._mem_seq
                seq = seqs.get(uid, 0)
                seqs[uid] = seq + 1
                ctx._record(uid, seq, address, size, True)
                offset = address - base
                if offset < 0 or offset + size > limit:
                    raise MemoryFault(
                        f"CPU address {address:#x} (+{size}) outside the "
                        f"shared region [{base:#x}, {end:#x})"
                    )
                pack_into(data, offset, conv(value))

            return step_store_traced_ri_cpu
        write, size = _make_writer(self.region, self.device, type_)
        if not self.collect:
            get_addr = self._getter(instr.operands[1], slots)

            def step_store(regs, ctx):
                value = get_value(regs)
                write(get_addr(regs), value, ctx)

            return step_store
        uid = instr.uid
        canonical = self._canonicalizer()
        get_addr = self._getter(instr.operands[1], slots)

        def step_store_traced(regs, ctx):
            value = get_value(regs)
            address = get_addr(regs)
            if not (_PB <= address < _PE):
                seqs = ctx._mem_seq
                seq = seqs.get(uid, 0)
                seqs[uid] = seq + 1
                ctx._record(uid, seq, canonical(address), size, True)
            write(address, value, ctx)

        return step_store_traced

    def _canonicalizer(self):
        """Address normalization for trace events: GPU surface addresses
        are reported in CPU space so both devices produce comparable
        access streams."""
        if self.device != "gpu":
            return lambda address: address
        region = self.region
        base = region.gpu_base
        end = base + region.surface.size
        svm_const = region.svm_const

        def canonical(address):
            # Surface.contains(address) with the default 1-byte extent.
            if base <= address and address + 1 <= end:
                return address - svm_const
            return address

        return canonical

    def _compile_gep(self, instr, slot, slots):
        sbase = self._reg_slot(instr.operands[0], slots)
        get_base = self._getter(instr.operands[0], slots)
        offset = instr.gep_offset
        pairs = list(zip(instr.operands[1:], instr.gep_scales))
        if not pairs:
            if sbase is not None:

                def step_gep0_r(regs, ctx):
                    regs[slot] = (regs[sbase] + offset) & _MASK64

                return step_gep0_r

            def step_gep0(regs, ctx):
                regs[slot] = (get_base(regs) + offset) & _MASK64

            return step_gep0
        if len(pairs) == 1:
            sidx = self._reg_slot(pairs[0][0], slots)
            scale = pairs[0][1]
            if sbase is not None and sidx is not None:

                def step_gep1_rr(regs, ctx):
                    regs[slot] = (regs[sbase] + offset + regs[sidx] * scale) & _MASK64

                return step_gep1_rr
            if sbase is not None and isinstance(pairs[0][0], Constant):
                fixed = offset + pairs[0][0].value * scale

                def step_gep1_rc(regs, ctx):
                    regs[slot] = (regs[sbase] + fixed) & _MASK64

                return step_gep1_rc
            get_index = self._getter(pairs[0][0], slots)

            def step_gep1(regs, ctx):
                regs[slot] = (get_base(regs) + offset + get_index(regs) * scale) & _MASK64

            return step_gep1
        getters = [(self._getter(v, slots), s) for v, s in pairs]

        def step_gep(regs, ctx):
            address = get_base(regs) + offset
            for get, scale in getters:
                address += get(regs) * scale
            regs[slot] = address & _MASK64

        return step_gep

    def _compile_compare(self, instr, slot, slots):
        get_a = self._getter(instr.operands[0], slots)
        get_b = self._getter(instr.operands[1], slots)
        pred = instr.pred
        if instr.op == "icmp" and pred.startswith("u"):
            type0 = instr.operands[0].type
            bits = type0.bits if isinstance(type0, IntType) else 64
            mask = (1 << bits) - 1
            cmp = _CMP_OPS.get("s" + pred[1:])
            if cmp is None:

                def step_badupred(regs, ctx, _p="s" + pred[1:]):
                    raise KeyError(_p)

                return step_badupred

            def step_ucmp(regs, ctx):
                regs[slot] = 1 if cmp(get_a(regs) & mask, get_b(regs) & mask) else 0

            return step_ucmp
        cmp = _CMP_OPS.get(pred)
        if cmp is None:

            def step_badpred(regs, ctx, _p=pred):
                raise KeyError(_p)

            return step_badpred
        sa = self._reg_slot(instr.operands[0], slots)
        sb = self._reg_slot(instr.operands[1], slots)
        if sa is not None and sb is not None:

            def step_cmp_rr(regs, ctx):
                regs[slot] = 1 if cmp(regs[sa], regs[sb]) else 0

            return step_cmp_rr
        if sa is not None and isinstance(instr.operands[1], Constant):
            cb = instr.operands[1].value

            def step_cmp_rc(regs, ctx):
                regs[slot] = 1 if cmp(regs[sa], cb) else 0

            return step_cmp_rc

        def step_cmp(regs, ctx):
            regs[slot] = 1 if cmp(get_a(regs), get_b(regs)) else 0

        return step_cmp

    def _compile_binop(self, instr, slot, slots):
        op = instr.op
        handler = _BINOP_EVAL[op]
        type_ = instr.type
        if isinstance(type_, IntType):
            finish = _int_finisher(type_)
        elif isinstance(type_, FloatType) and type_.bits == 32:
            finish = _f32
        else:

            def finish(result):
                return result

        get_a = self._getter(instr.operands[0], slots)
        get_b = self._getter(instr.operands[1], slots)

        if op in _UNSIGNED_MASK_OPS and isinstance(type_, IntType):
            mask = (1 << type_.bits) - 1
            if op in _DIV_OPS:

                def step_udiv(regs, ctx, _i=instr):
                    try:
                        result = handler(get_a(regs) & mask, get_b(regs) & mask)
                    except ZeroDivisionError as exc:
                        raise ExecutionError(
                            f"division by zero in {self.name}: {_i!r}"
                        ) from exc
                    regs[slot] = finish(result)

                return step_udiv

            def step_umask(regs, ctx):
                regs[slot] = finish(handler(get_a(regs) & mask, get_b(regs) & mask))

            return step_umask

        if op in _DIV_OPS:

            def step_div(regs, ctx, _i=instr):
                try:
                    result = handler(get_a(regs), get_b(regs))
                except ZeroDivisionError as exc:
                    raise ExecutionError(
                        f"division by zero in {self.name}: {_i!r}"
                    ) from exc
                regs[slot] = finish(result)

            return step_div

        sa = self._reg_slot(instr.operands[0], slots)
        sb = self._reg_slot(instr.operands[1], slots)
        is_int = isinstance(type_, IntType)
        is_f32 = isinstance(type_, FloatType) and type_.bits == 32
        if sa is not None and sb is not None:
            if is_int:
                # Wrap inlined: int binops are the single hottest step.
                mask = (1 << type_.bits) - 1
                if type_.signed:
                    sign = 1 << (type_.bits - 1)
                    span = 1 << type_.bits

                    def step_bin_rr_si(regs, ctx):
                        result = int(handler(regs[sa], regs[sb])) & mask
                        regs[slot] = result - span if result >= sign else result

                    return step_bin_rr_si

                def step_bin_rr_ui(regs, ctx):
                    regs[slot] = int(handler(regs[sa], regs[sb])) & mask

                return step_bin_rr_ui
            if is_f32:

                def step_bin_rr_f32(regs, ctx):
                    regs[slot] = _F32_UNPACK(_F32_PACK(handler(regs[sa], regs[sb])))[0]

                return step_bin_rr_f32

            def step_bin_rr(regs, ctx):
                regs[slot] = finish(handler(regs[sa], regs[sb]))

            return step_bin_rr
        if sa is not None and isinstance(instr.operands[1], Constant):
            cb = instr.operands[1].value
            if is_f32:

                def step_bin_rc_f32(regs, ctx):
                    regs[slot] = _F32_UNPACK(_F32_PACK(handler(regs[sa], cb)))[0]

                return step_bin_rc_f32

            def step_bin_rc(regs, ctx):
                regs[slot] = finish(handler(regs[sa], cb))

            return step_bin_rc
        if sb is not None and isinstance(instr.operands[0], Constant):
            ca = instr.operands[0].value
            if is_f32:

                def step_bin_cr_f32(regs, ctx):
                    regs[slot] = _F32_UNPACK(_F32_PACK(handler(ca, regs[sb])))[0]

                return step_bin_cr_f32

            def step_bin_cr(regs, ctx):
                regs[slot] = finish(handler(ca, regs[sb]))

            return step_bin_cr

        def step_bin(regs, ctx):
            regs[slot] = finish(handler(get_a(regs), get_b(regs)))

        return step_bin

    def _compile_cast(self, instr, slot, slots):
        fn = _CAST_EVAL[instr.op]
        type_ = instr.type
        sa = self._reg_slot(instr.operands[0], slots)
        if sa is not None:

            def step_cast_r(regs, ctx):
                regs[slot] = fn(regs[sa], type_)

            return step_cast_r
        get = self._getter(instr.operands[0], slots)

        def step_cast(regs, ctx):
            regs[slot] = fn(get(regs), type_)

        return step_cast

    def _compile_call(self, instr, slot, slots):
        callee = instr.callee
        getters = [self._getter(v, slots) for v in instr.operands]
        if isinstance(callee, Function):
            sub = self.cache.get(callee, self.device, self.collect)
            arg_slots = [self._reg_slot(v, slots) for v in instr.operands]
            if all(s is not None for s in arg_slots):

                def step_call_r(regs, ctx):
                    regs[slot] = sub.invoke(ctx, [regs[s] for s in arg_slots])

                return step_call_r

            def step_call(regs, ctx):
                regs[slot] = sub.invoke(ctx, [g(regs) for g in getters])

            return step_call
        name = getattr(callee, "name", None)
        if name is None:

            def step_badcall(regs, ctx, _n=name):
                raise ExecutionError(f"unknown intrinsic {_n}")

            return step_badcall
        return self._compile_intrinsic(instr, name, slot, getters, slots)

    def _compile_intrinsic(self, instr, name, slot, getters, slots):
        region = self.region
        if name in ("svm.to_gpu", "svm.to_cpu"):
            svm_const = region.svm_const
            delta = svm_const if name == "svm.to_gpu" else -svm_const
            sa = self._reg_slot(instr.operands[0], slots)
            if sa is not None:

                def step_translate_r(regs, ctx):
                    address = regs[sa]
                    if (_PB <= address < _PE) or address == 0:
                        regs[slot] = address
                    else:
                        regs[slot] = address + delta

                return step_translate_r
            get = getters[0]

            def step_translate(regs, ctx):
                address = get(regs)
                if (_PB <= address < _PE) or address == 0:
                    regs[slot] = address
                else:
                    regs[slot] = address + delta

            return step_translate
        if name == "svm.malloc":
            get = getters[0]

            def step_malloc(regs, ctx):
                if ctx.allocator is None:
                    raise ExecutionError(
                        "svm.malloc with no allocator (device code cannot allocate)"
                    )
                regs[slot] = ctx.allocator.calloc(max(1, get(regs)))

            return step_malloc
        if name == "svm.free":
            get = getters[0]

            def step_free(regs, ctx):
                if ctx.allocator is None:
                    raise ExecutionError("svm.free with no allocator")
                address = get(regs)
                if address:
                    ctx.allocator.free(address)
                regs[slot] = None

            return step_free
        if name == "gpu.global_id":

            def step_gid(regs, ctx):
                regs[slot] = ctx.global_id

            return step_gid
        if name == "gpu.num_cores":

            def step_cores(regs, ctx):
                regs[slot] = ctx.num_cores

            return step_cores
        if name == "gpu.barrier":

            def step_barrier(regs, ctx):
                regs[slot] = None

            return step_barrier
        if name.startswith("atomic."):
            return self._compile_atomic(instr, name, slot, getters)
        if name.startswith("math."):
            short = name.split(".")[1]
            fn = MATH_EVAL.get(short)
            if fn is None:

                def step_badmath(regs, ctx, _s=short):
                    raise KeyError(_s)

                return step_badmath
            if name.endswith(".f32"):
                if len(getters) == 1:
                    get = getters[0]

                    def step_math1f(regs, ctx):
                        regs[slot] = _F32_UNPACK(_F32_PACK(fn(get(regs))))[0]

                    return step_math1f
                if len(getters) == 2:
                    get_a, get_b = getters

                    def step_math2f(regs, ctx):
                        regs[slot] = _F32_UNPACK(
                            _F32_PACK(fn(get_a(regs), get_b(regs)))
                        )[0]

                    return step_math2f

                def step_mathnf(regs, ctx):
                    regs[slot] = _f32(fn(*[g(regs) for g in getters]))

                return step_mathnf
            if len(getters) == 1:
                get = getters[0]

                def step_math1(regs, ctx):
                    regs[slot] = fn(get(regs))

                return step_math1
            if len(getters) == 2:
                get_a, get_b = getters

                def step_math2(regs, ctx):
                    regs[slot] = fn(get_a(regs), get_b(regs))

                return step_math2

            def step_mathn(regs, ctx):
                regs[slot] = fn(*[g(regs) for g in getters])

            return step_mathn

        def step_unknown(regs, ctx, _n=name):
            raise ExecutionError(f"unknown intrinsic {_n}")

        return step_unknown

    def _compile_atomic(self, instr, name, slot, getters):
        pointee = instr.callee.ftype.params[0].pointee
        read, size = _make_reader(self.region, self.device, pointee)
        write, _ = _make_writer(self.region, self.device, pointee)
        uid = instr.uid
        collect = self.collect
        canonical = self._canonicalizer()
        if isinstance(pointee, IntType):
            narrow = _int_finisher(pointee)
        else:

            def narrow(value):
                return value

        if name in ("atomic.add.i32", "atomic.add.f32"):
            combine = operator.add
        elif name == "atomic.min.i32":
            combine = min
        elif name == "atomic.max.i32":
            combine = max
        elif name == "atomic.cas.i32":
            get_addr, get_expected, get_desired = getters

            def step_cas(regs, ctx):
                address = get_addr(regs)
                old = read(address, ctx)
                if collect and not (_PB <= address < _PE):
                    seqs = ctx._mem_seq
                    seq = seqs.get(uid, 0)
                    seqs[uid] = seq + 1
                    ctx._record(uid, seq, canonical(address), size, True)
                new = get_desired(regs) if old == get_expected(regs) else old
                write(address, narrow(new), ctx)
                regs[slot] = old

            return step_cas
        else:

            def step_badatomic(regs, ctx, _n=name):
                raise ExecutionError(f"unknown atomic {_n}")

            return step_badatomic

        get_addr, get_value = getters

        def step_atomic(regs, ctx):
            address = get_addr(regs)
            old = read(address, ctx)
            if collect and not (_PB <= address < _PE):
                seqs = ctx._mem_seq
                seq = seqs.get(uid, 0)
                seqs[uid] = seq + 1
                ctx._record(uid, seq, canonical(address), size, True)
            write(address, narrow(combine(old, get_value(regs))), ctx)
            regs[slot] = old

        return step_atomic

    def _compile_vcall(self, instr, slot, slots):
        # Real vtable dispatch (the CPU path; GPU kernels have vcalls
        # expanded into compare chains by the devirtualization pass).
        read_vptr, _ = _make_reader(self.region, self.device, PointerType(I64))
        read_slot, _ = _make_reader(self.region, self.device, I64)
        vtable_offset = 8 * instr.vslot
        vslot = instr.vslot
        get_obj = self._getter(instr.operands[0], slots)
        getters = [self._getter(v, slots) for v in instr.operands[1:]]

        def step_vcall(regs, ctx):
            obj = get_obj(regs)
            vtable = read_vptr(obj, ctx)
            symbol = read_slot(vtable + vtable_offset, ctx)
            target = ctx.symbols.get(symbol)
            if target is None:
                raise ExecutionError(
                    f"virtual dispatch to unknown symbol {symbol:#x} "
                    f"(slot {vslot}) — vtables not loaded?"
                )
            sub = ctx.code_cache.get(target, ctx.device, ctx.collect_mem_events)
            args = [obj]
            for get in getters:
                args.append(get(regs))
            regs[slot] = sub.invoke(ctx, args)

        return step_vcall

    # -- execution -------------------------------------------------------

    def invoke(self, ctx: "CompiledEngine", args):
        """Run one invocation: thread the block records, accumulate trace
        counters in locals, flush once (even on error, so partial traces
        stay close to the interpreter's)."""
        depth = ctx._depth
        if depth > _MAX_CALL_DEPTH:
            raise ExecutionError(f"call depth limit exceeded in {self.name}")
        ctx._depth = depth + 1
        blocks = self.blocks
        if not blocks:
            ctx._depth = depth
            raise ExecutionError(f"{self.name} has no body")
        regs = [None] * self.nregs
        for slot, value in zip(self.arg_slots, args):
            regs[slot] = value
        trace = ctx.trace
        max_steps = ctx.max_steps
        n = len(blocks)
        block_counts = [0] * n
        branch_taken = [0] * n
        branch_total = [0] * n
        index = 0
        prev = -1
        result = None
        try:
            while True:
                block = blocks[index]
                block_counts[index] += 1
                steps_now = ctx._steps + block.n_steps
                ctx._steps = steps_now
                if steps_now > max_steps:
                    raise ExecutionError(
                        f"step limit {max_steps} exceeded in {self.name}"
                    )

                plans = block.phi_plans
                if plans is not None:
                    move = plans.get(prev)
                    if move is None:
                        prev_name = (
                            self.block_names[prev] if prev >= 0 else "<entry>"
                        )
                        raise ExecutionError(
                            f"{self.name}: phi in {block.name} has no "
                            f"incoming edge from {prev_name}"
                        )
                    if move.__class__ is str:
                        raise ExecutionError(move)
                    move(regs)

                for step in block.steps:
                    step(regs, ctx)

                kind = block.kind
                if kind == _T_BR:
                    prev = index
                    index = block.true_index
                elif kind == _T_CONDBR:
                    branch_total[index] += 1
                    prev = index
                    if block.cond(regs):
                        branch_taken[prev] += 1
                        index = block.true_index
                    else:
                        index = block.false_index
                elif kind == _T_RET:
                    get = block.ret_get
                    if get is not None:
                        result = get(regs)
                    return result
                else:
                    raise ExecutionError(block.message)
        except BaseException as exc:
            # Cold path: stamp the trapping superblock onto the escaping
            # exception for the flight recorder (repro.obs.flight) — the
            # innermost invocation wins, and Python 3.11 zero-cost
            # exceptions make this free on the non-trapping path.
            if not hasattr(exc, "trap_function"):
                exc.trap_function = self.name
                exc.trap_block_uids = block.uid_list
                exc.trap_ir_function = self.function
            raise
        finally:
            ctx._depth = depth
            # The fixed counters are linear in the block execution counts
            # (both are bumped at block entry), so they are derived here
            # instead of being accumulated inside the driver loop.
            instructions = flops = int_ops = translations = calls = 0
            counts = trace.block_counts
            stats = trace.branch_stats
            for i in range(n):
                c = block_counts[i]
                if c:
                    block = blocks[i]
                    instructions += c * block.d_instr
                    flops += c * block.d_flops
                    int_ops += c * block.d_int_ops
                    translations += c * block.d_translations
                    calls += c * block.d_calls
                    for uid in block.uid_list:
                        counts[uid] = counts.get(uid, 0) + c
                total = branch_total[i]
                if total:
                    entry = stats.setdefault(blocks[i].branch_uid, [0, 0])
                    entry[0] += branch_taken[i]
                    entry[1] += total
            trace.instructions += instructions
            trace.flops += flops
            trace.int_ops += int_ops
            trace.translations += translations
            trace.calls += calls


class CompiledEngine:
    """Drop-in replacement for :class:`~repro.exec.interp.Interpreter`
    that executes through the threaded-code cache.

    Mirrors the interpreter's constructor and ``call_function`` contract
    (device address spaces, trace lifecycle, per-engine private memory and
    memory-event sequence numbers), so the runtime can swap engines per
    launch without changing any other code.
    """

    PRIVATE_BASE = Interpreter.PRIVATE_BASE
    PRIVATE_WINDOW = Interpreter.PRIVATE_WINDOW

    def __init__(
        self,
        region,
        device: str = "cpu",
        trace: Optional[ExecTrace] = None,
        max_steps: int = _MAX_STEPS_DEFAULT,
        collect_mem_events: bool = True,
        global_id: int = 0,
        num_cores: int = 1,
        symbols: Optional[dict[int, object]] = None,
        allocator=None,
        code_cache: Optional[CodeCache] = None,
        private_pool: Optional[PrivateMemoryPool] = None,
        counters=None,
    ):
        self.region = region
        self.device = device
        self.trace = trace if trace is not None else ExecTrace()
        self.max_steps = max_steps
        self.collect_mem_events = collect_mem_events
        self.global_id = global_id
        self.num_cores = num_cores
        self.symbols = symbols or {}
        self.allocator = allocator
        if code_cache is None:
            code_cache = CodeCache(region)
        elif code_cache.region is not region:
            raise ValueError("code cache is bound to a different region")
        self.code_cache = code_cache
        self._pool = private_pool
        # Optional repro.obs.CounterRegistry; counts one engine.invocations
        # per top-level call_function (per-instruction totals come from the
        # trace, which the runtime harvests per construct).
        self.counters = counters
        self._steps = 0
        self._depth = 0
        self._mem_seq: dict[int, int] = {}
        self._priv_buf: Optional[bytearray] = None
        self._priv_dirty = 0
        self._private_next = 0x1000
        self._bind_trace()

    def _bind_trace(self) -> None:
        """Cache a fast recorder closure for the trace's event storage
        (columnar buffers take the raw-int path, lists get MemEvent
        objects)."""
        trace = self.trace
        events = trace.mem_events
        cap = trace.mem_event_cap
        if isinstance(events, MemEventColumns):
            # One length probe and one interleaved extend per event, no
            # intermediate frame.
            data = events.data
            extend = data.extend
            row_cap = cap * 5

            def record(uid, seq, address, size, is_store):
                if len(data) < row_cap:
                    extend((uid, seq, address, size, 1 if is_store else 0))
                else:
                    trace.mem_events_dropped += 1

        else:

            def record(uid, seq, address, size, is_store, _ev=events):
                if len(_ev) < cap:
                    _ev.append(MemEvent(uid, seq, address, size, is_store))
                else:
                    trace.mem_events_dropped += 1

        self._record = record

    # -- public entry points ---------------------------------------------

    def call_function(self, function: Function, args: list) -> object:
        if len(args) != len(function.args):
            raise ExecutionError(
                f"{function.name}: expected {len(function.args)} args, "
                f"got {len(args)}"
            )
        if self.counters is not None:
            self.counters.add("engine.invocations")
            self.counters.add(f"engine.invocations.{self.device}")
        compiled = self.code_cache.get(function, self.device, self.collect_mem_events)
        return compiled.invoke(self, list(args))

    # -- private memory ---------------------------------------------------

    def _acquire_private(self) -> bytearray:
        if self._pool is not None:
            buf = self._pool.acquire()
        else:
            buf = bytearray(self.PRIVATE_WINDOW + 0x1000)
        self._priv_buf = buf
        return buf

    def _alloc_private(self, size: int) -> int:
        addr = self.PRIVATE_BASE + self._private_next
        self._private_next = (self._private_next + size + 15) & ~15
        return addr

    def release_private_memory(self) -> None:
        """Return the private buffer to the pool, zeroing the written
        prefix (see :meth:`Interpreter.release_private_memory`)."""
        if self._pool is not None and self._priv_buf is not None:
            self._pool.release(self._priv_buf, self._priv_dirty)
            self._priv_buf = None
            self._priv_dirty = 0
