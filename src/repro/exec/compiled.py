"""Source-generating execution engine: IR compiled once to Python text.

The reference :class:`~repro.exec.interp.Interpreter` re-walks the IR
object graph for every work-item: string-compared opcode dispatch,
``dict[id(instr)]`` environments, a ``phi_blocks.index(prev_block)`` scan
per phi per block entry, and a fresh ``struct`` pack/unpack path per memory
access.  For a ``parallel_for_hetero`` over *n* work-items all of that is
paid *n* times, which makes the interpreter the wall-clock bottleneck of
every experiment.

This module does what the paper's runtime does with its
``gpu_program_t``/``gpu_function_t`` JIT cache (section 3.4): each IR
:class:`~repro.ir.values.Function` is translated **once per program** into
the text of a Python module, compiled with the builtin ``compile()``, every
runtime that loads the program only *binds* the resulting code object to
its region, and a launch replays it over the whole NDRange:

* **One Python function per IR function.**  :class:`_Printer` prints the
  function's region tree (:mod:`repro.ir.structure`): a ``Loop`` is a
  ``while True``, an ``If`` an ``if``, a ``Forward`` region a guard
  variable, a ``Dispatch`` region ``while True`` over a state variable;
  phis are the tuple assignment on each edge; every instruction is inlined
  as statements filled in from the per-opcode template tables below
  (``_INFIX``, ``_COMPARE``, ``_CASTS``, ``_LOAD``, ``_STORE`` ...).  The
  signature is ``f(ctx, depth, *args)``; a direct callee is called the
  same way.

* **Values are locals.**  Every SSA value is a Python local ``v<slot>``.
  Constants are literals; what has no literal (``inf``/``nan``, codecs,
  IR objects for messages) is a bound name ``k<n>`` in the generated
  module's namespace.

* **Superblocks are the accounting granule.**  :func:`plan_function` fuses
  straight-line block chains into units (the vector engine compiles from
  the same plan).  Where the text reaches a unit's first block it bumps
  that unit's count — a local ``c<i>`` inside loops, flushed at
  ``return``; the function's accumulator outside — and adds the unit's
  instructions to the local step count (``steps_``, written back to the
  engine around calls and at exit), so a step-limit trap fires at the
  unit it always fired at.  Per-unit instruction/flop/int-op/translation
  totals are computed at generation time; the trace counters are the
  unit counts times those totals, derived when the engine harvests.
  Memory events append straight to the launch's columnar buffer; one past
  the lane's cap is a local increment.

* **Traps are priced on the cold path.**  Nothing tracks the current unit:
  :attr:`JitCode.line_units` maps every line of the text to the unit it
  belongs to, and :meth:`CompiledEngine._unwind` reads the trapping unit —
  and whatever counts the unwound frames still held in locals — off the
  traceback.

* **Bind, don't regenerate.**  Nothing in the text depends on a region:
  the backing ``bytearray``, the bases and limits, ``svm_const``, the
  accumulator, the callees' bound functions and the globals' addresses
  are the arguments of the module's one ``_bind`` factory, whose closure
  is the function.  :class:`JitCode` (text, code object, per-unit
  totals, line table) is stored in the dict the program owns
  (``CompiledProgram.jit_code``, never pickled); the per-runtime
  :class:`CodeCache` calls the factory.  ``code_cache.codegen`` counts
  generations, ``code_cache.compilations``/``.hits`` keep their
  per-runtime meaning.

* **The launch is the unit of work.**  :meth:`CompiledEngine.run_launch`
  and :meth:`~CompiledEngine.run_chunk` run the work-item loop themselves
  — one engine, one lookup, one event buffer per launch; per lane only
  ``global_id``, private memory and (on the GPU) the sequence numbers,
  step count and event cap are reset, and the unit counts are harvested
  into the launch's columns.

Generated modules are named ``<repro-jit {function}.{device} {digest}>``
(:func:`load_generated`, which the vector engine's modules go through
too); a trap passing through one registers its text with :mod:`linecache`
(:func:`publish_generated`), so the traceback and the flight bundle show
the generated statement, and ``cProfile`` rows resolve the same way.

Results are bit-identical to the reference interpreter: same return
values, same ``ExecTrace`` contents (the equivalence suite asserts this
for all nine workloads on both devices).  The one intended divergence is
error paths: the interpreter updates trace counters per instruction, this
engine per unit, so a trace observed *after* an :class:`ExecutionError`
may differ in its last partial unit.
"""

from __future__ import annotations

import hashlib
import linecache
import math
import operator
from array import array
from struct import Struct, pack_into, unpack_from
from textwrap import indent
from typing import Optional

from ..ir.intrinsics import MATH_EVAL
from ..ir.structure import (
    Block,
    Break,
    Dispatch,
    Forward,
    If,
    Jump,
    Loop,
    Next,
    edge_copies,
    flat,
    structure,
)
from ..ir.types import FloatType, I64, IntType, PointerType
from ..ir.values import Constant, Function, GlobalVariable, Instruction
from ..svm.memory import MemoryFault
from .buffers import LaunchTrace, MemEventColumns, PrivateMemoryPool
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
)

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

#: integer division/remainder ops that can raise ZeroDivisionError
_DIV_OPS = frozenset(("sdiv", "udiv", "srem", "urem"))
#: ops whose operands the interpreter pre-masks to the result width
_UNSIGNED_MASK_OPS = frozenset(("udiv", "urem", "lshr"))


def _scalar_format(type_) -> Optional[str]:
    if isinstance(type_, IntType):
        return _INT_FMT.get((type_.size(), type_.signed))
    if isinstance(type_, FloatType):
        return "<f" if type_.bits == 32 else "<d"
    if isinstance(type_, PointerType):
        return "<Q"
    return None


# -- what generated code calls out of line ----------------------------------
#
# Error texts and the rare operations (atomics, virtual dispatch, heap
# calls) stay plain functions: the generated text names them, it does not
# repeat them.


def _fault(device: str, address: int, size: int, base: int, end: int) -> MemoryFault:
    if device == "gpu":
        return MemoryFault(
            f"GPU address {address:#x} (+{size}) outside surface "
            f"[{base:#x}, {end:#x}) — untranslated shared pointer?"
        )
    return MemoryFault(
        f"CPU address {address:#x} (+{size}) outside the shared "
        f"region [{base:#x}, {end:#x})"
    )


def _step_limit(max_steps: int, name: str) -> ExecutionError:
    return ExecutionError(f"step limit {max_steps} exceeded in {name}")


def _unloaded(name: str):
    raise ExecutionError(f"global @{name} has no address (not loaded)")


def _undefined(value):
    raise ExecutionError(f"use of undefined value {value!r}")


def _shared_offset(ctx, address: int, size: int) -> int:
    region = ctx.region
    base = region.gpu_base if ctx.device == "gpu" else region.cpu_base
    offset = address - base
    if offset < 0 or offset + size > region.size:
        raise _fault(ctx.device, address, size, base, base + region.size)
    return offset


def _read_scalar(ctx, address: int, type_):
    fmt = _scalar_format(type_)
    if fmt is None:
        raise ExecutionError(f"cannot load aggregate {type_} as scalar")
    if _PB <= address < _PE:
        buf = ctx._priv_buf
        if buf is None:
            buf = ctx._acquire_private()
        return unpack_from(fmt, buf, address - _PB)[0]
    offset = _shared_offset(ctx, address, type_.size())
    return unpack_from(fmt, ctx.region.physical.data, offset)[0]


def _write_scalar(ctx, address: int, type_, value) -> None:
    """``value`` is already converted to ``type_``'s range."""
    fmt = _scalar_format(type_)
    if fmt is None:
        raise ExecutionError(f"cannot store aggregate {type_} as scalar")
    size = type_.size()
    if _PB <= address < _PE:
        buf = ctx._priv_buf
        if buf is None:
            buf = ctx._acquire_private()
        pack_into(fmt, buf, address - _PB, value)
        if address - _PB + size > ctx._priv_dirty:
            ctx._priv_dirty = address - _PB + size
        return
    offset = _shared_offset(ctx, address, size)
    pack_into(fmt, ctx.region.physical.data, offset, value)


_ATOMIC_COMBINE = {
    "atomic.add.i32": operator.add,
    "atomic.add.f32": operator.add,
    "atomic.min.i32": min,
    "atomic.max.i32": max,
    "atomic.cas.i32": lambda old, expected, desired: (
        desired if old == expected else old
    ),
}


def _atomic(ctx, name: str, uid: int, pointee, collect: bool, address, *operands):
    """Sequential read-modify-write (work-items run one at a time; the
    timing models charge atomics more).  Returns the old value."""
    combine = _ATOMIC_COMBINE.get(name)
    if combine is None:
        raise ExecutionError(f"unknown atomic {name}")
    old = _read_scalar(ctx, address, pointee)
    if collect and not (_PB <= address < _PE):
        seqs = ctx._mem_seq
        seq = seqs.get(uid, 0)
        seqs[uid] = seq + 1
        region = ctx.region
        # Events carry CPU-space addresses on both devices.
        if ctx.device == "gpu" and region.surface.contains(address):
            canonical = address - region.svm_const
        else:
            canonical = address
        events = ctx._ev_data
        if len(events) < ctx._ev_cap:
            events.extend((uid, seq, canonical, pointee.size(), 1))
        else:
            ctx._dropped += 1
    new = combine(old, *operands)
    if isinstance(pointee, IntType):
        new = pointee.wrap(int(new))
    _write_scalar(ctx, address, pointee, new)
    return old


_VPTR = PointerType(I64)


def _vcall(ctx, depth: int, vslot: int, obj, *args):
    """Real vtable dispatch (the CPU path; GPU kernels have vcalls
    expanded into compare chains by the devirtualization pass)."""
    vtable = _read_scalar(ctx, obj, _VPTR)
    symbol = _read_scalar(ctx, vtable + 8 * vslot, I64)
    target = ctx.symbols.get(symbol)
    if target is None:
        raise ExecutionError(
            f"virtual dispatch to unknown symbol {symbol:#x} "
            f"(slot {vslot}) — vtables not loaded?"
        )
    sub = ctx.code_cache.get(target, ctx.device, ctx.collect_mem_events)
    return sub.fn(ctx, depth, obj, *args)


def _svm_malloc(ctx, size):
    if ctx.allocator is None:
        raise ExecutionError(
            "svm.malloc with no allocator (device code cannot allocate)"
        )
    return ctx.allocator.calloc(max(1, size))


def _svm_free(ctx, address) -> None:
    if ctx.allocator is None:
        raise ExecutionError("svm.free with no allocator")
    if address:
        ctx.allocator.free(address)


#: The names generated text may use besides its own ``k<n>`` constants.
_RUNTIME_NAMES = {
    "ExecutionError": ExecutionError,
    "_F32_PACK": _F32_PACK,
    "_F32_UNPACK": _F32_UNPACK,
    "_atomic": _atomic,
    "_fault": _fault,
    "_step_limit": _step_limit,
    "_svm_free": _svm_free,
    "_svm_malloc": _svm_malloc,
    "_undefined": _undefined,
    "_unloaded": _unloaded,
    "_vcall": _vcall,
}


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
    superblock partition.  Both the generated-code engine and the vector
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


def account(instr: Instruction, unit) -> None:
    """Fold one instruction's fixed trace-counter contributions into the
    unit's ``d_*`` totals (mirrors the reference interpreter exactly; the
    vector engine accounts its units through the same function)."""
    op = instr.op
    if op in ("gep", "icmp"):
        unit.d_int_ops += 1
    elif op == "fcmp":
        unit.d_flops += 1
    elif op in _BINOP_EVAL:
        if op in _FLOAT_OPS:
            unit.d_flops += 1
        else:
            unit.d_int_ops += 1
    elif op == "vcall":
        unit.d_calls += 1
        unit.d_instr += 3  # vptr load, slot load, compare/jump
    elif op == "call":
        callee = instr.callee
        if isinstance(callee, Function):
            unit.d_calls += 1
        else:
            name = getattr(callee, "name", "")
            if name in ("svm.to_gpu", "svm.to_cpu"):
                unit.d_translations += 1
                unit.d_int_ops += 1
            elif name.startswith("math."):
                unit.d_flops += 4  # transcendental cost hint


# -- per-opcode templates ---------------------------------------------------
#
# One table, two generators.  Operand texts ({a}, {b}, ...) are a local
# ``v<slot>``, a literal or a bound name (the vector engine also reads its
# register list); {d} is the assignment target of the result.  The scalar
# templates are what ``_Printer`` below writes, one work-item at a time;
# the ``_NP_*`` rows beside them are what :mod:`repro.exec.vector` writes
# for the same opcode over whole NumPy columns (ints as int64 bit patterns,
# floats as float64; ``_INFIX`` and ``_COMPARE`` read the same either way).

_M64 = "0xFFFFFFFFFFFFFFFF"

#: The ops Python spells as one operator with the interpreter's semantics
#: — on Python numbers and on columns alike: int64 columns wrap mod 2**64,
#: which is the pattern arithmetic the vector engine wants.  Everything
#: else in ``_BINOP_EVAL`` (division, remainder, shifts, fdiv, frem) the
#: scalar text calls through that table, so its corner cases stay there.
_INFIX = {
    "add": "{a} + {b}",
    "sub": "{a} - {b}",
    "mul": "{a} * {b}",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "fadd": "{a} + {b}",
    "fsub": "{a} - {b}",
    "fmul": "{a} * {b}",
}

#: ``_BINOP_EVAL``'s remaining ops over columns.  {ua}/{ub} are the uint64
#: views of the operands, {ma}/{mb} those views reduced to the result
#: width; the division family takes dense columns and traps where the
#: scalar op raises.
_NP_BINOP = {
    "shl": "({ua} << ({ub} & 63)).view(I64)",
    "lshr": "({ma} >> ({mb} & 63)).view(I64)",
    "ashr": "{a} >> ({b} & 63)",
    "udiv": "_udiv({ma}, {mb}).view(I64)",
    "urem": "_urem({ma}, {mb}).view(I64)",
    "sdiv": "_sdiv({a}, {b})",
    "srem": "_srem({a}, {b})",
    "fdiv": "_fdiv({a}, {b})",
    "frem": "_frem({a}, {b})",
}

_COMPARE = {
    "eq": "{a} == {b}",
    "ne": "{a} != {b}",
    "slt": "{a} < {b}",
    "sle": "{a} <= {b}",
    "sgt": "{a} > {b}",
    "sge": "{a} >= {b}",
    "oeq": "{a} == {b}",
    "one": "{a} != {b}",
    "olt": "{a} < {b}",
    "ole": "{a} <= {b}",
    "ogt": "{a} > {b}",
    "oge": "{a} >= {b}",
}

#: op -> (how the result is narrowed, expression over {a}); the texts are
#: ``_CAST_EVAL``'s lambdas with the target type's constants burned in.
_CASTS = {
    "zext": ("int", "{a} & " + _M64),
    "sext": ("int", "{a}"),
    "trunc": ("int", "{a}"),
    "ptrtoint": ("int", "{a}"),
    "fptosi": ("int", "int({a})"),
    "bitcast": ("same", "{a}"),
    "fpext": ("same", "{a}"),
    "inttoptr": ("same", "{a} & " + _M64),
    "sitofp": ("float", "float({a})"),
    "uitofp": ("float", "float({a} & " + _M64 + ")"),
    "fptrunc": ("f32", "{a}"),
}

#: The same casts over columns: op -> (operand domain — "i" a bit pattern,
#: "f" a float, "=" whichever the result is — and expression); the result
#: is then narrowed by the kind ``_CASTS`` names.
_NP_CASTS = {
    "zext": ("i", "{a}"),
    "sext": ("i", "{a}"),
    "trunc": ("i", "{a}"),
    "ptrtoint": ("i", "{a}"),
    "fptosi": ("f", "_fptosi({a})"),
    "bitcast": ("=", "{a}"),
    "fpext": ("f", "{a}"),
    "inttoptr": ("i", "{a}"),
    "sitofp": ("i", "{a}.astype(F64)"),
    "uitofp": ("i", "{a}.view(U64).astype(F64)"),
    "fptrunc": ("f", "{a}"),
}

_F32_ROUND = "_F32_UNPACK(_F32_PACK({0}))[0]"
#: ... which also traps where ``_F32_PACK`` raises OverflowError.
_NP_F32_ROUND = "_f32({0})"

#: ``math.*`` intrinsics NumPy evaluates bit-identically to ``MATH_EVAL``
#: (the helpers trap where the scalar function raises); every other one is
#: applied element-wise through that table.
_NP_MATH = {
    "sqrt": "_sqrt({a})",
    "rsqrt": "_rsqrt({a})",
    "fabs": "abs({a})",
    "floor": "_whole(floor, {a}, {f32})",
    "ceil": "_whole(ceil, {a}, {f32})",
    # CPython's min/max return b only when it orders strictly before a.
    "fmin": "where({b} < {a}, {b}, {a})",
    "fmax": "where({b} > {a}, {b}, {a})",
}

_PRIVATE = f"{_PB:#x} <= {{a}} < {_PE:#x}"

_LOAD = f"""\
if {_PRIVATE}:
    {{d}} = {{codec}}(ctx._priv_buf or ctx._acquire_private(), {{a}} - {_PB:#x})[0]
else:
{{event}}    off_ = {{a}} - base
    if off_ < 0 or off_ + {{size}} > limit:
        raise _fault({{device!r}}, {{a}}, {{size}}, base, end)
    {{d}} = {{codec}}(data, off_)[0]
"""

_STORE = f"""\
if {_PRIVATE}:
    off_ = {{a}} - {_PB:#x}
    {{codec}}(ctx._priv_buf or ctx._acquire_private(), off_, {{value}})
    if off_ + {{size}} > ctx._priv_dirty:
        ctx._priv_dirty = off_ + {{size}}
else:
{{event}}    off_ = {{a}} - base
    if off_ < 0 or off_ + {{size}} > limit:
        raise _fault({{device!r}}, {{a}}, {{size}}, base, end)
    {{codec}}(data, off_, {{value}})
"""

#: Columns go through the launch's ``VectorMachine``, which splits private
#: from shared lanes, bounds-checks, journals and queues the trace record.
_NP_LOAD = "{d} = m.load({uid}, {a}, {size}, {view}, {decode!r}, {dtype}, lanes)"
_NP_STORE = "m.store({uid}, {a}, {value}, {size}, {view}, {decode!r}, lanes)"

#: An aggregate access traps, after tracing it like any other.
_AGGREGATE = f"""\
if not ({_PRIVATE}):
{{event}}    pass
raise ExecutionError({{message!r}})
"""

#: One row appended to the launch's event buffer while the lane is under
#: its cap (``ev_cap_`` is a length of ``ev_``, moved per lane); past it
#: the event is only counted.
_EVENT = """\
seq_ = seqs_.get({uid}, 0)
seqs_[{uid}] = seq_ + 1
{canon}if len(ev_) < ev_cap_:
    ev_.extend(({uid}, seq_, {ca}, {size}, {flag}))
else:
    drop_ += 1
"""

#: GPU surface addresses are reported in CPU space so both devices
#: produce comparable access streams.
_CANONICAL_GPU = "ca_ = {a} - svm_const if base <= {a} < cend else {a}\n"

_DIV = """\
try:
    t_ = {call}
except ZeroDivisionError as exc:
    raise ExecutionError({prefix!r} + repr({instr})) from exc
{d} = {result}
"""

_TRANSLATE = f"{{d}} = {{a}} if ({_PRIVATE}) or {{a}} == 0 else {{a}} {{sign}} svm_const"

#: The private window and null stay put; ``svm_const`` is the machine's.
_NP_TRANSLATE = """\
t_ = {a}.view(U64)
{d} = where(((t_ - PB) < PWIDTH) | (t_ == 0), {a}, (t_ {sign} m.svm_u).view(I64))
"""

#: A columnar unit runs the k lanes parked at it and returns what its
#: terminator hands the scheduler: the branch mask, the returned column or
#: None.  Head phis are one function per incoming edge, run on each
#: arriving segment before the segments merge.
_NP_UNIT = "def u{index}(m, regs, lanes, k):\n"
_NP_EDGE = "def u{index}_{prev}(regs, k):\n"

#: Entering a unit: its execution count (a local inside loops, the
#: function's accumulator outside) and its share of the step limit.
_ENTER_UNIT = """\
{count} += 1
steps_ += {n_steps}
if steps_ > max_:
    raise _step_limit(max_, {name!r})
"""

#: What an invocation loads once.  ``cnt_`` is the bound function's
#: accumulator (see :class:`CompiledFunction`); its last slot says whether
#: the engine already knows to harvest it.
_PROLOGUE = """\
if d_ > {max_depth}:
    raise ExecutionError({too_deep!r})
if not cnt_[{flag}]:
    cnt_[{flag}] = 1
    ctx._entered.append(me_)
steps_ = ctx._steps
max_ = ctx.max_steps
"""

_TRACE_PROLOGUE = """\
seqs_ = ctx._mem_seq
ev_ = ctx._ev_data
ev_cap_ = ctx._ev_cap
drop_ = 0
"""

#: The step counter lives in a local; a callee finds it on the engine.
_CALL = """\
ctx._steps = steps_
{d} = {call}
steps_ = ctx._steps
"""

_MODULE = """\
def _bind({params}):
    def f(ctx, d_{args}):
{body}
    return f
"""

#: Line number of the body's first line (the two ``def`` lines precede it).
_BODY_LINE = 3


def _wrap(type_: IntType, text: str) -> str:
    """Python text of ``type_.wrap(<text>)``."""
    mask = (1 << type_.bits) - 1
    if type_.signed:
        sign = 1 << (type_.bits - 1)
        return f"((({text}) + {sign:#x}) & {mask:#x}) - {sign:#x}"
    return f"({text}) & {mask:#x}"


def _intlike(value) -> bool:
    """Whether ``value`` is an ``int`` at run time by its IR type — what
    lets the text drop the interpreter's defensive ``int()``."""
    if isinstance(value, Constant):
        return type(value.value) is int
    return isinstance(value.type, (IntType, PointerType))


class _UnitTotals:
    """The compile-time side of one unit: what the driver's flush needs."""

    __slots__ = (
        "uid_list",
        "branch_uid",
        "d_instr",
        "d_flops",
        "d_int_ops",
        "d_translations",
        "d_calls",
    )

    def __init__(self, chain):
        self.uid_list = tuple(block.uid for block in chain)
        self.branch_uid = -1
        self.d_instr = 0
        self.d_flops = 0
        self.d_int_ops = 0
        self.d_translations = 0
        self.d_calls = 0


class _Printer:
    """Writes the module text for one ``(function, device, collect)``: the
    region tree of the function's CFG (:mod:`repro.ir.structure`) as one
    Python function — ``Loop`` a ``while True``, ``If`` an ``if``, phis the
    tuple assignment of each ``Jump``, SSA values locals ``v<slot>``.

    :func:`plan_function`'s units stay what is counted: where the tree
    reaches a unit's first block the text bumps that unit's count and
    charges its steps.  Every line remembers the unit it belongs to
    (``line_units``), which is how a trap finds its superblock."""

    def __init__(self, function: Function, device: str, collect: bool, plan: FunctionPlan):
        self.name = function.name
        self.device = device
        self.collect = collect
        self.plan = plan
        self.slots = plan.slots
        self.entry = plan.blocks[0]
        self.consts: list = []  # k<n>: the generated module's namespace
        self._const_names: dict = {}
        self.callees: list = []  # s<n>: bound per runtime to the callee
        self.gvars: list = []  # g<n>: bound per runtime to .address
        self.totals: list = []  # one _UnitTotals per unit
        self.n_steps: list = []
        for chain in plan.units:
            totals = _UnitTotals(chain)
            steps = 0
            for block in chain:
                term = plan.terms[id(block)]
                if term is not None and term.op == "condbr":
                    totals.branch_uid = term.uid
                for instr in block.instructions:
                    totals.d_instr += 1
                    if instr.op == "phi":
                        continue
                    steps += 1
                    if instr is term:
                        break
                    account(instr, totals)
            self.totals.append(totals)
            self.n_steps.append(steps)
        self.head_of = {id(chain[0]): i for i, chain in enumerate(plan.units)}
        self.uses: dict[int, int] = {}
        for block in plan.blocks:
            for instr in block.instructions:
                for operand in instr.operands:
                    self.uses[id(operand)] = self.uses.get(id(operand), 0) + 1
        # what is being written
        self.lines: list = []  # (depth, text or None for a flush, unit)
        self.depth = 0
        self.unit = -1
        self.loops = 0  # Python loops around the current line
        self.local_counts: list[int] = []  # units counted in ``c<i>``
        self.local_taken: list[int] = []  # ... whose branch counts in ``b<i>``
        self.traced = False
        self.block = None  # the block whose instructions are being written
        self.fused: dict = {}  # id(block) -> its condbr's test, written in place
        self.states: dict = {}  # member block -> (state variable, index, cyclic)

    # -- names -------------------------------------------------------------

    def _bind(self, obj, key=None) -> str:
        """The ``k<n>`` name of a constant the text cannot spell."""
        key = id(obj) if key is None else key
        name = self._const_names.get(key)
        if name is None:
            name = self._const_names[key] = f"k{len(self.consts)}"
            self.consts.append(obj)
        return name

    def _codec(self, fmt: str, method: str) -> str:
        return self._bind(getattr(Struct(fmt), method), (fmt, method))

    def _per_runtime(self, table: list, obj, prefix: str) -> str:
        for index, seen in enumerate(table):
            if seen is obj:
                return f"{prefix}{index}"
        table.append(obj)
        return f"{prefix}{len(table) - 1}"

    def _literal(self, value) -> str:
        if type(value) is int or (type(value) is float and math.isfinite(value)):
            text = repr(value)
            return f"({text})" if text[0] == "-" else text
        return self._bind(value)  # inf, nan, bool, None: no literal form

    def _operand(self, value) -> str:
        """Expression text for one operand."""
        if isinstance(value, Constant):
            return self._literal(value.value)
        slot = self.slots.get(id(value))
        if slot is not None:
            return f"v{slot}"
        if isinstance(value, GlobalVariable):
            # Addresses are assigned when a runtime loads the program.
            name = self._per_runtime(self.gvars, value, "g")
            return f"({name} if {name} is not None else _unloaded({value.name!r}))"
        return f"_undefined({self._bind(value)})"

    def _named(self, text: str, temp: str) -> str:
        """``text`` as a name the templates may repeat."""
        if text.isidentifier():
            return text
        self._line(f"{temp} = {text}")
        return temp

    def _target(self, instr) -> str:
        return f"v{self.slots[id(instr)]}"

    def _line(self, text: str) -> None:
        self.lines.append((self.depth, text, self.unit))

    def _emit(self, template: str, **fields) -> None:
        for line in template.format(**fields).splitlines():
            self._line(line)

    # -- the tree ------------------------------------------------------------

    def statements(self, stmts) -> None:
        for stmt in stmts:
            if isinstance(stmt, Block):
                self._block(stmt.block)
            elif isinstance(stmt, Jump):
                self._jump(stmt.src, stmt.dst)
            elif isinstance(stmt, If):
                self._if(stmt)
            elif isinstance(stmt, Loop):
                self._line("while True:")
                self._nested(stmt.body, loop=True)
            elif isinstance(stmt, Forward):
                self._forward(stmt.members)
            elif isinstance(stmt, Dispatch):
                self._dispatch(stmt.members)
            elif isinstance(stmt, Next):
                variable, index, cyclic = self.states[stmt.dst]
                self._line(f"{variable} = {index}")
                if cyclic:
                    self._line("continue")
            else:
                self._line("break" if isinstance(stmt, Break) else "continue")

    def _nested(self, stmts, loop: bool = False) -> None:
        self.depth += 1
        self.loops += loop
        self.statements(stmts)
        self.loops -= loop
        self.depth -= 1

    def _enter_unit(self, index: int) -> None:
        self.unit = index
        if self.loops:
            if index not in self.local_counts:
                self.local_counts.append(index)
            count = f"c{index}"
        else:
            count = f"cnt_[{index}]"
        self._emit(_ENTER_UNIT, count=count, n_steps=self.n_steps[index], name=self.name)

    def _block(self, block) -> None:
        """The block's instructions; at a unit's first block, the unit's
        bookkeeping before them.  What follows a ``br`` or ``condbr`` is
        the tree's next statement."""
        head = self.head_of.get(id(block))
        if head is None:
            self.unit = self.plan.unit_idx_by_block[block]
        else:
            self._enter_unit(head)
        if block is self.entry and block.phis():
            self._no_phi_edge(block, "<entry>")
        self.block = block
        term = self.plan.terms[id(block)]
        for instr in block.instructions:
            if instr is term:
                break
            if instr.op != "phi":
                self._instruction(instr)
        if term is None:
            message = f"{self.name}: block {block.name} fell through"
            self._line(f"raise ExecutionError({message!r})")
        elif term.op == "ret":
            value = ""
            if term.operands:
                # Nothing may raise once the counts are flushed.
                value = " " + self._named(self._operand(term.operands[0]), "r_")
            self.lines.append((self.depth, None, self.unit))
            self._line(f"return{value}")
        elif term.op == "unreachable":
            message = f"reached unreachable in {self.name}"
            self._line(f"raise ExecutionError({message!r})")

    def _no_phi_edge(self, block, pred_name: str) -> None:
        message = f"{self.name}: phi in {block.name} has no incoming edge from {pred_name}"
        self._line(f"raise ExecutionError({message!r})")

    def _jump(self, src, dst) -> None:
        """The edge's parallel phi assignment: Python evaluates the whole
        right-hand side before it assigns any target.  A phi with no value
        for the edge traps as the first thing its block does."""
        phis = dst.phis()
        if not phis:
            return
        head = self.head_of.get(id(dst))
        self.unit = self.plan.unit_idx_by_block[dst]
        copies = edge_copies(src, dst)
        if copies is None:
            if head is not None:
                self._enter_unit(head)
            self._no_phi_edge(dst, src.name)
            return
        targets = ", ".join(self._target(phi) for phi, _value in copies)
        values = ", ".join(self._operand(value) for _phi, value in copies)
        self._line(f"{targets} = {values}")

    def _if(self, stmt) -> None:
        block = stmt.block
        index = self.plan.unit_idx_by_block[block]
        self.unit = index
        term = self.plan.terms[id(block)]
        test = self.fused.get(id(block)) or self._operand(term.operands[0])
        self._line(f"if {test}:")
        self.depth += 1
        if self.loops:
            if index not in self.local_taken:
                self.local_taken.append(index)
            self._line(f"b{index} += 1")
        else:
            self._line(f"cnt_[{len(self.totals) + index}] += 1")
        self.depth -= 1
        self._nested(stmt.then)
        self._line("else:")
        written = len(self.lines)
        self._nested(stmt.orelse)
        if len(self.lines) == written:
            self.lines.pop()

    def _forward(self, members) -> None:
        variable = f"g{len(self.states)}_"
        for index, (block, _arm) in enumerate(members):
            self.states[block] = (variable, index, False)
        self._line(f"{variable} = 0")
        self.statements(members[0][1])
        for index, (_block, arm) in enumerate(members[1:], start=1):
            self._line(f"if {variable} == {index}:")
            self._nested(arm)

    def _dispatch(self, members) -> None:
        variable = f"s{len(self.states)}_"
        for index, (block, _arm) in enumerate(members):
            self.states[block] = (variable, index, True)
        self._line(f"{variable} = 0")
        self._line("while True:")
        self.depth += 1
        self.loops += 1
        self._arms(variable, members, 0, len(members))
        self.loops -= 1
        self.depth -= 1

    def _arms(self, variable: str, members, low: int, high: int) -> None:
        """Binary search over the state: a chain of ``elif`` would nest as
        deep as it is long."""
        if high - low == 1:
            self.statements(members[low][1])
            return
        middle = (low + high) // 2
        self._line(f"if {variable} < {middle}:")
        self.depth += 1
        self._arms(variable, members, low, middle)
        self.depth -= 1
        self._line("else:")
        self.depth += 1
        self._arms(variable, members, middle, high)
        self.depth -= 1

    def text(self, stmts) -> tuple:
        """``(body text, line -> unit table)`` of the whole function."""
        self.statements(stmts)
        n_units = len(self.totals)
        flush = [f"cnt_[{i}] += c{i}" for i in self.local_counts]
        flush += [f"cnt_[{n_units + i}] += b{i}" for i in self.local_taken]
        flush.append("ctx._steps = steps_")
        prologue = _PROLOGUE.format(
            max_depth=_MAX_CALL_DEPTH,
            too_deep=f"call depth limit exceeded in {self.name}",
            flag=3 * n_units,
        )
        if self.traced:
            prologue += _TRACE_PROLOGUE
            flush += ["if drop_:", "    ctx._dropped += drop_"]
        zeroed = [f"c{i}" for i in self.local_counts] + [f"b{i}" for i in self.local_taken]
        if zeroed:
            prologue += " = ".join(zeroed) + " = 0\n"
        out = [(0, line, -1) for line in prologue.splitlines()]
        for depth, text, unit in self.lines:
            if text is None:
                out.extend((depth, line, unit) for line in flush)
            else:
                out.append((depth, text, unit))
        body = "\n".join("    " * (depth + 2) + text for depth, text, _unit in out)
        line_units = [-1] * _BODY_LINE + [unit for _depth, _text, unit in out] + [-1]
        return body, line_units

    # -- instructions --------------------------------------------------------

    def _instruction(self, instr: Instruction) -> None:
        op = instr.op
        if op == "load":
            self._memory(instr, instr.type, instr.operands[0], None)
        elif op == "store":
            self._memory(instr, instr.operands[0].type, instr.operands[1], instr.operands[0])
        elif op == "gep":
            self._gep(instr)
        elif op in ("icmp", "fcmp"):
            self._compare(instr)
        elif op in _BINOP_EVAL:
            self._binop(instr)
        elif op in _CAST_EVAL:
            self._cast(instr)
        elif op == "select":
            cond, then, other = (self._operand(v) for v in instr.operands)
            self._line(f"{self._target(instr)} = {then} if {cond} else {other}")
        elif op == "alloca":
            size = instr.alloc_type.size()
            self._line(f"{self._target(instr)} = ctx._alloc_private({size})")
        elif op == "call":
            self._call(instr)
        elif op == "vcall":
            args = ", ".join(self._operand(v) for v in instr.operands)
            call = f"_vcall(ctx, d_ + 1, {instr.vslot}, {args})"
            self._emit(_CALL, d=self._target(instr), call=call)
        else:
            message = f"unhandled opcode {op} in {self.name}"
            self._line(f"raise ExecutionError({message!r})")

    def _event(self, instr, a: str, size: int, is_store: bool) -> str:
        """The trace text of one shared-memory access, indented for the
        templates' ``else:`` arm; empty when events are off."""
        if not self.collect:
            return ""
        self.traced = True
        gpu = self.device == "gpu"
        text = _EVENT.format(
            uid=instr.uid,
            canon=_CANONICAL_GPU.format(a=a) if gpu else "",
            ca="ca_" if gpu else a,
            size=size,
            flag=int(is_store),
        )
        return indent(text, "    ")

    def _memory(self, instr, type_, address, value) -> None:
        """A load (``value`` is None) or a store: private window, trace
        bookkeeping, bounds check and codec in one statement group."""
        fmt = _scalar_format(type_)
        size = type_.size()
        stored = None if value is None else self._operand(value)
        a = self._named(self._operand(address), "a_")
        event = self._event(instr, a, size, value is not None)
        if fmt is None:
            verb = "load" if value is None else "store"
            self._emit(
                _AGGREGATE,
                a=a,
                event=event,
                message=f"cannot {verb} aggregate {type_} as scalar",
            )
        elif value is None:
            self._emit(
                _LOAD,
                a=a,
                d=self._target(instr),
                codec=self._codec(fmt, "unpack_from"),
                size=size,
                device=self.device,
                event=event,
            )
        else:
            # _encode_scalar: wrap ints, float() floats, mask pointers.
            exact = _intlike(value)
            if isinstance(type_, IntType):
                stored = _wrap(type_, stored if exact else f"int({stored})")
            elif isinstance(type_, FloatType):
                if not isinstance(value.type, FloatType):
                    stored = f"float({stored})"
            else:
                stored = f"{stored if exact else f'int({stored})'} & {_M64}"
            self._emit(
                _STORE,
                a=a,
                value=stored,
                codec=self._codec(fmt, "pack_into"),
                size=size,
                device=self.device,
                event=event,
            )

    def _gep(self, instr) -> None:
        terms = [self._operand(instr.operands[0])]
        fixed = instr.gep_offset
        for value, scale in zip(instr.operands[1:], instr.gep_scales):
            if isinstance(value, Constant) and type(value.value) is int:
                fixed += value.value * scale
            else:
                text = self._operand(value)
                terms.append(text if scale == 1 else f"{text} * {self._literal(scale)}")
        if fixed:
            terms.append(self._literal(fixed))
        self._line(f"{self._target(instr)} = ({' + '.join(terms)}) & {_M64}")

    def _compare(self, instr) -> None:
        pred = instr.pred
        a, b = (self._operand(v) for v in instr.operands)
        if instr.op == "icmp" and pred.startswith("u"):
            # The same comparison on operands normalized to their width.
            type0 = instr.operands[0].type
            mask = (1 << (type0.bits if isinstance(type0, IntType) else 64)) - 1
            pred = "s" + pred[1:]
            a, b = f"({a} & {mask:#x})", f"({b} & {mask:#x})"
        template = _COMPARE.get(pred)
        if template is None:
            self._line(f"raise KeyError({pred!r})")
        else:
            test = template.format(a=a, b=b)
            if self._tested_in_place(instr):
                self.fused[id(self.block)] = test
            else:
                self._line(f"{self._target(instr)} = 1 if {test} else 0")

    def _tested_in_place(self, compare) -> bool:
        """A compare read only by the ``condbr`` right behind it is that
        branch's ``if`` test."""
        block = self.block
        term = self.plan.terms[id(block)]
        if term is None or term.op != "condbr" or self.uses.get(id(compare)) != 1:
            return False
        at = block.instructions.index(term)
        return at > 0 and block.instructions[at - 1] is compare and term.operands[0] is compare

    def _binop(self, instr) -> None:
        op = instr.op
        type_ = instr.type
        is_int = isinstance(type_, IntType)
        lhs, rhs = instr.operands
        a, b = self._operand(lhs), self._operand(rhs)
        template = _INFIX.get(op)
        if template is not None:
            text = template.format(a=a, b=b)
            exact = _intlike(lhs) and _intlike(rhs)
        else:
            if op in _UNSIGNED_MASK_OPS and is_int:
                mask = (1 << type_.bits) - 1
                a, b = f"{a} & {mask:#x}", f"{b} & {mask:#x}"
            text = f"{self._bind(_BINOP_EVAL[op])}({a}, {b})"
            exact = False
        if op in _DIV_OPS:
            call, text = text, "t_"
        if is_int:
            text = _wrap(type_, text if exact else f"int({text})")
        elif isinstance(type_, FloatType) and type_.bits == 32:
            text = _F32_ROUND.format(text)
        if op in _DIV_OPS:
            self._emit(
                _DIV,
                call=call,
                prefix=f"division by zero in {self.name}: ",
                instr=self._bind(instr),
                d=self._target(instr),
                result=text,
            )
        else:
            self._line(f"{self._target(instr)} = {text}")

    def _cast(self, instr) -> None:
        type_ = instr.type
        a = self._operand(instr.operands[0])
        narrow, template = _CASTS.get(instr.op, (None, None))
        if narrow == "int" and isinstance(type_, IntType):
            text = _wrap(type_, template.format(a=a))
        elif narrow == "float" and isinstance(type_, FloatType):
            text = template.format(a=a)
            if type_.bits == 32:
                text = _F32_ROUND.format(text)
        elif narrow == "f32":
            text = _F32_ROUND.format(a)
        elif narrow == "same":
            text = template.format(a=a)
        else:  # a target type the table has no text for
            text = f"{self._bind(_CAST_EVAL[instr.op])}({a}, {self._bind(type_)})"
        self._line(f"{self._target(instr)} = {text}")

    def _call(self, instr) -> None:
        callee = instr.callee
        args = [self._operand(v) for v in instr.operands]
        if isinstance(callee, Function):
            entry = self._per_runtime(self.callees, callee, "s")
            call = f"{entry}({', '.join(['ctx', 'd_ + 1', *args])})"
            self._emit(_CALL, d=self._target(instr), call=call)
            return
        text = self._intrinsic(instr, getattr(callee, "name", None), args)
        if text is not None:
            self._line(f"{self._target(instr)} = {text}")

    def _intrinsic(self, instr, name, args) -> Optional[str]:
        """Expression text of an intrinsic call, or None when the lines
        were written here."""
        if name in ("svm.to_gpu", "svm.to_cpu"):
            a = self._named(args[0], "a_")
            sign = "+" if name == "svm.to_gpu" else "-"
            self._emit(_TRANSLATE, d=self._target(instr), a=a, sign=sign)
            return None
        if name == "svm.malloc":
            return f"_svm_malloc(ctx, {args[0]})"
        if name == "svm.free":
            return f"_svm_free(ctx, {args[0]})"
        if name == "gpu.global_id":
            return "ctx.global_id"
        if name == "gpu.num_cores":
            return "ctx.num_cores"
        if name == "gpu.barrier":
            return "None"
        if name is not None and name.startswith("atomic."):
            pointee = instr.callee.ftype.params[0].pointee
            return (
                f"_atomic(ctx, {name!r}, {instr.uid}, {self._bind(pointee)}, "
                f"{self.collect}, {', '.join(args)})"
            )
        if name is not None and name.startswith("math."):
            short = name.split(".")[1]
            fn = MATH_EVAL.get(short)
            if fn is None:
                self._line(f"raise KeyError({short!r})")
                return None
            text = f"{self._bind(fn)}({', '.join(args)})"
            return _F32_ROUND.format(text) if name.endswith(".f32") else text
        message = f"unknown intrinsic {name}"
        self._line(f"raise ExecutionError({message!r})")
        return None


_REGION_PARAMS = ("data", "base", "limit", "end", "cend", "svm_const")


def load_generated(label: str, source: str, names: dict) -> tuple:
    """The one tail of every generated module: name it after a digest of
    its text (two programs' modules stay apart in tracebacks, profiles
    and :mod:`linecache`), compile it, and execute it in a namespace
    seeded with ``names``.  Returns ``(filename, namespace)``."""
    digest = hashlib.sha1(source.encode()).hexdigest()[:8]
    filename = f"<{label} {digest}>"
    namespace = dict(names)
    exec(compile(source, filename, "exec"), namespace)
    return filename, namespace


def publish_generated(filename: str, source: str) -> None:
    """Register a generated module's text with :mod:`linecache` so a
    traceback (or a reader resolving a profiler's ``file:line``) prints
    the generated statement.  Done when a trap passes through the code
    rather than at generation: a line list costs more memory than the
    text, and linecache entries outlive the program."""
    if source and filename not in linecache.cache:
        linecache.cache[filename] = (
            len(source),
            None,  # no mtime: checkcache() leaves the entry alone
            source.splitlines(True),
            filename,
        )


def _region_tree(function: Function, plan: FunctionPlan) -> list:
    """The function's region tree — or, for a function whose blocks the
    plan had to find through stray branch targets or mid-block
    terminators, one dispatch region over what the plan found."""
    terms = plan.terms
    if len(plan.blocks) == len(function.blocks) and all(
        terms[id(block)] is block.terminator for block in plan.blocks
    ):
        return structure(function)

    def successors(block) -> list:
        term = terms[id(block)]
        return list(term.targets) if term is not None else []

    return flat(plan.blocks, successors)


class JitCode:
    """One function's generated module for one ``(device, collect)``:
    region-independent, so every runtime over the same program shares it.
    ``factory(*region constants, accumulator, owner, *callee entries,
    *global addresses)`` returns the function ``f(ctx, depth, *args)``."""

    __slots__ = (
        "function",
        "name",
        "units",
        "line_units",
        "flushed",
        "callees",
        "gvars",
        "source",
        "filename",
        "factory",
    )

    def __init__(self, function: Function, device: str, collect: bool):
        self.function = function
        self.name = function.name
        self.units: tuple = ()  # one _UnitTotals per unit
        self.line_units: tuple = ()  # line number -> unit index, -1 outside any
        self.flushed: tuple = ()  # (local, accumulator slot) a return flushes
        self.callees: tuple = ()
        self.gvars: tuple = ()
        self.source = ""
        self.filename = ""
        self.factory = None
        plan = plan_function(function)
        if plan is None:
            return
        printer = _Printer(function, device, collect, plan)
        body, line_units = printer.text(_region_tree(function, plan))
        self.units = tuple(printer.totals)
        self.line_units = tuple(line_units)
        n_units = len(self.units)
        self.flushed = tuple(
            [(f"c{i}", i) for i in printer.local_counts]
            + [(f"b{i}", n_units + i) for i in printer.local_taken]
        )
        self.callees = tuple(printer.callees)
        self.gvars = tuple(printer.gvars)
        params = [*_REGION_PARAMS, "cnt_", "me_"]
        params += [f"s{i}" for i in range(len(self.callees))]
        params += [f"g{i}" for i in range(len(self.gvars))]
        self.source = _MODULE.format(
            params=", ".join(params),
            args="".join(f", v{slot}" for slot in plan.arg_slots),
            body=body,
        )
        names = dict(_RUNTIME_NAMES, __jit__=self)
        names.update((f"k{i}", value) for i, value in enumerate(printer.consts))
        self.filename, namespace = load_generated(
            f"repro-jit {self.name}.{device}", self.source, names
        )
        self.factory = namespace["_bind"]

    def publish(self) -> None:
        publish_generated(self.filename, self.source)


class CodeCache:
    """Per-runtime cache of bound functions (the simulator-level analogue
    of the paper's ``gpu_program_t``/``gpu_function_t`` cache).

    Keyed by ``(function, device, collect_events)``.  Bound code closes
    over one region's backing memory, so the cache is created per
    :class:`~repro.svm.region.SharedRegion` and shared by every engine the
    runtime spawns; the generated :class:`JitCode` behind each entry lives
    in ``code``, the dict of whoever owns the IR (a runtime passes its
    program's ``jit_code``), so only the first runtime over a program pays
    for generation.  ``compilations``/``hits`` count this cache's binds
    and replays (tests assert compile-once/launch-many on them),
    ``codegen`` the generations it had to do itself.
    """

    def __init__(self, region, counters=None, code: Optional[dict] = None):
        self.region = region
        self._cache: dict[tuple, "CompiledFunction"] = {}
        self._code = {} if code is None else code
        self.compilations = 0
        self.hits = 0
        self.codegen = 0
        # Optional repro.obs.CounterRegistry; mirrors the totals above as
        # code_cache.hits / .compilations / .codegen when attached.
        self.counters = counters

    def get(
        self, function: Function, device: str, collect_events: bool, uses: int = 1
    ) -> "CompiledFunction":
        """The bound function, for ``uses`` invocations: a launch asks
        once for all its lanes, and counts as that many lookups."""
        key = (function, device, collect_events)
        compiled = self._cache.get(key)
        hits = uses
        if compiled is None:
            hits -= 1
            compiled = self._compile(key)
        if hits > 0:
            self.hits += hits
            if self.counters is not None:
                self.counters.add("code_cache.hits", hits)
        return compiled

    def _compile(self, key: tuple) -> "CompiledFunction":
        function, device, collect_events = key
        self.compilations += 1
        if self.counters is not None:
            self.counters.add("code_cache.compilations")
        code = self._code.get(key)
        if code is None:
            # Two runtimes racing here generate equal code; either wins.
            code = self._code[key] = JitCode(function, device, collect_events)
            self.codegen += 1
            if self.counters is not None:
                self.counters.add("code_cache.codegen")
        compiled = CompiledFunction(code)
        # Register before binding the body so recursive (and mutually
        # recursive) calls resolve to the same object.
        self._cache[key] = compiled
        compiled._bind(self, device, collect_events)
        return compiled


class CompiledFunction:
    """A function's :class:`JitCode` bound to one runtime's region.

    ``counts`` is what its invocations accumulate into and the engine
    harvests (per lane, per call): ``3 * units + 1`` slots — each unit's
    executions, then each unit's taken branches, then (written only when
    a trap unwinds) the executions that never reached the unit's branch,
    then the flag/rank slot that says the engine has the function on its
    harvest list."""

    __slots__ = ("code", "function", "name", "fn", "counts", "zeros")

    def __init__(self, code: JitCode):
        self.code = code
        self.function = code.function
        self.name = code.name
        self.fn = None
        self.zeros = [0] * (3 * len(code.units) + 1)
        self.counts = list(self.zeros)

    def _bind(self, cache: CodeCache, device: str, collect: bool) -> None:
        code = self.code
        if code.factory is None:
            self.fn = self._no_body
            return
        region = cache.region
        base = region.gpu_base if device == "gpu" else region.cpu_base
        self.fn = code.factory(
            region.physical.data,
            base,
            region.size,
            base + region.size,
            base + region.surface.size,
            region.svm_const,
            self.counts,
            self,
            *[cache.get(callee, device, collect).entry() for callee in code.callees],
            *[gvar.address for gvar in code.gvars],
        )

    def entry(self):
        """What a caller's text calls: the function itself, or — for a
        callee still being bound, a recursion's back edge — a trampoline
        that finds it at call time."""
        if self.fn is not None:
            return self.fn
        return lambda *args: self.fn(*args)

    def _no_body(self, ctx, depth, *args):
        if depth > _MAX_CALL_DEPTH:
            raise ExecutionError(f"call depth limit exceeded in {self.name}")
        raise ExecutionError(f"{self.name} has no body")


class CompiledEngine:
    """Drop-in replacement for :class:`~repro.exec.interp.Interpreter`
    that executes through the generated-code cache.

    Mirrors the interpreter's constructor and ``call_function`` contract
    (device address spaces, trace lifecycle, private memory and
    memory-event sequence numbers).  The unit of work it is built for is
    the *launch*: :meth:`run_chunk` (one trace for all lanes, the CPU
    backend's shape) and :meth:`run_launch` (a columnar
    :class:`~repro.exec.buffers.LaunchTrace`, the GPU backend's) run the
    work-item loop themselves, and ``call_function`` is a launch of one.

    Generated functions keep their counts in locals and flush them into
    their :class:`CompiledFunction`'s accumulator on return; the engine
    harvests the accumulators of the functions that were entered
    (``_entered``) once per call, chunk or lane.
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
        # per work-item (per-instruction totals come from the trace, which
        # the runtime harvests per construct).
        self.counters = counters
        self._steps = 0
        self._mem_seq: dict[int, int] = {}
        self._priv_buf: Optional[bytearray] = None
        self._priv_dirty = 0
        self._private_next = 0x1000
        self._entered: list[CompiledFunction] = []
        self._dropped = 0
        # Generated code appends event rows to ``_ev_data`` while it is
        # shorter than ``_ev_cap``.  A columnar trace lends its own array;
        # a list-mode trace gets its MemEvent objects when the rows are
        # harvested.
        events = self.trace.mem_events
        cap = self.trace.mem_event_cap
        if isinstance(events, MemEventColumns):
            self._list_events = None
            self._ev_data = events.data
            self._ev_cap = cap * 5
        else:
            self._list_events = events
            self._ev_data = array("Q")
            self._ev_cap = max(0, cap - len(events)) * 5

    # -- public entry points ---------------------------------------------

    def call_function(self, function: Function, args: list) -> object:
        """One invocation, traced into ``self.trace``: a launch of one."""
        if len(args) != len(function.args):
            raise ExecutionError(
                f"{function.name}: expected {len(function.args)} args, "
                f"got {len(args)}"
            )
        fn = self._lookup(function, 1)
        try:
            return fn(self, 0, *args)
        except BaseException as exc:
            self._unwind(exc)
            raise
        finally:
            self._harvest()

    def run_chunk(self, function: Function, span, args_of) -> None:
        """``function`` for every index of ``span``, all traced into
        ``self.trace`` and harvested once at the end: sequence numbers and
        the step count run on across the work-items, private memory starts
        over for each."""
        if not span:
            return
        fn = self._lookup(function, len(span))
        try:
            for index in span:
                self.global_id = index
                self.reset_private_memory()
                fn(self, 0, *args_of(index))
        except BaseException as exc:
            self._unwind(exc)
            raise
        finally:
            self._harvest()
            self.release_private_memory()

    def run_launch(self, function: Function, span, args_of, budget: int) -> LaunchTrace:
        """``function`` for every index of ``span`` as one GPU launch:
        each work-item starts from what a fresh engine would have
        (sequence numbers, step count, private memory), and its events,
        counts and cap go straight into the launch's columns.

        The cap is per work-item with a *global* budget: the per-item
        floor of 1000 events keeps short lanes representative, but once
        the work-items collectively reach ``budget`` the remaining lanes
        record nothing — without the running total, n floor-capped lanes
        would retain up to n * 1000 events.  Overflow is visible: each
        lane counts its drops."""
        n = len(span)
        events = array("Q")
        kept, dropped, caps = array("q"), array("q"), array("q")
        columns: dict = {}  # CompiledFunction -> (lanes, harvested accumulators)
        if n:
            fn = self._lookup(function, n)
            per_item = max(1000, budget // n)
            entered = self._entered
            own = self._ev_data, self._ev_cap
            self._ev_data = events
            try:
                for lane, index in enumerate(span):
                    self.global_id = index
                    self._mem_seq = {}
                    self._steps = 0
                    self.reset_private_memory()
                    start = len(events)
                    cap = min(per_item, max(0, budget - start // 5))
                    self._ev_cap = start + 5 * cap
                    fn(self, 0, *args_of(index))
                    for rank, compiled in enumerate(entered, start=1):
                        counts = compiled.counts
                        counts[-1] = rank
                        column = columns.get(compiled)
                        if column is None:
                            column = columns[compiled] = (array("q"), array("q"))
                        column[0].append(lane)
                        column[1].extend(counts)
                        counts[:] = compiled.zeros
                    entered.clear()
                    kept.append((len(events) - start) // 5)
                    dropped.append(self._dropped)
                    caps.append(cap)
                    self._dropped = 0
            except BaseException as exc:
                self._unwind(exc)
                raise
            finally:
                self._ev_data, self._ev_cap = own
                self._harvest()  # a trapped lane's counts: the accumulators end clean
                self.release_private_memory()
        return LaunchTrace.from_unit_counts(
            n,
            events,
            kept,
            dropped,
            caps,
            [(compiled.code.units, *column) for compiled, column in columns.items()],
        )

    def _lookup(self, function: Function, uses: int):
        if self.counters is not None:
            self.counters.add("engine.invocations", uses)
            self.counters.add(f"engine.invocations.{self.device}", uses)
        return self.code_cache.get(
            function, self.device, self.collect_mem_events, uses
        ).fn

    # -- what generated code leaves behind -----------------------------------

    def _harvest(self) -> None:
        """Fold the accumulators of the functions entered since the last
        harvest into ``self.trace``: the fixed counters are linear in the
        unit execution counts, so they are derived here rather than
        counted (also after a trap, so partial traces stay close to the
        interpreter's)."""
        trace = self.trace
        if self._entered:
            instructions = flops = int_ops = translations = calls = 0
            counts = trace.block_counts
            stats = trace.branch_stats
            for compiled in self._entered:
                acc = compiled.counts
                units = compiled.code.units
                n = len(units)
                for i, unit in enumerate(units):
                    c = acc[i]
                    if c:
                        instructions += c * unit.d_instr
                        flops += c * unit.d_flops
                        int_ops += c * unit.d_int_ops
                        translations += c * unit.d_translations
                        calls += c * unit.d_calls
                        for uid in unit.uid_list:
                            counts[uid] = counts.get(uid, 0) + c
                        total = c - acc[2 * n + i]
                        if total and unit.branch_uid >= 0:
                            entry = stats.setdefault(unit.branch_uid, [0, 0])
                            entry[0] += acc[n + i]
                            entry[1] += total
                acc[:] = compiled.zeros
            self._entered.clear()
            trace.instructions += instructions
            trace.flops += flops
            trace.int_ops += int_ops
            trace.translations += translations
            trace.calls += calls
        if self._dropped:
            trace.mem_events_dropped += self._dropped
            self._dropped = 0
        events = self._list_events
        if events is not None and self._ev_data:
            rows = self._ev_data
            for i in range(0, len(rows), 5):
                uid, seq, address, size, is_store = rows[i : i + 5]
                events.append(MemEvent(uid, seq, address, size, bool(is_store)))
            del rows[:]
            self._ev_cap = max(0, trace.mem_event_cap - len(events)) * 5

    def _unwind(self, exc: BaseException) -> None:
        """Cold path: a trap is leaving generated code.  What each
        generated frame on the traceback still held in locals — loop
        counts, drops, the step count — goes where a return would have
        put it; the unit a frame was in comes from its line number, and
        that execution of the unit never reached its branch.  The
        innermost frame stamps the trapping superblock onto the exception
        for the flight recorder (repro.obs.flight), and every module on
        the way is published so the traceback shows the statement."""
        tb = exc.__traceback__
        trap = None
        while tb is not None:
            frame = tb.tb_frame
            code = frame.f_globals.get("__jit__")
            if code is not None:
                code.publish()
                held = frame.f_locals
                acc = held["cnt_"]
                for name, slot in code.flushed:
                    acc[slot] += held.get(name, 0)
                self._dropped += held.get("drop_", 0)
                self._steps = held.get("steps_", self._steps)
                unit = code.line_units[tb.tb_lineno]
                if unit >= 0:
                    acc[2 * len(code.units) + unit] += 1
                    trap = code, unit
            tb = tb.tb_next
        if trap is not None and not hasattr(exc, "trap_function"):
            code, unit = trap
            exc.trap_function = code.name
            exc.trap_block_uids = code.units[unit].uid_list
            exc.trap_ir_function = code.function

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

    #: A work-item starts with an empty, all-zero private window.
    reset_private_memory = Interpreter.reset_private_memory

    def release_private_memory(self) -> None:
        """Return the private buffer to the pool, zeroing the written
        prefix (see :meth:`Interpreter.release_private_memory`)."""
        if self._pool is not None and self._priv_buf is not None:
            self._pool.release(self._priv_buf, self._priv_dirty)
            self._priv_buf = None
            self._priv_dirty = 0
