"""Source-generating execution engine: IR compiled once to Python text.

The reference :class:`~repro.exec.interp.Interpreter` re-walks the IR
object graph for every work-item: string-compared opcode dispatch,
``dict[id(instr)]`` environments, a ``phi_blocks.index(prev_block)`` scan
per phi per block entry, and a fresh ``struct`` pack/unpack path per memory
access.  For a ``parallel_for_hetero`` over *n* work-items all of that is
paid *n* times, which makes the interpreter the wall-clock bottleneck of
every experiment.

This module does what the paper's runtime does with its
``gpu_program_t``/``gpu_function_t`` JIT cache (section 3.4), one level up:
each IR :class:`~repro.ir.values.Function` is translated **once per
program** into the text of a Python module, compiled with the builtin
``compile()``, and every runtime that loads the program only *binds* the
resulting code object to its region:

* **One Python function per superblock.**  :func:`plan_function` fuses
  straight-line block chains into units; each unit becomes
  ``u<i>(regs, ctx, prev, btot, btak) -> next unit index``: the step-limit
  check, the head's phi moves selected on ``prev``, every instruction
  inlined as statements filled in from the per-opcode template tables
  below (``_INFIX``, ``_COMPARE``, ``_CASTS``, ``_LOAD``, ``_STORE`` ...),
  and the terminator returning the successor's index (``-1`` after a
  ``ret``, whose value travels in the last ``regs`` slot).

* **Locals before registers.**  A value defined and consumed inside one
  unit lives in a Python local ``v<slot>``; only values another unit, a
  head phi or an earlier point of a loop reads are also stored to the
  per-invocation ``regs`` list.  Constants are literals; what has no
  literal (``inf``/``nan``, codecs, callees' handlers, IR objects for
  messages) is a bound name ``k<n>`` in the generated module's namespace.

* **Bind, don't regenerate.**  Nothing in the text depends on a region:
  the backing ``bytearray``, the bases and limits, ``svm_const``, the
  callees' per-runtime ``invoke`` and the globals' addresses are the
  arguments of the module's one ``_bind`` factory, whose closures are the
  unit functions.  :class:`JitCode` (text, code object, per-unit counter
  tables) is stored in the dict the program owns
  (``CompiledProgram.jit_code``, never pickled); the per-runtime
  :class:`CodeCache` calls the factory.  ``code_cache.codegen`` counts
  generations, ``code_cache.compilations``/``.hits`` keep their
  per-runtime meaning.

* **Fused trace counters.**  Per-unit instruction/flop/int-op/translation
  totals are computed at generation time; the driver loop counts unit
  executions and derives the :class:`~repro.exec.interp.ExecTrace` totals
  once per invocation.  Memory events append straight to the columnar
  buffer from the load/store text.

Generated modules are named ``<repro-jit {function}.{device} {digest}>``;
a trap passing through one registers its text with :mod:`linecache`
(:meth:`JitCode.publish`), so the traceback and the flight bundle show the
generated statement, and ``cProfile`` rows resolve the same way.

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
from struct import Struct, pack_into, unpack_from
from textwrap import indent
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


def _no_phi_edge(name: str, block: str, unit_names: tuple, prev: int) -> ExecutionError:
    prev_name = unit_names[prev] if prev >= 0 else "<entry>"
    return ExecutionError(
        f"{name}: phi in {block} has no incoming edge from {prev_name}"
    )


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
        ctx._record(uid, seq, canonical, pointee.size(), True)
    new = combine(old, *operands)
    if isinstance(pointee, IntType):
        new = pointee.wrap(int(new))
    _write_scalar(ctx, address, pointee, new)
    return old


_VPTR = PointerType(I64)


def _vcall(ctx, vslot: int, obj, args: list):
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
    return sub.invoke(ctx, [obj, *args])


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
    "_no_phi_edge": _no_phi_edge,
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
# ``v<slot>``, ``regs[<slot>]``, a literal or a bound name; {d} is the
# assignment target the liveness pass picked for the result.  The scalar
# templates are what ``_Generator`` below writes, one work-item at a time;
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

#: The columnar append of ``CompiledEngine._record`` inlined; a full or
#: list-mode buffer (``ev_cap_`` 0) takes the out-of-line recorder.
_EVENT = """\
seq_ = seqs_.get({uid}, 0)
seqs_[{uid}] = seq_ + 1
{canon}if len(ev_) < ev_cap_:
    ev_.extend(({uid}, seq_, {ca}, {size}, {flag}))
else:
    ctx._record({uid}, seq_, {ca}, {size}, {is_store})
"""

#: GPU surface addresses are reported in CPU space so both devices
#: produce comparable access streams.
_CANONICAL_GPU = "ca_ = {a} - svm_const if base <= {a} < cend else {a}\n"

_EVENT_PROLOGUE = """\
seqs_ = ctx._mem_seq
ev_ = ctx._ev_data
ev_cap_ = ctx._ev_cap
"""

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

_UNIT = """\
def u{index}(regs, ctx, prev, btot, btak):
    steps_ = ctx._steps + {n_steps}
    ctx._steps = steps_
    if steps_ > ctx.max_steps:
        raise _step_limit(ctx.max_steps, {name!r})
"""

#: A columnar unit runs the k lanes parked at it and returns what its
#: terminator hands the scheduler: the branch mask, the returned column or
#: None.  Head phis are one function per incoming edge, run on each
#: arriving segment before the segments merge.
_NP_UNIT = "def u{index}(m, regs, lanes, k):\n"
_NP_EDGE = "def u{index}_{prev}(regs, k):\n"

_CONDBR = """\
btot[{index}] += 1
if {cond}:
    btak[{index}] += 1
    return {true}
return {false}
"""

#: A compare read only by the condbr right behind it is tested in place;
#: it still runs before the branch counters move.
_CONDBR_FUSED = """\
if {cond}:
    btot[{index}] += 1
    btak[{index}] += 1
    return {true}
btot[{index}] += 1
return {false}
"""

_MODULE = """\
def _bind({params}):
{units}
    return ({names})
"""


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


def _liveness(plan: FunctionPlan):
    """Which values must live in ``regs``, and how each unit reads what.

    Returns ``(escaping, per_unit)``: ``escaping`` holds the ids of values
    some reader cannot reach as a local — a head phi (evaluated on entry,
    before the unit's locals exist), another unit, or a use ahead of the
    definition; ``per_unit[i]`` is ``(reg_reads, local_reads)``, use
    counts keyed by value id, of values read from ``regs`` resp. from the
    local their definition in the same unit assigned."""
    slots = plan.slots
    escaping: set[int] = set()
    per_unit = []
    for chain in plan.units:
        defined: set[int] = set()
        reg_reads: dict[int, int] = {}
        local_reads: dict[int, int] = {}

        def use(value) -> None:
            key = id(value)
            if isinstance(value, Constant) or key not in slots:
                return
            if key in defined:
                local_reads[key] = local_reads.get(key, 0) + 1
            else:
                reg_reads[key] = reg_reads.get(key, 0) + 1
                escaping.add(key)

        for bi, block in enumerate(chain):
            phis = block.phis()
            for phi in phis:
                for operand in phi.operands:
                    if bi:
                        use(operand)
                    elif id(operand) in slots:
                        escaping.add(id(operand))
            defined.update(id(phi) for phi in phis)
            for instr in block.instructions:
                if instr.op == "phi":
                    continue
                for operand in instr.operands:
                    use(operand)
                defined.add(id(instr))
                if instr is plan.terms[id(block)]:
                    break
        per_unit.append((reg_reads, local_reads))
    return escaping, per_unit


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


class _Generator:
    """Writes the module text for one ``(function, device, collect)``."""

    def __init__(self, function: Function, device: str, collect: bool, plan: FunctionPlan):
        self.name = function.name
        self.device = device
        self.collect = collect
        self.plan = plan
        self.slots = plan.slots
        self.unit_names = tuple(chain[-1].name for chain in plan.units)
        self.consts: list = []  # k<n>: the generated module's namespace
        self._const_names: dict = {}
        self.callees: list = []  # s<n>: bound per runtime to invoke
        self.gvars: list = []  # g<n>: bound per runtime to .address
        self.escaping, self._reads = _liveness(plan)
        # state of the unit being written
        self.lines: list[str] = []
        self.local: set[int] = set()
        self.reg_reads: dict = {}
        self.local_reads: dict = {}
        self.traced = False
        self.fusable = None  # the compare the block's condbr tests in place
        self.fused = None  # ... and its test text once written

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

    def _operand(self, value, hoist: bool = True) -> str:
        """Expression text for one operand.  A value this unit reads from
        ``regs`` more than once is loaded into its local on first use
        (``hoist`` is off inside conditional text)."""
        if isinstance(value, Constant):
            return self._literal(value.value)
        slot = self.slots.get(id(value))
        if slot is not None:
            if id(value) in self.local:
                return f"v{slot}"
            if hoist and self.reg_reads.get(id(value), 0) > 1:
                self.lines.append(f"v{slot} = regs[{slot}]")
                self.local.add(id(value))
                return f"v{slot}"
            return f"regs[{slot}]"
        if isinstance(value, GlobalVariable):
            # Addresses are assigned when a runtime loads the program.
            name = self._per_runtime(self.gvars, value, "g")
            return f"({name} if {name} is not None else _unloaded({value.name!r}))"
        return f"_undefined({self._bind(value)})"

    def _named(self, text: str, temp: str) -> str:
        """``text`` as a name the templates may repeat."""
        if text.isidentifier():
            return text
        self.lines.append(f"{temp} = {text}")
        return temp

    def _target(self, instr) -> str:
        """Assignment target for ``instr``'s result (resolve the operands
        first): its local when this unit reads it again, its ``regs`` slot
        when anything else does."""
        slot = self.slots[id(instr)]
        targets = []
        if id(instr) in self.escaping:
            targets.append(f"regs[{slot}]")
        if self.local_reads.get(id(instr)):
            targets.append(f"v{slot}")
            self.local.add(id(instr))
        return " = ".join(targets) or "_"

    def _emit(self, template: str, **fields) -> None:
        self.lines.extend(template.format(**fields).splitlines())

    # -- units -------------------------------------------------------------

    def unit(self, index: int, chain) -> tuple:
        """Text and totals of one superblock: the head's phi moves
        selected on ``prev``, every constituent block's instructions back
        to back (a fused block's phis are plain moves from its chain
        predecessor), then the last block's terminator."""
        self.lines = []
        self.local = set()
        self.reg_reads, self.local_reads = self._reads[index]
        self.traced = False
        self.fused = None
        totals = _UnitTotals(chain)
        n_steps = 0
        terminator = None
        for bi, block in enumerate(chain):
            phis = block.phis()
            if phis:
                if bi:
                    self._moves(block, phis, chain[bi - 1], "")
                else:
                    self._head_phis(block, phis)
                for phi in phis:
                    self.local.add(id(phi))
                    if id(phi) in self.escaping:
                        slot = self.slots[id(phi)]
                        self.lines.append(f"regs[{slot}] = v{slot}")
            n_nonphi = 0
            terminator = None
            self.fusable = self._fusable_compare(block)
            for instr in block.instructions:
                if instr.op == "phi":
                    continue
                n_nonphi += 1
                if instr.op in ("br", "condbr", "ret", "unreachable"):
                    # Mid-chain this is the fused unconditional br: its
                    # control transfer is the concatenation itself.
                    terminator = instr
                    break
                account(instr, totals)
                self._instruction(instr)
            n_steps += n_nonphi
            totals.d_instr += len(phis) + n_nonphi
        self._terminator(index, chain[-1], terminator, totals)
        body = "\n".join(self.lines) + "\n"
        if self.traced:
            body = _EVENT_PROLOGUE + body
        text = _UNIT.format(index=index, n_steps=n_steps, name=self.name)
        return text + indent(body, "    "), totals

    def _phi_sources(self, block, phis, pred):
        """One (pred, block) edge's incoming values, or the error message
        when a phi has none for it."""
        sources = []
        for phi in phis:
            try:
                sources.append(phi.operands[phi.phi_blocks.index(pred)])
            except ValueError:
                return None, (
                    f"{self.name}: phi in {block.name} has no incoming "
                    f"edge from {pred.name}"
                )
        return sources, None

    def _moves(self, block, phis, pred, pad: str) -> None:
        """One edge's parallel phi assignment: Python evaluates the whole
        right-hand side before it assigns any target."""
        sources, error = self._phi_sources(block, phis, pred)
        if error is not None:
            self.lines.append(f"{pad}raise ExecutionError({error!r})")
            return
        targets = ", ".join(f"v{self.slots[id(phi)]}" for phi in phis)
        values = ", ".join(self._operand(v, hoist=not pad) for v in sources)
        self.lines.append(f"{pad}{targets} = {values}")

    def _head_phis(self, block, phis) -> None:
        edges: dict[int, object] = {}
        for pred, unit_index in self.plan.unit_idx_by_block.items():
            if block in pred.successors():
                edges[unit_index] = pred
        keyword = "if"
        for unit_index, pred in edges.items():
            self.lines.append(f"{keyword} prev == {unit_index}:")
            self._moves(block, phis, pred, "    ")
            keyword = "elif"
        raise_ = (
            f"raise _no_phi_edge({self.name!r}, {block.name!r}, "
            f"{self._bind(self.unit_names)}, prev)"
        )
        self.lines.extend(["else:", f"    {raise_}"] if edges else [raise_])

    def _terminator(self, index: int, block, term, totals) -> None:
        units = self.plan.unit_idx_by_block
        if term is None:
            message = f"{self.name}: block {block.name} fell through"
            self.lines.append(f"raise ExecutionError({message!r})")
        elif term.op == "br":
            self.lines.append(f"return {units[term.targets[0]]}")
        elif term.op == "condbr":
            totals.branch_uid = term.uid
            self._emit(
                _CONDBR if self.fused is None else _CONDBR_FUSED,
                index=index,
                cond=self.fused or self._operand(term.operands[0]),
                true=units[term.targets[0]],
                false=units[term.targets[1]],
            )
        elif term.op == "ret":
            if term.operands:
                value = self._operand(term.operands[0])
                self.lines.append(f"regs[{self.plan.nregs}] = {value}")
            self.lines.append("return -1")
        else:
            message = f"reached unreachable in {self.name}"
            self.lines.append(f"raise ExecutionError({message!r})")

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
            self.lines.append(f"{self._target(instr)} = {then} if {cond} else {other}")
        elif op == "alloca":
            size = instr.alloc_type.size()
            self.lines.append(f"{self._target(instr)} = ctx._alloc_private({size})")
        elif op == "call":
            self._call(instr)
        elif op == "vcall":
            obj, *args = (self._operand(v) for v in instr.operands)
            self.lines.append(
                f"{self._target(instr)} = "
                f"_vcall(ctx, {instr.vslot}, {obj}, [{', '.join(args)}])"
            )
        else:
            message = f"unhandled opcode {op} in {self.name}"
            self.lines.append(f"raise ExecutionError({message!r})")

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
            is_store=is_store,
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
        self.lines.append(f"{self._target(instr)} = ({' + '.join(terms)}) & {_M64}")

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
            self.lines.append(f"raise KeyError({pred!r})")
        else:
            test = template.format(a=a, b=b)
            if instr is self.fusable:
                self.fused = test
            else:
                self.lines.append(f"{self._target(instr)} = 1 if {test} else 0")

    def _fusable_compare(self, block):
        """The compare ``block``'s condbr can test in place: the
        instruction right before it, read by nothing else."""
        term = self.plan.terms[id(block)]
        if term is None or term.op != "condbr":
            return None
        at = block.instructions.index(term)
        cond = term.operands[0]
        if (
            at
            and block.instructions[at - 1] is cond
            and cond.op in ("icmp", "fcmp")
            and id(cond) not in self.escaping
            and self.local_reads.get(id(cond)) == 1
        ):
            return cond
        return None

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
            self.lines.append(f"{self._target(instr)} = {text}")

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
        self.lines.append(f"{self._target(instr)} = {text}")

    def _call(self, instr) -> None:
        callee = instr.callee
        args = [self._operand(v) for v in instr.operands]
        if isinstance(callee, Function):
            invoke = self._per_runtime(self.callees, callee, "s")
            text = f"{invoke}(ctx, [{', '.join(args)}])"
        else:
            text = self._intrinsic(instr, getattr(callee, "name", None), args)
            if text is None:
                return
        self.lines.append(f"{self._target(instr)} = {text}")

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
                self.lines.append(f"raise KeyError({short!r})")
                return None
            text = f"{self._bind(fn)}({', '.join(args)})"
            return _F32_ROUND.format(text) if name.endswith(".f32") else text
        message = f"unknown intrinsic {name}"
        self.lines.append(f"raise ExecutionError({message!r})")
        return None


_REGION_PARAMS = ("data", "base", "limit", "end", "cend", "svm_const")


class JitCode:
    """One function's generated module for one ``(device, collect)``:
    region-independent, so every runtime over the same program shares it.
    ``factory(*region constants, *callee invokes, *global addresses)``
    returns the tuple of unit functions."""

    __slots__ = (
        "function",
        "name",
        "nregs",
        "arg_slots",
        "units",
        "callees",
        "gvars",
        "source",
        "filename",
        "factory",
    )

    def __init__(self, function: Function, device: str, collect: bool):
        self.function = function
        self.name = function.name
        self.nregs = 0
        self.arg_slots: tuple = ()
        self.units: tuple = ()  # one _UnitTotals per unit
        self.callees: tuple = ()
        self.gvars: tuple = ()
        self.source = ""
        self.filename = ""
        self.factory = None
        plan = plan_function(function)
        if plan is None:
            return
        generator = _Generator(function, device, collect, plan)
        texts = []
        totals = []
        for index, chain in enumerate(plan.units):
            text, unit_totals = generator.unit(index, chain)
            texts.append(indent(text, "    "))
            totals.append(unit_totals)
        self.nregs = plan.nregs + 1  # the last slot carries the return value
        self.arg_slots = tuple(plan.arg_slots)
        self.units = tuple(totals)
        self.callees = tuple(generator.callees)
        self.gvars = tuple(generator.gvars)
        params = list(_REGION_PARAMS)
        params += [f"s{i}" for i in range(len(self.callees))]
        params += [f"g{i}" for i in range(len(self.gvars))]
        self.source = _MODULE.format(
            params=", ".join(params),
            units="\n".join(texts),
            names="".join(f"u{i}, " for i in range(len(texts))),
        )
        # The digest keeps two programs' modules apart in tracebacks,
        # profiles and linecache.
        digest = hashlib.sha1(self.source.encode()).hexdigest()[:8]
        self.filename = f"<repro-jit {self.name}.{device} {digest}>"
        namespace = dict(_RUNTIME_NAMES)
        namespace.update((f"k{i}", value) for i, value in enumerate(generator.consts))
        exec(compile(self.source, self.filename, "exec"), namespace)
        self.factory = namespace["_bind"]

    def publish(self) -> None:
        """Register the text with :mod:`linecache` under ``filename`` so a
        traceback (or a reader resolving a profiler's ``file:line``)
        prints the generated statement.  Done when a trap passes through
        the code rather than at generation: a line list costs more memory
        than the text, and linecache entries outlive the program."""
        if self.source and self.filename not in linecache.cache:
            linecache.cache[self.filename] = (
                len(self.source),
                None,  # no mtime: checkcache() leaves the entry alone
                self.source.splitlines(True),
                self.filename,
            )


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
    """A function's :class:`JitCode` bound to one runtime's region."""

    __slots__ = ("code", "function", "name", "units")

    def __init__(self, code: JitCode):
        self.code = code
        self.function = code.function
        self.name = code.name
        self.units: tuple = ()

    def _bind(self, cache: CodeCache, device: str, collect: bool) -> None:
        code = self.code
        if code.factory is None:
            return
        region = cache.region
        base = region.gpu_base if device == "gpu" else region.cpu_base
        self.units = code.factory(
            region.physical.data,
            base,
            region.size,
            base + region.size,
            base + region.surface.size,
            region.svm_const,
            *[cache.get(callee, device, collect).invoke for callee in code.callees],
            *[gvar.address for gvar in code.gvars],
        )

    def invoke(self, ctx: "CompiledEngine", args):
        """Run one invocation: chase unit indices, count unit executions,
        flush the trace once (even on error, so partial traces stay close
        to the interpreter's)."""
        depth = ctx._depth
        if depth > _MAX_CALL_DEPTH:
            raise ExecutionError(f"call depth limit exceeded in {self.name}")
        units = self.units
        if not units:
            raise ExecutionError(f"{self.name} has no body")
        ctx._depth = depth + 1
        code = self.code
        regs = [None] * code.nregs
        for slot, value in zip(code.arg_slots, args):
            regs[slot] = value
        n = len(units)
        unit_counts = [0] * n
        branch_taken = [0] * n
        branch_total = [0] * n
        index = 0
        prev = -1
        try:
            while index >= 0:
                unit_counts[index] += 1
                successor = units[index](regs, ctx, prev, branch_total, branch_taken)
                prev = index
                index = successor
            return regs[-1]
        except BaseException as exc:
            # Cold path: stamp the trapping superblock onto the escaping
            # exception for the flight recorder (repro.obs.flight) — the
            # innermost invocation wins, and Python 3.11 zero-cost
            # exceptions make this free on the non-trapping path.
            if not hasattr(exc, "trap_function"):
                exc.trap_function = self.name
                exc.trap_block_uids = code.units[index].uid_list
                exc.trap_ir_function = self.function
            code.publish()
            raise
        finally:
            ctx._depth = depth
            # The fixed counters are linear in the unit execution counts
            # (both are bumped at unit entry), so they are derived here
            # instead of being accumulated inside the driver loop.
            trace = ctx.trace
            instructions = flops = int_ops = translations = calls = 0
            counts = trace.block_counts
            stats = trace.branch_stats
            for i, unit in enumerate(code.units):
                c = unit_counts[i]
                if c:
                    instructions += c * unit.d_instr
                    flops += c * unit.d_flops
                    int_ops += c * unit.d_int_ops
                    translations += c * unit.d_translations
                    calls += c * unit.d_calls
                    for uid in unit.uid_list:
                        counts[uid] = counts.get(uid, 0) + c
                total = branch_total[i]
                if total:
                    entry = stats.setdefault(unit.branch_uid, [0, 0])
                    entry[0] += branch_taken[i]
                    entry[1] += total
            trace.instructions += instructions
            trace.flops += flops
            trace.int_ops += int_ops
            trace.translations += translations
            trace.calls += calls


class CompiledEngine:
    """Drop-in replacement for :class:`~repro.exec.interp.Interpreter`
    that executes through the generated-code cache.

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
        """Expose the trace's event storage to generated code: columnar
        buffers as the raw array plus its row cap (loads and stores append
        in line while ``len(_ev_data) < _ev_cap``), and ``_record`` as the
        out-of-line recorder for everything else — a full buffer, or a
        list-mode trace, which gets MemEvent objects and never passes the
        in-line test."""
        trace = self.trace
        events = trace.mem_events
        cap = trace.mem_event_cap
        if isinstance(events, MemEventColumns):
            data = events.data
            extend = data.extend
            row_cap = cap * 5
            self._ev_data = data
            self._ev_cap = row_cap

            def record(uid, seq, address, size, is_store):
                if len(data) < row_cap:
                    extend((uid, seq, address, size, 1 if is_store else 0))
                else:
                    trace.mem_events_dropped += 1

        else:
            self._ev_data = ()
            self._ev_cap = 0

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
