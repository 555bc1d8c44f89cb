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
  straight-line block chains into units (the vector engine prints the
  same tree over the same plan).  Where the text reaches a unit's first block it bumps
  that unit's count — a local ``c<i>`` inside loops, flushed at
  ``return``; the function's accumulator outside — and adds the unit's
  instructions to the local step count (``steps_``, written back to the
  engine around calls and at exit), so a step-limit trap fires at the
  unit it always fired at.  Per-unit instruction/flop/int-op/translation
  totals are computed at generation time; the trace counters are the
  unit counts times those totals, derived when the engine harvests.
  Memory events append straight to the launch's columnar buffer; one past
  the lane's cap is a compare and a local increment.

* **Traps are priced on the cold path.**  Nothing tracks the current unit:
  :attr:`JitEntry.line_units` maps every line of the text to the unit it
  belongs to, and :meth:`CompiledEngine._unwind` reads the trapping unit —
  and whatever counts the unwound frames still held in locals — off the
  traceback.

* **Bind, don't regenerate.**  Nothing in the text depends on a region:
  the backing ``bytearray``, the bases and limits, ``svm_const``, the
  accumulator, the callees' bound functions and the globals' addresses
  are the arguments of the module's one ``_bind`` factory, whose closure
  is the function.  :class:`JitCode` (per-unit totals, and per entry —
  ``f`` and the lanes entry, each loaded when first used — its text,
  code object and line table) is stored in the dict the program owns
  (``CompiledProgram.jit_code``, never pickled); the per-runtime
  :class:`CodeCache` calls the factory.  ``code_cache.codegen`` counts
  generations, ``code_cache.compilations``/``.hits`` keep their
  per-runtime meaning.

* **The launch is the unit of work.**  The work-item loop is generated
  with the kernel: its lanes entry, printed from the same tree as ``f``,
  runs a whole span of lanes in one frame (``_LANES_MODULE``).
  :meth:`CompiledEngine.run_launch` calls it once, for a GPU launch and
  a CPU chunk alike — one engine, one lookup, one event buffer per
  launch; per lane ``global_id``, private memory, the sequence numbers,
  step count, unit counts and event cap are reset, all locals of that
  frame, and a lane appends its counts to the launch's rows itself.

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
import threading
import weakref
from array import array
from functools import partial
from itertools import chain
from struct import Struct, pack
from textwrap import indent
from typing import Optional

import numpy as np

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
from ..ir.types import FloatType, IntType, PointerType
from ..ir.values import Constant, Function, GlobalVariable, Instruction
from ..svm.memory import MemoryFault
from .buffers import LaunchTrace, PrivateMemoryPool, UnitTable, launch_events, per_item_cap
from .interp import (
    _BINOP_EVAL,
    _CAST_EVAL,
    _FLOAT_OPS,
    _MAX_CALL_DEPTH,
    _MAX_STEPS_DEFAULT,
    ExecTrace,
    ExecutionError,
    Interpreter,
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
# Error texts and the rare operations (the lookup behind a virtual call,
# heap calls) stay plain functions: the generated text names them, it does
# not repeat them.


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


def _vtarget(ctx, vslot: int, symbol: int):
    """The bound function a vtable slot names — what a virtual call does
    besides its two (inline) vtable reads.  The CPU path: GPU kernels have
    vcalls expanded into compare chains by the devirtualization pass.
    Every dispatch is a ``code_cache`` lookup, and counts as a hit."""
    target = ctx.symbols.get(symbol)
    if target is None:
        raise ExecutionError(
            f"virtual dispatch to unknown symbol {symbol:#x} "
            f"(slot {vslot}) — vtables not loaded?"
        )
    fn = ctx.code_cache.get(target, ctx.device, ctx.collect_mem_events).fn
    ctx._cover_seqs()  # the callee may have been generated just now
    return fn


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
    "_fault": _fault,
    "_step_limit": _step_limit,
    "_svm_free": _svm_free,
    "_svm_malloc": _svm_malloc,
    "_undefined": _undefined,
    "_unloaded": _unloaded,
    "_vtarget": _vtarget,
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
    reachable-block closure, the SSA register-slot assignment, how many
    operands read each value, and the superblock partition.  Both the generated-code engine and the vector
    engine compile from the same plan, which is what keeps their unit
    structure — and therefore block counts, branch stats and derived
    per-unit counters — identical by construction."""

    __slots__ = (
        "blocks",
        "terms",
        "slots",
        "uses",
        "arg_slots",
        "units",
        "unit_idx_by_block",
    )

    def __init__(self, blocks, terms, slots, uses, arg_slots, units, unit_idx_by_block):
        self.blocks = blocks
        self.terms = terms
        self.slots = slots
        self.uses = uses  # id(value) -> operands that read it
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
    uses: dict[int, int] = {}
    for arg in fn.args:
        slots[id(arg)] = len(slots)
    for block in blocks:
        for instr in block.instructions:
            slots[id(instr)] = len(slots)
            for operand in instr.operands:
                uses[id(operand)] = uses.get(id(operand), 0) + 1
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
        blocks, terms, slots, uses, arg_slots, units, unit_idx_by_block
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
# ``v<slot>``, a literal or a bound name (in either engine); {d} is the
# assignment target of the result.  The scalar
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

#: An f32 result goes through the engine's float32 slot (``f32_``, a
#: one-element ``memoryview`` cast to ``"f"``): the C ``(float)`` cast the
#: interpreter's native ``struct.Struct("f")`` round trip does — a finite
#: value past the f32 range rounds to ``inf``, nothing raises.
_F32_ROUND = "f32_[0] = {a}\n{d} = f32_[0]\n"
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

#: The surface bounds test of a ``{size}``-byte access: ``l<size>`` is the
#: region's size less ``size``, bound per runtime.
_BOUNDS = """\
    off_ = {a} - base
    if not 0 <= off_ <= l{size}:
        raise _fault({device!r}, {a}, {size}, base, end)
"""

_LOAD = f"""\
if {_PRIVATE}:
    {{d}} = {{codec}}(ctx._priv_buf or ctx._acquire_private(), {{a}} - {_PB:#x})[0]
else:
{{event}}{_BOUNDS}\
    {{d}} = {{codec}}(data, off_)[0]
"""

_STORE = f"""\
if {_PRIVATE}:
    off_ = {{a}} - {_PB:#x}
    {{codec}}(ctx._priv_buf or ctx._acquire_private(), off_, {{value}})
    if off_ + {{size}} > ctx._priv_dirty:
        ctx._priv_dirty = off_ + {{size}}
else:
{{event}}{_BOUNDS}\
    {{codec}}(data, off_, {{value}})
"""

#: A scalar atomic: a plain read-modify-write, since work-items run one at
#: a time (the timing models charge atomics more).  Shared, it checks
#: bounds, reads, records its event and writes, so a faulting access
#: records nothing; ``{write_*}`` store the old value ``o_`` combined with
#: the operands into ``p_`` / ``data``, and ``{d}`` gets the old value.
_ATOMIC = f"""\
if {_PRIVATE}:
    off_ = {{a}} - {_PB:#x}
    p_ = ctx._priv_buf or ctx._acquire_private()
    o_ = {{load}}(p_, off_)[0]
    {{write_private}}
    if off_ + {{size}} > ctx._priv_dirty:
        ctx._priv_dirty = off_ + {{size}}
else:
{_BOUNDS}\
    o_ = {{load}}(data, off_)[0]
{{event}}    {{write_shared}}
{{d}} = o_
"""

#: atomic -> its combined value over the old one (``o_``) and the
#: operands {b} and {c}: what ``min`` / ``max`` return, spelled inline.
_ATOMIC_NEW = {
    "atomic.add.i32": "o_ + {b}",
    "atomic.add.f32": "o_ + {b}",
    "atomic.min.i32": "{b} if {b} < o_ else o_",
    "atomic.max.i32": "{b} if {b} > o_ else o_",
    "atomic.cas.i32": "{c} if o_ == {b} else o_",
}

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
#: the event is only counted — one compare.  ``seqs_[{slot}]`` is the
#: instruction's sequence number (see :meth:`CodeCache._generate` for the
#: slots), bumped only for a kept row: once a lane (GPU) or a trace (CPU)
#: refuses a row it refuses every later one, so a later number is never
#: observed.
_EVENT = """\
if len(ev_) < ev_cap_:
    seq_ = seqs_[{slot}]
    seqs_[{slot}] = seq_ + 1
{canon}    ev_.fromlist([{uid}, seq_, {ca}, {size}, {flag}])
else:
    drop_ += 1
"""

#: ... and in a lanes entry with no callees, where the number is the
#: local ``q{slot}`` (see :class:`_Printer`).
_EVENT_LOCAL = """\
if len(ev_) < ev_cap_:
{canon}    ev_.fromlist([{uid}, q{slot}, {ca}, {size}, {flag}])
    q{slot} += 1
else:
    drop_ += 1
"""

#: GPU surface addresses are reported in CPU space so both devices
#: produce comparable access streams — by the row itself, or, where a
#: lanes entry with no callees wrote every row of its buffer, by
#: :meth:`CompiledEngine._to_cpu_space` over the address column.
_CANONICAL_GPU = "    ca_ = {a} - svm_const if base <= {a} < cend else {a}\n"

#: ... followed by the result's assignment from ``t_``.
_DIV = """\
try:
    t_ = {call}
except ZeroDivisionError as exc:
    raise ExecutionError({prefix!r} + repr({instr})) from exc
"""

_TRANSLATE = f"{{d}} = {{a}} if ({_PRIVATE}) or {{a}} == 0 else {{a}} {{sign}} svm_const"

#: The private window and null stay put; ``svm_const`` is the machine's.
_NP_TRANSLATE = """\
t_ = {a}.view(U64)
{d} = where(((t_ - PB) < PWIDTH) | (t_ == 0), {a}, (t_ {sign} m.svm_u).view(I64))
"""

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
#: the engine already knows to harvest it, and ``acc_`` — the accumulator
#: with the code that reads it — is what the harvest list takes.
_PROLOGUE = """\
if d_ > {max_depth}:
    raise ExecutionError({too_deep!r})
if not cnt_[{flag}]:
    cnt_[{flag}] = 1
    ctx._entered.append(acc_)
steps_ = ctx._steps
max_ = ctx.max_steps
"""

_TRACE_PROLOGUE = """\
seqs_ = ctx._mem_seq
ev_ = ctx._ev_data
ev_cap_ = ctx._ev_cap
drop_ = 0
"""

_F32_PROLOGUE = "f32_ = ctx._f32\n"

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

# -- the lanes entry ----------------------------------------------------------
#
# ``lanes(ctx, span, args_of, launch_)`` runs the function's text once per
# index of ``span`` in one frame: what ``f`` keeps per call — the step
# count, the unit counts, the drops — are locals of the lane loop, and a
# ``ret`` ends the lane (a ``continue`` of the loop, or a ``break`` out of
# the loops around it).  ``launch_`` is the launch's columns; every lane,
# on either device, starts from what a fresh engine would have and ends
# by appending its row.

_LANES_MODULE = """\
def _bind({params}):
    def lanes(ctx, span, args_of, launch_):
{body}
    return lanes
"""

#: What a lanes entry loads once.  ``per_`` and ``budget_`` are the
#: per-lane and launch event caps as lengths of ``ev_``; naming the
#: accumulator keeps it in the frame, where a trap's unwind finds it.
_LANES_PROLOGUE = """\
max_ = ctx.max_steps
ev_ = ctx._ev_data
per_, budget_, kept_, dropped_, caps_, rows_, columns_ = launch_
cnt_, acc_
"""

#: Every lane: its index, where ``gpu.global_id`` and a trap's stamp read it ...
_LANE_START = "ctx.global_id = index_\n"

#: ... an empty, all-zero private window ...
_PRIVATE_RESET = """\
ctx._private_next = 4096
if ctx._priv_dirty:
    ctx.reset_private_memory()
"""

#: ... sequence numbers that start over (with callees, a fresh list: a
#: callee a virtual call generates grows the one its frames hold) ...
_SEQ_RESET = "seqs_ = ctx._mem_seq = [0] * len(seqs_)\n"

#: ... and steps and drops that start over too, under the lane's cap
#: (``per_item_cap``), at most what the lanes before it left.
_LANE_CAP = """\
steps_ = 0
drop_ = 0
start_ = len(ev_)
ev_cap_ = start_ + per_
if ev_cap_ > budget_:
    ev_cap_ = budget_
"""

#: A lane of a function with callees enters the function as ``f`` does,
#: and shows the callees its cap.
_LANE_ENTER = """\
ctx._ev_cap = ev_cap_
cnt_[{flag}] = 1
ctx._entered.append(acc_)
"""

#: A lane's row of the launch's event columns.
_LANE_END = """\
kept_.append((len(ev_) - start_) // 5)
caps_.append((ev_cap_ - start_) // 5)
dropped_.append(drop_)
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


def unit_totals(plan: FunctionPlan) -> tuple:
    """Per unit of ``plan``, its :class:`_UnitTotals` and its step count:
    what entering the unit adds to a lane's trace and to its steps, in the
    generated code of either engine."""
    totals, n_steps = [], []
    for chain in plan.units:
        unit = _UnitTotals(chain)
        steps = 0
        for block in chain:
            term = plan.terms[id(block)]
            if term is not None and term.op == "condbr":
                unit.branch_uid = term.uid
            for instr in block.instructions:
                unit.d_instr += 1
                if instr.op == "phi":
                    continue
                steps += 1
                if instr is term:
                    break
                account(instr, unit)
        totals.append(unit)
        n_steps.append(steps)
    return totals, n_steps


class _Printer:
    """Writes the module text for one ``(function, device, collect)``: the
    region tree of the function's CFG (:mod:`repro.ir.structure`) as one
    Python function — ``Loop`` a ``while True``, ``If`` an ``if``, phis the
    tuple assignment of each ``Jump``, SSA values locals ``v<slot>``.

    :func:`plan_function`'s units stay what is counted: where the tree
    reaches a unit's first block the text bumps that unit's count and
    charges its steps.  Every line remembers the unit it belongs to
    (``line_units``), which is how a trap finds its superblock.

    With ``lanes`` the same tree is the body of a lanes entry's loop (see
    ``_LANES_MODULE``): every count is a local, and a ``ret`` ends the
    lane."""

    def __init__(
        self,
        function: Function,
        device: str,
        collect: bool,
        plan: FunctionPlan,
        seq_base: int,
        lanes: bool = False,
    ):
        self.name = function.name
        self.device = device
        self.collect = collect
        self.plan = plan
        self.slots = plan.slots
        self.entry = plan.blocks[0]
        self.seq_base = seq_base
        self.seq_slots: dict = {}  # traced instruction uid -> its seqs_ slot
        self.consts: list = []  # k<n>: the generated module's namespace
        self._const_names: dict = {}
        self.callees: list = []  # s<n>: bound per runtime to the callee
        self.gvars: list = []  # g<n>: bound per runtime to its address
        self.totals, self.n_steps = unit_totals(plan)  # per unit
        self.head_of = {id(chain[0]): i for i, chain in enumerate(plan.units)}
        self.lanes = lanes
        # A lanes entry that calls nothing owns its rows and its sequence
        # numbers: a traced instruction's number is a local ``q<slot>``,
        # zeroed per lane with the unit counts, and on the GPU the rows
        # keep the surface address, which the engine moves to CPU space.
        self.callee_free = lanes and not any(
            instr.op == "vcall" or (instr.op == "call" and isinstance(instr.callee, Function))
            for block in plan.blocks
            for instr in block.instructions
        )
        self.raw_addresses = self.callee_free and device == "gpu"
        # what is being written
        self.lines: list = []  # (depth, text or None for a return, unit)
        self.depth = int(lanes)  # a lane's body is inside the lane loop
        self.unit = -1
        self.loops = 0  # Python loops around the current line
        self.exits = 0  # ``ret``s that leave a lane through the loops around them
        self.calls = False  # whether the text calls another function
        self.local_counts: list[int] = []  # units counted in ``c<i>``
        self.local_taken: list[int] = []  # ... whose branch counts in ``b<i>``
        self.traced = False
        self.rounds = False  # whether the text rounds through f32_
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
                exits = self.exits
                self._nested(stmt.body, loop=True)
                self._exit_check(exits)
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

    def _exit_check(self, exits: int) -> None:
        """After a loop a lane's ``ret`` left: leave the next loop out, or
        at the lane's top level go on with the next lane."""
        if self.exits == exits:
            return
        self._line("if x_:")
        self.depth += 1
        if self.loops:
            self._line("break")
        else:
            self._line("x_ = 0")
            self._line("continue")
        self.depth -= 1

    def _enter_unit(self, index: int) -> None:
        self.unit = index
        if self.loops or self.lanes:
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
            if not self.lanes:
                self._line(f"return{value}")
            elif self.loops:
                self.exits += 1
                self._line("x_ = 1")
                self._line("break")
            else:
                self._line("continue")
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
        if self.loops or self.lanes:
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
        exits = self.exits
        self.depth += 1
        self.loops += 1
        self._arms(variable, members, 0, len(members))
        self.loops -= 1
        self.depth -= 1
        self._exit_check(exits)

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
        zeroed = [f"c{i}" for i in self.local_counts] + [f"b{i}" for i in self.local_taken]
        zero = " = ".join(zeroed) + " = 0\n" if zeroed else ""
        if self.lanes:
            prologue, ret = self._lane_frame(flush, zeroed, zero)
        else:
            prologue = _PROLOGUE.format(
                max_depth=_MAX_CALL_DEPTH,
                too_deep=f"call depth limit exceeded in {self.name}",
                flag=3 * n_units,
            )
            ret = flush + ["ctx._steps = steps_"]
            if self.traced:
                prologue += _TRACE_PROLOGUE
                ret += ["if drop_:", "    ctx._dropped += drop_"]
            if self.rounds:
                prologue += _F32_PROLOGUE
            prologue += zero
        out = [(0, line, -1) for line in prologue.splitlines()]
        for depth, text, unit in self.lines:
            if text is None:
                out.extend((depth, line, unit) for line in ret)
            else:
                out.append((depth, text, unit))
        body = "\n".join("    " * (depth + 2) + text for depth, text, _unit in out)
        line_units = [-1] * _BODY_LINE + [unit for _depth, _text, unit in out] + [-1]
        return body, line_units

    def _lane_frame(self, flush: list, zeroed: list, zero: str) -> tuple:
        """A lanes entry around the body: (what comes before it, what a
        ``ret`` does before it ends the lane)."""
        prologue = _LANES_PROLOGUE
        if self.callee_free:
            seqs = [f"q{slot}" for slot in self.seq_slots.values()]
            fresh = " = ".join(seqs) + " = 0\n" if seqs else ""
        elif self.collect and (self.traced or self.calls):
            prologue += "seqs_ = ctx._mem_seq\n"
            fresh = _SEQ_RESET
        else:
            fresh = ""
        if self.rounds:
            prologue += _F32_PROLOGUE
        if self.calls:
            prologue += "d_ = 0\n"
        if self.exits:
            prologue += "x_ = 0\n"
        args = [f"v{slot}" for slot in self.plan.arg_slots]
        lane = _LANE_START + _PRIVATE_RESET
        if args:
            lane += ", ".join(args) + ("," if len(args) == 1 else "") + " = "
        lane += "args_of(index_)\n" + fresh + _LANE_CAP + zero
        if self.calls:
            # the function and its callees go through the engine's harvest
            lane += _LANE_ENTER.format(flag=3 * len(self.totals))
            row = flush + ["drop_ += ctx._end_lane(columns_, len(kept_))"]
        else:
            row = [f"rows_.append(({', '.join(zeroed)}{',' if len(zeroed) == 1 else ''}))"]
        prologue += "for index_ in span:\n" + indent(lane, "    ")
        return prologue, row + _LANE_END.splitlines()

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
            self._vcall(instr)
        else:
            message = f"unhandled opcode {op} in {self.name}"
            self._line(f"raise ExecutionError({message!r})")

    def _assign(self, instr, text: str, f32: bool = False) -> None:
        """The result's assignment; an f32 one through the float32 slot."""
        if f32:
            self.rounds = True
            self._emit(_F32_ROUND, a=text, d=self._target(instr))
        else:
            self._line(f"{self._target(instr)} = {text}")

    def _event(self, instr, a: str, size: int, is_store: bool) -> str:
        """The trace text of one shared-memory access, indented for the
        templates' ``else:`` arm; empty when events are off."""
        if not self.collect:
            return ""
        self.traced = True
        slot = self.seq_slots.setdefault(instr.uid, self.seq_base + len(self.seq_slots))
        canonical = self.device == "gpu" and not self.raw_addresses
        text = (_EVENT_LOCAL if self.callee_free else _EVENT).format(
            slot=slot,
            uid=instr.uid,
            canon=_CANONICAL_GPU.format(a=a) if canonical else "",
            ca="ca_" if canonical else a,
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
        if term is None or term.op != "condbr" or self.plan.uses.get(id(compare)) != 1:
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
            self._emit(
                _DIV,
                call=text,
                prefix=f"division by zero in {self.name}: ",
                instr=self._bind(instr),
            )
            text = "t_"
        if is_int:
            text = _wrap(type_, text if exact else f"int({text})")
        self._assign(instr, text, isinstance(type_, FloatType) and type_.bits == 32)

    def _cast(self, instr) -> None:
        type_ = instr.type
        a = self._operand(instr.operands[0])
        narrow, template = _CASTS.get(instr.op, (None, None))
        f32 = False
        if narrow == "int" and isinstance(type_, IntType):
            text = _wrap(type_, template.format(a=a))
        elif narrow == "float" and isinstance(type_, FloatType):
            text = template.format(a=a)
            f32 = type_.bits == 32
        elif narrow == "f32":
            text, f32 = a, True
        elif narrow == "same":
            text = template.format(a=a)
        else:  # a target type the table has no text for
            text = f"{self._bind(_CAST_EVAL[instr.op])}({a}, {self._bind(type_)})"
        self._assign(instr, text, f32)

    def _call(self, instr) -> None:
        callee = instr.callee
        args = [self._operand(v) for v in instr.operands]
        if isinstance(callee, Function):
            self.calls = True
            entry = self._per_runtime(self.callees, callee, "s")
            call = f"{entry}({', '.join(['ctx', 'd_ + 1', *args])})"
            self._emit(_CALL, d=self._target(instr), call=call)
            return
        text = self._intrinsic(instr, getattr(callee, "name", None), args)
        if text is not None:
            self._assign(instr, text)

    def _vcall(self, instr) -> None:
        """The vtable pointer and the slot's symbol, read untraced as the
        interpreter reads them; then a call through what the symbol names,
        its other operands evaluated after the reads, also as there."""
        obj, *rest = (self._operand(v) for v in instr.operands)
        obj = self._named(obj, "o_")
        self._read_untraced(obj, "<Q")
        slot = self._named(f"t_ + {8 * instr.vslot}" if instr.vslot else "t_", "a_")
        self._read_untraced(slot, "<q")
        args = ", ".join([obj, *rest])
        self.calls = True
        call = f"_vtarget(ctx, {instr.vslot}, t_)(ctx, d_ + 1, {args})"
        self._emit(_CALL, d=self._target(instr), call=call)

    def _read_untraced(self, a: str, fmt: str) -> None:
        """``t_`` = the ``fmt`` scalar at address ``a``."""
        codec = self._codec(fmt, "unpack_from")
        self._emit(_LOAD, a=a, d="t_", codec=codec, size=8, device=self.device, event="")

    def _atomic(self, instr, name: str, args: list) -> None:
        """A scalar atomic in one statement group (``_ATOMIC``); one the
        table has no row for, or on a pointee with no scalar format,
        traps as the interpreter's read would."""
        pointee = instr.callee.ftype.params[0].pointee
        fmt = _scalar_format(pointee)
        new = _ATOMIC_NEW.get(name)
        if new is None or fmt is None:
            message = f"cannot load aggregate {pointee} as scalar" if new else f"unknown atomic {name}"
            self._line(f"raise ExecutionError({message!r})")
            return
        a = self._named(args[0], "a_")
        operands = instr.operands[1:3]
        texts = [
            text if isinstance(value, Constant) else self._named(text, f"b{i}_")
            for i, (value, text) in enumerate(zip(operands, args[1:3]))
        ]
        b, c = (texts + ["None", "None"])[:2]  # a missing operand fails as None
        new = new.format(b=b, c=c)
        if isinstance(pointee, IntType):
            exact = all(_intlike(value) for value in operands)
            new = _wrap(pointee, new if exact else f"int({new})")
        size = pointee.size()

        def write(buf: str) -> str:
            if isinstance(pointee, FloatType):
                # A sum past the f32 range raises in ``pack`` before a byte
                # is written (``pack_into`` zero-fills its target first).
                return f"{buf}[off_:off_ + {size}] = {self._codec(fmt, 'pack')}({new})"
            return f"{self._codec(fmt, 'pack_into')}({buf}, off_, {new})"

        self._emit(
            _ATOMIC,
            a=a,
            d=self._target(instr),
            load=self._codec(fmt, "unpack_from"),
            write_private=write("p_"),
            write_shared=write("data"),
            size=size,
            device=self.device,
            event=self._event(instr, a, size, True),
        )

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
            self._atomic(instr, name, args)
            return None
        if name is not None and name.startswith("math."):
            short = name.split(".")[1]
            fn = MATH_EVAL.get(short)
            if fn is None:
                self._line(f"raise KeyError({short!r})")
            else:
                text = f"{self._bind(fn)}({', '.join(args)})"
                self._assign(instr, text, name.endswith(".f32"))
            return None
        message = f"unknown intrinsic {name}"
        self._line(f"raise ExecutionError({message!r})")
        return None


#: ``l<n>`` is the region's size less ``n``: the largest offset of an
#: ``n``-byte access (the one bounds compare of ``_BOUNDS``).
_REGION_PARAMS = ("data", "base", "l1", "l2", "l4", "l8", "end", "cend", "svm_const")


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
    """One function's generated code for one ``(device, collect)``:
    region-independent, so every runtime over the same program shares it.
    It has two entries, each a module printed from the same region tree
    and loaded when first asked for (:meth:`entry`): ``f(ctx, depth,
    *args)``, what a call runs, and ``lanes(ctx, span, args_of, launch_)``,
    what a launch runs (see ``_LANES_MODULE``) — a kernel is only ever
    launched, a callee only called.  Each module's ``factory(*region
    constants, accumulator, (accumulator, code), *callee entries, *global
    addresses)`` returns its function; ``zeros`` is what a harvest resets
    the accumulator to.  Its traced instructions keep their sequence
    numbers in the engine's list at slots ``seq_base`` up to ``seq_end``,
    in either entry: the first one printed fixes them, and the units,
    callees and globals, for both."""

    __slots__ = (
        "function",
        "name",
        "device",
        "collect",
        "seq_base",
        "seq_end",
        "units",
        "table",
        "zeros",
        "callees",
        "gvars",
        "entries",
    )

    def __init__(
        self,
        function: Function,
        device: str,
        collect: bool,
        seq_base: int = 0,
        lanes: bool = False,
    ):
        self.function = function
        self.name = function.name
        self.device = device
        self.collect = collect
        self.seq_base = seq_base
        self.seq_end = seq_base
        self.units: tuple = ()  # one _UnitTotals per unit; none without a body
        self.table = UnitTable(())
        self.zeros = (0,)
        self.callees: tuple = ()
        self.gvars: tuple = ()
        self.entries: list = [None, None]  # the JitEntry of f, of lanes
        printer = self._load(lanes)
        if printer is not None:
            self.seq_end += len(printer.seq_slots)
            self.units = tuple(printer.totals)
            self.table = UnitTable(self.units)
            self.zeros = (0,) * (3 * len(self.units) + 1)
            self.callees = tuple(printer.callees)
            self.gvars = tuple(printer.gvars)

    def entry(self, lanes: bool) -> "JitEntry":
        """The module of ``f`` or of ``lanes``, loaded on first use."""
        entry = self.entries[lanes]
        if entry is None:
            with _GENERATING:
                if self.entries[lanes] is None:
                    self._load(lanes)
                entry = self.entries[lanes]
        return entry

    def _load(self, lanes: bool) -> Optional["_Printer"]:
        """Print and load one entry; its printer, or ``None`` for a
        function without a body."""
        entry = JitEntry(self)
        plan = plan_function(self.function)
        printer = None
        if plan is not None:
            printer = _Printer(self.function, self.device, self.collect, plan, self.seq_base, lanes)
            body, line_units = printer.text(_region_tree(self.function, plan))
            entry.line_units = tuple(line_units)
            n_units = len(printer.totals)
            entry.flushed = tuple(
                [(f"c{i}", i) for i in printer.local_counts]
                + [(f"b{i}", n_units + i) for i in printer.local_taken]
            )
            entry.slots = np.array([slot for _local, slot in entry.flushed], np.int64)
            params = [*_REGION_PARAMS, "cnt_", "acc_"]
            params += [f"s{i}" for i in range(len(printer.callees))]
            params += [f"g{i}" for i in range(len(printer.gvars))]
            entry.source = (_LANES_MODULE if lanes else _MODULE).format(
                params=", ".join(params),
                args="".join(f", v{slot}" for slot in plan.arg_slots),
                body=body,
            )
            names = dict(_RUNTIME_NAMES, __jit__=entry)
            names.update((f"k{i}", value) for i, value in enumerate(printer.consts))
            entry.filename, namespace = load_generated(
                f"repro-jit {self.name}.{self.device}", entry.source, names
            )
            entry.factory = namespace["_bind"]
            entry.raw_addresses = printer.raw_addresses
        self.entries[lanes] = entry  # complete: ``entry`` reads it unlocked
        return printer


class JitEntry:
    """One loaded module of a :class:`JitCode`: its text, the ``_bind``
    factory (``None`` without a body), the line → unit table, the count
    locals a ``return`` (or a lane's end) flushes, as ``(local,
    accumulator slot)`` and the slots alone as an index array (where a
    lane of a lanes entry with no callees puts its row), and whether its
    rows keep GPU addresses for the engine to move to CPU space.  The
    module's ``__jit__``, where a trap finds it."""

    __slots__ = (
        "code", "source", "filename", "factory", "line_units", "flushed", "slots", "raw_addresses"
    )

    def __init__(self, code: JitCode):
        self.code = code
        self.source = ""
        self.filename = ""
        self.factory = None
        self.line_units: tuple = ()  # line number -> unit index, -1 outside any
        self.flushed: tuple = ()
        self.slots = np.zeros(0, np.int64)
        self.raw_addresses = False

    def publish(self) -> None:
        publish_generated(self.filename, self.source)


_GENERATING = threading.Lock()


class CodeCache:
    """Per-runtime cache of bound functions (the simulator-level analogue
    of the paper's ``gpu_program_t``/``gpu_function_t`` cache).

    Keyed by ``(function, device, collect_events)``.  Bound code closes
    over one region's backing memory, so the cache is created per
    :class:`~repro.svm.region.SharedRegion` and shared by every engine the
    runtime spawns; the generated :class:`JitCode` behind each entry lives
    in ``code``, the dict of whoever owns the IR (a runtime passes its
    program's ``jit_code``), so only the first runtime over a program pays
    for generation.  ``addresses`` (global name -> address) is what the
    owning runtime gave the program's globals in its region; binding
    closes over those.  ``compilations``/``hits`` count this cache's binds
    and replays (tests assert compile-once/launch-many on them),
    ``codegen`` the generations it had to do itself.  ``seq_end`` is the
    length an engine's sequence-number list needs for every function this
    cache has bound.
    """

    def __init__(
        self,
        region,
        counters=None,
        code: Optional[dict] = None,
        addresses: Optional[dict] = None,
    ):
        self.region = region
        self.addresses = {} if addresses is None else addresses
        self._cache: dict[tuple, "CompiledFunction"] = {}
        self._code = {} if code is None else code
        self.compilations = 0
        self.hits = 0
        self.codegen = 0
        self.seq_end = 0
        # Optional repro.obs.CounterRegistry; mirrors the totals above as
        # code_cache.hits / .compilations / .codegen when attached.
        self.counters = counters

    def get(
        self,
        function: Function,
        device: str,
        collect_events: bool,
        uses: int = 1,
        lanes: bool = False,
    ) -> "CompiledFunction":
        """The bound function, for ``uses`` invocations: a launch asks
        once for all its lanes, and counts as that many lookups.  A
        function generated here is printed first as the entry ``lanes``
        selects (a launch's) — the other is printed if it is ever asked for."""
        key = (function, device, collect_events)
        compiled = self._cache.get(key)
        hits = uses
        if compiled is None:
            hits -= 1
            compiled = self._compile(key, lanes)
        if hits > 0:
            self.hits += hits
            if self.counters is not None:
                self.counters.add("code_cache.hits", hits)
        return compiled

    def _compile(self, key: tuple, lanes: bool = False) -> "CompiledFunction":
        function, device, collect_events = key
        self.compilations += 1
        if self.counters is not None:
            self.counters.add("code_cache.compilations")
        code = self._code.get(key)
        if code is None:
            code = self._generate(key, lanes)
        self.seq_end = max(self.seq_end, code.seq_end)
        compiled = CompiledFunction(code)
        # Register before binding the body so recursive (and mutually
        # recursive) calls resolve to the same object.
        self._cache[key] = compiled
        compiled._bind(self, device, collect_events)
        return compiled

    def _generate(self, key: tuple, lanes: bool) -> JitCode:
        """Generate ``key``'s code into the shared dict.  The text numbers
        its sequence-number slots after every other text there for the
        same device, so all the code one engine runs — and every runtime
        over the program — agrees on them.  One generation at a time: two
        runtimes racing must not hand out one slot twice."""
        device = key[1]
        with _GENERATING:
            code = self._code.get(key)
            if code is None:
                base = max(
                    (c.seq_end for (_f, d, _c), c in self._code.items() if d == device),
                    default=0,
                )
                code = self._code[key] = JitCode(*key, base, lanes)
                self.codegen += 1
                if self.counters is not None:
                    self.counters.add("code_cache.codegen")
        return code


class CompiledFunction:
    """A function's :class:`JitCode` bound to one runtime's region.

    ``counts`` is what its invocations accumulate into and the engine
    harvests (per lane, per call): ``3 * units + 1`` slots — each unit's
    executions, then each unit's taken branches, then (written only when
    a trap unwinds) the executions that never reached the unit's branch,
    then the flag/rank slot that says the engine has the function on its
    harvest list.  The bound function closes over ``counts`` and the
    pair ``(counts, code)`` it puts on that list, never over this
    object, so a dropped runtime's bound code is freed by reference
    counting, region and all.  ``args`` are what :meth:`_bind` found for
    the region; each entry is bound to them when first used (``fn`` at the
    first call, :meth:`lanes` at the first launch)."""

    __slots__ = ("code", "function", "name", "args", "_fn", "_run", "counts", "__weakref__")

    def __init__(self, code: JitCode):
        self.code = code
        self.function = code.function
        self.name = code.name
        self.args = None  # until bound
        self._fn = self._run = None
        self.counts = list(code.zeros)

    def _bind(self, cache: CodeCache, device: str, collect: bool) -> None:
        code = self.code
        if not code.units:  # a function without a body
            self._fn = partial(_no_body, self.name)
            self._run = partial(_no_body_lanes, self.name)
            self.args = ()
            return
        region = cache.region
        base = region.gpu_base if device == "gpu" else region.cpu_base
        size = region.size
        self.args = (
            region.physical.data,
            base,
            size - 1,
            size - 2,
            size - 4,
            size - 8,
            base + size,
            base + region.surface.size,
            region.svm_const,
            self.counts,
            (self.counts, code),
            *[cache.get(callee, device, collect).entry() for callee in code.callees],
            *[cache.addresses.get(gvar.name) for gvar in code.gvars],
        )

    @property
    def fn(self):
        """The bound ``f``."""
        if self._fn is None:
            self._fn = self.code.entry(False).factory(*self.args)
        return self._fn

    def lanes(self):
        """The bound lanes entry."""
        if self._run is None:
            self._run = self.code.entry(True).factory(*self.args)
        return self._run

    def entry(self):
        """What a caller's text calls: the function itself, or — for a
        callee still being bound, a recursion's back edge — a trampoline
        that finds it at call time.  The trampoline holds this object
        weakly (the code cache holds it strongly), so a recursion is not
        a reference cycle."""
        if self.args is not None:
            return self.fn
        target = weakref.ref(self)
        return lambda *args: target().fn(*args)


def _no_body(name: str, ctx, depth, *args):
    if depth > _MAX_CALL_DEPTH:
        raise ExecutionError(f"call depth limit exceeded in {name}")
    raise ExecutionError(f"{name} has no body")


def _no_body_lanes(name: str, ctx, span, args_of, launch_):
    ctx.global_id = span[0]
    raise ExecutionError(f"{name} has no body")


class CompiledEngine:
    """Drop-in replacement for :class:`~repro.exec.interp.Interpreter`
    that executes through the generated-code cache.

    Mirrors the interpreter's constructor and ``call_function`` contract
    (device address spaces, trace lifecycle, private memory and
    memory-event sequence numbers).  The unit of work it is built for is
    the *launch*: :meth:`run_launch` (a columnar
    :class:`~repro.exec.buffers.LaunchTrace`, what both backends price)
    calls the kernel's generated lanes entry, whose loop runs every
    work-item in one frame, and ``call_function`` is a launch of one.

    Generated functions keep their counts in locals and flush them into
    their :class:`CompiledFunction`'s accumulator on return; the engine
    harvests the accumulators of the functions that were entered
    (``_entered``) once per call, and per lane of a launch whose
    kernel has callees (a callee-free kernel's lane appends its counts to
    the launch's rows itself).
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
        # Sequence numbers by slot (``JitCode.seq_end``), grown in place.
        self._mem_seq: list[int] = []
        # The float32 slot f32 results round through: the engine's own,
        # since generated text is shared by runtimes on other threads.
        self._f32 = memoryview(bytearray(4)).cast("f")
        self._priv_buf: Optional[bytearray] = None
        self._priv_dirty = 0
        self._private_next = 0x1000
        # (accumulator, JitCode) of each function entered since the last
        # harvest, in entry order
        self._entered: list[tuple] = []
        self._dropped = 0
        # Generated code appends event rows to ``_ev_data`` (the trace's
        # own buffer) while it is shorter than ``_ev_cap``.
        self._ev_data = self.trace.mem_events.data
        self._ev_cap = self.trace.mem_event_cap * 5

    # -- public entry points ---------------------------------------------

    def call_function(self, function: Function, args: list) -> object:
        """One invocation, traced into ``self.trace``: a launch of one."""
        if len(args) != len(function.args):
            raise ExecutionError(
                f"{function.name}: expected {len(function.args)} args, "
                f"got {len(args)}"
            )
        fn = self._lookup(function, 1).fn
        try:
            return fn(self, 0, *args)
        except BaseException as exc:
            self._unwind(exc)
            raise
        finally:
            self._harvest()

    def run_launch(self, function: Function, span, args_of, budget: int) -> LaunchTrace:
        """``function`` for every index of ``span`` as one launch (a GPU
        launch or a CPU chunk): each work-item starts from what a fresh
        engine would have (sequence numbers, step count, private memory),
        and its events, counts and cap go straight into the launch's
        columns.

        The cap is per work-item (:func:`~repro.exec.buffers.per_item_cap`)
        with a *global* budget: once the work-items collectively reach
        ``budget`` the remaining lanes record nothing — without the
        running total, n floor-capped GPU lanes would retain up to
        n * 1000 events.  Overflow is visible: each lane counts its
        drops."""
        n = len(span)
        events = array("Q")
        kept, dropped, caps = array("q"), array("q"), array("q")
        rows: list = []  # per lane, a callee-free kernel's counts (``flushed`` order)
        columns: dict = {}  # JitCode -> (lanes, harvested accumulators)
        functions = []  # (UnitTable, lanes, per-unit counts and taken counts of those lanes)
        if n:
            compiled = self._lookup(function, n, lanes=True)
            run = compiled.lanes()
            per_item = per_item_cap(budget, n, self.device)
            own = self._ev_data, self._ev_cap
            self._ev_data = events
            try:
                run(self, span, args_of, (5 * per_item, 5 * budget, kept, dropped, caps, rows, columns))
            except BaseException as exc:
                self._unwind(exc)
                raise
            finally:
                self._ev_data, self._ev_cap = own
                self._harvest()  # a trapped lane's counts: the accumulators end clean
                self.release_private_memory()
            if rows:
                # per lane its row, a value per ``flushed`` slot: one pack
                # is about half of what np.array takes over the tuples
                code, slots = compiled.code, compiled.code.entry(True).slots
                flat = pack(f"<{n * len(slots)}q", *chain.from_iterable(rows))
                per_unit = np.zeros((2 * len(code.units), n), np.int64)
                per_unit[slots] = np.frombuffer(flat, np.int64).reshape(n, len(slots)).T
                functions.append((code.table, slice(None), per_unit))
        events_of = launch_events(events, kept, dropped, caps)
        del events  # the columns hold the events now
        if n and compiled.code.entry(True).raw_addresses:
            self._to_cpu_space(events_of["address"])
        for code, (lanes, accumulators) in columns.items():
            # per lane: unit counts, taken counts, trap counts, the entered flag
            width = len(code.units)
            harvest = np.array(accumulators, np.int64).reshape(len(lanes), 3 * width + 1)
            functions.append((code.table, np.array(lanes, np.int64), harvest[:, : 2 * width].T))
        return LaunchTrace.from_unit_counts(n, events_of, functions)

    def _lookup(self, function: Function, uses: int, lanes: bool = False) -> CompiledFunction:
        if self.counters is not None:
            self.counters.add("engine.invocations", uses)
            self.counters.add(f"engine.invocations.{self.device}", uses)
        compiled = self.code_cache.get(
            function, self.device, self.collect_mem_events, uses, lanes
        )
        self._cover_seqs()
        return compiled

    def _to_cpu_space(self, addresses: np.ndarray) -> None:
        """``_CANONICAL_GPU`` over a launch's address column, in place."""
        region = self.region
        surface = addresses >= region.gpu_base
        surface &= addresses < region.gpu_base + region.surface.size
        addresses[surface] -= np.uint64(region.svm_const % (1 << 64))

    def _cover_seqs(self) -> None:
        """Give every slot the code cache has bound a sequence number —
        in place, since running generated frames hold the list."""
        seqs = self._mem_seq
        seqs.extend([0] * (self.code_cache.seq_end - len(seqs)))

    # -- what generated code leaves behind -----------------------------------

    def _end_lane(self, columns: dict, lane: int) -> int:
        """The end of a launch's lane whose kernel has callees: the
        accumulators of the functions it entered go into ``columns``;
        returns the drops its callees counted."""
        for counts, code in self._entered:
            column = columns.get(code)
            if column is None:
                column = columns[code] = (array("q"), array("q"))
            column[0].append(lane)
            column[1].extend(counts)
            counts[:] = code.zeros
        self._entered.clear()
        dropped, self._dropped = self._dropped, 0
        return dropped

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
            for acc, code in self._entered:
                units = code.units
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
                acc[:] = code.zeros
            self._entered.clear()
            trace.instructions += instructions
            trace.flops += flops
            trace.int_ops += int_ops
            trace.translations += translations
            trace.calls += calls
        if self._dropped:
            trace.mem_events_dropped += self._dropped
            self._dropped = 0

    def _unwind(self, exc: BaseException) -> None:
        """Cold path: a trap is leaving generated code.  What each
        generated frame on the traceback still held in locals — loop
        counts, drops, the step count; a lanes entry's, the trapped
        lane's — goes where a return would have put it (a launch's lane
        counts in locals only, so its accumulator joins the harvest list
        first); the unit a frame was in comes from its line number, and
        that execution of the unit never reached its branch.  The
        innermost frame stamps the trapping superblock onto the exception
        for the flight recorder (repro.obs.flight), and every module on
        the way is published so the traceback shows the statement."""
        tb = exc.__traceback__
        trap = None
        while tb is not None:
            frame = tb.tb_frame
            entry = frame.f_globals.get("__jit__")
            if entry is not None:
                entry.publish()
                code = entry.code
                held = frame.f_locals
                acc = held["cnt_"]
                if not acc[-1]:  # a launch's lane counts in locals only
                    acc[-1] = 1
                    self._entered.insert(0, held["acc_"])
                for name, slot in entry.flushed:
                    acc[slot] += held.get(name, 0)
                self._dropped += held.get("drop_", 0)
                self._steps = held.get("steps_", self._steps)
                unit = entry.line_units[tb.tb_lineno]
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
