"""Scalar IR interpreter with execution-trace collection.

One interpreter serves three roles:

* functional execution of kernels on the simulated **GPU** (one invocation
  per work-item, strict surface-window address checks, SVM translation
  intrinsics applied);
* functional execution of the same IR on the simulated **CPU** (native CPU
  virtual addresses, no translation);
* **host-side** calls (constructors, sequential ``join`` fallback).

While executing it records an :class:`ExecTrace` — dynamic instruction
count, per-block execution counts, memory access events (one
:class:`~repro.exec.buffers.MemEventColumns` buffer, the layout every
engine records into) and per-branch outcome statistics.  Like the other
engines it runs a launch — a GPU launch or a CPU chunk
(:meth:`Interpreter.run_launch`) — itself.  The device timing models
(:mod:`repro.gpu.timing`, :mod:`repro.cpu.timing`) are pure functions of
these traces, which keeps functional correctness and performance modelling
cleanly separated.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..ir import Constant, Function, Instruction
from ..ir.intrinsics import MATH_EVAL
from ..ir.types import FloatType, IntType, PointerType, VoidType
from ..svm.memory import MemoryFault
from ..svm.region import SharedRegion
from .buffers import (
    DEFAULT_MEM_EVENT_CAP,
    LaunchTrace,
    MemEventColumns,
    PrivateMemoryPool,
    per_item_cap,
)


class ExecutionError(Exception):
    pass


@dataclass
class ExecTrace:
    """One work-item's or one call's execution trace.

    ``mem_events`` is a columnar
    :class:`~repro.exec.buffers.MemEventColumns` buffer, whichever engine
    recorded it.  Both timing models take a whole launch's lanes at once
    as a :class:`~repro.exec.buffers.LaunchTrace`.

    ``mem_event_cap`` defaults to :data:`DEFAULT_MEM_EVENT_CAP`, the same
    constant :class:`~repro.runtime.runtime.ConcordRuntime` is built with
    and threads into every trace it creates.
    """

    instructions: int = 0
    block_counts: dict = field(default_factory=dict)  # block uid -> count
    branch_stats: dict = field(default_factory=dict)  # instr uid -> [taken, total]
    mem_events: MemEventColumns = field(default_factory=MemEventColumns)
    mem_event_cap: int = DEFAULT_MEM_EVENT_CAP
    mem_events_dropped: int = 0
    flops: int = 0
    int_ops: int = 0
    translations: int = 0  # svm.to_gpu/to_cpu executed (PTROPT removes these)
    calls: int = 0

    @property
    def kept_events(self) -> int:
        """Mem events retained by this trace."""
        return len(self.mem_events)

    def counter_totals(self) -> tuple:
        """This trace's :data:`~repro.exec.buffers.TRACE_COUNTERS`
        values — what the runtime folds into the observer per construct."""
        return (
            self.instructions,
            self.flops,
            self.int_ops,
            self.calls,
            self.translations,
            self.kept_events,
            self.mem_events_dropped,
        )

    def block_totals(self) -> dict:
        """Executed-block histogram (``block_counts``; a launch-level
        trace merges its lanes' here)."""
        return self.block_counts

    def record_mem(
        self, instr_uid: int, seq: int, address: int, size: int, is_store: bool
    ) -> None:
        """One memory event, kept while the trace is under its cap and
        counted in ``mem_events_dropped`` past it."""
        if len(self.mem_events) < self.mem_event_cap:
            self.mem_events.append_raw(instr_uid, seq, address, size, is_store)
        else:
            self.mem_events_dropped += 1


_FLOAT_OPS = frozenset("fadd fsub fmul fdiv frem fcmp".split())

_MAX_CALL_DEPTH = 200
_MAX_STEPS_DEFAULT = 500_000_000


@dataclass
class AddressSpace:
    """How the interpreter resolves virtual addresses to shared memory.

    ``gpu`` mode enforces the surface window and maps GPU virtual
    addresses; ``cpu`` mode maps CPU virtual addresses directly.
    """

    region: SharedRegion
    device: str  # "cpu" | "gpu"

    def to_physical(self, address: int, nbytes: int) -> int:
        if self.device == "gpu":
            return self.region.gpu_to_physical(address, nbytes)
        return self.region.cpu_to_physical(address, nbytes)


class Interpreter:
    """Executes IR functions over a :class:`SharedRegion`."""

    def __init__(
        self,
        region: SharedRegion,
        device: str = "cpu",
        trace: Optional[ExecTrace] = None,
        max_steps: int = _MAX_STEPS_DEFAULT,
        collect_mem_events: bool = True,
        global_id: int = 0,
        num_cores: int = 1,
        symbols: Optional[dict[int, object]] = None,
        allocator=None,
        private_pool: Optional[PrivateMemoryPool] = None,
        counters=None,
        addresses: Optional[dict[str, int]] = None,
    ):
        self.region = region
        self.space = AddressSpace(region, device)
        self.device = device
        self.trace = trace if trace is not None else ExecTrace()
        self.max_steps = max_steps
        self.collect_mem_events = collect_mem_events
        self.global_id = global_id
        self.num_cores = num_cores
        # symbol id -> Function, for CPU-side virtual dispatch through
        # vtables materialized in the shared region by the loader
        self.symbols = symbols or {}
        # global name -> its address in the region, assigned by the loader
        self.addresses = addresses or {}
        # shared-heap allocator for host-side svm.malloc/svm.free
        self.allocator = allocator
        # Optional repro.obs.CounterRegistry; counts one engine.invocations
        # per top-level call_function (per-instruction totals come from the
        # trace, which the runtime harvests per construct).
        self.counters = counters
        self._steps = 0
        self._pool = private_pool
        self._priv_buf: Optional[bytearray] = None
        self._priv_dirty = 0
        self._private_next = 0x1000
        self._mem_seq: dict[int, int] = {}

    # -- public entry points -------------------------------------------------

    def call_function(self, function: Function, args: list) -> object:
        if len(args) != len(function.args):
            raise ExecutionError(
                f"{function.name}: expected {len(function.args)} args, "
                f"got {len(args)}"
            )
        if self.counters is not None:
            self.counters.add("engine.invocations")
            self.counters.add(f"engine.invocations.{self.device}")
        return self._run(function, args, depth=0)

    def run_launch(self, function: Function, span, args_of, budget: int) -> LaunchTrace:
        """``function`` for every index of ``span`` as one launch (a GPU
        launch or a CPU chunk), in the lifecycle
        :class:`~repro.exec.buffers.LaunchTrace` is defined by: each
        work-item runs into a fresh trace from fresh sequence numbers,
        step count and private memory, and the lanes' traces are
        concatenated.  The cap is per work-item
        (:func:`~repro.exec.buffers.per_item_cap`) under the launch's
        global ``budget``: once the work-items collectively reach it,
        later lanes record nothing."""
        per_item = per_item_cap(budget, len(span), self.device)
        kept = 0
        traces = []
        own = self.trace
        try:
            for index in span:
                cap = min(per_item, max(0, budget - kept))
                self.trace = ExecTrace(mem_event_cap=cap)
                self._mem_seq = {}
                self._steps = 0
                self.global_id = index
                self.reset_private_memory()
                self.call_function(function, args_of(index))
                kept += len(self.trace.mem_events)
                traces.append(self.trace)
        finally:
            self.trace = own
            self.release_private_memory()
        return LaunchTrace.from_traces(traces)

    # -- private memory (alloca) ----------------------------------------------
    #
    # Private (per-thread) memory is modelled outside the shared region:
    # addresses in [PRIVATE_BASE, PRIVATE_BASE + window) index a per-
    # invocation bytearray.  This matches the paper: stack objects are
    # promoted to private GPU memory and need no SVM translation.

    PRIVATE_BASE = 0x0000_1000_0000_0000
    PRIVATE_WINDOW = 1 << 20

    def _alloc_private(self, size: int) -> int:
        addr = self.PRIVATE_BASE + self._private_next
        self._private_next = (self._private_next + size + 15) & ~15
        return addr

    def _is_private(self, address: int) -> bool:
        return (
            self.PRIVATE_BASE
            <= address
            < self.PRIVATE_BASE + self.PRIVATE_WINDOW + 0x1000
        )

    def _private_bytes(self) -> bytearray:
        buf = self._priv_buf
        if buf is None:
            if self._pool is not None:
                buf = self._pool.acquire()
            else:
                buf = bytearray(self.PRIVATE_WINDOW + 0x1000)
            self._priv_buf = buf
        return buf

    def reset_private_memory(self) -> None:
        """A work-item starts with an empty, all-zero private window: a
        launch calls this between its work-items (an ``alloca`` is per
        work-item, and a chunk's worth of them would run off the
        window)."""
        self._private_next = 0x1000
        if self._priv_dirty:
            self._priv_buf[: self._priv_dirty] = bytes(self._priv_dirty)
            self._priv_dirty = 0

    def release_private_memory(self) -> None:
        """Return the private-memory buffer to the pool (no-op without a
        pool or if no alloca ever touched private memory).  The buffer is
        re-zeroed up to the dirty high-water mark, so the next acquirer
        observes exactly the all-zero state a fresh buffer would have."""
        if self._pool is not None and self._priv_buf is not None:
            self._pool.release(self._priv_buf, self._priv_dirty)
            self._priv_buf = None
            self._priv_dirty = 0

    # -- memory access ---------------------------------------------------------

    def load_scalar(self, address: int, type_) -> object:
        size = type_.size()
        if self._is_private(address):
            off = address - self.PRIVATE_BASE
            raw = bytes(self._private_bytes()[off : off + size])
            return _decode_scalar(raw, type_)
        physical = self.space.to_physical(address, size)
        raw = self.region.physical.read_bytes(physical, size)
        return _decode_scalar(raw, type_)

    def store_scalar(self, address: int, type_, value) -> None:
        size = type_.size()
        raw = _encode_scalar(value, type_)
        if self._is_private(address):
            off = address - self.PRIVATE_BASE
            self._private_bytes()[off : off + size] = raw
            if off + size > self._priv_dirty:
                self._priv_dirty = off + size
            return
        physical = self.space.to_physical(address, size)
        self.region.physical.write_bytes(physical, raw)

    def _canonical_cpu_address(self, address: int) -> int:
        """Normalize an address to CPU space for trace events so CPU and
        GPU runs of the same program produce comparable access streams."""
        if self.device == "gpu" and self.region.surface.contains(address):
            return self.region.gpu_to_cpu(address)
        return address

    # -- execution -------------------------------------------------------------

    def _run(self, function: Function, args: list, depth: int) -> object:
        if depth > _MAX_CALL_DEPTH:
            raise ExecutionError(f"call depth limit exceeded in {function.name}")
        env: dict[int, object] = {}
        for formal, actual in zip(function.args, args):
            env[id(formal)] = actual

        trace = self.trace
        block = function.entry
        prev_block = None
        while True:
            trace.block_counts[block.uid] = trace.block_counts.get(block.uid, 0) + 1
            # Phis evaluate simultaneously from the incoming edge.
            phis = block.phis()
            if phis:
                staged = []
                for phi in phis:
                    try:
                        index = phi.phi_blocks.index(prev_block)
                    except ValueError as exc:
                        raise ExecutionError(
                            f"{function.name}: phi in {block.name} has no "
                            f"incoming edge from "
                            f"{prev_block.name if prev_block else '<entry>'}"
                        ) from exc
                    staged.append((phi, self._value(env, phi.operands[index])))
                for phi, value in staged:
                    env[id(phi)] = value
                trace.instructions += len(phis)

            next_block = None
            for instr in block.instructions:
                if instr.op == "phi":
                    continue
                self._steps += 1
                if self._steps > self.max_steps:
                    raise ExecutionError(
                        f"step limit {self.max_steps} exceeded in {function.name}"
                    )
                trace.instructions += 1
                op = instr.op

                if op == "br":
                    next_block = instr.targets[0]
                    break
                if op == "condbr":
                    cond = self._value(env, instr.operands[0])
                    taken = bool(cond)
                    stats = trace.branch_stats.setdefault(instr.uid, [0, 0])
                    stats[0] += 1 if taken else 0
                    stats[1] += 1
                    next_block = instr.targets[0] if taken else instr.targets[1]
                    break
                if op == "ret":
                    if instr.operands:
                        return self._value(env, instr.operands[0])
                    return None
                if op == "unreachable":
                    raise ExecutionError(f"reached unreachable in {function.name}")

                try:
                    env[id(instr)] = self._execute(function, env, instr, depth)
                except BaseException as exc:
                    # Cold path: stamp the trap site onto the escaping
                    # exception for the flight recorder (repro.obs.flight).
                    # The innermost frame wins; zero cost when not raising.
                    if not hasattr(exc, "trap_function"):
                        exc.trap_function = function.name
                        exc.trap_block_uids = (block.uid,)
                        exc.trap_loc = instr.loc
                        exc.trap_ir_function = function
                    raise

            if next_block is None:
                raise ExecutionError(
                    f"{function.name}: block {block.name} fell through"
                )
            prev_block = block
            block = next_block

    def _value(self, env: dict, value) -> object:
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, Instruction) or value.__class__.__name__ == "Argument":
            try:
                return env[id(value)]
            except KeyError as exc:
                raise ExecutionError(f"use of undefined value {value!r}") from exc
        # GlobalVariable: its runtime address in the shared region — the
        # CPU representation on both devices (device code translates
        # explicitly).
        address = self.addresses.get(value.name)
        if address is None:
            raise ExecutionError(f"global @{value.name} has no address (not loaded)")
        return address

    def _execute(self, function: Function, env: dict, instr: Instruction, depth: int):
        op = instr.op
        trace = self.trace

        if op == "load":
            address = self._value(env, instr.operands[0])
            type_ = instr.type
            if self.collect_mem_events and not self._is_private(address):
                seq = self._mem_seq.get(instr.uid, 0)
                self._mem_seq[instr.uid] = seq + 1
                trace.record_mem(
                    instr.uid,
                    seq,
                    self._canonical_cpu_address(address),
                    type_.size(),
                    False,
                )
            return self.load_scalar(address, type_)

        if op == "store":
            value = self._value(env, instr.operands[0])
            address = self._value(env, instr.operands[1])
            type_ = instr.operands[0].type
            if self.collect_mem_events and not self._is_private(address):
                seq = self._mem_seq.get(instr.uid, 0)
                self._mem_seq[instr.uid] = seq + 1
                trace.record_mem(
                    instr.uid,
                    seq,
                    self._canonical_cpu_address(address),
                    type_.size(),
                    True,
                )
            self.store_scalar(address, type_, value)
            return None

        if op == "gep":
            base = self._value(env, instr.operands[0])
            address = base + instr.gep_offset
            for operand, scale in zip(instr.operands[1:], instr.gep_scales):
                address += self._value(env, operand) * scale
            trace.int_ops += 1
            return address & ((1 << 64) - 1)

        if op == "alloca":
            size = instr.alloc_type.size()
            return self._alloc_private(size)

        if op == "call":
            return self._call(function, env, instr, depth)

        if op == "select":
            cond = self._value(env, instr.operands[0])
            return self._value(env, instr.operands[1 if cond else 2])

        if op in ("icmp", "fcmp"):
            return self._compare(env, instr)

        if op in _CAST_EVAL:
            value = self._value(env, instr.operands[0])
            return _CAST_EVAL[op](value, instr.type)

        handler = _BINOP_EVAL.get(op)
        if handler is not None:
            lhs = self._value(env, instr.operands[0])
            rhs = self._value(env, instr.operands[1])
            if op in ("udiv", "urem", "lshr") and isinstance(instr.type, IntType):
                mask = (1 << instr.type.bits) - 1
                lhs &= mask
                rhs &= mask
            if op in _FLOAT_OPS:
                trace.flops += 1
            else:
                trace.int_ops += 1
            try:
                result = handler(lhs, rhs)
            except ZeroDivisionError as exc:
                raise ExecutionError(
                    f"division by zero in {function.name}: {instr!r}"
                ) from exc
            type_ = instr.type
            if isinstance(type_, IntType):
                return type_.wrap(int(result))
            if isinstance(type_, FloatType) and type_.bits == 32:
                return _f32(result)
            return result

        if op == "vcall":
            # Real vtable dispatch (the CPU path; GPU kernels have vcalls
            # expanded into compare chains by the devirtualization pass).
            from ..ir.types import I64 as _I64, PointerType as _Ptr

            obj = self._value(env, instr.operands[0])
            vtable_addr = self.load_scalar(obj, _Ptr(_I64))
            symbol = self.load_scalar(vtable_addr + 8 * instr.vslot, _I64)
            target = self.symbols.get(symbol)
            if target is None:
                raise ExecutionError(
                    f"virtual dispatch to unknown symbol {symbol:#x} "
                    f"(slot {instr.vslot}) — vtables not loaded?"
                )
            args = [obj] + [self._value(env, o) for o in instr.operands[1:]]
            self.trace.calls += 1
            self.trace.instructions += 3  # vptr load, slot load, compare/jump
            return self._run(target, args, depth + 1)
        raise ExecutionError(f"unhandled opcode {op} in {function.name}")

    def _compare(self, env: dict, instr: Instruction):
        lhs = self._value(env, instr.operands[0])
        rhs = self._value(env, instr.operands[1])
        pred = instr.pred
        if instr.op == "fcmp":
            self.trace.flops += 1
        else:
            self.trace.int_ops += 1
        if instr.op == "icmp" and pred.startswith("u"):
            bits = (
                instr.operands[0].type.bits
                if isinstance(instr.operands[0].type, IntType)
                else 64
            )
            mask = (1 << bits) - 1
            lhs &= mask
            rhs &= mask
            pred = "s" + pred[1:]  # same comparison on normalized values
        table = {
            "eq": lhs == rhs,
            "ne": lhs != rhs,
            "slt": lhs < rhs,
            "sle": lhs <= rhs,
            "sgt": lhs > rhs,
            "sge": lhs >= rhs,
            "oeq": lhs == rhs,
            "one": lhs != rhs,
            "olt": lhs < rhs,
            "ole": lhs <= rhs,
            "ogt": lhs > rhs,
            "oge": lhs >= rhs,
        }
        return 1 if table[pred] else 0

    def _call(self, function: Function, env: dict, instr: Instruction, depth: int):
        callee = instr.callee
        args = [self._value(env, operand) for operand in instr.operands]
        if isinstance(callee, Function):
            self.trace.calls += 1
            return self._run(callee, args, depth + 1)
        name = callee.name

        if name == "svm.to_gpu":
            self.trace.translations += 1
            self.trace.int_ops += 1
            address = args[0]
            if self._is_private(address) or address == 0:
                return address
            return self.region.cpu_to_gpu(address)
        if name == "svm.to_cpu":
            self.trace.translations += 1
            self.trace.int_ops += 1
            address = args[0]
            if self._is_private(address) or address == 0:
                return address
            return self.region.gpu_to_cpu(address)
        if name == "svm.malloc":
            if self.allocator is None:
                raise ExecutionError(
                    "svm.malloc with no allocator (device code cannot allocate)"
                )
            return self.allocator.calloc(max(1, args[0]))
        if name == "svm.free":
            if self.allocator is None:
                raise ExecutionError("svm.free with no allocator")
            if args[0]:
                self.allocator.free(args[0])
            return None
        if name == "gpu.global_id":
            return self.global_id
        if name == "gpu.num_cores":
            return self.num_cores
        if name == "gpu.barrier":
            return None
        if name.startswith("atomic."):
            return self._atomic(name, instr, args)
        if name.startswith("math."):
            short = name.split(".")[1]
            fn = MATH_EVAL[short]
            self.trace.flops += 4  # transcendental cost hint for the models
            result = fn(*args)
            if name.endswith(".f32"):
                return _f32(result)
            return result
        raise ExecutionError(f"unknown intrinsic {name}")

    def _atomic(self, name: str, instr: Instruction, args: list):
        # The simulator executes work-items sequentially, so atomics are
        # plain read-modify-write here; the timing models charge them more.
        address = args[0]
        pointee = instr.callee.ftype.params[0].pointee
        old = self.load_scalar(address, pointee)
        if self.collect_mem_events and not self._is_private(address):
            seq = self._mem_seq.get(instr.uid, 0)
            self._mem_seq[instr.uid] = seq + 1
            self.trace.record_mem(
                instr.uid,
                seq,
                self._canonical_cpu_address(address),
                pointee.size(),
                True,
            )
        if name == "atomic.add.i32" or name == "atomic.add.f32":
            new = old + args[1]
        elif name == "atomic.min.i32":
            new = min(old, args[1])
        elif name == "atomic.max.i32":
            new = max(old, args[1])
        elif name == "atomic.cas.i32":
            expected, desired = args[1], args[2]
            new = desired if old == expected else old
        else:
            raise ExecutionError(f"unknown atomic {name}")
        if isinstance(pointee, IntType):
            new = pointee.wrap(int(new))
        self.store_scalar(address, pointee, new)
        return old


# -- scalar encoding ----------------------------------------------------------


def _decode_scalar(raw: bytes, type_):
    if isinstance(type_, IntType):
        return int.from_bytes(raw, "little", signed=type_.signed)
    if isinstance(type_, FloatType):
        return struct.unpack("<f" if type_.bits == 32 else "<d", raw)[0]
    if isinstance(type_, PointerType):
        return int.from_bytes(raw, "little", signed=False)
    raise ExecutionError(f"cannot load aggregate {type_} as scalar")


def _encode_scalar(value, type_) -> bytes:
    if isinstance(type_, IntType):
        return type_.wrap(int(value)).to_bytes(
            type_.size(), "little", signed=type_.signed
        )
    if isinstance(type_, FloatType):
        return struct.pack("<f" if type_.bits == 32 else "<d", float(value))
    if isinstance(type_, PointerType):
        return (int(value) & ((1 << 64) - 1)).to_bytes(8, "little", signed=False)
    raise ExecutionError(f"cannot store aggregate {type_} as scalar")


_F32_PACK = struct.Struct("f").pack
_F32_UNPACK = struct.Struct("f").unpack


def _f32(value: float) -> float:
    return _F32_UNPACK(_F32_PACK(value))[0]


def _srem(a, b):
    if b == 0:
        raise ZeroDivisionError
    return a - _sdiv(a, b) * b


def _sdiv(a, b):
    if b == 0:
        raise ZeroDivisionError
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


_BINOP_EVAL: dict[str, Callable] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "sdiv": _sdiv,
    "udiv": lambda a, b: (a & ((1 << 64) - 1)) // (b & ((1 << 64) - 1)),
    "srem": _srem,
    "urem": lambda a, b: (a & ((1 << 64) - 1)) % (b & ((1 << 64) - 1)),
    "fadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b,
    "fdiv": lambda a, b: a / b if b != 0 else math.copysign(math.inf, a) if a else math.nan,
    "frem": lambda a, b: math.fmod(a, b),
    "shl": lambda a, b: a << (b & 63),
    "lshr": lambda a, b: (a & ((1 << 64) - 1)) >> (b & 63),
    "ashr": lambda a, b: a >> (b & 63),
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
}

_CAST_EVAL: dict[str, Callable] = {
    "zext": lambda v, t: t.wrap(v & ((1 << 64) - 1)),
    "sext": lambda v, t: t.wrap(v),
    "trunc": lambda v, t: t.wrap(v),
    "bitcast": lambda v, t: v,
    "ptrtoint": lambda v, t: t.wrap(v),
    "inttoptr": lambda v, t: v & ((1 << 64) - 1),
    "sitofp": lambda v, t: _f32(float(v)) if t.bits == 32 else float(v),
    "uitofp": lambda v, t: _f32(float(v & ((1 << 64) - 1)))
    if t.bits == 32
    else float(v & ((1 << 64) - 1)),
    "fptosi": lambda v, t: t.wrap(int(v)),
    "fpext": lambda v, t: v,
    "fptrunc": lambda v, t: _f32(v),
}
