"""Unit tests for the scalar IR interpreter: semantics, SVM address
spaces, traces, atomics, and fault behaviour."""

import pytest

from repro.exec import ExecutionError, Interpreter
from repro.ir import (
    Constant,
    F32,
    Function,
    FunctionType,
    I32,
    I64,
    IRBuilder,
    VOID,
    ptr,
)
from repro.ir.intrinsics import (
    ATOMIC_ADD_I32,
    ATOMIC_CAS_I32,
    ATOMIC_MIN_I32,
    MATH_INTRINSICS,
    SVM_TO_GPU,
)
from repro.svm import MemoryFault, SharedAllocator, SharedRegion


@pytest.fixture()
def region():
    return SharedRegion(1 << 16)


def make_fn(ret=I32, params=(), names=()):
    return Function("f", FunctionType(ret, tuple(params)), list(names))


class TestArithmeticSemantics:
    def test_wrapping_add(self, region):
        fn = make_fn()
        b = IRBuilder(fn.new_block("entry"))
        big = Constant(I32, 2**31 - 1)
        b.ret(b.add(big, b.i32(1)))
        assert Interpreter(region).call_function(fn, []) == -(2**31)

    def test_signed_division_truncates_toward_zero(self, region):
        fn = make_fn()
        b = IRBuilder(fn.new_block("entry"))
        b.ret(b.binop("sdiv", b.i32(-7), b.i32(2)))
        assert Interpreter(region).call_function(fn, []) == -3  # not -4

    def test_signed_remainder(self, region):
        fn = make_fn()
        b = IRBuilder(fn.new_block("entry"))
        b.ret(b.binop("srem", b.i32(-7), b.i32(2)))
        assert Interpreter(region).call_function(fn, []) == -1

    def test_division_by_zero_raises(self, region):
        fn = make_fn()
        b = IRBuilder(fn.new_block("entry"))
        b.ret(b.binop("sdiv", b.i32(1), b.i32(0)))
        with pytest.raises(ExecutionError):
            Interpreter(region).call_function(fn, [])

    def test_unsigned_shift(self, region):
        fn = make_fn()
        b = IRBuilder(fn.new_block("entry"))
        neg = Constant(I32, -1)
        b.ret(b.binop("lshr", neg, b.i32(28)))
        assert Interpreter(region).call_function(fn, []) == 15

    def test_f32_rounding(self, region):
        fn = make_fn(ret=F32)
        b = IRBuilder(fn.new_block("entry"))
        b.ret(b.binop("fadd", Constant(F32, 0.1), Constant(F32, 0.2)))
        import struct

        f32 = lambda x: struct.unpack("f", struct.pack("f", x))[0]
        got = Interpreter(region).call_function(fn, [])
        assert got == f32(f32(0.1) + f32(0.2))

    def test_math_intrinsic(self, region):
        fn = make_fn(ret=F32)
        b = IRBuilder(fn.new_block("entry"))
        call = b.call(MATH_INTRINSICS["math.sqrt.f32"], [Constant(F32, 16.0)])
        b.ret(call)
        assert Interpreter(region).call_function(fn, []) == 4.0


class TestMemoryAndSvm:
    def _store_load_fn(self, value_type):
        fn = make_fn(ret=value_type, params=(ptr(value_type), value_type),
                     names=("p", "v"))
        b = IRBuilder(fn.new_block("entry"))
        b.store(fn.args[1], fn.args[0])
        b.ret(b.load(fn.args[0]))
        return fn

    def test_cpu_store_load_roundtrip(self, region):
        fn = self._store_load_fn(I32)
        addr = region.cpu_base + 128
        got = Interpreter(region, "cpu").call_function(fn, [addr, -42])
        assert got == -42

    def test_gpu_rejects_cpu_addresses(self, region):
        """The load-bearing SVM property: GPU execution faults on
        untranslated CPU virtual addresses."""
        fn = self._store_load_fn(I32)
        cpu_addr = region.cpu_base + 128
        with pytest.raises(MemoryFault):
            Interpreter(region, "gpu").call_function(fn, [cpu_addr, 1])

    def test_gpu_accepts_translated_addresses(self, region):
        fn = self._store_load_fn(I32)
        cpu_addr = region.cpu_base + 128
        gpu_addr = region.cpu_to_gpu(cpu_addr)
        got = Interpreter(region, "gpu").call_function(fn, [gpu_addr, 7])
        assert got == 7
        # the same physical byte is visible through the CPU view
        assert region.read_int(cpu_addr, 4, signed=True) == 7

    def test_svm_translate_intrinsic(self, region):
        fn = make_fn(ret=I32, params=(ptr(I32),), names=("p",))
        b = IRBuilder(fn.new_block("entry"))
        translated = b.call(SVM_TO_GPU, [fn.args[0]])
        b.ret(b.load(translated))
        cpu_addr = region.cpu_base + 64
        region.write_int(cpu_addr, 4, 99, signed=True)
        interp = Interpreter(region, "gpu")
        assert interp.call_function(fn, [cpu_addr]) == 99
        assert interp.trace.translations == 1

    def test_private_memory_needs_no_translation(self, region):
        fn = make_fn()
        b = IRBuilder(fn.new_block("entry"))
        slot = b.alloca(I32)
        b.store(b.i32(5), slot)
        b.ret(b.load(slot))
        # works on the GPU with no SVM translation (private memory)
        assert Interpreter(region, "gpu").call_function(fn, []) == 5

    def test_trace_records_memory_events(self, region):
        fn = self._store_load_fn(I64)
        interp = Interpreter(region, "cpu")
        interp.call_function(fn, [region.cpu_base + 256, 12345])
        events = list(interp.trace.mem_events)
        assert len(events) == 2
        assert events[0].is_store and not events[1].is_store
        assert events[0].address == region.cpu_base + 256
        assert events[0].size == 8


class TestAtomics:
    def _atomic_fn(self, intrinsic, extra=1):
        params = [ptr(I32)] + [I32] * extra
        fn = make_fn(ret=I32, params=params,
                     names=["p"] + [f"v{i}" for i in range(extra)])
        b = IRBuilder(fn.new_block("entry"))
        b.ret(b.call(intrinsic, list(fn.args)))
        return fn

    def test_atomic_add_returns_old(self, region):
        fn = self._atomic_fn(ATOMIC_ADD_I32)
        addr = region.cpu_base + 512
        region.write_int(addr, 4, 10, signed=True)
        old = Interpreter(region, "cpu").call_function(fn, [addr, 5])
        assert old == 10
        assert region.read_int(addr, 4, signed=True) == 15

    def test_atomic_min(self, region):
        fn = self._atomic_fn(ATOMIC_MIN_I32)
        addr = region.cpu_base + 512
        region.write_int(addr, 4, 10, signed=True)
        Interpreter(region, "cpu").call_function(fn, [addr, 3])
        assert region.read_int(addr, 4, signed=True) == 3
        Interpreter(region, "cpu").call_function(fn, [addr, 100])
        assert region.read_int(addr, 4, signed=True) == 3

    def test_atomic_cas(self, region):
        fn = self._atomic_fn(ATOMIC_CAS_I32, extra=2)
        addr = region.cpu_base + 512
        region.write_int(addr, 4, 7, signed=True)
        old = Interpreter(region, "cpu").call_function(fn, [addr, 7, 9])
        assert old == 7
        assert region.read_int(addr, 4, signed=True) == 9
        old = Interpreter(region, "cpu").call_function(fn, [addr, 7, 11])
        assert old == 9  # compare failed, no write
        assert region.read_int(addr, 4, signed=True) == 9


class TestControlAndTraces:
    def test_branch_stats_recorded(self, region):
        fn = make_fn(ret=I32, params=(I32,), names=("n",))
        entry = fn.new_block("entry")
        header = fn.new_block("header")
        body = fn.new_block("body")
        done = fn.new_block("done")
        b = IRBuilder(entry)
        b.br(header)
        b.position_at_end(header)
        from repro.ir import add_phi_incoming

        phi = b.phi(I32, "i")
        cond = b.icmp("slt", phi, fn.args[0])
        branch = b.condbr(cond, body, done)
        b.position_at_end(body)
        nxt = b.add(phi, b.i32(1))
        b.br(header)
        b.position_at_end(done)
        b.ret(phi)
        add_phi_incoming(phi, b.i32(0), entry)
        add_phi_incoming(phi, nxt, body)
        interp = Interpreter(region, "cpu")
        assert interp.call_function(fn, [10]) == 10
        taken, total = interp.trace.branch_stats[branch.uid]
        assert total == 11 and taken == 10

    def test_step_limit(self, region):
        fn = make_fn(ret=VOID)
        entry = fn.new_block("entry")
        loop = fn.new_block("loop")
        b = IRBuilder(entry)
        b.br(loop)
        b.position_at_end(loop)
        b.br(loop)  # infinite
        interp = Interpreter(region, "cpu", max_steps=1000)
        with pytest.raises(ExecutionError):
            interp.call_function(fn, [])

    def test_call_depth_limit(self, region):
        fn = make_fn(ret=I32)
        b = IRBuilder(fn.new_block("entry"))
        call = b.call(fn, [])
        b.ret(call)
        with pytest.raises(ExecutionError):
            Interpreter(region, "cpu").call_function(fn, [])

    def test_wrong_arity_raises(self, region):
        fn = make_fn(ret=I32, params=(I32,), names=("x",))
        b = IRBuilder(fn.new_block("entry"))
        b.ret(fn.args[0])
        with pytest.raises(ExecutionError):
            Interpreter(region, "cpu").call_function(fn, [1, 2])
