"""The source-generating engine (``repro.exec.compiled``).

Four groups:

* differential — generated code against the reference ``Interpreter`` on
  both devices, with and without event collection: return values, heap
  digest, full ``ExecTrace`` equality;
* error paths — every message and ``trap_*`` stamp, with the expected
  texts frozen from the closure engine this module replaced;
* generated text — one function per IR function with SSA values as
  locals, constants without a literal form are bound, the line → unit
  table, tracebacks print the statement;
* per-program code — two runtimes over one ``CompiledProgram`` generate
  once, run bit-identically, and leave the program's pickle untouched.
"""

import linecache
import pickle
import random
import traceback
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.exec import (
    CodeCache,
    CompiledEngine,
    ExecutionError,
    Interpreter,
)
from repro.exec.compiled import JitCode
from repro.fuzz import build_ir, generate_ir_program, generate_source_program
from repro.fuzz.irgen import BUF_SLOTS
from repro.fuzz.oracle import heap_digest
from repro.ir import (
    Constant,
    F32,
    Function,
    FunctionType,
    I32,
    IRBuilder,
    VOID,
    add_phi_incoming,
    ptr,
)
from repro.obs import Observer
from repro.passes import OptConfig
from repro.runtime import ConcordRuntime, compile_source, ultrabook
from repro.service.store import _dumps
from repro.svm import MemoryFault, SharedAllocator, SharedRegion
from repro.workloads import all_workloads

from .test_engine_equivalence import _assert_trace_equal


@pytest.fixture()
def region():
    return SharedRegion(1 << 16)


def make_fn(name="f", ret=I32, params=(), names=()):
    return Function(name, FunctionType(ret, tuple(params)), list(names))


def _raises(region, fn, args, device="cpu", **engine_args):
    engine = CompiledEngine(region, device, **engine_args)
    with pytest.raises((ExecutionError, MemoryFault)) as info:
        engine.call_function(fn, args)
    return info.value


# -- error paths (texts frozen from the parent's closure engine) -------------


class TestErrorPaths:
    def _load_fn(self):
        fn = make_fn(ret=I32, params=(ptr(I32),), names=("p",))
        b = IRBuilder(fn.new_block("entry"))
        b.ret(b.load(fn.args[0]))
        return fn

    def _store_fn(self):
        fn = make_fn(ret=VOID, params=(ptr(I32),), names=("p",))
        b = IRBuilder(fn.new_block("entry"))
        b.store(b.i32(7), fn.args[0])
        b.ret()
        return fn

    @pytest.mark.parametrize("collect", [False, True])
    @pytest.mark.parametrize("kind", ["load", "store"])
    def test_gpu_memory_fault_text(self, region, kind, collect):
        fn = self._load_fn() if kind == "load" else self._store_fn()
        address = region.cpu_base + 64  # a CPU pointer the GPU cannot see
        exc = _raises(region, fn, [address], "gpu", collect_mem_events=collect)
        assert isinstance(exc, MemoryFault)
        assert str(exc) == (
            f"GPU address {address:#x} (+4) outside surface "
            f"[{region.gpu_base:#x}, {region.gpu_base + region.size:#x}) "
            f"— untranslated shared pointer?"
        )

    @pytest.mark.parametrize("collect", [False, True])
    @pytest.mark.parametrize("kind", ["load", "store"])
    def test_cpu_memory_fault_text(self, region, kind, collect):
        fn = self._load_fn() if kind == "load" else self._store_fn()
        address = region.cpu_base + region.size - 2  # straddles the end
        exc = _raises(region, fn, [address], "cpu", collect_mem_events=collect)
        assert isinstance(exc, MemoryFault)
        assert str(exc) == (
            f"CPU address {address:#x} (+4) outside the shared region "
            f"[{region.cpu_base:#x}, {region.cpu_base + region.size:#x})"
        )

    def test_fault_records_the_event_first(self, region):
        """The access is traced before its bounds check, like the
        interpreter: a faulting lane's last event is the faulting one."""
        fn = self._load_fn()
        engine = CompiledEngine(region, "cpu")
        with pytest.raises(MemoryFault):
            engine.call_function(fn, [5])
        assert [(e.address, e.size, e.is_store) for e in engine.trace.mem_events] == [
            (5, 4, False)
        ]

    @pytest.mark.parametrize("op", ["sdiv", "srem", "udiv", "urem"])
    def test_division_by_zero(self, region, op):
        fn = make_fn(params=(I32, I32), names=("a", "b"))
        b = IRBuilder(fn.new_block("entry"))
        quotient = b.binop(op, fn.args[0], fn.args[1])
        b.ret(quotient)
        exc = _raises(region, fn, [5, 0])
        assert str(exc) == f"division by zero in f: {quotient!r}"
        assert isinstance(exc.__cause__, ZeroDivisionError)

    def test_step_limit(self, region):
        fn = make_fn(ret=VOID)
        entry, loop = fn.new_block("entry"), fn.new_block("loop")
        b = IRBuilder(entry)
        b.br(loop)
        b.position_at_end(loop)
        b.br(loop)
        exc = _raises(region, fn, [], max_steps=1000)
        assert str(exc) == "step limit 1000 exceeded in f"

    def test_call_depth(self, region):
        fn = make_fn()
        b = IRBuilder(fn.new_block("entry"))
        b.ret(b.call(fn, []))
        exc = _raises(region, fn, [])
        assert str(exc) == "call depth limit exceeded in f"

    def test_phi_without_incoming_edge(self, region):
        fn = make_fn(params=(I32,), names=("c",))
        entry, left, right, merge = (
            fn.new_block(n) for n in ("entry", "left", "right", "merge")
        )
        b = IRBuilder(entry)
        b.condbr(fn.args[0], left, right)
        b.position_at_end(left)
        b.br(merge)
        b.position_at_end(right)
        b.br(merge)
        b.position_at_end(merge)
        phi = b.phi(I32, "m")
        b.ret(phi)
        add_phi_incoming(phi, b.i32(1), left)  # nothing for the right edge
        assert CompiledEngine(region).call_function(fn, [1]) == 1
        exc = _raises(region, fn, [0])
        assert str(exc) == "f: phi in merge has no incoming edge from right"

    def test_phi_in_entry_block(self, region):
        fn = make_fn()
        entry = fn.new_block("entry")
        b = IRBuilder(entry)
        phi = b.phi(I32, "x")
        b.ret(phi)
        exc = _raises(region, fn, [])
        assert str(exc) == "f: phi in entry has no incoming edge from <entry>"

    def test_mid_chain_phi_without_incoming_edge(self, region):
        """A fused block's phi takes its value from the chain predecessor."""
        fn = make_fn()
        entry, tail = fn.new_block("entry"), fn.new_block("tail")
        b = IRBuilder(entry)
        b.br(tail)
        b.position_at_end(tail)
        phi = b.phi(I32, "x")
        b.ret(phi)
        exc = _raises(region, fn, [])
        assert str(exc) == "f: phi in tail has no incoming edge from entry"

    def test_unreachable(self, region):
        fn = make_fn(ret=VOID)
        IRBuilder(fn.new_block("entry")).unreachable()
        assert str(_raises(region, fn, [])) == "reached unreachable in f"

    def test_fall_through(self, region):
        fn = make_fn()
        b = IRBuilder(fn.new_block("entry"))
        b.add(b.i32(1), b.i32(2))
        assert str(_raises(region, fn, [])) == "f: block entry fell through"

    def test_no_body(self, region):
        assert str(_raises(region, make_fn(), [])) == "f has no body"

    def test_trap_attributes_name_the_innermost_superblock(self, region):
        callee = make_fn("inner", ret=I32, params=(ptr(I32),), names=("p",))
        c_entry, c_tail = callee.new_block("entry"), callee.new_block("tail")
        b = IRBuilder(c_entry)
        b.br(c_tail)
        b.position_at_end(c_tail)
        b.ret(b.load(callee.args[0]))
        caller = make_fn("outer", ret=I32, params=(ptr(I32),), names=("p",))
        b = IRBuilder(caller.new_block("entry"))
        b.ret(b.call(callee, [caller.args[0]]))
        exc = _raises(region, caller, [1])
        assert exc.trap_function == "inner"
        assert exc.trap_block_uids == (c_entry.uid, c_tail.uid)
        assert exc.trap_ir_function is callee

    def test_partial_trace_is_flushed_on_error(self, region):
        fn = make_fn(ret=VOID, params=(I32,), names=("n",))
        entry, body, bad = (fn.new_block(n) for n in ("entry", "body", "bad"))
        b = IRBuilder(entry)
        cond = b.icmp("sgt", fn.args[0], b.i32(0))
        branch = b.condbr(cond, body, bad)
        b.position_at_end(body)
        b.ret()
        b.position_at_end(bad)
        b.unreachable()
        engine = CompiledEngine(region)
        with pytest.raises(ExecutionError):
            engine.call_function(fn, [0])
        trace = engine.trace
        assert trace.block_counts == {entry.uid: 1, bad.uid: 1}
        assert trace.branch_stats == {branch.uid: [0, 1]}
        assert trace.instructions == 3
        assert trace.int_ops == 1


# -- differential against the reference interpreter --------------------------

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: collect_mem_events
MODES = [True, False]


def _run_source(program, compiled, engine, device, collect, region_size=1 << 16):
    """Drive one srcgen program through a runtime; returns everything
    observable."""
    rt = ConcordRuntime(
        compiled,
        ultrabook(),
        region_size=region_size,
        engine=engine,
        keep_traces=True,
        collect_mem_events=collect,
        observer=Observer(),
    )
    data = rt.new_array(I32, program.n)
    data.fill_from(program.data)
    aux = rt.new_array(I32, program.aux_len)
    aux.fill_from(program.aux)
    body = rt.new(program.class_name)
    body.data, body.aux, body.s0, body.s1 = data, aux, program.s0, program.s1
    if program.uses_floats:
        fdata = rt.new_array(F32, program.n)
        fdata.fill_from(program.fdata)
        body.fdata = fdata
    if program.uses_virtual:
        obj = rt.new(program.virtual_class)
        obj.salt = program.salt
        body.obj = obj
    on_cpu = device == "cpu"
    if program.construct == "reduce":
        body.acc = 0
        rt.parallel_reduce_hetero(program.n, body, on_cpu=on_cpu)
    else:
        rt.parallel_for_hetero(program.n, body, on_cpu=on_cpu)
    outputs = (data.to_list(), aux.to_list(), getattr(body, "acc", None))
    return rt, outputs


def _assert_runs_equal(ref, got, where):
    (ref_rt, ref_out), (got_rt, got_out) = ref, got
    assert got_out == ref_out, where
    assert bytes(got_rt.region.physical.data) == bytes(ref_rt.region.physical.data), where
    assert heap_digest(got_rt) == heap_digest(ref_rt), where
    assert len(got_rt.trace_log) == len(ref_rt.trace_log), where
    for index, (a, b) in enumerate(zip(ref_rt.trace_log, got_rt.trace_log)):
        _assert_trace_equal(a, b, f"{where} trace {index}")


class TestDifferential:
    @SLOW
    @given(seed=st.integers(0, 2**31 - 1))
    def test_source_programs(self, seed):
        program = generate_source_program(random.Random(seed), seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            compiled = compile_source(program.source, OptConfig.gpu_all())
            for device in ("gpu", "cpu"):
                for collect in MODES:
                    where = f"seed {seed} {device} collect={collect}"
                    ref = _run_source(program, compiled, "reference", device, collect)
                    got = _run_source(program, compiled, "compiled", device, collect)
                    _assert_runs_equal(ref, got, where)

    @SLOW
    @given(seed=st.integers(0, 2**31 - 1))
    def test_ir_programs(self, seed):
        """Hand-rolled CFGs (allocas, calls, shifts, divisions, selects,
        casts) straight through the two engines, no runtime in between."""
        program = generate_ir_program(random.Random(seed), seed=seed)
        _, fn = build_ir(program)
        for device in ("cpu", "gpu"):
            for collect in MODES:
                results = []
                for engine_class in (Interpreter, CompiledEngine):
                    region = SharedRegion(1 << 16)
                    buf = SharedAllocator(region).calloc(BUF_SLOTS * 4)
                    for slot, value in enumerate(program.buf):
                        region.write_int(buf + slot * 4, 4, value & 0xFFFFFFFF, signed=False)
                    engine = engine_class(
                        region,
                        device,
                        collect_mem_events=collect,
                    )
                    address = region.cpu_to_gpu(buf) if device == "gpu" else buf
                    ret = engine.call_function(fn, [program.a, program.b, address])
                    results.append((ret, bytes(region.physical.data), engine.trace))
                (ref_ret, ref_bytes, ref_trace), (ret, raw, trace) = results
                where = f"seed {seed} {device} collect={collect}"
                assert ret == ref_ret, where
                assert raw == ref_bytes, where
                _assert_trace_equal(ref_trace, trace, where)


# -- generated text ----------------------------------------------------------


class TestGeneratedText:
    def _loop(self):
        fn = make_fn(params=(I32,), names=("n",))
        entry, header, body, done = (
            fn.new_block(n) for n in ("entry", "header", "body", "done")
        )
        b = IRBuilder(entry)
        b.br(header)
        b.position_at_end(header)
        i = b.phi(I32, "i")
        b.condbr(b.icmp("slt", i, fn.args[0]), body, done)
        b.position_at_end(body)
        doubled = b.mul(i, b.i32(2))
        nxt = b.add(b.sub(doubled, i), b.i32(1))
        b.br(header)
        b.position_at_end(done)
        b.ret(i)
        add_phi_incoming(i, b.i32(0), entry)
        add_phi_incoming(i, nxt, body)
        return fn, doubled, nxt

    def test_ssa_values_are_locals_of_one_function(self, region):
        """Replaces ``test_unit_local_values_never_touch_regs``, which
        checked the liveness split between unit locals and the ``regs``
        list (a body-local value stayed out of ``regs``, a value read by a
        head phi was stored to it).  There is no ``regs`` list and no
        per-unit function any more: every value is a local of the one
        function, the loop is a ``while True`` and the phi a plain
        assignment on each edge."""
        fn, doubled, nxt = self._loop()
        cache = CodeCache(region)
        assert CompiledEngine(region, code_cache=cache).call_function(fn, [5]) == 5
        source = cache.get(fn, "cpu", True).code.entry(False).source
        assert "regs[" not in source
        assert source.count("def ") == 2  # the binder and the function
        assert source.count("while True:") == 1
        slots = {id(instr): n for n, instr in enumerate(fn.instructions(), start=1)}
        phi = fn.blocks[1].instructions[0]
        assert f"v{slots[id(phi)]} = 0\n" in source  # the entry edge
        assert f"v{slots[id(phi)]} = v{slots[id(nxt)]}\n" in source  # the back edge
        assert f"v{slots[id(doubled)]} = " in source

    def test_counts_are_locals_inside_loops_only(self, region):
        """A unit inside a loop counts in a local flushed at ``return``;
        one that runs at most once per call bumps the accumulator."""
        fn, _doubled, _nxt = self._loop()
        cache = CodeCache(region)
        engine = CompiledEngine(region, code_cache=cache)
        engine.call_function(fn, [3])
        code = cache.get(fn, "cpu", True).code.entry(False)
        assert [name for name, _slot in code.flushed] == ["c1", "c2", "b1"]
        assert "cnt_[0] += 1" in code.source and "cnt_[1] += c1" in code.source
        assert engine.trace.block_counts == {
            block.uid: count for block, count in zip(fn.blocks, (1, 4, 3, 1))
        }
        assert list(engine.trace.branch_stats.values()) == [[3, 4]]

    def test_line_table_names_the_unit_of_every_statement(self, region):
        fn, _doubled, _nxt = self._loop()
        code = CodeCache(region).get(fn, "cpu", True).code.entry(False)
        lines = code.source.splitlines()
        assert len(code.line_units) == len(lines) + 1  # line numbers start at 1
        units = {
            code.line_units[number]
            for number, line in enumerate(lines, start=1)
            if "0x80000000" in line  # the body's three wrapped operations
        }
        assert units == {2}
        assert code.line_units[1] == code.line_units[2] == -1

    @pytest.mark.parametrize("name", sorted(all_workloads()))
    def test_every_workload_module_generates(self, name):
        """Both devices, events on and off: the text and its lanes entry
        compile, each holds one function, and neither spells ``regs[``."""
        workload = all_workloads()[name]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            program = workload.compile(OptConfig.gpu_all())
        for function in program.module.functions.values():
            if not function.blocks:
                continue
            for device in ("cpu", "gpu"):
                for collect in (True, False):
                    code = JitCode(function, device, collect)
                    for entry in (code.entry(False), code.entry(True)):
                        assert entry.factory is not None
                        assert "regs[" not in entry.source
                        assert entry.source.count("def ") == 2

    def test_constants_without_a_literal_are_bound(self, region):
        fn = make_fn(ret=F32, params=(F32,), names=("x",))
        b = IRBuilder(fn.new_block("entry"))
        total = b.binop("fadd", fn.args[0], Constant(F32, float("inf")))
        b.ret(b.binop("fmul", total, Constant(F32, -2.0)))
        assert CompiledEngine(region).call_function(fn, [1.0]) == float("-inf")
        fn2 = make_fn(params=(I32,), names=("x",))
        b = IRBuilder(fn2.new_block("entry"))
        b.ret(b.add(b.select(Constant(I32, True), fn2.args[0], b.i32(-7)), b.i32(-1)))
        assert CompiledEngine(region).call_function(fn2, [3]) == 2

    def test_traceback_shows_the_generated_statement(self, region):
        fn = make_fn(ret=I32, params=(ptr(I32),), names=("p",))
        b = IRBuilder(fn.new_block("entry"))
        b.ret(b.load(fn.args[0]))
        cache = CodeCache(region)
        with pytest.raises(MemoryFault) as info:
            CompiledEngine(region, code_cache=cache).call_function(fn, [1])
        code = cache.get(fn, "cpu", True).code.entry(False)
        assert code.filename.startswith("<repro-jit f.cpu ")
        assert linecache.getlines(code.filename) == code.source.splitlines(True)
        text = "".join(traceback.format_exception(info.value))
        assert f'File "{code.filename}"' in text
        assert "raise _fault('cpu', " in text


# -- one code object per program, bound per runtime ---------------------------


class TestPerProgramCode:
    def test_second_runtime_binds_without_generating(self):
        program = generate_source_program(
            random.Random(3), seed=3, force={"uses_virtual": True, "uses_helper": True}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            compiled = compile_source(program.source, OptConfig.gpu_all())
            first = _run_source(program, compiled, "compiled", "cpu", True)
            # Loading assigned the globals' addresses; from here on the
            # program object must not change.
            frozen = _dumps(compiled)
            _run_source(program, compiled, "compiled", "gpu", True)
            generated = len(compiled.jit_code)
            # the vector engine's code and verdicts follow the same rule
            _run_source(program, compiled, "vector", "gpu", True)
            assert compiled.vector_code is not None
            assert len(compiled.jit_code) == generated
            assert generated > 0
            second = _run_source(
                program, compiled, "compiled", "cpu", True, region_size=1 << 17
            )
        counters = [rt.obs.counters.as_dict() for rt, _ in (first, second)]
        assert counters[0]["code_cache.codegen"] == counters[0]["code_cache.compilations"]
        assert "code_cache.codegen" not in counters[1]
        assert second[0].code_cache.codegen == 0
        assert second[0].code_cache.compilations == first[0].code_cache.compilations
        assert len(compiled.jit_code) == generated
        # Different regions, same bytes where the regions overlap.
        assert second[1] == first[1]
        size = first[0].region.size
        assert bytes(second[0].region.physical.data[:size]) == bytes(
            first[0].region.physical.data
        )
        for index, (a, b) in enumerate(zip(first[0].trace_log, second[0].trace_log)):
            _assert_trace_equal(a, b, f"trace {index}")
        assert _dumps(compiled) == frozen
        clone = pickle.loads(frozen)
        assert clone.jit_code == {} and clone.vector_code is None

    def test_bound_code_faults_against_its_own_region(self):
        """The limits are bind-time arguments, not part of the text."""
        fn = make_fn(ret=I32, params=(ptr(I32),), names=("p",))
        b = IRBuilder(fn.new_block("entry"))
        b.ret(b.load(fn.args[0]))
        code: dict = {}
        small, large = SharedRegion(1 << 12), SharedRegion(1 << 16)
        address = large.cpu_base + (1 << 13)
        for region, faults in ((small, True), (large, False)):
            engine = CompiledEngine(region, code_cache=CodeCache(region, code=code))
            if faults:
                with pytest.raises(MemoryFault):
                    engine.call_function(fn, [address])
            else:
                assert engine.call_function(fn, [address]) == 0
        assert len(code) == 1
