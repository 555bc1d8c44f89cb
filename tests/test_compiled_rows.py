"""The compiled engine's memory and f32 rows, each against what it spells
more cheaply.

* the float32 slot — an f32 result is rounded by storing it into the
  engine's one-element ``memoryview`` cast to ``"f"`` and reading it back;
  that must be the interpreter's native ``struct`` round trip bit for bit
  (a CPython that changes native packing fails here first);
* inline atomics — the generated row against the reference
  ``Interpreter`` on both devices, events on and off: returned old values
  (stored by the kernel), heap bytes, event rows and the trap's type and
  text, over duplicate addresses, one address for every lane, private
  (``alloca``) addresses, i32 wrap at the limits and f32 adds that
  overflow.  Neither ``fuzz/irgen.py`` nor ``fuzz/srcgen.py`` generates
  atomics, so beyond SSSP and ConnectedComponent this is their defence;
* the one bounds compare — the last whole word of the region is in, one
  byte further is out;
* sequence-number slots — a callee a virtual call generates in the middle
  of a lane grows the list its callers hold (and every dispatch is a
  code-cache lookup); runtimes generating on several threads never hand
  one slot to two instructions;
* the event cap and the lane's end — a cap crossed inside a loop, by the
  kernel or by a callee, refuses the rest of the lane's (and of the
  launch's, on the CPU) events and numbers no more of them, and a
  ``ret`` inside a loop ends the lane with its row complete;
* generated text — no module of the nine workloads spells a row these
  replaced;
* the vector engine — an f32 product that overflows to ``inf`` is what
  the scalar engines compute, not a fallback.
"""

import math
import random
import re
import struct
import sys
import threading
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.exec import CodeCache, CompiledEngine, ExecutionError, Interpreter
from repro.exec.compiled import JitCode
from repro.exec.interp import _F32_PACK, _F32_UNPACK
from repro.ir import (
    F32,
    Constant,
    Function,
    FunctionType,
    I16,
    I32,
    I64,
    I8,
    IRBuilder,
    add_phi_incoming,
    ptr,
)
from repro.ir.intrinsics import (
    ATOMIC_ADD_F32,
    ATOMIC_ADD_I32,
    ATOMIC_CAS_I32,
    ATOMIC_MAX_I32,
    ATOMIC_MIN_I32,
)
from repro.obs import Observer
from repro.passes import OptConfig
from repro.runtime import ConcordRuntime, compile_source, ultrabook
from repro.svm import MemoryFault, SharedRegion
from repro.workloads import all_workloads

from .test_engine_equivalence import NINE
from .test_launch import _assert_launch_equal

# -- the float32 slot ------------------------------------------------------------

FLT_MAX = float.fromhex("0x1.fffffep+127")
#: Halfway between FLT_MAX and the next binade: rounds (to even) to inf.
HALFWAY = float.fromhex("0x1.ffffffp+127")
EDGES = [
    FLT_MAX,
    HALFWAY,
    math.nextafter(HALFWAY, 0.0),
    math.nextafter(HALFWAY, math.inf),
    1e39,
    2.0**200,
    float.fromhex("0x1p-149"),  # the smallest f32 subnormal
    float.fromhex("0x1p-150"),  # half of it: rounds to even, 0
    float.fromhex("0x1.8p-150"),
    5e-324,
    0.0,
    math.inf,
    math.nan,
]
FLOATS = st.one_of(
    st.floats(),
    st.floats(width=32),
    st.sampled_from(EDGES + [-x for x in EDGES]),
    st.floats(min_value=FLT_MAX * (1 - 2**-20), max_value=FLT_MAX * (1 + 2**-20)),
)

_SLOT = CompiledEngine(SharedRegion(1 << 12))._f32


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@settings(max_examples=400, deadline=None)
@given(
    value=st.one_of(
        FLOATS,
        # IR ints are 64-bit patterns; past 2**1024 neither conversion
        # has a float to give.
        st.integers(-(2**1000), 2**1000),
        st.booleans(),
    )
)
def test_float32_slot_is_the_struct_round_trip(value):
    _SLOT[0] = value
    assert _bits(_SLOT[0]) == _bits(_F32_UNPACK(_F32_PACK(value))[0])


@pytest.mark.parametrize("op", ["fmul", "fadd"])
def test_f32_rows_round_through_the_slot(op):
    """The rows write the slot, and overflow to inf as the interpreter does."""
    fn = Function("f", FunctionType(F32, (F32, F32)), ["a", "b"])
    b = IRBuilder(fn.new_block("entry"))
    b.ret(b.binop(op, fn.args[0], fn.args[1]))
    region = SharedRegion(1 << 12)
    cache = CodeCache(region)
    engine = CompiledEngine(region, code_cache=cache)
    for x, y in [(1e20, 1e20), (FLT_MAX, FLT_MAX), (-3e38, -3e38), (0.1, 0.2), (math.nan, 1.0)]:
        got = engine.call_function(fn, [x, y])
        assert _bits(got) == _bits(Interpreter(region).call_function(fn, [x, y]))
    assert "f32_[0] = " in cache.get(fn, "cpu", True).code.entry(False).source


# -- inline atomics ------------------------------------------------------------------

#: intrinsic -> how many operands it takes besides the address
ATOMICS = {
    ATOMIC_ADD_I32: 1,
    ATOMIC_MIN_I32: 1,
    ATOMIC_MAX_I32: 1,
    ATOMIC_CAS_I32: 2,
    ATOMIC_ADD_F32: 1,
}
CELLS = 4  # the shared words the lanes' atomics land on
CELL_BASE = 256
OUT_BASE = 1024  # per lane: the old value, then the value after

I32_LIMITS = [-(2**31), -(2**31) + 1, -1, 0, 1, 2**31 - 2, 2**31 - 1]
I32S = st.one_of(st.sampled_from(I32_LIMITS), st.integers(-(2**31), 2**31 - 1))
# Operands the host passes unwrapped: the row wraps the result.
I32_OPERANDS = st.one_of(I32S, st.sampled_from([2**31, -(2**31) - 1, 2**32 + 5]))
F32S = st.one_of(st.floats(width=32), st.sampled_from([3e38, -3e38, FLT_MAX]))
F32_OPERANDS = st.one_of(F32S, st.floats())


def _atomic_kernel(intrinsic, private: str) -> Function:
    """``k(p, out, b, c)``: the atomic with ``b`` (and ``c``) on ``p``, on
    a private copy of it (``private="copied"``) or on a fresh private word
    the atomic is the first to write (``"fresh"``); ``out[0]`` = the old
    value it returned, ``out[1]`` = the value after."""
    type_ = intrinsic.ftype.params[0].pointee
    fn = Function("k", FunctionType(type_, (ptr(type_), ptr(type_), type_, type_)),
                  ["p", "out", "b", "c"])
    b = IRBuilder(fn.new_block("entry"))
    p, out, x, y = fn.args
    target = p
    if private:
        target = b.alloca(type_)
        if private == "copied":
            b.store(b.load(p), target)
    old = b.call(intrinsic, [target, x, y][: 1 + ATOMICS[intrinsic]])
    b.store(old, out)
    b.store(b.load(target), b.gep(out, ptr(type_), offset=4))
    b.ret(old)
    return fn


@st.composite
def _scenarios(draw):
    intrinsic = draw(st.sampled_from(list(ATOMICS)))
    f32 = intrinsic is ATOMIC_ADD_F32
    n = draw(st.integers(1, 10))
    if draw(st.booleans()):
        cells = [draw(st.integers(0, CELLS - 1))] * n  # every lane on one address
    else:
        cells = draw(st.lists(st.integers(0, CELLS - 1), min_size=n, max_size=n))
    operands = F32_OPERANDS if f32 else I32_OPERANDS
    return {
        "intrinsic": intrinsic,
        "private": draw(st.sampled_from([None, "copied", "fresh"])),
        "initial": draw(st.lists(F32S if f32 else I32S, min_size=CELLS, max_size=CELLS)),
        "cells": cells,
        "operands": draw(st.lists(st.tuples(operands, operands), min_size=n, max_size=n)),
        "fault_lane": draw(st.one_of(st.none(), st.integers(0, n - 1))),
        "budget": draw(st.sampled_from([3, 1 << 20])),
    }


def _run_atomics(engine_class, fn, scenario, device: str, collect: bool):
    """Every lane of ``scenario`` through ``engine_class`` as one launch
    (a CPU chunk on the CPU).  Returns what is observable."""
    intrinsic = scenario["intrinsic"]
    region = SharedRegion(1 << 16)
    base = region.cpu_base
    for index, value in enumerate(scenario["initial"]):
        address = base + CELL_BASE + 4 * index
        if intrinsic is ATOMIC_ADD_F32:
            region.physical.data[address - base : address - base + 4] = struct.pack("<f", value)
        else:
            region.write_int(address, 4, value, signed=True)
    here = region.cpu_to_gpu if device == "gpu" else (lambda address: address)

    def args_of(lane):
        target = here(base + CELL_BASE + 4 * scenario["cells"][lane])
        if lane == scenario["fault_lane"]:
            # the GPU cannot see a CPU address; the CPU, one past the region
            target = base + CELL_BASE if device == "gpu" else base + region.size
        return [target, here(base + OUT_BASE + 8 * lane), *scenario["operands"][lane]]

    engine = engine_class(region, device, collect_mem_events=collect)
    span = range(len(scenario["cells"]))
    trap = launch = None
    try:
        launch = engine.run_launch(fn, span, args_of, scenario["budget"])
    except (ExecutionError, MemoryFault, OverflowError) as exc:
        trap = type(exc), str(exc)
    return trap, bytes(region.physical.data), launch


ATOMIC_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@ATOMIC_SETTINGS
@given(scenario=_scenarios())
@pytest.mark.parametrize("collect", [True, False], ids=["events", "no-events"])
@pytest.mark.parametrize("device", ["cpu", "gpu"])
def test_inline_atomics_equal_the_interpreter(device, collect, scenario):
    fn = _atomic_kernel(scenario["intrinsic"], scenario["private"])
    ref_trap, ref_bytes, ref_launch = _run_atomics(Interpreter, fn, scenario, device, collect)
    trap, raw, launch = _run_atomics(CompiledEngine, fn, scenario, device, collect)
    assert trap == ref_trap
    assert raw == ref_bytes
    if trap is None:
        _assert_launch_equal(ref_launch, launch, "launch")


def test_a_faulting_atomic_records_no_event():
    region = SharedRegion(1 << 12)
    fn = _atomic_kernel(ATOMIC_ADD_I32, private=None)
    engine = CompiledEngine(region, "cpu")
    bad = region.cpu_base + region.size
    with pytest.raises(MemoryFault):
        engine.call_function(fn, [bad, region.cpu_base, 1, 0])
    assert len(engine.trace.mem_events) == 0


# -- the one bounds compare -----------------------------------------------------------


@pytest.mark.parametrize("device", ["cpu", "gpu"])
@pytest.mark.parametrize("type_", [I8, I16, I32, I64], ids=["1", "2", "4", "8"])
def test_the_bounds_compare_admits_exactly_the_region(device, type_):
    """The last whole word of the region loads and stores; one byte
    further, or one before the base, faults with the interpreter's text."""
    fn = Function("f", FunctionType(type_, (ptr(type_),)), ["p"])
    b = IRBuilder(fn.new_block("entry"))
    b.store(b.binop("add", b.load(fn.args[0]), Constant(type_, 1)), fn.args[0])
    b.ret(b.load(fn.args[0]))
    region = SharedRegion(1 << 12)
    base = region.gpu_base if device == "gpu" else region.cpu_base
    last = base + region.size - type_.size()
    assert CompiledEngine(region, device).call_function(fn, [last]) == 1
    for address in (last + 1, base - 1):
        texts = []
        for engine_class in (Interpreter, CompiledEngine):
            with pytest.raises(MemoryFault) as info:
                engine_class(region, device).call_function(fn, [address])
            texts.append(str(info.value))
        assert texts[0] == texts[1]


# -- virtual calls -------------------------------------------------------------------

SYMBOL = 0x5150


def _virtual_caller():
    """``f(obj)``: a field load, a virtual call to ``g`` (slot 1), the
    same load again; ``g(obj)`` loads that field too."""
    g = Function("g", FunctionType(I32, (ptr(I32),)), ["obj"])
    b = IRBuilder(g.new_block("entry"))
    b.ret(b.load(b.gep(g.args[0], ptr(I32), offset=8)))
    f = Function("f", FunctionType(I32, (ptr(I32),)), ["obj"])
    b = IRBuilder(f.new_block("entry"))
    field = b.gep(f.args[0], ptr(I32), offset=8)
    before = b.load(field)
    result = b.vcall(f.args[0], None, 1, I32, [])
    b.ret(b.add(b.add(before, result), b.load(field)))
    return f, g


@pytest.mark.parametrize("device", ["cpu", "gpu"])
def test_a_callee_generated_mid_lane_grows_the_sequence_numbers(device):
    """``g`` is generated at the first dispatch, inside the first lane,
    after ``f``'s frame loaded the list: its slot is appended in place."""
    f, g = _virtual_caller()
    lanes = range(3)
    results = []
    for engine_class in (Interpreter, CompiledEngine):
        region = SharedRegion(1 << 12)
        here = region.cpu_to_gpu if device == "gpu" else (lambda address: address)
        obj, vtable = region.cpu_base + 64, region.cpu_base + 256
        region.write_int(obj, 8, here(vtable), signed=False)
        region.write_int(obj + 8, 4, 7, signed=True)
        region.write_int(vtable + 8, 8, SYMBOL, signed=True)
        engine = engine_class(region, device, symbols={SYMBOL: g})
        results.append(engine.run_launch(f, lanes, lambda _lane: [here(obj)], 1 << 20))
    _assert_launch_equal(*results, "launch")
    # f's first load, g's load, f's second load: each lane numbers from 0
    assert results[1].seq.tolist() == [0] * 9
    cache = engine.code_cache
    assert len(engine._mem_seq) == cache.seq_end == 3
    assert cache.hits == len(lanes) - 1 + len(lanes) - 1  # f's lanes, g's dispatches


def _loads(name: str, count: int) -> Function:
    fn = Function(name, FunctionType(I32, (ptr(I32),)), ["p"])
    b = IRBuilder(fn.new_block("entry"))
    total = b.i32(0)
    for index in range(count):
        total = b.add(total, b.load(b.gep(fn.args[0], ptr(I32), offset=4 * index)))
    b.ret(total)
    return fn


def test_racing_runtimes_never_share_a_slot():
    """Runtimes on more threads than cores generate into one program's
    dict at once: every slot still names one instruction, per device, and
    the slots stay dense."""
    functions = [_loads(f"f{i}", 1 + i % 3) for i in range(16)]
    shared: dict = {}
    errors = []

    def runtime(seed: int) -> None:
        try:
            cache = CodeCache(SharedRegion(1 << 12), code=shared)
            for fn in random.Random(seed).sample(functions, len(functions)):
                cache.get(fn, "gpu", True)
        except Exception as exc:  # a thread's failure fails the test below
            errors.append(exc)

    threads = [threading.Thread(target=runtime, args=(seed,)) for seed in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    owners = {}
    for (fn, _device, _collect), code in shared.items():
        for slot in set(re.findall(r"seqs_\[(\d+)\]", code.entry(False).source)):
            assert owners.setdefault(int(slot), fn) is fn
    assert sorted(owners) == list(range(sum(1 + i % 3 for i in range(16))))


def test_an_unknown_vtable_symbol_traps():
    f, _g = _virtual_caller()
    region = SharedRegion(1 << 12)
    obj, vtable = region.cpu_base + 64, region.cpu_base + 256
    region.write_int(obj, 8, vtable, signed=False)
    region.write_int(vtable + 8, 8, SYMBOL, signed=True)
    for engine_class in (Interpreter, CompiledEngine):
        with pytest.raises(ExecutionError) as info:
            engine_class(region, "cpu").call_function(f, [obj])
        assert str(info.value) == (
            f"virtual dispatch to unknown symbol {SYMBOL:#x} (slot 1) — vtables not loaded?"
        )


# -- the event cap and the lane's end ----------------------------------------------------


def _searching_kernel(via_callee: bool) -> Function:
    """``k(p, n, stop)``: load ``p[0..n)`` in a loop — directly or through a
    callee — and return the index of the first word equal to ``stop``
    from inside the loop, or -1 after it."""
    get = Function("get", FunctionType(I32, (ptr(I32), I32)), ["p", "i"])
    b = IRBuilder(get.new_block("entry"))
    b.ret(b.load(b.gep(get.args[0], ptr(I32), indices=[(get.args[1], 4)])))
    fn = Function("k", FunctionType(I32, (ptr(I32), I32, I32)), ["p", "n", "stop"])
    p, n, stop = fn.args
    entry, header, body, found, latch, done = (
        fn.new_block(name) for name in ("entry", "header", "body", "found", "latch", "done")
    )
    b = IRBuilder(entry)
    b.br(header)
    b.position_at_end(header)
    i = b.phi(I32, "i")
    b.condbr(b.icmp("slt", i, n), body, done)
    b.position_at_end(body)
    if via_callee:
        word = b.call(get, [p, i])
    else:
        word = b.load(b.gep(p, ptr(I32), indices=[(i, 4)]))
    b.condbr(b.icmp("eq", word, stop), found, latch)
    b.position_at_end(found)
    b.ret(i)
    b.position_at_end(latch)
    nxt = b.add(i, b.i32(1))
    b.br(header)
    b.position_at_end(done)
    b.ret(b.i32(-1))
    add_phi_incoming(i, b.i32(0), entry)
    add_phi_incoming(i, nxt, latch)
    return fn


@settings(max_examples=60, deadline=None)
@given(
    lanes=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 14)), min_size=1, max_size=6),
    budget=st.integers(0, 30),
)
@pytest.mark.parametrize("via_callee", [False, True], ids=["kernel", "callee"])
@pytest.mark.parametrize("device", ["cpu", "gpu"])
def test_a_cap_crossed_inside_a_loop_equals_the_interpreter(device, via_callee, lanes, budget):
    """``budget`` is the launch's event budget (a GPU launch, or a CPU
    chunk): small enough to be crossed in the middle of a lane's loop.
    Lane ``(n, stop)`` loads up to ``n`` words and returns from inside the
    loop at the first equal to ``stop`` (word ``j`` holds ``j``)."""
    fn = _searching_kernel(via_callee)
    results = []
    for engine_class in (Interpreter, CompiledEngine):
        region = SharedRegion(1 << 12)
        words = region.cpu_base + 256
        for j in range(16):
            region.write_int(words + 4 * j, 4, j, signed=True)
        here = region.cpu_to_gpu if device == "gpu" else (lambda address: address)

        def args_of(lane):
            n, stop = lanes[lane]
            return [here(words), n, stop]

        engine = engine_class(region, device)
        results.append(engine.run_launch(fn, range(len(lanes)), args_of, budget))
    _assert_launch_equal(*results, "launch")


# -- generated text --------------------------------------------------------------------

#: What the rows spelled before, and what they spell now.
REPLACED = ("_F32_PACK(", ".extend((", "seqs_.get(", "_atomic(", "_vcall(")
SPELLED = ("f32_[0] = ", ".fromlist([", "seqs_[", "o_ = ", "_vtarget(")


def test_no_workload_module_spells_a_replaced_row():
    seen = set()
    for name in NINE:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            program = all_workloads()[name].compile(OptConfig.gpu_all())
        for function in program.module.functions.values():
            for device in ("cpu", "gpu"):
                for collect in (True, False):
                    source = JitCode(function, device, collect).entry(False).source
                    for spelling in REPLACED:
                        assert spelling not in source, (name, function.name, device)
                    seen.update(spelling for spelling in SPELLED if spelling in source)
    assert seen == set(SPELLED)


# -- the vector engine ---------------------------------------------------------------

SQUARE_SRC = """
class SquareBody {
public:
  float* data;
  void operator()(int i) { data[i] = data[i] * data[i]; }
};
"""


def test_an_overflowing_f32_product_runs_vectorized():
    """Rounding a finite product past FLT_MAX gives inf in every engine;
    it used to send the kernel to the scalar engine."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        program = compile_source(SQUARE_SRC, OptConfig.gpu_all())
    n = 64
    values = [(1e20 if i % 3 else -2.5e19) * (i + 1) for i in range(n)]
    regions = {}
    for engine in ("compiled", "vector"):
        observer = Observer()
        rt = ConcordRuntime(program, ultrabook(), engine=engine, observer=observer)
        data = rt.new_array(F32, n)
        data.fill_from(values)
        body = rt.new("SquareBody")
        body.data = data
        rt.parallel_for_hetero(n, body)
        assert all(math.isinf(x) for x in data.to_list())
        regions[engine] = bytes(rt.region.physical.data)
    counters = observer.counters.as_dict()
    assert counters.get("vector.kernels_vectorized", 0) > 0
    assert counters.get("vector.fallbacks", 0) == 0
    assert regions["vector"] == regions["compiled"]
