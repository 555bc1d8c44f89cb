"""The launch as the engine's unit of work.

* differential — what ``CompiledEngine.run_launch`` fills directly equals
  ``LaunchTrace.from_traces`` over the same lanes run one ``call_function``
  at a time (fresh engine and trace per lane, the lifecycle the columns
  are defined by), column for column, for every workload, under a budget
  small enough to drop, for GPU launches and CPU chunks alike;
* private memory is per work-item on both devices and both engines (a
  CPU chunk used to leak its lanes' stack arrays until it faulted);
* the step limit is per work-item, a CPU chunk's included, and a CPU
  chunk keeps its first ``budget`` events;
* a trap mid-launch leaves the private buffer in the pool, stamps the
  lane, and the accumulators clean;
* one engine per launch, counters at launch granularity;
* one constructor from unit counts — a columnar launch whose lanes enter
  callees in different orders has the scalar launch's rows, row for row
  (ascending uid);
* both engines' event columns at their narrowest exact widths, 26 bytes
  per kept event.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.exec import (
    CompiledEngine,
    ExecTrace,
    ExecutionError,
    Interpreter,
    VectorCodeCache,
    classify_kernel,
    run_vectorized,
)
from repro.exec.buffers import EVENT_DTYPES, LaunchTrace, launch_events
from repro.fuzz.oracle import heap_digest
from repro.ir import I32, Constant, Function, FunctionType, IRBuilder, add_phi_incoming
from repro.ir.intrinsics import GPU_GLOBAL_ID
from repro.obs import Observer
from repro.passes import OptConfig
from repro.runtime import ConcordRuntime, compile_source, ultrabook
from repro.svm import MemoryFault, SharedRegion
from repro.workloads import all_workloads

from .test_engine_equivalence import NINE, SCALE, _assert_trace_equal

WORKLOADS = all_workloads()

#: The first few lanes fill it; every later lane records nothing.
SMALL_BUDGET = 64


def _lane_by_lane(rt, device, kernel, span, args_of, budget) -> LaunchTrace:
    """The oracle: a fresh engine and trace per work-item, concatenated.
    A GPU lane's cap is an even share of the budget (at least 1000
    events), a CPU lane's all that the lanes before it left."""
    per_item = budget if device == "cpu" else max(1000, budget // max(1, len(span)))
    system = rt.system.cpu.cores if device == "cpu" else rt.system.gpu.num_eus
    kept = 0
    traces = []
    for index in span:
        trace = ExecTrace(mem_event_cap=min(per_item, max(0, budget - kept)))
        engine = CompiledEngine(
            rt.region,
            device=device,
            trace=trace,
            global_id=index,
            num_cores=system,
            symbols=rt._symbols,
            allocator=rt.allocator if device == "cpu" else None,
            code_cache=rt.code_cache,
            private_pool=rt.private_pool,
        )
        engine.call_function(kernel, args_of(index))
        engine.release_private_memory()
        kept += len(trace.mem_events)
        traces.append(trace)
    return LaunchTrace.from_traces(traces)


def _assert_launch_equal(expected: LaunchTrace, got: LaunchTrace, where: str) -> None:
    for field in dataclasses.fields(LaunchTrace):
        name = field.name
        if name == "per_lane":
            continue
        a, b = getattr(expected, name), getattr(got, name)
        if name == "n":
            assert a == b, where
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b), f"{where}: {name}"
    for lane, (a, b) in enumerate(zip(expected.lanes(), got.lanes())):
        _assert_trace_equal(a, b, f"{where} lane {lane}")
    assert expected.block_totals() == got.block_totals(), where
    assert list(expected.block_totals()) == list(got.block_totals()), where


def _check_launches(rt, device: str, seen: list) -> None:
    """Run every launch on ``device`` twice — lane by lane, then (from the
    same region bytes) as one launch — and compare."""
    backend = rt.backends[device]
    real = backend._traces
    data = rt.region.physical.data

    def checked(rt, kernel, span, args_of, budget=None):
        if budget is None:
            budget = rt.mem_event_cap
        before = bytes(data)
        expected = _lane_by_lane(rt, device, kernel, span, args_of, budget)
        after = bytes(data)
        data[:] = before
        got = real(rt, kernel, span, args_of, budget)
        assert bytes(data) == after, kernel.name
        _assert_launch_equal(expected, got, kernel.name)
        seen.append(got)
        return got

    backend._traces = checked


@pytest.mark.parametrize("on_cpu", [False, True], ids=["gpu", "cpu"])
@pytest.mark.parametrize("name", NINE)
def test_launch_equals_its_lanes_one_at_a_time(name, on_cpu):
    """A reduction's joins on the CPU are a launch through the same
    backend entry, so they are checked too."""
    workload = WORKLOADS[name]()
    rt = workload.make_runtime(system=ultrabook(), engine="compiled")
    rt.mem_event_cap = SMALL_BUDGET
    seen: list = []
    _check_launches(rt, "cpu" if on_cpu else "gpu", seen)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        state = workload.build(rt, SCALE)
        workload.run(rt, state, on_cpu=on_cpu)
        workload.validate(rt, state)
    assert seen
    assert any(trace.dropped.any() for trace in seen)
    assert any((trace.caps == 0).any() for trace in seen)


# -- private memory is per work-item -----------------------------------------

STACK_SRC = """
class StackBody {
public:
  int* data;
  void operator()(int i) {
    int tmp[64];
    int k = i & 63;
    tmp[k] = i;
    tmp[(k + 1) & 63] = tmp[(k + 7) & 63] + 1;
    data[i] = tmp[k] + tmp[(k + 1) & 63];
  }
};
"""


def _compile(source):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return compile_source(source, OptConfig.gpu_all())


def test_stack_arrays_do_not_accumulate_across_work_items():
    """5000 work-items x 256 bytes is past the 1 MiB private window: a
    chunk that never rewinds the bump pointer faults near lane 4100.  An
    uninitialised slot reads 0 on every lane of both devices."""
    program = _compile(STACK_SRC)
    n = 5000
    digests = set()
    for engine in ("compiled", "reference"):
        for on_cpu in (False, True):
            rt = ConcordRuntime(program, ultrabook(), engine=engine)
            data = rt.new_array(I32, n)
            body = rt.new("StackBody")
            body.data = data
            rt.parallel_for_hetero(n, body, on_cpu=on_cpu)
            assert data.to_list() == [i + 1 for i in range(n)], (engine, on_cpu)
            digests.add(heap_digest(rt))
    assert len(digests) == 1


# -- the step limit is per work-item ------------------------------------------


def _spinning_kernel() -> Function:
    """``k(n)``: ``n`` trips of an empty loop."""
    fn = Function("spin", FunctionType(I32, (I32,)), ["n"])
    entry, header, body, done = (fn.new_block(name) for name in ("entry", "header", "body", "done"))
    builder = IRBuilder(entry)
    builder.br(header)
    builder.position_at_end(header)
    i = builder.phi(I32, "i")
    builder.condbr(builder.icmp("slt", i, fn.args[0]), body, done)
    builder.position_at_end(body)
    nxt = builder.add(i, Constant(I32, 1))
    builder.br(header)
    builder.position_at_end(done)
    builder.ret(i)
    add_phi_incoming(i, Constant(I32, 0), entry)
    add_phi_incoming(i, nxt, body)
    return fn


def test_the_step_limit_is_per_work_item_of_a_cpu_chunk():
    """Four lanes of a CPU chunk take twice the step limit together and
    half of it each: the chunk runs on both engines.  A lane of eight
    times the trips is over the limit alone, and traps with the same text
    on both."""
    kernel = _spinning_kernel()
    probe = Interpreter(SharedRegion(1 << 12), "cpu")
    probe.call_function(kernel, [50])
    limit = 2 * probe._steps
    texts = []
    for engine_class in (Interpreter, CompiledEngine):
        engine = engine_class(SharedRegion(1 << 12), "cpu", max_steps=limit)
        launch = engine.run_launch(kernel, range(4), lambda _index: [50], SMALL_BUDGET)
        assert launch.instructions.sum() == 4 * probe.trace.instructions
        with pytest.raises(ExecutionError) as info:
            engine.run_launch(kernel, range(4), lambda index: [400 if index == 2 else 50], SMALL_BUDGET)
        assert engine.global_id == 2
        texts.append(str(info.value))
    assert texts[0] == texts[1] == f"step limit {limit} exceeded in spin"


# -- a CPU chunk keeps its first budget events ---------------------------------

SPIN_LOAD_SRC = """
class SpinLoad {
public:
  int* data;
  void operator()(int i) {
    int s = 0;
    for (int k = 0; k < 1500; k++) { s = s + data[k & 15]; }
    data[16 + i] = s;
  }
};
"""


@pytest.mark.parametrize("engine", ["compiled", "reference"])
def test_a_cpu_chunk_keeps_its_first_budget_events(engine):
    """A CPU lane's cap is all that the lanes before it left of the
    budget, so a chunk keeps its first ``budget`` events; a GPU lane's
    would be an even share (1000 here)."""
    rt = ConcordRuntime(_compile(SPIN_LOAD_SRC), ultrabook(), engine=engine)
    rt.mem_event_cap = 2000
    data = rt.new_array(I32, 18)
    body = rt.new("SpinLoad")
    body.data = data
    backend = rt.backends["cpu"]
    real = backend._traces
    seen = []
    backend._traces = lambda *args: seen.append(real(*args)) or seen[-1]
    rt.parallel_for_hetero(2, body, on_cpu=True)
    (trace,) = seen
    # 1503 events a lane: the body's field, 1500 loads, the store
    assert trace.kept.tolist() == [1503, 497]
    assert trace.caps.tolist() == [2000, 497]
    assert trace.dropped.tolist() == [0, 1006]


# -- traps ---------------------------------------------------------------------

TRAP_SRC = """
class TrapBody {
public:
  int* data;
  int* bad;
  void operator()(int i) {
    int tmp[4];
    tmp[i & 3] = i;
    if (i == 37) { data[i] = bad[0]; }
    data[i] = tmp[i & 3];
  }
};
"""


@pytest.mark.parametrize("engine", ["compiled", "reference"])
@pytest.mark.parametrize("on_cpu", [False, True], ids=["gpu", "cpu"])
def test_trap_mid_launch(engine, on_cpu):
    program = _compile(TRAP_SRC)
    rt = ConcordRuntime(program, ultrabook(), engine=engine)
    data = rt.new_array(I32, 64)
    body = rt.new("TrapBody")
    body.data = data
    body.bad = 8  # neither region nor surface
    with pytest.raises((MemoryFault, ExecutionError)) as info:
        rt.parallel_for_hetero(64, body, on_cpu=on_cpu)
    exc = info.value
    assert exc.trap_device == ("cpu" if on_cpu else "gpu")
    assert exc.trap_global_id == 37
    assert exc.trap_kernel.startswith("kernel.TrapBody")
    assert exc.trap_function == exc.trap_kernel
    assert exc.trap_block_uids
    # the 1 MiB buffer went back to the pool, zeroed
    assert len(rt.private_pool._free) == 1
    assert not any(rt.private_pool._free[0][:64])
    assert data.to_list()[:37] == list(range(37))
    if engine == "compiled":
        # nothing of the trapped lane is left for the next launch to find
        assert all(
            not any(compiled.counts) for compiled in rt.code_cache._cache.values()
        )
        body.bad = data
        report = rt.parallel_for_hetero(64, body, on_cpu=on_cpu)
        assert data.to_list() == list(range(64))
        assert report.report.instructions > 0


# -- one engine, one set of counter updates per launch ------------------------------

TOUCH_SRC = """
class TouchBody {
public:
  int* data;
  void operator()(int i) { data[i] = data[i] + 1; }
};
"""


@pytest.mark.parametrize("on_cpu", [False, True], ids=["gpu", "cpu"])
def test_a_thousand_lanes_are_one_engine(on_cpu):
    observer = Observer()
    rt = ConcordRuntime(_compile(TOUCH_SRC), ultrabook(), observer=observer)
    data = rt.new_array(I32, 1000)
    body = rt.new("TouchBody")
    body.data = data
    made = []
    make_engine = rt._make_engine
    rt._make_engine = lambda *args, **kwargs: made.append(1) or make_engine(*args, **kwargs)
    adds = []  # one entry per CounterRegistry.add call
    observer.counters._sink = lambda name, _amount: adds.append(name)
    rt.parallel_for_hetero(1000, body, on_cpu=on_cpu)
    assert len(made) == 1
    assert data.to_list() == [1] * 1000
    device = "cpu" if on_cpu else "gpu"
    counters = observer.counters.as_dict()
    assert counters["engine.invocations"] == 1000
    assert counters[f"engine.invocations.{device}"] == 1000
    assert counters["code_cache.compilations"] == 1
    assert counters["code_cache.hits"] == 999
    for name in ("engine.invocations", f"engine.invocations.{device}", "code_cache.hits"):
        assert adds.count(name) == 1


@pytest.mark.parametrize("engine", ["compiled", "vector"])
def test_event_columns_take_26_bytes_per_kept_event(engine):
    """``lane`` and ``seq`` int32, ``size`` and ``is_store`` uint8, ``uid``
    int64 (a process-wide counter) and ``address`` uint64, from the
    scalar launch and the columnar one alike."""
    observer = Observer()
    rt = ConcordRuntime(_compile(TOUCH_SRC), ultrabook(), engine=engine, observer=observer)
    data = rt.new_array(I32, 1000)
    body = rt.new("TouchBody")
    body.data = data
    backend = rt.backends["gpu"]
    real = backend._traces
    seen = []
    backend._traces = lambda *args: seen.append(real(*args)) or seen[-1]
    rt.parallel_for_hetero(1000, body, on_cpu=False)
    assert observer.counters.as_dict().get("vector.lanes_retired", 0) == (
        1000 if engine == "vector" else 0
    )
    (trace,) = seen
    kept = trace.kept_events
    assert kept >= 2000  # a load and a store a lane, at least
    assert {name: getattr(trace, name).dtype for name in EVENT_DTYPES} == {
        "lane": np.int32,
        "uid": np.int64,
        "seq": np.int32,
        "address": np.uint64,
        "size": np.uint8,
        "is_store": np.uint8,
    }
    assert sum(getattr(trace, name).nbytes for name in EVENT_DTYPES) <= 26 * kept


@pytest.mark.parametrize("name, column, value", [("seq", 1, 1 << 31), ("size", 3, 256)])
def test_an_event_value_past_its_column_width_raises(name, column, value):
    """A narrow column never wraps: a ``seq`` past int32, or an access
    wider than 255 bytes, is an error."""
    row = [7, 0, 64, 4, 0]  # uid, seq, address, size, is_store
    row[column] = value
    with pytest.raises(OverflowError, match=name):
        launch_events(np.array([row], np.uint64), [1], [0], [1000])


# -- one constructor: block rows in uid order, whoever entered callees first ---


def _callees_in_lane_order() -> Function:
    """A kernel whose even lanes call ``g`` then ``f`` and whose odd lanes
    call ``f`` then ``g``.  The odd lanes' block comes first, so a columnar
    launch enters ``f`` first while lane 0 enters ``g`` first; the rows
    are in uid order from both."""

    def leaf(name):
        fn = Function(name, FunctionType(I32, (I32,)), ["x"])
        builder = IRBuilder(fn.new_block("entry"))
        builder.ret(builder.add(fn.args[0], Constant(I32, 1)))
        return fn

    f, g = leaf("f"), leaf("g")
    kernel = Function("k", FunctionType(I32, ()), [])
    builder = IRBuilder(kernel.new_block("entry"))
    odd, even, done = (kernel.new_block(name) for name in ("odd", "even", "done"))
    gid = builder.call(GPU_GLOBAL_ID, [])
    parity = builder.binop("and", gid, Constant(I32, 1))
    builder.condbr(builder.icmp("eq", parity, Constant(I32, 0)), even, odd)
    for block, callees in ((odd, (f, g)), (even, (g, f))):
        builder.position_at_end(block)
        for callee in callees:
            builder.call(callee, [gid])
        builder.br(done)
    builder.position_at_end(done)
    builder.ret(gid)
    return kernel


def test_both_engines_order_block_rows_as_a_scalar_lane_enters_callees():
    kernel = _callees_in_lane_order()
    engine = CompiledEngine(SharedRegion(1 << 12), device="gpu")
    span = range(6)
    expected = engine.run_launch(kernel, span, lambda index: [], SMALL_BUDGET)
    kind, reason, vfn = classify_kernel(VectorCodeCache(), kernel)
    assert kind != "gnarly", reason
    _machine, got = run_vectorized(engine, vfn, span, lambda index: [], SMALL_BUDGET)
    _assert_launch_equal(expected, got, kernel.name)
    for name in ("branch_uids", "branch_taken", "branch_total"):
        assert np.array_equal(getattr(expected, name), getattr(got, name)), name
