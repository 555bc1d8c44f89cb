"""The launch as the engine's unit of work.

* differential — what ``CompiledEngine.run_launch`` fills directly equals
  ``LaunchTrace.from_traces`` over the same lanes run one ``call_function``
  at a time (fresh engine and trace per lane, the lifecycle the columns
  are defined by), column for column, for every workload, under a budget
  small enough to drop; ``run_chunk`` equals the same lanes through one
  engine and one trace;
* private memory is per work-item on both devices and both engines (a
  CPU chunk used to leak its lanes' stack arrays until it faulted);
* a trap mid-launch leaves the private buffer in the pool, stamps the
  lane, and the accumulators clean;
* one engine per launch, counters at launch granularity;
* one constructor from unit counts — a columnar launch whose lanes enter
  callees in different orders has the scalar launch's rows, row for row;
* both engines' event columns at their narrowest exact widths, 26 bytes
  per kept event.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.exec import (
    CompiledEngine,
    ExecutionError,
    VectorCodeCache,
    classify_kernel,
    run_vectorized,
)
from repro.exec.buffers import EVENT_DTYPES, LaunchTrace, launch_events
from repro.fuzz.oracle import heap_digest
from repro.ir import I32, Constant, Function, FunctionType, IRBuilder
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


def _lane_by_lane(rt, kernel, span, args_of, budget) -> LaunchTrace:
    """The oracle: a fresh engine and trace per work-item, concatenated."""
    per_item = max(1000, budget // max(1, len(span)))
    kept = 0
    traces = []
    for index in span:
        trace = rt._new_trace(min(per_item, max(0, budget - kept)))
        engine = rt._make_engine(
            device="gpu", trace=trace, global_id=index, num_cores=rt.system.gpu.num_eus
        )
        engine.call_function(kernel, args_of(index))
        engine.release_private_memory()
        kept += len(trace.mem_events)
        traces.append(trace)
    return LaunchTrace.from_traces(traces)


def _assert_launch_equal(expected: LaunchTrace, got: LaunchTrace, where: str) -> None:
    for field in dataclasses.fields(LaunchTrace):
        name = field.name
        if name == "per_lane" or name.startswith("branch_"):
            continue  # from_traces leaves the branch matrices to its lanes
        a, b = getattr(expected, name), getattr(got, name)
        if name == "n":
            assert a == b, where
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b), f"{where}: {name}"
    for lane, (a, b) in enumerate(zip(expected.lanes(), got.lanes())):
        _assert_trace_equal(a, b, f"{where} lane {lane}")
    assert expected.block_totals() == got.block_totals(), where
    assert list(expected.block_totals()) == list(got.block_totals()), where


def _check_gpu_launches(rt, seen: list) -> None:
    """Run every GPU launch twice — lane by lane, then (from the same
    region bytes) as one launch — and compare."""
    backend = rt.backends["gpu"]
    real = backend._gpu_traces
    data = rt.region.physical.data

    def checked(rt, kernel, span, args_of, budget=None):
        if budget is None:
            budget = rt.mem_event_cap
        before = bytes(data)
        expected = _lane_by_lane(rt, kernel, span, args_of, budget)
        after = bytes(data)
        data[:] = before
        got = real(rt, kernel, span, args_of, budget)
        assert bytes(data) == after, kernel.name
        _assert_launch_equal(expected, got, kernel.name)
        seen.append(got)
        return got

    backend._gpu_traces = checked


def _check_cpu_chunks(rt, seen: list) -> None:
    backend = rt.backends["cpu"]
    real = backend._run_lanes
    data = rt.region.physical.data

    def checked(engine, kernel, span, args_of):
        before = bytes(data)
        oracle = rt._make_engine(
            device="cpu",
            trace=rt._new_trace(engine.trace.mem_event_cap),
            num_cores=engine.num_cores,
            allocator=engine.allocator,
        )
        for index in span:
            oracle.global_id = index
            oracle.reset_private_memory()
            oracle.call_function(kernel, args_of(index))
        oracle.release_private_memory()
        after = bytes(data)
        data[:] = before
        real(engine, kernel, span, args_of)
        assert bytes(data) == after, kernel.name
        _assert_trace_equal(oracle.trace, engine.trace, kernel.name)
        seen.append(engine.trace)

    backend._run_lanes = checked


@pytest.mark.parametrize("on_cpu", [False, True], ids=["gpu", "cpu"])
@pytest.mark.parametrize("name", NINE)
def test_launch_equals_its_lanes_one_at_a_time(name, on_cpu):
    workload = WORKLOADS[name]()
    rt = workload.make_runtime(system=ultrabook(), engine="compiled")
    rt.mem_event_cap = SMALL_BUDGET
    seen: list = []
    (_check_cpu_chunks if on_cpu else _check_gpu_launches)(rt, seen)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        state = workload.build(rt, SCALE)
        workload.run(rt, state, on_cpu=on_cpu)
        workload.validate(rt, state)
    assert seen
    if on_cpu:
        assert any(trace.mem_events_dropped for trace in seen)
    else:
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
    real = backend._gpu_traces
    seen = []
    backend._gpu_traces = lambda *args: seen.append(real(*args)) or seen[-1]
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


# -- one constructor: block rows in the order a scalar lane enters callees ---


def _callees_in_lane_order() -> Function:
    """A kernel whose even lanes call ``g`` then ``f`` and whose odd lanes
    call ``f`` then ``g``.  The odd lanes' block comes first, so a columnar
    launch enters ``f`` first while lane 0, which owns every first row,
    enters ``g`` first."""

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
