"""The threaded-code engine is bit-identical to the reference interpreter.

For all nine paper workloads, on both devices, the compiled engine must
produce exactly the same results (validated + identical shared-memory
bytes), the same execution traces (instructions, block counts, branch
stats, memory events, flop/int-op/translation/call counters), and hence
the same timing-model outputs — the figures cannot move.

Also covers the engine-adjacent satellites: the compile-once/launch-many
cache counters, cap threading from runtime into traces, the columnar
event buffer, and private-memory pooling.
"""

import warnings

import pytest

from repro.exec import (
    DEFAULT_MEM_EVENT_CAP,
    ExecTrace,
    MemEventColumns,
    PrivateMemoryPool,
)
from repro.exec.buffers import event_rows
from repro.runtime.system import ultrabook
from repro.workloads import all_workloads

WORKLOADS = all_workloads()
NINE = (
    "BarnesHut",
    "BFS",
    "BTree",
    "ClothPhysics",
    "ConnectedComponent",
    "FaceDetect",
    "Raytracer",
    "SkipList",
    "SSSP",
)
SCALE = 0.2


def _run(name: str, engine: str, on_cpu: bool, observer=None):
    workload = WORKLOADS[name]()
    rt = workload.make_runtime(
        system=ultrabook(), engine=engine, keep_traces=True, observer=observer
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        state = workload.build(rt, SCALE)
        reports = workload.run(rt, state, on_cpu=on_cpu)
        workload.validate(rt, state)
    return rt, reports


def _events(trace) -> list:
    return [
        (e.instr_uid, e.seq, e.address, e.size, e.is_store)
        for e in trace.mem_events
    ]


def _assert_trace_equal(ref: ExecTrace, got: ExecTrace, where: str) -> None:
    assert got.instructions == ref.instructions, where
    assert got.block_counts == ref.block_counts, where
    assert {k: list(v) for k, v in got.branch_stats.items()} == {
        k: list(v) for k, v in ref.branch_stats.items()
    }, where
    assert got.flops == ref.flops, where
    assert got.int_ops == ref.int_ops, where
    assert got.translations == ref.translations, where
    assert got.calls == ref.calls, where
    assert got.mem_event_cap == ref.mem_event_cap, where
    assert got.mem_events_dropped == ref.mem_events_dropped, where
    assert _events(got) == _events(ref), where


@pytest.mark.parametrize("on_cpu", [False, True], ids=["gpu", "cpu"])
@pytest.mark.parametrize("name", NINE)
def test_engines_bit_identical(name, on_cpu):
    ref_rt, ref_reports = _run(name, "reference", on_cpu)
    com_rt, com_reports = _run(name, "compiled", on_cpu)

    # Same final shared-memory state: every store landed identically.
    assert bytes(com_rt.region.physical.data) == bytes(ref_rt.region.physical.data)

    # Same traces, launch by launch.
    assert len(com_rt.trace_log) == len(ref_rt.trace_log)
    for index, (ref, got) in enumerate(zip(ref_rt.trace_log, com_rt.trace_log)):
        _assert_trace_equal(ref, got, f"{name} trace {index}")

    # Timing is a pure function of the traces, so the modeled numbers —
    # and therefore every figure — are unchanged.
    assert len(com_reports) == len(ref_reports)
    for ref, got in zip(ref_reports, com_reports):
        assert got.device == ref.device
        assert got.n == ref.n
        assert got.jit_seconds == ref.jit_seconds
        assert got.report.seconds == ref.report.seconds
        assert got.report.cycles == ref.report.cycles
        assert got.report.instructions == ref.report.instructions
        assert got.report.energy_joules == ref.report.energy_joules
        assert got.report.mem_transactions == ref.report.mem_transactions
        assert got.report.translations == ref.report.translations


class TestCompileOnce:
    """gpu_function_t analogue: at most one compilation per kernel per
    runtime, however many work-items are launched."""

    def test_compilation_happens_once_per_runtime(self):
        workload = WORKLOADS["BFS"]()
        rt = workload.make_runtime(engine="compiled")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state = workload.build(rt, SCALE)
            workload.run(rt, state, on_cpu=False)
        first = rt.code_cache.compilations
        assert first > 0
        hits_before = rt.code_cache.hits
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state = workload.build(rt, SCALE)
            workload.run(rt, state, on_cpu=False)
        assert rt.code_cache.compilations == first  # no recompilation
        assert rt.code_cache.hits > hits_before  # launches replayed the cache

    def test_reference_engine_selectable(self):
        workload = WORKLOADS["BFS"]()
        rt = workload.make_runtime(engine="reference")
        assert rt.options.engine == "reference"
        assert rt.code_cache.compilations == 0
        with pytest.raises(ValueError):
            workload.make_runtime(engine="typo")


class TestCapThreading:
    """One authoritative cap, threaded runtime -> trace."""

    def test_defaults_agree(self):
        workload = WORKLOADS["BFS"]()
        rt = workload.make_runtime()
        assert rt.mem_event_cap == DEFAULT_MEM_EVENT_CAP
        assert ExecTrace().mem_event_cap == DEFAULT_MEM_EVENT_CAP
        assert rt._new_trace().mem_event_cap == DEFAULT_MEM_EVENT_CAP

    def test_runtime_cap_reaches_traces(self):
        workload = WORKLOADS["BFS"]()
        rt = workload.make_runtime()
        rt.mem_event_cap = 777
        assert rt._new_trace().mem_event_cap == 777


class TestColumnarBuffer:
    def test_iteration_matches_list_representation(self):
        cols = MemEventColumns()
        cols.append_raw(3, 0, 0x100, 4, True)
        cols.append_raw(3, 1, 0x104, 4, False)
        assert len(cols) == 2
        assert [
            (e.instr_uid, e.seq, e.address, e.size, e.is_store) for e in cols
        ] == [(3, 0, 0x100, 4, True), (3, 1, 0x104, 4, False)]
        trace = ExecTrace(mem_events=cols)
        assert event_rows(trace.mem_events).tolist() == [
            [3, 0, 0x100, 4, 1],
            [3, 1, 0x104, 4, 0],
        ]

    def test_record_mem_keeps_rows_up_to_the_cap(self):
        trace = ExecTrace(mem_event_cap=3)
        assert isinstance(trace.mem_events, MemEventColumns)
        for i in range(5):
            trace.record_mem(1, i, 0x1000 + 4 * i, 4, False)
        assert len(trace.mem_events) == 3
        assert trace.mem_events_dropped == 2
        assert [e.seq for e in trace.mem_events] == [0, 1, 2]


class TestCounterEquivalence:
    """The observability counters are a pure function of execution, so the
    two engines must publish identical totals for everything the traces
    and timing models derive (instructions, flops, memory events, cache
    hits...).  Only the code-cache and pool counters may differ — the
    reference interpreter never compiles and pools differently."""

    ENGINE_INDEPENDENT = ("engine.", "mem_events.", "gpu.", "cpu.")

    @pytest.mark.parametrize("name", NINE)
    def test_counters_identical_across_engines(self, name):
        from repro.obs import Observer

        totals = {}
        for engine in ("reference", "compiled"):
            observer = Observer()
            workload = WORKLOADS[name]()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                workload.execute(
                    None,
                    ultrabook(),
                    scale=0.1,
                    engine=engine,
                    observer=observer,
                )
            totals[engine] = {
                key: value
                for key, value in observer.counters.as_dict().items()
                if key.startswith(self.ENGINE_INDEPENDENT)
            }
        assert totals["reference"] == totals["compiled"], name
        assert totals["compiled"]["engine.instructions"] > 0
        assert totals["compiled"]["mem_events.kept"] > 0


class TestPrivateMemoryPool:
    def test_recycled_buffer_is_rezeroed(self):
        pool = PrivateMemoryPool(64)
        buf = pool.acquire()
        buf[10:14] = b"\xff\xff\xff\xff"
        pool.release(buf, dirty=14)
        again = pool.acquire()
        assert again is buf  # recycled, not reallocated
        assert bytes(again) == bytes(64)  # indistinguishable from fresh

    def test_foreign_buffer_rejected(self):
        pool = PrivateMemoryPool(64)
        pool.release(bytearray(32), dirty=0)
        assert pool.acquire() is not None  # fresh, wrong-size one discarded
