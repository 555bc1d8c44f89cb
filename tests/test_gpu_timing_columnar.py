"""The columnar ``time_gpu_kernel`` prices every launch exactly as the
per-event implementation it replaced did (``tests/oracles.py``): full
``DeviceReport`` equality, floats included, because the model's contract
is an *accumulation order* (see ``docs/MODEL.md``), not a tolerance.
``tests/test_timing_oracles.py`` does the same for the cache and the CPU
model.
"""

import dataclasses
import random
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.exec import ExecTrace, MemEvent, MemEventColumns
from repro.exec.buffers import (
    EVENT_DTYPES,
    TRACE_COUNTERS,
    LaunchTrace,
    event_column,
    event_rows,
)
from repro.gpu import CacheModel, hd4600, hd5000, time_gpu_kernel
from repro.ir import Function, FunctionType, I32, IRBuilder, VOID
from repro.obs import Observer
from repro.passes import OptConfig
from repro.runtime.system import ultrabook
from repro.workloads import all_workloads

from .oracles import OracleCacheModel, oracle_time_gpu_kernel, use_oracles
from .test_engine_equivalence import NINE, SCALE

WORKLOADS = all_workloads()


# -- generated launches -------------------------------------------------------


def diamond_kernel():
    """entry -> (then | other) -> loop -> (body -> loop | done): four
    blocks sit behind a conditional branch, so the independent-outcomes
    correction has something to correct."""
    fn = Function("k", FunctionType(VOID, (I32,)), ["i"])
    entry, then, other, loop, body, done = (
        fn.new_block(name)
        for name in ("entry", "then", "other", "loop", "body", "done")
    )
    b = IRBuilder(entry)
    cond = b.icmp("sgt", fn.args[0], b.i32(0))
    b.condbr(cond, then, other)
    b.position_at_end(then)
    b.mul(b.add(fn.args[0], b.i32(1)), b.i32(5))
    b.br(loop)
    b.position_at_end(other)
    b.binop("sdiv", fn.args[0], b.i32(3))
    b.br(loop)
    b.position_at_end(loop)
    again = b.icmp("slt", fn.args[0], b.i32(9))
    b.condbr(again, body, done)
    b.position_at_end(body)
    b.add(fn.args[0], b.i32(2))
    b.br(loop)
    b.position_at_end(done)
    b.ret()
    return fn


def detuned():
    """HD 5000 with latencies and a contention penalty that are not
    exactly representable, few EUs and a narrow warp, so a sum taken in
    another order (or a warp cut elsewhere) shows in the last bits."""
    return dataclasses.replace(
        hd5000(),
        name="detuned",
        simd_width=8,
        num_eus=7,
        l3_hit_cycles=80.1,
        dram_latency_cycles=300.7,
        contention_penalty_cycles=18.3,
        l3_line_bytes=32,
    )


class Recorder:
    """Stands in for ``CounterRegistry``: keeps every ``add`` in order."""

    def __init__(self):
        self.calls = []

    def add(self, name, value=1):
        self.calls.append((name, value))


def random_launch(seed: int, lanes: int, cap: int):
    """Per-lane traces shaped like an irregular kernel's: a handful of
    memory instructions whose lanes pick lines from a small pool (so
    accesses coalesce within a warp and collide across EUs), some
    accesses straddling a 64-byte line, some lanes empty, and every lane
    recording through ``cap`` so long lanes are truncated."""
    rng = random.Random(seed)
    kernel = diamond_kernel()
    uids = [block.uid for block in kernel.blocks] + [10_000_019]  # a callee's block
    mem_uids = [7, 8, 11, 4_000_000_123]
    pool = [rng.randrange(1 << 14) for _ in range(rng.randint(1, 24))]
    traces = []
    for _ in range(lanes):
        trace = ExecTrace(mem_event_cap=cap)
        if rng.random() < 0.15:
            traces.append(trace)  # a lane that did nothing at all
            continue
        # a plausible profile of the diamond: few trips through ``then``,
        # so the guarded blocks' enter probabilities are small and unequal
        trips = rng.randint(1, 40)
        then = rng.choice((0, 0, 1, 2, 3, trips))
        spins = rng.randint(0, 2 * trips)
        counts = dict(
            zip(uids, (trips, then, trips - then, trips + spins, spins, trips, rng.randint(0, 9)))
        )
        picked = [uid for uid in uids if counts[uid]]
        rng.shuffle(picked)  # engines list a lane's blocks in their own order
        trace.block_counts = {uid: counts[uid] for uid in picked}
        trace.instructions = rng.randint(0, 5000)
        trace.translations = rng.randint(0, 50)
        seqs = dict.fromkeys(mem_uids, 0)
        for _ in range(rng.randint(0, 30)):
            uid = rng.choice(mem_uids)
            size = rng.choice((1, 2, 4, 8, 8, 16))
            offset = rng.choice((0, 8, 24, 56, 60, 63))
            address = (1 << 32) + rng.choice(pool) * 64 + offset
            trace.record_mem(uid, seqs[uid], address, size, rng.random() < 0.3)
            seqs[uid] += 1
        traces.append(trace)
    return kernel, traces


LAUNCHES = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@LAUNCHES
@given(
    seed=st.integers(0, 2**32),
    # 0, 1, a partial warp, several warps, and enough warps that the EU
    # index wraps on the 20-EU desktop part
    lanes=st.one_of(st.integers(0, 70), st.integers(300, 360)),
    cap=st.sampled_from((0, 3, 12, 1000)),
    device=st.sampled_from((hd5000, hd4600, detuned)),
)
def test_report_equals_the_per_event_oracle(seed, lanes, cap, device):
    kernel, traces = random_launch(seed, lanes, cap)
    expected_counters, got_counters = Recorder(), Recorder()
    expected = oracle_time_gpu_kernel(
        device(), kernel, traces, counters=expected_counters
    )
    got = time_gpu_kernel(
        device(), kernel, LaunchTrace.from_traces(traces), counters=got_counters
    )
    assert got == expected
    assert got_counters.calls == expected_counters.calls
    for field in ("seconds", "energy_joules", "issue_slots", "contention_cycles"):
        assert type(getattr(got, field)) is float, field
    for field in ("mem_transactions", "l3_hits", "contention_events", "instructions"):
        assert type(getattr(got, field)) is int, field


@LAUNCHES
@given(
    seed=st.integers(0, 2**32),
    first=st.integers(1, 48),
    second=st.integers(1, 48),
    device=st.sampled_from((hd5000, hd4600, detuned)),
)
def test_consecutive_chunks_share_one_cache(seed, first, second, device):
    """The hybrid scheduler prices a construct's chunks against one
    ``l3=`` model: the second chunk must find the lines the first left."""
    kernel, traces = random_launch(seed, first + second, 1000)
    gpu = device()
    small = dict(size_bytes=4 * 64 * 2, line_bytes=gpu.l3_line_bytes, assoc=2)
    expected_l3, got_l3 = OracleCacheModel(**small), CacheModel(**small)
    for chunk in (traces[:first], traces[first:]):
        expected = oracle_time_gpu_kernel(gpu, kernel, chunk, l3=expected_l3)
        got = time_gpu_kernel(gpu, kernel, LaunchTrace.from_traces(chunk), l3=got_l3)
        assert got == expected
    assert got_l3.resident.tolist() == expected_l3.resident


@st.composite
def far_apart_events(draw):
    """``(n, columns)``: event columns whose values leave the int32 range
    once packed — lanes up to 2**20, uids up to 2**40, seq up to 2**30,
    addresses up to 2**47 — drawn from small pools, so that accesses
    coalesce and collide.  The uids of a launch lie up to 2**4, 2**20 or
    2**40 apart, so their keys pack beside ``seq`` or fall back to
    lexsort; its seqs may be multiples of 2**20 or 2**27, which a key
    shifted in 32 bits would merge."""
    k = draw(st.integers(1, 160))
    lanes = sorted(draw(st.lists(st.integers(0, (1 << 20) - 1), min_size=k, max_size=k)))
    spread = draw(st.sampled_from((4, 20, 40)))
    base = draw(st.integers(0, (1 << 40) - (1 << spread)))
    pool = st.lists(st.integers(base, base + (1 << spread)), min_size=1, max_size=4)
    uids = draw(pool)
    step = draw(st.sampled_from((0, 20, 27)))
    seqs = draw(
        st.lists(
            st.integers(0, ((1 << 30) - 1) >> step).map(lambda j: j << step),
            min_size=1,
            max_size=6,
        )
    )
    lines = draw(st.lists(st.integers(0, (1 << 47) // 64 - 1), min_size=1, max_size=8))
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(uids),
                st.sampled_from(seqs),
                st.sampled_from(lines),
                st.sampled_from((0, 8, 56, 60, 63)),
                st.sampled_from((1, 2, 4, 8, 16)),
                st.booleans(),
            ),
            min_size=k,
            max_size=k,
        )
    )
    uid, seq, line, offset, size, is_store = zip(*rows)
    columns = dict(
        lane=lanes,
        uid=uid,
        seq=seq,
        address=[64 * at + by for at, by in zip(line, offset)],
        size=size,
        is_store=is_store,
    )
    return draw(st.integers(lanes[-1] + 1, 1 << 20)), columns


def _event_launch(n, columns) -> LaunchTrace:
    """A launch of ``n`` lanes holding the given event columns and no
    blocks.  Its per-lane vectors are zeros that take no memory: the
    model only sums them."""
    zeros = np.broadcast_to(np.int64(0), (n,))
    none = np.zeros((0, n), np.int64)
    return LaunchTrace(
        n=n,
        **columns,
        kept=zeros,
        dropped=zeros,
        caps=zeros,
        block_uids=np.zeros(0, np.int64),
        block_counts=none,
        branch_uids=np.zeros(0, np.int64),
        branch_taken=none,
        branch_total=none,
        instructions=zeros,
        flops=zeros,
        int_ops=zeros,
        translations=zeros,
        calls=zeros,
    )


@LAUNCHES
@given(launch=far_apart_events(), device=st.sampled_from((hd5000, hd4600, detuned)))
def test_narrow_event_columns_price_as_wide_ones(launch, device):
    """The model widens a narrow column before packing it into a sort key
    (an int32 ``seq`` shifted in its own dtype wraps), so a trace in
    :data:`EVENT_DTYPES` prices exactly as the same trace in 64 bits."""
    n, columns = launch
    narrow = {name: event_column(name, values) for name, values in columns.items()}
    assert {name: column.dtype for name, column in narrow.items()} == EVENT_DTYPES
    wide = {
        name: np.array(values, np.uint64 if name == "address" else np.int64)
        for name, values in columns.items()
    }
    kernel = diamond_kernel()
    expected_counters, got_counters = Recorder(), Recorder()
    expected = time_gpu_kernel(
        device(), kernel, _event_launch(n, wide), counters=expected_counters
    )
    got = time_gpu_kernel(
        device(), kernel, _event_launch(n, narrow), counters=got_counters
    )
    assert got == expected
    assert got_counters.calls == expected_counters.calls


def test_reference_interpreter_traces_price_identically():
    """Traces straight from the reference interpreter's launches, on
    both GPUs."""
    workload = WORKLOADS["BTree"]()
    rt = workload.make_runtime(
        system=ultrabook(), engine="reference", keep_traces=True
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        state = workload.build(rt, SCALE)
        workload.run(rt, state, on_cpu=False)
    assert rt.trace_log and all(isinstance(launch, LaunchTrace) for launch in rt.trace_log)
    lanes = [lane for launch in rt.trace_log for lane in launch.lanes()]
    assert isinstance(lanes[0].mem_events, MemEventColumns)
    kernel = next(iter(rt.program.kernels.values())).gpu_kernel
    for device in (hd5000(), hd4600()):
        for launch in rt.trace_log:
            assert time_gpu_kernel(device, kernel, launch) == (
                oracle_time_gpu_kernel(device, kernel, launch.lanes())
            )
        launch = LaunchTrace.from_traces(lanes)
        assert time_gpu_kernel(device, kernel, launch) == (
            oracle_time_gpu_kernel(device, kernel, lanes)
        )


# -- the order contract, case by case ----------------------------------------
#
# Each launch below is built by hand so that one rule of the order
# contract (docs/MODEL.md) decides the report: on a two-line cache, or
# through a contention penalty that is not exactly representable, any
# other order prices it differently.  Both sides must agree under ``==``.


def cramped():
    """``detuned`` with a one-set, two-way L3: any change in the order
    of three distinct lines changes the hits."""
    return dataclasses.replace(detuned(), name="cramped", l3_size_bytes=64, l3_assoc=2)


#: where the hand-built accesses live; lines are ``cramped``'s 32 bytes
BASE = 1 << 32


def _at(line, offset=0):
    return BASE + 32 * line + offset


def _lanes(n, events, blocks=None, kernel=None):
    """``n`` lanes of ``kernel`` (a fresh :func:`diamond_kernel` by
    default), lane ``i`` recording ``events.get(i, [])`` — each ``(uid,
    seq, address, size)`` — and executing ``blocks.get(i)`` (by default:
    the entry block once)."""
    kernel = kernel or diamond_kernel()
    entry = kernel.blocks[0].uid
    traces = []
    for lane in range(n):
        trace = ExecTrace()
        trace.block_counts = (blocks or {}).get(lane, {entry: 1})
        for uid, seq, address, size in events.get(lane, []):
            trace.record_mem(uid, seq, address, size, False)
        traces.append(trace)
    return kernel, traces


def _contended_out_of_line_order():
    """Keys A (uid 12, line 5), B (uid 13, line 9) and C (uid 11, line
    1), first touched in that order by warp 0 and touched from 2, 3 and
    5 EUs: their extras 1, 2, 4 summed in first-touch order differ in
    the last bit from 4, 1, 2, the order of their lines and of their
    uids."""
    touches = {12: (5, 2), 13: (9, 3), 11: (1, 5)}  # uid: (line, warps)
    events = {
        8 * warp: [(uid, 0, _at(line), 4) for uid, (line, warps) in touches.items() if warp < warps]
        for warp in range(5)
    }
    return _lanes(40, events)


def _one_lane_last_warp():
    """17 lanes on a SIMD8 part: the last warp holds one lane, which
    enters the guarded ``then`` block twice in 11 — no
    independent-outcomes lift for a warp of one, where
    ``11 x (1 - (1 - 2/11))`` rounds above 2."""
    kernel = diamond_kernel()
    entry, then = kernel.blocks[0].uid, kernel.blocks[1].uid
    blocks = {lane: {entry: 11, then: 2} for lane in range(17)}
    events = {lane: [(7, 0, _at(lane % 4), 8)] for lane in range(17)}
    return _lanes(17, events, blocks, kernel)


ORDER_CASES = {
    # occurrences issue by first touch: (9, 0) (7, 0) (9, 1) (7, 1) is
    # lines 0 1 2 0 — by (uid, seq) it would be 1 0 0 2
    "first touch is not (uid, seq) order": lambda: _lanes(
        1, {0: [(9, 0, _at(0), 4), (7, 0, _at(1), 4), (9, 1, _at(2), 4), (7, 1, _at(0), 4)]}
    ),
    # occurrence (1, 0) touches line 9 (lane 0) before line 2 (lane 1):
    # lines 9 2 4 9 miss four times, 2 9 4 9 would hit once
    "an occurrence first touched on its high line": lambda: _lanes(
        2,
        {
            0: [(1, 0, _at(9), 4), (2, 0, _at(4), 4), (3, 0, _at(9), 4)],
            1: [(1, 0, _at(2), 4), (2, 0, _at(4), 4)],
        },
    ),
    # lines 3 4 5 3: the straddling access touches 3 before 4
    "an access straddling a line": lambda: _lanes(
        1, {0: [(1, 0, _at(3, 30), 4), (2, 0, _at(5), 4), (3, 0, _at(3), 4)]}
    ),
    # empty accesses on a boundary (and at address 0) touch nothing
    "zero-size accesses on a line boundary": lambda: _lanes(
        1,
        {0: [(1, 0, _at(2), 0), (4, 0, 0, 0), (2, 0, _at(5), 4), (3, 0, _at(6), 4), (5, 0, _at(2), 4)]},
    ),
    # occurrence (1, 0) opens at lane 0's empty access, before (2, 0):
    # lines 9 4 6 9 miss four times, 4 6 9 9 would hit once
    "an occurrence opened by an access that touches nothing": lambda: _lanes(
        2,
        {
            0: [(1, 0, _at(2), 0), (2, 0, _at(4), 4), (3, 0, _at(6), 4), (5, 0, _at(9), 4)],
            1: [(1, 0, _at(9), 4)],
        },
    ),
    "contention keys first touched out of line order": _contended_out_of_line_order,
    "a last warp of one lane": _one_lane_last_warp,
    "a launch that keeps no events": lambda: _lanes(12, {}),
}


@pytest.mark.parametrize("case", ORDER_CASES)
def test_order_contract_case_equals_the_oracle(case):
    kernel, traces = ORDER_CASES[case]()
    device = cramped()
    got = time_gpu_kernel(device, kernel, LaunchTrace.from_traces(traces))
    assert got == oracle_time_gpu_kernel(device, kernel, traces)


# -- whole workloads ----------------------------------------------------------

MODES = {
    "compiled": dict(engine="compiled"),
    "vector": dict(engine="vector"),
    "hybrid-graph": dict(engine="compiled", policy="hybrid", graph=True),
    "cpu": dict(engine="compiled", on_cpu=True),
}


def _simulate(name, mode):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        outcome = WORKLOADS[name]().execute(
            OptConfig.gpu_all(), ultrabook(), scale=SCALE, **MODES[mode]
        )
    return (
        [report.report.seconds for report in outcome.reports],
        [report.report.energy_joules for report in outcome.reports],
        outcome.seconds,
        outcome.energy_joules,
    )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", NINE)
def test_workload_numbers_equal_the_oracles(name, mode, monkeypatch):
    from repro.workloads.base import Workload

    # The vector engine's routing verdicts live on the program object:
    # each run compiles its own, so both take the same (cold) route.
    monkeypatch.setattr(Workload, "_program_cache", {})
    got = _simulate(name, mode)
    Workload._program_cache.clear()
    use_oracles(monkeypatch)
    assert _simulate(name, mode) == got


# -- the launch trace itself --------------------------------------------------


def test_launch_trace_totals_match_a_lane_by_lane_merge():
    _kernel, traces = random_launch(5, 37, 12)
    trace = LaunchTrace.from_traces(traces)
    assert trace.n == 37
    assert trace.lanes() is not None and trace.lanes() == traces
    sums = [0] * len(TRACE_COUNTERS)
    merged: dict = {}
    for lane in traces:
        for index, value in enumerate(lane.counter_totals()):
            sums[index] += value
        for uid, count in lane.block_totals().items():
            merged[uid] = merged.get(uid, 0) + count
    assert trace.counter_totals() == tuple(sums)
    assert trace.kept_events == sum(lane.kept_events for lane in traces)
    # same keys in one order, ascending uid, whichever engine listed the
    # lanes' blocks how: line attribution sums floats in it
    assert list(trace.block_totals().items()) == sorted(merged.items())
    assert trace.lane.tolist() == [
        index for index, lane in enumerate(traces) for _ in lane.mem_events
    ]
    assert sum(lane.mem_events_dropped for lane in traces) > 0


def test_event_row_helpers_agree_across_representations():
    """One buffer read two ways — the ``MemEvent`` rows iteration yields
    and ``event_rows``' array — and rebuilt from its rows."""
    events = [MemEvent(3, 0, (1 << 63) + 5, 8, True), MemEvent(4, 1, 64, 4, False)]
    trace = ExecTrace()
    for event in events:
        trace.record_mem(
            event.instr_uid, event.seq, event.address, event.size, event.is_store
        )
    columns = trace.mem_events
    assert list(columns) == events
    assert event_rows(columns).tolist() == [
        [e.instr_uid, e.seq, e.address, e.size, int(e.is_store)] for e in events
    ]
    assert list(MemEventColumns.from_rows(event_rows(columns))) == events
    trace.record_mem(3, 1, 64, 4, False)  # no buffer export left behind
    assert len(columns) == 3


def test_vector_launch_never_builds_per_lane_traces(monkeypatch):
    """Neither pricing a vector launch nor an attached observer's counter
    harvest and line samples ask for the per-lane view."""
    def refuse(self):
        raise AssertionError("per-lane view built on the hot path")

    monkeypatch.setattr(LaunchTrace, "lanes", refuse)
    observer = Observer()  # observed runs compile a fresh (cold) program
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        WORKLOADS["Raytracer"]().execute(
            OptConfig.gpu_all(),
            ultrabook(),
            scale=SCALE,
            engine="vector",
            observer=observer,
        )
    counters = observer.counters.as_dict()
    assert counters["vector.lanes_retired"] > 0
    assert counters["mem_events.kept"] > 0
    launches = [e for e in observer.events if e["kind"] == "launch"]
    assert launches and all(e["blocks"] for e in launches)
