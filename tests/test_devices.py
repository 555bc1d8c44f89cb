"""Unit tests for the GPU/CPU device models, cache model and timing."""

import pytest

from repro.exec import ExecTrace, MemEvent, MemEventColumns
from repro.exec.buffers import LaunchTrace
from repro.gpu import CacheModel, hd4600, hd5000, time_gpu_kernel
from repro.gpu.timing import _guarded_blocks, block_sizes
from repro.cpu import i7_4650u, i7_4770, time_cpu_execution
from repro.ir import BOOL, Function, FunctionType, I32, IRBuilder, VOID
from repro.runtime.system import desktop, ultrabook


def straight_line_kernel(n_instr=10):
    fn = Function("k", FunctionType(VOID, (I32,)), ["i"])
    entry = fn.new_block("entry")
    b = IRBuilder(entry)
    value = fn.args[0]
    for _ in range(n_instr):
        value = b.add(value, b.i32(1))
    b.ret()
    return fn


def branchy_kernel():
    fn = Function("k", FunctionType(VOID, (I32,)), ["i"])
    entry = fn.new_block("entry")
    then = fn.new_block("then")
    done = fn.new_block("done")
    b = IRBuilder(entry)
    cond = b.icmp("sgt", fn.args[0], b.i32(0))
    b.condbr(cond, then, done)
    b.position_at_end(then)
    for _ in range(20):
        b.add(fn.args[0], b.i32(1))
    b.br(done)
    b.position_at_end(done)
    b.ret()
    return fn


def columns(events) -> MemEventColumns:
    """A trace's event buffer holding ``events`` in order."""
    return MemEventColumns.from_rows(
        [(e.instr_uid, e.seq, e.address, e.size, e.is_store) for e in events]
    )


def trace_with(blocks: dict, events=(), instructions=0):
    trace = ExecTrace()
    trace.block_counts = dict(blocks)
    trace.mem_events = columns(events)
    trace.instructions = instructions or sum(blocks.values())
    return trace


def touch_both_ways(cache_args, lines):
    """The hit mask of ``lines`` touched one line per call — which must
    be the mask of the same lines touched as one sequence."""
    one_by_one, at_once = CacheModel(*cache_args), CacheModel(*cache_args)
    hits = [bool(one_by_one.touch([line])[0]) for line in lines]
    assert at_once.touch(lines).tolist() == hits
    assert at_once.resident.tolist() == one_by_one.resident.tolist()
    return hits


class TestCacheModel:
    def test_hit_after_miss(self):
        assert touch_both_ways((1024, 64, 2), [5, 5]) == [False, True]

    def test_lru_eviction(self):
        # one set, two ways: 2 evicts 0
        assert touch_both_ways((2 * 64, 64, 2), [0, 1, 2, 0]) == [False] * 4

    def test_lru_touch_refreshes(self):
        # the second 0 refreshes it, so 2 evicts 1, not 0
        hits = touch_both_ways((2 * 64, 64, 2), [0, 1, 0, 2, 0, 1])
        assert hits == [False, False, True, False, True, False]

    def test_set_indexing(self):
        # 4 sets, direct-mapped: 0 and 1 do not conflict
        assert touch_both_ways((4 * 64, 64, 1), [0, 1, 0]) == [False, False, True]

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            CacheModel(100, 64, 2)


class TestGpuDivergenceModel:
    def test_converged_warp_costs_one_lane(self):
        kernel = straight_line_kernel(10)
        entry_uid = kernel.blocks[0].uid
        lanes = [trace_with({entry_uid: 1}) for _ in range(16)]
        report = time_gpu_kernel(hd5000(), kernel, LaunchTrace.from_traces(lanes))
        sizes = block_sizes(kernel)
        assert report.issue_slots == pytest.approx(sizes[entry_uid])
        assert report.divergence_waste == pytest.approx(0.0)

    def test_guarded_block_divergence_inflation(self):
        """One lane taking a guarded block per occurrence forces the warp
        to issue it: with independent mixed outcomes the issue estimate
        exceeds the per-lane max."""
        kernel = branchy_kernel()
        entry, then, done = kernel.blocks
        guarded = _guarded_blocks(kernel)
        assert guarded.get(then.uid) == entry.uid
        # every lane enters 'then' half the time over 100 occurrences
        lanes = [
            trace_with({entry.uid: 100, then.uid: 50, done.uid: 100})
            for _ in range(16)
        ]
        report = time_gpu_kernel(hd5000(), kernel, LaunchTrace.from_traces(lanes))
        sizes = block_sizes(kernel)
        # independent-outcomes estimate ~ 100 * (1 - 0.5^16) ~ 100, not 50
        expected_then_issue = 100 * (1 - 0.5 ** 16)
        expected = (
            100 * sizes[entry.uid]
            + expected_then_issue * sizes[then.uid]
            + 100 * sizes[done.uid]
        )
        assert report.issue_slots == pytest.approx(expected, rel=0.01)

    def test_divergent_warp_costs_max_lane(self):
        kernel = straight_line_kernel(10)
        entry_uid = kernel.blocks[0].uid
        lanes = [trace_with({entry_uid: 1 + (i % 4) * 5}) for i in range(16)]
        report = time_gpu_kernel(hd5000(), kernel, LaunchTrace.from_traces(lanes))
        sizes = block_sizes(kernel)
        assert report.issue_slots == pytest.approx(16 * sizes[entry_uid])
        assert report.divergence_waste > 0

    def test_more_eus_faster_compute(self):
        kernel = straight_line_kernel(30)
        uid = kernel.blocks[0].uid
        lanes = [trace_with({uid: 100}) for _ in range(256)]
        big = time_gpu_kernel(hd5000(), kernel, LaunchTrace.from_traces(lanes))
        small = time_gpu_kernel(hd4600(), kernel, LaunchTrace.from_traces(lanes))
        assert big.cycles < small.cycles


class TestGpuMemoryModel:
    def _mem_kernel(self):
        return straight_line_kernel(2)

    def _lanes_with_addresses(self, kernel, addr_of_lane, count=16):
        uid = kernel.blocks[0].uid
        lanes = []
        for lane_index in range(count):
            events = [
                MemEvent(instr_uid=1, seq=0, address=addr_of_lane(lane_index),
                         size=4, is_store=False)
            ]
            lanes.append(trace_with({uid: 1}, events))
        return lanes

    def test_coalesced_access_single_transaction(self):
        kernel = self._mem_kernel()
        lanes = self._lanes_with_addresses(kernel, lambda i: 0x1000 + 4 * i)
        report = time_gpu_kernel(hd5000(), kernel, LaunchTrace.from_traces(lanes))
        assert report.mem_transactions == 1

    def test_scattered_access_many_transactions(self):
        kernel = self._mem_kernel()
        lanes = self._lanes_with_addresses(kernel, lambda i: 0x1000 + 4096 * i)
        report = time_gpu_kernel(hd5000(), kernel, LaunchTrace.from_traces(lanes))
        assert report.mem_transactions == 16
        # gather cracking charges extra issue slots
        coalesced = time_gpu_kernel(
            hd5000(),
            kernel,
            LaunchTrace.from_traces(
                self._lanes_with_addresses(kernel, lambda i: 0x1000 + 4 * i)
            ),
        )
        assert report.issue_slots > coalesced.issue_slots

    def test_contention_same_line_different_eus(self):
        """Warps on different EUs touching the same line at the same
        dynamic position serialize (un-banked L3, paper section 4.2)."""
        kernel = self._mem_kernel()
        uid = kernel.blocks[0].uid
        device = hd5000()
        lanes = []
        for warp in range(4 * 16):  # 4 warps -> 4 different EUs
            events = [MemEvent(instr_uid=7, seq=0, address=0x2000, size=4,
                               is_store=False)]
            lanes.append(trace_with({uid: 1}, events))
        report = time_gpu_kernel(device, kernel, LaunchTrace.from_traces(lanes))
        assert report.contention_events == 3  # 4 EUs - 1 port
        assert report.contention_cycles > 0

    def test_no_contention_when_staggered(self):
        kernel = self._mem_kernel()
        uid = kernel.blocks[0].uid
        lanes = []
        for warp in range(4):
            for lane in range(16):
                events = [MemEvent(instr_uid=7, seq=0,
                                   address=0x2000 + warp * 4096, size=4,
                                   is_store=False)]
                lanes.append(trace_with({uid: 1}, events))
        report = time_gpu_kernel(hd5000(), kernel, LaunchTrace.from_traces(lanes))
        assert report.contention_events == 0

    def test_tdp_throttling_extends_time(self):
        device = hd5000()
        assert device.power_budget_watts > 0
        kernel = straight_line_kernel(40)
        uid = kernel.blocks[0].uid
        lanes = [trace_with({uid: 50_000}) for _ in range(16 * 64)]
        report = time_gpu_kernel(device, kernel, LaunchTrace.from_traces(lanes))
        power = report.energy_joules / report.seconds
        assert power <= device.power_budget_watts * 1.01


class TestCpuModel:
    def test_predictable_branches_cheap(self):
        biased = ExecTrace()
        biased.instructions = 10_000
        biased.branch_stats = {1: [9_990, 10_000]}
        random_trace = ExecTrace()
        random_trace.instructions = 10_000
        random_trace.branch_stats = {1: [5_000, 10_000]}
        fast = time_cpu_execution(i7_4770(), [LaunchTrace.from_traces([biased])])
        slow = time_cpu_execution(i7_4770(), [LaunchTrace.from_traces([random_trace])])
        assert fast.cycles < slow.cycles

    def test_multicore_scaling(self):
        trace = ExecTrace()
        trace.instructions = 100_000
        two = time_cpu_execution(i7_4650u(), [LaunchTrace.from_traces([trace])])
        four = time_cpu_execution(i7_4770(), [LaunchTrace.from_traces([trace])])
        assert four.seconds < two.seconds

    def test_l1_absorbs_hot_accesses(self):
        hot = ExecTrace()
        hot.instructions = 1000
        hot.mem_events = columns(
            MemEvent(1, i, 0x100 + (i % 8) * 4, 4, False) for i in range(500)
        )
        cold = ExecTrace()
        cold.instructions = 1000
        cold.mem_events = columns(
            MemEvent(1, i, 0x100 + i * 4096, 4, False) for i in range(500)
        )
        fast = time_cpu_execution(i7_4770(), [LaunchTrace.from_traces([hot])])
        slow = time_cpu_execution(i7_4770(), [LaunchTrace.from_traces([cold])])
        assert fast.cycles < slow.cycles

    def test_energy_positive_and_power_sane(self):
        trace = ExecTrace()
        trace.instructions = 1_000_000
        for device in (i7_4650u(), i7_4770()):
            report = time_cpu_execution(device, [LaunchTrace.from_traces([trace])])
            power = report.energy_joules / report.seconds
            assert 1.0 < power < 120.0


class TestDeviceReportSum:
    def test_every_field_of_a_sum_is_the_sum(self):
        """``rt.total_cpu_report`` is a sum of reports: no field may carry
        just the last construct's value (a dict of branch numbers merged
        with ``{**a, **b}`` once did)."""
        import dataclasses

        from repro.gpu.timing import DeviceReport
        from repro.backend.base import parallel_report

        branchy = ExecTrace()
        branchy.instructions = 900
        branchy.branch_stats = {1: [40, 100]}
        branchy.mem_events = columns(
            MemEvent(1, i, 0x100 + i * 64, 4, False) for i in range(9)
        )
        plain = ExecTrace()
        plain.instructions = 50
        first, second = (
            time_cpu_execution(i7_4770(), [LaunchTrace.from_traces([trace])])
            for trace in (branchy, plain)
        )
        total = first + second
        assert sum([first, second]) == total
        for field in dataclasses.fields(DeviceReport):
            if field.name != "device":
                assert getattr(total, field.name) == (
                    getattr(first, field.name) + getattr(second, field.name)
                ), field.name
        # the concurrent merge keeps the same fields: counts still sum
        assert parallel_report([first, second]).instructions == total.instructions


class TestSystems:
    def test_paper_system_configs(self):
        ub = ultrabook()
        dt = desktop()
        assert ub.cpu.cores == 2 and dt.cpu.cores == 4
        assert ub.gpu.num_eus == 40 and dt.gpu.num_eus == 20
        assert ub.gpu.threads_per_eu == 7 == dt.gpu.threads_per_eu
        assert ub.gpu.simd_width == 16 == dt.gpu.simd_width
        assert ub.tdp_watts == 15.0 and dt.tdp_watts == 84.0
