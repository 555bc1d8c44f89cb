"""The array timing models equal their per-access oracles
(``tests/oracles.py``): the cache hit for hit and state for state, the
CPU model with full ``DeviceReport`` equality, floats included — and
both, with the GPU model, on launches no event cap truncated.
"""

import dataclasses
import random
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.gpu.cache as cache_module
import repro.gpu.timing as gpu_timing
from repro.cpu import i7_4650u, i7_4770, time_cpu_execution
from repro.exec import ExecTrace
from repro.exec.buffers import LaunchTrace
from repro.gpu import CacheModel
from repro.gpu.cache import _LOCKSTEP_ROUNDS, nested_runs
from repro.passes import OptConfig
from repro.runtime.system import ultrabook
from repro.workloads import all_workloads

from .oracles import OracleCacheModel, oracle_time_cpu_execution, use_oracles
from .test_gpu_timing_columnar import Recorder

WORKLOADS = all_workloads()

SEQUENCES = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# -- the cache ----------------------------------------------------------------


def both_caches(sets: int, assoc: int):
    geometry = dict(size_bytes=sets * assoc * 64, line_bytes=64, assoc=assoc)
    return OracleCacheModel(**geometry), CacheModel(**geometry)


def assert_same_walk(sets: int, assoc: int, calls) -> None:
    """Each of ``calls`` (line sequences, sharing one cache) answers as
    the per-access walk does and leaves the same lines in the same
    recency order."""
    oracle, cache = both_caches(sets, assoc)
    for lines in calls:
        expected = [oracle.access(line) for line in lines]
        assert cache.touch(np.array(lines, np.int64)).tolist() == expected
        assert cache.resident.tolist() == oracle.resident


@st.composite
def colliding_calls(draw):
    """A geometry and a line sequence drawn to collide, cut into 1-4
    calls: few lines per set, runs of one line, ``(a b)^k`` bursts that
    make a window long without making it wide, and line ids up to 2**60
    apart so the packed sort has to fall back."""
    sets = draw(st.sampled_from((1, 2, 8, 128)))
    assoc = draw(st.sampled_from((1, 2, 8, 16)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    spread = rng.choice((4, 20, 53))
    pool = [
        rng.randrange(min(sets, 3)) + sets * rng.randrange(1 << spread)
        for _ in range(rng.randint(1, 3 * assoc + 2))
    ]
    # long enough, for the small associativities, to outlast the lock-step
    # rounds (``2 * assoc * (2 ** rounds - 1)`` positions)
    longest = 2 * assoc * 2**_LOCKSTEP_ROUNDS if assoc <= 2 else 40
    sequence = []
    for _ in range(rng.randint(0, 120)):
        line = rng.choice(pool)
        sequence += [line] * rng.choice((1, 1, 1, 2, 5))
        if rng.random() < 0.08:
            sequence += [rng.choice(pool), rng.choice(pool)] * rng.randint(1, longest)
    cuts = sorted(rng.randint(0, len(sequence)) for _ in range(rng.randint(0, 3)))
    calls = [sequence[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(sequence)])]
    return sets, assoc, calls


@SEQUENCES
@given(colliding_calls())
def test_touch_equals_the_per_access_walk(case):
    assert_same_walk(*case)


@pytest.mark.parametrize("assoc", (1, 2, 8, 16))
def test_long_window_over_two_lines(assoc):
    """``x (a b)^k x`` in one set: the second ``x`` hits iff ``assoc >
    2`` however long the window — for k = 5000, longer than the
    lock-step rounds reach."""
    x, a, b = 7, 8, 9
    for k in (1, max(1, assoc - 1), assoc, 4 * assoc, 5000):
        lines = [x] + [a, b] * k + [x]
        assert_same_walk(1, assoc, [lines])
        assert_same_walk(1, assoc, [lines[:1], lines[1:-1], lines[-1:]])
    assert 2 * 5000 > 2 * assoc * (2**_LOCKSTEP_ROUNDS - 1)


@pytest.mark.parametrize("assoc", (1, 2, 8, 16))
def test_adversarial_shapes(assoc):
    round_robin = list(range(assoc + 1)) * 5  # all misses
    _oracle, cache = both_caches(1, assoc)
    assert not cache.touch(np.array(round_robin)).any()
    assert_same_walk(1, assoc, [round_robin])
    assert_same_walk(1, assoc, [round_robin[:7], round_robin[7:]])
    assert_same_walk(8, assoc, [[]])  # an empty sequence into an empty cache
    assert_same_walk(8, assoc, [[3, 11], [], [3]])
    assert_same_walk(2, assoc, [[5] * 9, [5] * 3])  # one line repeated


@SEQUENCES
@given(colliding_calls())
def test_one_line_a_call_equals_one_sequence(case):
    sets, assoc, calls = case
    lines = [line for call in calls for line in call][:200]
    _oracle, at_once = both_caches(sets, assoc)
    _oracle, one_by_one = both_caches(sets, assoc)
    expected = at_once.touch(np.array(lines, np.int64)).tolist()
    assert [bool(one_by_one.touch([line])[0]) for line in lines] == expected
    assert one_by_one.resident.tolist() == at_once.resident.tolist()


def test_wide_keys_take_the_lexsort_fallback(monkeypatch):
    """Line ids 2**60 apart do not fit beside the index in 62 bits."""
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(
        cache_module.np, "lexsort", lambda keys: calls.append(1) or lexsort(keys)
    )
    assert_same_walk(2, 2, [[0, 1 << 60, 2, 0, (1 << 60) + 2, 1 << 60, 0]])
    assert calls
    del calls[:]
    assert_same_walk(2, 2, [[0, 1 << 20, 2, 0, (1 << 20) + 2, 1 << 20, 0]])
    assert not calls


@SEQUENCES
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(0, 300),
    widths=st.lists(st.sampled_from((0, 1, 3, 20, 45, 62)), min_size=1, max_size=3),
)
def test_stable_order_is_lexsort(seed, n, widths):
    """Packed or not, the order is the stable lexicographic one: ties
    keep their original order; and each depth's mask starts every run of
    equal leading keys."""
    rng = np.random.default_rng(seed)
    keys = [
        rng.integers(0, 1 << width, n, dtype=np.int64, endpoint=True)
        - (1 << width) // 2
        for width in widths
    ]
    expected = np.lexsort(keys[::-1])
    depths = range(1, len(keys) + 1)
    order, masks = nested_runs(keys, depths)
    assert order.tolist() == expected.tolist()
    for depth, starts in zip(depths, masks):
        rows = list(zip(*(key[expected].tolist() for key in keys[:depth])))
        assert starts.tolist() == [i == 0 or rows[i] != rows[i - 1] for i in range(n)]


# -- the CPU model ------------------------------------------------------------


def detuned_cpu():
    """The Ultrabook CPU with latencies that are not exactly
    representable — a sum taken in another order shows in the last bits
    — and caches small enough that random traces evict from both."""
    return dataclasses.replace(
        i7_4650u(),
        name="detuned",
        l1_size_bytes=2 * 2 * 64,
        l1_assoc=2,
        l1_hit_cycles=0.3,
        llc_size_bytes=4 * 4 * 64,
        llc_assoc=4,
        llc_hit_cycles=30.1,
        dram_latency_cycles=180.7,
    )


def random_cpu_trace(rng: random.Random, cap: int = 1000) -> ExecTrace:
    """A chunk's trace: pointer-chasing over a small pool of lines, some
    accesses empty, some straddling one or several lines."""
    trace = ExecTrace(mem_event_cap=cap)
    trace.instructions = rng.randint(0, 50_000)
    trace.translations = rng.randint(0, 50)
    for uid in rng.sample(range(40), rng.randint(0, 6)):
        total = rng.randint(0, 900)
        trace.branch_stats[uid] = [rng.randint(0, total), total]
    pool = [rng.randrange(1 << 10) for _ in range(rng.randint(1, 40))]
    for seq in range(rng.randint(0, 400)):
        size = rng.choice((0, 1, 4, 4, 8, 8, 8, 16, 200))
        offset = rng.choice((0, 0, 8, 24, 56, 60, 63))
        address = (1 << 32) + rng.choice(pool) * 64 + offset
        trace.record_mem(rng.randrange(9), seq, address, size, False)
    return trace


@SEQUENCES
@given(
    seed=st.integers(0, 2**32),
    device=st.sampled_from((i7_4650u, i7_4770, detuned_cpu)),
    chunks=st.integers(1, 3),
    share_llc=st.booleans(),
)
def test_cpu_report_equals_the_per_access_oracle(
    seed, device, chunks, share_llc
):
    rng = random.Random(seed)
    cpu = device()
    geometry = (cpu.llc_size_bytes, cpu.llc_line_bytes, cpu.llc_assoc)
    expected_llc = OracleCacheModel(*geometry) if share_llc else None
    got_llc = CacheModel(*geometry) if share_llc else None
    for _ in range(chunks):
        traces = [  # launches of one to three lanes each
            LaunchTrace.from_traces(
                [random_cpu_trace(rng) for _ in range(rng.choice((1, 2, 3)))]
            )
            for _ in range(rng.choice((1, 1, 2)))
        ]
        expected_counters, got_counters = Recorder(), Recorder()
        expected = oracle_time_cpu_execution(
            cpu, traces, llc=expected_llc, counters=expected_counters
        )
        got = time_cpu_execution(cpu, traces, llc=got_llc, counters=got_counters)
        assert got == expected
        assert got_counters.calls == expected_counters.calls
        for field in ("seconds", "energy_joules", "cycles"):
            assert type(getattr(got, field)) is float, field
        for field in ("mem_transactions", "l3_hits", "l3_misses", "instructions"):
            assert type(getattr(got, field)) is int, field
        traces[0].lanes()[0].record_mem(0, 0, 64, 4, False)  # no buffer export left
    if share_llc:
        assert got_llc.resident.tolist() == expected_llc.resident


def test_cpu_model_prices_no_traces_and_no_events():
    cpu = i7_4770()
    for traces in ([], [LaunchTrace.from_traces([ExecTrace()])]):
        assert time_cpu_execution(cpu, traces) == oracle_time_cpu_execution(cpu, traces)


# -- launches no cap truncated ------------------------------------------------

#: workload -> scale; BarnesHut and Raytracer produce more events there
#: than ``DEFAULT_MEM_EVENT_CAP`` keeps, BFS many small launches
UNCAPPED = {"BarnesHut": 0.7, "BFS": 0.5, "Raytracer": 1.0}


def run_uncapped(name, on_cpu=False, **runtime_args):
    workload = WORKLOADS[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rt = workload.make_runtime(OptConfig.gpu_all(), ultrabook(), **runtime_args)
        rt.mem_event_cap = 1 << 40  # out of reach: nothing is dropped
        reports = workload.run(rt, workload.build(rt, UNCAPPED[name]), on_cpu=on_cpu)
        rt.wait()
    return [report.report for report in reports]


@pytest.mark.parametrize("how", ("gpu", "cpu", "hybrid"))
@pytest.mark.parametrize("name", UNCAPPED)
def test_uncapped_launches_equal_the_oracles(name, how, monkeypatch):
    """What ROADMAP item 1(c) will send the models — every access of
    every lane — is priced by all three array models as by the
    per-access ones."""
    from repro.workloads.base import Workload

    def simulate():
        # the hybrid scheduler's history lives on the program: a fresh one each
        monkeypatch.setattr(Workload, "_program_cache", {})
        if how == "hybrid":
            return run_uncapped(name, policy="hybrid", graph=True)
        return run_uncapped(name, on_cpu=how == "cpu")

    got = simulate()
    assert sum(report.mem_transactions for report in got) > 0
    use_oracles(monkeypatch)
    assert simulate() == got


@pytest.mark.parametrize("name", UNCAPPED)
def test_uncapped_runs_keep_what_the_cap_would_drop(name):
    from repro.exec import DEFAULT_MEM_EVENT_CAP
    from repro.obs import Observer

    observer = Observer()
    run_uncapped(name, observer=observer)
    counters = observer.counters.as_dict()
    assert counters.get("mem_events.dropped", 0) == 0
    if name != "BFS":
        assert counters["mem_events.kept"] > DEFAULT_MEM_EVENT_CAP


# -- static facts -------------------------------------------------------------


def test_two_launches_read_the_kernel_once(monkeypatch):
    """The per-kernel facts live in the runtime's ``gpu_function_t``
    entry: a second launch of the kernel prices without walking its IR."""
    walks = []
    block_sizes = gpu_timing.block_sizes
    monkeypatch.setattr(
        gpu_timing,
        "block_sizes",
        lambda kernel: walks.append(kernel.name) or block_sizes(kernel),
    )
    workload = WORKLOADS["BFS"]()  # one kernel, a launch per frontier
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rt = workload.make_runtime(OptConfig.gpu_all(), ultrabook())
        reports = workload.run(rt, workload.build(rt, 0.2), on_cpu=False)
    assert len(reports) > 1
    assert len(walks) == len(set(walks)) == len(rt._gpu_function_cache)
    (entry,) = rt._gpu_function_cache.values()
    assert entry.launches == len(reports)
