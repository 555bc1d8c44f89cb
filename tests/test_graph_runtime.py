"""Tests for the async task-graph runtime (repro.runtime.graph):
dependency inference from declared read/write sets, graph-vs-sync
bit-identity on all nine workloads, topological-order freedom as a
hypothesis property, report-merge algebra, the overlap evaluation
scenarios, and the graph fuzz target."""

import random
import warnings

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from repro.exec import ExecTrace
from repro.exec.buffers import LaunchTrace
from repro.fuzz import divergences, generate_source_program
from repro.fuzz.driver import TARGETS, FuzzDriver
from repro.fuzz.oracle import _run_graph_dag
from repro.gpu.timing import DeviceReport
from repro.obs import Observer, build_trace, validate_trace
from repro.obs.profile import fold_constructs, fold_spans
from repro.passes import OptConfig
from repro.runtime import (
    ConcordRuntime,
    GraphError,
    RegionSpan,
    compile_source,
    ultrabook,
)
from repro.runtime.graph import MAX_VIOLATION_DETAILS, as_span, declared_violations
from repro.runtime.runtime import ExecutionReport
from repro.workloads import all_workloads

WORKLOADS = all_workloads()

SOURCE = """
class Incr {
public:
  int* data;
  void operator()(int i) { data[i] = data[i] + i; }
};

class Copy {
public:
  int* src;
  int* dst;
  void operator()(int i) { dst[i] = src[i]; }
};

class SumBody {
public:
  int* data;
  int total;
  void operator()(int i) { total = total + data[i]; }
  void join(SumBody& other) { total = total + other.total; }
};
"""


def _runtime(**kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        program = compile_source(SOURCE, OptConfig.gpu_all())
        return ConcordRuntime(program, ultrabook(), **kwargs)


def _incr(rt, data):
    body = rt.new("Incr")
    body.data = data
    return body


def _copy(rt, src, dst):
    body = rt.new("Copy")
    body.src = src
    body.dst = dst
    return body


class TestRegionSpans:
    def test_overlap_matrix(self):
        a = RegionSpan(0, 8)
        assert a.overlaps(RegionSpan(4, 8))
        assert a.overlaps(RegionSpan(0, 1))
        assert not a.overlaps(RegionSpan(8, 8))  # half-open: adjacent
        assert not a.overlaps(RegionSpan(100, 4))
        assert not a.overlaps(RegionSpan(4, 0))  # empty never overlaps
        assert not RegionSpan(0, 0).overlaps(a)

    def test_as_span_normalizes_views_and_tuples(self):
        from repro.ir.types import I32

        rt = _runtime()
        arr = rt.new_array(I32, 10)
        span = as_span(arr)
        assert span.addr == arr.addr and span.size == 10 * I32.size()
        body = rt.new("Incr")
        bspan = as_span(body)
        assert bspan.addr == body.addr and bspan.size > 0
        assert as_span((16, 4)) == RegionSpan(16, 4)
        assert as_span(RegionSpan(1, 2)) == RegionSpan(1, 2)

    def test_as_span_rejects_garbage(self):
        for bad in (None, 3, "x", (1, 2, 3), (1.5, 2)):
            with pytest.raises(GraphError):
                as_span(bad)


#: where the hypothesis spans and accesses below lie
_BASE = 0x4000


def _walked_violations(reads, writes, launches) -> tuple:
    """The oracle for ``declared_violations``: every event of every lane
    of every launch, one at a time, byte by byte against the spans as
    declared (no merging) — a byte is covered when some span holds it."""

    def covered(spans, address, size):
        return all(
            any(span.addr <= byte < span.addr + span.size for span in spans)
            for byte in range(address, address + size)
        )

    total, details = 0, []
    for launch in launches:
        for lane in launch.lanes():
            for event in lane.mem_events:
                spans = writes if event.is_store else reads + writes
                if covered(spans, event.address, event.size):
                    continue
                total += 1
                if len(details) < MAX_VIOLATION_DETAILS:
                    access = "store" if event.is_store else "load"
                    details.append({"access": access, "address": event.address, "size": event.size})
    return total, details


@st.composite
def _declared_and_launches(draw):
    """Spans that overlap, touch and leave gaps; accesses of 1-8 bytes
    that start, end or straddle at their edges, or fall anywhere; loads
    and stores; over several launches of several lanes."""
    span = st.builds(RegionSpan, st.integers(_BASE, _BASE + 96), st.integers(0, 24))
    reads = tuple(draw(st.lists(span, max_size=4)))
    writes = tuple(draw(st.lists(span, max_size=4)))
    edges = sorted({edge for s in reads + writes for edge in (s.addr, s.addr + s.size)})
    near = st.sampled_from(edges or [_BASE]).flatmap(
        lambda edge: st.integers(max(0, edge - 8), edge + 8)
    )
    access = st.tuples(
        st.one_of(near, st.integers(_BASE - 16, _BASE + 136)),
        st.integers(1, 8),
        st.booleans(),
    )
    launches = []
    for lanes in draw(st.lists(st.lists(st.lists(access, max_size=8), max_size=4), max_size=3)):
        traces = []
        for events in lanes:
            trace = ExecTrace()
            for seq, (address, size, is_store) in enumerate(events):
                trace.record_mem(1, seq, address, size, is_store)
            traces.append(trace)
        launches.append(LaunchTrace.from_traces(traces))
    return reads, writes, launches


class TestDeclaredCheckColumns:
    @given(case=_declared_and_launches())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_equals_a_per_event_walk(self, case):
        """One ``searchsorted`` over the merged spans gives the walk's
        total and its first details, in event order."""
        reads, writes, launches = case
        assert declared_violations(reads, writes, launches) == _walked_violations(
            reads, writes, launches
        )


class TestDependencyInference:
    """The unit matrix: RAW/WAR/WAW over declared spans, disjoint spans
    stay independent, omitted sets serialize conservatively."""

    def _two(self, reads_a, writes_a, reads_b, writes_b):
        from repro.ir.types import I32

        rt = _runtime()
        x = rt.new_array(I32, 8)
        y = rt.new_array(I32, 8)
        spans = {"x": x, "y": y}
        pick = lambda names: [spans[n] for n in names]
        fa = rt.submit(8, _incr(rt, x), reads=pick(reads_a), writes=pick(writes_a))
        fb = rt.submit(8, _incr(rt, y), reads=pick(reads_b), writes=pick(writes_b))
        return fa, fb

    def test_raw_edge(self):
        fa, fb = self._two([], ["x"], ["x"], ["y"])
        assert fa.index in fb.edges.get("raw", ())
        assert fa.index in fb.deps

    def test_war_edge(self):
        fa, fb = self._two(["x"], ["y"], [], ["x"])
        assert fa.index in fb.edges.get("war", ())

    def test_waw_edge(self):
        fa, fb = self._two([], ["x"], [], ["x"])
        assert fa.index in fb.edges.get("waw", ())

    def test_disjoint_spans_are_independent(self):
        fa, fb = self._two([], ["x"], [], ["y"])
        # The two Incr bodies are distinct structs, so no edges at all.
        assert fb.deps == ()
        assert fa.wave == 0 and fb.wave == 0

    def test_partial_byte_overlap(self):
        from repro.ir.types import I32

        rt = _runtime()
        x = rt.new_array(I32, 8)
        half = RegionSpan(x.addr, 4 * I32.size())
        rest = RegionSpan(x.addr + 4 * I32.size(), 4 * I32.size())
        fa = rt.submit(8, _incr(rt, x), reads=[], writes=[half])
        fb = rt.submit(8, _incr(rt, x), reads=[], writes=[rest])
        fc = rt.submit(8, _incr(rt, x), reads=[half], writes=[])
        assert fb.deps == ()  # disjoint halves of the same array
        assert fa.index in fc.edges.get("raw", ())
        assert fb.index not in fc.deps

    def test_omitted_sets_are_conservative(self):
        from repro.ir.types import I32

        rt = _runtime()
        x = rt.new_array(I32, 8)
        y = rt.new_array(I32, 8)
        fa = rt.submit(8, _incr(rt, x), reads=[], writes=[x])
        fb = rt.submit(8, _incr(rt, y))  # no sets: whole-region fallback
        fc = rt.submit(8, _incr(rt, x), reads=[], writes=[y])
        assert fb.conservative
        assert not fa.conservative
        assert fa.index in fb.deps  # serializes against everything before
        assert fb.index in fc.deps  # and everything after serializes on it

    def test_body_struct_is_an_implicit_read(self):
        from repro.ir.types import I32

        rt = _runtime()
        x = rt.new_array(I32, 8)
        body = _incr(rt, x)
        fa = rt.submit(8, body, reads=[], writes=[body])  # mutates the body
        fb = rt.submit(8, body, reads=[], writes=[x])
        assert fa.index in fb.edges.get("raw", ())

    def test_wave_numbering_follows_chains(self):
        from repro.ir.types import I32

        rt = _runtime()
        x = rt.new_array(I32, 8)
        y = rt.new_array(I32, 8)
        f0 = rt.submit(8, _incr(rt, x), reads=[], writes=[x])
        f1 = rt.submit(8, _incr(rt, y), reads=[], writes=[y])
        f2 = rt.submit(8, _copy(rt, x, y), reads=[x], writes=[y])
        f3 = rt.submit(8, _copy(rt, y, x), reads=[y], writes=[x])
        assert (f0.wave, f1.wave, f2.wave, f3.wave) == (0, 0, 1, 2)
        stats = rt.wait()
        assert stats.waves == 3
        assert stats.executed == 4

    def test_reduce_without_join_raises(self):
        rt = _runtime()
        with pytest.raises(TypeError):
            rt.submit(8, rt.new("Incr"), construct="reduce")

    def test_unknown_construct_and_placement_raise(self):
        rt = _runtime()
        with pytest.raises(GraphError):
            rt.submit(8, rt.new("Incr"), construct="scan")
        # a placement is checked when the runtime is built, not at first use
        with pytest.raises(ValueError, match="graph_placement='greedy'"):
            _runtime(graph_placement="greedy")


def _overlap_any(a: tuple, b: tuple) -> bool:
    """The pairwise definition the graph's one interval test replaced:
    does any span of ``a`` overlap any span of ``b``?"""
    for x in a:
        for y in b:
            if x.overlaps(y):
                return True
    return False


#: ``(addr, size)`` on a 4-byte grid over 44 bytes: spans overlap, touch
#: end to start and come empty often
SPAN = st.tuples(st.integers(0, 8).map(lambda k: 4 * k), st.sampled_from((0, 4, 4, 8, 12)))
#: a declared set, or ``None`` for a conservative whole-region one
DECLARED = st.one_of(st.none(), st.lists(SPAN, max_size=3))


class TestEdgeInferenceIsThePairwiseDefinition:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        constructs=st.lists(st.tuples(DECLARED, DECLARED), min_size=1, max_size=30),
        regions=st.lists(SPAN, min_size=1, max_size=3),
    )
    @example(constructs=[([], [(8, 8)]), ([(16, 4)], [(0, 0)])], regions=[(16, 0), (12, 4)])
    def test_edges_waves_counters_and_barrier(self, constructs, regions):
        """Every record's edges (kinds and index order), its wave, the
        ``graph.edges.*`` counters and the constructs ``barrier(regions)``
        forces equal what the double loop over earlier records gives.
        The constructs have no lanes: forcing one runs nothing."""
        from repro.ir.types import I32

        observer = Observer()
        rt = _runtime(observer=observer)
        body = _incr(rt, rt.new_array(I32, 1))
        for reads, writes in constructs:
            rt.submit(0, body, reads=reads, writes=writes)
        records = rt.task_graph.records

        waves, counts = [], {}
        for record in records:
            earlier = records[: record.index]
            edges = {}
            for kind, theirs, mine in (
                ("raw", "writes", record.reads),
                ("war", "reads", record.writes),
                ("waw", "writes", record.writes),
            ):
                hit = tuple(prev.index for prev in earlier if _overlap_any(getattr(prev, theirs), mine))
                if hit:
                    edges[kind] = hit
                    counts[f"graph.edges.{kind}"] = counts.get(f"graph.edges.{kind}", 0) + len(hit)
            assert record.edges == edges
            deps = sorted({index for hit in edges.values() for index in hit})
            waves.append(1 + max(waves[index] for index in deps) if deps else 0)
            assert record.wave == waves[-1]
        assert {
            name: value
            for name, value in observer.counters.as_dict().items()
            if name.startswith("graph.edges.")
        } == counts

        spans = tuple(as_span(region) for region in regions)
        forced = set()
        pending = [
            record.index
            for record in records
            if _overlap_any(record.writes, spans) or _overlap_any(record.reads, spans)
        ]
        while pending:
            index = pending.pop()
            if index not in forced:
                forced.add(index)
                pending.extend(records[index].deps)
        rt.barrier(regions)
        assert {record.index for record in records if record.done} == forced


class TestDeferredExecution:
    def test_result_forces_dependencies_only(self):
        from repro.ir.types import I32

        rt = _runtime()
        x = rt.new_array(I32, 8)
        y = rt.new_array(I32, 8)
        fx = rt.submit(8, _incr(rt, x), reads=[x], writes=[x])
        fy = rt.submit(8, _incr(rt, y), reads=[y], writes=[y])
        fx2 = rt.submit(8, _incr(rt, x), reads=[x], writes=[x])
        report = fx2.result()
        assert report is not None and fx.done and fx2.done
        assert not fy.done  # independent chain stays deferred
        assert x.to_list() == [2 * i for i in range(8)]
        rt.wait()
        assert fy.done

    def test_barrier_with_regions_forces_overlapping_only(self):
        from repro.ir.types import I32

        rt = _runtime()
        x = rt.new_array(I32, 8)
        y = rt.new_array(I32, 8)
        fx = rt.submit(8, _incr(rt, x), reads=[x], writes=[x])
        fy = rt.submit(8, _incr(rt, y), reads=[y], writes=[y])
        rt.barrier(regions=[x])
        assert fx.done and not fy.done

    def test_graph_mode_constructs_stay_synchronous(self):
        from repro.ir.types import I32

        sync_rt = _runtime()
        graph_rt = _runtime(graph=True)
        assert graph_rt.options.graph
        results = []
        for rt in (sync_rt, graph_rt):
            data = rt.new_array(I32, 16)
            data.fill_from(range(16))
            rt.parallel_for_hetero(16, _incr(rt, data))
            sum_body = rt.new("SumBody")
            sum_body.data = data
            report = rt.parallel_reduce_hetero(16, sum_body)
            results.append((data.to_list(), sum_body.total, report.seconds))
        assert results[0] == results[1]
        stats = graph_rt.wait()
        assert stats.executed == 2


def _workload_state(name, graph, scale=0.1, observer=None):
    cls = WORKLOADS[name]
    workload = cls()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rt = cls.make_runtime(
            OptConfig.gpu_all(), ultrabook(), graph=graph, observer=observer
        )
        state = workload.build(rt, scale)
        reports = workload.run(rt, state, on_cpu=False)
        if graph:
            rt.wait()
    return rt, reports


class TestNineWorkloadIdentity:
    """Graph mode must be bit-identical to synchronous submission on the
    paper's nine workloads: same region bytes, same construct records,
    same modeled seconds."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_graph_matches_sync(self, name):
        sync_obs, graph_obs = Observer(), Observer()
        sync_rt, sync_reports = _workload_state(name, False, observer=sync_obs)
        graph_rt, graph_reports = _workload_state(name, True, observer=graph_obs)
        assert bytes(graph_rt.region.physical.data) == bytes(
            sync_rt.region.physical.data
        )
        assert [r.seconds for r in graph_reports] == [
            r.seconds for r in sync_reports
        ]
        key = lambda rec: (rec["kernel"], rec["construct"], rec["device"], rec["n"], rec["seconds"])
        assert [key(r) for r in fold_constructs(graph_obs.events)] == [
            key(r) for r in fold_constructs(sync_obs.events)
        ]


def _compile_cached(seed):
    program = generate_source_program(
        random.Random(seed), seed=seed, force={"construct": "for"}
    )
    cached = _compile_cached._memo.get(seed)
    if cached is None:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cached = compile_source(program.source, OptConfig.gpu_all())
        except Exception:
            cached = False
        _compile_cached._memo[seed] = cached
    return program, cached


_compile_cached._memo = {}


class TestTopologicalOrderProperty:
    """Any topological execution order of a random DAG of srcgen
    constructs yields identical final region bytes — the inferred
    RAW/WAR/WAW edges must serialize every true conflict."""

    @given(
        seed=st.integers(min_value=0, max_value=15),
        order=st.permutations(list(range(5))),
    )
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_any_forcing_order_matches_sync(self, seed, order):
        program, compiled = _compile_cached(seed)
        assume(compiled is not False)
        sync = _run_graph_dag(program, compiled, "sync")
        assume(sync.ok)  # trapping programs abort order-dependently
        forced = _run_graph_dag(program, compiled, "shuffled", order=order)
        assert forced.ok
        assert forced.outputs == sync.outputs
        assert forced.region_digest == sync.region_digest
        assert forced.heap_digest == sync.heap_digest


def _report(device, n, seconds, jit=0.0, device_seconds=None):
    return ExecutionReport(
        device=device,
        n=n,
        report=DeviceReport(device=device, seconds=seconds, energy_joules=seconds * 2),
        jit_seconds=jit,
        device_seconds=device_seconds,
    )


_report_strategy = st.one_of(
    st.builds(
        _report,
        device=st.sampled_from(["cpu", "gpu"]),
        n=st.integers(1, 1000),
        seconds=st.floats(0.0, 10.0, allow_nan=False),
        jit=st.floats(0.0, 1.0, allow_nan=False),
    ),
    st.builds(
        lambda n, g, c, jit: _report(
            "hybrid", n, g + c, jit, device_seconds={"gpu": g, "cpu": c}
        ),
        n=st.integers(1, 1000),
        g=st.floats(0.0, 10.0, allow_nan=False),
        c=st.floats(0.0, 10.0, allow_nan=False),
        jit=st.floats(0.0, 1.0, allow_nan=False),
    ),
)


def _assert_merge_equal(left, right):
    assert left.n == right.n
    assert left.seconds == pytest.approx(right.seconds)
    assert left.jit_seconds == pytest.approx(right.jit_seconds)
    assert left.energy_joules == pytest.approx(right.energy_joules)
    mine, theirs = left.per_device_seconds(), right.per_device_seconds()
    assert set(mine) == set(theirs)
    for device in mine:
        assert mine[device] == pytest.approx(theirs[device])


class TestReportMergeAlgebra:
    """Graph forcing completes constructs out of submission order, then
    sums their reports — the merge must not care about that order."""

    @given(a=_report_strategy, b=_report_strategy)
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, a, b):
        ab, ba = a + b, b + a
        _assert_merge_equal(ab, ba)
        assert ab.device == ba.device

    @given(a=_report_strategy, b=_report_strategy, c=_report_strategy)
    @settings(max_examples=60, deadline=None)
    def test_associative(self, a, b, c):
        _assert_merge_equal((a + b) + c, a + (b + c))

    @given(a=_report_strategy)
    @settings(max_examples=20, deadline=None)
    def test_sum_identity(self, a):
        assert sum([a]) is a
        assert (0 + a) is a

    def test_hybrid_chunks_merge_keywise(self):
        a = _report("hybrid", 10, 3.0, device_seconds={"gpu": 2.0, "cpu": 1.0})
        b = _report("gpu", 5, 1.5)
        merged = a + b
        assert merged.device == "hybrid"
        assert merged.per_device_seconds() == {
            "gpu": pytest.approx(3.5),
            "cpu": pytest.approx(1.0),
        }

    def test_unlabeled_hybrid_occupies_both_devices(self):
        legacy = _report("hybrid", 4, 2.0)  # no device_seconds recorded
        assert legacy.per_device_seconds() == {"gpu": 2.0, "cpu": 2.0}


def _spans(observer, category) -> list:
    """The spans of ``category`` folded from the observer's events,
    depth-first."""

    def walk(spans):
        for span in spans:
            yield span
            yield from walk(span.get("children", ()))

    return [s for s in walk(fold_spans(observer.events)[0]) if s["category"] == category]


class TestObservabilityAndTrace:
    def test_graph_counters_and_wave_spans(self):
        from repro.ir.types import I32

        observer = Observer()
        rt = _runtime(observer=observer)
        x = rt.new_array(I32, 32)
        y = rt.new_array(I32, 32)
        rt.submit(32, _incr(rt, x), reads=[x], writes=[x])
        rt.submit(32, _incr(rt, y), reads=[y], writes=[y])
        rt.submit(32, _copy(rt, x, y), reads=[x], writes=[y])
        stats = rt.wait()
        counters = observer.counters
        assert counters.get("graph.submitted") == 3
        assert counters.get("graph.executed") == 3
        assert counters.get("graph.waves") == 2
        assert stats.edges["raw"] >= 1
        waves = _spans(observer, "graph_wave")
        assert len(waves) == 2
        constructs = _spans(observer, "graph_construct")
        assert len(constructs) == 3
        for span in constructs:
            assert span["attrs"]["virtual_finish"] >= span["attrs"]["virtual_start"]

    def test_trace_has_virtual_device_tracks(self):
        from repro.ir.types import I32

        observer = Observer()
        rt = _runtime(observer=observer)
        x = rt.new_array(I32, 32)
        rt.submit(32, _incr(rt, x), reads=[x], writes=[x])
        rt.wait()
        doc = build_trace(observer.events)
        validate_trace(doc)
        virtual = [
            e
            for e in doc["traceEvents"]
            if e.get("cat") == "graph_construct" and e["tid"] in (2, 3)
        ]
        assert virtual
        for event in virtual:
            assert event["ts"] >= 0 and event["dur"] >= 0
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e.get("name") == "thread_name"
        }
        assert "gpu (graph virtual)" in names

    def test_sync_trace_has_no_virtual_tracks(self):
        observer = Observer()
        rt = _runtime(observer=observer)
        from repro.ir.types import I32

        x = rt.new_array(I32, 8)
        rt.parallel_for_hetero(8, _incr(rt, x))
        doc = build_trace(observer.events)
        validate_trace(doc)
        assert not any(
            e.get("cat") == "graph_construct" for e in doc["traceEvents"]
        )
        assert not any(e["tid"] in (2, 3) for e in doc["traceEvents"])


class TestOverlapEval:
    def test_bfs_pipeline_overlaps_and_stays_identical(self):
        from repro.eval.overlap import measure_bfs_pipeline

        point = measure_bfs_pipeline(scale=0.3)
        assert point.identical
        assert point.graph_seconds < point.sync_seconds
        assert point.speedup > 1.0
        assert set(point.device_busy) == {"gpu", "cpu"}

    def test_bh_batch_overlaps_and_stays_identical(self):
        from repro.eval.overlap import measure_bh_batch

        point = measure_bh_batch(scale=0.3)
        assert point.identical
        assert point.speedup > 1.0


class TestGraphFuzzTarget:
    def test_target_registered(self):
        assert "graph" in TARGETS
        with pytest.raises(ValueError):
            FuzzDriver(target="gralph")

    def test_smoke_campaign_clean(self):
        driver = FuzzDriver(seed=11, iterations=6, target="graph", reduce=False)
        report = driver.run()
        assert report.ok, [str(d.diffs) for d in report.divergences]

    def test_oracle_clean_on_generated_programs(self):
        for seed in range(3):
            program = generate_source_program(
                random.Random(seed), seed=seed, force={"construct": "for"}
            )
            assert divergences("graph", program) == []
