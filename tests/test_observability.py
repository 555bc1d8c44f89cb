"""Observability layer (spans, counters, profiles) and the trace-cap /
reduce-join fixes that ride along with it.

Covers the contract in docs/OBSERVABILITY.md:

* spans nest, carry wall/simulated seconds, and cover compile + every
  construct phase (jit, launch, reduce_tree, host_join), and every
  construct's span tree has one shape, each chunk a ``launch:<device>``
  span under ``launch``;
* counters are published by the engines, timing models, code cache and
  private pool — and only when an observer is attached;
* per-kernel profiles attribute >= 95% of each construct's simulated
  seconds to named phases, and the emitted document validates against the
  published schema (JSON and CSV renderings);
* attaching an observer never changes the simulated numbers;
* the global memory-event budget holds across work-items (regression for
  the per-lane-floor overflow);
* a reduce body with no join kernel on any device degrades to a
  ConcordWarning instead of crashing;
* the work-group tree reduction matches a sequential join for every
  n in [1, 64] and group size in {3, 4, 16} (ragged non-power-of-two
  tails included).
"""

import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.runtime.runtime as runtime_module
from repro.ir.types import F32, I32
from repro.obs import (
    CounterRegistry,
    Observer,
    PROFILE_SCHEMA_VERSION,
    ProfileSchemaError,
    build_profile,
    profile_to_csv,
    profile_workload,
    validate_profile,
)
from repro.runtime import ConcordRuntime, OptConfig, compile_source, ultrabook
from repro.runtime.compiler import ConcordWarning

SUM_SRC = """
class ISum {
public:
  int* data;
  int total;
  void operator()(int i) { total += data[i]; }
  void join(ISum& other) { total += other.total; }
};
"""

TOUCH_SRC = """
class TouchBody {
public:
  int* data;
  void operator()(int i) { data[i] = data[i] + 1; }
};
"""


# -- counters ---------------------------------------------------------------


class TestCounterRegistry:
    def test_add_get_contains(self):
        counters = CounterRegistry()
        counters.add("a.b")
        counters.add("a.b", 4)
        counters.add("c", 2.5)
        assert counters["a.b"] == 5
        assert counters.get("c") == 2.5
        assert counters.get("missing", -1) == -1
        assert "a.b" in counters and "missing" not in counters
        assert len(counters) == 2

    def test_as_dict_sorted_and_merge(self):
        a = CounterRegistry()
        a.add("z", 1)
        a.add("a", 2)
        assert list(a.as_dict()) == ["a", "z"]
        b = CounterRegistry()
        b.add("z", 10)
        b.add("new", 3)
        a.merge(b)
        assert a.as_dict() == {"a": 2, "new": 3, "z": 11}
        a.clear()
        assert len(a) == 0


# -- spans ------------------------------------------------------------------


class TestSpans:
    def test_nesting_and_categories(self):
        obs = Observer()
        with obs.span("outer", "construct", n=4) as outer:
            with obs.span("inner", "phase"):
                pass
            assert obs.current_span is outer
        assert obs.current_span is obs.root
        assert [s.name for s in obs.spans()] == ["outer", "inner"]
        assert [s.name for s in obs.spans("phase")] == ["inner"]
        assert outer.attrs == {"n": 4}
        assert outer.children[0].name == "inner"
        assert outer.wall_seconds >= outer.children[0].wall_seconds >= 0.0

    def test_to_dict_round_trip(self):
        obs = Observer()
        with obs.span("a", "phase") as span:
            span.sim_seconds = 1.5
        doc = obs.root.children[0].to_dict()
        assert doc["name"] == "a"
        assert doc["sim_seconds"] == 1.5
        assert doc["wall_seconds"] >= 0.0


# -- profile document -------------------------------------------------------


class TestProfileDocument:
    def _observer_with_launch(self, seconds=1.0, attributed=1.0):
        obs = Observer()
        obs.record_launch(
            "kernel.K",
            "for",
            "gpu",
            8,
            seconds=seconds,
            energy_joules=2.0,
            phases={"launch": attributed},
            counters={"engine.instructions": 10},
        )
        return obs

    def test_build_and_validate(self):
        obs = self._observer_with_launch()
        doc = build_profile(obs, meta={"workload": "X"})
        validate_profile(doc)
        assert doc["schema"] == PROFILE_SCHEMA_VERSION
        assert doc["totals"]["constructs"] == 1
        assert doc["totals"]["attributed_fraction"] == 1.0
        assert doc["kernels"]["kernel.K"]["launches"] == 1
        assert doc["constructs"][0]["counters"]["engine.instructions"] == 10

    def test_validation_rejects_leaky_attribution(self):
        obs = self._observer_with_launch(seconds=1.0, attributed=0.5)
        doc = build_profile(obs)
        with pytest.raises(ProfileSchemaError, match="leaking"):
            validate_profile(doc)
        validate_profile(doc, min_attributed_fraction=0.4)

    def test_validation_rejects_wrong_schema(self):
        doc = build_profile(Observer())
        doc["schema"] = "other/v0"
        with pytest.raises(ProfileSchemaError, match="schema"):
            validate_profile(doc)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("constructs", 0, "device"), "tpu", "profile.constructs[0].device: 'tpu' not in"),
            (("constructs", 0, "seconds"), -1, "profile.constructs[0].seconds: -1 < minimum 0"),
            (("constructs", 0, "kernel"), 7, "profile.constructs[0].kernel: expected string, got int"),
            (("constructs", 0, "phases", "launch"), "1", "phases.launch: expected number, got str"),
            (("constructs", 0, "attributed_fraction"), 1.5, "attributed_fraction: 1.5 > maximum 1"),
            (("constructs", 0, "counters"), [], "profile.constructs[0].counters: expected object"),
            (("totals", "energy_joules"), None, "profile.totals: missing required key 'energy_joules'"),
            (("totals", "seconds"), True, "profile.totals.seconds: expected number, got bool"),
            (("counters", "engine.instructions"), "many", "profile.counters.engine.instructions: expected number"),
            (("passes",), [{"name": "dce"}], "profile.passes[0]: missing required key 'runs'"),
            (("spans", 0, "children", 0, "name"), None, "profile.spans[0].children[0]: missing required key 'name'"),
            (("spans", 0, "children", 0, "wall_seconds"), -2.0, "children[0].wall_seconds: -2.0 < minimum 0"),
            (("kernels",), [], "profile.kernels: expected object, got list"),
        ],
    )
    def test_validation_rejects_what_the_schema_forbids(self, path, value, message):
        """Every rule the hand-written walkers enforced is a line of
        PROFILE_SCHEMA now; ``None`` deletes the key."""
        obs = self._observer_with_launch()
        with obs.span("outer"):
            with obs.span("inner", category="phase"):
                pass
        doc = json.loads(json.dumps(build_profile(obs)))
        validate_profile(doc)
        target = doc
        for key in path[:-1]:
            target = target[key]
        if value is None:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        with pytest.raises(ProfileSchemaError) as excinfo:
            validate_profile(doc)
        assert message in str(excinfo.value)
        with pytest.raises(ProfileSchemaError, match="expected object, got list"):
            validate_profile([doc])

    def test_check_interprets_the_draft07_subset(self):
        from repro.obs.schema import check, record

        schema = {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"const": "v2"},
                "count": {"type": "integer", "minimum": 0},
                "tags": {"type": "array", "items": {"enum": ["a", "b"]}},
            },
            "additionalProperties": {"type": "number", "maximum": 1},
        }
        assert check({"kind": "v2", "count": 3, "tags": ["a"], "x": 0.5}, schema, "d") == []
        assert check({"kind": "v1", "count": 1.5, "tags": ["c"], "x": 2, "y": "z"}, schema, "d") == [
            "d.kind: expected 'v2', got 'v1'",
            "d.count: expected integer, got float",
            "d.tags[0]: 'c' not in ['a', 'b']",
            "d.x: 2 > maximum 1",
            "d.y: expected number, got str",
        ]
        assert check({}, schema, "d") == ["d: missing required key 'kind'"]
        assert check(True, {"type": "integer"}, "d") == ["d: expected integer, got bool"]
        assert record({"a": {}}, {"b": {}}) == {
            "type": "object",
            "required": ["a"],
            "properties": {"a": {}, "b": {}},
        }

    def test_kernel_profile_aggregates_launches(self):
        obs = Observer()
        for _ in range(3):
            obs.record_launch(
                "kernel.K", "for", "gpu", 5, 1.0, 0.5, {"launch": 1.0}
            )
        profile = obs.kernels["kernel.K"]
        assert profile.launches == 3
        assert profile.work_items == 15
        assert profile.seconds == pytest.approx(3.0)


# -- profiled workloads -----------------------------------------------------


class TestProfileWorkload:
    def test_for_workload_profile(self):
        doc = profile_workload("bfs", scale=0.1)
        validate_profile(doc)
        assert doc["meta"]["workload"] == "BFS"
        assert doc["totals"]["constructs"] > 0
        assert doc["totals"]["attributed_fraction"] >= 0.95
        for construct in doc["constructs"]:
            assert set(construct["phases"]) <= {
                "jit",
                "launch",
                "reduce_tree",
                "host_join",
            }
        assert doc["counters"]["engine.instructions"] > 0
        assert doc["passes"], "pass statistics must be recorded"
        assert any(key.startswith("passes.") for key in doc["counters"])
        # skipped runs and verification time are reported, apart from the
        # runs / seconds they used to hide in or be missing from
        counters = doc["counters"]
        for stat in doc["passes"]:
            assert counters[f"passes.{stat['name']}.skipped"] == stat["skipped"]
            # a stage's verification is booked on the last pass to change
            # the function in it, so only a pass that changed something has any
            assert stat["changed"] > 0 or stat["verify_seconds"] == 0
        assert sum(stat["skipped"] for stat in doc["passes"]) > 0
        assert counters["passes.verify_s"] > 0
        assert counters["passes.verify_s"] == pytest.approx(
            sum(stat["verify_seconds"] for stat in doc["passes"])
        )
        span_names = {span["name"] for span in doc["spans"]}
        assert "compile" in span_names

    def test_reduce_workload_has_all_phases(self):
        doc = profile_workload("clothphysics", scale=0.1)
        validate_profile(doc)
        reduces = [c for c in doc["constructs"] if c["construct"] == "reduce"]
        assert reduces
        phases = reduces[0]["phases"]
        assert set(phases) == {"jit", "launch", "reduce_tree", "host_join"}
        assert phases["launch"] > 0
        assert phases["reduce_tree"] > 0
        assert phases["host_join"] > 0
        assert reduces[0]["attributed_fraction"] >= 0.95

    def test_compile_spans_include_svm_lower(self):
        doc = profile_workload("bfs", scale=0.1)

        def names(spans):
            for span in spans:
                yield span["name"]
                yield from names(span.get("children", ()))

        all_names = set(names(doc["spans"]))
        assert {"compile", "frontend", "standard_pipeline", "svm_lower"} <= all_names

    def test_csv_rendering(self):
        doc = profile_workload("bfs", scale=0.1)
        text = profile_to_csv(doc)
        header, *rows = text.strip().splitlines()
        assert header.startswith("index,kernel,construct,device,n,seconds")
        assert "phase:launch" in header
        assert len(rows) == doc["totals"]["constructs"]

    def test_unknown_workload(self):
        with pytest.raises(KeyError, match="unknown workload"):
            profile_workload("nope")

    def test_cpu_profile(self):
        doc = profile_workload("bfs", scale=0.1, on_cpu=True)
        validate_profile(doc)
        assert all(c["device"] == "cpu" for c in doc["constructs"])
        assert doc["counters"]["cpu.branches"] > 0


def _shape(construct) -> list:
    """A construct span's children: a phase name, or ``(launch, its chunk
    span names)``."""
    shape = []
    for phase in construct.get("children", ()):
        chunks = [chunk["name"] for chunk in phase.get("children", ())]
        shape.append((phase["name"], chunks) if phase["name"] == "launch" else phase["name"])
    return shape


REDUCE_PHASES = ["reduce_tree", "host_join"]


class TestConstructSpanTree:
    """Every construct has one span-tree shape: ``construct:<kernel>`` →
    ``jit`` when the GPU may run → ``launch`` → one ``launch:<device>``
    span per chunk → ``reduce_tree`` / ``host_join`` for a reduction on
    the GPU.  The CPU's TBB-style reduction is the one construct without
    chunks."""

    @pytest.mark.parametrize(
        "workload, options, kernel, shape",
        [
            ("bfs", {}, "BfsBody.gpu", ["jit", ("launch", ["launch:gpu"])]),
            ("bfs", {"on_cpu": True}, "BfsBody", [("launch", ["launch:cpu"])]),
            (
                "clothphysics",
                {},
                "StepBody.gpu",
                ["jit", ("launch", ["launch:gpu"]), *REDUCE_PHASES],
            ),
            ("clothphysics", {"on_cpu": True}, "StepBody", [("launch", [])]),
        ],
        ids=["gpu-for", "cpu-for", "gpu-reduce", "cpu-tbb-reduce"],
    )
    def test_single_device(self, workload, options, kernel, shape):
        doc = profile_workload(workload, scale=0.1, **options)
        constructs = [s for s in doc["spans"] if s["name"] == f"construct:kernel.{kernel}"]
        assert constructs
        device = "cpu" if options else "gpu"
        for construct in constructs:
            assert construct["category"] == "construct"
            assert _shape(construct) == shape
            n = construct["attrs"]["n"]
            assert construct["attrs"] == {"device": device, "n": n}
            launch = next(p for p in construct["children"] if p["name"] == "launch")
            for chunk in launch.get("children", ()):
                assert chunk["category"] == "phase"
                assert chunk["attrs"] == {"chunk": 0, "lo": 0, "items": n}
                assert chunk["sim_seconds"] == launch["sim_seconds"] > 0.0

    def test_hybrid(self):
        doc = profile_workload("clothphysics", scale=0.1, policy="hybrid")
        constructs = [
            s for s in doc["spans"] if s["name"] == "construct:kernel.StepBody.gpu"
        ]
        assert constructs
        for construct in constructs:
            n = construct["attrs"]["n"]
            assert construct["attrs"] == {"device": "hybrid", "n": n, "policy": "hybrid"}
            jit, (launch, chunks), *rest = _shape(construct)
            assert (jit, launch, rest) == ("jit", "launch", REDUCE_PHASES)
            assert chunks and set(chunks) <= {"launch:gpu", "launch:cpu"}
            spans = construct["children"][1]["children"]
            assert [span["attrs"]["chunk"] for span in spans] == list(range(len(spans)))
            lo = 0
            for span in spans:
                assert span["attrs"]["lo"] == lo and span["sim_seconds"] > 0.0
                lo += span["attrs"]["items"]
            assert lo == n


class TestObserverDoesNotPerturb:
    """Zero-overhead-by-default has a semantic side: attaching an observer
    may not change any simulated number."""

    @pytest.mark.parametrize("name", ["bfs", "clothphysics"])
    def test_same_simulated_seconds(self, name):
        from repro.workloads import all_workloads

        workloads = {k.lower(): v for k, v in all_workloads().items()}
        results = []
        for observer in (None, Observer()):
            workload = workloads[name]()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                outcome = workload.execute(
                    None, ultrabook(), scale=0.1, observer=observer
                )
            results.append((outcome.seconds, outcome.energy_joules))
        assert results[0] == results[1]

    def test_runtime_without_observer_has_no_sink(self):
        program = compile_source(TOUCH_SRC, OptConfig.gpu_all())
        rt = ConcordRuntime(program, ultrabook())
        assert rt.obs is None
        assert rt.code_cache.counters is None
        assert rt.private_pool.counters is None

    def test_self_overhead_is_counted_not_hidden(self):
        """The observer accounts for its own cost: every span charges its
        wall time to ``obs.span_ns`` and every harvested trace bumps
        ``obs.counter_flushes`` — so 'observation was free' is a checkable
        claim, not an assumption."""
        observer = Observer()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            profile_workload("bfs", scale=0.1, observer=observer)
        assert observer.counters.get("obs.span_ns") > 0
        flushes = observer.counters.get("obs.counter_flushes")
        assert flushes == len(observer.constructs)


# -- CLI --------------------------------------------------------------------


class TestProfileCli:
    def test_json_output_file(self, tmp_path):
        from repro.__main__ import main

        out = tmp_path / "bfs.json"
        assert main(["profile", "bfs", "--scale", "0.1", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        validate_profile(doc)
        assert doc["meta"]["scale"] == 0.1

    def test_csv_to_stdout(self, capsys):
        from repro.__main__ import main

        assert main(["profile", "bfs", "--scale", "0.1", "--format", "csv"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("index,kernel,construct")

    def test_unknown_workload_errors(self, capsys):
        from repro.__main__ import main

        assert main(["profile", "nope"]) == 1
        assert "unknown workload" in capsys.readouterr().err


# -- counter emission sites -------------------------------------------------


class TestEmissionSites:
    def test_private_pool_counters(self):
        from repro.exec import PrivateMemoryPool

        counters = CounterRegistry()
        pool = PrivateMemoryPool(64, counters=counters)
        buf = pool.acquire()
        pool.release(buf)
        pool.acquire()
        assert counters["private_pool.alloc"] == 1
        assert counters["private_pool.reuse"] == 1

    def test_runtime_publishes_cache_and_engine_counters(self):
        observer = Observer()
        program = compile_source(TOUCH_SRC, OptConfig.gpu_all())
        rt = ConcordRuntime(program, ultrabook(), observer=observer)
        data = rt.new_array(I32, 32)
        data.fill_from([0] * 32)
        body = rt.new("TouchBody")
        body.data = data
        rt.parallel_for_hetero(32, body)
        counters = observer.counters
        assert counters["engine.instructions"] > 0
        assert counters["engine.invocations.gpu"] == 32
        assert counters["mem_events.kept"] > 0
        assert counters["code_cache.compilations"] >= 1
        assert counters["gpu.mem_transactions"] > 0


# -- satellite: global memory-event budget ----------------------------------


class TestGlobalMemEventBudget:
    def _run_touch(self, n, cap):
        program = compile_source(TOUCH_SRC, OptConfig.gpu_all())
        rt = ConcordRuntime(
            program, ultrabook(), mem_event_cap=cap, keep_traces=True
        )
        data = rt.new_array(I32, n)
        data.fill_from([0] * n)
        body = rt.new("TouchBody")
        body.data = data
        rt.parallel_for_hetero(n, body)
        (launch,) = rt.trace_log
        return launch.lanes()

    def test_large_n_respects_global_budget(self):
        """Regression: with every lane floor-capped at 1000 events, the
        old per-lane cap retained up to n * 1000 events — 400 lanes with a
        500-event budget kept all of their events.  The budget is now
        global, with the overflow counted, not silently lost."""
        per_item = len(self._run_touch(1, 120_000)[0].mem_events)
        assert per_item > 0
        n, cap = 400, 500
        traces = self._run_touch(n, cap)
        kept = sum(len(t.mem_events) for t in traces)
        dropped = sum(t.mem_events_dropped for t in traces)
        assert kept <= cap
        assert kept + dropped == per_item * n  # overflow counted, not lost
        assert dropped > 0

    def test_small_runs_unaffected(self):
        """At default-cap scales nothing changes: every event is kept."""
        per_item = len(self._run_touch(1, 120_000)[0].mem_events)
        traces = self._run_touch(64, 120_000)
        assert sum(len(t.mem_events) for t in traces) == per_item * 64
        assert sum(t.mem_events_dropped for t in traces) == 0


# -- satellite: reduce-join fallback -----------------------------------------


class TestReduceJoinFallback:
    def test_missing_joins_warn_instead_of_crash(self):
        program = compile_source(SUM_SRC, OptConfig.gpu_all())
        kinfo = program.kernel_for("ISum")
        kinfo.join_kernel = None
        kinfo.gpu_join_kernel = None
        rt = ConcordRuntime(program, ultrabook())
        data = rt.new_array(I32, 8)
        data.fill_from(list(range(8)))
        body = rt.new("ISum")
        body.data = data
        body.total = 0
        with pytest.warns(ConcordWarning, match="no join"):
            report = rt.parallel_reduce_hetero(8, body)
        assert report.device == "gpu"
        assert body.total == 0  # nothing combined, but nothing crashed

    @pytest.mark.parametrize("on_cpu", [False, True])
    def test_missing_joins_warn_on_either_device(self, on_cpu):
        """The CPU's TBB-style reduction used to skip its joins in
        silence; both devices give the one warning."""
        program = compile_source(SUM_SRC, OptConfig.gpu_all())
        kinfo = program.kernel_for("ISum")
        kinfo.join_kernel = None
        kinfo.gpu_join_kernel = None
        rt = ConcordRuntime(program, ultrabook())
        data = rt.new_array(I32, 8)
        data.fill_from(list(range(8)))
        body = rt.new("ISum")
        body.data = data
        body.total = 0
        with pytest.warns(ConcordWarning, match="ISum has no join kernel on any device") as caught:
            report = rt.parallel_reduce_hetero(8, body, on_cpu=on_cpu)
        assert len(caught) == 1
        assert report.device == ("cpu" if on_cpu else "gpu")
        assert body.total == 0

    def test_gpu_join_falls_back_to_host_join(self):
        """Dropping only the device join keeps the reduction correct via
        the host join form."""
        program = compile_source(SUM_SRC, OptConfig.gpu_all())
        kinfo = program.kernel_for("ISum")
        kinfo.gpu_join_kernel = None
        rt = ConcordRuntime(program, ultrabook())
        data = rt.new_array(I32, 40)
        values = [(i * 7) % 13 for i in range(40)]
        data.fill_from(values)
        body = rt.new("ISum")
        body.data = data
        body.total = 0
        rt.parallel_reduce_hetero(40, body)
        assert body.total == sum(values)


# -- satellite: tree-reduction tail property ---------------------------------


@pytest.fixture(scope="module")
def sum_runtime():
    return ConcordRuntime(compile_source(SUM_SRC, OptConfig.gpu_all()), ultrabook())


class TestTreeReductionTails:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n=st.integers(min_value=1, max_value=64),
        group=st.sampled_from([3, 4, 16]),
    )
    def test_reduce_matches_sequential_join(self, sum_runtime, n, group):
        """For any work-group size (including non-power-of-two, whose tree
        loop has a ragged tail) the hierarchical reduction must combine
        every work-item's contribution exactly once — integer sums make
        any miss or double-count exact."""
        rt = sum_runtime
        values = [(i * 31 + 7) % 97 for i in range(n)]
        data = rt.new_array(I32, n)
        data.fill_from(values)
        body = rt.new("ISum")
        body.data = data
        body.total = 0
        original = runtime_module.REDUCTION_GROUP_SIZE
        runtime_module.REDUCTION_GROUP_SIZE = group
        try:
            rt.parallel_reduce_hetero(n, body)
        finally:
            runtime_module.REDUCTION_GROUP_SIZE = original
        assert body.total == sum(values), (n, group)
