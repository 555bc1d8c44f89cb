"""Tests for the observer's event stream to its sinks (repro.obs.core,
repro.obs.telemetry), the flight recorder (repro.obs.flight),
declared-set runtime validation (ConcordRuntime(declared_check=...)), and
the ledger regression watch (repro.obs.watch): the flight window's drop
accounting, stream-vs-list and stream-vs-registry equivalence on the
nine workloads under both engines, trap-site resolution down to the
source line, and the per-series gate on synthetic histories of harness
result lines."""

import json
import pathlib
import shutil
import warnings

import pytest

from repro.ir.types import I32
from repro.obs import (
    FlightRecorder,
    JsonLinesSink,
    Observer,
    SchemaError,
    build_profile,
    build_trace,
    build_watch_report,
    flight_guard,
    render_watch_report,
    validate_event,
    validate_events,
    validate_flight_bundle,
    validate_watch_report,
)
from repro.obs.flight import FLIGHT_WINDOW
from repro.obs.profile import fold_counters
from repro.obs.schema import check
from repro.obs.watch import LEDGER_ENTRY_SCHEMA, analyze_series
from repro.passes import OptConfig
from repro.runtime import ConcordRuntime, compile_source, ultrabook
from repro.runtime.graph import DeclaredSetViolation
from repro.workloads import all_workloads

WORKLOADS = all_workloads()

INCR_SRC = """
class Incr {
public:
  int* data;
  void operator()(int i) { data[i] = data[i] + i; }
};
"""

TRAP_SRC = """
class Node {
public:
  int value;
  Node *next;
};

class Deref {
public:
  Node *head;
  void operator()(int i) {
    head->value = i;
  }
};
"""

REDUCE_TRAP_SRC = """
class Node {
public:
  int value;
  Node *next;
};

class SumBody {
public:
  Node *head;
  int total;
  void operator()(int i) {
    total += head->value;
  }
  void join(SumBody &other) {
    total += other.total;
  }
};
"""


class ListSink:
    """Test sink: keeps every event verbatim."""

    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)

    def counter_totals(self) -> dict:
        """The registry as the stream's ``counter`` events rebuild it."""
        totals = {}
        for event in self.events:
            if event["kind"] == "counter":
                totals[event["name"]] = totals.get(event["name"], 0) + event["delta"]
        return dict(sorted(totals.items()))

    def kinds(self, kind) -> int:
        return sum(1 for event in self.events if event["kind"] == kind)


def _compile(source):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return compile_source(source, OptConfig.gpu_all())


def _incr_runtime(**kwargs):
    rt = ConcordRuntime(_compile(INCR_SRC), ultrabook(), **kwargs)
    arr = rt.new_array(I32, 16)
    body = rt.new("Incr")
    body.data = arr
    return rt, arr, body


# -- the flight window -----------------------------------------------------


class TestFlightWindow:
    """A bundle's window is the tail of ``Observer.events``: the last
    ``FLIGHT_WINDOW`` events, counter deltas not among them, with
    ``events_dropped`` counting the events before it."""

    def _bundle(self, tmp_path, observer) -> dict:
        path = FlightRecorder(tmp_path, observer=observer).record(reason="manual")
        doc = json.loads(open(path).read())
        validate_flight_bundle(doc)
        return doc

    def test_bounded_with_drop_accounting(self, tmp_path):
        """1 029 events and the bundle's own trap marker: the bundle
        keeps the last 1 024 and counts the 6 before them."""
        observer = Observer()
        for i in range(1029):
            observer.emit("sched", f"e{i}")
        doc = self._bundle(tmp_path, observer)
        assert len(observer.events) == 1030
        assert FLIGHT_WINDOW == 1024
        assert len(doc["events"]) == FLIGHT_WINDOW
        assert doc["events_dropped"] == 6
        assert doc["events"] == _json(observer.events[-FLIGHT_WINDOW:])
        assert doc["events"][0]["name"] == "e6"
        assert doc["events"][-1]["kind"] == "trap"
        assert doc["counters"] == {}

    def test_counter_adds_stay_out_of_the_window(self, tmp_path):
        """Counter deltas are the registry's, not events of the list: a
        sink streams them, the window holds none, and the totals are the
        bundle's ``counters``."""
        sink = ListSink()
        observer = Observer(sinks=[sink])
        for _ in range(20):
            observer.counters.add("x.hits")
        doc = self._bundle(tmp_path, observer)
        assert sink.kinds("counter") == 20
        assert [e["kind"] for e in doc["events"]] == ["trap"]
        assert doc["events_dropped"] == 0
        assert doc["counters"] == {"x.hits": 20}


# -- the pipeline and sinks -------------------------------------------------


class TestTelemetryPipeline:
    def test_event_shape_and_monotone_seq(self):
        observer = Observer()
        a = observer.emit("span_open", "compile", category="compiler")
        b = observer.emit("span_close", "compile", category="compiler",
                          wall_seconds=0.5, sim_seconds=0.0)
        assert a["seq"] == 0 and b["seq"] == 1
        assert a["kind"] == "span_open" and a["name"] == "compile"
        assert b["wall_seconds"] == 0.5
        assert b["t"] >= a["t"] >= 0.0
        validate_events([a, b])

    def test_span_edges_stream_through_observer(self):
        sink = ListSink()
        observer = Observer(sinks=[sink])
        with observer.span("outer", "test"):
            with observer.span("inner", "test"):
                pass
        kinds = [(e["kind"], e["name"]) for e in sink.events
                 if e["kind"].startswith("span")]
        assert kinds == [
            ("span_open", "outer"),
            ("span_open", "inner"),
            ("span_close", "inner"),
            ("span_close", "outer"),
        ]
        closes = [e for e in sink.events if e["kind"] == "span_close"]
        assert all(e["wall_seconds"] >= 0.0 for e in closes)

    def test_jsonlines_sink_roundtrip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonLinesSink(path)
        observer = Observer(sinks=[sink])
        observer.emit("launch", "k", construct="for", device="gpu", n=8, seconds=1e-3,
                      energy_joules=0.0, phases={"launch": 1e-3}, counters={},
                      program="p", blocks=[["gpu", "k", "entry", 8]])
        observer.counters.add("engine.instructions", 42)
        sink.close()
        lines = path.read_text().splitlines()
        assert sink.events_written == 2 and len(lines) == 2
        events = [json.loads(line) for line in lines]
        validate_events(events)
        assert events[0]["device"] == "gpu"
        assert events[1]["delta"] == 42

    def test_validate_event_rejects_malformed(self):
        with pytest.raises(SchemaError):
            validate_event({"seq": 0, "t": 0.0, "kind": "nope", "name": "x"})
        with pytest.raises(SchemaError):
            validate_event({"seq": 0, "t": 0.0, "kind": "counter", "name": "x"})
        with pytest.raises(SchemaError):
            validate_event({"t": 0.0, "kind": "sched", "name": "x"})
        with pytest.raises(SchemaError):
            validate_events([
                {"seq": 1, "t": 0.0, "kind": "sched", "name": "a"},
                {"seq": 1, "t": 0.0, "kind": "sched", "name": "b"},
            ])
        # gaps are fine: a flight window is a suffix of the stream
        validate_events([
            {"seq": 3, "t": 0.0, "kind": "sched", "name": "a"},
            {"seq": 9, "t": 0.1, "kind": "sched", "name": "b"},
        ])


# -- stream/registry equivalence on the real workloads ----------------------


def _stream_matches_registry(name, engine, **execute_kwargs):
    sink = ListSink()
    observer = Observer(sinks=[sink])
    workload = WORKLOADS[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        workload.execute(
            None, ultrabook(), scale=0.05, observer=observer,
            engine=engine, **execute_kwargs,
        )
    assert sink.counter_totals() == observer.counters.as_dict()
    assert sink.kinds("launch") == len(build_profile(observer.events)["constructs"])


class TestStreamMatchesRegistry:
    """Replaying the counter events alone reconstructs the registry
    exactly — same names, same totals, nothing left out — for every
    workload, on both engines, through the task graph."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_compiled_graph_and_declared_check(self, name):
        # graph=True + declared_check="trap" doubles as the nine-workload
        # declared-set cleanliness check: conservative futures validate
        # against the whole region and must never fire.
        _stream_matches_registry(
            name, "compiled", graph=True, declared_check="trap"
        )

    @pytest.mark.parametrize("name", ["BFS", "ClothPhysics", "SkipList"])
    def test_vector_engine(self, name):
        _stream_matches_registry(name, "vector")

    def test_hybrid_chunks_emit_sched_events(self):
        sink = ListSink()
        observer = Observer(sinks=[sink])
        workload = WORKLOADS["BFS"]()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            workload.execute(
                None, ultrabook(), scale=0.05, observer=observer,
                policy="hybrid",
            )
        chunks = [e for e in sink.events
                  if e["kind"] == "sched" and e.get("decision") == "chunk"]
        assert chunks, "hybrid split dispatched no chunk events"
        # at smoke scale the split may place every chunk on one device;
        # the contract here is that each dispatch is visible and typed
        assert {c["device"] for c in chunks} <= {"cpu", "gpu"}
        assert all(c["items"] > 0 and c["lo"] >= 0 for c in chunks)
        assert sink.counter_totals() == observer.counters.as_dict()


#: What differs between two runs of one workload: the stamps and the wall
#: clock.  A ``pass`` event's ``seconds`` are wall time, a ``launch``
#: event's simulated.
_WALL_FIELDS = {"seq", "t", "wall_seconds"}
_PASS_WALL_FIELDS = {"seconds", "verify_seconds"}


def _masked(events) -> list:
    return [
        {
            key: value
            for key, value in event.items()
            if key not in _WALL_FIELDS
            and not (event["kind"] == "pass" and key in _PASS_WALL_FIELDS)
        }
        for event in events
    ]


class TestStreamIsTheListPlusCounterDeltas:
    """A sink sees ``Observer.events`` itself, interleaved with the counter
    deltas, and a sink changes nothing the observer records."""

    @pytest.mark.parametrize(
        "options",
        [{}, {"policy": "hybrid", "graph": True}],
        ids=["compiled", "hybrid-graph"],
    )
    @pytest.mark.parametrize("name", ["BFS", "SSSP", "ClothPhysics"])
    def test_workload(self, name, options):
        observers = []
        sink = ListSink()
        for sinks in ([sink], ()):
            observer = Observer(sinks=sinks)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                WORKLOADS[name]().execute(
                    None, ultrabook(), scale=0.2, observer=observer,
                    engine="compiled", **options,
                )
            observers.append(observer)
        streamed, plain = observers
        listed = [e for e in sink.events if e["kind"] != "counter"]
        assert len(listed) == len(streamed.events)
        assert all(a is b for a, b in zip(listed, streamed.events))
        assert fold_counters(sink.events) == streamed.counters.as_dict()
        assert _masked(plain.events) == _masked(streamed.events)
        # without a sink, a counter delta takes no seq
        assert [e["seq"] for e in plain.events] == list(range(len(plain.events)))


def _json(value):
    """``value`` as a JSON file holds it."""
    return json.loads(json.dumps(value))


def _observed():
    sink = ListSink()
    return Observer(sinks=[sink]), sink


def _assert_documents_are_folds(observer, sink, doc) -> dict:
    """Folding the stream as a file holds it gives ``doc``, the profile
    the observer built, meta aside (counters included), and the
    observer's Chrome trace; returns the folded profile."""
    events = _json(sink.events)
    validate_events(events)
    expected = _json(doc)
    del expected["meta"]
    folded = _json(build_profile(events))
    del folded["meta"]
    assert folded == expected
    assert _json(build_trace(events)) == _json(build_trace(observer.events))
    return folded


def _all_spans(spans):
    for span in spans:
        yield span
        yield from _all_spans(span.get("children", ()))


class TestDocumentsAreFoldsOfTheStream:
    """The stream carries everything the documents hold: span attributes
    and simulated seconds, each construct's phases and counters, the
    pass statistics and the counter deltas."""

    @pytest.mark.parametrize(
        "name, options",
        [
            ("bfs", {"policy": "hybrid", "graph": True}),
            ("clothphysics", {}),
            ("clothphysics", {"on_cpu": True}),
        ],
        ids=["bfs-hybrid-graph", "clothphysics-gpu", "clothphysics-cpu"],
    )
    def test_workload(self, name, options):
        from repro.obs import profile_workload

        observer, sink = _observed()
        doc = profile_workload(name, scale=0.05, observer=observer, **options)
        folded = _assert_documents_are_folds(observer, sink, doc)
        assert folded["passes"] and folded["constructs"]
        assert all(c["phases"] and c["counters"] for c in folded["constructs"])
        constructs = [s for s in _all_spans(folded["spans"]) if s["category"] == "construct"]
        assert constructs and all(s["attrs"] and s["sim_seconds"] > 0 for s in constructs)
        if options.get("graph"):
            assert sink.kinds("sched") > 0
            assert any(s["category"] == "graph_construct" for s in _all_spans(folded["spans"]))

    def test_a_declared_set_violation(self):
        observer, sink = _observed()
        rt, arr, body = _incr_runtime(observer=observer, declared_check="warn")
        half = (arr.addr, 8 * I32.size())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rt.submit(16, body, reads=[half], writes=[half]).result()
        rt.wait()
        assert sink.kinds("violation") > 0
        assert any(e["kind"] == "violation" for e in observer.events)
        doc = build_profile(observer.events, observer.counters.as_dict())
        _assert_documents_are_folds(observer, sink, doc)

    def test_the_files_of_the_command_line(self, tmp_path):
        """``repro profile --events --trace --output``: the profile and
        trace folded from the events file equal the written ones, the
        trace byte for byte."""
        from repro.__main__ import main

        events_path = tmp_path / "e.jsonl"
        trace_path = tmp_path / "t.json"
        profile_path = tmp_path / "p.json"
        assert main([
            "profile", "bfs", "--scale", "0.1", "--events", str(events_path),
            "--trace", str(trace_path), "--output", str(profile_path),
        ]) == 0
        events = [json.loads(line) for line in events_path.read_text().splitlines()]
        profile = json.loads(profile_path.read_text())
        assert build_profile(events, meta=profile["meta"]) == profile
        trace = build_trace(events, meta=profile["meta"])
        assert json.dumps(trace, indent=1) == trace_path.read_text()


class TestTelemetryDoesNotPerturb:
    """Zero-overhead-by-default extends to the stream: neither an
    observer alone nor an attached pipeline may change any simulated
    number (the PR 2 contract, re-asserted one layer up)."""

    @pytest.mark.parametrize("name", ["BFS", "ClothPhysics"])
    def test_same_simulated_seconds(self, name):
        results = []
        for make in (lambda: None, Observer, lambda: Observer(sinks=[ListSink()])):
            workload = WORKLOADS[name]()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                outcome = workload.execute(
                    None, ultrabook(), scale=0.1, observer=make()
                )
            results.append((outcome.seconds, outcome.energy_joules))
        assert results[0] == results[1] == results[2]

    def test_detached_registry_has_no_sink(self):
        rt, _, _ = _incr_runtime()
        assert rt.obs is None  # no observer: nothing to stream from


# -- flight recorder --------------------------------------------------------


class TestFlightRecorder:
    def _trap(self, rt, body):
        from repro.exec import ExecutionError
        from repro.svm import MemoryFault

        with pytest.raises((MemoryFault, ExecutionError)) as info:
            rt.parallel_for_hetero(4, body)
        return info.value

    def test_bundle_pinpoints_kernel_and_source_line(self, tmp_path):
        observer = Observer()
        rt = ConcordRuntime(_compile(TRAP_SRC), ultrabook(), observer=observer)
        body = rt.new("Deref")  # head stays null: the store must fault
        exc = self._trap(rt, body)
        recorder = FlightRecorder(tmp_path, observer=observer)
        path = recorder.record(exc, runtime=rt, context={"test": "trap"})
        doc = json.loads(open(path).read())
        validate_flight_bundle(doc)
        assert doc["reason"] == "trap"
        trap = doc["trap"]
        assert trap["kernel"] == "kernel.Deref.gpu"
        assert trap["device"] == "gpu"
        assert trap["global_id"] == 0
        assert trap["source_line"] == "head->value = i;"
        assert trap["line"] is not None
        jit = trap["jit"]  # the generated statement that raised
        assert jit["file"].startswith("<repro-jit kernel.Deref.gpu.gpu ")
        assert jit["statement"].startswith("raise _fault('gpu', ")
        assert jit["source"].splitlines()[jit["line"] - 1].strip() == jit["statement"]
        assert doc["events"], "event window missing from bundle"
        validate_events(doc["events"])
        assert doc["events"][-1]["kind"] == "trap"
        assert doc["counters"]
        assert doc["context"] == {"test": "trap"}

    @pytest.mark.parametrize(
        "on_cpu, device, kernel",
        [(False, "gpu", "kernel.SumBody.gpu"), (True, "cpu", "kernel.SumBody")],
    )
    def test_reduce_trap_names_device_kernel_and_lane(
        self, tmp_path, on_cpu, device, kernel
    ):
        """A reduction lane's trap carries the same lane context as a
        ``for`` lane's, on the default CPU reduction path too."""
        from repro.svm import MemoryFault

        observer = Observer()
        rt = ConcordRuntime(_compile(REDUCE_TRAP_SRC), ultrabook(), observer=observer)
        body = rt.new("SumBody")  # head stays null: the load must fault
        with pytest.raises(MemoryFault) as info:
            rt.parallel_reduce_hetero(4, body, on_cpu=on_cpu)
        path = FlightRecorder(tmp_path, observer=observer).record(info.value, runtime=rt)
        doc = json.loads(open(path).read())
        validate_flight_bundle(doc)
        assert doc["reason"] == "trap"
        assert doc["trap"]["device"] == device
        assert doc["trap"]["kernel"] == kernel
        assert doc["trap"]["global_id"] == 0
        assert doc["trap"]["source_line"] == "total += head->value;"

    def test_reference_engine_trap_annotates_too(self, tmp_path):
        observer = Observer()
        rt = ConcordRuntime(
            _compile(TRAP_SRC), ultrabook(),
            engine="reference", observer=observer,
        )
        exc = self._trap(rt, rt.new("Deref"))
        path = FlightRecorder(tmp_path, observer=observer).record(exc)
        doc = json.loads(open(path).read())
        validate_flight_bundle(doc)
        assert doc["trap"]["kernel"] == "kernel.Deref.gpu"
        assert doc["trap"]["source_line"] == "head->value = i;"
        assert doc["trap"]["jit"] is None  # no generated code ran

    def test_flight_guard_stamps_bundle_path(self, tmp_path):
        recorder = FlightRecorder(tmp_path)
        with pytest.raises(RuntimeError) as info:
            with flight_guard(recorder, context={"step": 1}):
                raise RuntimeError("boom")
        doc = json.loads(open(info.value.flight_bundle).read())
        validate_flight_bundle(doc)
        assert doc["reason"] == "exception"
        assert doc["exception"]["type"] == "RuntimeError"
        assert doc["context"] == {"step": 1}
        # a None recorder guards nothing and records nothing
        with pytest.raises(RuntimeError):
            with flight_guard(None):
                raise RuntimeError("unrecorded")

    def test_bundles_number_sequentially(self, tmp_path):
        recorder = FlightRecorder(tmp_path)
        first = recorder.record(reason="manual")
        second = recorder.record(reason="manual")
        assert first.endswith("flight-000.json")
        assert second.endswith("flight-001.json")
        # a fresh recorder over the same directory does not clobber
        third = FlightRecorder(tmp_path).record(reason="manual")
        assert third.endswith("flight-002.json")

    def test_a_trap_inside_a_construct_reads_the_fold(self, tmp_path, monkeypatch):
        """A bundle captured while ``run_construct`` is on the stack names
        the spans the observer's events leave open, and its construct
        tail is the profile's."""
        from repro.backend.gpu import GpuBackend
        from repro.obs.flight import CONSTRUCT_TAIL

        observer = Observer()
        rt, _, body = _incr_runtime(observer=observer)
        for _ in range(3):
            rt.parallel_for_hetero(16, body)
        recorder = FlightRecorder(tmp_path, observer=observer)
        launch = GpuBackend.launch
        bundles = []

        def recording_launch(backend, rt, *args, **kwargs):
            try:
                return launch(backend, rt, *args, **kwargs)
            except Exception as exc:
                bundles.append(recorder.record(exc, runtime=rt))
                raise

        monkeypatch.setattr(GpuBackend, "launch", recording_launch)
        trap_rt = ConcordRuntime(_compile(TRAP_SRC), ultrabook(), observer=observer)
        self._trap(trap_rt, trap_rt.new("Deref"))
        doc = json.loads(open(bundles[0]).read())
        validate_flight_bundle(doc)
        assert doc["open_spans"] == ["construct:kernel.Deref.gpu", "launch", "launch:gpu"]
        constructs = build_profile(observer.events)["constructs"]
        assert len(constructs) == 3
        assert doc["constructs"] == _json(constructs[-CONSTRUCT_TAIL:])
        assert doc["events"][-1]["kind"] == "trap"
        assert observer.events[-1]["kind"] == "span_close"  # the trap unwound

    def test_record_without_observer(self, tmp_path):
        path = FlightRecorder(tmp_path).record(ValueError("plain"))
        doc = json.loads(open(path).read())
        validate_flight_bundle(doc)
        assert doc["reason"] == "exception"
        assert doc["events"] == [] and doc["counters"] == {}


# -- declared-set runtime validation ----------------------------------------


class TestDeclaredCheck:
    def test_trap_on_access_outside_declaration(self):
        sink = ListSink()
        observer = Observer(sinks=[sink])
        rt, arr, body = _incr_runtime(
            observer=observer, declared_check="trap"
        )
        half = (arr.addr, 8 * I32.size())
        future = rt.submit(16, body, reads=[half], writes=[half])
        with pytest.raises(DeclaredSetViolation) as info:
            future.result()
        assert info.value.trap_kernel == "kernel.Incr.gpu"
        assert info.value.trap_violations
        assert observer.counters.get("graph.declared_violations") > 0
        assert sink.kinds("violation") > 0

    def test_warn_mode_reports_and_continues(self):
        rt, arr, body = _incr_runtime(declared_check="warn")
        half = (arr.addr, 8 * I32.size())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = rt.submit(16, body, reads=[half], writes=[half]).result()
        messages = [str(w.message) for w in caught]
        assert any("outside its declared sets" in m for m in messages)
        assert report is not None
        assert arr[3] == 3  # the construct still ran to completion

    def test_exact_declaration_is_clean(self):
        rt, arr, body = _incr_runtime(declared_check="trap")
        rt.submit(16, body, reads=[arr], writes=[arr]).result()
        assert [arr[i] for i in range(16)] == list(range(16))

    def test_conservative_submission_is_clean(self):
        # omitted sets mean whole-region access: trivially satisfied
        rt, arr, body = _incr_runtime(declared_check="trap")
        rt.submit(16, body).result()
        assert arr[7] == 7

    def test_off_mode_never_validates(self):
        rt, arr, body = _incr_runtime(declared_check="off")
        half = (arr.addr, 8 * I32.size())
        rt.submit(16, body, reads=[half], writes=[half]).result()
        assert arr[15] == 15

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            _incr_runtime(declared_check="loud")

    def test_fuzz_generated_program_with_narrowed_declaration(self):
        """Satellite fuzz case: a generated source program submitted with
        a deliberately wrong (too narrow) declared set must fire the
        validator — the graph oracle's DAG plans rely on declarations
        being honest, and this is the mechanism that makes lies
        detectable."""
        import random

        from repro.fuzz import generate_source_program

        program = generate_source_program(
            random.Random(7), seed=7, force={"construct": "for"}
        )
        compiled = _compile(program.source)
        rt = ConcordRuntime(compiled, ultrabook(), declared_check="trap")
        data = rt.new_array(I32, program.n)
        data.fill_from(program.data)
        aux = rt.new_array(I32, program.aux_len)
        aux.fill_from(program.aux)

        def make_body():
            body = rt.new(program.class_name)
            body.data = data
            body.aux = aux
            body.s0 = program.s0
            body.s1 = program.s1
            extras = []
            if program.uses_floats:
                from repro.ir.types import F32

                fdata = rt.new_array(F32, program.n)
                fdata.fill_from(program.fdata)
                body.fdata = fdata
                extras.append(fdata)
            if program.uses_virtual:
                obj = rt.new(program.virtual_class)
                obj.salt = program.salt
                body.obj = obj
                extras.append(obj)
            return body, extras

        # the honest declaration passes cleanly ...
        honest, extras = make_body()
        spans = [data, aux] + extras
        rt.submit(
            program.n, honest, reads=list(spans), writes=spans + [honest]
        ).result()
        # ... but shrinking every span to one byte puts any real array
        # access outside the declaration
        body, _ = make_body()
        with pytest.raises(DeclaredSetViolation):
            rt.submit(
                program.n,
                body,
                reads=[(data.addr, 1), (aux.addr, 1)],
                writes=[(data.addr, 1), (aux.addr, 1)],
            ).result()


# -- the regression watch ---------------------------------------------------

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
GATED = {metric["name"] for metric in CONTRACT["end_to_end"]}


def _write_history(directory, series, failed=0):
    """``series``: {(workload, metric): [v0, v1, ...]} -> the repo's
    ``BENCHMARK.json`` plus one ``BENCH_<n>.json`` per index, each in
    the shape of the harness's result line (a metric goes to the run
    ``BENCHMARK.json`` lists it under; ``failed`` marks the newest
    entry's runs); all lists must share a length."""
    shutil.copy(ROOT / "BENCHMARK.json", directory)
    length = len(next(iter(series.values())))
    for n in range(length):
        entry = {}
        for (workload, metric), values in series.items():
            runs = entry.setdefault(
                workload,
                {
                    kind: {
                        "correct": not (failed and n == length - 1),
                        "attempted": 10,
                        "failed": failed if n == length - 1 else 0,
                        "metrics": {},
                    }
                    for kind in ("end_to_end", "per_layer")
                },
            )
            kind = "end_to_end" if metric in GATED else "per_layer"
            runs[kind]["metrics"][metric] = {"value": values[n], "unit": "s"}
        assert check(entry, LEDGER_ENTRY_SCHEMA, "entry") == []
        (directory / f"BENCH_{n}.json").write_text(json.dumps(entry))


class TestWatch:
    def test_slow_multi_pr_drift_is_caught(self, tmp_path):
        # two consecutive ~14% losses pass any single-step 25% gate but
        # cost 30% overall — the trend gate must fire
        _write_history(
            tmp_path, {("W", "iter_wall_s"): [1.0, 1.0, 1.0, 1.14, 1.30]}
        )
        doc = build_watch_report(str(tmp_path))
        validate_watch_report(doc)
        series = doc["series"][0]
        assert series["regressed"]
        assert series["worse_by"] == pytest.approx(0.30)
        assert not doc["verdict"]["ok"]
        assert doc["verdict"]["regressed"] == [["W", "iter_wall_s"]]

    def test_each_series_is_gated_on_its_own_bound(self, tmp_path, capsys):
        """30 % worse on one workload fails naming that series alone:
        20 % worse on another passes, and no combined score lets three
        improved series buy the regressed one back."""
        from repro.__main__ import main

        _write_history(
            tmp_path,
            {
                ("A", "iter_wall_s"): [1.0, 1.0, 1.30],
                ("B", "iter_wall_s"): [1.0, 1.0, 1.20],
                ("A", "setup_s"): [1.0, 1.0, 0.5],
                ("A", "iter_cpu_s"): [1.0, 1.0, 0.5],
                ("B", "peak_rss_mb"): [90.0, 90.0, 45.0],
            },
        )
        doc = build_watch_report(str(tmp_path))
        assert doc["verdict"]["gated"] == 5
        assert doc["verdict"]["regressed"] == [["A", "iter_wall_s"]]
        assert all("bound" in s and s["bound"] == 0.25 for s in doc["series"])
        assert main(["watch", "--dir", str(tmp_path), "--check"]) == 1
        out = capsys.readouterr().out
        (flagged,) = [line for line in out.splitlines() if "<< past" in line]
        assert flagged.split()[:2] == ["A", "iter_wall_s"]
        assert "verdict: FAILED (1 of 5 gated series" in out

        _write_history(tmp_path, {("B", "iter_wall_s"): [1.0, 1.0, 1.20]})
        assert main(["watch", "--dir", str(tmp_path), "--check"]) == 0

    def test_per_layer_series_trend_but_do_not_gate(self, tmp_path):
        """A ``better: higher`` per-layer metric that halves is listed
        (it moved by more than 25 %) and fails nothing."""
        _write_history(
            tmp_path,
            {
                ("W", "iter_wall_s"): [1.0, 1.0, 1.0],
                ("W", "exec.minstr_per_s"): [4.0, 4.0, 2.0],
                ("W", "exec.lane_s"): [1.0, 1.0, 1.1],
            },
        )
        doc = build_watch_report(str(tmp_path))
        validate_watch_report(doc)
        by_metric = {s["metric"]: s for s in doc["series"]}
        halved = by_metric["exec.minstr_per_s"]
        assert halved["better"] == "higher" and "bound" not in halved
        assert halved["worse_by"] == pytest.approx(0.5)
        assert not halved["regressed"]
        assert doc["verdict"]["ok"] and doc["verdict"]["gated"] == 1
        text = render_watch_report(doc)
        assert "exec.minstr_per_s" in text and "trended" in text
        assert "exec.lane_s" not in text  # moved 10 %: in the JSON only
        assert "exec.lane_s" in by_metric

    def test_change_point_names_the_entry_to_bisect_from(self, tmp_path):
        _write_history(
            tmp_path, {("W", "iter_wall_s"): [1.0, 1.0, 1.0, 1.5, 1.5, 1.5]}
        )
        series = build_watch_report(str(tmp_path))["series"][0]
        assert series["regressed"]
        # the best window is BENCH_0..2; its end is the change point
        assert series["best_entry"] == 2

    def test_historical_noise_does_not_poison_the_baseline(self, tmp_path):
        # one anomalously *fast* old entry must not set an unreachable
        # best, and one slow old entry must not fire the gate
        _write_history(
            tmp_path,
            {
                ("Fast", "iter_wall_s"): [1.0, 0.3, 1.0, 1.0, 1.0],
                ("Slow", "iter_wall_s"): [1.0, 3.0, 1.0, 1.0, 1.0],
            },
        )
        doc = build_watch_report(str(tmp_path))
        for series in doc["series"]:
            assert not series["regressed"], series
        assert doc["verdict"]["ok"]

    def test_one_slow_old_entry_cannot_mask_drift(self, tmp_path):
        # a level taken from the previous entry, or from a mean, would
        # read 1.3 after 3.0 as an improvement; the window median does not
        _write_history(tmp_path, {("W", "iter_wall_s"): [1.0, 1.0, 1.0, 3.0, 1.3]})
        series = build_watch_report(str(tmp_path))["series"][0]
        assert series["best"] == 1.0
        assert series["worse_by"] == pytest.approx(0.30) and series["regressed"]

    def test_fresh_regression_is_judged_raw(self, tmp_path):
        # the newest point is the entry under judgment: no median may
        # soften it
        _write_history(tmp_path, {("W", "iter_wall_s"): [1.0, 1.0, 1.0, 1.4]})
        doc = build_watch_report(str(tmp_path))
        assert doc["series"][0]["worse_by"] == pytest.approx(0.40)
        assert not doc["verdict"]["ok"]

    def test_graph_rows_carry_no_trend_signal(self, tmp_path):
        """A layer a workload never enters reads 0 in every entry
        (``graph.*`` everywhere but ``hetero_sched``): no series."""
        _write_history(
            tmp_path,
            {
                ("paper_sweep", "iter_wall_s"): [4.0, 4.0],
                ("paper_sweep", "graph.waves"): [0, 0],
                ("hetero_sched", "iter_wall_s"): [1.5, 1.5],
                ("hetero_sched", "graph.waves"): [12, 12],
            },
        )
        doc = build_watch_report(str(tmp_path))
        assert [
            s["workload"] for s in doc["series"] if s["metric"] == "graph.waves"
        ] == ["hetero_sched"]

    def test_empty_directory_fails_the_gate(self, tmp_path):
        """No entry is nothing to pass: the parent's watch printed
        ``0 series over 0 ledger entries ... verdict: OK`` here."""
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        doc = build_watch_report(str(tmp_path))
        validate_watch_report(doc)
        assert doc["verdict"]["series"] == 0 and not doc["verdict"]["ok"]
        assert doc["errors"] == ["no BENCH_<n>.json entry to judge"]

    def test_short_history_never_self_regresses(self):
        only = analyze_series([(0, 100.0)], "lower", 0.25)
        assert not only["regressed"] and only["worse_by"] == 0.0

    def test_render_names_verdict(self, tmp_path):
        _write_history(tmp_path, {("W", "iter_wall_s"): [1.0, 2.0]})
        text = render_watch_report(build_watch_report(str(tmp_path)))
        assert "verdict: FAILED" in text
        assert "<< past its bound since BENCH_0" in text

    def test_validator_rejects_malformed(self, tmp_path):
        with pytest.raises(SchemaError):
            validate_watch_report({"schema": "nope"})
        _write_history(tmp_path, {("W", "iter_wall_s"): [1.0, 1.0]})
        doc = build_watch_report(str(tmp_path))
        doc["series"][0]["worse_by"] = "0.0"
        del doc["verdict"]["ok"]
        with pytest.raises(SchemaError) as excinfo:
            validate_watch_report(doc)
        message = str(excinfo.value)
        assert "report.series[0].worse_by: expected number" in message
        assert "report.verdict: missing required key 'ok'" in message

    def test_committed_ledger_history_is_healthy(self):
        """The repo's own BENCH_* history must pass its own gate — this
        is exactly what CI's `repro watch --check` runs — and every
        committed entry is a whole result line: each workload of
        BENCHMARK.json, both runs, every gated metric, all correct."""
        doc = build_watch_report(str(ROOT))
        validate_watch_report(doc)
        assert doc["verdict"]["entries"] >= 1 and doc["skipped"] == []
        assert doc["verdict"]["ok"], render_watch_report(doc)
        workloads = {w["name"] for w in CONTRACT["workloads"]}
        assert doc["verdict"]["gated"] == len(workloads) * len(GATED) == 24
        for n in doc["entries"]:
            entry = json.loads((ROOT / f"BENCH_{n}.json").read_text())
            assert set(entry) == workloads
            for runs in entry.values():
                assert runs["end_to_end"]["correct"] and runs["per_layer"]["correct"]
                assert GATED <= set(runs["end_to_end"]["metrics"])
                assert "host.calibration_ops_per_s" in runs["end_to_end"]["metrics"]

    def test_render_keeps_small_series_readable(self, tmp_path):
        """Series span 1e-6 s to 1e+7 B; a fixed four-decimal column
        would print the small ones as 0.0000."""
        _write_history(
            tmp_path,
            {
                ("W", "iter_wall_s"): [1.0, 1.0],
                ("W", "store.put_s"): [2.5e-6, 5e-6],
                ("W", "store.bytes"): [3579851, 7668833],
            },
        )
        text = render_watch_report(build_watch_report(str(tmp_path)))
        rows = {line.split()[1]: line.split() for line in text.splitlines()[3:-1]}
        assert rows["store.put_s"][3:5] == ["2.5e-06", "5e-06"]
        assert rows["store.bytes"][3:5] == ["3.58e+06", "7.669e+06"]


class TestWatchFailsClosed:
    """A ledger that cannot be judged never reads ``verdict: OK``: at
    the parent each of these printed it and exited 0."""

    def _check(self, directory, capsys):
        from repro.__main__ import main

        code = main(["watch", "--dir", str(directory), "--check"])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        return code, captured.out, captured.err

    def _assert_fails(self, directory, capsys, reason):
        code, out, err = self._check(directory, capsys)
        assert code == 1
        assert "verdict: OK" not in out and "verdict: FAILED" in out
        assert f"error: {reason}" in out, out
        assert err.startswith("error: ledger verdict FAILED")

    def test_truncated_only_entry(self, tmp_path, capsys):
        _write_history(tmp_path, {("W", "iter_wall_s"): [1.0]})
        whole = (tmp_path / "BENCH_0.json").read_text()
        (tmp_path / "BENCH_0.json").write_text(whole[: len(whole) // 2])
        self._assert_fails(
            tmp_path, capsys, "BENCH_0.json, the newest entry, is unusable: not JSON"
        )

    def test_newest_entry_unusable_older_ones_fine(self, tmp_path, capsys):
        _write_history(tmp_path, {("W", "iter_wall_s"): [1.0, 1.0, 1.0]})
        # a v1 entry parses but is not a ledger entry
        (tmp_path / "BENCH_2.json").write_text(
            json.dumps({"schema": "repro.bench.ledger/v1", "results": []})
        )
        self._assert_fails(
            tmp_path, capsys, "BENCH_2.json, the newest entry, is unusable: entry."
        )

    def test_missing_directory(self, tmp_path, capsys):
        missing = tmp_path / "nonexistent"
        self._assert_fails(
            missing,
            capsys,
            f"cannot read {missing / 'BENCHMARK.json'}: No such file or directory",
        )

    def test_missing_or_malformed_contract(self, tmp_path, capsys):
        _write_history(tmp_path, {("W", "iter_wall_s"): [1.0]})
        (tmp_path / "BENCHMARK.json").unlink()
        self._assert_fails(tmp_path, capsys, "cannot read")
        (tmp_path / "BENCHMARK.json").write_text(
            json.dumps({"end_to_end": [{"name": "iter_wall_s", "better": "up"}]})
        )
        self._assert_fails(tmp_path, capsys, "cannot read")
        assert "'up' not in ['lower', 'higher']" in self._check(tmp_path, capsys)[1]

    def test_failed_operations_in_the_newest_entry(self, tmp_path, capsys):
        _write_history(tmp_path, {("W", "iter_wall_s"): [1.0, 1.0]}, failed=2)
        self._assert_fails(
            tmp_path,
            capsys,
            "BENCH_1.json: the end_to_end run of W failed 2 of 10 operations",
        )

    def test_partial_newest_entry(self, tmp_path, capsys):
        """An entry from ``--workload X`` alone must not pass on the
        other workloads' older numbers."""
        _write_history(
            tmp_path,
            {("A", "iter_wall_s"): [1.0, 1.0], ("B", "iter_wall_s"): [1.0, 1.0]},
        )
        newest = json.loads((tmp_path / "BENCH_1.json").read_text())
        del newest["B"]
        (tmp_path / "BENCH_1.json").write_text(json.dumps(newest))
        self._assert_fails(tmp_path, capsys, "BENCH_1.json has no iter_wall_s for B")

    def test_older_corrupt_entries_are_skipped_and_listed(self, tmp_path, capsys):
        _write_history(tmp_path, {("W", "iter_wall_s"): [1.0, 9.0, 1.0, 1.0]})
        (tmp_path / "BENCH_1.json").write_text("{")
        code, out, err = self._check(tmp_path, capsys)
        assert code == 0 and err == ""
        assert "skipped BENCH_1.json: not JSON" in out
        assert "over 3 ledger entries (BENCH_0, BENCH_2, BENCH_3)" in out
        assert "verdict: OK" in out


# -- fuzz campaign integration ----------------------------------------------


class TestFuzzFlight:
    def test_divergence_writes_flight_bundle(self, tmp_path, monkeypatch):
        from repro.fuzz import driver as fuzz_driver

        observer = Observer()
        recorder = FlightRecorder(tmp_path / "flight", observer=observer)
        driver = fuzz_driver.FuzzDriver(
            seed=1, iterations=1, target="engines",
            corpus_dir=tmp_path / "corpus", observer=observer,
            reduce=False, flight_recorder=recorder,
        )
        monkeypatch.setattr(
            fuzz_driver, "divergences",
            lambda target, program, variant: ["outputs differ"],
        )
        report = driver.run()
        assert not report.ok
        assert len(report.flight_bundles) == 1
        doc = json.loads(open(report.flight_bundles[0]).read())
        validate_flight_bundle(doc)
        assert doc["reason"] == "fuzz_divergence"
        assert doc["context"]["target"] == "engines"
        assert doc["context"]["reproducer"] == str(report.corpus_files[0])

    def test_clean_campaign_writes_no_bundles(self, tmp_path):
        from repro.fuzz.driver import FuzzDriver

        recorder = FlightRecorder(tmp_path)
        driver = FuzzDriver(
            seed=0, iterations=2, target="engines",
            reduce=False, flight_recorder=recorder,
        )
        report = driver.run()
        assert report.ok
        assert report.flight_bundles == []
        assert recorder.bundles == []


# -- command line -----------------------------------------------------------


class TestTelemetryCLI:
    def test_run_flight_record_on_trap(self, tmp_path, capsys):
        from repro.__main__ import main

        source = tmp_path / "trapper.cpp"
        source.write_text(TRAP_SRC)
        flight = tmp_path / "flight"
        code = main([
            "run", str(source), "--body", "Deref", "--n", "4",
            "--flight-record", str(flight),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "flight bundle:" in err
        bundles = sorted(flight.glob("flight-*.json"))
        assert len(bundles) == 1
        doc = json.loads(bundles[0].read_text())
        validate_flight_bundle(doc)
        assert doc["trap"]["source_line"] == "head->value = i;"
        assert doc["context"]["command"] == "run"
        # the window is the observer's list: non-empty, ending in the trap
        assert doc["events"] and doc["events"][-1]["kind"] == "trap"
        assert all(e["kind"] != "counter" for e in doc["events"])

    def test_run_declared_check_flag_rejects_bad_value(self, tmp_path):
        from repro.__main__ import main

        source = tmp_path / "incr.cpp"
        source.write_text(INCR_SRC)
        with pytest.raises(SystemExit):
            main([
                "run", str(source), "--body", "Incr",
                "--declared-check", "loud",
            ])

    def test_profile_streams_events(self, tmp_path, capsys):
        from repro.__main__ import main

        events = tmp_path / "events.jsonl"
        out = tmp_path / "profile.json"
        code = main([
            "profile", "bfs", "--scale", "0.05",
            "--events", str(events), "--output", str(out),
        ])
        assert code == 0
        streamed = [json.loads(line) for line in events.read_text().splitlines()]
        assert streamed, "no events streamed"
        validate_events(streamed)
        kinds = {e["kind"] for e in streamed}
        assert {"span_open", "span_close", "counter", "launch"} <= kinds

    def test_watch_cli_text_and_check(self, tmp_path, capsys):
        from repro.__main__ import main

        _write_history(tmp_path, {("W", "iter_wall_s"): [1.0, 1.0, 1.0, 2.0]})
        code = main(["watch", "--dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0  # without --check a regression still exits 0
        assert "verdict: FAILED" in out
        assert main(["watch", "--dir", str(tmp_path), "--check"]) == 1

    def test_watch_cli_json_output(self, tmp_path, capsys):
        from repro.__main__ import main

        _write_history(tmp_path, {("W", "iter_wall_s"): [1.0, 1.01]})
        report = tmp_path / "watch.json"
        code = main([
            "watch", "--dir", str(tmp_path), "--format", "json",
            "--output", str(report), "--check",
        ])
        assert code == 0
        doc = json.loads(report.read_text())
        validate_watch_report(doc)
        assert doc["verdict"]["ok"]
