"""Source-line profiler, Chrome-trace export and the ledger's entry format.

Covers the contract in docs/PROFILING.md:

* the frontend stamps every lowered instruction with a source location,
  every pass preserves it (including each ``without_pass`` pipeline
  variant — the verifier enforces the invariant after any changed pass),
  and inlining extends locations with call-site frames;
* per-line attribution reconstructs whole-kernel instruction totals
  exactly from the executed-block histograms, for both engines, on
  arbitrary generated programs (hypothesis);
* ``python -m repro annotate bfs`` attributes >= 95% of modeled cost to
  source lines, and the rendered hot-line report is byte-stable;
* the line report is a fold of one program's ``launch`` events: another
  program watched by the same observer leaves it unchanged, and a
  JSON-lines stream folds against a fresh compile (new block uids) to
  the same document, blocks being keyed by function and position;
* the Chrome ``trace_event`` export round-trips through JSON and
  validates;
* a ledger entry is the end-to-end harness's result line: entries are
  read in numeric order, anything else is rejected with the reason, and
  there is no ``bench`` sub-command (the watch over them is covered in
  ``tests/test_telemetry.py``);
* unknown workloads exit non-zero with the available list on stderr.
"""

import json
import random
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.obs import (
    Observer,
    annotate_workload,
    build_line_report,
    build_trace,
    render_line_report,
    validate_trace,
)
from repro.obs.schema import SchemaError, check
from repro.obs.trace import TRACE_SCHEMA_VERSION
from repro.obs.watch import LEDGER_ENTRY_SCHEMA, ledger_entries, load_history
from repro.passes import OptConfig
from repro.passes.pipeline import PASS_REGISTRY
from repro.runtime import compile_source

LOC_REQUIRED_OPS = {"load", "store", "call", "vcall"}

HELPER_SRC = """
class Scaler {
public:
  int* data;
  int factor;
  int scaled(int value) { return value * factor + 1; }
  void operator()(int i) { data[i] = scaled(data[i]); }
};
"""

VIRTUAL_SRC = """
class Shape {
public:
  virtual int weight(int x) { return x + 1; }
};
class Circle : public Shape {
public:
  virtual int weight(int x) { return x * 3; }
};
class Apply {
public:
  int* data;
  Shape* shape;
  void operator()(int i) { data[i] = shape->weight(data[i]); }
};
"""


def _kernel_functions(program):
    for kinfo in program.kernels.values():
        yield kinfo.kernel
        if kinfo.gpu_kernel is not kinfo.kernel:
            yield kinfo.gpu_kernel


# -- location threading -----------------------------------------------------


class TestSourceLocations:
    def test_frontend_stamps_memory_and_call_ops(self):
        program = compile_source(HELPER_SRC, OptConfig.gpu_all())
        for function in _kernel_functions(program):
            for block in function.blocks:
                for instr in block.instructions:
                    if instr.op in LOC_REQUIRED_OPS:
                        assert instr.loc, (
                            f"{function.name}: {instr.op} lost its location"
                        )

    @pytest.mark.parametrize("pass_name", sorted(PASS_REGISTRY))
    def test_locs_survive_pass_isolation(self, pass_name):
        """Every ``without_pass`` variant must keep locations on memory
        and call operations — the verifier also enforces this after any
        changed pass, so a silent mid-pipeline loss cannot hide."""
        config = OptConfig.gpu_all().without_pass(pass_name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            program = compile_source(VIRTUAL_SRC, config)
        for function in _kernel_functions(program):
            for block in function.blocks:
                for instr in block.instructions:
                    if instr.op in LOC_REQUIRED_OPS:
                        assert instr.loc, (
                            f"without {pass_name}: {function.name} has a "
                            f"locless {instr.op}"
                        )

    def test_inlining_appends_call_site_frames(self):
        program = compile_source(HELPER_SRC, OptConfig.gpu_all())
        kinfo = program.kernels["Scaler"]
        chained = [
            instr.loc
            for block in kinfo.gpu_kernel.blocks
            for instr in block.instructions
            if instr.loc is not None and len(instr.loc) > 1
        ]
        assert chained, "inlining scaled() should leave multi-frame locations"
        # Innermost frame first: the callee body line (6) precedes the
        # call site line (7).
        lines = {tuple(frame[0] for frame in loc) for loc in chained}
        assert any(chain[0] == 6 and 7 in chain for chain in lines), lines

    def test_verifier_rejects_lost_locations(self):
        from repro.ir.verifier import VerificationError, verify_function

        program = compile_source(HELPER_SRC, OptConfig.gpu_all())
        kinfo = program.kernels["Scaler"]
        function = kinfo.gpu_kernel
        victim = next(
            instr
            for block in function.blocks
            for instr in block.instructions
            if instr.op in LOC_REQUIRED_OPS
        )
        saved = victim.loc
        victim.loc = None
        try:
            with pytest.raises(VerificationError, match="source location"):
                verify_function(function)
            # Hand-built IR (no source_locs attribute) is exempt.
            function.attributes.pop("source_locs", None)
            verify_function(function)
        finally:
            victim.loc = saved
            function.attributes["source_locs"] = True


# -- line attribution -------------------------------------------------------


@st.composite
def source_programs(draw):
    from repro.fuzz import generate_source_program

    seed = draw(st.integers(0, 2**31 - 1))
    return generate_source_program(random.Random(seed), seed=seed)


class TestLineAttribution:
    @given(source_programs(), st.sampled_from(["compiled", "reference"]))
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_line_sums_equal_engine_totals(self, program, engine):
        """Attribution is lossless: summing instruction counts over all
        lines plus the unattributed bucket reproduces the engine's own
        executed-instruction counter exactly."""
        from repro.fuzz import run_source_program

        observer = Observer()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            compiled = compile_source(program.source, OptConfig.gpu_all())
        outcome = run_source_program(
            program, compiled=compiled, engine=engine, observer=observer
        )
        assert outcome.ok, outcome.trap
        report = build_line_report(observer.events, compiled)
        launches = [e for e in observer.events if e["kind"] == "launch"]
        assert launches and all(e["blocks"] for e in launches), (
            "observed run recorded no blocks"
        )
        assert report["totals"]["instructions"] == observer.counters.get(
            "engine.instructions"
        )

    def test_bfs_attribution_meets_threshold(self):
        doc = annotate_workload("bfs", scale=0.2)
        assert doc["totals"]["attributed_fraction"] >= 0.95
        assert doc["meta"]["workload"] == "BFS"
        top = doc["lines"][0]
        assert top["source"], "hot lines should carry source excerpts"
        assert top["translations"] > 0  # SVM translations charged to lines

    def test_bfs_golden_hot_line_report(self):
        """The rendered report is a function of the deterministic cost
        model only (no wall-clock anywhere), so it is byte-stable."""
        doc = annotate_workload("bfs", scale=0.2)
        rendered = render_line_report(doc, top=3)
        golden = (
            "Hot lines: BFS (system=Ultrabook, engine=compiled, scale=0.2, "
            "device=gpu)\n"
            "attributed 97.0% of 3,706 modeled cost units across 8 source "
            "line(s)\n"
            "\n"
            "         UNITS      %    GPU-SLOTS  CPU-INSTR    MEM-BYTES  "
            "   XLAT  DEVIRT  LINE  SOURCE\n"
            "-----------------------------------------------------------"
            "------------------------------\n"
            "         1,792  48.4%        1,792          0        1,792  "
            "    224       0    12  if (dist[i] == level) {\n"
            "           552  14.9%          552          0          736  "
            "     46       0    17  if (dist[v] > level + 1) {\n"
            "           414  11.2%          414          0          552  "
            "     46       0    16  int v = columns[e];\n"
            "           112   3.0%          112          0            0  "
            "      0       0     ?  <no source location>"
        )
        assert rendered == golden

    def test_cpu_run_attributes_to_cpu_column(self):
        doc = annotate_workload("bfs", scale=0.1, on_cpu=True)
        assert doc["totals"]["attributed_fraction"] >= 0.95
        assert doc["totals"]["cpu_instrs"] > 0
        assert doc["totals"]["gpu_slots"] == 0

    def test_unknown_workload_raises_with_available_list(self):
        with pytest.raises(KeyError, match="available"):
            annotate_workload("nope")

    def test_virtual_dispatch_charges_devirt_hits(self):
        from repro.runtime import ConcordRuntime, ultrabook
        from repro.ir.types import I32

        program = compile_source(VIRTUAL_SRC, OptConfig.gpu_all())
        observer = Observer()
        rt = ConcordRuntime(program, ultrabook(), observer=observer)
        data = rt.new_array(I32, 8)
        data.fill_from(list(range(8)))
        body = rt.new("Apply")
        body.data = data
        body.shape = rt.new("Circle")
        rt.parallel_for_hetero(8, body)
        report = build_line_report(observer.events, program)
        assert report["totals"]["devirt_hits"] > 0


NAMED_WORKLOADS = [
    "BarnesHut", "BFS", "BTree", "ClothPhysics", "ConnectedComponent",
    "FaceDetect", "Raytracer", "SkipList", "SSSP", "RaytracerFlat",
]


class TestLineReportIsAFold:
    def test_another_program_leaves_the_report_unchanged(self):
        from repro.obs.profile import run_named_workload

        observer = Observer()
        bfs, meta = run_named_workload("bfs", observer, scale=0.1)
        run_named_workload("sssp", observer, scale=0.1)
        both = build_line_report(observer.events, bfs.program, meta=meta)
        assert both == annotate_workload("bfs", scale=0.1)

    @pytest.mark.parametrize("on_cpu", [False, True], ids=["gpu", "cpu"])
    @pytest.mark.parametrize("name", NAMED_WORKLOADS)
    def test_a_stream_from_another_process_folds(self, tmp_path, name, on_cpu):
        """The events as a ``JsonLinesSink`` writes them, folded with a
        freshly compiled program, give ``annotate_workload``'s document."""
        from repro.obs import JsonLinesSink
        from repro.workloads import all_workloads

        path = tmp_path / "events.jsonl"
        sink = JsonLinesSink(path)
        try:
            observer = Observer(sinks=[sink])
            doc = annotate_workload(name, scale=0.2, on_cpu=on_cpu, observer=observer)
        finally:
            sink.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        workload = all_workloads()[name]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fresh = compile_source(workload.source, OptConfig.gpu_all(), module_name=name)
        launches = [e for e in events if e["kind"] == "launch"]
        assert launches and all(e["program"] == fresh.program_id for e in launches)
        assert build_line_report(events, fresh, meta=doc["meta"]) == doc

    @pytest.mark.parametrize("name", NAMED_WORKLOADS)
    def test_a_block_is_keyed_by_its_function_and_position(self, name):
        """A recompile renumbers every uid, and devirtualization names
        blocks after instruction uids, so a ``launch`` event keys a block
        by its function and its index there: under every configuration,
        two compiles agree on what each key holds."""
        from repro.workloads import all_workloads

        def keyed(module):
            return {
                (function.name, index): [(instr.op, instr.loc) for instr in block.instructions]
                for function in module.functions.values()
                for index, block in enumerate(function.blocks)
            }

        source = all_workloads()[name].source
        for config in OptConfig.all_configs():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                first, second = (
                    compile_source(source, config, module_name=name).module for _ in range(2)
                )
            assert keyed(first) == keyed(second), config.label


# -- Chrome trace export ----------------------------------------------------


class TestTraceExport:
    def _observed_profile(self):
        from repro.obs import profile_workload

        observer = Observer()
        profile_workload("bfs", scale=0.1, observer=observer)
        return observer

    def test_round_trip_validates(self):
        observer = self._observed_profile()
        doc = build_trace(observer.events, meta={"workload": "BFS"})
        validate_trace(doc)
        reloaded = json.loads(json.dumps(doc))
        validate_trace(reloaded)
        assert reloaded["schema"] == TRACE_SCHEMA_VERSION
        events = reloaded["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "M"}
        assert {"process_name", "thread_name"} <= names
        spans = [e for e in events if e["ph"] == "X" and e["tid"] == 0]
        constructs = [
            e
            for e in events
            if e["ph"] == "X" and e["tid"] == 1 and e["cat"] == "construct"
        ]
        assert spans and constructs
        assert any(e["name"] == "compile" for e in spans)
        counters = [e for e in events if e["ph"] == "C"]
        assert counters and all("engine.instructions" in e["args"] for e in counters)

    def test_device_timeline_is_sequential(self):
        observer = self._observed_profile()
        doc = build_trace(observer.events)
        constructs = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e["tid"] == 1 and e["cat"] == "construct"
        ]
        cursor = 0.0
        for event in constructs:
            assert event["ts"] >= cursor - 1e-9
            cursor = event["ts"] + event["dur"]

    def test_validator_rejects_malformed_events(self):
        observer = self._observed_profile()
        doc = build_trace(observer.events)
        bad = json.loads(json.dumps(doc))
        bad["traceEvents"][3]["dur"] = -1.0
        bad["traceEvents"][4].pop("name")
        bad["traceEvents"][5]["ph"] = "Z"
        with pytest.raises(SchemaError) as excinfo:
            validate_trace(bad)
        message = str(excinfo.value)
        assert "dur" in message and "name" in message and "ph" in message

    def test_validator_rejects_wrong_schema(self):
        with pytest.raises(SchemaError, match="schema"):
            validate_trace({"schema": "nope", "traceEvents": [], "otherData": {}})

    def test_profile_cli_writes_trace(self, tmp_path):
        from repro.__main__ import main

        out = tmp_path / "prof.json"
        trace = tmp_path / "trace.json"
        assert (
            main(
                [
                    "profile",
                    "bfs",
                    "--scale",
                    "0.1",
                    "--output",
                    str(out),
                    "--trace",
                    str(trace),
                ]
            )
            == 0
        )
        validate_trace(json.loads(trace.read_text()))


# -- benchmark ledger -------------------------------------------------------


def _run(**metrics):
    return {
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "metrics": {
            name: {"value": value, "unit": "s"} for name, value in metrics.items()
        },
    }


class TestLedger:
    def test_entries_number_monotonically(self, tmp_path):
        """Entries are ordered by their number, not their name, and
        nothing else in the directory is taken for one."""
        entry = json.dumps({"w": {"end_to_end": _run(iter_wall_s=1.0)}})
        for name in ("BENCH_10.json", "BENCH_2.json", "BENCH_0.json"):
            (tmp_path / name).write_text(entry)
        (tmp_path / "BENCHMARK.json").write_text("{}")
        (tmp_path / "BENCH_3.json.bak").write_text(entry)
        assert [n for n, _ in ledger_entries(str(tmp_path))] == [0, 2, 10]
        history, skipped = load_history(str(tmp_path))
        assert [n for n, _ in history] == [0, 2, 10] and skipped == []

    def test_validator_rejects_malformed_entries(self):
        good = {"w": {"end_to_end": _run(iter_wall_s=1.0), "per_layer": _run()}}
        assert check(good, LEDGER_ENTRY_SCHEMA, "entry") == []
        # a v1 entry (kept in git history) is not a v2 entry
        v1 = {"schema": "repro.bench.ledger/v1", "meta": {}, "results": []}
        assert check(v1, LEDGER_ENTRY_SCHEMA, "entry")
        broken = json.loads(json.dumps(good))
        del broken["w"]["end_to_end"]["failed"]
        broken["w"]["end_to_end"]["metrics"]["iter_wall_s"]["value"] = True
        broken["w"]["per_layer"]["attempted"] = -1
        message = "; ".join(check(broken, LEDGER_ENTRY_SCHEMA, "entry"))
        assert "entry.w.end_to_end: missing required key 'failed'" in message
        assert "iter_wall_s.value: expected number, got bool" in message
        assert "entry.w.per_layer.attempted: -1 < minimum 0" in message

    def test_bench_cli_rejects_unknown_workload(self, capsys):
        """One yardstick: the harness writes entries and BENCHMARK.json
        holds the bounds, so ``bench`` — the old unknown-workload
        invocation like any other — and ``watch --threshold`` are
        argparse errors."""
        from repro.__main__ import main

        for argv in (
            ["bench", "--workloads", "Nope"],
            ["bench", "--check"],
            ["watch", "--threshold", "-1"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bench'" in err
        assert "unrecognized arguments: --threshold" in err
