"""The fixed cost of one launch, counted exactly.

A small launch should pay for its lanes, not for the bookkeeping around
them.  These tests count the Python-visible calls (``sys.setprofile``'s
``call`` and ``c_call`` events) that pricing a launch
(``time_gpu_kernel`` / ``time_cpu_execution``), harvesting it
(``launch_events`` + ``LaunchTrace.from_unit_counts``) and submitting a
construct (``TaskGraph.submit``) make, on fixed small inputs:

* the first launch of the overlap figure's BFS pipeline (144 lanes,
  scale 0.5), on the GPU;
* the first 20-lane scene of its BarnesHut batch (scale 0.5);
* the same BFS level as one CPU chunk;
* the second construct of a BFS-pipeline query, submitted as the 2nd
  and as the 42nd.

A GPU launch is priced twice: as the runtime prices it, with what
:meth:`~repro.gpu.timing.KernelFacts.rows` keeps for the launch's block
rows, and as the kernel's first launch with those rows is, on fresh
:class:`~repro.gpu.timing.KernelFacts` (``price_first``).

A count is the same from run to run and host to host: it depends on the
inputs and the code, not on timing.  It does depend on the NumPy
release, whose Python-level wrappers come and go, so every budget leaves
headroom over the count measured with :data:`NUMPY_OF_THE_COUNTS`.  The
counts before pricing, harvest and edge inference were made a bounded
number of array operations are in :data:`BEFORE`; every budget is below
them.  ``python tests/test_launch_budget.py`` prints the counts.
"""

import sys

import pytest

import repro.backend.cpu as cpu_backend
import repro.backend.gpu as gpu_backend
import repro.exec.compiled as compiled_engine
from repro.eval.overlap import _bfs_queries, _bh_scenes
from repro.exec.buffers import LaunchTrace
from repro.gpu.cache import CacheModel
from repro.gpu.timing import KernelFacts
from repro.runtime.system import ultrabook
from repro.workloads.barneshut import BarnesHutWorkload
from repro.workloads.bfs import BfsWorkload

#: the NumPy release the counts were measured with
NUMPY_OF_THE_COUNTS = "2.4.6"

#: (input, stage) -> calls, measured with NumPy 2.4.6
COUNTS = {
    ("bfs", "price"): 155,
    ("bfs", "price_first"): 179,
    ("bfs", "harvest"): 41,
    ("bh", "price"): 171,
    ("bh", "price_first"): 195,
    ("bh", "harvest"): 41,
    ("cpu", "price"): 147,
    ("cpu", "harvest"): 41,
    ("graph", "submit"): 105,
}

#: the same counts before the change that set the budgets
BEFORE = {
    ("bfs", "price"): 525,
    ("bfs", "price_first"): 525,
    ("bfs", "harvest"): 230,
    ("bh", "price"): 541,
    ("bh", "price_first"): 541,
    ("bh", "harvest"): 288,
    ("cpu", "price"): 350,
    ("cpu", "harvest"): 230,
    ("graph", "submit"): 1025,
}

#: headroom over :data:`COUNTS` for another NumPy release
HEADROOM = 1.15


def count_calls(fn, *args, **kwargs) -> int:
    """The ``call`` and ``c_call`` profile events of ``fn(*args, **kwargs)``."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(profile)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return count


def _same_state(value):
    """A timing cache in the state ``value`` is in; anything else as is."""
    if not isinstance(value, CacheModel):
        return value
    fresh = CacheModel(value.num_sets * value.line_bytes * value.assoc, value.line_bytes, value.assoc)
    fresh.resident = value.resident.copy()
    return fresh


def first_launch(monkeypatch, device: str, run) -> dict:
    """Run ``run()`` and count the calls that pricing and harvesting its
    first launch make, re-run on what they were handed (the timing
    cache in the state it had)."""
    if device == "gpu":
        module, name = gpu_backend, "time_gpu_kernel"
    else:
        module, name = cpu_backend, "time_cpu_execution"
    model = getattr(module, name)
    events_of = compiled_engine.launch_events
    build = LaunchTrace.from_unit_counts
    seen = {}

    def price(*args, **kwargs):
        seen.setdefault("price", (args, {k: _same_state(v) for k, v in kwargs.items()}))
        return model(*args, **kwargs)

    def launch_events(*args):
        seen.setdefault("events", args)
        return events_of(*args)

    def from_unit_counts(n, events, functions):
        functions = list(functions)
        seen.setdefault("build", (n, functions))
        return build(n, events, functions)

    with monkeypatch.context() as patch:
        patch.setattr(module, name, price)
        patch.setattr(compiled_engine, "launch_events", launch_events)
        patch.setattr(LaunchTrace, "from_unit_counts", from_unit_counts)
        run()
    args, kwargs = seen["price"]
    n, functions = seen["build"]
    events = seen["events"]
    counts = {
        "price": count_calls(model, *args, **{k: _same_state(v) for k, v in kwargs.items()}),
        "harvest": count_calls(lambda: build(n, events_of(*events), functions)),
    }
    if device == "gpu":
        device_model, facts, trace = args
        counts["price_first"] = count_calls(
            model,
            device_model,
            KernelFacts.of(facts.kernel),
            trace,
            **{k: _same_state(v) for k, v in kwargs.items()},
        )
    return counts


def _bfs(**options):
    rt = BfsWorkload.make_runtime(system=ultrabook(), **options)
    svm_graph, queries = _bfs_queries(rt, BfsWorkload(), 0.5)
    return rt, svm_graph, queries


def measure_bfs(monkeypatch) -> dict:
    rt, _graph, queries = _bfs()
    body = queries[0]["body"]
    return first_launch(monkeypatch, "gpu", lambda: rt.parallel_for_hetero(144, body))


def measure_bh(monkeypatch) -> dict:
    rt = BarnesHutWorkload.make_runtime(system=ultrabook())
    scene = _bh_scenes(rt, BarnesHutWorkload(), 0.5)[0]
    assert scene["n"] == 20
    return first_launch(
        monkeypatch, "gpu", lambda: rt.parallel_for_hetero(scene["n"], scene["body"])
    )


def measure_cpu(monkeypatch) -> dict:
    rt, _graph, queries = _bfs()
    body = queries[0]["body"]
    return first_launch(
        monkeypatch, "cpu", lambda: rt.parallel_for_hetero(144, body, on_cpu=True)
    )


def measure_submit() -> dict:
    """The second construct of a BFS-pipeline query — reading the graph
    and the query's ``dist``, writing ``dist`` and ``changed``, so it
    depends on the query's first construct alone — submitted right after
    that one, and with 40 constructs of the other queries pending too.
    Neither is a submission where the graph's span arrays grow."""
    counts = {}
    for others in (0, 40):
        rt, svm_graph, queries = _bfs(graph_placement="ect")

        def submit(query):
            return rt.task_graph.submit(
                rt,
                144,
                query["body"],
                reads=[svm_graph.row_starts, svm_graph.columns, query["dist"]],
                writes=[query["dist"], query["changed"]],
            )

        submit(queries[0])
        for index in range(others):
            submit(queries[1 + index % 9])
        counts[others + 2] = count_calls(submit, queries[0])
    return counts


def _within_budget(scenario: str, counted: dict) -> None:
    for stage, calls in counted.items():
        key = (scenario, stage)
        budget = int(COUNTS[key] * HEADROOM)
        assert budget < BEFORE[key]
        assert calls <= budget, f"{scenario} {stage}: {calls} calls, budget {budget}"


def test_the_bfs_pipeline_launch_is_priced_and_harvested_within_budget(monkeypatch):
    _within_budget("bfs", measure_bfs(monkeypatch))


def test_a_barnes_hut_scene_is_priced_and_harvested_within_budget(monkeypatch):
    _within_budget("bh", measure_bh(monkeypatch))


def test_a_cpu_chunk_is_priced_and_harvested_within_budget(monkeypatch):
    _within_budget("cpu", measure_cpu(monkeypatch))


def test_a_submission_costs_the_same_however_many_came_before():
    counts = measure_submit()
    assert counts[2] == counts[42]
    _within_budget("graph", {"submit": counts[42]})


if __name__ == "__main__":
    import numpy

    patch = pytest.MonkeyPatch()
    print(f"numpy {numpy.__version__}")
    for scenario, measure in (
        ("bfs", measure_bfs),
        ("bh", measure_bh),
        ("cpu", measure_cpu),
    ):
        print(scenario, measure(patch))
    print("graph", measure_submit())
