"""The columnar vector engine is bit-identical to the threaded-code engine.

For all nine paper workloads and RaytracerFlat the vector engine must
leave exactly the same shared-region bytes, the same execution traces and
the same modeled reports as ``CompiledEngine`` — whether a kernel was
vectorized, rolled back and re-run scalar, or routed scalar outright
(``vector.fallbacks``); where every kernel vectorizes, every launch must
have run columnar.
Also covers which engine runs the launches, the ``vector.*`` counter
surface and the per-kernel fallback behavior.
"""

import warnings

import pytest

from repro.backend import CpuBackend, GpuBackend
from repro.exec import CompiledEngine, VectorEngine
from repro.ir.types import I32
from repro.obs import Observer
from repro.passes import OptConfig
from repro.runtime import ConcordRuntime, compile_source
from repro.runtime.system import ultrabook
from repro.workloads import all_workloads
from repro.workloads.base import Workload

from .test_engine_equivalence import NINE, SCALE, _assert_launches_equal, _run

WORKLOADS = all_workloads()


@pytest.fixture(autouse=True)
def _fresh_programs(monkeypatch):
    """Per-kernel routing verdicts live on the program object, and
    ``Workload.compile`` keeps programs for the process; an empty program
    cache makes every test compile its own, so each one exercises the
    optimistic vector path from a cold state, independent of test order."""
    monkeypatch.setattr(Workload, "_program_cache", {})


#: The workloads whose every GPU launch runs columnar: the others' kernels
#: are gnarly (atomics) or routed scalar by a cross-lane hazard (BFS).
#: RaytracerFlat's kernel has ``Dispatch`` regions, BarnesHut's and
#: Raytracer's ``Forward`` ones.
COLUMNAR = {"BarnesHut", "BTree", "ClothPhysics", "FaceDetect", "Raytracer", "RaytracerFlat", "SkipList"}


@pytest.mark.parametrize("name", [*NINE, "RaytracerFlat"])
def test_vector_bit_identical_to_compiled(name):
    # The observed run compiles the program the compiled run then reuses.
    observer = Observer()
    vec_rt, vec_reports = _run(name, "vector", on_cpu=False, observer=observer)
    com_rt, com_reports = _run(name, "compiled", on_cpu=False)
    counters = observer.counters.as_dict()
    if name in COLUMNAR:
        assert counters.get("vector.fallbacks", 0) == 0, name
        assert counters["vector.lanes_retired"] > 0, name

    # Same final shared-memory state: every store landed identically.
    assert bytes(vec_rt.region.physical.data) == bytes(
        com_rt.region.physical.data
    )

    # Same traces, launch by launch; one constructor builds both engines'
    # launch traces, so even the block rows come in the same order.
    _assert_launches_equal(com_rt.trace_log, vec_rt.trace_log, name)
    for index, (ref, got) in enumerate(zip(com_rt.trace_log, vec_rt.trace_log)):
        assert got.block_uids.tolist() == ref.block_uids.tolist(), f"{name} launch {index}"
        for lane, (a, b) in enumerate(zip(ref.lanes(), got.lanes())):
            assert list(b.block_counts) == list(a.block_counts), f"{name} {index}/{lane}"

    # Timing is a pure function of the traces, so the modeled numbers
    # cannot move whichever engine executed the lanes.
    assert len(vec_reports) == len(com_reports)
    for ref, got in zip(com_reports, vec_reports):
        assert got.device == ref.device
        assert got.n == ref.n
        assert got.jit_seconds == ref.jit_seconds
        assert got.report.seconds == ref.report.seconds
        assert got.report.cycles == ref.report.cycles
        assert got.report.instructions == ref.report.instructions
        assert got.report.energy_joules == ref.report.energy_joules
        assert got.report.mem_transactions == ref.report.mem_transactions


_STRAGGLER_SOURCE = """
class Body {
public:
  int* data;
  int* trip;
  void operator()(int i) {
    int acc = 0;
    for (int j = 0; j < trip[i]; j++) {
      acc = acc + j + data[i];
    }
    data[i] = acc;
  }
};
"""


def _observed_counters(name: str, engine: str, scale: float = 0.1) -> dict:
    observer = Observer()
    workload = WORKLOADS[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        workload.execute(
            None, ultrabook(), scale=scale, engine=engine, observer=observer
        )
    return observer.counters.as_dict()


class TestCounterEquivalence:
    """Everything the traces and timing models derive must agree; only
    the ``vector.*`` namespace (and the code-cache/pool internals) may
    differ, because they describe *how* the lanes ran, not what they did."""

    ENGINE_INDEPENDENT = ("engine.", "mem_events.", "gpu.", "cpu.")

    @pytest.mark.parametrize("name", NINE)
    def test_counters_identical_across_engines(self, name):
        totals = {}
        for engine in ("compiled", "vector"):
            counters = _observed_counters(name, engine)
            totals[engine] = {
                key: value
                for key, value in counters.items()
                if key.startswith(self.ENGINE_INDEPENDENT)
            }
        assert totals["compiled"] == totals["vector"], name


def _launch_engines(engine: str) -> dict:
    """The class of the engine each device's launches ran on, for a
    ClothPhysics run under ``engine`` on both devices."""
    workload = WORKLOADS["ClothPhysics"]()
    rt = workload.make_runtime(engine=engine)
    assert rt.options.engine == engine
    assert type(rt.backends["gpu"]) is GpuBackend
    assert type(rt.backends["cpu"]) is CpuBackend
    used = {}
    make_engine = rt._make_engine

    def recording(device, **kwargs):
        made = make_engine(device, **kwargs)
        used.setdefault(device, set()).add(type(made))
        return made

    rt._make_engine = recording
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        state = workload.build(rt, 0.1)
        workload.run(rt, state, on_cpu=False)
        workload.run(rt, state, on_cpu=True)
    return used


class TestBackendRegistration:
    def test_vector_engine_runs_gpu_launches_on_the_gpu_backend(self):
        """The backends are the two devices whichever engine runs; under
        ``vector`` the GPU's launches run on the vector engine and the
        CPU's chunks on the generated-code one."""
        used = _launch_engines("vector")
        assert used["gpu"] == {VectorEngine}
        assert used["cpu"] == {CompiledEngine}

    def test_other_engines_do_not(self):
        used = _launch_engines("compiled")
        assert used["gpu"] == used["cpu"] == {CompiledEngine}

    def test_exec_package_exports(self):
        from repro.exec import (  # noqa: F401
            VectorCodeCache,
            VectorFallback,
            VectorFunction,
            classify_kernel,
            run_vectorized,
        )


class TestVectorCounters:
    def test_regular_workload_vectorizes(self):
        counters = _observed_counters("Raytracer", "vector")
        assert counters.get("vector.kernels_vectorized", 0) > 0
        assert counters.get("vector.lanes_retired", 0) > 0
        # Occupancy ratio: active lane-steps over issued lane-slots.
        slots = counters.get("vector.mask_slots", 0)
        occupied = counters.get("vector.mask_occupancy", 0)
        assert 0 < occupied <= slots
        # Every launch retired its full index space through the columnar
        # path — no fallback on the regular workload's hot kernels.
        assert counters.get("vector.lanes_retired", 0) >= counters.get(
            "engine.invocations.gpu", 0
        )

    def test_irregular_workload_falls_back_and_still_matches(self):
        # BFS's frontier kernel writes lane-dependent shared state (a
        # cross-lane hazard), so the backend must detect it, roll back
        # and re-run scalar — results already checked bit-identical above.
        counters = _observed_counters("BFS", "vector")
        assert counters.get("vector.fallbacks", 0) > 0

    @pytest.mark.parametrize(
        "name, reason", [("BFS", "hazard"), ("BTree", None), ("SkipList", None)]
    )
    def test_routing_verdicts_are_counted_once_per_kernel(self, name, reason):
        # the scale test_vector_codegen.py's frozen verdicts were taken at;
        # BTree's and SkipList's kernels run columnar and route nothing
        counters = _observed_counters(name, "vector", SCALE)
        routed = {
            key: value for key, value in counters.items() if key.startswith("vector.routed.")
        }
        assert routed == ({} if reason is None else {f"vector.routed.{reason}": 1})

    def test_a_low_occupancy_kernel_runs_columnar_on_every_launch(self):
        """One lane of 64 loops 500 times, the others at most 3, so most
        lane-slots idle: occupancy is counted, and no verdict follows from
        it — every launch runs columnar and nothing is routed scalar."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            program = compile_source(_STRAGGLER_SOURCE, OptConfig.gpu_all())
        observer = Observer()
        rt = ConcordRuntime(program, ultrabook(), engine="vector", observer=observer)
        for _launch in range(3):
            data, trip = rt.new_array(I32, 64), rt.new_array(I32, 64)
            data.fill_from(range(64))
            trip.fill_from([500] + [lane % 4 for lane in range(1, 64)])
            body = rt.new("Body")
            body.data, body.trip = data, trip
            rt.parallel_for_hetero(64, body, on_cpu=False)
        counters = observer.counters.as_dict()
        assert 0 < 10 * counters["vector.mask_occupancy"] < counters["vector.mask_slots"]
        assert counters["vector.lanes_retired"] == 3 * 64  # every launch
        assert "vector.fallbacks" not in counters
        assert not [key for key in counters if key.startswith("vector.routed.")]
        assert program.vector_code.scalar == {}

    def test_fallback_lanes_still_counted_as_invocations(self):
        for name in NINE:
            counters = _observed_counters(name, "vector")
            assert counters.get("engine.invocations.gpu", 0) > 0, name
