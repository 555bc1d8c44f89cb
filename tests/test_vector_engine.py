"""The columnar vector engine is bit-identical to the threaded-code engine.

For all nine paper workloads the vector backend must leave exactly the
same shared-region bytes, the same execution traces and the same modeled
reports as ``CompiledEngine`` — whether a kernel was vectorized, rolled
back and re-run scalar, or routed scalar outright (``vector.fallbacks``).
Also covers backend registration, the ``vector.*`` counter surface and
the per-kernel fallback behavior.
"""

import warnings

import pytest

from repro.backend import VectorBackend
from repro.obs import Observer
from repro.runtime.system import ultrabook
from repro.workloads import all_workloads
from repro.workloads.base import Workload

from .test_engine_equivalence import NINE, SCALE, _assert_trace_equal, _run

WORKLOADS = all_workloads()


@pytest.fixture(autouse=True)
def _fresh_programs(monkeypatch):
    """Per-kernel routing verdicts live on the program object, and
    ``Workload.compile`` keeps programs for the process; an empty program
    cache makes every test compile its own, so each one exercises the
    optimistic vector path from a cold state, independent of test order."""
    monkeypatch.setattr(Workload, "_program_cache", {})


@pytest.mark.parametrize("name", NINE)
def test_vector_bit_identical_to_compiled(name):
    com_rt, com_reports = _run(name, "compiled", on_cpu=False)
    vec_rt, vec_reports = _run(name, "vector", on_cpu=False)

    # Same final shared-memory state: every store landed identically.
    assert bytes(vec_rt.region.physical.data) == bytes(
        com_rt.region.physical.data
    )

    # Same traces, launch by launch.
    assert len(vec_rt.trace_log) == len(com_rt.trace_log)
    for index, (ref, got) in enumerate(
        zip(com_rt.trace_log, vec_rt.trace_log)
    ):
        _assert_trace_equal(ref, got, f"{name} trace {index}")

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


def _observed_counters(name: str, engine: str) -> dict:
    observer = Observer()
    workload = WORKLOADS[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        workload.execute(
            None, ultrabook(), scale=0.1, engine=engine, observer=observer
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


class TestBackendRegistration:
    def test_vector_engine_selects_vector_backend(self):
        rt = WORKLOADS["BFS"]().make_runtime(engine="vector")
        assert rt.engine == "vector"
        assert isinstance(rt.backends["gpu"], VectorBackend)
        assert not isinstance(rt.backends["cpu"], VectorBackend)

    def test_other_engines_do_not(self):
        rt = WORKLOADS["BFS"]().make_runtime(engine="compiled")
        assert not isinstance(rt.backends["gpu"], VectorBackend)

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

    def test_fallback_lanes_still_counted_as_invocations(self):
        for name in NINE:
            counters = _observed_counters(name, "vector")
            assert counters.get("engine.invocations.gpu", 0) > 0, name
