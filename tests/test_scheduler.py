"""Tests for the pluggable scheduler layer (repro.sched): policy
dispatch, hybrid/auto bit-identity against the paper-faithful gpu
policy, chunk-dispatch edge cases, report merging, the runtime's device
totals, throughput history, and the hybrid performance bar."""

import random
import warnings

import pytest

from repro.fuzz import divergences, generate_source_program
from repro.gpu.timing import DeviceReport
from repro.obs import Observer
from repro.obs.profile import fold_spans
from repro.passes import OptConfig
from repro.runtime import ConcordRuntime, compile_source, ultrabook
from repro.runtime.runtime import ExecutionReport
from repro.backend.base import parallel_report
from repro.sched import POLICIES
from repro.sched.policies import MIN_SPLIT_ITEMS
from repro.workloads import all_workloads

WORKLOADS = all_workloads()

SOURCE = """
class Incr {
public:
  int* data;
  void operator()(int i) { data[i] = data[i] + i; }
};

class SumBody {
public:
  int* data;
  int sum;
  void operator()(int i) { sum += data[i]; }
  void join(SumBody& other) { sum += other.sum; }
};
"""


def _runtime(policy="gpu", observer=None):
    return ConcordRuntime(
        compile_source(SOURCE, OptConfig.gpu_all()),
        ultrabook(),
        observer=observer,
        policy=policy,
    )


def _run_incr(rt, n, **kwargs):
    data = rt.new_array(_i32(), max(1, n))
    for i in range(n):
        data[i] = 10 * i
    body = rt.new("Incr")
    body.data = data
    report = rt.parallel_for_hetero(n, body, **kwargs)
    return data, report


class TestPolicyDispatch:
    def test_registry_has_the_four_policies(self):
        assert {"cpu", "gpu", "auto", "hybrid"} <= set(POLICIES)

    def test_unknown_policy_at_construction_raises(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            _runtime(policy="sometimes")

    def test_unknown_policy_per_call_raises(self):
        rt = _runtime()
        body = rt.new("Incr")
        body.data = rt.new_array(_i32(), 4)
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            rt.parallel_for_hetero(4, body, policy="nope")

    def test_cpu_policy_equals_on_cpu_flag(self):
        rt1 = _runtime()
        data1, r1 = _run_incr(rt1, 64, on_cpu=True)
        rt2 = _runtime(policy="cpu")
        data2, r2 = _run_incr(rt2, 64)
        assert r1.device == r2.device == "cpu"
        assert r1.seconds == r2.seconds
        assert data1.to_list() == data2.to_list()

    def test_per_call_policy_overrides_runtime_policy(self):
        rt = _runtime(policy="cpu")
        _, report = _run_incr(rt, 32, policy="gpu")
        assert report.device == "gpu"

    def test_hybrid_reports_hybrid_device(self):
        rt = _runtime(policy="hybrid")
        _, report = _run_incr(rt, 256)
        assert report.device == "hybrid"
        assert report.n == 256
        assert report.seconds > 0

    def test_counters_record_dispatch(self):
        from repro.obs import Observer

        observer = Observer()
        rt = _runtime(policy="hybrid", observer=observer)
        _run_incr(rt, 256)
        counters = observer.counters
        assert counters.get("sched.constructs") == 1
        assert counters.get("sched.policy.hybrid") == 1
        assert counters.get("sched.chunks.gpu") >= 1
        assert (
            counters.get("sched.items.gpu", 0)
            + counters.get("sched.items.cpu", 0)
            == 256
        )


def _i32():
    from repro.ir.types import I32

    return I32


class TestEdgeCases:
    @pytest.mark.parametrize("policy", ["gpu", "cpu", "auto", "hybrid"])
    def test_empty_index_space(self, policy):
        rt = _runtime(policy=policy)
        data, report = _run_incr(rt, 0)
        assert report.n == 0
        assert data.to_list() == [0]  # untouched

    @pytest.mark.parametrize("policy", ["auto", "hybrid"])
    def test_single_item(self, policy):
        rt = _runtime(policy=policy)
        data, report = _run_incr(rt, 1)
        assert data.to_list() == [0]
        assert report.seconds > 0

    def test_below_split_threshold_degrades(self):
        from repro.obs import Observer

        observer = Observer()
        rt = _runtime(policy="hybrid", observer=observer)
        n = MIN_SPLIT_ITEMS - 1
        data, report = _run_incr(rt, n)
        assert data.to_list() == [11 * i for i in range(n)]
        assert observer.counters.get("sched.degraded") == 1
        # degraded constructs run whole on a single device
        assert report.device in ("cpu", "gpu")

    def test_smaller_than_one_chunk(self):
        rt = _runtime(policy="hybrid")
        data, _ = _run_incr(rt, 7)
        assert data.to_list() == [11 * i for i in range(7)]

    def test_hybrid_reduce_matches_gpu(self):
        def reduce_once(policy):
            rt = _runtime(policy=policy)
            data = rt.new_array(_i32(), 200)
            for i in range(200):
                data[i] = i
            body = rt.new("SumBody")
            body.data = data
            body.sum = 0
            rt.parallel_reduce_hetero(200, body)
            return body.sum

        assert reduce_once("hybrid") == reduce_once("gpu") == sum(range(200))


class TestHistory:
    def test_record_and_throughput(self):
        rt = _runtime()
        sched = rt.scheduler
        assert sched.throughput("K", "gpu") is None
        sched.record("K", "gpu", 100, 2.0)
        sched.record("K", "gpu", 100, 2.0)
        assert sched.throughput("K", "gpu") == pytest.approx(50.0)
        # zero-cost / zero-item observations are ignored
        sched.record("K", "cpu", 0, 1.0)
        sched.record("K", "cpu", 10, 0.0)
        assert sched.throughput("K", "cpu") is None

    def test_gpu_share(self):
        rt = _runtime()
        sched = rt.scheduler
        assert sched.gpu_share("K") == 0.5
        sched.record("K", "gpu", 300, 1.0)
        sched.record("K", "cpu", 100, 1.0)
        assert sched.gpu_share("K") == pytest.approx(0.75)

    def test_seed_from_profile(self):
        from repro.obs import Observer, build_profile

        observer = Observer()
        workload = WORKLOADS["BFS"]()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            workload.execute(
                None, ultrabook(), scale=0.1, validate=False, observer=observer
            )
        doc = build_profile(observer.events)
        workload2 = WORKLOADS["BFS"]()
        rt = workload2.make_runtime(OptConfig.gpu_all(), ultrabook())
        seeded = rt.scheduler.seed_from_profile(rt, doc)
        assert seeded > 0
        key = next(
            rt.scheduler.key_of(k) for k in rt.program.kernels.values()
        )
        assert rt.scheduler.throughput(key, "gpu") is not None

    def test_the_engine_of_a_seeding_profile_does_not_matter(self):
        """The model prices a launch the same whichever engine ran it, so
        a history row is per kernel and device: a compiled-engine runtime
        seeded from a ``vector`` profile calibrates exactly as one seeded
        from a ``compiled`` profile, before and after its own chunks."""
        from repro.obs import build_profile

        program = compile_source(SOURCE, OptConfig.gpu_all())

        def profile(engine):
            observer = Observer()
            for policy in ("gpu", "cpu"):
                rt = ConcordRuntime(
                    program, ultrabook(), observer=observer, policy=policy, engine=engine
                )
                _run_incr(rt, 256)
            return build_profile(observer.events, meta={"engine": engine})

        rows = []
        for engine in ("vector", "compiled"):
            rt = ConcordRuntime(program, ultrabook(), policy="hybrid", engine="compiled")
            assert rt.scheduler.seed_from_profile(rt, profile(engine)) == 2
            before = [rt.scheduler.throughput("Incr", d) for d in ("gpu", "cpu")]
            _, report = _run_incr(rt, 512)
            assert report.device == "hybrid"
            after = [rt.scheduler.throughput("Incr", d) for d in ("gpu", "cpu")]
            rows.append((before, after, report.seconds))
        assert None not in rows[0][0]
        assert rows[0] == rows[1]


class TestReportMerging:
    def _random_report(self, rng):
        return ExecutionReport(
            device=rng.choice(["cpu", "gpu"]),
            n=rng.randrange(1, 1000),
            report=DeviceReport(
                device="gpu",
                seconds=rng.uniform(0.0, 1.0),
                energy_joules=rng.uniform(0.0, 1.0),
                cycles=rng.randrange(0, 10**6),
                instructions=rng.randrange(0, 10**6),
            ),
            jit_seconds=rng.uniform(0.0, 0.01),
        )

    def test_addition_is_associative(self):
        rng = random.Random(7)
        for _ in range(50):
            a, b, c = (self._random_report(rng) for _ in range(3))
            left = (a + b) + c
            right = a + (b + c)
            assert left.n == right.n
            assert left.device == right.device
            assert left.seconds == pytest.approx(right.seconds)
            assert left.energy_joules == pytest.approx(right.energy_joules)
            assert left.jit_seconds == pytest.approx(right.jit_seconds)

    def test_mixed_devices_merge_to_hybrid(self):
        rng = random.Random(11)
        a = self._random_report(rng)
        b = self._random_report(rng)
        a.device, b.device = "cpu", "gpu"
        assert (a + b).device == "hybrid"
        b.device = "cpu"
        assert (a + b).device == "cpu"

    def test_sum_with_zero_identity(self):
        rng = random.Random(13)
        reports = [self._random_report(rng) for _ in range(4)]
        total = sum(reports)  # starts from 0 -> exercises __radd__
        assert total.n == sum(r.n for r in reports)

    def test_fallback_reason_keeps_first_nonempty(self):
        rng = random.Random(17)
        a, b = self._random_report(rng), self._random_report(rng)
        b.fallback_reason = "restriction fallback"
        assert (a + b).fallback_reason == "restriction fallback"
        a.fallback_reason = "first"
        assert (a + b).fallback_reason == "first"

    def test_parallel_report_max_seconds_sum_energy(self):
        a = DeviceReport(device="gpu", seconds=2.0, energy_joules=1.0, cycles=20)
        b = DeviceReport(device="cpu", seconds=3.0, energy_joules=0.5, cycles=5)
        merged = parallel_report([a, b])
        assert merged.device == "hybrid"
        assert merged.seconds == 3.0
        assert merged.cycles == 20
        assert merged.energy_joules == pytest.approx(1.5)
        empty = parallel_report([None, None])
        assert empty.seconds == 0.0


def _region_bytes(name, policy, scale):
    cls = WORKLOADS[name]
    workload = cls()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rt = cls.make_runtime(OptConfig.gpu_all(), ultrabook(), policy=policy)
        state = workload.build(rt, scale)
        reports = workload.run(rt, state, on_cpu=False)
    return bytes(rt.region.physical.data), sum(r.seconds for r in reports)


class TestHybridBitIdentity:
    """Hybrid executes chunks sequentially in global index order, so the
    final shared-region bytes must match a pure-GPU run exactly; auto
    places whole constructs, which preserves bytes as well."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_hybrid_and_auto_match_gpu(self, name):
        scale = 0.1
        gpu_bytes, _ = _region_bytes(name, "gpu", scale)
        hybrid_bytes, _ = _region_bytes(name, "hybrid", scale)
        auto_bytes, _ = _region_bytes(name, "auto", scale)
        assert hybrid_bytes == gpu_bytes
        assert auto_bytes == gpu_bytes


class TestDeviceTotals:
    @pytest.mark.parametrize("policy", ["gpu", "hybrid"])
    def test_gpu_total_is_the_gpu_occupancy(self, policy):
        """A construct's GPU occupancy, ``per_device_seconds()["gpu"]`` of
        the report it returns, is what its GPU chunks took plus a
        reduction's work-group tree join, under ``hybrid`` as under
        ``gpu``; the run's GPU total is the sum over its reports."""
        cls = WORKLOADS["ClothPhysics"]
        workload = cls()
        observer = Observer()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rt = cls.make_runtime(
                OptConfig.gpu_all(), ultrabook(), observer=observer, policy=policy
            )
            state = workload.build(rt, 0.2)
            reports = workload.run(rt, state, on_cpu=False)
        assert any(r.device == ("hybrid" if policy == "hybrid" else "gpu") for r in reports)
        constructs = [
            span
            for span in fold_spans(observer.events)[0]
            if span["category"] == "construct"
        ]
        assert len(constructs) == len(reports)
        trees = 0
        for report, construct in zip(reports, constructs):
            phases = {phase["name"]: phase for phase in construct["children"]}
            gpu = sum(
                chunk["sim_seconds"]
                for chunk in phases["launch"]["children"]
                if chunk["name"] == "launch:gpu"
            )
            if "reduce_tree" in phases:
                gpu += phases["reduce_tree"]["sim_seconds"]
                trees += 1
            assert report.per_device_seconds().get("gpu", 0.0) == pytest.approx(gpu)
        assert trees > 0
        assert sum(r.per_device_seconds().get("gpu", 0.0) for r in reports) > 0.0


class TestHybridPerformance:
    """The acceptance bar: hybrid no slower than the best single device
    on BFS and Raytracer at smoke scale."""

    @pytest.mark.parametrize("name", ["BFS", "Raytracer"])
    def test_hybrid_not_slower_than_best_single(self, name):
        scale = 0.2
        _, gpu_seconds = _region_bytes(name, "gpu", scale)
        _, cpu_seconds = _region_bytes(name, "cpu", scale)
        _, hybrid_seconds = _region_bytes(name, "hybrid", scale)
        best = min(gpu_seconds, cpu_seconds)
        assert hybrid_seconds <= best * (1.0 + 1e-9)


class TestFuzzOracleHook:
    def test_sched_oracle_clean_on_generated_programs(self):
        for seed in range(3):
            rng = random.Random(seed)
            program = generate_source_program(rng, seed=seed)
            assert divergences("sched", program) == []

    def test_sched_target_registered(self):
        from repro.fuzz import TARGETS, FuzzDriver

        assert "sched" in TARGETS
        report = FuzzDriver(seed=1, iterations=3, target="sched").run()
        assert report.ok
