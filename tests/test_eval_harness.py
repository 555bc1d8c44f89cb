"""Tests for the evaluation harness itself: measurement plumbing, figure
data structures, table generation, and the workload input generators."""

import pytest

from repro.eval import (
    GPU_CONFIG_LABELS,
    WORKLOAD_ORDER,
    geomean,
    measure_workload,
    table1_rows,
)
from repro.eval.figures import FigureData
from repro.eval.formatting import render_series, render_table
from repro.runtime.system import ultrabook
from repro.workloads import (
    all_workloads,
    integral_image,
    road_network,
    synthetic_image,
)


class TestGeomean:
    def test_basic(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([3.0]) == 3.0
        assert geomean([]) == 0.0

    def test_scale_invariance(self):
        values = [1.5, 2.5, 0.5]
        assert geomean(v * 2 for v in values) == pytest.approx(
            2 * geomean(values)
        )


class TestMeasurement:
    @pytest.fixture(scope="class")
    def measurement(self):
        workloads = all_workloads()
        return measure_workload(workloads["BTree"], ultrabook(), scale=0.15)

    def test_all_configs_measured(self, measurement):
        assert set(measurement.gpu_seconds) == set(GPU_CONFIG_LABELS)
        assert set(measurement.gpu_energy) == set(GPU_CONFIG_LABELS)

    def test_positive_quantities(self, measurement):
        assert measurement.cpu_seconds > 0
        assert measurement.cpu_energy > 0
        assert all(v > 0 for v in measurement.gpu_seconds.values())

    def test_ratio_helpers(self, measurement):
        assert measurement.speedup("GPU+ALL") == pytest.approx(
            measurement.cpu_seconds / measurement.gpu_seconds["GPU+ALL"]
        )
        assert measurement.energy_savings("GPU") == pytest.approx(
            measurement.cpu_energy / measurement.gpu_energy["GPU"]
        )

    def test_an_observed_measurement_equals_an_unobserved_one(self, measurement):
        from repro.obs import Observer, build_profile

        workloads = all_workloads()
        observer = Observer()
        observed = measure_workload(
            workloads["BTree"], ultrabook(), scale=0.15, observer=observer
        )
        assert build_profile(observer.events)["constructs"]  # a complete execution was seen ...
        assert observed == measurement  # ... and observing moves no number

    def test_observer_goes_down_as_an_argument(self, monkeypatch):
        """``measure_figures(names, scale, observer)`` -> ``measure_all``
        -> ``measure_workload``: nothing process-wide is installed."""
        from repro.eval import measure_figures, runner

        seen = []

        def spy(cls, system, scale, validate, observer, **options):
            seen.append((system.name, observer))
            return runner.Measurement(
                cls.name, system.name, 2.0, 2.0,
                dict.fromkeys(runner.GPU_CONFIG_LABELS, 1.0),
                dict.fromkeys(runner.GPU_CONFIG_LABELS, 1.0), 1.0, 1.0,
            )

        monkeypatch.setattr(runner, "measure_workload", spy)
        sentinel = object()
        drawn = measure_figures(["fig7", "fig8"], 0.15, observer=sentinel)
        assert drawn["fig7"].value("BFS") == 2.0
        assert drawn["fig8"].system == "Ultrabook"
        # the two Ultrabook figures are views of one measured table
        assert seen == [("Ultrabook", sentinel)] * len(WORKLOAD_ORDER)
        assert not hasattr(runner, "set_default_observer")


class TestEachRunOnce:
    """A report measures each (workload, system, column) once, observed
    or not: nothing is memoized, so nothing is measured twice."""

    #: 9 workloads x 2 systems x (CPU, four GPU configurations, HYBRID),
    #: plus the section 5.4 study's 4 image sizes x 2 programs
    RUNS = len(WORKLOAD_ORDER) * 2 * (1 + len(GPU_CONFIG_LABELS) + 1) + 4 * 2

    @pytest.mark.parametrize("observed", [False, True])
    def test_report_executes_each_run_once(self, monkeypatch, observed):
        from repro.eval import report
        from repro.gpu.timing import DeviceReport
        from repro.obs import Observer
        from repro.runtime.runtime import ExecutionReport
        from repro.workloads.base import RunOutcome, Workload

        calls = []

        def execute(self, config, system=None, on_cpu=False, scale=1.0,
                    validate=True, observer=None, **options):
            calls.append(
                (self.name, system.name, config.label, on_cpu, options.get("policy"), scale)
            )
            seconds = 1.0 if on_cpu else 0.5
            return RunOutcome(self.name, "cpu" if on_cpu else "gpu", [
                ExecutionReport("gpu", 1, DeviceReport("gpu", seconds, seconds))
            ])

        monkeypatch.setattr(Workload, "execute", execute)
        results = report.measure(0.05, Observer() if observed else None)
        assert self.RUNS == 116
        assert len(calls) == len(set(calls)) == self.RUNS
        assert results.fig7.value("BFS") == results.fig9.value("SSSP", "HYBRID") == 2.0


class TestFigureData:
    def _figure(self):
        return FigureData(
            title="t",
            system="s",
            metric="speedup",
            labels=["A", "B"],
            series={"GPU": [1.0, 2.0], "GPU+ALL": [2.0, 4.0]},
        )

    def test_value_lookup(self):
        fig = self._figure()
        assert fig.value("B", "GPU+ALL") == 4.0

    def test_averages(self):
        fig = self._figure()
        assert fig.averages()["GPU"] == pytest.approx(geomean([1.0, 2.0]))

    def test_render_contains_rows_and_geomean(self):
        text = self._figure().render()
        assert "A" in text and "B" in text and "geomean" in text


class TestTableRendering:
    def test_render_table_alignment(self):
        text = render_table(["col", "x"], [["a", "1"], ["bbbb", "22"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "col" in lines[2]
        assert len(lines) == 6

    def test_render_series(self):
        text = render_series("S", ["w1"], {"GPU": [1.234]})
        assert "1.23" in text

    def test_table1_order_matches_paper(self):
        rows = table1_rows(0.2)
        assert [r.benchmark for r in rows] == list(WORKLOAD_ORDER)

    def test_table1_metadata_matches_paper(self):
        rows = table1_rows(0.2)
        by_name = {r.benchmark: r for r in rows}
        assert len(rows) == 9
        assert by_name["BFS"].origin == "Galois"
        assert by_name["BTree"].origin == "Rodinia"
        assert by_name["FaceDetect"].origin == "OpenCV"
        assert by_name["ClothPhysics"].parallel_construct == "parallel reduce hetero"
        assert all(
            r.parallel_construct == "parallel for hetero"
            for r in rows
            if r.benchmark != "ClothPhysics"
        )
        assert by_name["BarnesHut"].data_structure == "tree"
        assert by_name["SkipList"].data_structure == "linked-list"
        # ClothPhysics is the largest workload in the paper; ours too
        assert by_name["ClothPhysics"].device_loc >= 30
        assert all(r.device_loc <= r.loc for r in rows)


class TestInputGenerators:
    def test_road_network_properties(self):
        graph = road_network(10, 10, seed=1)
        assert graph.num_nodes == 100
        # symmetric edges
        edges = set()
        for node in range(graph.num_nodes):
            for target, weight in graph.neighbours(node):
                edges.add((node, target, weight))
        for a, b, w in edges:
            assert (b, a, w) in edges
        # road-network-like: low average degree
        assert 1.0 < graph.num_edges / graph.num_nodes < 5.0
        # no self loops
        assert all(a != b for a, b, _ in edges)

    def test_road_network_deterministic(self):
        g1 = road_network(8, 8, seed=42)
        g2 = road_network(8, 8, seed=42)
        assert g1.columns == g2.columns and g1.weights == g2.weights
        g3 = road_network(8, 8, seed=43)
        assert g1.columns != g3.columns

    def test_integral_image_correctness(self):
        image = synthetic_image(12, 9, seed=2)
        ii = integral_image(image)
        # ii[y][x] = sum of image[0..y)[0..x)
        for y in (0, 3, 9):
            for x in (0, 5, 12):
                want = sum(image[r][c] for r in range(y) for c in range(x))
                assert ii[y][x] == want

    def test_synthetic_image_has_blobs_and_noise(self):
        image = synthetic_image(32, 32)
        flat = [v for row in image for v in row]
        assert max(flat) > 180  # bright blobs present
        assert len(set(flat)) > 50  # per-pixel texture, not flat regions
