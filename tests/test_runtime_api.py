"""Tests for the ConcordRuntime host API: object construction, views,
host calls, JIT caching, accounting."""

from dataclasses import FrozenInstanceError, fields

import pytest

from repro.ir.types import F32, I32, I64, ptr
from repro.runtime import (
    ConcordRuntime,
    OptConfig,
    RunConfig,
    compile_source,
    desktop,
    ultrabook,
)
from repro.svm import MemoryFault

SOURCE = """
class Point {
public:
  float x; float y;
  Point(float px, float py) : x(px), y(py) {}
  float norm2() { return x * x + y * y; }
};

class Counter {
public:
  int value;
  int bump(int by) { value += by; return value; }
};

class ScaleBody {
public:
  Point* points;
  float factor;
  void operator()(int i) {
    points[i].x *= factor;
    points[i].y *= factor;
  }
};
"""


@pytest.fixture()
def rt():
    return ConcordRuntime(compile_source(SOURCE, OptConfig.gpu_all()), ultrabook())


class TestObjectConstruction:
    def test_constructor_arguments(self, rt):
        p = rt.new("Point", 3.0, 4.0)
        assert p.x == 3.0 and p.y == 4.0

    def test_wrong_arity_raises(self, rt):
        with pytest.raises(TypeError):
            rt.new("Counter", 1, 2, 3)

    def test_unknown_class_raises(self, rt):
        with pytest.raises(KeyError):
            rt.new("Nothing")

    def test_zero_init_without_ctor(self, rt):
        c = rt.new("Counter")
        assert c.value == 0

    def test_new_array_of_class_and_scalar(self, rt):
        points = rt.new_array("Point", 4)
        assert len(points) == 4
        floats = rt.new_array(F32, 8)
        floats[5] = 2.5
        assert floats[5] == 2.5

    def test_free_releases_memory(self, rt):
        before = rt.allocator.live_bytes
        arr = rt.new_array(I64, 100)
        assert rt.allocator.live_bytes > before
        rt.free(arr)
        assert rt.allocator.live_bytes == before


class TestHostCalls:
    def test_method_via_call_host(self, rt):
        p = rt.new("Point", 3.0, 4.0)
        fn_name = next(
            n for n in rt.program.module.functions if n.startswith("Point.norm2")
        )
        assert rt.call_host(fn_name, p) == pytest.approx(25.0)

    def test_mutating_method(self, rt):
        c = rt.new("Counter")
        fn_name = next(
            n for n in rt.program.module.functions if n.startswith("Counter.bump")
        )
        assert rt.call_host(fn_name, c, 5) == 5
        assert rt.call_host(fn_name, c, 2) == 7
        assert c.value == 7


class TestExecutionAccounting:
    def _setup(self, rt, n=8):
        points = rt.new_array("Point", n)
        for i in range(n):
            points[i].x = float(i)
            points[i].y = 1.0
        body = rt.new("ScaleBody")
        body.points = points
        body.factor = 2.0
        return body, points

    def test_jit_charged_once(self, rt):
        body, _ = self._setup(rt)
        first = rt.parallel_for_hetero(8, body)
        second = rt.parallel_for_hetero(8, body)
        assert first.jit_seconds > 0
        assert second.jit_seconds == 0.0

    def test_totals_accumulate(self, rt):
        body, _ = self._setup(rt)
        gpu = rt.parallel_for_hetero(8, body)
        cpu = rt.parallel_for_hetero(8, body, on_cpu=True)
        assert (gpu.device, cpu.device) == ("gpu", "cpu")
        assert gpu.report.seconds > 0 and cpu.report.seconds > 0
        assert sum([gpu, cpu]).per_device_seconds() == {
            "gpu": gpu.report.seconds,
            "cpu": cpu.report.seconds,
        }

    def test_results_correct_after_both_devices(self, rt):
        body, points = self._setup(rt)
        rt.parallel_for_hetero(8, body)          # x *= 2
        rt.parallel_for_hetero(8, body, on_cpu=True)  # x *= 2 again
        assert [points[i].x for i in range(8)] == [float(i) * 4 for i in range(8)]

    def test_desktop_system_differs(self):
        prog = compile_source(SOURCE, OptConfig.gpu_all())
        times = {}
        for system in (ultrabook(), desktop()):
            rt = ConcordRuntime(prog, system)
            body, _ = self._setup(rt)
            report = rt.parallel_for_hetero(8, body, on_cpu=True)
            times[system.name] = report.seconds
        # the desktop CPU is strictly faster on the same work
        assert times["Desktop"] < times["Ultrabook"]

    def test_non_body_class_rejected(self, rt):
        c = rt.new("Counter")
        with pytest.raises(KeyError):
            rt.parallel_for_hetero(4, c)

    def test_raw_address_body_rejected(self, rt):
        with pytest.raises(TypeError):
            rt.parallel_for_hetero(4, 0x1234)


class TestViewsThroughRuntime:
    def test_view_wraps_existing_address(self, rt):
        p = rt.new("Point", 1.0, 2.0)
        again = rt.view("Point", p.addr)
        assert again.x == 1.0
        again.y = 9.0
        assert p.y == 9.0

    def test_view_field_address(self, rt):
        p = rt.new("Point", 0.0, 0.0)
        assert p.field_address("y") == p.addr + 4

    def test_out_of_region_read_faults(self, rt):
        with pytest.raises(MemoryFault):
            rt.region.read_int(0x10, 4, signed=True)


class TestRunConfig:
    """A run's options are one frozen record, checked when it is built."""

    @pytest.mark.parametrize("name", [spec.name for spec in fields(RunConfig)])
    def test_a_bad_value_is_refused_with_its_field_named(self, name):
        program = compile_source(SOURCE, OptConfig.gpu_all())
        for bad in ("bogus", 1, None):
            with pytest.raises(ValueError, match=f"^{name}="):
                RunConfig(**{name: bad})
            with pytest.raises(ValueError, match=f"^{name}="):
                ConcordRuntime(program, ultrabook(), **{name: bad})

    def test_an_unknown_keyword_is_a_type_error_naming_it(self):
        from repro.workloads import all_workloads

        program = compile_source(SOURCE, OptConfig.gpu_all())
        with pytest.raises(TypeError, match="engin"):
            ConcordRuntime(program, ultrabook(), engin="vector")
        with pytest.raises(TypeError, match="collect_mem_events"):
            all_workloads()["BFS"]().execute(None, scale=0.05, collect_mem_events=False)

    def test_the_runtime_keeps_the_one_record(self, rt):
        assert rt.options == RunConfig()
        hashed = {RunConfig(): 1, RunConfig(engine="vector", graph=True): 2}
        assert hashed[RunConfig(graph=True, engine="vector")] == 2
        with pytest.raises(FrozenInstanceError):
            rt.options.engine = "vector"
