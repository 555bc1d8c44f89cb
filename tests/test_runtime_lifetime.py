"""A runtime uses only the memory it touches and frees it when dropped.

Nothing a :class:`~repro.runtime.ConcordRuntime` owns points back at it:
the backends, the scheduler and the task graph are handed the runtime
per call, bound generated code closes over its accumulator and not over
the :class:`~repro.exec.compiled.CompiledFunction` that holds it, and the
task graph keeps records, not the futures it hands out.  So with the
cyclic collector off, dropping the last reference frees the runtime and
its region at once, and a ``DEBUG_SAVEALL`` collection afterwards finds
nothing.  The region itself is a private anonymous mapping: its pages
are allocated on first write and stay private across ``fork``.
"""

import gc
import mmap
import os
import sys
import warnings
import weakref

import pytest

from repro.exec import ExecutionError
from repro.ir.types import F32, I32
from repro.passes import OptConfig
from repro.runtime import ConcordRuntime, compile_source, ultrabook
from repro.svm import MemoryFault, PhysicalMemory

SOURCE = """
class TouchBody {
public:
  int* data;
  int* bad;
  void operator()(int i) {
    if (i == 37) { data[i] = bad[0]; }
    data[i] = data[i] + i;
  }
};
class SumBody {
public:
  float* data;
  float sum;
  void operator()(int i) { sum += data[i]; }
  void join(SumBody& other) { sum += other.sum; }
};
class FibBody {
public:
  int* out;
  int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
  }
  void operator()(int i) { out[i] = fib(i); }
};
"""

N = 64


def _program():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # FibBody's recursion: CPU only
        return compile_source(SOURCE, OptConfig.gpu_all())


PROGRAM = _program()


def _runtime(**options) -> ConcordRuntime:
    return ConcordRuntime(PROGRAM, ultrabook(), **options)


def _touch(rt, trap: bool = False):
    data = rt.new_array(I32, N)
    body = rt.new("TouchBody")
    body.data = data
    body.bad = 8 if trap else data  # 8: neither region nor surface
    return body, data


def _sum(rt):
    data = rt.new_array(F32, N)
    for i in range(N):
        data[i] = float(i)
    body = rt.new("SumBody")
    body.data = data
    body.sum = 0.0
    return body


def _constructs(on_cpu: bool = False, **options):
    def run():
        rt = _runtime(**options)
        rt.parallel_for_hetero(N, _touch(rt)[0], on_cpu=on_cpu)
        rt.parallel_reduce_hetero(N, _sum(rt), on_cpu=on_cpu)
        return rt

    return run


def _trap(on_cpu: bool):
    def run():
        rt = _runtime()
        try:
            rt.parallel_for_hetero(N, _touch(rt, trap=True)[0], on_cpu=on_cpu)
        except (MemoryFault, ExecutionError):
            pass
        else:
            raise AssertionError("lane 37 did not trap")
        return rt

    return run


def _recursion():
    rt = _runtime()
    out = rt.new_array(I32, 10)
    body = rt.new("FibBody")
    body.out = out
    assert rt.parallel_for_hetero(10, body).device == "cpu"
    assert out.to_list() == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
    return rt


SCENARIOS = {
    "compiled-gpu": _constructs(engine="compiled"),
    "compiled-cpu": _constructs(on_cpu=True, engine="compiled"),
    "vector-gpu": _constructs(engine="vector"),
    "vector-cpu": _constructs(on_cpu=True, engine="vector"),
    "hybrid": _constructs(policy="hybrid"),
    "graph": _constructs(graph=True),
    "trap-gpu": _trap(on_cpu=False),
    "trap-cpu": _trap(on_cpu=True),
    "recursion": _recursion,
}


class _Collector:
    """The cyclic collector off for the ``with`` block; ``garbage()``
    then lists what a ``DEBUG_SAVEALL`` collection finds unreachable."""

    def __enter__(self):
        gc.collect()
        gc.disable()
        return self

    def __exit__(self, *exc):
        gc.enable()

    @staticmethod
    def garbage() -> list:
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            found = [type(obj).__name__ for obj in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        return found


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_a_dropped_runtime_is_freed_at_once(scenario):
    run = SCENARIOS[scenario]
    run()  # the program's code is generated once, by the first runtime
    with _Collector() as collector:
        rt = run()
        runtime, memory = weakref.ref(rt), weakref.ref(rt.region.physical)
        del rt
        assert runtime() is None and memory() is None
        assert collector.garbage() == []


def test_a_held_future_keeps_its_runtime_until_dropped():
    _constructs(graph=True)()
    with _Collector() as collector:
        rt = _runtime(graph=True)
        body, data = _touch(rt)
        future = rt.submit(N, body, reads=[data], writes=[data])
        del body
        runtime, memory = weakref.ref(rt), weakref.ref(rt.region.physical)
        del rt
        assert runtime() is not None  # the future forces on its runtime
        assert future.result().device == "gpu" and future.done
        assert data.to_list() == list(range(N))
        del future, data
        assert runtime() is None and memory() is None
        assert collector.garbage() == []


def _vm_rss_kib() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise AssertionError("no VmRSS line")


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads VmRSS from /proc"
)
def test_a_runtime_costs_the_pages_it_touches():
    _runtime()  # imports, the program's first load: not what is measured
    before = _vm_rss_kib()
    rt = _runtime(region_size=1 << 24)
    grown = _vm_rss_kib() - before
    assert rt.region.size == 1 << 24
    assert grown < 2 * 1024, f"constructing a 16 MiB region raised VmRSS by {grown} KiB"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_the_region_is_a_private_mapping():
    memory = PhysicalMemory(1 << 16)
    assert isinstance(memory.data, mmap.mmap)
    memory.write_int(4096, 4, 7, signed=True)
    pid = os.fork()
    if pid == 0:  # the child: write, read its own write back, report
        try:
            memory.write_int(4096, 4, 99, signed=True)
            os._exit(0 if memory.read_int(4096, 4, signed=True) == 99 else 1)
        finally:
            os._exit(2)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    assert memory.read_int(4096, 4, signed=True) == 7
