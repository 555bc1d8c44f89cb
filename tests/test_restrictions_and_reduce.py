"""Restriction checking with CPU fallback (section 2.1) and hierarchical
reductions (section 3.3)."""

import warnings

import pytest

from repro.backend import CpuBackend
from repro.exec import ExecutionError
from repro.exec.buffers import LaunchTrace
from repro.runtime import (
    ConcordRuntime,
    ConcordWarning,
    OptConfig,
    compile_source,
    ultrabook,
)
from repro.svm import MemoryFault

from .test_engine_equivalence import _assert_launches_equal, _run


class TestRestrictions:
    def test_device_allocation_falls_back_to_cpu(self):
        src = """
        class Node { public: Node* next; };
        class AllocBody {
        public:
          Node** slots;
          void operator()(int i) {
            slots[i] = new Node();
          }
        };
        """
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            prog = compile_source(src, OptConfig.gpu())
        assert any(issubclass(w.category, ConcordWarning) for w in caught)
        kinfo = prog.kernel_for("AllocBody")
        assert kinfo.cpu_only
        assert any(v.kind == "gpu-allocation" for v in kinfo.violations)

    def test_flagged_kernel_runs_on_cpu_despite_gpu_request(self):
        src = """
        class Node { public: Node* next; int tag; };
        class AllocBody {
        public:
          Node** slots;
          void operator()(int i) {
            Node* n = new Node();
            n->tag = i;
            slots[i] = n;
          }
        };
        """
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            prog = compile_source(src, OptConfig.gpu())
        rt = ConcordRuntime(prog, ultrabook())
        from repro.ir.types import I64, ptr

        slots = rt.new_array(ptr(I64), 8)
        body = rt.new("AllocBody")
        body.slots = slots
        report = rt.parallel_for_hetero(8, body)  # asked for GPU
        assert report.device == "cpu"
        assert report.fallback_reason == "restriction fallback"
        for i in range(8):
            node = rt.view("Node", slots[i])
            assert node.tag == i

    def test_tail_recursion_is_allowed(self):
        src = """
        class CountBody {
        public:
          int* out;
          int walk(int n, int acc) {
            if (n == 0) return acc;
            return walk(n - 1, acc + n);
          }
          void operator()(int i) { out[i] = walk(i, 0); }
        };
        """
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            prog = compile_source(src, OptConfig.gpu())
        assert not any(issubclass(w.category, ConcordWarning) for w in caught)
        kinfo = prog.kernel_for("CountBody")
        assert not kinfo.cpu_only
        rt = ConcordRuntime(prog, ultrabook())
        from repro.ir.types import I32

        out = rt.new_array(I32, 10)
        body = rt.new("CountBody")
        body.out = out
        rep = rt.parallel_for_hetero(10, body)
        assert rep.device == "gpu"
        assert out.to_list() == [sum(range(i + 1)) for i in range(10)]

    def test_general_recursion_flagged(self):
        src = """
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
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            prog = compile_source(src, OptConfig.gpu())
        kinfo = prog.kernel_for("FibBody")
        assert kinfo.cpu_only
        assert any(v.kind == "recursion" for v in kinfo.violations)
        assert any(issubclass(w.category, ConcordWarning) for w in caught)
        # ... and still computes correctly on the CPU fallback
        rt = ConcordRuntime(prog, ultrabook())
        from repro.ir.types import I32

        out = rt.new_array(I32, 10)
        body = rt.new("FibBody")
        body.out = out
        rep = rt.parallel_for_hetero(10, body)
        assert rep.device == "cpu"
        fibs = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
        assert out.to_list() == fibs


REDUCE_SRC = """
class SumBody {
public:
  float* data;
  float sum;
  void operator()(int i) {
    sum += data[i];
  }
  void join(SumBody& other) {
    sum += other.sum;
  }
};
"""


class TestReduction:
    @pytest.fixture()
    def runtime(self):
        prog = compile_source(REDUCE_SRC, OptConfig.gpu_all())
        return ConcordRuntime(prog, ultrabook())

    def _setup(self, rt, n):
        from repro.ir.types import F32

        data = rt.new_array(F32, n)
        values = [float((i * 7) % 13) for i in range(n)]
        data.fill_from(values)
        body = rt.new("SumBody")
        body.data = data
        body.sum = 0.0
        return body, sum(values)

    @pytest.mark.parametrize("n", [1, 5, 16, 33, 100])
    def test_gpu_reduce_matches_reference(self, runtime, n):
        body, expected = self._setup(runtime, n)
        report = runtime.parallel_reduce_hetero(n, body)
        assert report.device == "gpu"
        assert body.sum == pytest.approx(expected, rel=1e-5)

    def test_cpu_reduce_matches_reference(self, runtime):
        body, expected = self._setup(runtime, 64)
        report = runtime.parallel_reduce_hetero(64, body, on_cpu=True)
        assert report.device == "cpu"
        assert body.sum == pytest.approx(expected, rel=1e-5)

    def test_reduce_requires_join(self, runtime):
        src = """
        class NoJoin {
        public:
          int* out;
          void operator()(int i) { out[i] = i; }
        };
        """
        prog = compile_source(src, OptConfig.gpu())
        rt = ConcordRuntime(prog, ultrabook())
        body = rt.new("NoJoin")
        with pytest.raises(TypeError):
            rt.parallel_reduce_hetero(4, body)

    def test_jit_cached_across_launches(self, runtime):
        body, _ = self._setup(runtime, 32)
        first = runtime.parallel_reduce_hetero(32, body)
        body.sum = 0.0
        second = runtime.parallel_reduce_hetero(32, body)
        assert first.jit_seconds > 0.0
        assert second.jit_seconds == 0.0


JOIN_TRAP_SRC = """
class JoinTrap {
public:
  int* bad;
  int sum;
  void operator()(int i) { sum += i; }
  void join(JoinTrap& other) { sum += other.sum + bad[0]; }
};
"""


class TestJoinsAreALaunch:
    """A whole-CPU reduction's joins run as one launch over its per-core
    copies, through the entry every chunk takes: ``trace_log`` keeps one
    ``LaunchTrace`` per launch, and a trap in a join is stamped by it."""

    def test_trace_log_keeps_one_launch_per_launch(self, monkeypatch):
        constructs = []  # (backend method, n) of every CPU construct
        for method in ("run_for", "run_reduce"):

            def counted(self, rt, kinfo, n, body, method=method, real=getattr(CpuBackend, method)):
                constructs.append((method, n))
                return real(self, rt, kinfo, n, body)

            monkeypatch.setattr(CpuBackend, method, counted)
        ref_rt, _ = _run("ClothPhysics", "reference", on_cpu=True)
        com_rt, _ = _run("ClothPhysics", "compiled", on_cpu=True)
        runs = constructs[: len(constructs) // 2]
        assert constructs == runs * 2
        assert any(method == "run_reduce" for method, _n in runs)
        # a for is one launch of n lanes, a reduction its lanes, then its
        # joins over min(cores, n) copies
        cores = ref_rt.system.cpu.cores
        sizes = []
        for method, n in runs:
            sizes.append(n)
            if method == "run_reduce":
                sizes.append(min(cores, max(1, n)))
        for rt in (ref_rt, com_rt):
            assert all(isinstance(launch, LaunchTrace) for launch in rt.trace_log)
            assert [launch.n for launch in rt.trace_log] == sizes
        _assert_launches_equal(ref_rt.trace_log, com_rt.trace_log, "ClothPhysics cpu")

    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_a_join_trap_is_stamped_by_its_launch(self, engine):
        program = compile_source(JOIN_TRAP_SRC, OptConfig.gpu_all())
        rt = ConcordRuntime(program, ultrabook(), engine=engine)
        body = rt.new("JoinTrap")
        body.bad = 8  # neither region nor surface
        with pytest.raises((MemoryFault, ExecutionError)) as info:
            rt.parallel_reduce_hetero(16, body, on_cpu=True)
        exc = info.value
        assert exc.trap_device == "cpu"
        assert exc.trap_kernel == program.kernel_for("JoinTrap").join_kernel.name
        assert exc.trap_global_id == 0  # the first copy's join
