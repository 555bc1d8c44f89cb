"""The six benchmark workloads.

Each class generates its inputs from the seed in ``setup`` and does one
closed-loop iteration in ``iteration``: the next one starts when the
previous one ends.  An iteration returns what it measured — the wall
and CPU seconds of each of its *parts* (a cell, a compile phase, a
request block; the harness's own clean-up is in none of them), the
operations attempted, a message per failed operation, and the
workload's own quantities.  Workloads, scales and mixes are fixed; only
the iteration count is the caller's.
"""

from __future__ import annotations

import collections
import gc
import http.client
import math
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from contextlib import nullcontext

from repro.eval.runner import WORKLOAD_ORDER
from repro.passes import OptConfig
from repro.runtime.system import ultrabook
from repro.service import ServiceClient
from repro.workloads import all_workloads

import spans

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["repro"].__file__)))


class Stopwatch:
    """Wall and process-CPU seconds of a ``with`` block, filed under
    ``parts[name]`` as ``[wall, cpu]``."""

    def __init__(self, parts: dict, name: str):
        self.parts, self.name = parts, name

    def __enter__(self):
        self._wall = time.perf_counter()
        self._cpu = time.process_time()
        return self

    def __exit__(self, *_exc):
        self.parts[self.name] = [
            time.perf_counter() - self._wall,
            time.process_time() - self._cpu,
        ]
        return False


def new_result() -> dict:
    return {"attempted": 0, "failed": [], "parts": {}}


class Bench:
    """Common shape.  ``smoke`` shrinks scales to 0.2x (and the service
    block to 100 requests) for the harness's own test."""

    name = ""
    #: scale of the untimed warm-up iteration relative to a timed one
    warmup_scale = 1.0

    def __init__(self, seed: int, work_dir: str, smoke: bool = False):
        self.seed = seed
        self.work_dir = work_dir
        self.shrink = 0.2 if smoke else 1.0
        self.smoke = smoke
        #: a ``spans.Recorder`` while a traced iteration runs, else None
        self.recorder = None

    def rng(self, index: int) -> random.Random:
        return random.Random(self.seed * 1_000_003 + index)

    def root_span(self, name: str = "harness.iteration"):
        """The harness's own span around an iteration (or a client
        thread): its self time is what no layer accounts for."""
        if self.recorder is None:
            return nullcontext()
        return self.recorder.span(name)

    def setup(self) -> None:
        pass

    def iteration(self, index: int, observer=None, scale: float = 1.0) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        pass


# -- simulator workloads -------------------------------------------------------


class CellBench(Bench):
    """Iterations made of ``Workload.execute`` cells, shuffled by seed so
    host drift within an iteration hits every cell equally.

    Each cell is timed on its own and a ``gc.collect()`` runs between
    cells, outside the timed region: a dead runtime is a reference cycle
    holding a 16 MB region, the collector's own schedule depends on the
    shuffled order, and without the collection peak RSS spreads 20 %
    from seed to seed."""

    cells: tuple = ()  # (workload name, on_cpu)
    engine = "compiled"
    scale = 1.0
    execute_args: dict = {}

    def setup(self) -> None:
        self.registry = all_workloads()
        self.system = ultrabook()
        self.config = OptConfig.gpu_all()

    def run_cells(self, index: int, observer, scale: float, result: dict) -> None:
        order = list(self.cells)
        if index >= 0:  # the warm-up keeps the listed order: one start state for all seeds
            self.rng(index).shuffle(order)
        for name, on_cpu in order:
            result["attempted"] += 1
            part = f"{name}:{'cpu' if on_cpu else 'gpu'}"
            gc.collect()
            try:
                with self.root_span(), Stopwatch(result["parts"], part):
                    outcome = self.registry[name]().execute(
                        self.config,
                        self.system,
                        on_cpu=on_cpu,
                        scale=self.scale * self.shrink * scale,
                        validate=True,
                        engine=self.engine,
                        observer=observer,
                        **self.execute_args,
                    )
            except Exception as exc:  # a failed cell is a counted failure
                result["failed"].append(f"{part}: {exc!r}")
                continue
            stats = outcome.graph_stats
            # graph runs report the virtual wall-clock, not the sum
            result["sim"].append(outcome.seconds if stats is None else stats.wall_seconds)
            result["energy"].append(outcome.energy_joules)

    def iteration(self, index: int, observer=None, scale: float = 1.0) -> dict:
        result = dict(new_result(), sim=[], energy=[])
        self.run_cells(index, observer, scale, result)
        return self.finish(result)

    def finish(self, result: dict) -> dict:
        # fsum is exactly rounded, so the shuffled cell order cannot move
        # the last digits of a deterministic total
        result["sim_seconds"] = math.fsum(result.pop("sim"))
        result["sim_energy_j"] = math.fsum(result.pop("energy"))
        # instructions in the lowered kernels this workload launches (the
        # programs are in the cache by now)
        result["kernel_ir_instrs"] = sum(
            len(block.instructions)
            for name in sorted({name for name, _on_cpu in self.cells})
            for kinfo in self.registry[name].compile(self.config).kernels.values()
            for block in kinfo.gpu_kernel.blocks
        )
        return result


class PaperSweep(CellBench):
    name = "paper_sweep"
    cells = tuple((name, on_cpu) for name in WORKLOAD_ORDER for on_cpu in (False, True))
    # Code caches are per runtime, so a warm-up only has to fill the
    # program cache and warm the interpreter; a fifth of the input does
    # that at a fifth of the cost of the most expensive iteration here.
    warmup_scale = 0.2


class VectorDense(CellBench):
    name = "vector_dense"
    engine = "vector"
    cells = tuple((n, False) for n in ("BarnesHut", "ClothPhysics", "FaceDetect", "Raytracer"))


class VectorIrregular(CellBench):
    name = "vector_irregular"
    engine = "vector"
    cells = tuple(
        (n, False) for n in ("BFS", "BTree", "ConnectedComponent", "SkipList", "SSSP")
    )


class HeteroSched(CellBench):
    name = "hetero_sched"
    scale = 0.5
    cells = tuple((name, False) for name in WORKLOAD_ORDER)
    execute_args = {"policy": "hybrid", "graph": True}

    def iteration(self, index: int, observer=None, scale: float = 1.0) -> dict:
        from repro.eval import overlap

        result = dict(new_result(), sim=[], energy=[])
        with self.root_span(), Stopwatch(result["parts"], "overlap"):
            figure = overlap.measure_overlap(self.system, self.scale * self.shrink * scale)
        for point in figure.points:
            result["attempted"] += 1
            if not point.identical:
                result["failed"].append(f"{point.scenario}: graph run not bit-identical")
            result["sim"].append(point.graph_seconds)
        self.run_cells(index, observer, scale, result)
        speedups = [point.speedup for point in figure.points]
        result["overlap_speedup"] = math.prod(speedups) ** (1.0 / len(speedups))
        return self.finish(result)


# -- compile_mix ---------------------------------------------------------------


class CompileMix(Bench):
    name = "compile_mix"
    warmup_scale = 0.25
    FUZZ_PROGRAMS = 40
    WARM_ROUNDS = 3

    def setup(self) -> None:
        from repro.fuzz.srcgen import generate_source_program

        self.programs = [
            (cls.source, config, cls.name)
            for name, cls in sorted(all_workloads().items())
            if name in WORKLOAD_ORDER
            for config in OptConfig.all_configs()
        ]
        rng = self.rng(-2)
        count = max(1, round(self.FUZZ_PROGRAMS * self.shrink))
        for index in range(count):
            program = generate_source_program(rng, seed=self.seed)
            self.programs.append((program.source, OptConfig.gpu_all(), f"fuzz{index}"))
        if self.smoke:
            self.programs = self.programs[::4]
        self.store_dir = os.path.join(self.work_dir, "compile-store")

    def iteration(self, index: int, observer=None, scale: float = 1.0) -> dict:
        from repro.runtime import compiler
        from repro.service.store import ArtifactStore

        order = list(self.programs)
        self.rng(index).shuffle(order)
        order = order[: max(1, round(len(order) * scale))]  # the warm-up is a sample
        result = new_result()
        parts = result["parts"]
        store = ArtifactStore(self.store_dir)
        cold_ids = {}
        result["kernel_ir_instrs"] = result["opencl_bytes"] = 0

        def attempt(key, compile_one):
            result["attempted"] += 1
            try:
                return compile_one()
            except Exception as exc:  # a failed compile is a counted failure
                result["failed"].append(f"{key[2]} {key[1].label}: {exc!r}")
                return None

        def through_store(key, want_closure):
            source, config, module_name = key
            program, stages = compiler.compile_cached(
                source, config, module_name, store=store, observer=observer
            )
            if stages["closure"] != want_closure:
                raise AssertionError(f"expected a closure {want_closure}, got {stages}")
            if program.program_id != cold_ids.get(key):
                raise AssertionError("store program_id differs from the cold compile's")

        with self.root_span():
            with Stopwatch(parts, "cold"):  # (a) cold, in memory
                for key in order:
                    source, config, module_name = key
                    program = attempt(
                        key,
                        lambda: compiler.compile_source(
                            source, config, module_name, observer=observer
                        ),
                    )
                    if program is not None:
                        # keep the id and two sizes, not the program: holding 76
                        # of them would change the memory the phases run in
                        cold_ids[key] = program.program_id
                        for kinfo in program.kernels.values():
                            result["opencl_bytes"] += len(kinfo.opencl_source)
                            result["kernel_ir_instrs"] += sum(
                                len(block.instructions) for block in kinfo.gpu_kernel.blocks
                            )
            with Stopwatch(parts, "miss"):  # (b) fresh store: every closure a miss + put
                for key in order:
                    attempt(key, lambda: through_store(key, "miss"))
            for index in range(self.WARM_ROUNDS):  # (c) all hit
                with Stopwatch(parts, f"warm.{index}"):
                    for key in order:
                        attempt(key, lambda: through_store(key, "hit"))
        result["store"] = {
            "hits": store.hits,
            "misses": store.misses,
            "bytes": store.stats()["bytes"],
        }
        shutil.rmtree(self.store_dir)  # the next iteration's store is fresh
        return result


# -- service_mix ---------------------------------------------------------------


class ServiceMix(Bench):
    name = "service_mix"
    CLIENTS = 2
    POOL = 32
    WARM, COLD, RUNS = 450, 20, 30
    RUN_WORKLOADS = ("BTree", "BFS", "SkipList")
    RUN_SCALE = 0.2

    #: traced runs host the daemon in this process so its handlers and
    #: store can be wrapped; end-to-end numbers never come from that mode
    in_process = False

    def setup(self) -> None:
        from repro.service.loadgen import generate_sources

        if self.smoke:
            self.WARM, self.COLD, self.RUNS = 90, 4, 6
        # distinct-but-similar client programs; the seed picks which
        candidates = generate_sources(4096)
        self.rng(-2).shuffle(candidates)
        self.pool = candidates[: self.POOL]
        self.fresh = iter(candidates[self.POOL :])
        self.process = None
        self.server = None
        store_dir = os.path.join(self.work_dir, "service-store")
        if self.in_process:
            self.host_in_process(store_dir)
        else:
            self.start_daemon(store_dir)
        # pre-warm: the pool and the three run workloads
        for source in self.pool:
            self.client.compile(source=source, config="GPU+ALL")
        for name in self.RUN_WORKLOADS:
            self.client.run(**self.run_payload(name))

    def start_daemon(self, store_dir: str) -> None:
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", store_dir, "--port", "0"],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        banner = self.process.stdout.readline()  # "... listening on http://host:port (...)"
        if "http://" not in banner:
            self.process.kill()
            self.process.wait()
            raise RuntimeError(f"daemon did not start: {banner!r}")
        host, port = banner.split("http://", 1)[1].split()[0].rsplit(":", 1)
        self.client = ServiceClient(host, int(port), timeout=120)

    def host_in_process(self, store_dir: str) -> None:
        from repro.service.daemon import serve

        self.server, _service = serve(store_dir, port=0)
        self.client = ServiceClient(*self.server.server_address[:2], timeout=120)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    def run_payload(self, name: str) -> dict:
        return {"workload": name, "scale": self.RUN_SCALE * self.shrink}

    def daemon_cpu(self) -> float:
        if self.process is None:
            return 0.0  # hosted in-process: already in process_time()
        with open(f"/proc/{self.process.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def iteration(self, index: int, observer=None, scale: float = 1.0) -> dict:
        rng = self.rng(index)
        plan = [("warm", rng.choice(self.pool)) for _ in range(self.WARM)]
        plan += [("cold", next(self.fresh)) for _ in range(self.COLD)]
        plan += [("run", self.RUN_WORKLOADS[i % 3]) for i in range(self.RUNS)]
        rng.shuffle(plan)
        queue = collections.deque(plan)
        result = dict(new_result(), attempted=len(plan))
        latencies = {"warm": [], "cold": [], "run": []}

        def send(kind: str, what: str, payload: dict) -> dict:
            # one connection per request, as the repo's own client does
            if kind == "run":
                return self.client.run(**self.run_payload(what), **payload)
            return self.client.compile(source=what, config="GPU+ALL", **payload)

        def client() -> None:
            while True:
                try:
                    kind, what = queue.popleft()
                except IndexError:
                    return
                started = time.perf_counter()
                try:
                    if self.recorder is None:
                        reply = send(kind, what, {})
                    else:
                        with self.recorder.span("daemon.http") as span:
                            reply = send(kind, what, {spans.SPAN_KEY: span})
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    reply = {"ok": False, "error": repr(exc)}
                # list.append is atomic: the two clients need no lock
                latencies[kind].append((time.perf_counter() - started) * 1e3)
                if not reply.get("ok"):
                    result["failed"].append(f"{kind}: {reply.get('error')}")

        def client_thread() -> None:
            with self.root_span("harness.client"):
                client()

        threads = [threading.Thread(target=client_thread) for _ in range(self.CLIENTS)]
        daemon_cpu = self.daemon_cpu()
        with Stopwatch(result["parts"], "block"):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        result["parts"]["block"][1] += self.daemon_cpu() - daemon_cpu
        result["latency_ms"] = latencies
        return result

    def close(self) -> None:
        if self.process is not None:
            try:
                self.client.shutdown()
                self.process.wait(timeout=20)
            except (OSError, http.client.HTTPException, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()
            self.process.stdout.close()
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=20)


BENCHES = {
    cls.name: cls
    for cls in (PaperSweep, VectorDense, VectorIrregular, CompileMix, HeteroSched, ServiceMix)
}
