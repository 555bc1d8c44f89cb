"""Names, units, directions and bounds of every metric the harness emits.

``BENCHMARK.json`` at the repository root repeats the subset the
benchmark contract can carry (see ``contract_end_to_end``);
``test_harness.py`` checks the two stay in step.
"""

from __future__ import annotations

WORKLOADS = {
    "paper_sweep": "nine Table-1 workloads, scale 1.0, compiled engine, GPU+ALL on GPU and "
    "on CPU: what a repro.eval user waits for; exec.compiled, backend and the timing "
    "models do the work",
    "vector_dense": "BarnesHut, ClothPhysics, FaceDetect, Raytracer on the vector engine: "
    "the data-parallel-friendly half, exec.vector columnar units do the work",
    "vector_irregular": "BFS, BTree, ConnectedComponent, SkipList, SSSP on the vector "
    "engine: probe, classification and scalar fallback dominate; bypasses what "
    "vector_dense exercises",
    "compile_mix": "76 programs cold, into a fresh store, then 3 all-hit rounds: frontend, "
    "passes, codegen and the artifact store do the work, engines none",
    "hetero_sched": "overlap scenarios plus nine workloads under policy=hybrid, graph=True: "
    "the only workload where sched and runtime.graph decide anything",
    "service_mix": "daemon subprocess, 2 closed-loop clients, blocks of 450 warm compiles, "
    "20 cold compiles, 30 runs: HTTP handling, _exec_lock, memory LRU and store dominate",
}

SIMULATOR = ("paper_sweep", "vector_dense", "vector_irregular", "hetero_sched")
EVERY = tuple(WORKLOADS)

#: name -> (unit, better, bound, workloads).  ``bound`` is the share of
#: the reference value by which the metric may get worse; 0 means the
#: metric is deterministic and must match exactly (1e-9 relative).
#: Host measurements carry 0.25: on the shared 2-core reference host ten
#: runs of one commit on ten seeds spread 3-12 % (peak RSS of the daemon
#: 10-13 %), and a bound has to stay clear of the spread.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25, EVERY),
    "iter_wall_s": ("s", "lower", 0.25, EVERY),
    "iter_cpu_s": ("s", "lower", 0.25, EVERY),
    "sim_seconds": ("s", "lower", 0.0, SIMULATOR),
    "sim_energy_j": ("J", "lower", 0.0, SIMULATOR),
    "compile_cold_s": ("s", "lower", 0.25, ("compile_mix",)),
    "compile_warm_s": ("s", "lower", 0.25, ("compile_mix",)),
    "req_per_s": ("1/s", "higher", 0.25, ("service_mix",)),
    "req_warm_p50_ms": ("ms", "lower", 0.25, ("service_mix",)),
    "req_cold_p50_ms": ("ms", "lower", 0.25, ("service_mix",)),
    "req_run_p50_ms": ("ms", "lower", 0.25, ("service_mix",)),
    "peak_rss_mb": ("MB", "lower", 0.25, EVERY),
    "fail_share": ("ratio", "lower", 0.0, EVERY),
}

#: name -> (unit, better).  Emitted by the traced run on every workload;
#: a layer a workload never enters reads 0.
PER_LAYER = {
    "workloads.build_s": ("s", "lower"),
    "workloads.validate_s": ("s", "lower"),
    "workloads.host_s": ("s", "lower"),
    "minicpp.frontend_s": ("s", "lower"),
    "minicpp.source_kb_per_s": ("kB/s", "higher"),
    "passes.pipeline_s": ("s", "lower"),
    "passes.runs": ("count", "lower"),
    "passes.changed": ("count", "lower"),
    "passes.kernel_ir_instrs": ("count", "lower"),
    "compiler.closure_s": ("s", "lower"),
    "compiler.cached_hit_s": ("s", "lower"),
    "codegen.opencl_bytes": ("B", "lower"),
    "store.get_s": ("s", "lower"),
    "store.put_s": ("s", "lower"),
    "store.hits": ("count", "higher"),
    "store.misses": ("count", "lower"),
    "store.bytes": ("B", "lower"),
    "daemon.handler_s": ("s", "lower"),
    "daemon.http_overhead_ms": ("ms", "lower"),
    "daemon.warm_p99_ms": ("ms", "lower"),
    "daemon.memory_hits": ("count", "higher"),
    "daemon.closure_hits": ("count", "higher"),
    "daemon.errors": ("count", "lower"),
    "sched.run_s": ("s", "lower"),
    "sched.chunks": ("count", "lower"),
    "sched.probes": ("count", "lower"),
    "sched.gpu_item_share": ("ratio", "higher"),
    "graph.submit_s": ("s", "lower"),
    "graph.wait_s": ("s", "lower"),
    "graph.waves": ("count", "lower"),
    "graph.conservative_ratio": ("ratio", "lower"),
    "graph.overlap_speedup": ("ratio", "higher"),
    "backend.launch_s": ("s", "lower"),
    "backend.reduce_s": ("s", "lower"),
    "backend.jit_s": ("s", "lower"),
    "backend.construct_s": ("s", "lower"),
    "exec.lane_s": ("s", "lower"),
    "exec.instructions": ("count", "lower"),
    "exec.minstr_per_s": ("M/s", "higher"),
    "exec.code_cache_hit_ratio": ("ratio", "higher"),
    "mem_events.kept": ("count", "lower"),
    "mem_events.dropped": ("count", "lower"),
    "vector.run_s": ("s", "lower"),
    "vector.classify_s": ("s", "lower"),
    "vector.mask_occupancy_ratio": ("ratio", "higher"),
    "vector.kernels_vectorized": ("count", "higher"),
    "vector.probe_first_iter_s": ("s", "lower"),
    "gpu.timing_s": ("s", "lower"),
    "cpu.timing_s": ("s", "lower"),
    "gpu.l3_hit_ratio": ("ratio", "higher"),
    "gpu.contention_events": ("count", "lower"),
    "gpu.issue_slots": ("count", "lower"),
    "obs.trace_overhead_ratio": ("ratio", "lower"),
    "trace.attributed_ratio": ("ratio", "higher"),
    "host.calibration_ops_per_s": ("1/s", "higher"),
    "host.calibration_drift_ratio": ("ratio", "lower"),
}

#: A run whose host calibration moved by more than this between its
#: start and its end is reported *unresolved*, not pass or fail.
DRIFT_LIMIT = 0.10


def applies(name: str, workload: str) -> bool:
    return workload in END_TO_END[name][3]


def contract_end_to_end() -> list:
    """The end-to-end metrics ``BENCHMARK.json`` lists: the contract
    wants every listed metric measured on every workload and never 0,
    which rules out the workload-specific ones and ``fail_share`` (the
    contract carries failures as ``attempted``/``failed`` instead)."""
    return [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, (unit, better, bound, where) in END_TO_END.items()
        if where == EVERY and bound > 0
    ]


def worse_by(name: str, reference: float, value: float) -> float:
    """How much worse ``value`` is than ``reference``, as a share of the
    reference (negative = better)."""
    if reference == 0:
        return 0.0 if value == 0 else float("inf")
    gap = (value - reference) / abs(reference)
    return gap if END_TO_END[name][1] == "lower" else -gap
