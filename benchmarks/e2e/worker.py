"""One workload in its own process: set up, warm up, measure, report.

``run.py`` starts one of these per workload so that ``setup_s`` and
``peak_rss_mb`` are clean and no process-wide memo is shared between
workloads.  The last line of standard output is one JSON document.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

#: iterations of each kind in a traced run
TRACED_ITERATIONS = 2


def percentile(samples: list, q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


def iterate(bench, index: int, **kwargs) -> dict:
    # what an iteration leaves behind dies in reference cycles; collect
    # it outside the timed region so peak RSS does not depend on when the
    # collector happens to run (see workloads.CellBench)
    gc.collect()
    return bench.iteration(index, **kwargs)


def measure(bench, seconds: float, min_iters: int) -> list:
    """Closed loop: iterate until both the floor and the time are met."""
    results = []
    started = time.perf_counter()
    while len(results) < min_iters or time.perf_counter() - started < seconds:
        results.append(iterate(bench, len(results)))
    return results


def wall(result: dict) -> float:
    """Wall seconds of one iteration: the sum of its parts."""
    return sum(part[0] for part in result["parts"].values())


def best(results: list, column: int, prefix: str = "") -> float:
    """The undisturbed iteration: every part (cell, compile phase,
    request block) at the best of its readings across the iterations,
    summed.  ``column`` 0 is wall, 1 is CPU seconds.

    Best, not median: interference on a shared host only ever adds time,
    and here it switches between a fast and a ~18 % slower state every
    few seconds, so the median of a 12 s run lands in whichever state
    held longer (README.md, "Best of, not median")."""
    names = sorted({name for r in results for name in r["parts"] if name.startswith(prefix)})
    return sum(
        min(r["parts"][name][column] for r in results if name in r["parts"]) for name in names
    )


def end_to_end(name: str, results: list) -> dict:
    """The workload's end-to-end metrics from its untraced iterations
    (``setup_s``, ``peak_rss_mb`` and ``fail_share`` are added by the
    caller)."""
    from metrics import applies

    out = {"iter_wall_s": best(results, 0), "iter_cpu_s": best(results, 1)}
    if applies("sim_seconds", name):
        out["sim_seconds"] = results[0]["sim_seconds"]
        out["sim_energy_j"] = results[0]["sim_energy_j"]
    if applies("compile_cold_s", name):
        out["compile_cold_s"] = best(results, 0, "cold")
        out["compile_warm_s"] = min(
            part[0] for r in results for key, part in r["parts"].items() if key.startswith("warm.")
        )
    if applies("req_per_s", name):
        done = sum(r["attempted"] - len(r["failed"]) for r in results)
        out["req_per_s"] = done / sum(wall(r) for r in results)
        for kind in ("warm", "cold", "run"):
            out[f"req_{kind}_p50_ms"] = statistics.median(
                ms for r in results for ms in r["latency_ms"][kind]
            )
    return out


def unstable(results: list) -> list:
    """Modeled time and energy are deterministic: every iteration of a
    run must report the same totals."""
    problems = []
    for key in ("sim_seconds", "sim_energy_j"):
        values = {r[key] for r in results if key in r}
        if len(values) > 1:
            problems.append(f"{key} differs between iterations: {sorted(values)}")
    return problems


def per_layer(bench, recorder, counters, traced, reference, warm, daemon) -> dict:
    """Per-iteration layer metrics from the spans (self time = duration
    minus children), the observer's counters and the iterations' own
    results.  ``daemon`` is the /v1/stats delta of a service run."""
    n = len(traced)
    spans = recorder.by_name()

    def self_s(name):
        return spans.get(name, {}).get("self", 0.0) / n

    def total_s(name):
        return spans.get(name, {}).get("total", 0.0) / n

    def count(name):
        return counters.get(name, 0) / n

    def ratio(part, rest):
        return part / (part + rest) if part + rest else 0.0

    def mean(key):
        values = [r[key] for r in traced if key in r]
        return sum(values) / len(values) if values else 0.0

    amounts = recorder.amounts
    lane_s = self_s("backend.launch") + self_s("backend.reduce")
    engine_s = lane_s + self_s("vector.run")  # both engines count instructions
    frontend = spans.get("minicpp.frontend", {}).get("total", 0.0)
    requests = spans.get("daemon.http", {"count": 0, "self": 0.0})
    warm_ms = [ms for r in traced for ms in r.get("latency_ms", {}).get("warm", ())]
    store = [r["store"] for r in traced if "store" in r]
    roots = [row for name, row in spans.items() if name.startswith("harness.")]
    first_iter = 0.0
    if getattr(bench, "engine", "") == "vector":
        first_iter = wall(warm) - statistics.median(wall(r) for r in reference)
    return {
        "workloads.build_s": self_s("workloads.build"),
        "workloads.validate_s": self_s("workloads.validate"),
        "workloads.host_s": self_s("workloads.host"),
        "minicpp.frontend_s": self_s("minicpp.frontend"),
        "minicpp.source_kb_per_s": (
            amounts.get("minicpp.source_bytes", 0) / 1e3 / frontend if frontend else 0.0
        ),
        "passes.pipeline_s": self_s("passes.pipeline"),
        "passes.runs": sum(
            v for k, v in counters.items() if k.startswith("passes.") and k.endswith(".runs")
        ) / n,
        "passes.changed": sum(
            v for k, v in counters.items() if k.startswith("passes.") and k.endswith(".changed")
        ) / n,
        "passes.kernel_ir_instrs": mean("kernel_ir_instrs"),
        "compiler.closure_s": self_s("compiler.closure"),
        "compiler.cached_hit_s": self_s("compiler.cached"),
        "codegen.opencl_bytes": mean("opencl_bytes"),
        "store.get_s": self_s("store.get"),
        "store.put_s": self_s("store.put"),
        "store.hits": sum(s["hits"] for s in store) / n + daemon.get("store.hits", 0) / n,
        "store.misses": sum(s["misses"] for s in store) / n + daemon.get("store.misses", 0) / n,
        "store.bytes": max([s["bytes"] for s in store] + [daemon.get("store.bytes", 0)]),
        "daemon.handler_s": total_s("daemon.handler"),
        "daemon.http_overhead_ms": (
            requests["self"] / requests["count"] * 1e3 if requests["count"] else 0.0
        ),
        "daemon.warm_p99_ms": percentile(warm_ms, 0.99) if warm_ms else 0.0,
        "daemon.memory_hits": daemon.get("service.memory_hits", 0) / n,
        "daemon.closure_hits": daemon.get("service.closure_hits", 0) / n,
        "daemon.errors": daemon.get("service.errors", 0) / n,
        "sched.run_s": self_s("sched.run"),
        "sched.chunks": count("sched.chunks.gpu") + count("sched.chunks.cpu"),
        "sched.probes": count("sched.probes"),
        "sched.gpu_item_share": ratio(count("sched.items.gpu"), count("sched.items.cpu")),
        "graph.submit_s": self_s("graph.submit"),
        "graph.wait_s": self_s("graph.wait"),
        "graph.waves": amounts.get("graph.waves", 0) / n,
        "graph.conservative_ratio": (
            amounts.get("graph.conservative", 0) / amounts["graph.constructs"]
            if amounts.get("graph.constructs")
            else 0.0
        ),
        "graph.overlap_speedup": mean("overlap_speedup"),
        "backend.launch_s": total_s("backend.launch"),
        "backend.reduce_s": total_s("backend.reduce"),
        "backend.jit_s": total_s("backend.jit"),
        "backend.construct_s": self_s("backend.construct"),
        "exec.lane_s": lane_s,
        "exec.instructions": count("engine.instructions"),
        "exec.minstr_per_s": (
            count("engine.instructions") / 1e6 / engine_s if engine_s else 0.0
        ),
        "exec.code_cache_hit_ratio": ratio(
            count("code_cache.hits"), count("code_cache.compilations")
        ),
        "mem_events.kept": count("mem_events.kept"),
        "mem_events.dropped": count("mem_events.dropped"),
        "vector.run_s": self_s("vector.run"),
        "vector.classify_s": self_s("vector.classify"),
        "vector.mask_occupancy_ratio": (
            count("vector.mask_occupancy") / count("vector.mask_slots")
            if count("vector.mask_slots")
            else 0.0
        ),
        "vector.kernels_vectorized": count("vector.kernels_vectorized"),
        "vector.probe_first_iter_s": first_iter,
        "gpu.timing_s": self_s("gpu.timing"),
        "cpu.timing_s": self_s("cpu.timing"),
        "gpu.l3_hit_ratio": ratio(count("gpu.l3.hits"), count("gpu.l3.misses")),
        "gpu.contention_events": count("gpu.contention_events"),
        "gpu.issue_slots": count("gpu.issue_slots"),
        "obs.trace_overhead_ratio": statistics.median(wall(r) for r in traced)
        / statistics.median(wall(r) for r in reference),
        "trace.attributed_ratio": 1.0
        - sum(row["self"] for row in roots) / sum(row["total"] for row in roots),
    }


def daemon_counts(stats: dict) -> dict:
    counts = dict(stats["counters"])
    for key in ("hits", "misses", "bytes"):
        counts[f"store.{key}"] = stats["store"][key]
    return counts


def trace(bench, warm: dict) -> tuple:
    """Reference iterations untraced, then the same iterations with the
    span wrappers installed and an observer attached for counts."""
    import spans
    from repro.obs import Observer
    from workloads import ServiceMix

    reference = [iterate(bench, i) for i in range(TRACED_ITERATIONS)]
    service = isinstance(bench, ServiceMix)
    before = daemon_counts(bench.client.stats()) if service else {}
    recorder = spans.Recorder()
    observer = Observer()
    undo = spans.install(recorder)
    bench.recorder = recorder
    try:
        traced = [iterate(bench, i, observer=observer) for i in range(TRACED_ITERATIONS)]
    finally:
        bench.recorder = None
        spans.uninstall(undo)
    daemon = {}
    if service:
        after = daemon_counts(bench.client.stats())
        daemon = {key: after[key] - before.get(key, 0) for key in after}
        daemon["store.bytes"] = after["store.bytes"]
    layers = per_layer(
        bench, recorder, observer.counters.as_dict(), traced, reference, warm, daemon
    )
    # shares of the traced time: the harness's root spans cover it all
    # (one per iteration, or one per client thread)
    names = recorder.by_name()
    covered = sum(row["total"] for name, row in names.items() if name.startswith("harness."))
    shares = {name: row["self"] / covered for name, row in sorted(names.items())}
    return reference + traced, layers, shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-iters", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--smoke", type=int, default=0)
    args = parser.parse_args(argv)

    # restriction fallbacks (ConcordWarning) are expected and not ours
    warnings.simplefilter("ignore")
    from workloads import BENCHES

    bench = BENCHES[args.workload](args.seed, args.work_dir, smoke=bool(args.smoke))
    if args.traced:
        bench.in_process = True
    layers = shares = None
    try:
        bench.setup()
        warm = iterate(bench, -1, scale=bench.warmup_scale)
        setup_s = time.monotonic() - args.spawned_at
        if args.traced:
            results, layers, shares = trace(bench, warm)
        else:
            results = measure(bench, args.seconds, args.min_iters)
    finally:
        bench.close()

    counted = [warm] + results
    failures = [message for r in counted for message in r["failed"]] + unstable(results)
    attempted = sum(r["attempted"] for r in counted)
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # the daemon
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "iterations": len(results),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "iter_wall_samples": [wall(r) for r in results],
    }
    if layers is None:
        doc["end_to_end"] = {
            "setup_s": setup_s,
            **end_to_end(args.workload, results),
            "peak_rss_mb": usage / 1024.0,
            "fail_share": len(failures) / attempted,
        }
    else:
        doc["per_layer"] = layers
        doc["self_time_shares"] = shares
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
