"""Throughput of the lane-execution engines against each other.

Covers the reference interpreter, the compiled (generated-code) engine
and the columnar vector engine (``docs/VECTOR.md``).

Three measurements, printed as tables (numbers are recorded per-PR in
CHANGES.md):

* **Kernel throughput** — dynamic IR instructions per second achieved by
  each engine running BFS, Raytracer and SkipList end-to-end (build + all
  launches + validation) on the Ultrabook model.
* **JIT price** — what an engine pays before the first work-item of a
  kernel runs: the first runtime over a program generates and compiles
  the kernel's Python text (the compiled engine then binds it to its
  region, the vector engine's text needs no binding), every later runtime
  over the same program finds the code on the program object.  For the
  compiled engine this is printed for all nine workloads next to what the
  per-superblock modules it replaced cost (:data:`PER_SUPERBLOCK_JIT`),
  with the share of units that sit in a dispatch region.
* **Figure 7 sweep wall-clock** — the full nine-workload ultrabook speedup
  sweep (the paper's headline figure), end to end, per engine.

Each measurement is the best of ``REPRO_BENCH_REPEATS`` runs (the standard
``timeit`` convention: the minimum is the least noise-contaminated sample
on a shared machine; higher samples measure scheduler interference, not
the code).

Run as a script (not collected by the tier-1 suite)::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py
    REPRO_BENCH_SCALE=0.4 REPRO_BENCH_REPEATS=3 \
        PYTHONPATH=src python benchmarks/bench_engine_throughput.py
"""

from __future__ import annotations

import os
import time
import warnings

KERNEL_WORKLOADS = ("BFS", "Raytracer", "SkipList")
ENGINES = ("reference", "compiled", "vector")

#: (first-runtime ms, generated lines) of a workload's GPU + CPU kernel on
#: the engine this one replaced — one function per superblock, PR 20's
#: tree, best of 5 on the host that measured CHANGES.md's PR 21 entry.
PER_SUPERBLOCK_JIT = {
    "BarnesHut": (12.2, 1179),
    "BFS": (7.5, 701),
    "BTree": (11.1, 1095),
    "ClothPhysics": (12.5, 1164),
    "ConnectedComponent": (8.1, 840),
    "FaceDetect": (16.0, 1641),
    "Raytracer": (34.2, 3636),
    "SkipList": (9.8, 948),
    "SSSP": (6.5, 582),
}


def _run_workload(name: str, engine: str, scale: float, repeats: int):
    """Execute one workload end-to-end; returns (best seconds, dyn instrs)."""
    from repro.passes import OptConfig
    from repro.runtime.system import ultrabook
    from repro.workloads import all_workloads

    best = float("inf")
    instructions = 0
    for _ in range(repeats):
        workload = all_workloads()[name]()
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            outcome = workload.execute(
                OptConfig.gpu_all(), ultrabook(), scale=scale, engine=engine
            )
        best = min(best, time.perf_counter() - start)
        instructions = sum(r.report.instructions for r in outcome.reports)
    return best, instructions


def _jit_price(name: str, repeats: int):
    """Best (first-runtime ms, second-runtime ms, generated lines) of
    getting one workload's GPU and CPU kernels ready to launch on the
    compiled engine, then the same triple for its GPU kernel on the
    vector engine (classification is where its text is generated), then
    (units in a dispatch region, units) of the compiled engine's code."""
    from repro.exec.compiled import plan_function
    from repro.exec.vector import VectorCodeCache, classify_kernel
    from repro.ir.structure import dispatched, structure
    from repro.passes import OptConfig
    from repro.runtime import ConcordRuntime, compile_source
    from repro.runtime.system import ultrabook
    from repro.workloads import all_workloads

    workload = all_workloads()[name]
    first = second = vfirst = vsecond = float("inf")
    lines = vlines = 0
    for _ in range(repeats):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            program = compile_source(workload.source, OptConfig.gpu_all())
        kinfo = program.kernel_for(workload.body_class)
        costs = []
        for _runtime in range(2):
            rt = ConcordRuntime(program, ultrabook(), region_size=workload.region_size)
            start = time.perf_counter()
            rt.code_cache.get(kinfo.gpu_kernel, "gpu", True)
            rt.code_cache.get(kinfo.kernel, "cpu", True)
            costs.append((time.perf_counter() - start) * 1e3)
        first = min(first, costs[0])
        second = min(second, costs[1])
        lines = sum(code.source.count("\n") for code in program.jit_code.values())
        in_dispatch = units = 0
        for function, _device, _collect in program.jit_code:
            plan = plan_function(function)
            fallen = dispatched(structure(function))
            units += len(plan.units)
            in_dispatch += sum(chain[0] in fallen for chain in plan.units)
        costs = []
        code = VectorCodeCache()  # what the first vector runtime puts on the program
        for _runtime in range(2):
            start = time.perf_counter()
            _kind, _reason, vfn = classify_kernel(code, kinfo.gpu_kernel)
            costs.append((time.perf_counter() - start) * 1e3)
        vfirst = min(vfirst, costs[0])
        vsecond = min(vsecond, costs[1])
        vlines = sum(v.source.count("\n") for v in [vfn, *vfn.subs]) if vfn else 0
    return (first, second, lines), (vfirst, vsecond, vlines), (in_dispatch, units)


def _run_figure7(engine: str, scale: float, repeats: int) -> float:
    from repro.eval.runner import measure_all
    from repro.runtime.system import ultrabook

    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        # measure_all threads the engine through every workload execution.
        measure_all(ultrabook(), scale=scale, engine=engine)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.4"))
    repeats = max(1, int(os.environ.get("REPRO_BENCH_REPEATS", "3")))
    print(f"engine throughput @ scale={scale}, best of {repeats}\n")

    print(f"{'workload':<12} {'engine':<10} {'wall s':>8} {'dyn instr':>12} {'instr/s':>12}")
    kernel_rates: dict[str, dict[str, float]] = {}
    for name in KERNEL_WORKLOADS:
        kernel_rates[name] = {}
        for engine in ENGINES:
            seconds, instructions = _run_workload(name, engine, scale, repeats)
            rate = instructions / seconds if seconds > 0 else 0.0
            kernel_rates[name][engine] = rate
            print(
                f"{name:<12} {engine:<10} {seconds:>8.2f} "
                f"{instructions:>12,} {rate:>12,.0f}"
            )
        ratio = kernel_rates[name]["compiled"] / kernel_rates[name]["reference"]
        vratio = kernel_rates[name]["vector"] / kernel_rates[name]["compiled"]
        print(
            f"{name:<12} {'speedup':<10} {ratio:>8.2f}x compiled/reference, "
            f"{vratio:.2f}x vector/compiled\n"
        )

    print("JIT price (compiled: GPU + CPU kernel, events on; vector: GPU kernel):")
    print(
        f"{'workload':<18} {'engine':<10} {'1st runtime ms':>15} "
        f"{'2nd runtime ms':>15} {'lines':>7}"
    )
    shares = {}
    for name in sorted(PER_SUPERBLOCK_JIT):
        compiled, vector, shares[name] = _jit_price(name, repeats)
        for engine, (first, second, lines) in (("compiled", compiled), ("vector", vector)):
            if engine == "compiled" or name in KERNEL_WORKLOADS:
                print(f"{name:<18} {engine:<10} {first:>15.2f} {second:>15.3f} {lines:>7}")
        was_ms, was_lines = PER_SUPERBLOCK_JIT[name]
        print(f"{name:<18} {'(per-unit)':<10} {was_ms:>15.2f} {'':>15} {was_lines:>7}")
    print(
        "  (1st = generate + compile() [+ bind], 2nd = bind only / lookup on "
        "the program object;\n   per-unit = the per-superblock modules "
        "this engine's whole-function modules replaced)"
    )
    print(
        "  units in a dispatch region: "
        + ", ".join(f"{name} {a}/{b}" for name, (a, b) in shares.items())
        + "\n"
    )

    print("Figure 7 ultrabook sweep (nine workloads, all configs):")
    sweep: dict[str, float] = {}
    for engine in ENGINES:
        sweep[engine] = _run_figure7(engine, scale, repeats)
        print(f"  {engine:<10} {sweep[engine]:>8.2f} s")
    print(
        f"  end-to-end speedup: "
        f"{sweep['reference'] / sweep['compiled']:.2f}x compiled/reference, "
        f"{sweep['compiled'] / sweep['vector']:.2f}x vector/compiled"
    )


if __name__ == "__main__":
    main()
