"""End-to-end benchmark of the simulator, compiler and service.

    python3 benchmarks/e2e/run.py --all --seed N            every workload
    python3 benchmarks/e2e/run.py --all --traced            plus the per-layer run
    python3 benchmarks/e2e/run.py --workload paper_sweep    one workload
    python3 benchmarks/e2e/run.py --aa                      same tree twice, gaps vs bounds
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
                                                            the BENCHMARK.json form

Every workload runs in its own ``worker.py`` subprocess.  Every metric
is printed by name with its unit; the last line of standard output is
one JSON object.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

#: ``run_seconds`` of BENCHMARK.json: a run measures this long ...
DEFAULT_SECONDS = 12
#: ... and never fewer iterations than this.  Time, not a count, ends a
#: run so that the driver's 136 runs fit its time cap on a slow day too;
#: the floor only binds paper_sweep, whose iterations take 6 s.
MIN_ITERS = 3


def calibrate(iterations: int = 50_000, repeats: int = 40) -> float:
    """Ops/s of a fixed integer loop: the yardstick for host drift.
    Frozen here on purpose — it must not move when the ledger's does.
    Best of many short loops: interference on a shared host comes in
    millisecond bursts, and the fastest loop is the one that met none."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(iterations):
            acc = (acc + i * 3) ^ (i & 7)
        best = min(best, time.perf_counter() - start)
    return 3 * iterations / best


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """One worker subprocess, bracketed by host calibration."""
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(ROOT, ".bench_work"))
    before = calibrate()
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(0 if smoke else seconds),
        "--min-iters", str(1 if smoke else MIN_ITERS),
        "--work-dir", work_dir,
        "--traced", str(int(traced)),
        "--smoke", str(int(smoke)),
        "--spawned-at", repr(time.monotonic()),
    ]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"{name}: worker exited with {done.returncode}")
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    after = calibrate()
    doc["host"] = {
        "host.calibration_ops_per_s": before,
        "host.calibration_drift_ratio": abs(after - before) / before,
    }
    if traced:
        doc["per_layer"].update(doc["host"])
    return doc


def unresolved(doc: dict) -> bool:
    return doc["host"]["host.calibration_drift_ratio"] > metrics.DRIFT_LIMIT


def show(doc: dict) -> None:
    """Every metric of one run by name, with its unit."""
    kind = "per_layer" if "per_layer" in doc else "end_to_end"
    print(
        f"== {doc['workload']} ({kind}, seed {doc['seed']}, {doc['iterations']} iterations, "
        f"{doc['attempted']} operations, {doc['failed']} failed)"
    )
    for message in doc["failures"]:
        print(f"   FAILED {message}")
    print("   iteration wall seconds: " + " ".join(f"{w:.3f}" for w in doc["iter_wall_samples"]))
    if kind == "end_to_end":
        for name, value in doc["end_to_end"].items():
            unit, _better, bound, _where = metrics.END_TO_END[name]
            print(f"   {name:<28} {value:>16.6g} {unit:<6} bound {bound:.2f}")
        for name, value in doc["host"].items():
            print(f"   {name:<28} {value:>16.6g} {metrics.PER_LAYER[name][0]}")
    else:
        for name, value in doc["per_layer"].items():
            print(f"   {name:<28} {value:>16.6g} {metrics.PER_LAYER[name][0]}")
        print("   self-time shares of the traced time:")
        for name, share in sorted(doc["self_time_shares"].items(), key=lambda kv: -kv[1]):
            print(f"     {name:<26} {share:>8.2%}")
    if unresolved(doc):
        print(
            f"   UNRESOLVED: host calibration drifted by more than "
            f"{metrics.DRIFT_LIMIT:.0%} during this run; its timings settle nothing"
        )


def run_set(names, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    docs = {}
    for name in names:
        docs[name] = {"end_to_end": run_workload(name, seed, seconds, False, smoke)}
        show(docs[name]["end_to_end"])
        if traced:
            docs[name]["per_layer"] = run_workload(name, seed, seconds, True, smoke)
            reference = docs[name]["end_to_end"]["end_to_end"]["iter_wall_s"]
            show(docs[name]["per_layer"])
            print(f"   (untraced iter_wall_s of the end-to-end run: {reference:.6g} s)")
    return docs


def correct(docs: dict) -> bool:
    return all(run["failed"] == 0 for doc in docs.values() for run in doc.values())


def compare(first: dict, second: dict) -> int:
    """A/A: per (workload, metric) the relative gap beside its bound;
    returns the number of breaches.  A pair with a drifting host is
    *unresolved* and counts as neither."""
    breaches = 0
    print(f"{'workload':<18}{'metric':<18}{'first':>14}{'second':>14}{'gap':>9}{'bound':>7}")
    for workload in first:
        one, two = first[workload]["end_to_end"], second[workload]["end_to_end"]
        drifting = unresolved(one) or unresolved(two)
        for name, (_unit, _better, bound, _where) in metrics.END_TO_END.items():
            if name not in one["end_to_end"]:
                continue
            a, b = one["end_to_end"][name], two["end_to_end"][name]
            gap = abs(metrics.worse_by(name, a, b))
            if bound == 0:
                verdict = "ok" if gap <= 1e-9 else "BREACH"
            elif gap <= bound:
                verdict = "ok"
            else:
                verdict = "unresolved" if drifting else "BREACH"
            breaches += verdict == "BREACH"
            print(f"{workload:<18}{name:<18}{a:>14.6g}{b:>14.6g}{gap:>9.2%}{bound:>7.2f}  {verdict}")
    return breaches


def result(doc: dict, only=None) -> dict:
    """One run as the benchmark contract words it: correctness, the
    operation counts, and each metric with its unit.  ``only`` keeps the
    named metrics (the ones BENCHMARK.json lists)."""
    if "per_layer" in doc:
        values, units = doc["per_layer"], {n: u for n, (u, _b) in metrics.PER_LAYER.items()}
    else:
        values = {**doc["end_to_end"], **doc["host"]}
        units = {n: spec[0] for n, spec in {**metrics.PER_LAYER, **metrics.END_TO_END}.items()}
    return {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
            if only is None or name in only
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(metrics.WORKLOADS))
    mode.add_argument("--all", action="store_true", help="every workload")
    mode.add_argument("--aa", action="store_true", help="every workload twice, same seed")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = only the per-layer run")
    parser.add_argument("--traced", action="store_true",
                        help="add the per-layer run after the end-to-end one")
    parser.add_argument("--smoke", action="store_true",
                        help="1 iteration, scales x 0.2, one block of 100 requests")
    args = parser.parse_args(argv)

    if args.workload and not args.traced:
        doc = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        show(doc)
        listed = None if args.trace else {m["name"] for m in metrics.contract_end_to_end()}
        print(json.dumps(result(doc, listed)))
        return 0  # the result line carries correctness

    names = [args.workload] if args.workload else list(metrics.WORKLOADS)
    first = run_set(names, args.seed, args.seconds, args.traced, args.smoke)
    ok = correct(first)
    if args.aa:
        second = run_set(names, args.seed, args.seconds, False, args.smoke)
        breaches = compare(first, second)
        print(f"A/A: {breaches} breach(es)")
        ok = ok and correct(second) and breaches == 0
    print(json.dumps({w: {kind: result(run) for kind, run in doc.items()} for w, doc in first.items()}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
