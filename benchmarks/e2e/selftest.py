"""Does the yardstick catch a slowdown of known size in a known layer?

Slows ``time_gpu_kernel`` by 10 % of its own duration (a busy-wait after
each call) and checks the interaction table of README.md live:

* on ``paper_sweep`` the traced ``gpu.timing`` self time rises by 10 %,
  no other layer moves, and ``iter_wall_s`` rises by about 10 % x the
  ``gpu.timing`` share;
* ``compile_mix`` never enters the slowed layer and stays within its
  bound;
* ``sim_seconds`` is identical with and without the slowdown.

The injection lives here and nowhere else: ``run.py`` has no path to it.
The end-to-end rise is about 1 % of an iteration — far inside the
``iter_wall_s`` bound and below what a shared host lets wall time
resolve, which is the reason the per-layer trace exists.  So every cell
runs with the slowdown off and on back to back, ``--repeats`` times, and
the best time of each side is compared (interference only ever adds
time); the wall-clock rise is printed beside its prediction and marked
*unresolved* when the layers that were not slowed moved by as much.

    python3 benchmarks/e2e/selftest.py [--repeats N] [--smoke]
"""

from __future__ import annotations

import argparse
import gc
import os
import shutil
import sys
import tempfile
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402

SLOWDOWN = 0.10
#: how far a best-of-N layer time may sit from its expectation
TOLERANCE = 0.05


class Injection:
    """``time_gpu_kernel`` followed, while ``on``, by a busy-wait of
    ``SLOWDOWN`` times the call's own duration."""

    def __init__(self, original):
        self.original = original
        self.on = False
        self.calls = 0

    def __call__(self, *args, **kwargs):
        start = time.perf_counter()
        report = self.original(*args, **kwargs)
        if self.on:
            until = time.perf_counter() + SLOWDOWN * (time.perf_counter() - start)
            while time.perf_counter() < until:
                pass
            self.calls += 1
        return report


def best_of(bench, recorder, injection, units, repeats: int) -> dict:
    """Run every unit of work (a cell, or a whole iteration) off and on,
    alternating which goes first; keep per side the best wall time and
    the best ``gpu.timing`` self time of each unit, and sum them."""
    wall = {False: {}, True: {}}
    timing = {False: {}, True: {}}
    sims = {False: {}, True: {}}
    for repeat in range(repeats):
        for unit in units:
            for on in (False, True) if repeat % 2 == 0 else (True, False):
                if unit is not None:
                    bench.cells = (unit,)
                gc.collect()
                mark = len(recorder.spans)
                injection.on = on
                outcome = bench.iteration(0)
                injection.on = False
                if outcome["failed"]:
                    raise SystemExit(f"selftest: {outcome['failed']}")
                layer = recorder.by_name(mark).get("gpu.timing", {"self": 0.0})["self"]
                seconds = sum(part[0] for part in outcome["parts"].values())
                wall[on][unit] = min(wall[on].get(unit, float("inf")), seconds)
                timing[on][unit] = min(timing[on].get(unit, float("inf")), layer)
                sims[on][unit] = outcome.get("sim_seconds")
    out = {"sim_equal": sims[False] == sims[True]}
    for on, side in ((False, "off"), (True, "on")):
        out[f"wall_{side}"] = sum(wall[on].values())
        out[f"timing_{side}"] = sum(timing[on].values())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--smoke", action="store_true", help="scales x 0.2")
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore")

    import repro.backend.gpu as gpu_backend
    import spans
    from workloads import CompileMix, PaperSweep

    # under the span wrapper, so the gpu.timing span covers the busy-wait
    injection = Injection(gpu_backend.time_gpu_kernel)
    gpu_backend.time_gpu_kernel = injection
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".bench_work"))
    recorder = spans.Recorder()
    undo = spans.install(recorder)
    try:
        sweep = PaperSweep(0, work_dir, smoke=args.smoke)
        sweep.setup()
        sweep.iteration(-1, scale=sweep.warmup_scale)
        sweep.recorder = recorder
        paper = best_of(sweep, recorder, injection, PaperSweep.cells, args.repeats)
        calls_on_sweep = injection.calls

        mix = CompileMix(0, work_dir, smoke=args.smoke)
        mix.setup()
        mix.iteration(-1, scale=mix.warmup_scale)
        mix.recorder = recorder
        compile_mix = best_of(mix, recorder, injection, (None,), args.repeats)
    finally:
        spans.uninstall(undo)
        gpu_backend.time_gpu_kernel = injection.original
        shutil.rmtree(work_dir, ignore_errors=True)

    share = paper["timing_off"] / paper["wall_off"]
    predicted = SLOWDOWN * share
    rise = paper["wall_on"] / paper["wall_off"] - 1.0
    layer = paper["timing_on"] / paper["timing_off"] - 1.0
    others = (paper["wall_on"] - paper["timing_on"]) / (
        paper["wall_off"] - paper["timing_off"]
    ) - 1.0
    still = compile_mix["wall_on"] / compile_mix["wall_off"] - 1.0
    resolved = abs(others) * (1.0 - share) < 0.5 * predicted
    print(f"paper_sweep gpu.timing self time   off {paper['timing_off']:.4f} s  "
          f"on {paper['timing_on']:.4f} s  {layer:+.2%}  (injected {SLOWDOWN:+.0%})")
    print(f"paper_sweep every other layer      {others:+.2%}")
    print(f"paper_sweep iter_wall_s            off {paper['wall_off']:.4f} s  "
          f"on {paper['wall_on']:.4f} s  {rise:+.2%}")
    print(f"  predicted: {SLOWDOWN:.0%} x gpu.timing share {share:.2%} = {predicted:+.2%}  "
          f"({'resolved' if resolved else 'unresolved: the other layers moved as much'})")
    print(f"compile_mix iter_wall_s            off {compile_mix['wall_off']:.4f} s  "
          f"on {compile_mix['wall_on']:.4f} s  {still:+.2%}")
    print(f"slowed calls: paper_sweep {calls_on_sweep}, compile_mix "
          f"{injection.calls - calls_on_sweep}")
    bound = metrics.END_TO_END["iter_wall_s"][2]
    checks = {
        f"paper_sweep: gpu.timing caught, up {SLOWDOWN:.0%} +- {TOLERANCE:.0%}":
            abs(layer - SLOWDOWN) <= TOLERANCE,
        f"paper_sweep: no other layer flagged (within {TOLERANCE:.0%})":
            abs(others) <= TOLERANCE,
        "paper_sweep: iter_wall_s rise matches the prediction (when resolved)":
            not resolved or 0.5 * predicted <= rise <= 1.5 * predicted,
        "compile_mix: never entered the slowed layer": injection.calls == calls_on_sweep,
        f"compile_mix: iter_wall_s within its bound ({bound:.2f})": abs(still) <= bound,
        "sim_seconds identical with and without the slowdown": paper["sim_equal"],
    }
    for label, passed in checks.items():
        print(f"{'PASS' if passed else 'FAIL'}  {label}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
