"""Sensitivity ablation for the analytic device models.

The reproduction's claims are *shape* claims (orderings and crossovers),
so they must not hinge on the exact calibrated constants.  This test
perturbs the most influential GPU-model constants by +/-25% and checks the
key orderings survive:

* Raytracer stays the best GPU workload, BarnesHut/FaceDetect stay at the
  bottom (both systems);
* BarnesHut stays below parity on the desktop;
* PTROPT keeps helping.

If a future model change makes a conclusion constant-sensitive, this
test is the tripwire.
"""

import dataclasses
import warnings

import pytest

from repro.passes import OptConfig
from repro.runtime.system import System, desktop, ultrabook
from repro.workloads import all_workloads

PROBE_WORKLOADS = ("Raytracer", "BarnesHut", "FaceDetect", "BTree")
SCALE = 0.3


def perturbed_system(base: System, **gpu_overrides) -> System:
    return System(
        name=base.name,
        cpu=base.cpu,
        gpu=dataclasses.replace(base.gpu, **gpu_overrides),
        tdp_watts=base.tdp_watts,
    )


def measure(system: System, scale: float):
    workloads = all_workloads()
    speedups = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in PROBE_WORKLOADS:
            workload = workloads[name]()
            gpu = workload.execute(
                OptConfig.gpu_all(), system, scale=scale, validate=False
            )
            cpu = workload.execute(
                OptConfig.gpu_all(), system, on_cpu=True, scale=scale, validate=False
            )
            speedups[name] = cpu.seconds / gpu.seconds
    return speedups


def check_orderings(speedups, system_name):
    assert max(speedups, key=speedups.get) == "Raytracer", (system_name, speedups)
    worst_two = sorted(speedups, key=speedups.get)[:2]
    assert "BarnesHut" in worst_two or "FaceDetect" in worst_two, (
        system_name,
        speedups,
    )


@pytest.mark.parametrize(
    "knob, factor",
    [
        ("issue_cycles_per_slot", 0.75),
        ("issue_cycles_per_slot", 1.25),
        ("l3_hit_cycles", 0.75),
        ("l3_hit_cycles", 1.25),
        ("contention_penalty_cycles", 1.5),
    ],
)
def test_orderings_survive_gpu_perturbation(knob, factor):
    base = ultrabook()
    value = getattr(base.gpu, knob) * factor
    system = perturbed_system(base, **{knob: value})

    check_orderings(measure(system, SCALE), base.name)


def test_desktop_barneshut_crossover_robust():
    """BarnesHut below parity on the desktop under the calibrated model AND
    with the memory system 25% faster (the crossover is not a knife edge)."""

    def run():
        results = {}
        for label, system in (
            ("calibrated", desktop()),
            (
                "fast-l3",
                perturbed_system(
                    desktop(), l3_hit_cycles=desktop().gpu.l3_hit_cycles * 0.75
                ),
            ),
        ):
            workload = all_workloads()["BarnesHut"]()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                gpu = workload.execute(
                    OptConfig.gpu_all(), system, scale=SCALE, validate=False
                )
                cpu = workload.execute(
                    OptConfig.gpu_all(), system, on_cpu=True,
                    scale=SCALE, validate=False,
                )
            results[label] = cpu.seconds / gpu.seconds
        return results

    results = run()
    assert results["calibrated"] < 1.0
    assert results["fast-l3"] < 1.1  # still at/below parity with faster L3
