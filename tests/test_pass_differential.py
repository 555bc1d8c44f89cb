"""Differential pass testing over the nine evaluation workloads.

Every disableable pass in ``repro.passes.pipeline`` is switched off in
isolation (``OptConfig.without_pass``); the workload must still validate
against its Python reference AND leave the shared region bit-identical
(vtable symbol-id slots masked — they are per-module metadata) to the
full-pipeline baseline.  One test id per pass × workload.

Passes in ``GPU_SAFE_DISABLE`` are compared on the GPU path; ``inline``
and ``devirt`` are structurally required for device lowering (uninlined
callees keep untranslated dereferences, vtable pointers are CPU
addresses), so their disabled configurations run on the CPU path.

The engines are proven bit-identical in ``test_engine_equivalence``, so
running the threaded-code engine here also certifies interpreter results.
"""

import warnings

import pytest

from repro.fuzz import heap_digest
from repro.passes import OptConfig
from repro.passes.pipeline import DISABLEABLE_PASSES, GPU_SAFE_DISABLE
from repro.workloads import all_workloads

WORKLOADS = all_workloads()
SCALE = 0.15

_baselines: dict = {}


def _run(name: str, config: OptConfig, on_cpu: bool) -> str:
    workload = WORKLOADS[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rt = workload.make_runtime(config, collect_mem_events=False)
        state = workload.build(rt, SCALE)
        workload.run(rt, state, on_cpu=on_cpu)
        workload.validate(rt, state)
        return heap_digest(rt)


def _baseline(name: str, on_cpu: bool) -> str:
    key = (name, on_cpu)
    if key not in _baselines:
        _baselines[key] = _run(name, OptConfig.gpu_all(), on_cpu)
    return _baselines[key]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("pass_name", DISABLEABLE_PASSES)
def test_disabling_pass_preserves_results(pass_name, name):
    on_cpu = pass_name not in GPU_SAFE_DISABLE
    digest = _run(name, OptConfig.gpu_all().without_pass(pass_name), on_cpu)
    assert digest == _baseline(name, on_cpu), (
        f"{name}: disabling {pass_name!r} changed the final heap state"
    )
