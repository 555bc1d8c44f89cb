"""The harness's own test: ``pytest benchmarks/e2e/test_harness.py``.

Not part of the tier-1 suite (``testpaths`` is ``tests``): it runs every
workload twice at smoke size, about a minute in all.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import metrics  # noqa: E402


def smoke(*flags) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--all", "--smoke", "--seed", "5", *flags],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced() -> dict:
    return smoke("--traced")


def test_every_named_metric_present_with_a_unit(traced):
    assert list(traced) == list(metrics.WORKLOADS)
    for workload, runs in traced.items():
        expected = {n for n in metrics.END_TO_END if metrics.applies(n, workload)}
        got = runs["end_to_end"]["metrics"]
        assert expected <= set(got), workload
        assert set(runs["per_layer"]["metrics"]) == set(metrics.PER_LAYER), workload
        for name, entry in {**got, **runs["per_layer"]["metrics"]}.items():
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
            assert entry["unit"] and isinstance(entry["value"], (int, float)), name


def test_no_operation_fails(traced):
    for workload, runs in traced.items():
        for run in runs.values():
            assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1, workload
        assert runs["end_to_end"]["metrics"]["fail_share"]["value"] == 0


def test_spans_attribute_the_traced_wall(traced):
    for workload, runs in traced.items():
        ratio = runs["per_layer"]["metrics"]["trace.attributed_ratio"]["value"]
        assert ratio >= 0.95, (workload, ratio)


def test_sim_seconds_repeat_exactly(traced):
    again = smoke()
    for workload in metrics.SIMULATOR:
        for name in ("sim_seconds", "sim_energy_j"):
            first = traced[workload]["end_to_end"]["metrics"][name]["value"]
            assert first > 0
            assert first == again[workload]["end_to_end"]["metrics"][name]["value"], workload


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert spec["end_to_end"] == metrics.contract_end_to_end()
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert spec["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, (unit, better) in metrics.PER_LAYER.items()
    ]
