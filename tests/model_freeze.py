"""Freeze what "the model is unchanged" means (tests/test_model_frozen.py).

Uses only API the parent commit of PR 22 already had, so it runs against
either tree:

    PYTHONPATH=<checkout>/src python tests/model_freeze.py

writes ``model_frozen.json`` beside itself: for every workload x system x
column (CPU, the four GPU configurations, HYBRID) x engine, at scales 0.2
and 1.0, what the performance/energy model said.  A PR that claims model
identity changes no byte of that file; a PR that changes the model commits
the diff and says why.  Floats are stored as their ``repr``, so identity
is bit-identity.
"""

from __future__ import annotations

import json
import os
import warnings

from repro.eval.runner import HYBRID_LABEL, WORKLOAD_ORDER
from repro.obs import Observer
from repro.passes import OptConfig
from repro.runtime.system import desktop, ultrabook
from repro.workloads import all_workloads

FROZEN_PATH = os.path.join(os.path.dirname(__file__), "model_frozen.json")
SCALES = (0.2, 1.0)
ENGINES = ("compiled", "vector")
HEADER = (
    "tests/model_freeze.py wrote this; keys are workload/system/column/engine; "
    "seconds and energy_joules are repr() of the float (bit-exact — were two "
    "NumPy builds ever to disagree in the last ulp, this line would say "
    "'12 significant digits' instead)"
)

#: integer fields of the summed ``DeviceReport``
REPORT_FIELDS = (
    "instructions",
    "mem_transactions",
    "l3_hits",
    "l3_misses",
    "translations",
)
COUNTERS = ("mem_events.kept", "mem_events.dropped")


def columns() -> dict:
    """Label -> (config, ``Workload.execute`` keywords), as
    ``eval.runner.measure_workload`` runs them."""
    result = {"CPU": (OptConfig.gpu_all(), {"on_cpu": True})}
    for config in OptConfig.all_configs():
        result[config.label] = (config, {})
    result[HYBRID_LABEL] = (OptConfig.gpu_all(), {"policy": "hybrid"})
    return result


def measure_row(workload, system, config, scale, engine, keywords) -> dict:
    observer = Observer()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        outcome = workload.execute(
            config,
            system,
            scale=scale,
            validate=False,
            engine=engine,
            observer=observer,
            **keywords,
        )
    report = sum(r.report for r in outcome.reports)
    row = {
        "seconds": repr(outcome.seconds),
        "energy_joules": repr(outcome.energy_joules),
    }
    row.update((name, int(getattr(report, name))) for name in REPORT_FIELDS)
    row.update((name, int(observer.counters[name])) for name in COUNTERS)
    return row


def measure_section(scale: float, names=WORKLOAD_ORDER) -> dict:
    """``workload/system/column/engine`` -> row, in a fixed order."""
    section = {}
    for name in names:
        workload = all_workloads()[name]()
        for system in (ultrabook(), desktop()):
            for label, (config, keywords) in columns().items():
                for engine in ENGINES:
                    key = f"{name}/{system.name}/{label}/{engine}"
                    section[key] = measure_row(
                        workload, system, config, scale, engine, keywords
                    )
    return section


def dump(document: dict) -> str:
    """One row per line, so a model change is a reviewable diff."""
    sections = []
    for scale, section in document["scales"].items():
        rows = ",\n".join(
            f"   {json.dumps(key)}: {json.dumps(row)}" for key, row in section.items()
        )
        sections.append(f"  {json.dumps(scale)}: {{\n{rows}\n  }}")
    return (
        "{\n"
        f' "header": {json.dumps(document["header"])},\n'
        ' "scales": {\n' + ",\n".join(sections) + "\n }\n}\n"
    )


if __name__ == "__main__":
    document = {
        "header": HEADER,
        "scales": {repr(scale): measure_section(scale) for scale in SCALES},
    }
    with open(FROZEN_PATH, "w") as handle:
        handle.write(dump(document))
    print(f"wrote {FROZEN_PATH}")
