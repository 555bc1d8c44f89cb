"""The performance/energy model says what ``model_frozen.json`` says.

``tests/model_freeze.py`` wrote that file (it says how, and runs against
this tree or its parent).  Tier-1 re-measures the scale-0.2 section here;
CI's ``fidelity-smoke`` job regenerates the whole file and fails on any
diff.  A PR that claims model identity changes no byte of the file; a PR
that moves the model commits the regenerated file and says why.
"""

from __future__ import annotations

import json

import pytest

from repro.eval.runner import WORKLOAD_ORDER

from .model_freeze import FROZEN_PATH, HEADER, SCALES, dump, measure_section


@pytest.fixture(scope="module")
def frozen() -> dict:
    with open(FROZEN_PATH) as handle:
        return json.load(handle)


def test_file_is_what_the_freezer_writes(frozen):
    """Regenerating an unchanged model rewrites the same bytes."""
    assert frozen["header"] == HEADER
    assert list(frozen["scales"]) == [repr(scale) for scale in SCALES]
    small, full = frozen["scales"].values()
    assert list(small) == list(full)
    with open(FROZEN_PATH) as handle:
        assert handle.read() == dump(frozen)


def test_truncation_is_visible_per_row(frozen):
    """The file records the model as it is, event cap included: which
    rows dropped memory events at full scale can be read off it."""
    full = frozen["scales"]["1.0"]
    dropped = {key for key, row in full.items() if row["mem_events.dropped"] > 0}
    assert any(key.startswith("BarnesHut/Desktop/GPU+ALL/") for key in dropped)
    assert all(row["mem_events.dropped"] == 0 for row in frozen["scales"]["0.2"].values())


@pytest.mark.parametrize("name", WORKLOAD_ORDER)
def test_scale_02_section_matches_a_fresh_measurement(frozen, name):
    section = frozen["scales"]["0.2"]
    expected = {k: row for k, row in section.items() if k.startswith(f"{name}/")}
    fresh = measure_section(0.2, [name])
    assert list(fresh) == list(expected)
    for key, row in fresh.items():
        assert list(row) == list(expected[key])
        for field, value in row.items():
            assert value == expected[key][field], (
                "the model moved; first difference at (workload, system, "
                f"column, engine, field) = {(*key.split('/'), field)}: "
                f"frozen {expected[key][field]!r}, measured {value!r}"
            )
