"""Replay every corpus program through the differential oracles.

``tests/corpus/`` holds two kinds of JSON entries, both in the format the
fuzzer's ``write_reproducer`` emits (so fuzzer output can be promoted to a
regression test by copying the file in):

* ``seed-*`` — representative generated programs pinned as regression
  anchors: source programs covering the frontend feature rotation and IR
  programs from the random-CFG generator;
* ``regression-*`` / ``div-*`` — reduced reproducers for bugs the fuzzer
  actually found; they must stay divergence-free forever.

Source entries run through the ``engines`` target (reference interpreter
AND threaded-code engine on both devices) and every variant of ``passes``
(each per-pass-disabled pipeline, then the paper's four configs); a
source entry with an overload set also runs through the ``frontend``
target's overload-order variant (declared vs reversed order, each device);
IR entries run through the ``ir`` target (both engines and every single
pass with re-verification).
"""

from pathlib import Path

import pytest

from repro.fuzz import TARGETS, divergences, load_corpus_entry

CORPUS = Path(__file__).parent / "corpus"
ENTRIES = sorted(CORPUS.glob("*.json"))
(OVERLOAD_ORDERS,) = [
    v for v in TARGETS["frontend"].variants if (v.force or {}).get("uses_overloads")
]


def test_corpus_is_seeded():
    assert len(ENTRIES) >= 10, (
        f"expected at least 10 corpus programs, found {len(ENTRIES)}"
    )


@pytest.mark.parametrize("path", ENTRIES, ids=lambda p: p.stem)
def test_corpus_entry_replays_clean(path):
    kind, program, doc = load_corpus_entry(path)
    if kind == "ir":
        diffs = divergences("ir", program)
    else:
        diffs = divergences("engines", program) or divergences("passes", program)
        if program.uses_overloads and not diffs:
            diffs = divergences("frontend", program, OVERLOAD_ORDERS)
    assert not diffs, diffs
