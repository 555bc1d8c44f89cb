"""Freeze what "the compile path is unchanged" means (tests/test_compile_linear.py).

Uses only API the parent commit of PR 17 already had, so it runs against
either tree:

    PYTHONPATH=<checkout>/src python tests/compile_linear_freeze.py

writes ``compile_linear_frozen.json`` beside itself: the identity sections
(canonical digest per program, pickle size per workload) and the work the
compile spends the old way (``parent_work``).  It was run against the
parent *before* the change (the PR 15/16 method); run against a later tree
the identity sections must come out the same.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import pickle
import random
import re
import warnings

from repro.eval.runner import WORKLOAD_ORDER
from repro.fuzz.srcgen import generate_source_program
from repro.ir import BasicBlock, DominatorTree, Instruction, format_function
from repro.passes.pipeline import DISABLEABLE_PASSES, OptConfig
from repro.runtime.compiler import ConcordWarning, compile_source
from repro.workloads import all_workloads

FROZEN_PATH = os.path.join(os.path.dirname(__file__), "compile_linear_frozen.json")
FUZZ_SEEDS = (5, 9)
FUZZ_PROGRAMS = 40

#: uids are handed out from here while a digest is taken, so they are the
#: only 13-digit numbers in the text and can be renumbered reliably
UID_BASE = 10**12
_UID = re.compile(r"1\d{12}")


@contextlib.contextmanager
def pinned_uids():
    """Restart both uid counters at ``UID_BASE`` for one compile."""
    saved = next(Instruction._ids), next(BasicBlock._ids)
    Instruction._ids = itertools.count(UID_BASE)
    BasicBlock._ids = itertools.count(UID_BASE)
    try:
        yield
    finally:
        Instruction._ids = itertools.count(saved[0] + 1)
        BasicBlock._ids = itertools.count(saved[1] + 1)


def renumber(text: str) -> str:
    order: dict[str, int] = {}
    return _UID.sub(lambda m: f"u{order.setdefault(m.group(), len(order))}", text)


def compile_pinned(source: str, config: OptConfig, name: str):
    with pinned_uids(), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        program = compile_source(source, config, name)
    messages = [str(w.message) for w in caught if issubclass(w.category, ConcordWarning)]
    return program, messages


def canonical_digest(source: str, config: OptConfig, name: str) -> str:
    program, messages = compile_pinned(source, config, name)
    parts = [program.program_id, *messages]
    parts += [format_function(f) for f in program.module.functions.values()]
    for kinfo in program.kernels.values():
        parts += [kinfo.opencl_source, kinfo.reduce_wrapper_source]
    return hashlib.sha256(renumber("\n".join(parts)).encode()).hexdigest()[:16]


def nine_workloads() -> list:
    return [(name, all_workloads()[name].source) for name in WORKLOAD_ORDER]


def workload_configs() -> dict:
    """Label -> config: the paper's four, then GPU+ALL minus each pass."""
    configs = {config.label: config for config in OptConfig.all_configs()}
    for name in DISABLEABLE_PASSES:
        configs[f"-{name}"] = OptConfig.gpu_all().without_pass(name)
    return configs


def fuzz_programs(seed: int) -> list:
    rng = random.Random(seed)
    return [generate_source_program(rng, seed=seed) for _ in range(FUZZ_PROGRAMS)]


def identity_sections() -> dict:
    """Everything of the frozen file that must not move."""
    return {
        "workloads": {
            name: {
                label: canonical_digest(source, config, name)
                for label, config in workload_configs().items()
            }
            for name, source in nine_workloads()
        },
        "fuzz": {
            str(seed): [
                canonical_digest(program.source, OptConfig.gpu_all(), f"fuzz{index}")
                for index, program in enumerate(fuzz_programs(seed))
            ]
            for seed in FUZZ_SEEDS
        },
        # the bytes vary with set iteration order (object addresses); their
        # number does not, and is what ``store.bytes`` adds up
        "pickle_bytes": {
            name: len(pickle.dumps(compile_pinned(source, OptConfig.gpu_all(), name)[0]))
            for name, source in nine_workloads()
        },
    }


# -- freezing ---------------------------------------------------------------------


def parent_work_counts() -> dict:
    """Dominator-tree constructions and operand-list visits per compile of
    the nine sources at GPU+ALL, counted the way the parent spends them:
    one ``DominatorTree(...)`` per ask, one ``replace_uses_of`` per
    (instruction, replaced value)."""
    counts = {}
    for name, source in nine_workloads():
        tally = {"domtree_builds": 0, "operand_visits": 0}
        build, visit = DominatorTree.__init__, Instruction.replace_uses_of

        def counted_build(self, function, _tally=tally):
            _tally["domtree_builds"] += 1
            build(self, function)

        def counted_visit(self, old, new, _tally=tally):
            _tally["operand_visits"] += 1
            visit(self, old, new)

        DominatorTree.__init__, Instruction.replace_uses_of = counted_build, counted_visit
        try:
            compile_pinned(source, OptConfig.gpu_all(), name)
        finally:
            DominatorTree.__init__, Instruction.replace_uses_of = build, visit
        counts[name] = tally
    return counts


if __name__ == "__main__":
    document = identity_sections()
    document["parent_work"] = parent_work_counts()
    with open(FROZEN_PATH, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {FROZEN_PATH}")
