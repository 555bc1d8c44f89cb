"""Fuzzing driver: generation → oracles → reduction → corpus.

``FuzzDriver`` owns one deterministic campaign: iteration ``i`` of a
campaign seeded ``S`` derives its own ``random.Random(S * 1_000_003 + i)``,
so any iteration can be replayed in isolation and campaigns are
reproducible regardless of ``--iterations``.

Targets select what each iteration exercises:

* ``engines`` — a source program through reference vs compiled engine on
  both devices (plus the cross-device output check);
* ``passes`` — a source program through the full pipeline vs one
  per-pass-disabled configuration (rotating through
  ``DISABLEABLE_PASSES``), with the paper's four measured configurations
  cross-checked on rotation as well;
* ``ir`` — a generated IR function through both engines and through every
  single pass in :data:`repro.fuzz.oracle.IR_PASS_NAMES`, re-verifying
  after each;
* ``frontend`` — source programs with feature flags force-rotated
  (virtual calls, floats, helper methods, reductions) through the
  cross-engine oracle, stressing the frontend grammar corners;
* ``sched`` — a source program through the ``gpu``, ``hybrid`` and
  ``auto`` scheduler policies (hybrid must match gpu bit-for-bit; auto
  must match on outputs);
* ``vector`` — a source program through the compiled engine vs the
  columnar vector engine on the GPU device: outputs, full region bytes,
  traces, traps and trace-derived counters must all match bit-for-bit
  whichever path (vectorized, rolled-back, or scalar-routed) ran;
* ``graph`` — a DAG of ``for`` constructs with overlapping declared
  read/write sets through the task-graph runtime: synchronous submission
  order, ``wait()``-forced, and a random topological forcing order must
  all agree bit-for-bit (the inferred RAW/WAR/WAW edges must serialize
  every true conflict);
* ``compile-cache`` — a source program compiled monolithically, cold
  through a fresh artifact store, warm through the same store, and cold
  through a separate store dir: all four must agree on content-hash
  program ids, stage hit/miss patterns, outputs, region bytes and
  traces (warm-vs-cold bit-exact; independent compiles via the
  canonical uid-remapped trace signature);
* ``structure`` — the region tree (:mod:`repro.ir.structure`) evaluated
  by :class:`~repro.exec.regions.RegionInterpreter` against the reference
  interpreter: generated IR functions (plus what each pass makes of them)
  on even iterations, source programs on both devices on odd ones;
* ``all`` — round-robin over the nine targets.

Divergences are shrunk by :mod:`repro.fuzz.reduce` with the same oracle
as predicate and written to the corpus directory (default
``tests/corpus/``) as self-contained JSON reproducers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .irgen import IRProgram, generate_ir_program
from .oracle import (
    ir_divergences,
    ir_structure_divergences,
    source_cache_divergences,
    source_config_divergences,
    source_engine_divergences,
    source_graph_divergences,
    source_pass_divergences,
    source_sched_divergences,
    source_structure_divergences,
    source_vector_divergences,
)
from .reduce import reduce_ir_program, reduce_source_program
from .srcgen import SourceProgram, generate_source_program

TARGETS = (
    "engines",
    "passes",
    "ir",
    "frontend",
    "sched",
    "vector",
    "graph",
    "compile-cache",
    "structure",
)

#: Forced feature-flag rotations for the ``frontend`` target.
_FRONTEND_FORCES = (
    {"uses_virtual": True},
    {"uses_floats": True},
    {"uses_helper": True},
    {"construct": "reduce"},
    {"uses_virtual": True, "uses_floats": True},
    {"construct": "reduce", "uses_helper": True},
)

#: Seed-mixing constant: distinct primes keep per-iteration streams
#: independent of the campaign length.
_SEED_STRIDE = 1_000_003


@dataclass
class Divergence:
    """One confirmed divergence, before and after reduction."""

    target: str
    kind: str  # "source" | "ir"
    seed: int
    iteration: int
    diffs: list
    program_doc: dict
    reduced_doc: Optional[dict] = None
    reduction_attempts: int = 0

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "kind": self.kind,
            "seed": self.seed,
            "iteration": self.iteration,
            "diffs": self.diffs,
            "program": self.reduced_doc or self.program_doc,
            "unreduced_program": self.program_doc,
            "reduction_attempts": self.reduction_attempts,
        }


@dataclass
class FuzzReport:
    seed: int
    iterations: int
    target: str
    divergences: list = field(default_factory=list)
    corpus_files: list = field(default_factory=list)
    flight_bundles: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        state = "OK" if self.ok else f"{len(self.divergences)} DIVERGENCE(S)"
        return (
            f"fuzz target={self.target} seed={self.seed} "
            f"iterations={self.iterations}: {state}"
        )


class FuzzDriver:
    def __init__(
        self,
        seed: int = 0,
        iterations: int = 100,
        target: str = "all",
        corpus_dir: Optional[Path] = None,
        observer=None,
        reduce: bool = True,
        max_divergences: int = 5,
        flight_recorder=None,
    ):
        if target != "all" and target not in TARGETS:
            raise ValueError(
                f"unknown fuzz target {target!r}; choose from "
                f"{('all',) + TARGETS}"
            )
        self.seed = seed
        self.iterations = iterations
        self.target = target
        self.corpus_dir = Path(corpus_dir) if corpus_dir else None
        self.observer = observer
        self.reduce = reduce
        self.max_divergences = max_divergences
        #: Optional :class:`repro.obs.FlightRecorder`; every confirmed
        #: divergence dumps a postmortem bundle next to its reproducer.
        self.flight_recorder = flight_recorder

    # -- per-iteration oracles --------------------------------------------

    def _iteration_rng(self, i: int) -> random.Random:
        return random.Random(self.seed * _SEED_STRIDE + i)

    def run_iteration(self, i: int):
        """One iteration: ``(diffs, kind, program)``."""
        target = self.target
        if target == "all":
            target = TARGETS[i % len(TARGETS)]
        rng = self._iteration_rng(i)
        if target == "ir":
            program = generate_ir_program(rng, seed=i)
            return ir_divergences(program), "ir", program, target, None
        if target == "structure" and i % 2 == 0:
            program = generate_ir_program(rng, seed=i)
            return ir_structure_divergences(program), "ir", program, target, None
        if target == "frontend":
            force = _FRONTEND_FORCES[i % len(_FRONTEND_FORCES)]
            program = generate_source_program(rng, seed=i, force=force)
            return (
                source_engine_divergences(program),
                "source",
                program,
                target,
                None,
            )
        if target == "graph":
            # Reductions allocate order-dependent scratch; the DAG oracle
            # only reorders pure-heap `for` constructs.
            program = generate_source_program(
                rng, seed=i, force={"construct": "for"}
            )
            return (
                source_graph_divergences(program),
                "source",
                program,
                target,
                None,
            )
        program = generate_source_program(rng, seed=i)
        if target == "engines":
            return (
                source_engine_divergences(program),
                "source",
                program,
                target,
                None,
            )
        if target == "structure":
            return (
                source_structure_divergences(program),
                "source",
                program,
                target,
                None,
            )
        if target == "sched":
            return (
                source_sched_divergences(program),
                "source",
                program,
                target,
                None,
            )
        if target == "vector":
            return (
                source_vector_divergences(program),
                "source",
                program,
                target,
                None,
            )
        if target == "compile-cache":
            return (
                source_cache_divergences(program),
                "source",
                program,
                target,
                None,
            )
        # passes: rotate one disabled pass per iteration; every full
        # rotation also cross-checks the paper's four configurations.
        from ..passes.pipeline import DISABLEABLE_PASSES

        slot = i % (len(DISABLEABLE_PASSES) + 1)
        if slot == len(DISABLEABLE_PASSES):
            return (
                source_config_divergences(program),
                "source",
                program,
                target,
                "configs",
            )
        name = DISABLEABLE_PASSES[slot]
        return (
            source_pass_divergences(program, [name]),
            "source",
            program,
            target,
            name,
        )

    def _predicate(self, kind: str, target: str, detail):
        """The oracle that found a divergence, as a reduction predicate."""
        if target == "structure":
            if kind == "ir":
                return lambda p: bool(ir_structure_divergences(p))
            return lambda p: bool(source_structure_divergences(p))
        if kind == "ir":
            return lambda p: bool(ir_divergences(p))
        if target == "sched":
            return lambda p: bool(source_sched_divergences(p))
        if target == "vector":
            return lambda p: bool(source_vector_divergences(p))
        if target == "graph":
            return lambda p: bool(source_graph_divergences(p))
        if target == "compile-cache":
            return lambda p: bool(source_cache_divergences(p))
        if target == "passes":
            if detail == "configs":
                return lambda p: bool(source_config_divergences(p))
            return lambda p: bool(source_pass_divergences(p, [detail]))
        return lambda p: bool(source_engine_divergences(p))

    # -- campaign ---------------------------------------------------------

    def run(self, progress=None) -> FuzzReport:
        report = FuzzReport(self.seed, self.iterations, self.target)
        # NB: CounterRegistry is falsy while empty — compare to None.
        counters = self.observer.counters if self.observer else None
        found = 0
        for i in range(self.iterations):
            if counters is not None:
                counters.add("fuzz.iterations")
            diffs, kind, program, target, detail = self.run_iteration(i)
            if counters is not None:
                counters.add(f"fuzz.target.{target}")
            if not diffs:
                if progress and (i + 1) % 50 == 0:
                    progress(
                        f"  ... {i + 1}/{self.iterations} iterations, "
                        f"{found} divergence(s)"
                    )
                continue
            found += 1
            if counters is not None:
                counters.add("fuzz.divergences")
            divergence = Divergence(
                target=target,
                kind=kind,
                seed=self.seed,
                iteration=i,
                diffs=[str(d) for d in diffs],
                program_doc=program.to_dict(),
            )
            if progress:
                progress(
                    f"  DIVERGENCE at iteration {i} (target={target}): "
                    f"{diffs[0]}"
                )
            if self.reduce:
                result = self._reduce(kind, target, detail, program, progress)
                if result is not None:
                    divergence.reduced_doc = result.doc
                    divergence.reduction_attempts = result.attempts
            report.divergences.append(divergence)
            if self.corpus_dir is not None:
                report.corpus_files.append(
                    write_reproducer(self.corpus_dir, divergence)
                )
            if self.flight_recorder is not None:
                bundle = self.flight_recorder.record(
                    reason="fuzz_divergence",
                    context={
                        "command": "fuzz",
                        "target": target,
                        "seed": self.seed,
                        "iteration": i,
                        "diffs": divergence.diffs[:8],
                        "reproducer": (
                            str(report.corpus_files[-1])
                            if report.corpus_files
                            else None
                        ),
                    },
                )
                report.flight_bundles.append(bundle)
                if progress:
                    progress(f"  flight bundle: {bundle}")
            if len(report.divergences) >= self.max_divergences:
                if progress:
                    progress(
                        f"  stopping after {self.max_divergences} divergences"
                    )
                break
        return report

    def _reduce(self, kind, target, detail, program, progress):
        predicate = self._predicate(kind, target, detail)
        span = (
            self.observer.span("fuzz_reduce", "fuzz", kind=kind, target=target)
            if self.observer
            else None
        )
        try:
            if span:
                span.__enter__()
            if kind == "ir":
                result = reduce_ir_program(program, predicate)
            else:
                result = reduce_source_program(program, predicate)
        finally:
            if span:
                span.__exit__(None, None, None)
        if self.observer:
            self.observer.counters.add("fuzz.reduction_attempts", result.attempts)
        if progress:
            progress(
                f"  reduced in {result.attempts} attempts "
                f"({result.kept} shrink steps kept)"
            )
        return result


# -- corpus -------------------------------------------------------------------


def write_reproducer(corpus_dir: Path, divergence: Divergence) -> Path:
    """Write one reproducer JSON; name encodes target/seed/iteration so
    reruns overwrite rather than accumulate."""
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    name = (
        f"div-{divergence.target}-s{divergence.seed}-i{divergence.iteration}.json"
    )
    path = corpus_dir / name
    path.write_text(json.dumps(divergence.to_dict(), indent=2) + "\n")
    return path


def load_corpus_entry(path: Path):
    """Load a corpus JSON back into ``(kind, program, doc)``."""
    doc = json.loads(Path(path).read_text())
    kind = doc.get("kind", "source")
    program_doc = doc["program"]
    if kind == "ir":
        program = IRProgram.from_dict(program_doc)
    else:
        program = SourceProgram.from_dict(program_doc)
    return kind, program, doc
