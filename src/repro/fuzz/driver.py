"""Fuzzing driver: a campaign over the declared targets.

``FuzzDriver`` owns one deterministic campaign: iteration ``i`` of a
campaign seeded ``S`` derives its own ``random.Random(S * 1_000_003 + i)``,
so any iteration can be replayed in isolation and campaigns are
reproducible regardless of ``--iterations``.  The iteration's target
(``all`` takes :data:`~repro.fuzz.oracle.TARGETS` round-robin) draws the
program of its variant ``i % len(variants)`` and runs both through
:func:`~repro.fuzz.oracle.divergences`.

Divergences are shrunk by :func:`repro.fuzz.reduce.reduce_spec` with the
same call as predicate and written to the corpus directory (default
``tests/corpus/``) as self-contained JSON reproducers.
"""

from __future__ import annotations

import json
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

from .irgen import IRProgram
from .oracle import TARGETS, FrontendRejected, divergences
from .reduce import reduce_spec
from .srcgen import SourceProgram

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
    #: iterations whose program every compile refused
    rejected: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        state = "OK" if self.ok else f"{len(self.divergences)} DIVERGENCE(S)"
        if self.rejected:
            state += f" ({self.rejected} of {self.iterations} rejected by the frontend)"
        return (
            f"fuzz target={self.target} seed={self.seed} "
            f"iterations={self.iterations}: {state}"
        )


@dataclass
class FuzzDriver:
    seed: int = 0
    iterations: int = 100
    target: str = "all"
    corpus_dir: Optional[Path] = None
    observer: object = None
    reduce: bool = True
    max_divergences: int = 5
    #: Optional :class:`repro.obs.FlightRecorder`; every confirmed
    #: divergence dumps a postmortem bundle next to its reproducer.
    flight_recorder: object = None

    def __post_init__(self):
        if self.target != "all" and self.target not in TARGETS:
            raise ValueError(
                f"unknown fuzz target {self.target!r}; choose from {('all', *TARGETS)}"
            )
        self.corpus_dir = Path(self.corpus_dir) if self.corpus_dir else None

    def draw(self, i: int):
        """Iteration ``i``'s ``(target name, variant, program)``."""
        name = self.target
        if name == "all":
            name = list(TARGETS)[i % len(TARGETS)]
        variants = TARGETS[name].variants
        variant = variants[i % len(variants)]
        rng = random.Random(self.seed * _SEED_STRIDE + i)
        return name, variant, variant.generate(rng, i)

    def run(self, progress=None) -> FuzzReport:
        report = FuzzReport(self.seed, self.iterations, self.target)
        uncounted = SimpleNamespace(add=lambda name, amount=1: None)
        counters = self.observer.counters if self.observer else uncounted
        progress = progress or (lambda line: None)
        for i in range(self.iterations):
            counters.add("fuzz.iterations")
            target, variant, program = self.draw(i)
            counters.add(f"fuzz.target.{target}")
            try:
                diffs = divergences(target, program, variant)
            except FrontendRejected:
                diffs = []
                report.rejected += 1
                counters.add("fuzz.frontend_rejected")
            if not diffs:
                if (i + 1) % 50 == 0:
                    progress(
                        f"  ... {i + 1}/{self.iterations} iterations, "
                        f"{len(report.divergences)} divergence(s)"
                    )
                continue
            counters.add("fuzz.divergences")
            divergence = Divergence(
                target, variant.kind, self.seed, i, diffs, program.to_dict()
            )
            progress(f"  DIVERGENCE at iteration {i} (target={target}): {diffs[0]}")
            if self.reduce:
                with (
                    self.observer.span("fuzz_reduce", "fuzz", kind=variant.kind, target=target)
                    if self.observer
                    else nullcontext()
                ):
                    # the predicate is the call that found the divergence
                    result = reduce_spec(
                        program.to_dict(),
                        type(program).from_dict,
                        lambda p: bool(divergences(target, p, variant)),
                    )
                counters.add("fuzz.reduction_attempts", result.attempts)
                progress(
                    f"  reduced in {result.attempts} attempts "
                    f"({result.kept} shrink steps kept)"
                )
                divergence.reduced_doc = result.doc
                divergence.reduction_attempts = result.attempts
            report.divergences.append(divergence)
            if self.corpus_dir is not None:
                report.corpus_files.append(write_reproducer(self.corpus_dir, divergence))
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
                            str(report.corpus_files[-1]) if report.corpus_files else None
                        ),
                    },
                )
                report.flight_bundles.append(bundle)
                progress(f"  flight bundle: {bundle}")
            if len(report.divergences) >= self.max_divergences:
                progress(f"  stopping after {self.max_divergences} divergences")
                break
        return report


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
    program = (IRProgram if kind == "ir" else SourceProgram).from_dict(doc["program"])
    return kind, program, doc
