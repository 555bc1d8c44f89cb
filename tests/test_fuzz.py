"""The fuzz subsystem's own tests: determinism, the reducer, corpus I/O,
the targets declared once, frontend rejections counted, and injected-bug
self-checks proving that every target fires when the code it defends is
wrong, and that the whole detect → shrink → write pipeline runs."""

import argparse
import json
import random
from pathlib import Path

import pytest

from repro.exec import compiled as compiled_engine
from repro.fuzz import (
    TARGETS,
    FuzzDriver,
    IRProgram,
    SourceProgram,
    divergences,
    generate_ir_program,
    generate_source_program,
    load_corpus_entry,
    run_source_program,
)
from repro.fuzz.reduce import reduce_spec
from repro.ir import structure
from repro.minicpp import Sema
from repro.passes.pipeline import PASS_REGISTRY
from repro.runtime import graph
from repro.sched import scheduler
from repro.service import ArtifactStore


class TestDeterminism:
    def test_source_generator_is_seed_deterministic(self):
        docs = [
            generate_source_program(random.Random(71), seed=71).to_dict()
            for _ in range(2)
        ]
        assert docs[0] == docs[1]

    def test_ir_generator_is_seed_deterministic(self):
        docs = [
            generate_ir_program(random.Random(71), seed=71).to_dict()
            for _ in range(2)
        ]
        assert docs[0] == docs[1]

    def test_iterations_are_independent_of_campaign_length(self):
        """Iteration i derives its own rng from (seed, i), so the same
        iteration yields the same program in any campaign."""
        short = FuzzDriver(seed=3, iterations=4, target="engines")
        long = FuzzDriver(seed=3, iterations=64, target="engines")
        for i in range(4):
            _, _, a = short.draw(i)
            _, _, b = long.draw(i)
            assert a.to_dict() == b.to_dict()

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unknown fuzz target"):
            FuzzDriver(target="kernels")


class TestOracles:
    def test_clean_campaign_smoke(self):
        report = FuzzDriver(seed=0, iterations=8, target="all").run()
        assert report.ok
        assert "OK" in report.summary()

    def test_source_outcome_has_digest_and_trace(self):
        program = generate_source_program(random.Random(5), seed=5)
        outcome = run_source_program(program, keep_traces=True)
        assert outcome.ok
        assert outcome.region_digest and outcome.heap_digest
        assert outcome.trace_sig is not None

    def test_spec_docs_round_trip(self):
        src = generate_source_program(random.Random(6), seed=6)
        assert SourceProgram.from_dict(src.to_dict()).to_dict() == src.to_dict()
        irp = generate_ir_program(random.Random(6), seed=6)
        assert IRProgram.from_dict(irp.to_dict()).to_dict() == irp.to_dict()


class TestDeclaredOnce:
    """Drift guard: the CLI's ``--target`` choices and docs/FUZZING.md's
    table are both read off :data:`TARGETS`."""

    def test_cli_choices_are_the_targets(self):
        from repro.__main__ import build_parser

        sub = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        flags = {action.dest: action for action in sub.choices["fuzz"]._actions}
        assert tuple(flags["target"].choices) == ("all", *TARGETS)

    def test_every_target_is_a_row_of_the_docs_table(self):
        doc = (Path(__file__).parents[1] / "docs" / "FUZZING.md").read_text()
        for target in TARGETS.values():
            assert f"| `{target.name}` | {target.doc} |" in doc, target.name


class TestFrontendRejection:
    """A program no compile accepts is counted and reported, never
    passed off as an agreement."""

    @pytest.fixture
    def refusing_frontend(self, monkeypatch):
        import repro.runtime

        def refuse(source, config=None, **kwargs):
            raise ValueError("refused")

        monkeypatch.setattr(repro.runtime, "compile_source", refuse)

    def test_counted_in_the_counters(self, refusing_frontend):
        from repro.obs import Observer

        observer = Observer()
        report = FuzzDriver(seed=0, iterations=3, target="engines", observer=observer).run()
        assert report.ok and not report.divergences
        assert report.rejected == 3
        assert int(observer.counters.get("fuzz.frontend_rejected")) == 3
        assert report.summary().endswith("OK (3 of 3 rejected by the frontend)")

    def test_shown_by_the_cli(self, refusing_frontend, capsys):
        from repro.__main__ import main

        code = main(["fuzz", "--iterations", "3", "--target", "engines"])
        out = capsys.readouterr().out
        assert code == 0
        assert "OK (3 of 3 rejected by the frontend)" in out
        assert "fuzz.frontend_rejected=3" in out
        assert "fuzz.divergences" not in out


class TestReducer:
    def test_unreproducible_input_returned_untouched(self):
        program = generate_source_program(random.Random(9), seed=9)
        result = reduce_spec(program.to_dict(), SourceProgram.from_dict, lambda p: False)
        assert result.doc == program.to_dict()
        assert result.kept == 0

    def test_shrinks_statement_lists(self):
        # seed 1 generates at least one loop statement
        program = generate_source_program(random.Random(1), seed=1)
        doc = program.to_dict()
        # Predicate: the program still contains at least one loop stmt —
        # the reducer should strip everything else.
        def has_loop(stmts):
            return any(
                s.get("k") == "loop" or has_loop(s.get("body", []) or [])
                or has_loop(s.get("then", []) or [])
                or has_loop(s.get("else", []) or [])
                for s in stmts
            )

        assert has_loop(doc["stmts"])
        result = reduce_spec(
            doc, SourceProgram.from_dict, lambda p: has_loop(p.to_dict()["stmts"])
        )
        assert has_loop(result.doc["stmts"])
        assert len(json.dumps(result.doc)) <= len(json.dumps(doc))

    def test_reduce_spec_prunes_to_minimum(self):
        doc = {
            "seed": 1,
            "n": 8,
            "stmts": [
                {"k": "assign", "value": 40},
                {"k": "assign", "value": 41},
                {"k": "assign", "value": 99},
            ],
        }

        def rebuild(d):
            return d

        def predicate(d):
            return any(s.get("value") == 99 for s in d["stmts"])

        result = reduce_spec(doc, rebuild, predicate)
        values = [s["value"] for s in result.doc["stmts"]]
        assert values == [99]
        assert result.kept > 0


def _swap_sub_operands(fn):
    for instr in fn.instructions():
        if instr.op == "sub":
            a, b = instr.operands
            instr.operands[0], instr.operands[1] = b, a
    return True


def _sub_becomes_add(fn):
    changed = False
    for instr in fn.instructions():
        if instr.op == "sub":
            instr.op = "add"
            changed = True
    return changed


def _if_arms_swapped(self, block, then, orelse):
    structure._Node.__init__(self, block, orelse, then)


def _first_overload_wins(self, candidates, arg_types, get_params):
    """``Sema.resolve_overload`` taking the first candidate of the right
    arity, whatever the argument types."""
    return next((c for c in candidates if len(get_params(c)) == len(arg_types)), None)


def _swapped_sub(mp):
    mp.setitem(compiled_engine._INFIX, "sub", "{b} - {a}")


#: The seeded bugs of each target, in the code that target defends.  The
#: ``passes`` mutant rewrites ``sub`` as ``add``: the operand swap the ``ir``
#: case could use cancels out there, because the source pipeline runs
#: constfold twice.
MUTATIONS = {
    "engines": (_swapped_sub,),
    "frontend": (_swapped_sub, lambda mp: mp.setattr(Sema, "resolve_overload", _first_overload_wins)),
    # a row the vector engine alone reads
    "vector": (lambda mp: mp.setitem(compiled_engine._NP_BINOP, "ashr", "{a} << ({b} & 63)"),),
    "passes": (lambda mp: mp.setitem(PASS_REGISTRY, "constfold", _sub_becomes_add),),
    "ir": (lambda mp: mp.setitem(PASS_REGISTRY, "constfold", _sub_becomes_add),),
    "graph": (lambda mp: mp.setattr(graph, "_overlap_any", lambda a, b: False),),
    # every chunk of Scheduler.run_split runs its items last to first
    "sched": (lambda mp: mp.setattr(
        scheduler, "range", lambda lo, hi: range(hi - 1, lo - 1, -1), raising=False
    ),),
    "compile-cache": (lambda mp: mp.setattr(ArtifactStore, "get", lambda self, kind, key: None),),
    "structure": (lambda mp: mp.setattr(structure.If, "__init__", _if_arms_swapped),),
}


@pytest.mark.parametrize("target", list(TARGETS))
def test_every_target_catches_its_mutation(target, monkeypatch):
    """Under each of its mutations the target finds a divergence within a
    bounded campaign, and the line names the target and sides it declares;
    the same iterations without the mutation find none."""
    labels = {side.label for v in TARGETS[target].variants for side in v.sides}
    for mutate in MUTATIONS[target]:
        with monkeypatch.context() as patch:
            mutate(patch)
            report = FuzzDriver(
                seed=0, iterations=80, target=target, reduce=False, max_divergences=1
            ).run()
        assert not report.ok, f"{target} missed its mutation"
        line = report.divergences[0].diffs[0]
        named, sides = line.split(": ")[:2]
        assert named == target
        assert set(sides.split(" vs ")) <= labels, line
        clean = FuzzDriver(
            seed=0, iterations=report.divergences[0].iteration + 1, target=target, reduce=False
        ).run()
        assert clean.ok, [d.diffs for d in clean.divergences]


class TestInjectedBug:
    """End-to-end self-check: break a pass on purpose; the campaign must
    detect the divergence, shrink the reproducer, and write the corpus
    entry.  This is the test that proves the oracle is not vacuous."""

    def test_campaign_catches_injected_miscompile(self, tmp_path, monkeypatch):
        monkeypatch.setitem(PASS_REGISTRY, "constfold", _swap_sub_operands)
        driver = FuzzDriver(
            seed=0,
            iterations=40,
            target="ir",
            corpus_dir=tmp_path,
            max_divergences=1,
        )
        report = driver.run()
        assert not report.ok, "injected sub-operand swap went undetected"
        divergence = report.divergences[0]
        assert divergence.kind == "ir"
        assert any("constfold" in d for d in divergence.diffs)
        # the reducer ran and kept a reproducing (smaller or equal) spec
        assert divergence.reduced_doc is not None
        buggy = IRProgram.from_dict(divergence.reduced_doc)
        assert divergences("ir", buggy)
        # corpus round-trip
        assert report.corpus_files
        kind, program, doc = load_corpus_entry(report.corpus_files[0])
        assert kind == "ir"
        assert program.to_dict() == divergence.reduced_doc

    def test_reduced_reproducer_is_clean_after_unpatching(
        self, tmp_path, monkeypatch
    ):
        with monkeypatch.context() as patch:
            patch.setitem(PASS_REGISTRY, "constfold", _swap_sub_operands)
            report = FuzzDriver(
                seed=0,
                iterations=40,
                target="ir",
                corpus_dir=tmp_path,
                max_divergences=1,
            ).run()
            assert not report.ok
        # registry restored: the same reproducer must now replay clean
        kind, program, _ = load_corpus_entry(report.corpus_files[0])
        assert not divergences("ir", program)


class TestObservability:
    def test_campaign_counters(self):
        from repro.obs import Observer

        observer = Observer()
        report = FuzzDriver(
            seed=0, iterations=6, target="ir", observer=observer
        ).run()
        assert report.ok
        counters = observer.counters
        assert int(counters.get("fuzz.iterations")) == 6
        assert int(counters.get("fuzz.target.ir")) == 6
        assert "fuzz.divergences" not in counters
