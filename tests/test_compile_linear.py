"""The compile path does the same work in fewer steps (PR 17).

``replace_uses`` (one sweep per pass), ``DominatorTree.of`` (one tree per
CFG shape) and the ``PassManager``'s clean-pass skip must leave every
compiled program exactly as the parent commit left it.  What "exactly"
means is frozen in ``compile_linear_frozen.json``, written by running
``tests/compile_linear_freeze.py`` against the parent *before* the change
(the PR 15/16 method; that file says how).

(a) canonical digest per program — IR text + OpenCL + ``program_id`` +
    restriction warnings, instruction uids renumbered by first appearance;
(b) ``replace_uses`` against the per-value sweep it replaced (the oracle
    lives here now);
(c) ``DominatorTree.of`` is never stale and never outlives the pipeline;
(d) every skipped pass would have reported "no change", whatever let the
    manager skip it — an idle run with nothing changed since, a declared
    ``needs`` the function lacks, a declared ``unaffected_by`` (PR 24);
    the verifier runs once when a stage ends, what it used to see after
    every changed pass is checked here pass by pass, and a broken pass is
    still rejected at compile time, named;
(e) deterministic work counts stay a fraction of the parent's and grow
    linearly with program size.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import pickle
import random
import re
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.passes
from repro.eval.runner import WORKLOAD_ORDER
from repro.fuzz import build_ir, generate_ir_program, generate_source_program
from repro.ir import (
    Constant,
    DominatorTree,
    Function,
    FunctionType,
    I32,
    Instruction,
    IRBuilder,
    PointerType,
    VerificationError,
    VoidType,
    add_phi_incoming,
    format_function,
    replace_uses,
    verify_function,
)
from repro.obs import Observer
from repro.passes import pipeline
from repro.passes.constfold import constant_fold
from repro.passes.cse import common_subexpression_elimination
from repro.passes.mem2reg import promote_memory_to_registers
from repro.passes.pipeline import OptConfig
from repro.runtime import ConcordRuntime, compiler
from repro.runtime.compiler import ConcordWarning, compile_source
from repro.workloads import all_workloads

from .compile_linear_freeze import (
    FROZEN_PATH,
    FUZZ_SEEDS,
    canonical_digest,
    compile_pinned,
    fuzz_programs,
    nine_workloads,
    workload_configs,
)

@pytest.fixture(scope="module")
def frozen() -> dict:
    with open(FROZEN_PATH) as handle:
        return json.load(handle)


# -- (a) identity ---------------------------------------------------------------


class TestIdentity:
    @pytest.mark.parametrize("name", WORKLOAD_ORDER)
    def test_workload_digests(self, frozen, name):
        source = all_workloads()[name].source
        got = {
            label: canonical_digest(source, config, name)
            for label, config in workload_configs().items()
        }
        assert got == frozen["workloads"][name]

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_fuzz_digests(self, frozen, seed):
        got = [
            canonical_digest(program.source, OptConfig.gpu_all(), f"fuzz{index}")
            for index, program in enumerate(fuzz_programs(seed))
        ]
        assert got == frozen["fuzz"][str(seed)]


# -- (b) replace_uses against the per-value sweep ---------------------------------


def sweep_per_value(function, mapping) -> None:
    """The oracle — what the passes did before: resolve every chain, then
    sweep the whole function once per retired value."""

    def end(value):
        seen = []
        while any(value is key for key in mapping) and not any(value is s for s in seen):
            seen.append(value)
            value = mapping[value]
        return value

    for old, new in [(old, end(old)) for old in mapping]:
        for instr in function.instructions():
            instr.replace_uses_of(old, new)


def operand_shape(function) -> list:
    position = {instr: index for index, instr in enumerate(function.instructions())}
    arguments = {arg: index for index, arg in enumerate(function.args)}

    def describe(value):
        if isinstance(value, Instruction):
            return ("instr", position.get(value, "detached"))
        if value in arguments:
            return ("arg", arguments[value])
        return ("const", str(value.type), value.value)

    return [[describe(v) for v in instr.operands] for instr in function.instructions()]


@settings(max_examples=60, deadline=None, suppress_health_check=list(HealthCheck))
@given(seed=st.integers(0, 10**6), picks=st.lists(st.integers(0, 10**6), min_size=0, max_size=24))
def test_replace_uses_matches_per_value_sweep(seed, picks):
    spec = generate_ir_program(random.Random(seed), seed=seed)
    (_, ours), (_, theirs) = build_ir(spec), build_ir(spec)
    rng = random.Random(seed ^ 0x5EED)

    def random_map(function) -> dict:
        values = [i for i in function.instructions() if not isinstance(i.type, VoidType)]
        phis = [i for i in values if i.op == "phi"]
        mapping = {}
        for pick in picks:
            old = values[pick % len(values)]
            roll = rng.random()
            if roll < 0.5:  # another instruction: chains, and cycles, arise
                new = values[rng.randrange(len(values))]
            elif roll < 0.65:
                new = Constant(old.type, rng.randrange(4))
            elif roll < 0.8:
                new = function.args[rng.randrange(len(function.args))]
            elif phis:  # a phi standing in for itself, or feeding on itself
                new = phis[rng.randrange(len(phis))]
                new.operands[0] = new
                old = new if roll < 0.9 else old
            else:
                continue
            mapping[old] = new
        return mapping

    state = rng.getstate()
    mapping = random_map(ours)
    rng.setstate(state)
    reference = random_map(theirs)
    replace_uses(ours, mapping)
    sweep_per_value(theirs, reference)
    assert operand_shape(ours) == operand_shape(theirs)


class TestFoldChains:
    """``constant_fold`` used to give up resolving after 64 hops and leave
    uses of an instruction it then removed."""

    @pytest.mark.parametrize("length", [60, 64, 65, 70, 500])
    def test_from_ir(self, length):
        function = Function("chain", FunctionType(I32, [I32]), ["x"])
        builder = IRBuilder(function.new_block("entry"))
        value = function.args[0]
        for _ in range(length):
            value = builder.add(value, builder.i32(0))
        builder.ret(value)
        assert constant_fold(function)
        verify_function(function)
        assert [i.op for i in function.instructions()] == ["ret"]
        assert function.entry.terminator.operands == [function.args[0]]

    @pytest.mark.parametrize("length", [60, 64, 65, 70, 500])
    def test_from_source(self, length):
        # one statement per link: the frontend recurses on long expressions
        source = FOLD_CHAIN_SOURCE.replace("LINKS", "v = v + 0; " * length)
        program = compile_source(source, OptConfig.gpu_all())
        runtime = ConcordRuntime(program)
        out = runtime.new_array(I32, 8)
        runtime.parallel_for_hetero(8, runtime.new("Chain", out))
        assert [out[i] for i in range(8)] == list(range(8))

    def test_phi_cycle_terminates(self):
        # Two single-input phis feeding each other (an entry-less loop), plus
        # one that only feeds itself: every chain ends, all three fold away.
        function = Function("cycle", FunctionType(I32, [I32]), ["x"])
        entry, a, b = (function.new_block(n) for n in ("entry", "a", "b"))
        IRBuilder(entry).ret(function.args[0])
        phi_a = IRBuilder(a).phi(I32, name="pa")
        IRBuilder(a).br(b)
        phi_b, lone = IRBuilder(b).phi(I32, name="pb"), IRBuilder(b).phi(I32, name="lone")
        IRBuilder(b).br(a)
        add_phi_incoming(phi_a, phi_b, b)
        add_phi_incoming(phi_b, phi_a, a)
        add_phi_incoming(lone, lone, a)
        assert constant_fold(function)
        assert [i.op for i in function.instructions()] == ["ret", "br", "br"]


FOLD_CHAIN_SOURCE = """
class Chain {
  int* out;
public:
  Chain(int* o) : out(o) {}
  void operator()(int i) { int v = i; LINKS out[i] = v; }
};
"""


def test_deep_dominator_tree_needs_no_recursion(monkeypatch):
    """mem2reg and cse walk the dominator tree on an explicit stack: a
    3000-block straight line goes through with the recursion limit pinned
    (they used to raise it, process-wide, around a recursive walk — under
    two concurrent daemon compiles one could restore it beneath the other)."""
    function = Function("line", FunctionType(I32, [I32]), ["x"])
    builder = IRBuilder(function.new_block("b0"))
    cell = builder.alloca(I32, name="cell")
    builder.store(function.args[0], cell)
    for index in range(1, 3000):
        block = function.new_block(f"b{index}")
        builder.br(block)
        builder.position_at_end(block)
        value = builder.add(builder.load(cell), builder.i32(1))
        builder.add(builder.load(cell), builder.i32(1))  # cse fodder
        builder.store(value, cell)
    builder.ret(builder.load(cell))
    def pinned(limit):
        raise AssertionError(f"a pass set the process-wide recursion limit to {limit}")

    monkeypatch.setattr(sys, "setrecursionlimit", pinned)
    assert sys.getrecursionlimit() < 3000
    assert promote_memory_to_registers(function)
    assert common_subexpression_elimination(function)
    verify_function(function)
    assert {i.op for i in function.instructions()} == {"add", "br", "ret"}
    assert sum(i.op == "add" for i in function.instructions()) == 2999


# -- (c) DominatorTree.of -----------------------------------------------------------


def same_tree(a: DominatorTree, b: DominatorTree) -> bool:
    return (a.rpo, a.idom, a.children, a.frontier) == (b.rpo, b.idom, b.children, b.frontier)


def checked_registry(monkeypatch, after_pass) -> None:
    """Call ``after_pass(name, function, changed, tree_before)`` behind
    every ``PASS_REGISTRY`` pass."""

    def wrap(name, pass_fn):
        def wrapped(*args):
            function = args[-1]
            before = function.domtree
            changed = pass_fn(*args)
            after_pass(name, function, changed, before)
            return changed

        wrapped.__name__ = pass_fn.__name__
        return wrapped

    for name, pass_fn in pipeline.PASS_REGISTRY.items():
        if name == "inline":
            monkeypatch.setitem(
                pipeline.PASS_REGISTRY, name,
                lambda module, _make=pass_fn: wrap("inline", _make(module)),
            )
        else:
            monkeypatch.setitem(pipeline.PASS_REGISTRY, name, wrap(name, pass_fn))


def corpus() -> list:
    programs = [(source, name) for name, source in nine_workloads()]
    for seed in FUZZ_SEEDS:
        programs += [(p.source, f"fuzz{i}") for i, p in enumerate(fuzz_programs(seed))]
    return programs


class TestDominatorTreeOf:
    def test_fresh_after_every_pass(self, monkeypatch):
        went_stale = {"constfold": 0, "simplifycfg": 0}

        def after_pass(name, function, changed, before):
            if not function.blocks:
                return
            fresh = DominatorTree(function)
            if name in went_stale and before is not None and before.shape != fresh.shape:
                went_stale[name] += 1  # e.g. condbr -> br, a retargeted edge
            assert same_tree(DominatorTree.of(function), fresh), name
            assert DominatorTree.of(function) is DominatorTree.of(function)

        checked_registry(monkeypatch, after_pass)
        verified = []
        monkeypatch.setattr(
            pipeline, "verify_function",
            lambda function, _real=pipeline.verify_function: (verified.append(function), _real(function)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConcordWarning)
            for source, name in corpus():
                program = compile_source(source, OptConfig.gpu_all(), name)
                # ... and none of it outlives the pipeline: the verifier asks
                # for a tree when a stage ends, so the stage must verify
                # first and drop the tree after
                assert all(f.domtree is None for f in program.module.functions.values())
        assert verified
        assert went_stale["constfold"] and went_stale["simplifycfg"]

    def test_in_place_target_rewrite_is_seen(self):
        function = Function("f", FunctionType(I32, [I32]), ["x"])
        entry, left, right, join = (function.new_block(n) for n in "elrj")
        builder = IRBuilder(entry)
        builder.condbr(builder.icmp("eq", function.args[0], builder.i32(0)), left, right)
        IRBuilder(left).br(join)
        IRBuilder(right).br(join)
        IRBuilder(join).ret(function.args[0])
        tree = DominatorTree.of(function)
        assert tree.idom[join] is entry and DominatorTree.of(function) is tree
        entry.terminator.targets[1] = left  # no list rebound, no block added
        rebuilt = DominatorTree.of(function)
        assert rebuilt is not tree and rebuilt.idom[join] is left
        assert same_tree(rebuilt, DominatorTree(function))

    def test_never_pickled(self, frozen):
        name, source = nine_workloads()[0]
        program, _ = compile_pinned(source, OptConfig.gpu_all(), name)
        function = next(f for f in program.module.functions.values() if f.blocks)
        clean = pickle.dumps(program)
        assert len(clean) == frozen["pickle_bytes"][name]
        tree = DominatorTree.of(function)  # as if caught mid-pipeline
        assert function.domtree is tree
        assert len(pickle.dumps(program)) == len(clean)
        assert b"DominatorTree" not in pickle.dumps(program)
        copy = pickle.loads(pickle.dumps(function))
        assert "domtree" not in vars(copy)
        assert same_tree(DominatorTree.of(copy), DominatorTree(copy))

    @pytest.mark.parametrize("name", WORKLOAD_ORDER)
    def test_pickle_size_is_the_parents(self, frozen, name):
        source = all_workloads()[name].source
        program, _ = compile_pinned(source, OptConfig.gpu_all(), name)
        assert len(pickle.dumps(program)) == frozen["pickle_bytes"][name]


# -- (d) what the manager skips ---------------------------------------------------------


class RunsSkippedPassesAnyway(pipeline.PassManager):
    def __init__(self, verify: bool = True):
        super().__init__(verify)
        self.idle_reruns = 0

    def _skip(self, stat, pass_fn, function):
        before = format_function(function)
        assert pass_fn(function) is False, f"{stat.name} skipped on {function.name} but had work"
        assert format_function(function) == before
        self.idle_reruns += 1
        super()._skip(stat, pass_fn, function)


def count_stage_changes(monkeypatch, manager) -> list:
    """Wrap both pipelines as ``compiler`` calls them; returns the list
    that collects the function of every stage that changed it."""
    changed_in = []

    def counting(stage):
        def run(module, function, config, **kwargs):
            before = sum(stat.changed for stat in manager.stats.values())
            stage(module, function, config, **kwargs)
            if sum(stat.changed for stat in manager.stats.values()) > before:
                changed_in.append(function)

        return run

    monkeypatch.setattr(compiler, "standard_pipeline", counting(compiler.standard_pipeline))
    monkeypatch.setattr(compiler, "kernel_pipeline", counting(compiler.kernel_pipeline))
    return changed_in


def sweep_sources() -> list:
    """The 200-program ``srcgen`` sweep the pass declarations are held to."""
    rng = random.Random(24)
    return [(generate_source_program(rng, seed=24).source, f"sweep{i}") for i in range(200)]


def test_skipped_passes_would_have_done_nothing(monkeypatch):
    verified = []
    monkeypatch.setattr(
        pipeline, "verify_function",
        lambda function, _real=pipeline.verify_function: (verified.append(function), _real(function)),
    )
    manager = RunsSkippedPassesAnyway()
    changed_in = count_stage_changes(monkeypatch, manager)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConcordWarning)
        for source, name in corpus():
            front = compiler.frontend_stage(source, name)
            compiler.pipeline_stage(front, OptConfig.gpu_all(), manager=manager)
        # the declarations are general claims: the nine workloads under the
        # other three configurations and 200 more generated programs
        for config in OptConfig.all_configs()[:3]:
            for name, source in nine_workloads():
                front = compiler.frontend_stage(source, name)
                compiler.pipeline_stage(front, config, manager=manager)
        for source, name in sweep_sources():
            front = compiler.frontend_stage(source, name)
            compiler.pipeline_stage(front, OptConfig.gpu_all(), manager=manager)
    stats = manager.stats.values()
    skipped = sum(stat.skipped for stat in stats)
    assert skipped == manager.idle_reruns > 0
    # one verification per stage that changed its function, when it ends
    assert verified == changed_in and len(verified) < sum(stat.changed for stat in stats)
    assert not manager._unverified
    # the skip is worth having: a third of what the parent of PR 17 ran
    assert skipped * 3 >= sum(stat.runs for stat in stats) + skipped
    # every declaration was exercised
    for name in ("eliminate_tail_recursion", "inline_calls", "expand_virtual_calls",
                 "loop_invariant_code_motion", "common_subexpression_elimination"):
        assert manager.stats[name].skipped, name


def test_passes_report_change_truthfully(monkeypatch):
    """The manager believes a "no change" — so the text must not have moved."""
    texts = {}

    def body(function):
        return "\n".join(
            f"{b.name}: " + "; ".join(repr(i) for i in b.instructions) for b in function.blocks
        )

    def after_pass(name, function, changed, before):
        now = body(function)
        if not changed and function in texts:
            assert texts[function] == now, f"{name} changed {function.name} and said it had not"
        texts[function] = now

    checked_registry(monkeypatch, after_pass)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConcordWarning)
        for source, name in corpus()[:9] + corpus()[9::4]:
            texts.clear()
            compile_source(source, OptConfig.gpu_all(), name)


class TestVerification:
    """The verifier left the manager's inner loop (PR 24): a stage verifies
    what it changed when it ends.  What the per-pass call caught is caught
    here, and a pass that breaks the IR is still refused by the compile."""

    @pytest.mark.parametrize("config", OptConfig.all_configs(), ids=lambda c: c.label)
    def test_every_changed_run_of_every_pass_verifies(self, monkeypatch, config):
        changed_runs = collections.Counter()

        def after_pass(name, function, changed, before):
            if changed:
                verify_function(function)
                changed_runs[name] += 1

        checked_registry(monkeypatch, after_pass)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConcordWarning)
            for source, name in corpus():
                compile_source(source, config, name)
        expected = set(pipeline.PASS_REGISTRY) - {"tailrec"}  # the corpus has no tail call
        expected -= {"ptropt"} if not config.ptropt else set()
        expected -= {"l3opt"}  # fires on hand-written loops only (tests/test_paper_passes.py)
        assert set(changed_runs) == expected

    #: a source whose every function and kernel gives a saboteur something
    #: to break: a call, loads, stores, a loop, a virtual call
    SOURCE = """
    class Shape { public: virtual int weight(int x) { return x + 1; } };
    class Circle : public Shape { public: virtual int weight(int x) { return x * 3; } };
    int twice(int x) { return x + x; }
    class Apply {
    public:
      int* data;
      Shape* shape;
      void operator()(int i) {
        int sum = 0;
        for (int k = 0; k < 4; k++) sum += twice(data[i] + k);
        data[i] = shape->weight(sum);
      }
    };
    """

    @staticmethod
    def drops_a_loc(function) -> bool:
        for instr in function.instructions():
            if instr.op in ("load", "store", "call", "vcall") and instr.loc is not None:
                instr.loc = None
                return True
        return False

    @staticmethod
    def leaves_a_dangling_operand(function) -> bool:
        # a store no later pass may delete, of values that are in no block
        slot = Instruction("alloca", PointerType(I32), [])
        slot.alloc_type = I32
        value = Instruction("add", I32, [Constant(I32, 1), Constant(I32, 2)])
        store = Instruction("store", VoidType(), [value, slot])
        store.loc = ((1, 0),)
        function.entry.insert(len(function.entry.instructions) - 1, store)
        return True

    @staticmethod
    def emits_a_mid_block_terminator(function) -> bool:
        for block in function.blocks:
            if len(block.instructions) > 1:
                stray = Instruction("br", VoidType(), [])
                stray.targets = [block]
                block.insert(0, stray)
                return True
        return False

    SABOTAGE = {
        "loc": (drops_a_loc, "source location"),
        "operand": (leaves_a_dangling_operand, "removed|dominate"),
        "terminator": (emits_a_mid_block_terminator, "not at end"),
    }
    #: (registry name, its ``__name__``, the stage that must refuse it)
    SEEDED = {
        "dce": ("dead_code_elimination", "standard_pipeline of "),
        "svmlower": ("lower_svm_pointers", r"kernel_pipeline of kernel\.Apply\.gpu"),
    }

    @pytest.mark.parametrize("seeded", sorted(SEEDED))
    @pytest.mark.parametrize("sabotage", sorted(SABOTAGE))
    def test_a_broken_pass_is_refused_at_the_end_of_its_stage(self, monkeypatch, sabotage, seeded):
        """... under the four configurations and every ``without_pass``
        variant (docs/PROFILING.md), with the stage and the pass named."""
        breaks, complaint = self.SABOTAGE[sabotage]
        pass_name, stage = self.SEEDED[seeded]
        real = pipeline.PASS_REGISTRY[seeded]

        def broken(function):
            changed = real(function)
            return breaks.__func__(function) or changed

        broken.__name__ = real.__name__
        monkeypatch.setitem(pipeline.PASS_REGISTRY, seeded, broken)
        configs = OptConfig.all_configs() + [
            OptConfig.gpu_all().without_pass(name)
            for name in pipeline.DISABLEABLE_PASSES
            if name != seeded
        ]
        for config in configs:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConcordWarning)
                with pytest.raises(VerificationError, match=complaint) as caught:
                    compile_source(self.SOURCE, config)
            message = str(caught.value)
            assert re.match(stage, message), (config, message)
            assert pass_name in message.split(":")[0], (config, message)

    def test_an_exception_escaping_a_pass_names_the_stage(self, monkeypatch):
        def crashes(function):
            raise KeyError("no such value")

        crashes.__name__ = "dead_code_elimination"
        monkeypatch.setitem(pipeline.PASS_REGISTRY, "dce", crashes)
        with pytest.raises(KeyError) as caught:
            compile_source(self.SOURCE, OptConfig.gpu_all())
        notes = getattr(caught.value, "__notes__", None)
        if sys.version_info >= (3, 11):
            assert notes and re.match(r"in standard_pipeline of \S+, changed by ", notes[0])

    def test_traced_and_untraced_compiles_do_the_same_runs(self, monkeypatch):
        """One manager per compile, observer or not: the traced half of the
        benchmark must skip exactly what the untraced half skips."""
        managers = []

        class Recorded(pipeline.PassManager):
            def __init__(self, verify=True):
                super().__init__(verify)
                managers.append(self)

        monkeypatch.setattr(compiler, "PassManager", Recorded)
        name, source = nine_workloads()[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConcordWarning)
            compile_source(source, OptConfig.gpu_all(), name)
            compile_source(source, OptConfig.gpu_all(), name, observer=Observer())
        untraced, traced = (
            {s.name: (s.runs, s.changed, s.skipped) for s in manager.stats.values()}
            for manager in managers
        )
        assert untraced == traced and sum(skipped for _, _, skipped in traced.values())


# -- (e) work counts ----------------------------------------------------------------------


def work_counts(source: str, name: str, monkeypatch) -> dict:
    """Dominator trees constructed and operand lists visited by one
    compile at GPU+ALL.  A ``replace_uses`` visits every operand list of
    its function once; a ``replace_uses_of`` visits one."""
    tally = {"domtree_builds": 0, "operand_visits": 0}
    with monkeypatch.context() as patch:
        build = DominatorTree.__init__

        def counted_build(self, function):
            tally["domtree_builds"] += 1
            build(self, function)

        patch.setattr(DominatorTree, "__init__", counted_build)
        visit = Instruction.replace_uses_of

        def counted_visit(self, old, new):
            tally["operand_visits"] += 1
            visit(self, old, new)

        patch.setattr(Instruction, "replace_uses_of", counted_visit)

        def counted_sweep(function, mapping):
            if mapping:
                tally["operand_visits"] += sum(len(b.instructions) for b in function.blocks)
            replace_uses(function, mapping)

        for module in vars(repro.passes).values():
            if getattr(module, "replace_uses", None) is replace_uses:
                patch.setattr(module, "replace_uses", counted_sweep)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConcordWarning)
            compile_source(source, OptConfig.gpu_all(), name)
    return tally


class TestWorkCounts:
    @pytest.mark.parametrize("name", WORKLOAD_ORDER)
    def test_a_third_of_the_parents(self, frozen, monkeypatch, name):
        got = work_counts(all_workloads()[name].source, name, monkeypatch)
        parent = frozen["parent_work"][name]
        assert got["domtree_builds"] * 3 <= parent["domtree_builds"], (got, parent)
        assert got["operand_visits"] * 3 <= parent["operand_visits"], (got, parent)

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_linear_in_program_size(self, monkeypatch, seed):
        for index, program in enumerate(fuzz_programs(seed)[:10]):
            doubled = dataclasses.replace(program, stmts=program.stmts + program.stmts)
            once = work_counts(program.source, f"fuzz{index}", monkeypatch)
            twice = work_counts(doubled.source, f"fuzz{index}x2", monkeypatch)
            for key in once:
                assert twice[key] <= 2.5 * max(once[key], 1), (key, once, twice)
