"""The region tree (``repro.ir.structure``), proved on its own.

``RegionInterpreter`` walks ``structure(function)`` and runs instructions
through the reference interpreter's own rows, so whatever differs from the
plain ``Interpreter`` — return value, region bytes, block counts, branch
outcomes, memory events — is the tree's fault.  Three groups:

* the nine workloads' kernels, both devices, through a runtime;
* hand-built CFGs the structured vocabulary cannot spell (irreducible,
  a two-level ``break``, 25 nested loops, a 120-arm compare chain), which
  must land in a dispatch region — and still compile as Python;
* random CFGs over a fuel counter: arbitrary edges, guaranteed to end.
"""

import random
import warnings

import pytest

from repro.exec import CompiledEngine, ExecutionError, Interpreter
from repro.exec.regions import RegionInterpreter
from repro.fuzz.oracle import _use_region_interpreter
from repro.ir import (
    Function,
    FunctionType,
    I32,
    IRBuilder,
    add_phi_incoming,
)
from repro.ir.structure import (
    Dispatch,
    Forward,
    If,
    Loop,
    dispatched,
    edge_copies,
    structure,
)
from repro.runtime.system import ultrabook
from repro.svm import SharedRegion
from repro.workloads import all_workloads

from .test_engine_equivalence import NINE, SCALE, _assert_trace_equal

WORKLOADS = all_workloads()


def _kinds(stmts) -> set:
    """The node kinds a tree uses."""
    found = set()
    for stmt in stmts:
        found.add(type(stmt))
        if isinstance(stmt, If):
            found |= _kinds(stmt.then) | _kinds(stmt.orelse)
        elif isinstance(stmt, Loop):
            found |= _kinds(stmt.body)
        elif isinstance(stmt, (Forward, Dispatch)):
            for _block, arm in stmt.members:
                found |= _kinds(arm)
    return found


# -- the nine workloads ------------------------------------------------------


def _run_workload(name: str, on_cpu: bool, regions: bool):
    workload = WORKLOADS[name]()
    rt = workload.make_runtime(system=ultrabook(), engine="reference", keep_traces=True)
    if regions:
        _use_region_interpreter(rt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        state = workload.build(rt, SCALE)
        workload.run(rt, state, on_cpu=on_cpu)
        workload.validate(rt, state)
    return rt


@pytest.mark.parametrize("on_cpu", [False, True], ids=["gpu", "cpu"])
@pytest.mark.parametrize("name", NINE)
def test_region_tree_equals_interpreter_on_workloads(name, on_cpu):
    ref = _run_workload(name, on_cpu, regions=False)
    got = _run_workload(name, on_cpu, regions=True)
    assert bytes(got.region.physical.data) == bytes(ref.region.physical.data)
    assert len(got.trace_log) == len(ref.trace_log)
    for index, (a, b) in enumerate(zip(ref.trace_log, got.trace_log)):
        _assert_trace_equal(a, b, f"{name} trace {index}")


def test_workload_kernels_need_no_dispatch_region():
    """Short-circuit conditions are ``Forward`` regions, loops with early
    exits keep one follow: nothing in the nine workloads falls back."""
    for name in NINE:
        rt = WORKLOADS[name]().make_runtime(system=ultrabook(), engine="reference")
        for function in rt.program.module.functions.values():
            if function.blocks:
                assert not dispatched(structure(function)), (name, function.name)


# -- hand-built shapes ---------------------------------------------------------


def _fn(name="f", params=(I32,), names=("n",)):
    return Function(name, FunctionType(I32, tuple(params)), list(names))


def _run_all(fn, args, max_steps=100_000):
    """(return value or trap text, block counts) from the interpreter, the
    region-tree evaluator and the generated code: all three must agree.
    The generated lanes entry (a CPU launch of one lane) must agree on
    the counts and the trap, and returns nothing."""
    results = []
    for engine_class in (Interpreter, RegionInterpreter, CompiledEngine):
        engine = engine_class(SharedRegion(1 << 12), max_steps=max_steps)
        try:
            value = engine.call_function(fn, list(args))
        except ExecutionError as exc:
            value = str(exc)
        finally:
            engine.release_private_memory()
        results.append((value, engine.trace.block_counts, engine.trace.branch_stats))
    reference, tree, generated = results
    assert tree == reference
    assert generated == reference
    engine = CompiledEngine(SharedRegion(1 << 12), max_steps=max_steps)
    try:
        (lane,) = engine.run_launch(fn, range(1), lambda _index: list(args), 1000).lanes()
        trap = None
    except ExecutionError as exc:
        lane = engine.trace  # the trapped lane's counts, harvested
        trap = str(exc)
    assert trap == (reference[0] if isinstance(reference[0], str) else None)
    assert (lane.block_counts, lane.branch_stats) == reference[1:]
    return reference[0]


def _irreducible():
    """Two blocks that branch into each other, each also entered from
    outside: no header dominates the cycle."""
    fn = _fn()
    entry, left, right, done = (fn.new_block(n) for n in ("entry", "left", "right", "done"))
    b = IRBuilder(entry)
    b.condbr(b.icmp("sgt", fn.args[0], b.i32(10)), left, right)
    b.position_at_end(left)
    x = b.phi(I32, "x")
    x1 = b.add(x, b.i32(3))
    b.condbr(b.icmp("sgt", x1, b.i32(40)), done, right)
    b.position_at_end(right)
    y = b.phi(I32, "y")
    y1 = b.add(y, b.i32(5))
    b.condbr(b.icmp("sgt", y1, b.i32(30)), done, left)
    b.position_at_end(done)
    out = b.phi(I32, "out")
    b.ret(out)
    add_phi_incoming(x, fn.args[0], entry)
    add_phi_incoming(x, y1, right)
    add_phi_incoming(y, fn.args[0], entry)
    add_phi_incoming(y, x1, left)
    add_phi_incoming(out, x1, left)
    add_phi_incoming(out, y1, right)
    return fn


def _nested_loops(depth: int, break_levels: int = 1, trips: int = 2):
    """``depth`` counting loops inside each other, ``trips`` iterations
    each; the innermost also leaves ``break_levels`` loops at once when
    the running total reaches the argument."""
    fn = _fn()
    entry = fn.new_block("entry")
    headers = [fn.new_block(f"head{i}") for i in range(depth)]
    latches = [fn.new_block(f"latch{i}") for i in range(depth)]
    exits = [fn.new_block(f"exit{i}") for i in range(depth)]
    body = fn.new_block("body")
    b = IRBuilder(entry)
    cell = b.alloca(I32, "total")
    b.store(b.i32(0), cell)
    b.br(headers[0])
    counters = []
    for i, header in enumerate(headers):
        b.position_at_end(header)
        count = b.phi(I32, f"i{i}")
        counters.append(count)
        inside = headers[i + 1] if i + 1 < depth else body
        b.condbr(b.icmp("slt", count, b.i32(trips)), inside, exits[i])
    b.position_at_end(body)
    total = b.add(b.load(cell), b.i32(1))
    b.store(total, cell)
    far = exits[depth - break_levels]
    b.condbr(b.icmp("eq", total, fn.args[0]), far, latches[depth - 1])
    for i in reversed(range(depth)):
        b.position_at_end(latches[i])
        bumped = b.add(counters[i], b.i32(1))
        b.br(headers[i])
        add_phi_incoming(counters[i], b.i32(0), entry if i == 0 else headers[i - 1])
        add_phi_incoming(counters[i], bumped, latches[i])
        b.position_at_end(exits[i])
        if i == 0:
            b.ret(b.load(cell))
        else:
            b.br(latches[i - 1])
    return fn


def _compare_chain(arms: int):
    """What devirtualization leaves: ``arms`` tests in a row, each with
    its own arm, all meeting in one block."""
    fn = _fn()
    tests = [fn.new_block(f"test{i}") for i in range(arms)]
    bodies = [fn.new_block(f"arm{i}") for i in range(arms)]
    miss, done = fn.new_block("miss"), fn.new_block("done")
    b = IRBuilder(done)
    out = b.phi(I32, "out")
    b.ret(out)
    for i in range(arms):
        b.position_at_end(tests[i])
        following = tests[i + 1] if i + 1 < arms else miss
        b.condbr(b.icmp("eq", fn.args[0], b.i32(i)), bodies[i], following)
        b.position_at_end(bodies[i])
        b.br(done)
        add_phi_incoming(out, b.i32(1000 + i), bodies[i])
    b.position_at_end(miss)
    b.br(done)
    add_phi_incoming(out, b.i32(-1), miss)
    return fn


class TestDispatchRegions:
    def test_irreducible_cycle(self):
        fn = _irreducible()
        assert dispatched(structure(fn))
        for n in (0, 11, 25, 50):
            _run_all(fn, [n])

    def test_two_level_break(self):
        fn = _nested_loops(3, break_levels=2)
        assert dispatched(structure(fn))
        assert _run_all(fn, [3]) == 7  # left the inner two loops once
        assert _run_all(fn, [99]) == 8

    def test_single_level_break_stays_structured(self):
        fn = _nested_loops(3, break_levels=1)
        tree = structure(fn)
        assert not dispatched(tree) and Loop in _kinds(tree)
        assert _run_all(fn, [5]) == 7

    def test_25_nested_loops(self):
        """CPython compiles at most 20 statically nested blocks."""
        fn = _nested_loops(25, trips=1)
        tree = structure(fn)
        assert dispatched(tree) and Loop in _kinds(tree)
        assert _run_all(fn, [99]) == 1

    def test_120_arm_compare_chain(self):
        """... and at most 100 levels of indentation."""
        fn = _compare_chain(120)
        tree = structure(fn)
        assert dispatched(tree) and If in _kinds(tree)
        assert _run_all(fn, [0]) == 1000
        assert _run_all(fn, [119]) == 1119
        assert _run_all(fn, [500]) == -1

    def test_short_circuit_is_a_forward_region(self):
        fn = _fn(params=(I32, I32), names=("a", "b"))
        entry, rhs, then, other, done = (
            fn.new_block(n) for n in ("entry", "and.rhs", "then", "else", "done")
        )
        b = IRBuilder(entry)
        b.condbr(b.icmp("sgt", fn.args[0], b.i32(0)), rhs, other)
        b.position_at_end(rhs)
        b.condbr(b.icmp("sgt", fn.args[1], b.i32(0)), then, other)
        b.position_at_end(then)
        b.br(done)
        b.position_at_end(other)
        b.br(done)
        b.position_at_end(done)
        out = b.phi(I32, "out")
        b.ret(out)
        add_phi_incoming(out, b.i32(1), then)
        add_phi_incoming(out, b.i32(0), other)
        tree = structure(fn)
        assert not dispatched(tree) and Forward in _kinds(tree)
        for a in (0, 1):
            for c in (0, 1):
                assert _run_all(fn, [a, c]) == (a and c)


class TestPhiEdges:
    def test_phi_with_no_incoming_edge_traps_on_that_edge_only(self):
        fn = _fn()
        entry, left, right, merge = (
            fn.new_block(n) for n in ("entry", "left", "right", "merge")
        )
        b = IRBuilder(entry)
        b.condbr(fn.args[0], left, right)
        b.position_at_end(left)
        b.br(merge)
        b.position_at_end(right)
        b.br(merge)
        b.position_at_end(merge)
        phi = b.phi(I32, "m")
        b.ret(phi)
        add_phi_incoming(phi, b.i32(1), left)
        assert edge_copies(left, merge) == [(phi, phi.operands[0])]
        assert edge_copies(right, merge) is None
        assert _run_all(fn, [1]) == 1
        assert _run_all(fn, [0]) == "f: phi in merge has no incoming edge from right"

    def test_swapped_phis_copy_in_parallel(self):
        fn = _fn()
        entry, header, body, done = (
            fn.new_block(n) for n in ("entry", "header", "body", "done")
        )
        b = IRBuilder(entry)
        b.br(header)
        b.position_at_end(header)
        x, y, i = b.phi(I32, "x"), b.phi(I32, "y"), b.phi(I32, "i")
        b.condbr(b.icmp("slt", i, fn.args[0]), body, done)
        b.position_at_end(body)
        bumped = b.add(i, b.i32(1))
        b.br(header)
        b.position_at_end(done)
        b.ret(b.sub(b.mul(x, b.i32(10)), y))
        for phi, first, again in ((x, 1, y), (y, 2, x), (i, 0, bumped)):
            add_phi_incoming(phi, b.i32(first), entry)
            add_phi_incoming(phi, again, body)
        assert _run_all(fn, [0]) == 8
        assert _run_all(fn, [1]) == 19


# -- random CFGs ---------------------------------------------------------------


def _random_cfg(rng: random.Random):
    """``n`` blocks with arbitrary edges.  State lives in private memory
    (no phis to keep consistent): every block folds its number into an
    accumulator, burns one unit of fuel and returns the accumulator when
    the fuel is gone, else branches on an accumulator bit."""
    fn = _fn(params=(I32, I32), names=("fuel", "seed"))
    n = rng.randint(2, 9)
    entry = fn.new_block("entry")
    heads = [fn.new_block(f"b{i}") for i in range(n)]
    gos = [fn.new_block(f"go{i}") for i in range(n)]
    out = fn.new_block("out")
    b = IRBuilder(entry)
    acc, fuel = b.alloca(I32, "acc"), b.alloca(I32, "fuel")
    b.store(fn.args[1], acc)
    b.store(fn.args[0], fuel)
    b.br(heads[0])
    for i in range(n):
        b.position_at_end(heads[i])
        mixed = b.add(b.mul(b.load(acc), b.i32(31)), b.i32(i + 1))
        b.store(mixed, acc)
        left = b.sub(b.load(fuel), b.i32(1))
        b.store(left, fuel)
        b.condbr(b.icmp("sle", left, b.i32(0)), out, gos[i])
        b.position_at_end(gos[i])
        if rng.random() < 0.3:
            b.br(rng.choice(heads))
        else:
            bit = b.binop("and", b.binop("ashr", mixed, b.i32(rng.randint(0, 4))), b.i32(1))
            b.condbr(bit, rng.choice(heads), rng.choice(heads))
    b.position_at_end(out)
    b.ret(b.load(acc))
    return fn


@pytest.mark.parametrize("seed", range(150))
def test_random_cfgs(seed):
    rng = random.Random(seed)
    fn = _random_cfg(rng)
    for fuel in (1, 7, 40):
        _run_all(fn, [fuel, rng.randint(0, 1 << 20)])
