"""Property-based tests (hypothesis) on core invariants:

* the shared allocator never double-allocates, always respects alignment,
  and coalescing restores full capacity;
* struct layout always honours alignment and field ordering;
* integer wrapping is involutive and in-range;
* constant folding agrees with the interpreter on random expression trees;
* compiled random MiniC++ functions compute identical results under every
  optimization configuration and on both devices (the compiler's
  end-to-end semantic-preservation property).
"""

import warnings

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.exec import Interpreter
from repro.ir import Constant, Function, FunctionType, I32, I64, IRBuilder, IntType
from repro.ir.types import F32, StructType, ptr
from repro.passes import (
    OptConfig,
    common_subexpression_elimination,
    constant_fold,
    dead_code_elimination,
)
from repro.runtime import compile_source
from repro.svm import SharedAllocator, SharedRegion
from repro.gpu import CacheModel

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# -- allocator ---------------------------------------------------------------


@st.composite
def alloc_scripts(draw):
    ops = draw(
        st.lists(
            st.tuples(st.sampled_from(["malloc", "free"]), st.integers(1, 512)),
            min_size=1,
            max_size=60,
        )
    )
    return ops


class TestAllocatorProperties:
    @given(alloc_scripts())
    @SLOW
    def test_no_overlap_and_alignment(self, script):
        region = SharedRegion(1 << 16)
        alloc = SharedAllocator(region)
        live: dict[int, int] = {}
        for op, size in script:
            if op == "malloc":
                try:
                    addr = alloc.malloc(size)
                except Exception:
                    continue
                assert addr % 16 == 0
                for other, other_size in live.items():
                    assert addr + size <= other or other + other_size <= addr, (
                        "overlapping allocations"
                    )
                live[addr] = size
            elif live:
                victim = sorted(live)[size % len(live)]
                alloc.free(victim)
                del live[victim]
        # everything still frees cleanly
        for addr in list(live):
            alloc.free(addr)
        assert alloc.live_bytes == 0

    @given(st.lists(st.integers(1, 1000), min_size=1, max_size=30))
    @SLOW
    def test_free_all_restores_capacity(self, sizes):
        region = SharedRegion(1 << 16)
        alloc = SharedAllocator(region)
        addrs = []
        for size in sizes:
            try:
                addrs.append(alloc.malloc(size))
            except Exception:
                break
        for addr in addrs:
            alloc.free(addr)
        # after coalescing, a near-full-region allocation must succeed
        big = alloc.malloc((1 << 16) - 64)
        assert region.contains_cpu(big)


# -- layout / types -------------------------------------------------------------


SCALARS = st.sampled_from(
    [I32, I64, F32, ptr(I32), IntType(8), IntType(16, signed=False)]
)


class TestLayoutProperties:
    @given(st.lists(SCALARS, min_size=1, max_size=12))
    @SLOW
    def test_layout_invariants(self, field_types):
        s = StructType("P")
        s.finalize([(f"f{i}", t) for i, t in enumerate(field_types)])
        last_end = 0
        for field, ftype in zip(s.fields, field_types):
            assert field.offset % ftype.align() == 0
            assert field.offset >= last_end
            last_end = field.offset + ftype.size()
        assert s.size() >= last_end
        assert s.size() % s.align() == 0

    @given(st.integers(-(2**70), 2**70), st.sampled_from([8, 16, 32, 64]),
           st.booleans())
    @SLOW
    def test_wrap_idempotent_and_in_range(self, value, bits, signed):
        t = IntType(bits, signed)
        wrapped = t.wrap(value)
        assert t.min_value <= wrapped <= t.max_value
        assert t.wrap(wrapped) == wrapped


# -- constant folding vs interpreter ----------------------------------------------


@st.composite
def expr_trees(draw, depth=0):
    """(builder_fn, python_value) pairs over i32 arithmetic."""
    if depth >= 3 or draw(st.booleans()):
        value = draw(st.integers(-1000, 1000))
        return ("const", value)
    op = draw(st.sampled_from(["add", "sub", "mul", "and", "or", "xor"]))
    lhs = draw(expr_trees(depth=depth + 1))
    rhs = draw(expr_trees(depth=depth + 1))
    return (op, lhs, rhs)


def build_expr(builder, tree):
    if tree[0] == "const":
        return Constant(I32, I32.wrap(tree[1]))
    op, lhs, rhs = tree
    return builder.binop(op, build_expr(builder, lhs), build_expr(builder, rhs))


def eval_tree(tree) -> int:
    if tree[0] == "const":
        return I32.wrap(tree[1])
    op, lhs, rhs = tree
    a, b = eval_tree(lhs), eval_tree(rhs)
    fns = {
        "add": a + b, "sub": a - b, "mul": a * b,
        "and": a & b, "or": a | b, "xor": a ^ b,
    }
    return I32.wrap(fns[op])


class TestConstantFoldingProperties:
    @given(expr_trees())
    @SLOW
    def test_folding_agrees_with_interpreter(self, tree):
        fn = Function("f", FunctionType(I32, ()), [])
        entry = fn.new_block("entry")
        b = IRBuilder(entry)
        b.ret(build_expr(b, tree))
        constant_fold(fn)
        dead_code_elimination(fn)
        region = SharedRegion(1 << 12)
        got = Interpreter(region, "cpu").call_function(fn, [])
        assert got == eval_tree(tree)
        # fully-constant trees must fold to a single ret
        assert sum(1 for _ in fn.instructions()) == 1


# -- cache model -------------------------------------------------------------------


class TestCacheProperties:
    @given(st.lists(st.integers(0, 400), min_size=1, max_size=300))
    @SLOW
    def test_stats_conserved(self, lines):
        cache = CacheModel(64 * 64, 64, 4)
        hits = cache.touch(lines)
        assert len(hits) == len(lines)
        assert (~hits).sum() >= len(set(lines))  # compulsory misses

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=200))
    @SLOW
    def test_small_working_set_all_hits_after_warmup(self, lines):
        cache = CacheModel(64 * 64, 64, 8)
        cache.touch(sorted(set(lines)))
        assert cache.touch(lines).all()


# -- end-to-end semantic preservation -----------------------------------------------


@st.composite
def minicpp_kernels(draw):
    """A random straight-line+loop arithmetic body over an int array."""
    n_stmts = draw(st.integers(1, 5))
    lines = []
    expressions = ["x", "i", "7", "x + i", "x * 3", "i - x"]
    for index in range(n_stmts):
        expr = draw(st.sampled_from(expressions))
        op = draw(st.sampled_from(["+", "^", "|"]))
        lines.append(f"x = (x {op} ({expr})) + {index};")
    loop_bound = draw(st.integers(1, 6))
    body = "\n        ".join(lines)
    source = f"""
    class RandBody {{
    public:
      int* data;
      void operator()(int i) {{
        int x = data[i];
        for (int j = 0; j < {loop_bound}; j++) {{
          {body}
        }}
        data[i] = x;
      }}
    }};
    """
    return source


class TestEndToEndSemantics:
    @given(minicpp_kernels(), st.lists(st.integers(-100, 100), min_size=4,
                                       max_size=12))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_configs_and_devices_agree(self, source, values):
        from repro.ir.types import I32 as I32t
        from repro.runtime import ConcordRuntime, ultrabook

        results = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for config in (OptConfig.gpu(), OptConfig.gpu_all()):
                for on_cpu in (False, True):
                    prog = compile_source(source, config)
                    rt = ConcordRuntime(prog, ultrabook(),
                                        collect_mem_events=False)
                    data = rt.new_array(I32t, len(values))
                    data.fill_from(values)
                    body = rt.new("RandBody")
                    body.data = data
                    rt.parallel_for_hetero(len(values), body, on_cpu=on_cpu)
                    results.append(data.to_list())
        first = results[0]
        for other in results[1:]:
            assert other == first


# -- fuzz generators as hypothesis strategies ------------------------------------


@st.composite
def ir_programs(draw):
    """A random verifier-clean IR function spec from the fuzz generator,
    driven by a hypothesis-chosen seed (so shrinking walks seeds)."""
    import random

    from repro.fuzz import generate_ir_program

    seed = draw(st.integers(0, 2**31 - 1))
    return generate_ir_program(random.Random(seed), seed=seed)


@st.composite
def source_programs(draw):
    import random

    from repro.fuzz import generate_source_program

    seed = draw(st.integers(0, 2**31 - 1))
    return generate_source_program(random.Random(seed), seed=seed)


class TestIRPassIdempotence:
    """Running a pass twice must equal running it once: the second
    application of mem2reg/constfold/dce on generated IR is a no-op."""

    def _idempotent(self, program, pass_fn):
        from repro.fuzz import build_ir
        from repro.ir import format_function, verify_function

        _, fn = build_ir(program)
        pass_fn(fn)
        verify_function(fn)
        once = format_function(fn)
        pass_fn(fn)
        verify_function(fn)
        assert format_function(fn) == once

    @given(ir_programs())
    @SLOW
    def test_mem2reg_idempotent(self, program):
        from repro.passes.mem2reg import promote_memory_to_registers

        self._idempotent(program, promote_memory_to_registers)

    @given(ir_programs())
    @SLOW
    def test_constfold_idempotent(self, program):
        self._idempotent(program, constant_fold)

    @given(ir_programs())
    @SLOW
    def test_dce_idempotent(self, program):
        self._idempotent(program, dead_code_elimination)

    @given(ir_programs())
    @SLOW
    def test_cse_idempotent(self, program):
        self._idempotent(program, common_subexpression_elimination)


class TestFuzzGeneratorProperties:
    """The generator contracts the differential oracles rely on."""

    @given(ir_programs())
    @SLOW
    def test_generated_ir_verifies_and_engines_agree(self, program):
        from repro.fuzz import build_ir, run_ir_function
        from repro.ir import verify_function

        _, fn = build_ir(program)
        verify_function(fn)  # generator contract: verifier-clean
        ref = run_ir_function(fn, program, engine="interpreter")
        com = run_ir_function(fn, program, engine="compiled")
        assert ref.ok and com.ok  # masked indices / odd divisors: no traps
        assert ref.outputs == com.outputs
        assert ref.region_digest == com.region_digest

    @given(ir_programs())
    @SLOW
    def test_spec_round_trips_through_json(self, program):
        import json
        import re

        from repro.fuzz import IRProgram, build_ir
        from repro.ir import format_function

        def normalized(fn):
            # Value names carry a process-global uid counter; rename them
            # in order of first appearance so only structure is compared.
            text = format_function(fn)
            names: dict = {}
            return re.sub(
                r"%t\d+",
                lambda m: names.setdefault(m.group(0), f"%v{len(names)}"),
                text,
            )

        doc = json.loads(json.dumps(program.to_dict()))
        _, original = build_ir(program)
        _, rebuilt = build_ir(IRProgram.from_dict(doc))
        assert normalized(rebuilt) == normalized(original)

    @given(source_programs())
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_generated_sources_compile_and_run_trap_free(self, program):
        from repro.fuzz import run_source_program

        outcome = run_source_program(program)
        assert outcome.ok, outcome.trap
