"""The source-generating vector engine (``repro.exec.vector``).

Five groups, modelled on ``tests/test_compiled_codegen.py``:

* frozen routing — for every kernel of the nine workloads the
  ``classify_kernel`` outcome, and per workload the ``vector.*`` counters
  and final routing verdicts (the classification captured from the
  closure-lowering engine this module's generator replaced, the counters
  from the region-tree schedule).  Bit-identity tests cannot see a
  rewrite that silently routes everything to the scalar engine; this
  table can;
* op table — every ``_NP_*`` row over columns and constants against the
  reference interpreter, lane by lane;
* memory rows — every scalar type through the machine, globals, and the
  phis of fused blocks, region bytes included;
* generated text — one module per (program object, function), holding
  one function over the region tree, constants
  folded at generation time, tracebacks print the generated statement;
* ownership — code and verdicts belong to the program object: equal
  ``program_id`` shares nothing, and no module of ``repro.exec`` or
  ``repro.backend`` keeps a module-level memo.
"""

import ast
import linecache
import math
import pathlib
import struct
import tempfile
import traceback
import warnings

import numpy as np
import pytest

import repro
from repro.exec import CompiledEngine, Interpreter, VectorCodeCache, classify_kernel
from repro.exec.compiled import CodeCache
from repro.exec.vector import VectorFunction, VectorMachine, _arg_columns, _Trap
from repro.ir import Constant, Function, FunctionType, IRBuilder, add_phi_incoming, ptr
from repro.ir.intrinsics import GPU_GLOBAL_ID, MATH_INTRINSICS
from repro.ir.structure import Dispatch, Loop, structure
from repro.ir.types import (
    BOOL, F32, F64, I8, I16, I32, I64, U8, U16, U32, U64, FloatType, IntType,
)
from repro.ir.values import GlobalVariable
from repro.obs import Observer
from repro.passes import OptConfig
from repro.runtime import ConcordRuntime
from repro.runtime.compiler import compile_cached, compile_source
from repro.runtime.system import ultrabook
from repro.service import ArtifactStore
from repro.svm import SharedAllocator, SharedRegion
from repro.workloads import all_workloads

from .test_engine_equivalence import NINE, SCALE

WORKLOADS = all_workloads()

# -- frozen routing (classification captured from the closure lowering) ------

#: workload -> {gpu kernel: (kind, reason)} at GPU+ALL
FROZEN_CLASSIFY = {
    "BarnesHut": {"kernel.ForceBody.gpu": ("maskable", "")},
    "BFS": {"kernel.BfsBody.gpu": ("maskable", "")},
    "BTree": {"kernel.SearchBody.gpu": ("maskable", "")},
    "ClothPhysics": {
        "join.StepBody.gpu": ("regular", ""),
        "kernel.IntegrateBody.gpu": ("maskable", ""),
        "kernel.StepBody.gpu": ("maskable", ""),
    },
    "ConnectedComponent": {
        "kernel.CcBody.gpu": ("gnarly", "atomic intrinsic atomic.min.i32")
    },
    "FaceDetect": {"kernel.DetectBody.gpu": ("maskable", "")},
    "Raytracer": {"kernel.RenderBody.gpu": ("maskable", "")},
    "SkipList": {"kernel.SkipSearchBody.gpu": ("maskable", "")},
    "SSSP": {"kernel.SsspBody.gpu": ("gnarly", "atomic intrinsic atomic.min.i32")},
}

COUNTERS = (
    "vector.kernels_vectorized",
    "vector.kernels_gnarly",
    "vector.fallbacks",
    "vector.lanes_retired",
    "vector.mask_occupancy",
    "vector.mask_slots",
)

#: workload -> (COUNTERS values, {kernel: (route, reason)}) of one cold
#: ``execute`` at scale 0.2.  ``vector.mask_slots`` counts segment runs, so
#: the schedule sets it: these are the region tree's, whose structured
#: reconvergence lifted BTree and SkipList above the occupancy floor.
FROZEN_RUNS = {
    "BarnesHut": ((1, 0, 0, 80, 23366, 39520), {}),
    "BFS": (
        (1, 0, 7, 0, 0, 0),
        {"kernel.BfsBody.gpu": ("scalar", "cross-lane store-load overlap")},
    ),
    "BTree": ((1, 0, 0, 102, 5091, 8874), {}),
    "ClothPhysics": ((2, 0, 0, 144, 1156, 1584), {}),
    "ConnectedComponent": (
        (0, 1, 2, 0, 0, 0),
        {"kernel.CcBody.gpu": ("gnarly", "atomic intrinsic atomic.min.i32")},
    ),
    "FaceDetect": ((1, 0, 0, 192, 8964, 37824), {}),
    "Raytracer": ((1, 0, 0, 192, 24393, 53760), {}),
    "SkipList": ((1, 0, 0, 102, 6125, 12138), {}),
    "SSSP": (
        (0, 1, 2, 0, 0, 0),
        {"kernel.SsspBody.gpu": ("gnarly", "atomic intrinsic atomic.min.i32")},
    ),
}


def _fresh_program(name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cls = WORKLOADS[name]
        return compile_source(cls.source, OptConfig.gpu_all(), module_name=cls.name)


def _gpu_kernels(program):
    for kinfo in program.kernels.values():
        for fn in (kinfo.gpu_kernel, kinfo.gpu_join_kernel):
            if fn is not None:
                yield fn


def _verdicts(program) -> dict:
    """Every kernel's final route other than "vector", from the program's
    own vector state."""
    code = program.vector_code
    routes = {}
    for fn in _gpu_kernels(program):
        kind, reason, _vfn = classify_kernel(code, fn)
        if kind == "gnarly":
            routes[fn.name] = ("gnarly", reason)
        elif fn in code.scalar:
            routes[fn.name] = ("scalar", code.scalar[fn])
    return routes


class TestFrozenRouting:
    def test_the_table_covers_the_nine_workloads(self):
        assert set(FROZEN_CLASSIFY) == set(FROZEN_RUNS) == set(NINE)
        assert SCALE == 0.2  # the scale FROZEN_RUNS was captured at

    @pytest.mark.parametrize("name", NINE)
    def test_classification(self, name):
        code = VectorCodeCache()
        got = {
            fn.name: classify_kernel(code, fn)[:2]
            for fn in _gpu_kernels(_fresh_program(name))
        }
        assert got == FROZEN_CLASSIFY[name]

    @pytest.mark.parametrize("name", NINE)
    def test_counters_and_verdicts_of_a_cold_run(self, name):
        observer = Observer()  # an observed execute compiles a fresh program
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            WORKLOADS[name]().execute(
                OptConfig.gpu_all(), ultrabook(), scale=SCALE, engine="vector",
                observer=observer,
            )
        counters = observer.counters.as_dict()
        program = WORKLOADS[name].compile(OptConfig.gpu_all())
        got = (tuple(counters.get(key, 0) for key in COUNTERS), _verdicts(program))
        assert got == FROZEN_RUNS[name]


# -- op table: every NumPy row against the reference interpreter -------------

LANES = 8
TAME_INTS = [1, 2, 3, 7, -5, 100, -77, 12345]
WILD_INTS = [0, -1, 63, 64, -(1 << 31), (1 << 63) - 1, -(1 << 63), 255]
TAME_FLOATS = [1.0, 2.5, 0.5, 3.75, 10.0, 0.25, 7.0, 1.5]
WILD_FLOATS = [0.0, -0.0, 1e30, -1e-30, math.inf, -math.inf, math.nan, 2.0**53 + 2]


def _canonical(type_, value):
    if isinstance(type_, IntType):
        return type_.wrap(int(value))
    if isinstance(type_, FloatType) and type_.bits == 32:
        try:
            return struct.unpack("f", struct.pack("f", value))[0]
        except OverflowError:
            return math.copysign(math.inf, value)
    return float(value) if isinstance(type_, FloatType) else int(value) & ((1 << 64) - 1)


def _const(type_, value):
    return Constant(type_, _canonical(type_, value))


def _rows(params, wild):
    pools = []
    for type_ in params:
        if isinstance(type_, FloatType):
            pool = WILD_FLOATS if wild else TAME_FLOATS
        else:
            pool = WILD_INTS if wild else TAME_INTS
        pools.append([_canonical(type_, value) for value in pool])
    return [
        [pool[(lane * (j + 1) + j) % LANES] for j, pool in enumerate(pools)]
        for lane in range(LANES)
    ]


def _bits(type_, value):
    """A result as comparable bits: the float's IEEE pattern (nan == nan),
    the int's canonical value."""
    if isinstance(type_, FloatType):
        return struct.pack("<d", float(value))
    value = int(value)
    if isinstance(type_, IntType) and (type_.signed or type_.bits < 64):
        return value
    return value & ((1 << 64) - 1)


def _single_op(params, ret, body) -> Function:
    fn = Function("f", FunctionType(ret, tuple(params)), [f"a{i}" for i in range(len(params))])
    builder = IRBuilder(fn.new_block("entry"))
    builder.ret(body(builder, fn.args))
    return fn


def _vector_run(fn, rows, region=None, addresses=None):
    """Invoke ``fn`` over ``rows`` columnar; the returned column, or the
    ``_Trap`` that a launch would turn into a scalar rerun."""
    kind, reason, vfn = classify_kernel(VectorCodeCache(), fn)
    assert kind != "gnarly", reason
    region = region or SharedRegion(1 << 12)
    engine = CompiledEngine(
        region, device="gpu", num_cores=4, code_cache=CodeCache(region, addresses=addresses)
    )
    machine = VectorMachine(engine, range(len(rows)))
    columns = _arg_columns(vfn, range(len(rows)), lambda lane: rows[lane])
    try:
        with np.errstate(all="ignore"):
            return vfn, machine.call(vfn, columns)
    except _Trap as trap:
        return vfn, trap


def _assert_matches_interpreter(fn, params, ret, where) -> int:
    """Returns how many of the two launches ran columnar (a test whose
    every launch trapped has compared nothing)."""
    ran = 0
    for wild in (False, True):
        rows = _rows(params, wild)
        region = SharedRegion(1 << 12)
        expected = []
        for lane, row in enumerate(rows):
            try:
                expected.append(
                    Interpreter(region, "gpu", global_id=lane).call_function(fn, row)
                )
            except Exception:
                expected = None  # the scalar engine raises: the launch must trap
                break
        _vfn, got = _vector_run(fn, rows)
        if isinstance(got, _Trap):
            continue  # rolled back and rerun scalar: exact by construction
        assert expected is not None, f"{where}: vector ran where the interpreter raises"
        assert [_bits(ret, v) for v in got] == [_bits(ret, v) for v in expected], (
            f"{where} wild={wild} rows={rows}"
        )
        ran += 1
    return ran


INT_TYPES = (I8, U8, I32, U32, I64, U64)


def _check(cases) -> None:
    """``cases``: (label, parameter types, result type, body builder)."""
    ran = 0
    for where, params, ret, body in cases:
        fn = _single_op(params, ret, body)
        ran += _assert_matches_interpreter(fn, params, ret, where)
    assert ran, "every launch trapped: nothing was compared"


def _binop_cases(op, types_, constants):
    """Both operands columns, then either one a constant."""
    for t in types_:
        yield f"{op}.{t}.cc", [t, t], t, lambda b, a: b.binop(op, a[0], a[1])
        for c in constants:
            yield f"{op}.{t}.c{c}", [t], t, lambda b, a, t=t, c=c: b.binop(op, a[0], _const(t, c))
            yield f"{op}.{t}.{c}c", [t], t, lambda b, a, t=t, c=c: b.binop(op, _const(t, c), a[0])


class TestOpTable:
    @pytest.mark.parametrize(
        "op", "add sub mul and or xor shl lshr ashr udiv urem sdiv srem".split()
    )
    def test_int_binops(self, op):
        _check(_binop_cases(op, INT_TYPES, (3, -3, 0, 64)))

    @pytest.mark.parametrize("op", "fadd fsub fmul fdiv frem".split())
    def test_float_binops(self, op):
        _check(_binop_cases(op, (F32, F64), (2.0, 0.0, -0.0, math.inf, math.nan)))

    @pytest.mark.parametrize("pred", "eq ne slt sle sgt sge ult ule ugt uge".split())
    def test_icmp(self, pred):
        def cases():
            for t in INT_TYPES + (ptr(I32),):
                yield f"icmp.{pred}.{t}", [t, t], BOOL, lambda b, a: b.icmp(pred, a[0], a[1])
                yield f"icmp.{pred}.{t}.5", [t], BOOL, lambda b, a, t=t: b.icmp(
                    pred, a[0], _const(t, 5)
                )
                yield f"icmp.{pred}.-5.{t}", [t], BOOL, lambda b, a, t=t: b.icmp(
                    pred, _const(t, -5), a[0]
                )

        _check(cases())

    @pytest.mark.parametrize("pred", "oeq one olt ole ogt oge".split())
    def test_fcmp(self, pred):
        def cases():
            for t in (F32, F64):
                yield f"fcmp.{pred}.{t}", [t, t], BOOL, lambda b, a: b.fcmp(pred, a[0], a[1])
                yield f"fcmp.{pred}.nan.{t}", [t], BOOL, lambda b, a, t=t: b.fcmp(
                    pred, _const(t, math.nan), a[0]
                )

        _check(cases())

    def test_casts(self):
        casts = [
            (op, source, target)
            for op in ("zext", "sext", "trunc")
            for source in INT_TYPES
            for target in INT_TYPES
        ]
        casts += [
            (op, source, target)
            for op in ("sitofp", "uitofp")
            for source in INT_TYPES + (ptr(I32),)
            for target in (F32, F64)
        ]
        casts += [("fptosi", source, target) for source in (F32, F64) for target in INT_TYPES]
        casts += [("fpext", F32, F64), ("fptrunc", F64, F32), ("fptrunc", F32, F32)]
        casts += [("inttoptr", I64, ptr(I8)), ("ptrtoint", ptr(I8), I32)]
        casts += [("bitcast", I64, ptr(I8)), ("bitcast", ptr(I8), U64), ("bitcast", F64, F64)]
        _check(
            (f"{op}.{s}.{t}", [s], t, lambda b, a, op=op, t=t: b.cast(op, a[0], t))
            for op, s, t in casts
        )

    def test_select(self):
        def cases():
            for t in (I32, U64, F32, F64):
                yield f"select.{t}", [I32, t, t], t, lambda b, a: b.select(a[0], a[1], a[2])
                yield f"select.{t}.kk", [I32], t, lambda b, a, t=t: b.select(
                    a[0], _const(t, 3), _const(t, -4)
                )
                yield f"select.k.{t}", [t, t], t, lambda b, a: b.select(
                    _const(I32, 0), a[0], a[1]
                )
                yield f"select.f.{t}", [F64, t], t, lambda b, a, t=t: b.select(
                    a[0], a[1], _const(t, 9)
                )

        _check(cases())

    @pytest.mark.parametrize("name", sorted(MATH_INTRINSICS))
    def test_math(self, name):
        intrinsic = MATH_INTRINSICS[name]
        t = F32 if name.endswith(".f32") else F64
        if len(intrinsic.ftype.params) == 1:
            cases = [(name, [t], t, lambda b, a: b.call(intrinsic, [a[0]]))]
        else:
            cases = [
                (name, [t, t], t, lambda b, a: b.call(intrinsic, [a[0], a[1]])),
                (name, [t], t, lambda b, a: b.call(intrinsic, [a[0], _const(t, 2.0)])),
                (name, [t], t, lambda b, a: b.call(intrinsic, [_const(t, 0.5), a[0]])),
            ]
        _check(cases)


def _filled_region():
    region = SharedRegion(1 << 12)
    base = SharedAllocator(region).calloc(2048)
    for offset in range(0, 2048, 4):
        region.write_int(base + offset, 4, (offset * 2654435761) & 0xFFFFFFFF, signed=False)
    return region, region.cpu_to_gpu(base)


def _assert_memory_matches(build, value_type=None, addresses=None):
    """``build(builder, args, gid)`` over (buffer pointer, value) rows, on
    twin regions: returns and every region byte must agree."""
    param = value_type or I32
    fn = Function("f", FunctionType(I64, (ptr(I8), param)), ["p", "x"])
    builder = IRBuilder(fn.new_block("entry"))
    builder.ret(build(builder, fn.args, builder.call(GPU_GLOBAL_ID, [])))
    ref_region, base = _filled_region()
    vec_region, _ = _filled_region()
    rows = [[base, row[0]] for row in _rows([param], wild=False)]
    expected = [
        Interpreter(ref_region, "gpu", global_id=lane, addresses=addresses)
        .call_function(fn, row)
        for lane, row in enumerate(rows)
    ]
    _vfn, got = _vector_run(fn, rows, vec_region, addresses)
    assert not isinstance(got, _Trap), got
    assert [int(v) for v in got] == expected
    assert bytes(vec_region.physical.data) == bytes(ref_region.physical.data)


class TestMemoryRows:
    @pytest.mark.parametrize("offset", [0, 1, 3], ids=["aligned", "odd", "straddling"])
    @pytest.mark.parametrize(
        "type_", [I8, U8, I16, U16, I32, U32, I64, U64, F32, F64, ptr(I32)], ids=str
    )
    def test_every_scalar_type_round_trips(self, type_, offset):
        def build(b, args, gid):
            slot = b.gep(args[0], ptr(type_), offset=offset, indices=[(gid, 16)])
            b.store(args[1], slot)  # a column; then a constant next to it
            b.store(_const(type_, 77), b.gep(slot, ptr(type_), offset=8))
            pair = [b.load(slot), b.load(b.gep(slot, ptr(type_), offset=8))]
            if isinstance(type_, FloatType):
                pair = [b.cast("fptosi", b.binop("fmul", v, _const(type_, 8.0)), I64) for v in pair]
            elif type_ != I64:
                pair = [b.cast("ptrtoint" if type_ == ptr(I32) else "sext", v, I64) for v in pair]
            return b.add(pair[0], pair[1])

        _assert_memory_matches(build, type_)

    def test_global_addresses_are_read_per_launch(self):
        table = GlobalVariable("table", I32)

        def build(b, args, gid):
            here = b.load(b.gep(table, ptr(I32), indices=[(gid, 4)]))
            return b.cast("sext", b.add(here, b.load(table)), I64)

        _assert_memory_matches(build, addresses={"table": _filled_region()[1] + 64})
        # not loaded: the launch must trap, not crash
        fn = Function("g", FunctionType(I32, ()), [])
        builder = IRBuilder(fn.new_block("entry"))
        builder.ret(builder.load(table))
        _vfn, got = _vector_run(fn, [[] for _ in range(LANES)])
        assert isinstance(got, _Trap) and "has no address" in str(got)

    def test_fused_block_phis_move_columns_and_constants(self):
        def build(b, args, gid):
            entry, tail = b.block, b.block.function.new_block("tail")
            doubled = b.add(args[1], args[1])
            b.br(tail)
            b.position_at_end(tail)
            left, right = b.phi(I32, "l"), b.phi(I32, "r")
            add_phi_incoming(left, doubled, entry)
            add_phi_incoming(right, _const(I32, 9), entry)
            return b.cast("sext", b.add(left, right), I64)

        _assert_memory_matches(build)


# -- generated text -----------------------------------------------------------


SOURCE = """
class Body {
public:
    int* data;
    int bias;
    void operator()(int i) {
        if (data[i] > bias) {
            data[i] = data[i] * 3 + bias;
        }
    }
};
"""


LOOP_SOURCE = """
class Body {
public:
    int* data;
    int bias;
    void operator()(int i) {
        int acc = 0;
        for (int j = 0; j < (data[i] & 7); j++) {
            if (j == bias) {
                break;
            }
            acc = acc + j;
        }
        data[i] = acc;
    }
};
"""


def _compile(source=SOURCE):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return compile_source(source, OptConfig.gpu_all())


def _launch(program, engine="vector", observer=None):
    rt = ConcordRuntime(program, ultrabook(), engine=engine, observer=observer)
    data = rt.new_array(I32, 64)
    data.fill_from(range(64))
    body = rt.new("Body")
    body.data, body.bias = data, 17
    rt.parallel_for_hetero(64, body)
    return data.to_list()


class TestGeneratedText:
    def test_second_runtime_generates_nothing(self, monkeypatch):
        generated = []
        init = VectorFunction.__init__

        def counting(self, function, cache):
            generated.append(function.name)
            init(self, function, cache)

        monkeypatch.setattr(VectorFunction, "__init__", counting)
        program = _compile()
        first = _launch(program, observer=Observer())
        assert generated  # the first runtime paid for the text ...
        vfn = program.vector_code.get(program.kernels["Body"].gpu_kernel)
        count = len(generated)
        observer = Observer()
        assert _launch(program, observer=observer) == first
        assert len(generated) == count  # ... the second one only ran it
        assert program.vector_code.get(program.kernels["Body"].gpu_kernel) is vfn
        assert observer.counters.as_dict()["vector.kernels_vectorized"] == 1
        assert first == _launch(program, engine="compiled")

    @pytest.mark.parametrize("source", [SOURCE, LOOP_SOURCE], ids=["if", "loop"])
    def test_one_function_per_ir_function_whiles_only_for_loops(self, source):
        """The region tree printed as one ``def`` over locals: a ``while``
        per ``Loop`` or ``Dispatch`` region and no other loop, no nested
        function, no lambda, and no run-time test of an operand's kind."""
        program = _compile(source)
        _launch(program)
        kernel = program.kernels["Body"].gpu_kernel
        vfn = program.vector_code.get(kernel)
        tree = ast.parse(vfn.source)
        assert [type(node) for node in tree.body] == [ast.FunctionDef]
        nodes = list(ast.walk(tree.body[0]))
        assert not [
            node for node in nodes
            if isinstance(node, (ast.For, ast.Lambda, ast.AsyncFunctionDef))
            or (isinstance(node, ast.FunctionDef) and node is not tree.body[0])
        ]
        assert "isinstance" not in vfn.source  # operand kinds are static
        regions = []

        def walk(stmts):
            for stmt in stmts:
                if isinstance(stmt, (Loop, Dispatch)):
                    regions.append(stmt)
                for attr in ("then", "orelse", "body"):
                    walk(getattr(stmt, attr, ()))
                for _block, arm in getattr(stmt, "members", ()):
                    walk(arm)

        walk(structure(kernel))
        assert sum(isinstance(node, ast.While) for node in nodes) == len(regions)
        assert len(regions) == (source is LOOP_SOURCE)

    def test_an_instruction_without_a_column_operand_is_folded(self):
        """``(7 * 6) >> 1`` is 21 in the text; nothing computes it per launch."""
        def body(b, a):
            product = b.mul(_const(I32, 7), _const(I32, 6))
            return b.add(a[0], b.binop("ashr", product, _const(I32, 1)))

        fn = _single_op([I32], I32, body)
        vfn, got = _vector_run(fn, [[lane] for lane in range(LANES)])
        assert list(got) == [lane + 21 for lane in range(LANES)]
        nodes = list(ast.walk(ast.parse(vfn.source)))
        literals = {node.value for node in nodes if isinstance(node, ast.Constant)}
        assert 21 in literals and not literals & {6, 7, 42}
        assert not [node for node in nodes if isinstance(node, ast.Mult)]

    def test_a_folded_instruction_that_raises_traps_in_place(self):
        def body(b, a):
            return b.add(a[0], b.binop("sdiv", _const(I32, 7), _const(I32, 0)))

        fn = _single_op([I32], I32, body)
        vfn, got = _vector_run(fn, [[lane] for lane in range(LANES)])
        assert isinstance(got, _Trap) and "division by zero" in str(got)
        assert "raise _Trap('sdiv: division by zero" in vfn.source

    def test_traceback_shows_the_generated_statement(self):
        fn = _single_op(
            [I32, I32], I32, lambda b, a: b.binop("sdiv", a[0], a[1])
        )
        vfn, trap = _vector_run(fn, [[lane, lane - 3] for lane in range(LANES)])
        assert isinstance(trap, _Trap)
        assert vfn.filename.startswith("<repro-vjit f ")
        assert linecache.getlines(vfn.filename) == vfn.source.splitlines(True)
        text = "".join(traceback.format_exception(trap))
        assert f'File "{vfn.filename}"' in text
        assert "_sdiv(v0, v1)" in text


# -- ownership ----------------------------------------------------------------

HAZARD_SOURCE = """
class Body {
public:
    int* data;
    int bias;
    void operator()(int i) {
        data[0] = data[0] + bias + i;
    }
};
"""


class TestOwnership:
    def test_equal_program_id_shares_neither_code_nor_verdicts(self):
        """The compile-cache fuzz target's quartet: one source compiled
        monolithically, cold and warm through one store, and through a
        separate store."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mono = _compile(HAZARD_SOURCE)
            with tempfile.TemporaryDirectory() as shared, tempfile.TemporaryDirectory() as apart:
                store = ArtifactStore(shared)
                cold, _ = compile_cached(HAZARD_SOURCE, OptConfig.gpu_all(), store=store)
                warm, _ = compile_cached(HAZARD_SOURCE, OptConfig.gpu_all(), store=store)
                other, _ = compile_cached(
                    HAZARD_SOURCE, OptConfig.gpu_all(), store=ArtifactStore(apart)
                )
        quartet = (mono, cold, warm, other)
        assert len({program.program_id for program in quartet}) == 1
        reference = _launch(mono, engine="compiled")
        seen = []
        for program in quartet:
            others = [p for p in quartet if p is not program and p not in seen]
            observer = Observer()
            assert _launch(program, observer=observer) == reference
            counters = observer.counters.as_dict()
            # every program object probes for itself: classified, attempted,
            # rolled back on the cross-lane hazard ...
            assert counters["vector.kernels_vectorized"] == 1
            assert counters["vector.fallbacks"] == 1
            kernel = program.kernels["Body"].gpu_kernel
            assert program.vector_code.scalar == {
                kernel: "cross-lane store-store collision"
            }
            # ... and nobody else has learnt anything from it
            assert all(p.vector_code is None for p in others)
            seen.append(program)
        assert len({id(p.vector_code) for p in quartet}) == 4
        generated = [p.vector_code.get(p.kernels["Body"].gpu_kernel) for p in quartet]
        assert len({id(vfn) for vfn in generated}) == 4
        # the verdict is sticky for *its* program: no second attempt
        observer = Observer()
        assert _launch(mono, observer=observer) == reference
        assert "vector.kernels_vectorized" not in observer.counters.as_dict()

    def test_no_module_level_memo_in_exec_or_backend(self):
        """Constant tables are non-empty literals; a module-level name
        bound to an empty container is state waiting to be filled.  The
        timing models (``repro.gpu`` / ``repro.cpu``) are held to it too:
        what they read off a kernel once lives in the runtime's
        ``gpu_function_t`` entry, not in a module dict.  So are the frontend
        and the passes: what the lowering knows about an expression lives
        on the ``FunctionLowerer``, what the pass manager remembers on the
        ``PassManager`` — one per compile."""
        root = pathlib.Path(repro.__file__).parent
        offenders = []
        guarded = [
            path
            for package in ("exec", "backend", "gpu", "cpu", "minicpp", "passes")
            for path in root.glob(f"{package}/*.py")
        ]
        for path in sorted(guarded):
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, ast.AnnAssign):
                    targets, value = [node.target], node.value
                elif isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                else:
                    continue
                empty = (
                    isinstance(value, (ast.Dict, ast.List, ast.Set))
                    and not (getattr(value, "keys", None) or getattr(value, "elts", None))
                ) or (
                    isinstance(value, ast.Call)
                    and not value.args
                    and not value.keywords
                    and getattr(value.func, "id", getattr(value.func, "attr", ""))
                    in ("dict", "list", "set", "OrderedDict", "defaultdict")
                )
                if empty:
                    offenders.append(f"{path.name}:{node.lineno} {ast.unparse(targets[0])}")
        # ... and in repro.eval a ``global`` statement is a process-wide
        # setting being rebound (an observer goes down as an argument;
        # ``runner._CACHE`` is filled, never rebound, and stays: it is what
        # lets four figures share one measurement)
        for path in sorted(root.glob("eval/*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Global):
                    offenders.append(
                        f"{path.name}:{node.lineno} global {', '.join(node.names)}"
                    )
        assert offenders == []
