"""Differential targets, declared, and the one runner that executes them.

A :class:`Target` is data: a sentence and the :class:`Variant`\\ s that
iteration ``i`` picks from by ``i % len(variants)``, each a generator,
named :class:`Side`\\ s over a shared :class:`Build`, and the pairs of
sides to compare field by field.  :func:`divergences` is the only code
that executes one, so adding a target is one declaration in
:data:`TARGETS` (docs/FUZZING.md).
"""

from __future__ import annotations

import hashlib
import os
import random
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from tempfile import TemporaryDirectory
from typing import Callable, Optional

from ..exec import ExecutionError
from ..ir.types import F32, I32
from ..passes import OptConfig
from ..passes.pipeline import DISABLEABLE_PASSES, GPU_SAFE_DISABLE
from ..svm import MemoryFault
from .irgen import BUF_SLOTS, IRProgram, build_ir, generate_ir_program
from .srcgen import SourceProgram, generate_source_program, render_source

#: Region size for fuzz runtimes — small, so full-region digests are cheap.
FUZZ_REGION_SIZE = 1 << 16

#: Function passes the IR-level targets apply, each alone, to a clone of
#: the generated function; each must preserve its results.
IR_PASS_NAMES = (
    "mem2reg",
    "constfold",
    "cse",
    "dce",
    "simplifycfg",
    "licm",
    "tailrec",
    "unroll",
    "inline",
)


@dataclass
class Outcome:
    """Everything observable from one program execution.

    ``region_digest`` hashes the shared region verbatim; ``heap_digest``
    hashes it with vtable globals masked out.  Vtable slots hold symbol
    ids assigned per compiled module, so they legitimately differ between
    two *configurations* of the same source while all kernel-visible heap
    state must still match; two *engines* running the same compiled
    program must agree on every byte.
    """

    ok: bool
    trap: str = ""  # exception class name when not ok
    outputs: dict = field(default_factory=dict)
    region_digest: str = ""
    heap_digest: str = ""
    trace_sig: Optional[tuple] = None
    #: :func:`trace_signature` over the module, when ``canonical_traces``
    #: was requested: comparable across *independent* compiles of a source
    canon_trace_sig: Optional[tuple] = None
    counters: dict = field(default_factory=dict)  # the observer's, if any
    #: the program a side ran; its artifact-store closure ``hit`` / ``miss``
    program: object = None
    closure: str = ""


def _digest(raw) -> str:
    """SHA-256 of a buffer, read in place (a region is 16 MiB)."""
    return hashlib.sha256(raw).hexdigest()


def heap_digest(rt) -> str:
    """Region digest with vtable-global bytes zeroed (their symbol-id
    contents are per-module metadata, not kernel heap state); the
    region is hashed in place, the zeroed spans fed as zeros."""
    region = rt.region
    spans = []
    for gvar in rt.program.module.globals.values():
        init = gvar.initializer
        if not (isinstance(init, tuple) and init and init[0] == "vtable"):
            continue
        address = rt.global_addresses.get(gvar.name)
        if address is None:
            continue
        offset = address - region.cpu_base
        spans.append((offset, offset + max(1, gvar.value_type.size())))
    digest = hashlib.sha256()
    data = memoryview(region.physical.data)
    done = 0
    for start, end in sorted(spans):
        start = max(start, done)
        if end > start:
            digest.update(data[done:start])
            digest.update(bytes(end - start))
            done = end
    digest.update(data[done:])
    return digest.hexdigest()


def trace_signature(traces, module=None) -> tuple:
    """A hashable, engine-representation-independent trace summary.

    Block and instruction uids come from process-wide counters, so the
    raw signature compares executions of the *same* IR objects only.
    With ``module`` every uid becomes its position in the module
    (function name — source-derived — block index, instruction index),
    which compares independent compiles of one source."""
    if module is None:
        block = instr = lambda uid: uid
    else:
        blocks, instrs = {}, {}
        for name in sorted(module.functions):
            for b_index, bb in enumerate(module.functions[name].blocks):
                blocks[bb.uid] = (name, b_index)
                for i_index, ins in enumerate(bb.instructions):
                    instrs[ins.uid] = (name, b_index, i_index)

        def block(uid):
            return blocks.get(uid, ("?", uid))

        def instr(uid):
            return instrs.get(uid, ("?", uid, -1))

    return tuple(
        (
            trace.instructions,
            tuple(sorted((block(k), v) for k, v in trace.block_counts.items())),
            tuple(sorted((instr(k), tuple(v)) for k, v in trace.branch_stats.items())),
            trace.flops,
            trace.int_ops,
            trace.translations,
            trace.calls,
            trace.mem_events_dropped,
            tuple(
                (instr(e.instr_uid), e.seq, e.address, e.size, e.is_store)
                for e in trace.mem_events
            ),
        )
        for trace in traces
    )


# -- executing one program ----------------------------------------------------


def _filled(rt, type_, length: int, values):
    array = rt.new_array(type_, length)
    array.fill_from(values)
    return array


def _bind_body(rt, program: SourceProgram, data, aux, fdata=None):
    """A new body over ``data`` / ``aux`` with the program's scalars, its
    float array (``fdata``, or one allocated after the body) and, for a
    virtual-calling program, a new object of its virtual class.  Returns
    ``(body, fdata, obj)``."""
    body = rt.new(program.class_name)
    body.data, body.aux, body.s0, body.s1 = data, aux, program.s0, program.s1
    if program.uses_floats:
        if fdata is None:
            fdata = _filled(rt, F32, program.n, program.fdata)
        body.fdata = fdata
    obj = None
    if program.uses_virtual:
        obj = rt.new(program.virtual_class)
        obj.salt = program.salt
        body.obj = obj
    if program.construct == "reduce":
        body.acc = 0
    return body, fdata, obj


def run_source_program(
    program: SourceProgram,
    device: str = "gpu",
    keep_traces: bool = False,
    compiled=None,
    observer=None,
    canonical_traces: bool = False,
    regions: bool = False,
    **options,
) -> Outcome:
    """Execute one generated program — ``compiled``, or compiled under
    GPU+ALL here — and return everything observable.  ``options`` go to
    the runtime (:class:`~repro.runtime.RunConfig`); a ``policy`` among
    them routes the constructs instead of ``device``.  ``observer`` (a
    ``repro.obs.Observer``) opts the run into span/counter collection;
    ``canonical_traces`` also fills ``canon_trace_sig`` (with
    ``keep_traces``); ``regions`` walks the region tree in place of
    whichever scalar engine ``engine`` names."""
    from ..runtime import ConcordRuntime, compile_source, ultrabook

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if compiled is None:
            compiled = compile_source(program.source, OptConfig.gpu_all())
        rt = ConcordRuntime(
            compiled, ultrabook(), region_size=FUZZ_REGION_SIZE, keep_traces=keep_traces,
            observer=observer, **options,
        )
        if regions:
            _use_region_interpreter(rt)
        data = _filled(rt, I32, program.n, program.data)
        aux = _filled(rt, I32, program.aux_len, program.aux)
        body, fdata, _ = _bind_body(rt, program, data, aux)
        reduce = program.construct == "reduce"
        launch = rt.parallel_reduce_hetero if reduce else rt.parallel_for_hetero
        try:
            launch(program.n, body, on_cpu=device == "cpu" and "policy" not in options)
        except (ExecutionError, MemoryFault) as exc:
            return Outcome(ok=False, trap=type(exc).__name__)
        outputs = {"data": data.to_list(), "aux": aux.to_list()}
        if fdata is not None:
            outputs["fdata"] = fdata.to_list()
        if reduce:
            outputs["acc"] = body.acc
        return Outcome(
            ok=True,
            outputs=outputs,
            region_digest=_digest(rt.region.physical.data),
            heap_digest=heap_digest(rt),
            trace_sig=trace_signature(rt.trace_log) if keep_traces else None,
            canon_trace_sig=(
                trace_signature(rt.trace_log, compiled.module)
                if keep_traces and canonical_traces
                else None
            ),
            counters=observer.counters.as_dict() if observer is not None else {},
        )


def _use_region_interpreter(rt) -> None:
    """Every engine ``rt`` builds from here on walks the region tree
    (:class:`~repro.exec.regions.RegionInterpreter`), one tree per
    function for the whole run."""
    from ..exec.regions import RegionInterpreter

    trees: dict = {}

    def make_engine(device, trace=None, collect_mem_events=None, **kwargs):
        return RegionInterpreter(
            rt.region,
            device=device,
            trace=trace,
            symbols=rt._symbols,
            addresses=rt.global_addresses,
            collect_mem_events=(
                rt.collect_mem_events if collect_mem_events is None else collect_mem_events
            ),
            private_pool=rt.private_pool,
            trees=trees,
            **kwargs,
        )

    rt._make_engine = make_engine


def _run_graph_dag(program: SourceProgram, compiled, mode: str, order=None) -> Outcome:
    """Five instances of the program's ``for`` kernel over a pool of three
    data (and float) arrays and two aux arrays, picked by a program-seeded
    plan so read/write sets overlap and edges form.  ``mode`` ``"sync"``
    runs them synchronously in submission order; ``"wait"`` submits all
    and forces them with ``wait()``; ``"shuffled"`` submits all and forces
    the futures in a seed-derived permutation (a random topological order
    once inferred dependencies are honored) or in ``order``."""
    from ..runtime import ConcordRuntime, ultrabook

    rng = random.Random(program.seed * 48271 + 7)
    plan = [(rng.randrange(3), rng.randrange(2)) for _ in range(5)]
    rt = ConcordRuntime(compiled, ultrabook(), region_size=FUZZ_REGION_SIZE)
    n, aux_len = program.n, program.aux_len
    datas = [
        _filled(rt, I32, n, [program.data[(i + k) % n] for i in range(n)])
        for k in range(3)
    ]
    auxes = [
        _filled(rt, I32, aux_len, [program.aux[(i + k) % aux_len] for i in range(aux_len)])
        for k in range(2)
    ]
    fdatas = [
        _filled(rt, F32, n, program.fdata) for _ in range(3 if program.uses_floats else 0)
    ]
    submissions = []
    for data_idx, aux_idx in plan:
        fdata = fdatas[data_idx] if fdatas else None
        body, _, obj = _bind_body(rt, program, datas[data_idx], auxes[aux_idx], fdata)
        accessed = [datas[data_idx], auxes[aux_idx]] + fdatas[data_idx : data_idx + 1]
        reads = accessed + ([obj] if obj is not None else [])
        submissions.append((body, reads, accessed + [body]))  # kernels may write fields
    try:
        if mode == "sync":
            for body, _, _ in submissions:
                rt.parallel_for_hetero(n, body)
        else:
            futures = [
                rt.submit(n, body, reads=reads, writes=writes)
                for body, reads, writes in submissions
            ]
            if mode == "shuffled":
                if order is None:
                    order = list(range(len(futures)))
                    random.Random(program.seed ^ 0xA5A5A5).shuffle(order)
                for index in order:
                    futures[index].result()
            rt.wait()
    except (ExecutionError, MemoryFault) as exc:
        return Outcome(ok=False, trap=type(exc).__name__)
    pools = {"data": datas, "aux": auxes, "fdata": fdatas}
    outputs = {f"{p}{k}": a.to_list() for p, arrays in pools.items() for k, a in enumerate(arrays)}
    return Outcome(
        ok=True,
        outputs=outputs,
        region_digest=_digest(rt.region.physical.data),
        heap_digest=heap_digest(rt),
    )


def run_ir_function(fn, program, engine: str = "interpreter") -> Outcome:
    """Execute one rendered IR function over a fresh region + scratch
    buffer; returns ret value + buffer contents."""
    from ..exec import CompiledEngine, Interpreter
    from ..exec.regions import RegionInterpreter
    from ..svm import SharedAllocator, SharedRegion

    region = SharedRegion(FUZZ_REGION_SIZE)
    buf = SharedAllocator(region).calloc(BUF_SLOTS * 4)
    for slot, value in enumerate(program.buf):
        region.write_int(buf + slot * 4, 4, value & 0xFFFFFFFF, signed=False)
    engines = {
        "interpreter": Interpreter, "regions": RegionInterpreter, "compiled": CompiledEngine
    }
    executor = engines[engine](region, "cpu")
    try:
        ret = executor.call_function(fn, [program.a, program.b, buf])
    except (ExecutionError, MemoryFault) as exc:
        return Outcome(ok=False, trap=type(exc).__name__)
    return Outcome(
        ok=True,
        outputs={"ret": ret, "buf": list(region.read_bytes(buf, BUF_SLOTS * 4))},
        region_digest=_digest(region.physical.data),
    )


def _ir_functions(program: IRProgram) -> dict:
    """The generated function (``unoptimized``) and, per IR pass, a clone
    with that one pass run over it (``after-<pass>``); a clone the
    verifier refuses is its :class:`~repro.ir.VerificationError`."""
    from ..ir import VerificationError, verify_function
    from ..passes import PassManager
    from ..passes.pipeline import PASS_REGISTRY
    from ..runtime.clone import clone_function

    module, fn = build_ir(program)
    functions = {"unoptimized": fn}
    for index, name in enumerate(IR_PASS_NAMES):
        clone = clone_function(module, fn, f"{fn.name}.{name}.{index}")
        pass_fn = PASS_REGISTRY[name]
        PassManager(verify=False).run(clone, [pass_fn(module) if name == "inline" else pass_fn])
        try:
            verify_function(clone)
        except VerificationError as exc:
            clone = exc
        functions[f"after-{name}"] = clone
    return functions


# -- the declaration ------------------------------------------------------------


#: What a pair can compare, read off an :class:`Outcome`.  Every pair
#: compares ``behaviour`` first, so a field a trapped run leaves empty is
#: equal between two identical traps.  ``counters:<prefix>,<prefix>``
#: compares the non-zero counters under those prefixes.
FIELDS: dict = {
    "behaviour": lambda o: "ok" if o.ok else f"trap:{o.trap}",
    # by repr: a nan equals a nan, and -0.0 is not 0.0
    "outputs": lambda o: {key: repr(value) for key, value in o.outputs.items()},
    "region": lambda o: o.region_digest,
    "heap": lambda o: o.heap_digest,
    "traces": lambda o: o.trace_sig,
    "canon_traces": lambda o: o.canon_trace_sig,
    "program_id": lambda o: o.program and o.program.program_id,
    "opencl": lambda o: o.program and {
        name: (kinfo.opencl_source, kinfo.reduce_wrapper_source)
        for name, kinfo in o.program.kernels.items()
    },
    "closure": lambda o: o.closure,
}


def _observe(outcome: Outcome, name: str):
    if not name.startswith("counters:"):
        return FIELDS[name](outcome)
    prefixes = tuple(name[len("counters:"):].split(","))
    return {k: v for k, v in outcome.counters.items() if v and k.startswith(prefixes)}


@dataclass(frozen=True)
class Build:
    """The compile a variant's sides share: ``config`` in memory or, when
    ``store`` names one, through that artifact store (a fresh directory
    per variant run; ``again`` is a second compile through it), of the
    program's source with its overload set declared in order or
    ``reversed``.  With ``config=None`` it is an ``irgen`` program's
    :func:`_ir_functions`."""

    config: Optional[OptConfig] = OptConfig.gpu_all()
    store: str = ""
    again: bool = False
    reversed: bool = False

    def compile(self, program, scratch: str):
        """``(compiled, closure)`` or the frontend's exception; an IR program's functions."""
        if self.config is None:
            return _ir_functions(program)
        from ..runtime import compile_source
        from ..runtime.compiler import compile_cached

        source = render_source(program, reverse_overloads=self.reversed)
        try:
            if not self.store:
                return compile_source(source, self.config), ""
            from ..service import ArtifactStore

            store = ArtifactStore(os.path.join(scratch, self.store))
            compiled, stages = compile_cached(source, self.config, store=store)
            return compiled, stages["closure"]
        except Exception as exc:  # the frontend refusing generator output
            return exc


@dataclass(frozen=True)
class Side:
    """One named way to execute a variant's program: ``run(program, built,
    observe)`` over what ``build`` compiled, where ``observe`` is the set
    of fields the side's pairs compare.  ``expect`` holds ``(field,
    value)`` pairs this side's outcome must show."""

    label: str
    run: Callable
    build: Build = Build()
    expect: tuple = ()


@dataclass(frozen=True)
class Variant:
    """What one iteration runs: a program of ``kind`` — from ``srcgen``
    (``"source"``, feature flags pinned by ``force``) or ``irgen``
    (``"ir"``) — executed by every side in order, then each ``(side, side,
    fields)`` pair compared field by field in the order given."""

    sides: tuple
    pairs: tuple
    kind: str = "source"
    force: Optional[dict] = None

    def generate(self, rng, i: int):
        if self.kind == "ir":
            return generate_ir_program(rng, seed=i)
        return generate_source_program(rng, seed=i, force=self.force)


@dataclass(frozen=True)
class Target:
    name: str
    doc: str  # docs/FUZZING.md's table row
    variants: tuple


def _source(label: str, build: Build = Build(), expect=(), **options) -> Side:
    """A side through :func:`run_source_program` with ``options``."""

    def run(program, built, observe):
        compiled, closure = built
        observer = None
        if any(name.startswith("counters:") for name in observe):
            from ..obs import Observer

            observer = Observer()
        outcome = run_source_program(
            program, compiled=compiled, observer=observer,
            keep_traces=bool(observe & {"traces", "canon_traces"}),
            canonical_traces="canon_traces" in observe, **options,
        )
        outcome.program, outcome.closure = compiled, closure
        return outcome

    return Side(label, run, build, expect)


def _dag(mode: str) -> Side:
    return Side(f"graph/{mode}", lambda program, built, _: _run_graph_dag(program, built[0], mode))


def _ir(function: str, engine: str) -> Side:
    def run(program, functions, observe):
        fn = functions[function]
        if isinstance(fn, Exception):
            return Outcome(ok=False, trap=f"verifier:{fn}")
        return run_ir_function(fn, program, engine)

    return Side(f"{function}/{engine}", run, Build(config=None))


_EXACT = ("outputs", "region")
_TRACED = _EXACT + ("traces",)
_ACROSS_CONFIGS = ("outputs", "heap")  # vtable symbol ids differ per compile
_DEVICES = ("gpu", "cpu")
_FUNCTIONS = ("unoptimized", *(f"after-{name}" for name in IR_PASS_NAMES))
_CONFIGS = OptConfig.all_configs()


def _engines(force: Optional[dict] = None) -> Variant:
    return Variant(
        tuple(
            _source(f"{e}/{d}", engine=e, device=d)
            for d in _DEVICES
            for e in ("reference", "compiled")
        ),
        (
            *((f"reference/{d}", f"compiled/{d}", _TRACED) for d in _DEVICES),
            # reduce lays per-device scratch copies out differently
            ("compiled/gpu", "compiled/cpu", ("outputs",)),
        ),
        force=force,
    )


def _without(name: str) -> Variant:
    # inline and devirt are structurally required for device lowering
    d = "gpu" if name in GPU_SAFE_DISABLE else "cpu"
    without = Build(OptConfig.gpu_all().without_pass(name))
    return Variant(
        (_source(f"full/{d}", device=d), _source(f"no-{name}/{d}", without, device=d)),
        ((f"full/{d}", f"no-{name}/{d}", _ACROSS_CONFIGS),),
    )


def _ir_functions_on(engine: str, *pairs) -> Variant:
    """Every function of :func:`_ir_functions` on the reference
    interpreter vs on ``engine``, then ``pairs``."""
    return Variant(
        tuple(_ir(f, e) for f in _FUNCTIONS for e in ("interpreter", engine)),
        (*((f"{f}/interpreter", f"{f}/{engine}", _EXACT) for f in _FUNCTIONS), *pairs),
        kind="ir",
    )


def _overload_orders() -> Variant:
    """One program, its overload set declared in order and reversed."""
    orders = (("declared", Build()), ("reversed", Build(reversed=True)))
    return Variant(
        tuple(_source(f"{o}/{d}", build, device=d) for d in _DEVICES for o, build in orders),
        tuple((f"declared/{d}", f"reversed/{d}", _ACROSS_CONFIGS) for d in _DEVICES),
        force={"uses_overloads": True},
    )


def _cached(label: str, build: Build, closure: str) -> Side:
    return _source(label, build, (("closure", closure),), engine="compiled")


TARGETS: dict = {target.name: target for target in (
    Target(
        "engines",
        "reference interpreter vs threaded-code engine on the *same* compiled "
        "program, GPU and CPU paths, plus a cross-device output check; every "
        "other program keeps a stack array half the private window large",
        (_engines(), _engines({"uses_stack": True})),
    ),
    Target(
        "passes",
        "full `GPU+ALL` pipeline vs the pipeline with one pass of "
        "`DISABLEABLE_PASSES` off, one variant per pass, then one variant "
        "over the paper's four measured configs",
        (
            *map(_without, DISABLEABLE_PASSES),
            Variant(
                tuple(_source(c.label, Build(c)) for c in _CONFIGS),
                tuple((_CONFIGS[0].label, c.label, _ACROSS_CONFIGS) for c in _CONFIGS[1:]),
            ),
        ),
    ),
    Target(
        "ir",
        "a generated IR function and each pass in `IR_PASS_NAMES` applied "
        "alone to a clone, re-verified: both engines on each, and each clone "
        "against the raw function",
        (_ir_functions_on("compiled", *(
            ("unoptimized/interpreter", f"{f}/interpreter", _EXACT) for f in _FUNCTIONS[1:]
        )),),
    ),
    Target(
        "frontend",
        "the `engines` sides over six generators with feature flags forced "
        "(virtual, floats, helpers, reduce, two mixes) to hit grammar corners, "
        "then a program with an overload set and a class-operator chain, "
        "compiled with the set in declared and in reversed order: heap "
        "against heap on each device",
        (
            *map(_engines, (
                {"uses_virtual": True}, {"uses_floats": True}, {"uses_helper": True},
                {"construct": "reduce"}, {"uses_virtual": True, "uses_floats": True},
                {"construct": "reduce", "uses_helper": True},
            )),
            _overload_orders(),
        ),
    ),
    Target(
        "sched",
        "placement policies on the *same* compiled program: `hybrid` vs `gpu` "
        "byte for byte (chunks run in global index order, `docs/RUNTIME.md`), "
        "`auto` vs `gpu` on outputs",
        (Variant(
            tuple(_source(f"policy/{p}", policy=p) for p in ("gpu", "hybrid", "auto")),
            (("policy/gpu", "policy/hybrid", _EXACT), ("policy/gpu", "policy/auto", ("outputs",))),
        ),),
    ),
    Target(
        "vector",
        "columnar vector engine vs threaded-code engine on the *same* compiled "
        "program: region, traces and the `engine.` / `mem_events.` / `gpu.` "
        "counters, whichever path a kernel took (`docs/VECTOR.md`); every "
        "other program has `&&` / `||` conditions and `continue` in loops",
        tuple(
            Variant(
                (_source("compiled/gpu", engine="compiled"), _source("vector/gpu", engine="vector")),
                (("compiled/gpu", "vector/gpu", _TRACED + ("counters:engine.,mem_events.,gpu.",)),),
                force=force,
            )
            for force in (None, {"uses_short_circuit": True})
        ),
    ),
    Target(
        "graph",
        "a DAG of five `for` constructs over shared arrays, run in submission "
        "order vs forced by `wait()` vs forced in a random topological order "
        "(`docs/GRAPH.md`)",
        (Variant(
            tuple(map(_dag, ("sync", "wait", "shuffled"))),
            (("graph/sync", "graph/wait", _EXACT), ("graph/sync", "graph/shuffled", _EXACT)),
            # reductions allocate order-dependent scratch
            force={"construct": "for"},
        ),),
    ),
    Target(
        "compile-cache",
        "one source compiled in memory, cold and warm through one artifact "
        "store, cold through another: closure miss / hit / miss, one "
        "`program_id`, warm OpenCL and raw traces equal to cold's, canonical "
        "traces across independent compiles (`docs/SERVICE.md`)",
        (Variant(
            (
                _source("compile/mono", engine="compiled"),
                _cached("store/cold", Build(store="shared"), "miss"),
                _cached("store/warm", Build(store="shared", again=True), "hit"),
                _cached("store/separate", Build(store="separate"), "miss"),
            ),
            (
                # warm unpickles cold's program: the very same IR objects
                ("store/cold", "store/warm", ("program_id", "opencl", *_TRACED)),
                # independent compiles: uids differ, symbol ids and layout do not
                ("compile/mono", "store/cold", ("program_id", *_EXACT, "canon_traces")),
                ("store/cold", "store/separate", ("program_id", *_EXACT, "canon_traces")),
            ),
        ),),
    ),
    Target(
        "structure",
        "the region tree (`repro.ir.structure`) walked by `RegionInterpreter` "
        "vs the reference interpreter's block walk: an IR function and its "
        "pass clones on even iterations, a source program on both devices on "
        "odd ones (`docs/ENGINE.md`)",
        (
            _ir_functions_on("regions"),
            Variant(
                tuple(
                    _source(f"{label}/{d}", engine="reference", device=d, regions=regions)
                    for d in _DEVICES
                    for label, regions in (("reference", False), ("regions", True))
                ),
                tuple((f"reference/{d}", f"regions/{d}", _TRACED) for d in _DEVICES),
            ),
        ),
    ),
)}


# -- the runner -------------------------------------------------------------------


class FrontendRejected(Exception):
    """No compile a variant asked for succeeded: the generator produced a
    program the frontend refuses, so there is nothing to compare."""


def _brief(value) -> str:
    text = str(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _difference(a: Outcome, b: Outcome, fields) -> Optional[str]:
    """The first of ``behaviour`` and ``fields`` on which ``a`` and ``b``
    differ, with both values (of a dict, at its first differing key)."""
    for name in ("behaviour", *fields):
        x, y = _observe(a, name), _observe(b, name)
        if x != y:
            if isinstance(x, dict) and isinstance(y, dict):
                key = min(k for k in {*x, *y} if x.get(k) != y.get(k))
                name, x, y = f"{name}[{key!r}]", x.get(key), y.get(key)
            return f"{name} ({_brief(x)} vs {_brief(y)})"
    return None


def divergences(target: str, program, variant: Optional[Variant] = None) -> list:
    """What ``variant`` of ``target`` finds in ``program``: a line per side
    whose expected value is not met, then one per pair of sides that
    disagree, naming the target, both sides and the first field that
    differs.  Empty means equivalent.

    ``variant`` defaults to every variant of ``target`` that takes this
    kind of program.  Raises :class:`FrontendRejected` when no compile the
    variant asks for succeeds; a failed compile beside one that succeeded
    is a ``frontend:`` trap on its sides, compared like any other."""
    if variant is None:
        kind = "ir" if isinstance(program, IRProgram) else "source"
        variants = [v for v in TARGETS[target].variants if v.kind == kind]
        return [line for v in variants for line in divergences(target, program, v)]
    observe = {side.label: {name for name, _ in side.expect} for side in variant.sides}
    for a, b, fields in variant.pairs:
        observe[a].update(fields)
        observe[b].update(fields)
    stored = any(side.build.store for side in variant.sides)
    with warnings.catch_warnings(), TemporaryDirectory() if stored else nullcontext() as scratch:
        warnings.simplefilter("ignore")
        built = {}
        for side in variant.sides:
            if side.build not in built:
                built[side.build] = side.build.compile(program, scratch)
        rejected = [b for b in built.values() if isinstance(b, Exception)]
        if len(rejected) == len(built):
            raise FrontendRejected(f"{target}: {rejected[0]!r}") from rejected[0]
        outcomes = {}
        for side in variant.sides:
            b = built[side.build]
            outcomes[side.label] = (
                Outcome(ok=False, trap=f"frontend:{type(b).__name__}")
                if isinstance(b, Exception)
                else side.run(program, b, observe[side.label])
            )
    lines = [
        f"{target}: {side.label}: {name} is {got!r}, expected {want!r}"
        for side in variant.sides
        for name, want in side.expect
        if (got := _observe(outcomes[side.label], name)) != want
    ]
    for a, b, fields in variant.pairs:
        difference = _difference(outcomes[a], outcomes[b], fields)
        if difference:
            lines.append(f"{target}: {a} vs {b}: {difference}")
    return lines
