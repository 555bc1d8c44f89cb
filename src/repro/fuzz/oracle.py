"""Differential oracles: cross-engine, cross-device and cross-pass.

Three comparisons back the fuzzer's claim of semantic preservation:

* **engines** — the reference tree-walking :class:`~repro.exec.Interpreter`
  and the threaded-code :class:`~repro.exec.CompiledEngine` must produce
  bit-identical results, shared-region bytes, execution traces, and trap
  behaviour for the same compiled program on the same device;
* **devices** — the CPU form of a kernel (pre device lowering) and the
  GPU form (devirt + inline + SVM lowering + PTROPT/L3OPT) must compute
  the same outputs (region bytes are compared only where layouts match:
  the reduce construct allocates per-device scratch copies);
* **passes** — the full pipeline and every per-pass-disabled pipeline
  (``OptConfig.without_pass``; one configuration per entry in
  :data:`repro.passes.pipeline.DISABLEABLE_PASSES`) must agree on outputs
  and region bytes.  Passes in ``GPU_SAFE_DISABLE`` are compared on the
  GPU path; ``inline``/``devirt`` are structurally required for device
  lowering, so their disabled configurations are compared on the CPU path.

Outcomes carry everything comparable; :func:`compare_outcomes` returns a
human-readable list of differences (empty = equivalent).
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field
from typing import Optional

from ..exec import ExecutionError
from ..passes import OptConfig
from ..passes.pipeline import DISABLEABLE_PASSES, GPU_SAFE_DISABLE
from ..svm import MemoryFault
from .srcgen import SourceProgram

#: Region size for fuzz runtimes — small, so full-region digests are cheap.
FUZZ_REGION_SIZE = 1 << 16


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
    #: uid-remapped signature (see :func:`canonical_trace_signature`),
    #: filled only when ``canonical_traces`` was requested — comparable
    #: across *independent* compiles of the same source.
    canon_trace_sig: Optional[tuple] = None

    def brief(self) -> str:
        if not self.ok:
            return f"trap:{self.trap}"
        return f"ok region={self.region_digest[:12]}"


def _digest(raw) -> str:
    return hashlib.sha256(bytes(raw)).hexdigest()


def _heap_digest(region, module) -> str:
    """Region digest with vtable-global bytes zeroed (their symbol-id
    contents are per-module metadata, not kernel heap state)."""
    raw = bytearray(region.physical.data)
    for gvar in module.globals.values():
        init = gvar.initializer
        if not (isinstance(init, tuple) and init and init[0] == "vtable"):
            continue
        if gvar.address is None:
            continue
        offset = gvar.address - region.cpu_base
        size = max(1, gvar.value_type.size())
        raw[offset : offset + size] = b"\x00" * size
    return _digest(raw)


def _trace_signature(traces) -> tuple:
    """A hashable, engine-representation-independent trace summary."""
    sig = []
    for trace in traces:
        events = tuple(
            (e.instr_uid, e.seq, e.address, e.size, e.is_store)
            for e in trace.mem_events
        )
        sig.append((
            trace.instructions,
            tuple(sorted(trace.block_counts.items())),
            tuple(sorted((k, tuple(v)) for k, v in trace.branch_stats.items())),
            trace.flops,
            trace.int_ops,
            trace.translations,
            trace.calls,
            trace.mem_events_dropped,
            events,
        ))
    return tuple(sig)


def _canonical_uid_maps(module):
    """Deterministic remaps of the global block/instruction uid counters.

    Blocks and instructions draw their uids from process-wide counters,
    so two *independent* compiles of the same source assign different
    uids to structurally identical IR — and traces key block counts,
    branch stats and mem events by those uids.  Traversing the module in
    function-name order (names are source-derived, hence identical
    across compiles) gives every block and instruction a canonical
    position independent of the counters' state."""
    blocks: dict = {}
    instrs: dict = {}
    for name in sorted(module.functions):
        fn = module.functions[name]
        for b_index, block in enumerate(fn.blocks):
            blocks[block.uid] = (name, b_index)
            for i_index, instr in enumerate(block.instructions):
                instrs[instr.uid] = (name, b_index, i_index)
    return blocks, instrs


def canonical_trace_signature(traces, module) -> tuple:
    """:func:`_trace_signature` with raw uids remapped to canonical
    module positions — comparable across independent compiles of one
    source (the raw signature is only comparable between executions of
    the *same* IR objects)."""
    blocks, instrs = _canonical_uid_maps(module)

    def _block(uid):
        return blocks.get(uid, ("?", uid))

    def _instr(uid):
        return instrs.get(uid, ("?", uid, -1))

    sig = []
    for trace in traces:
        events = tuple(
            (_instr(e.instr_uid), e.seq, e.address, e.size, e.is_store)
            for e in trace.mem_events
        )
        sig.append((
            trace.instructions,
            tuple(sorted((_block(k), v) for k, v in trace.block_counts.items())),
            tuple(sorted(
                (_instr(k), tuple(v)) for k, v in trace.branch_stats.items()
            )),
            trace.flops,
            trace.int_ops,
            trace.translations,
            trace.calls,
            trace.mem_events_dropped,
            events,
        ))
    return tuple(sig)


# -- source-program execution -------------------------------------------------


def run_source_program(
    program: SourceProgram,
    engine: str = "compiled",
    config: Optional[OptConfig] = None,
    device: str = "gpu",
    keep_traces: bool = False,
    compiled=None,
    observer=None,
    policy: Optional[str] = None,
    canonical_traces: bool = False,
    regions: bool = False,
) -> Outcome:
    """Compile (unless ``compiled`` is passed) and execute one generated
    program, returning the full observable outcome.  ``observer`` (a
    ``repro.obs.Observer``) opts the run into span/counter collection;
    ``policy`` routes the constructs through a scheduler placement policy
    instead of the ``device`` flag; ``canonical_traces`` additionally
    fills ``canon_trace_sig`` (requires ``keep_traces``); ``regions``
    executes through the region-tree evaluator in place of whichever
    scalar engine ``engine`` names."""
    from ..ir.types import F32, I32
    from ..runtime import ConcordRuntime, compile_source, ultrabook

    config = config or OptConfig.gpu_all()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if compiled is None:
            try:
                compiled = compile_source(program.source, config)
            except Exception as exc:  # frontend rejecting generator output
                return Outcome(ok=False, trap=f"frontend:{type(exc).__name__}")
        rt = ConcordRuntime(
            compiled,
            ultrabook(),
            region_size=FUZZ_REGION_SIZE,
            engine=engine,
            keep_traces=keep_traces,
            observer=observer,
            policy=policy or "gpu",
        )
        if regions:
            _use_region_interpreter(rt)
        data = rt.new_array(I32, program.n)
        data.fill_from(program.data)
        aux = rt.new_array(I32, program.aux_len)
        aux.fill_from(program.aux)
        body = rt.new(program.class_name)
        body.data = data
        body.aux = aux
        body.s0 = program.s0
        body.s1 = program.s1
        fdata = None
        if program.uses_floats:
            fdata = rt.new_array(F32, program.n)
            fdata.fill_from(program.fdata)
            body.fdata = fdata
        if program.uses_virtual:
            obj = rt.new(program.virtual_class)
            obj.salt = program.salt
            body.obj = obj
        if program.construct == "reduce":
            body.acc = 0
        on_cpu = device == "cpu" and policy is None
        try:
            if program.construct == "reduce":
                rt.parallel_reduce_hetero(program.n, body, on_cpu=on_cpu)
            else:
                rt.parallel_for_hetero(program.n, body, on_cpu=on_cpu)
        except (ExecutionError, MemoryFault) as exc:
            return Outcome(ok=False, trap=type(exc).__name__)
        outputs = {
            "data": data.to_list(),
            "aux": aux.to_list(),
        }
        if fdata is not None:
            outputs["fdata"] = fdata.to_list()
        if program.construct == "reduce":
            outputs["acc"] = body.acc
        return Outcome(
            ok=True,
            outputs=outputs,
            region_digest=_digest(rt.region.physical.data),
            heap_digest=_heap_digest(rt.region, compiled.module),
            trace_sig=_trace_signature(rt.trace_log) if keep_traces else None,
            canon_trace_sig=(
                canonical_trace_signature(rt.trace_log, compiled.module)
                if keep_traces and canonical_traces
                else None
            ),
        )


def _use_region_interpreter(rt) -> None:
    """Every engine ``rt`` builds from here on walks the region tree
    (:class:`~repro.exec.regions.RegionInterpreter`), one tree per
    function for the whole run."""
    from ..exec.regions import RegionInterpreter

    trees: dict = {}

    def make_engine(device, trace=None, collect_mem_events=None, **kwargs):
        if collect_mem_events is None:
            collect_mem_events = rt.collect_mem_events
        return RegionInterpreter(
            rt.region,
            device=device,
            trace=trace,
            symbols=rt._symbols,
            collect_mem_events=collect_mem_events,
            private_pool=rt.private_pool,
            trees=trees,
            **kwargs,
        )

    rt._make_engine = make_engine


def compare_outcomes(
    a: Outcome,
    b: Outcome,
    label_a: str,
    label_b: str,
    region: str = "full",
    traces: bool = False,
) -> list:
    """Differences between two outcomes (empty list = equivalent).

    ``region`` picks the heap-state comparison: ``"full"`` (every byte —
    right when both ran the same compiled program), ``"heap"`` (vtable
    metadata masked — right across configurations of the same source) or
    ``"none"`` (layouts incomparable, e.g. across devices for reduce).
    """
    diffs = []
    if a.ok != b.ok or a.trap != b.trap:
        diffs.append(
            f"behaviour: {label_a}={a.brief()} vs {label_b}={b.brief()}"
        )
        return diffs
    if not a.ok:
        return diffs  # both trapped identically
    for key in sorted(set(a.outputs) | set(b.outputs)):
        # by repr: a nan equals a nan, and -0.0 is not 0.0
        if repr(a.outputs.get(key)) != repr(b.outputs.get(key)):
            diffs.append(
                f"output {key!r}: {label_a}={a.outputs.get(key)} vs "
                f"{label_b}={b.outputs.get(key)}"
            )
    if region == "full" and a.region_digest != b.region_digest:
        diffs.append(
            f"region bytes: {label_a}={a.region_digest[:16]} vs "
            f"{label_b}={b.region_digest[:16]}"
        )
    elif region == "heap" and a.heap_digest != b.heap_digest:
        diffs.append(
            f"heap bytes: {label_a}={a.heap_digest[:16]} vs "
            f"{label_b}={b.heap_digest[:16]}"
        )
    if traces and a.trace_sig is not None and b.trace_sig is not None:
        if a.trace_sig != b.trace_sig:
            diffs.append(f"execution traces differ ({label_a} vs {label_b})")
    return diffs


# -- oracles over source programs ---------------------------------------------


def source_engine_divergences(program: SourceProgram) -> list:
    """Reference interpreter vs compiled engine, per device, bit-for-bit
    (outputs, region bytes, traces, traps); plus the cross-device
    output check.

    Compiles once and shares the program across all runs — block/instr
    uids are global counters, so traces are only comparable between
    executions of the *same* IR objects."""
    from ..runtime import compile_source

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            compiled = compile_source(program.source, OptConfig.gpu_all())
        except Exception:
            # Frontend rejection is engine-independent: nothing to compare.
            return []
    diffs = []
    per_device = {}
    for device in ("gpu", "cpu"):
        ref = run_source_program(
            program, engine="reference", device=device, keep_traces=True,
            compiled=compiled,
        )
        com = run_source_program(
            program, engine="compiled", device=device, keep_traces=True,
            compiled=compiled,
        )
        diffs.extend(compare_outcomes(
            ref, com, f"reference/{device}", f"compiled/{device}",
            region="full", traces=True,
        ))
        per_device[device] = com
    # Device independence: same outputs from the CPU and GPU kernel forms.
    # Region layout differs for reduce (per-device scratch copies), so
    # compare outputs only.
    diffs.extend(compare_outcomes(
        per_device["gpu"], per_device["cpu"], "compiled/gpu", "compiled/cpu",
        region="none",
    ))
    return diffs


def source_structure_divergences(program: SourceProgram) -> list:
    """The region tree of every function the program runs, evaluated,
    against the reference interpreter's block-to-block walk: outputs,
    every region byte, traces and traps, on both devices."""
    from ..runtime import compile_source

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            compiled = compile_source(program.source, OptConfig.gpu_all())
        except Exception:
            return []
    diffs = []
    for device in ("gpu", "cpu"):
        ref, tree = (
            run_source_program(
                program, engine="reference", device=device, keep_traces=True,
                compiled=compiled, regions=regions,
            )
            for regions in (False, True)
        )
        diffs.extend(compare_outcomes(
            ref, tree, f"reference/{device}", f"regions/{device}",
            region="full", traces=True,
        ))
    return diffs


def source_vector_divergences(program: SourceProgram) -> list:
    """Columnar vector engine vs threaded-code engine, bit-for-bit.

    The vector backend promises trace/region identity whichever path a
    kernel takes (vectorized, rolled back + rerun scalar, or routed
    scalar outright), so the oracle holds it to the full bar: outputs,
    every region byte, execution traces, traps — plus the trace-derived
    ``engine.*`` / ``mem_events.*`` counters, compared via the observer.
    """
    from ..obs import Observer
    from ..runtime import compile_source

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            compiled = compile_source(program.source, OptConfig.gpu_all())
        except Exception:
            return []
    # Columnar code and per-kernel routing verdicts belong to the program
    # object, and this one is fresh: every iteration exercises the
    # optimistic vector path from a cold state.
    obs_com = Observer()
    com = run_source_program(
        program, engine="compiled", device="gpu", keep_traces=True,
        compiled=compiled, observer=obs_com,
    )
    obs_vec = Observer()
    vec = run_source_program(
        program, engine="vector", device="gpu", keep_traces=True,
        compiled=compiled, observer=obs_vec,
    )
    diffs = compare_outcomes(
        com, vec, "compiled/gpu", "vector/gpu", region="full", traces=True,
    )
    counters_a = obs_com.counters.as_dict()
    counters_b = obs_vec.counters.as_dict()
    prefixes = ("engine.", "mem_events.", "gpu.")
    names = sorted(
        name
        for name in set(counters_a) | set(counters_b)
        if name.startswith(prefixes)
    )
    for name in names:
        a, b = counters_a.get(name, 0), counters_b.get(name, 0)
        if a != b:
            diffs.append(
                f"counter {name}: compiled/gpu={a} vs vector/gpu={b}"
            )
    return diffs


def source_pass_divergences(
    program: SourceProgram, pass_names=None
) -> list:
    """Full pipeline vs per-pass-disabled pipelines.

    ``pass_names`` defaults to every disableable pass; the driver rotates
    through them one per iteration to bound per-program cost.
    """
    names = list(pass_names) if pass_names is not None else list(DISABLEABLE_PASSES)
    diffs = []
    baseline = {}
    for name in names:
        device = "gpu" if name in GPU_SAFE_DISABLE else "cpu"
        if device not in baseline:
            baseline[device] = run_source_program(
                program, config=OptConfig.gpu_all(), device=device
            )
        disabled = run_source_program(
            program,
            config=OptConfig.gpu_all().without_pass(name),
            device=device,
        )
        diffs.extend(compare_outcomes(
            baseline[device],
            disabled,
            f"full/{device}",
            f"no-{name}/{device}",
            region="heap",
        ))
    return diffs


def source_config_divergences(program: SourceProgram) -> list:
    """The paper's four measured configurations (GPU, +PTROPT, +L3OPT,
    +ALL) must agree bit-for-bit on the GPU path."""
    outcomes = [
        (config.label, run_source_program(program, config=config))
        for config in OptConfig.all_configs()
    ]
    label0, base = outcomes[0]
    diffs = []
    for label, outcome in outcomes[1:]:
        diffs.extend(compare_outcomes(base, outcome, label0, label, region="heap"))
    return diffs


def source_sched_divergences(program: SourceProgram) -> list:
    """Scheduler placement policies must preserve results.

    ``hybrid`` executes the same compiled program chunk-by-chunk in
    global index order, so it must match the paper-faithful ``gpu``
    policy bit-for-bit (outputs *and* region bytes).  ``auto`` may place
    whole constructs on either device — the CPU reduce path lays scratch
    copies out differently — so it is held to output equality only.
    """
    from ..runtime import compile_source

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            compiled = compile_source(program.source, OptConfig.gpu_all())
        except Exception:
            # Frontend rejection is policy-independent: nothing to compare.
            return []
    base = run_source_program(program, compiled=compiled, policy="gpu")
    hybrid = run_source_program(program, compiled=compiled, policy="hybrid")
    auto = run_source_program(program, compiled=compiled, policy="auto")
    diffs = []
    diffs.extend(compare_outcomes(
        base, hybrid, "policy/gpu", "policy/hybrid", region="full"
    ))
    diffs.extend(compare_outcomes(
        base, auto, "policy/gpu", "policy/auto", region="none"
    ))
    return diffs


def _graph_dag_plan(program: SourceProgram, constructs: int = 5):
    """A deterministic DAG plan for one generated program: ``constructs``
    instances of its kernel over a small pool of shared arrays, so
    read/write sets overlap and dependency edges form.  The plan depends
    only on the program (same structure for every execution mode)."""
    import random

    rng = random.Random(program.seed * 48271 + 7)
    return [
        (rng.randrange(3), rng.randrange(2)) for _ in range(constructs)
    ]


def _run_graph_dag(
    program: SourceProgram, compiled, plan, mode: str, order=None
) -> Outcome:
    """Execute the DAG plan in one mode: ``"sync"`` runs each construct
    synchronously in submission order, ``"graph"`` submits everything and
    forces via ``wait()`` (submission order), ``"shuffled"`` submits
    everything and forces the futures in a seed-derived permutation — a
    random topological order once inferred dependencies are honored.
    ``order`` overrides the shuffled permutation (property tests force
    arbitrary caller-chosen orders)."""
    import random

    from ..ir.types import F32, I32
    from ..runtime import ConcordRuntime, ultrabook

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rt = ConcordRuntime(
            compiled, ultrabook(), region_size=FUZZ_REGION_SIZE
        )
        n, aux_len = program.n, program.aux_len
        # Shared pools: three data (+float) arrays, two aux arrays.
        # Constructs picking the same pool slot must serialize; disjoint
        # picks may reorder freely.
        datas = [rt.new_array(I32, n) for _ in range(3)]
        auxes = [rt.new_array(I32, aux_len) for _ in range(2)]
        for k, arr in enumerate(datas):
            arr.fill_from(
                [program.data[(i + k) % n] for i in range(n)]
            )
        for k, arr in enumerate(auxes):
            arr.fill_from(
                [program.aux[(i + k) % aux_len] for i in range(aux_len)]
            )
        fdatas = []
        if program.uses_floats:
            fdatas = [rt.new_array(F32, n) for _ in range(3)]
            for arr in fdatas:
                arr.fill_from(program.fdata)
        submissions = []
        for data_idx, aux_idx in plan:
            body = rt.new(program.class_name)
            body.data = datas[data_idx]
            body.aux = auxes[aux_idx]
            body.s0 = program.s0
            body.s1 = program.s1
            if program.uses_floats:
                body.fdata = fdatas[data_idx]
            obj = None
            if program.uses_virtual:
                obj = rt.new(program.virtual_class)
                obj.salt = program.salt
                body.obj = obj
            accessed = [datas[data_idx], auxes[aux_idx]]
            if program.uses_floats:
                accessed.append(fdatas[data_idx])
            reads = list(accessed)
            if obj is not None:
                reads.append(obj)
            writes = accessed + [body]  # kernels may mutate body fields
            submissions.append((body, reads, writes))
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
        outputs = {
            f"data{k}": arr.to_list() for k, arr in enumerate(datas)
        }
        outputs.update(
            {f"aux{k}": arr.to_list() for k, arr in enumerate(auxes)}
        )
        for k, arr in enumerate(fdatas):
            outputs[f"fdata{k}"] = arr.to_list()
        return Outcome(
            ok=True,
            outputs=outputs,
            region_digest=_digest(rt.region.physical.data),
            heap_digest=_heap_digest(rt.region, compiled.module),
        )


def source_graph_divergences(program: SourceProgram) -> list:
    """Task-graph runtime vs sequential submission order.

    A DAG of ``for`` constructs with overlapping declared read/write
    sets must produce bit-identical results whether it runs (a)
    synchronously in submission order, (b) deferred through the graph
    and forced by ``wait()``, or (c) deferred and forced in a random
    topological order — (c) holds only if the inferred RAW/WAR/WAW edges
    actually serialize every true conflict.  Restricted to ``for``
    bodies: reductions allocate per-device scratch, so their region
    layout is execution-order-dependent by design.
    """
    from ..runtime import compile_source

    if program.construct != "for":
        return []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            compiled = compile_source(program.source, OptConfig.gpu_all())
        except Exception:
            # Frontend rejection is mode-independent: nothing to compare.
            return []
    plan = _graph_dag_plan(program)
    sync = _run_graph_dag(program, compiled, plan, "sync")
    graph = _run_graph_dag(program, compiled, plan, "graph")
    diffs = compare_outcomes(
        sync, graph, "graph/sync", "graph/wait", region="full"
    )
    # A trapping program aborts mid-DAG; which constructs ran before the
    # trap is order-dependent, so the reordered comparison only applies
    # to trap-free programs.
    if sync.ok:
        shuffled = _run_graph_dag(program, compiled, plan, "shuffled")
        diffs.extend(compare_outcomes(
            sync, shuffled, "graph/sync", "graph/shuffled", region="full"
        ))
    return diffs


def source_cache_divergences(program: SourceProgram) -> list:
    """Compile-through-store differential (the compile service's
    identity bar; see ``docs/SERVICE.md``).

    Four compilations of one source under ``OptConfig.gpu_all()``:

    * ``mono``  — :func:`repro.runtime.compile_source`, no store (the
      in-memory three-stage chain, the baseline);
    * ``cold``  — :func:`~repro.runtime.compiler.compile_cached` against
      a fresh store (must miss and write the program);
    * ``warm``  — the *same* store again (must hit): the unpickled
      program preserves the cold compile's instruction uids and OpenCL
      text, so warm is held to bit-identical OpenCL, region bytes and
      *raw* traces;
    * ``other`` — a separate fresh store dir: an independent compile
      whose global uids legitimately differ, compared through
      :func:`canonical_trace_signature` instead.

    All four must carry the same content-hash ``program_id``, show the
    expected hit/miss pattern, and execute identically on the
    GPU path: outputs, every region byte, and traces.
    """
    import tempfile

    from ..runtime import compile_source
    from ..runtime.compiler import compile_cached
    from ..service import ArtifactStore

    config = OptConfig.gpu_all()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            mono = compile_source(program.source, config)
        except Exception:
            # Frontend rejection is store-independent: nothing to compare.
            return []
        with tempfile.TemporaryDirectory() as shared_dir, \
                tempfile.TemporaryDirectory() as separate_dir:
            shared = ArtifactStore(shared_dir)
            cold, cold_stages = compile_cached(
                program.source, config, store=shared
            )
            warm, warm_stages = compile_cached(
                program.source, config, store=shared
            )
            other, other_stages = compile_cached(
                program.source, config, store=ArtifactStore(separate_dir)
            )
    diffs = []
    for label, stages, expected in (
        ("cold", cold_stages, "miss"),
        ("warm", warm_stages, "hit"),
        ("separate-store", other_stages, "miss"),
    ):
        if stages != {"closure": expected}:
            diffs.append(f"{label} compile was not a closure {expected}: {stages}")
    ids = {
        "mono": mono.program_id,
        "cold": cold.program_id,
        "warm": warm.program_id,
        "other": other.program_id,
    }
    if len(set(ids.values())) != 1:
        diffs.append(
            "program hashes disagree: "
            + ", ".join(f"{k}={v[:16]}" for k, v in sorted(ids.items()))
        )
    # Warm artifacts are pickled snapshots of the cold compile, so the
    # embedded device code must round-trip byte for byte.
    for name, kinfo in cold.kernels.items():
        warm_kinfo = warm.kernels.get(name)
        if warm_kinfo is None:
            diffs.append(f"warm compile lost kernel {name!r}")
        elif (
            kinfo.opencl_source != warm_kinfo.opencl_source
            or kinfo.reduce_wrapper_source != warm_kinfo.reduce_wrapper_source
        ):
            diffs.append(f"warm OpenCL for {name!r} differs from cold")
    if diffs:
        # The compile-level identity is already broken; executing the
        # programs would only restate it less precisely.
        return diffs
    outcomes = {}
    for label, compiled in (
        ("mono", mono), ("cold", cold), ("warm", warm), ("other", other)
    ):
        # All four share one content-hash program_id, but generated code
        # belongs to the program object: each run exercises its own
        # compile's artifacts.
        outcomes[label] = run_source_program(
            program, engine="compiled", device="gpu", keep_traces=True,
            compiled=compiled, canonical_traces=True,
        )
    # cold vs warm ran the very same pickled IR snapshot: full bar
    # including raw (uid-exact) traces.
    diffs.extend(compare_outcomes(
        outcomes["cold"], outcomes["warm"], "store/cold", "store/warm",
        region="full", traces=True,
    ))
    # mono and other are independent compiles of the same source: region
    # bytes must still match in full (symbol ids and layout are
    # name-derived), but traces are compared canonically below.
    diffs.extend(compare_outcomes(
        outcomes["mono"], outcomes["cold"], "compile/mono", "store/cold",
        region="full",
    ))
    diffs.extend(compare_outcomes(
        outcomes["cold"], outcomes["other"], "store/shared", "store/separate",
        region="full",
    ))
    base = outcomes["cold"]
    for label in ("mono", "other"):
        outcome = outcomes[label]
        if not (base.ok and outcome.ok):
            continue
        if base.canon_trace_sig != outcome.canon_trace_sig:
            diffs.append(
                f"canonical execution traces differ (store/cold vs {label})"
            )
    return diffs


# -- oracles over IR programs -------------------------------------------------

#: Function passes exercised by the IR-level differential (name → applied
#: to a clone of the generated function; must preserve results).
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


def run_ir_function(fn, program, engine: str = "interpreter") -> Outcome:
    """Execute one rendered IR function over a fresh region + scratch
    buffer; returns ret value + buffer contents."""
    from ..exec import CompiledEngine, Interpreter
    from ..exec.regions import RegionInterpreter
    from ..svm import SharedAllocator, SharedRegion
    from .irgen import BUF_SLOTS

    region = SharedRegion(FUZZ_REGION_SIZE)
    allocator = SharedAllocator(region)
    buf = allocator.calloc(BUF_SLOTS * 4)
    for slot, value in enumerate(program.buf):
        region.write_int(buf + slot * 4, 4, value & 0xFFFFFFFF, signed=False)
    executor = {
        "interpreter": Interpreter,
        "regions": RegionInterpreter,
        "compiled": CompiledEngine,
    }[engine](region, "cpu")
    try:
        ret = executor.call_function(fn, [program.a, program.b, buf])
    except (ExecutionError, MemoryFault) as exc:
        return Outcome(ok=False, trap=type(exc).__name__)
    return Outcome(
        ok=True,
        outputs={"ret": ret, "buf": list(region.read_bytes(buf, BUF_SLOTS * 4))},
        region_digest=_digest(region.physical.data),
    )


def _after_pass(module, fn, index: int, name: str):
    """A clone of ``fn`` with the one pass ``name`` run over it."""
    from ..passes import PassManager
    from ..passes.pipeline import PASS_REGISTRY
    from ..runtime.clone import clone_function

    clone = clone_function(module, fn, f"{fn.name}.{name}.{index}")
    pass_fn = PASS_REGISTRY[name]
    PassManager(verify=False).run(clone, [pass_fn(module) if name == "inline" else pass_fn])
    return clone


def ir_structure_divergences(program) -> list:
    """The region tree of one IR function, and of what each pass makes of
    it (nine more CFG shapes per program), evaluated against the
    reference interpreter."""
    from .irgen import build_ir

    module, fn = build_ir(program)
    variants = [("unoptimized", fn)]
    variants += [
        (f"after-{name}", _after_pass(module, fn, index, name))
        for index, name in enumerate(IR_PASS_NAMES)
    ]
    diffs = []
    for label, variant in variants:
        diffs.extend(compare_outcomes(
            run_ir_function(variant, program, engine="interpreter"),
            run_ir_function(variant, program, engine="regions"),
            f"{label}/interpreter", f"{label}/regions", region="full",
        ))
    return diffs


def ir_divergences(program) -> list:
    """Cross-engine and per-pass differentials for one IR program."""
    from ..ir import VerificationError, verify_function
    from .irgen import build_ir

    diffs = []
    module, fn = build_ir(program)
    reference = run_ir_function(fn, program, engine="interpreter")
    compiled = run_ir_function(fn, program, engine="compiled")
    diffs.extend(compare_outcomes(
        reference, compiled, "interpreter", "compiled-engine", region="full"
    ))

    for index, name in enumerate(IR_PASS_NAMES):
        try:
            clone = _after_pass(module, fn, index, name)
            verify_function(clone)
        except VerificationError as exc:
            diffs.append(f"pass {name} broke the verifier: {exc}")
            continue
        after = run_ir_function(clone, program, engine="interpreter")
        diffs.extend(compare_outcomes(
            reference, after, "unoptimized", f"after-{name}", region="full"
        ))
        # The compiled engine must agree on the transformed IR too.
        after_compiled = run_ir_function(clone, program, engine="compiled")
        diffs.extend(compare_outcomes(
            after, after_compiled, f"after-{name}/interp",
            f"after-{name}/compiled", region="full"
        ))
    return diffs
