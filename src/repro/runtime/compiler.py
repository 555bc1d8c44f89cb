"""The static Concord compiler driver (paper Figure 2, left column).

Compilation is three pure, in-memory stages (see ``docs/SERVICE.md``):

1. :func:`frontend_stage` — parse MiniC++, semantic analysis, lowering
   to IR (CLANG/LLVM stand-in), and discovery of heterogeneous loop-body
   classes (any class with ``operator()(int)`` is offloadable; a
   ``join(Body&)`` method makes it a reduction body) plus their kernel
   wrappers.
2. :func:`pipeline_stage` — the standard optimization pipeline over
   every function, then the device-lowering pipeline (devirt, SVM,
   PTROPT/L3OPT per config) on each kernel clone, plus the restriction
   checker (flagged kernels are marked CPU-only with a compile-time
   warning, exactly as the paper describes).
3. :func:`closure_stage` — emit the executable closure: OpenCL C text
   per kernel (plus the section 3.3 reduce wrapper) embedded in the
   returned :class:`CompiledProgram` (the "executable: IA binary +
   OpenCL").

Each stage's inputs have a stable **content hash** (:func:`frontend_key`
→ :func:`pipeline_key` → :func:`program_key`); the last one *is* the
program's ``program_id``, a pure function of (source, module name,
options, pass registry, version salt) that is known before anything is
compiled.

:func:`compile_source` runs the chain.  :func:`compile_cached` runs the
same chain behind an artifact store (``repro.service.ArtifactStore`` or
anything with ``get``/``put``) under one rule — *a program is either in
the store or it is compiled*: the finished :class:`CompiledProgram` is
the only artifact read or written, keyed by its ``program_id``, as the
paper's runtime caches only the finished binary (section 3.4).  A hit
skips the frontend, the pipeline and the closure emission entirely —
the substrate of the persistent compile service (``python -m repro
serve``); a missing, evicted or damaged artifact is a recompile and a
re-put.

Because ``program_id`` is a content hash, it is stable across processes
and across recompiles of the same (source, options) pair, and two
different programs can never alias a ``(program_id, kernel_name)`` JIT
or vector-code cache entry — the old per-process ``itertools.count`` id
gave neither guarantee.
"""

from __future__ import annotations

import hashlib
import itertools
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

from .. import ir
from ..ir import Function, FunctionType, IRBuilder, Module
from ..ir.intrinsics import GPU_GLOBAL_ID
from ..ir.types import I32, PointerType, VOID, ptr
from ..minicpp import LowerError, Sema, UnitLowerer, check_kernel, parse
from ..minicpp.sema import ClassInfo
from ..passes import OptConfig, PassManager, kernel_pipeline, standard_pipeline
from ..passes.pipeline import PASS_REGISTRY


class ConcordWarning(UserWarning):
    """Compile-time warning for restriction violations (paper section 2.1)."""


_ANON_IDS = itertools.count()


# -- content hashing ---------------------------------------------------------

#: Bumping this invalidates every stored artifact: the stage hashes fold
#: it in, so stores written by an incompatible compiler are simply never
#: hit (and eventually evicted), rather than deserialized wrongly.
COMPILE_SALT_VERSION = "repro-compile/v1"


def _compile_salt() -> str:
    from .. import __version__

    return f"{COMPILE_SALT_VERSION}:{__version__}"


def canonical_source(source: str) -> str:
    """The form of the source text that stage hashes see: line endings
    normalized so the same program written on different platforms hits
    the same artifacts."""
    return source.replace("\r\n", "\n").replace("\r", "\n")


def _hash(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        raw = part.encode("utf-8")
        # Length-prefix every field so ("ab","c") never collides with
        # ("a","bc").
        digest.update(str(len(raw)).encode("ascii"))
        digest.update(b":")
        digest.update(raw)
    return digest.hexdigest()


def frontend_key(source: str, module_name: str = "concord") -> str:
    """Content hash of the frontend stage's inputs."""
    return _hash("frontend", _compile_salt(), module_name, canonical_source(source))


def pipeline_key(frontend_hash: str, config: OptConfig) -> str:
    """Content hash of the pipeline stage: the frontend artifact it
    consumes, the canonical pass configuration, and the pass-registry
    composition (a renamed/added pass must miss old artifacts)."""
    return _hash(
        "pipeline",
        _compile_salt(),
        frontend_hash,
        config.cache_key(),
        ",".join(sorted(PASS_REGISTRY)),
    )


def program_key(pipeline_hash: str) -> str:
    """Content hash of the closure stage — the ``program_id`` of the
    resulting :class:`CompiledProgram`.  Folds in the reduction group
    size because the emitted reduce-wrapper OpenCL depends on it."""
    from .runtime import REDUCTION_GROUP_SIZE

    return _hash(
        "closure", _compile_salt(), pipeline_hash, str(REDUCTION_GROUP_SIZE)
    )


# -- artifacts ---------------------------------------------------------------


@dataclass
class KernelInfo:
    """One offloadable loop body: its kernel entry and metadata."""

    body_class: ClassInfo
    kernel: Function  # CPU-form kernel (per-iteration entry, pre device lowering)
    gpu_kernel: Function  # device-lowered kernel (SVM translations etc.)
    join_kernel: Optional[Function] = None  # reductions only
    gpu_join_kernel: Optional[Function] = None  # device-lowered join
    construct: str = "for"  # 'for' | 'reduce'
    cpu_only: bool = False
    violations: list = field(default_factory=list)
    opencl_source: str = ""
    #: section 3.3 wrapper (reductions only): private copies + local-memory
    #: tree reduction
    reduce_wrapper_source: str = ""


@dataclass
class FrontendArtifact:
    """Stage 1 output: lowered module + semantic info + kernel wrappers,
    before any optimization.  ``key`` is :func:`frontend_key`."""

    key: str
    source: str
    module_name: str
    module: Module
    sema: Sema
    kernels: dict


@dataclass
class PipelineArtifact:
    """Stage 2 output: the fully optimized and device-lowered module.
    ``key`` is :func:`pipeline_key`."""

    key: str
    config: OptConfig
    module: Module
    sema: Sema
    kernels: dict
    source: str


@dataclass
class CompiledProgram:
    """The 'executable' the static compiler produces: IR for the CPU plus
    embedded OpenCL (here: device-lowered IR + OpenCL C text) for the GPU."""

    module: Module
    sema: Sema
    kernels: dict[str, KernelInfo]
    config: OptConfig
    source: str
    #: Content hash of (source, options, pass config, version salt) — the
    #: closure stage's hash.  The runtime's gpu_function_t cache is keyed
    #: by ``(program_id, kernel_name)``: kernel names repeat across
    #: programs (every workload calls its body ``operator()``), and the
    #: content hash keeps two *different* programs' entries from ever
    #: colliding — the id is stable across processes, unlike the
    #: per-process counter it replaced.  Direct constructions that bypass
    #: :func:`closure_stage` get a process-unique ``anon:<n>`` fallback so
    #: they still never alias.
    program_id: str = field(
        default_factory=lambda: f"anon:{next(_ANON_IDS)}"
    )
    #: Generated engine code (``repro.exec.compiled.JitCode``) keyed by
    #: ``(function, device, collect_events)``: region-independent, so it
    #: is generated by the first runtime that needs it and bound by every
    #: later one.  Derived from ``module``, hence never pickled — a stored
    #: or shipped program is byte-identical whether or not it ever ran.
    jit_code: dict = field(default_factory=dict, repr=False, compare=False)
    #: The vector engine's share under the same rule: its generated units
    #: per function and its per-kernel routing verdicts (a
    #: ``repro.exec.vector.VectorCodeCache``, set by the first vector
    #: runtime).  Two program objects never share one, equal ``program_id``
    #: or not.
    vector_code: object = field(default=None, repr=False, compare=False)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["jit_code"], state["vector_code"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.jit_code = {}
        self.vector_code = None

    def kernel_for(self, class_name: str) -> KernelInfo:
        if class_name not in self.kernels:
            raise KeyError(
                f"no heterogeneous body class {class_name!r}; "
                f"available: {sorted(self.kernels)}"
            )
        return self.kernels[class_name]

    def class_info(self, class_name: str) -> ClassInfo:
        info = self.sema.lookup_class(class_name)
        if info is None:
            raise KeyError(f"unknown class {class_name}")
        return info


def _span(observer, name, **attrs):
    if observer is None:
        return nullcontext()
    return observer.span(name, "compile", **attrs)


# -- stage 1: frontend ---------------------------------------------------------


def frontend_stage(
    source: str, module_name: str = "concord", observer=None
) -> FrontendArtifact:
    """Parse + semantic analysis + lowering + kernel-wrapper discovery."""
    with _span(observer, "frontend"):
        try:
            unit = parse(source)
            sema = Sema(unit)
            lowerer = UnitLowerer(sema, ir.Module(module_name))
            module = lowerer.lower_unit()
        except RecursionError:
            # Chains of binary operators cost no frames; what recurses is
            # nesting — parentheses (two parser frames a level), unary
            # operators, a right-leaning tree.
            raise LowerError(
                "expression nested too deeply for the frontend (a few "
                "hundred levels of parentheses or unary operators); split "
                "it across statements"
            ) from None
        # The line profiler resolves instruction locs back to source
        # text through the module (repro.obs.lines).
        module.source_text = source

    kernels: dict[str, KernelInfo] = {}
    for info in list(sema.classes.values()):
        body_ops = [
            m
            for m in info.methods.get("operator()", ())
            if len(m.decl.params) == 1
        ]
        if not body_ops or body_ops[0].ir_function is None:
            continue
        operator = body_ops[0]
        joins = [
            m for m in info.methods.get("join", ()) if len(m.decl.params) == 1
        ]
        construct = "reduce" if joins else "for"
        kernel = _make_kernel_wrapper(module, info, operator.ir_function)
        join_kernel = None
        if joins and joins[0].ir_function is not None:
            join_kernel = _make_join_wrapper(module, info, joins[0].ir_function)
        kernels[info.name] = KernelInfo(
            body_class=info,
            kernel=kernel,
            gpu_kernel=kernel,  # replaced after device lowering
            join_kernel=join_kernel,
            construct=construct,
        )
    return FrontendArtifact(
        key=frontend_key(source, module_name),
        source=source,
        module_name=module_name,
        module=module,
        sema=sema,
        kernels=kernels,
    )


# -- stage 2: optimization + device lowering -----------------------------------


def pipeline_stage(
    front: FrontendArtifact,
    config: Optional[OptConfig] = None,
    observer=None,
    manager: Optional[PassManager] = None,
) -> PipelineArtifact:
    """Standard pipeline over every function, then device lowering per
    kernel (on a clone, so the CPU path keeps untranslated IR — the CPU
    dereferences CPU pointers natively)."""
    config = config or OptConfig.gpu_all()
    module, kernels = front.module, front.kernels

    with _span(observer, "standard_pipeline"):
        for function in list(module.functions.values()):
            if function.blocks:
                standard_pipeline(module, function, config, manager=manager)

    from .clone import clone_function

    for kinfo in kernels.values():
        with _span(observer, "device_lower", kernel=kinfo.kernel.name):
            kinfo.violations = check_kernel(module, kinfo.kernel)
            if config.device_alloc:
                # Extension (paper future work): device-side allocation
                # is supported through the bump allocator, so it is no
                # longer a restriction.
                kinfo.violations = [
                    v for v in kinfo.violations if v.kind != "gpu-allocation"
                ]
            if kinfo.violations:
                kinfo.cpu_only = True
                _warn_cpu_only(kinfo)
                continue
            gpu_kernel = clone_function(
                module, kinfo.kernel, kinfo.kernel.name + ".gpu"
            )
            kernel_pipeline(
                module, gpu_kernel, config, manager=manager, observer=observer
            )
            kinfo.gpu_kernel = gpu_kernel
            if kinfo.join_kernel is not None:
                gpu_join = clone_function(
                    module, kinfo.join_kernel, kinfo.join_kernel.name + ".gpu"
                )
                kernel_pipeline(
                    module, gpu_join, config, manager=manager, observer=observer
                )
                kinfo.gpu_join_kernel = gpu_join
    return PipelineArtifact(
        key=pipeline_key(front.key, config),
        config=config,
        module=module,
        sema=front.sema,
        kernels=kernels,
        source=front.source,
    )


# -- stage 3: closure emission ---------------------------------------------------


def closure_stage(pipe: PipelineArtifact, observer=None) -> CompiledProgram:
    """Emit the executable closure: OpenCL C text per GPU-capable kernel
    (plus the hierarchical reduce wrapper for reductions) and assemble
    the :class:`CompiledProgram` whose ``program_id`` is the stage's
    content hash."""
    from ..codegen.opencl import emit_kernel_opencl, emit_reduce_wrapper_opencl
    from .runtime import REDUCTION_GROUP_SIZE

    with _span(observer, "codegen"):
        for kinfo in pipe.kernels.values():
            if kinfo.cpu_only:
                continue
            kinfo.opencl_source = emit_kernel_opencl(pipe.module, kinfo.gpu_kernel)
            if kinfo.gpu_join_kernel is not None:
                kinfo.reduce_wrapper_source = emit_reduce_wrapper_opencl(
                    pipe.module,
                    kinfo.body_class.struct_type.name,
                    kinfo.body_class.struct_type.size(),
                    kinfo.gpu_kernel,
                    kinfo.gpu_join_kernel,
                    group_size=REDUCTION_GROUP_SIZE,
                )
    return CompiledProgram(
        module=pipe.module,
        sema=pipe.sema,
        kernels=pipe.kernels,
        config=pipe.config,
        source=pipe.source,
        program_id=program_key(pipe.key),
    )


# -- drivers -------------------------------------------------------------------


def _compile(source, config, module_name, store, observer) -> tuple:
    """The one compile chain: ``(program, "hit" | "miss")``.  With a
    ``store``, the finished program is looked up under its
    ``program_id`` first and written back after a compile."""
    config = config or OptConfig.gpu_all()
    with _span(observer, "compile", module=module_name):
        if store is not None:
            program = store.get(
                "closure",
                program_key(pipeline_key(frontend_key(source, module_name), config)),
            )
            if program is not None:
                _replay_restriction_warnings(program)
                return program, "hit"
        manager = PassManager(verify=config.verify)
        front = frontend_stage(source, module_name, observer=observer)
        pipe = pipeline_stage(front, config, observer=observer, manager=manager)
        program = closure_stage(pipe, observer=observer)
        if store is not None:
            store.put("closure", program.program_id, program)
    if observer is not None:
        observer.record_passes(manager.stats.values())
    return program, "miss"


def compile_source(
    source: str,
    config: Optional[OptConfig] = None,
    module_name: str = "concord",
    observer=None,
) -> CompiledProgram:
    """Compile MiniC++ source into a :class:`CompiledProgram` by chaining
    the three stages in memory (no artifact store).

    ``observer`` (a ``repro.obs.Observer``) is optional: when attached, the
    driver brackets the frontend, the standard pipeline and the per-kernel
    device lowering (including the SVM-lowering step) in phase spans and
    records pass statistics into the observer.  Without one, compilation
    runs the exact pre-observability code paths.
    """
    return _compile(source, config, module_name, None, observer)[0]


def compile_cached(
    source: str,
    config: Optional[OptConfig] = None,
    module_name: str = "concord",
    store=None,
    observer=None,
) -> tuple:
    """:func:`compile_source` behind an artifact store.

    ``store`` is anything with ``get(kind, key) -> object | None`` and
    ``put(kind, key, obj)`` (canonically a
    :class:`repro.service.ArtifactStore`); ``None`` degenerates to
    :func:`compile_source`.  Returns ``(program, {"closure": outcome})``:
    ``"hit"`` when the stored program answered and no stage ran,
    ``"miss"`` when the program was compiled (and stored).  ``observer``
    sees the ``compile`` span, and on a miss the stage spans and pass
    statistics; the outcome is counted by the caller (the daemon's
    ``service.closure_*``).

    Every run of the returned program is bit-identical to one compiled
    without a store: the artifact is a snapshot of the exact object the
    in-memory chain produces (the compile-cache fuzz oracle and
    ``tests/test_staged_compile.py`` hold it to that bar).
    """
    program, outcome = _compile(source, config, module_name, store, observer)
    return program, {"closure": outcome}


def _cpu_only_message(kinfo: KernelInfo) -> str:
    details = "; ".join(str(v) for v in kinfo.violations)
    return (
        f"Concord: {kinfo.body_class.name} cannot run on the GPU "
        f"({details}); falling back to CPU execution"
    )


def _warn_cpu_only(kinfo: KernelInfo) -> None:
    warnings.warn(
        _cpu_only_message(kinfo),
        ConcordWarning,
        stacklevel=5,  # the caller of compile_source / compile_cached
    )


def restriction_warnings(program: CompiledProgram) -> list:
    """The text of each warning compiling ``program`` gives, in order:
    one per kernel that cannot run on the GPU."""
    return [_cpu_only_message(k) for k in program.kernels.values() if k.cpu_only]


def _replay_restriction_warnings(program: CompiledProgram) -> None:
    """A store hit must behave like a compile: CPU-only kernels warned at
    compile time, so they warn on every warm load too."""
    for kinfo in program.kernels.values():
        if kinfo.cpu_only:
            _warn_cpu_only(kinfo)


# -- kernel wrappers -----------------------------------------------------------


def _first_loc(function: Function):
    """First source location in ``function``, for stamping synthesized
    calls to it (the wrapper has no source line of its own)."""
    for block in function.blocks:
        for instr in block.instructions:
            if instr.loc is not None:
                return instr.loc
    return None


def _make_kernel_wrapper(module: Module, info: ClassInfo, operator_fn: Function) -> Function:
    """``void kernel.<Class>(Class* body, int i)`` calling operator()."""
    name = f"kernel.{info.struct_type.name}"
    ftype = FunctionType(VOID, (ptr(info.struct_type), I32))
    kernel = Function(name, ftype, ["body", "i"])
    kernel.attributes["kernel"] = True
    kernel.attributes["body_class"] = info.name
    kernel.attributes["source_locs"] = True
    module.add_function(kernel)
    entry = kernel.new_block("entry")
    builder = IRBuilder(entry)
    # The index argument *is* get_global_id(0) on the device; the runtime
    # passes the iteration index explicitly so the same wrapper runs on the
    # CPU.  The L3OPT pass uses the gpu.global_id intrinsic, which the
    # executor binds to the same value.
    call = builder.call(operator_fn, [kernel.args[0], kernel.args[1]])
    call.loc = _first_loc(operator_fn)
    builder.ret()
    return kernel


def _make_join_wrapper(module: Module, info: ClassInfo, join_fn: Function) -> Function:
    """``void join.<Class>(Class* into, Class* from)``."""
    name = f"join.{info.struct_type.name}"
    ftype = FunctionType(VOID, (ptr(info.struct_type), ptr(info.struct_type)))
    kernel = Function(name, ftype, ["into", "from"])
    kernel.attributes["kernel"] = True
    kernel.attributes["join_of"] = info.name
    kernel.attributes["source_locs"] = True
    module.add_function(kernel)
    entry = kernel.new_block("entry")
    builder = IRBuilder(entry)
    call = builder.call(join_fn, [kernel.args[0], kernel.args[1]])
    call.loc = _first_loc(join_fn)
    builder.ret()
    return kernel
