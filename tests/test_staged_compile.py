"""Staged compilation must be invisible (see ``docs/SERVICE.md``).

``compile_source`` is three explicit stages (frontend → pipeline →
closure), each stamped with a content hash, and ``compile_cached`` can
answer with the finished program from an on-disk artifact store.  None
of that may be observable: a program served warm from the store must be
bit-identical to its cold origin — same OpenCL text, same region bytes,
same traces — on all nine paper workloads and on both execution engines;
the store holds exactly what is read back (one artifact per program, no
write-only kinds); and the
content-hash ``program_id`` must be stable across recompiles while two
*different* programs can never share one (the collision hazard the old
per-process counter id left open across processes).
"""

import pickle
import tempfile
import warnings

import pytest

from repro.passes import OptConfig
from repro.runtime import CompiledProgram, ConcordRuntime, compile_source
from repro.runtime.compiler import (
    canonical_source,
    closure_stage,
    compile_cached,
    frontend_key,
    frontend_stage,
    pipeline_key,
    pipeline_stage,
    program_key,
)
from repro.runtime.system import ultrabook
from repro.service import ArtifactStore
from repro.workloads import all_workloads

WORKLOADS = all_workloads()
NINE = (
    "BarnesHut",
    "BFS",
    "BTree",
    "ClothPhysics",
    "ConnectedComponent",
    "FaceDetect",
    "Raytracer",
    "SkipList",
    "SSSP",
)
SCALE = 0.1


def _execute(cls, program, engine):
    """Build/run/validate one workload on ``program``; returns the
    runtime (region + trace log) for byte-level comparison."""
    rt = ConcordRuntime(
        program,
        ultrabook(),
        region_size=cls.region_size,
        engine=engine,
        keep_traces=True,
    )
    workload = cls()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        state = workload.build(rt, SCALE)
        workload.run(rt, state, on_cpu=False)
        workload.validate(rt, state)
    return rt


def _events(trace):
    return [
        (e.instr_uid, e.seq, e.address, e.size, e.is_store)
        for e in trace.mem_events
    ]


def _assert_traces_equal(ref_log, got_log, where):
    assert len(got_log) == len(ref_log), where
    for index, (ref_launch, got_launch) in enumerate(zip(ref_log, got_log)):
        assert got_launch.n == ref_launch.n, f"{where} launch {index}"
        for lane, (ref, got) in enumerate(zip(ref_launch.lanes(), got_launch.lanes())):
            _assert_lane_equal(ref, got, f"{where} launch {index} lane {lane}")


def _assert_lane_equal(ref, got, label):
    assert got.instructions == ref.instructions, label
    assert got.block_counts == ref.block_counts, label
    assert {k: list(v) for k, v in got.branch_stats.items()} == {
        k: list(v) for k, v in ref.branch_stats.items()
    }, label
    assert got.flops == ref.flops, label
    assert got.int_ops == ref.int_ops, label
    assert got.translations == ref.translations, label
    assert got.calls == ref.calls, label
    assert _events(got) == _events(ref), label


@pytest.mark.parametrize("engine", ["compiled", "vector"])
@pytest.mark.parametrize("name", NINE)
def test_warm_store_bit_identical(name, engine):
    """A program unpickled from a warm store is indistinguishable from
    the cold compile that wrote it: same id, same OpenCL bytes, same
    region bytes and traces when executed."""
    cls = WORKLOADS[name]
    with tempfile.TemporaryDirectory() as root:
        store = ArtifactStore(root)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cold, cold_stages = compile_cached(
                cls.source, store=store, module_name=cls.name
            )
            warm, warm_stages = compile_cached(
                cls.source, store=store, module_name=cls.name
            )
    assert cold_stages == {"closure": "miss"}
    assert warm_stages == {"closure": "hit"}
    assert warm.program_id == cold.program_id
    assert warm is not cold  # genuinely unpickled, not memoized

    # The pickled closure carries the cold compile's exact device code.
    assert sorted(warm.kernels) == sorted(cold.kernels)
    for kernel_name, kinfo in cold.kernels.items():
        warm_kinfo = warm.kernels[kernel_name]
        assert warm_kinfo.opencl_source == kinfo.opencl_source, kernel_name
        assert (
            warm_kinfo.reduce_wrapper_source == kinfo.reduce_wrapper_source
        ), kernel_name
        assert warm_kinfo.cpu_only == kinfo.cpu_only, kernel_name

    # Both programs share one content-hash id, but generated code and
    # routing verdicts belong to the program *object*: each run
    # exercises its own artifacts from a cold state.
    cold_rt = _execute(cls, cold, engine)
    warm_rt = _execute(cls, warm, engine)
    assert bytes(warm_rt.region.physical.data) == bytes(
        cold_rt.region.physical.data
    )
    _assert_traces_equal(cold_rt.trace_log, warm_rt.trace_log, name)


def test_no_write_only_artifacts():
    """A cold then a warm pass over nine workloads × four configs leaves
    one artifact per program, all of one kind, each read back once:
    nothing is stored that the traffic never reads."""
    programs = [
        (WORKLOADS[name], config)
        for name in NINE
        for config in OptConfig.all_configs()
    ]
    with tempfile.TemporaryDirectory() as root:
        store = ArtifactStore(root)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for want in ("miss", "hit"):
                for cls, config in programs:
                    _program, stages = compile_cached(
                        cls.source, config, module_name=cls.name, store=store
                    )
                    assert stages == {"closure": want}, (cls.name, config.label)
        stats = store.stats()
    assert list(stats["kinds"]) == ["closure"]
    assert stats["artifacts"] == len(programs) == 36
    assert store.hits == stats["artifacts"]
    assert store.misses == len(programs)  # one lookup per cold compile


@pytest.mark.parametrize("name", NINE)
def test_program_id_stable_across_recompiles(name):
    """The content hash is a pure function of (source, options): two
    independent compiles — and the explicit three-stage chain — all
    agree, and the id is a real hex digest, not a counter."""
    cls = WORKLOADS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        first = compile_source(cls.source, module_name=cls.name)
        second = compile_source(cls.source, module_name=cls.name)
    assert first.program_id == second.program_id
    assert len(first.program_id) == 64
    assert set(first.program_id) <= set("0123456789abcdef")


def test_staged_chain_matches_monolithic():
    """Chaining the three stages by hand is ``compile_source``: same id,
    and an execution of each lands the same region bytes."""
    cls = WORKLOADS["BFS"]
    config = OptConfig.gpu_all()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mono = compile_source(cls.source, config, module_name=cls.name)
        front = frontend_stage(cls.source, module_name=cls.name)
        pipe = pipeline_stage(front, config)
        staged = closure_stage(pipe)
    assert staged.program_id == mono.program_id
    assert sorted(staged.kernels) == sorted(mono.kernels)
    mono_rt = _execute(cls, mono, "compiled")
    staged_rt = _execute(cls, staged, "compiled")
    assert bytes(staged_rt.region.physical.data) == bytes(
        mono_rt.region.physical.data
    )


def test_pickle_roundtrip_preserves_program_id():
    """Cross-process stability in miniature: a program that travels
    through pickle (what the store does) keeps the id a fresh compile
    in 'another process' would compute."""
    cls = WORKLOADS["BFS"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        program = compile_source(cls.source, module_name=cls.name)
    _execute(cls, program, "compiled")  # loading assigns the globals' addresses
    frozen = pickle.dumps(program, pickle.HIGHEST_PROTOCOL)
    _execute(cls, program, "vector")
    # Generated code and routing verdicts are derived state: a program
    # that ran pickles to the same bytes, and a clone starts cold.
    assert program.vector_code.scalar and program.jit_code
    assert pickle.dumps(program, pickle.HIGHEST_PROTOCOL) == frozen
    clone = pickle.loads(frozen)
    assert clone.program_id == program.program_id
    assert clone.jit_code == {} and clone.vector_code is None


class TestProgramIdCollisions:
    """The satellite regression: program ids must never alias the
    ``(program_id, kernel_name)`` JIT entries."""

    SOURCE_A = """
class Body {
public:
    int* data;
    void operator()(int i) { data[i] = data[i] + 1; }
};
"""
    SOURCE_B = """
class Body {
public:
    int* data;
    void operator()(int i) { data[i] = data[i] + 2; }
};
"""

    def test_different_programs_different_ids(self):
        """Same class name, same kernel name, different bodies — under
        the old per-process counter two processes could assign these the
        same id; the content hash cannot."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = compile_source(self.SOURCE_A)
            b = compile_source(self.SOURCE_B)
        assert a.program_id != b.program_id
        assert set(a.kernels) == set(b.kernels)  # identical kernel names

    def test_config_changes_the_id(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            plain = compile_source(self.SOURCE_A, OptConfig.gpu())
            opt = compile_source(self.SOURCE_A, OptConfig.gpu_all())
        assert plain.program_id != opt.program_id

    def test_anonymous_programs_never_alias(self):
        """Direct constructions that bypass ``closure_stage`` (tests,
        hand-built programs) fall back to process-unique ``anon:`` ids."""
        first = CompiledProgram(
            module=None, sema=None, kernels={},
            config=OptConfig.gpu_all(), source="",
        )
        second = CompiledProgram(
            module=None, sema=None, kernels={},
            config=OptConfig.gpu_all(), source="",
        )
        assert first.program_id != second.program_id
        assert first.program_id.startswith("anon:")


class TestStageHashing:
    """The hashing rules ``docs/SERVICE.md`` documents."""

    def test_canonical_source_normalizes_line_endings(self):
        assert canonical_source("a\r\nb\rc\n") == "a\nb\nc\n"
        assert frontend_key("class A {};\r\n") == frontend_key("class A {};\n")

    def test_frontend_key_covers_module_name(self):
        assert frontend_key("class A {};", "m1") != frontend_key("class A {};", "m2")

    def test_pipeline_key_covers_config(self):
        fkey = frontend_key("class A {};")
        keys = {
            pipeline_key(fkey, config)
            for config in (
                OptConfig.gpu(), OptConfig.gpu_ptropt(),
                OptConfig.gpu_l3opt(), OptConfig.gpu_all(),
            )
        }
        assert len(keys) == 4
        # Equal configs (fresh instances) hash equally.
        assert pipeline_key(fkey, OptConfig.gpu_all()) == pipeline_key(
            fkey, OptConfig.gpu_all()
        )

    def test_keys_are_hex_digests(self):
        fkey = frontend_key("class A {};")
        pkey = pipeline_key(fkey, OptConfig.gpu_all())
        ckey = program_key(pkey)
        for key in (fkey, pkey, ckey):
            assert len(key) == 64
            assert set(key) <= set("0123456789abcdef")
        assert len({fkey, pkey, ckey}) == 3  # stages never collide

    def test_cache_key_distinguishes_configs(self):
        labels = {
            config.cache_key()
            for config in (
                OptConfig.gpu(), OptConfig.gpu_ptropt(),
                OptConfig.gpu_l3opt(), OptConfig.gpu_all(),
                OptConfig.gpu_all().without_pass("licm"),
            )
        }
        assert len(labels) == 5
        assert OptConfig.gpu_all().cache_key() == OptConfig.gpu_all().cache_key()
