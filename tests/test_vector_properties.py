"""Property tests (hypothesis) for divergence-mask edge cases, and the
machine's memory path and limits.

Each named edge case drives the columnar vector engine through a mask
regime the region-tree printer has to get exactly right — empty index
spaces, single-lane chunks, uniformly-taken and fully-diverged branches,
a loop that only one lane keeps iterating, and a store that traps on
exactly one lane — and checks the result (region bytes, outputs, trap)
against ``CompiledEngine`` lane by lane.  Two kernels carry region
kinds the source fuzzer's programs lack — a ``Forward`` region (``&&`` /
``||`` in a loop condition) and a ``Continue`` — and must run columnar.  Four more
cases pin the machine itself: one load and one store whose lanes reach
private and shared memory at once, the engine's step limit, private rows
that hold what the lanes allocated, and a read below the bump base.
"""

import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.exec.vector import VectorMachine
from repro.ir.structure import Continue, Forward, structure
from repro.ir.types import I8, I16, I32, I64
from repro.obs import Observer
from repro.passes import OptConfig
from repro.runtime import ConcordRuntime, compile_source, ultrabook

from .test_engine_equivalence import _assert_trace_equal, _run as _run_workload

SLOW = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_BRANCH_SOURCE = """
class Branchy {
public:
  int* data;
  int threshold;
  void operator()(int i) {
    int x = data[i];
    if (x < threshold) {
      data[i] = x * 3 + 1;
    } else {
      data[i] = x - 7;
    }
  }
};
"""

_LOOP_SOURCE = """
class Loopy {
public:
  int* data;
  int* trip;
  void operator()(int i) {
    int acc = 0;
    for (int j = 0; j < trip[i]; j++) {
      acc = acc + j + data[i];
    }
    data[i] = acc;
  }
};
"""

_TRAP_SOURCE = """
class Trappy {
public:
  int* data;
  int* index;
  void operator()(int i) {
    data[index[i]] = data[i] + 1;
  }
};
"""


def _run(source, cls_name, fields, n, engine):
    """Run one construct; returns (region bytes, outputs-or-None, trap).

    ``fields`` maps attribute name -> list of ints (arrays) or int
    (scalars); the first array's handle is returned as the output array.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        prog = compile_source(source, OptConfig.gpu_all())
        rt = ConcordRuntime(prog, ultrabook(), engine=engine)
        body = rt.new(cls_name)
        out = None
        for attr, value in fields.items():
            if isinstance(value, list):
                arr = rt.new_array(I32, max(1, len(value)))
                arr.fill_from(value)
                setattr(body, attr, arr)
                if out is None:
                    out = arr
            else:
                setattr(body, attr, value)
        trap = None
        try:
            rt.parallel_for_hetero(n, body, on_cpu=False)
        except Exception as exc:  # noqa: BLE001 - trap equivalence check
            trap = f"{type(exc).__name__}: {exc}"
        outputs = out.to_list() if out is not None and trap is None else None
        return bytes(rt.region.physical.data), outputs, trap


def _assert_engines_agree(source, cls_name, fields, n):
    com = _run(source, cls_name, fields, n, "compiled")
    vec = _run(source, cls_name, fields, n, "vector")
    assert vec[2] == com[2], f"trap mismatch: {vec[2]!r} vs {com[2]!r}"
    assert vec[1] == com[1], "outputs diverged"
    assert vec[0] == com[0], "region bytes diverged"


class TestDivergenceMaskEdgeCases:
    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=8))
    @SLOW
    def test_empty_index_space(self, values):
        _assert_engines_agree(
            _BRANCH_SOURCE,
            "Branchy",
            {"data": values, "threshold": 0},
            n=0,
        )

    @given(st.integers(-100, 100), st.integers(-100, 100))
    @SLOW
    def test_single_lane_chunk(self, value, threshold):
        _assert_engines_agree(
            _BRANCH_SOURCE,
            "Branchy",
            {"data": [value], "threshold": threshold},
            n=1,
        )

    @given(st.lists(st.integers(-100, 100), min_size=2, max_size=32))
    @SLOW
    def test_all_lanes_taken(self, values):
        # threshold above every element: the branch is uniformly true and
        # the engine must take the unpartitioned fast path.
        _assert_engines_agree(
            _BRANCH_SOURCE,
            "Branchy",
            {"data": values, "threshold": max(values) + 1},
            n=len(values),
        )

    @given(st.lists(st.integers(-100, 100), min_size=2, max_size=32))
    @SLOW
    def test_all_lanes_diverged(self, values):
        # threshold at/below every element: uniformly false.
        _assert_engines_agree(
            _BRANCH_SOURCE,
            "Branchy",
            {"data": values, "threshold": min(values)},
            n=len(values),
        )

    @given(
        st.lists(st.integers(-5, 5), min_size=2, max_size=16),
        st.data(),
    )
    @SLOW
    def test_one_lane_iterates_1000x(self, values, data):
        # Every lane's loop drains after at most 3 trips except one that
        # keeps the frame alive for 1000 iterations — the mask must
        # stay correct long after every other lane retired.
        lane = data.draw(st.integers(0, len(values) - 1))
        trips = [abs(v) % 4 for v in values]
        trips[lane] = 1000
        _assert_engines_agree(
            _LOOP_SOURCE,
            "Loopy",
            {"data": values, "trip": trips},
            n=len(values),
        )

    @given(
        st.lists(st.integers(0, 50), min_size=2, max_size=16),
        st.data(),
    )
    @SLOW
    def test_store_traps_on_one_lane(self, values, data):
        # One lane's store lands far outside the shared surface; the
        # vector engine must report the same trap as the scalar engine
        # and leave the same region bytes behind (its rollback + scalar
        # re-run commits exactly the lanes the scalar engine commits).
        lane = data.draw(st.integers(0, len(values) - 1))
        indices = list(range(len(values)))
        indices[lane] = 1 << 26  # bytes offset 1<<28 > 16 MiB region
        _assert_engines_agree(
            _TRAP_SOURCE,
            "Trappy",
            {"data": values, "index": indices},
            n=len(values),
        )


# -- the machine: mixed private/shared lanes, the engine's step limit ---------

_MIXED_SOURCE = """
class Mixed {{
public:
  {t}* data;
  {t}* out;
  int* sel;
  void operator()(int i) {{
    {t} tmp[4];
    tmp[0] = i;
    tmp[1] = i + 1;
    tmp[2] = i + 2;
    tmp[3] = i + 3;
    {t}* p = sel[i] ? tmp : data + 4 * i;
    p[i & 3] = p[(i + 1) & 3] + 5;
    out[i] = p[i & 3] + p[(i + 2) & 3];
  }}
}};
"""

_MIXED_LANES = 16


def _compile(source):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return compile_source(source, OptConfig.gpu_all())


def _observed_launch(program, engine, fill, n, limit=None):
    """One GPU construct of ``program`` under an observer, every engine
    the runtime makes given step limit ``limit`` when one is set; returns
    (region bytes, per-lane traces, counters, the trap text or None).
    ``fill(rt)`` makes the body."""
    observer = Observer()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rt = ConcordRuntime(
            program, ultrabook(), engine=engine, keep_traces=True, observer=observer
        )
        if limit is not None:
            make_engine = rt._make_engine

            def limited(*args, **kwargs):
                made = make_engine(*args, **kwargs)
                made.max_steps = limit
                return made

            rt._make_engine = limited
        body = fill(rt)
        trap = None
        try:
            rt.parallel_for_hetero(n, body, on_cpu=False)
        except Exception as exc:  # noqa: BLE001 - trap equivalence check
            trap = f"{type(exc).__name__}: {exc}"
    return bytes(rt.region.physical.data), rt.trace_log, observer.counters.as_dict(), trap


def _engine_counters(counters) -> dict:
    return {
        key: value
        for key, value in counters.items()
        if key.startswith(("engine.", "mem_events."))
    }


@pytest.mark.parametrize(
    "private_lanes",
    [
        [lane & 1 for lane in range(_MIXED_LANES)],
        [1] * _MIXED_LANES,
        [int(lane == 3) for lane in range(_MIXED_LANES)],
    ],
    ids=["alternating", "all-private", "one-private"],
)
@pytest.mark.parametrize(
    "ctype, itype", [("char", I8), ("short", I16), ("int", I32), ("long", I64)]
)
def test_one_access_reaches_private_and_shared_lanes(ctype, itype, private_lanes):
    """``p`` is a lane's stack array on some lanes and its slice of a shared
    array on the others, so one load or store splits its lanes: the
    launch vectorizes and equals the scalar one byte for byte, event for
    event."""

    def fill(rt):
        body = rt.new("Mixed")
        data = rt.new_array(itype, 4 * _MIXED_LANES)
        data.fill_from([(7 * k) % 100 for k in range(4 * _MIXED_LANES)])
        body.data = data
        body.out = rt.new_array(itype, _MIXED_LANES)
        sel = rt.new_array(I32, _MIXED_LANES)
        sel.fill_from(private_lanes)
        body.sel = sel
        return body

    program = _compile(_MIXED_SOURCE.format(t=ctype))
    com = _observed_launch(program, "compiled", fill, _MIXED_LANES)
    vec = _observed_launch(program, "vector", fill, _MIXED_LANES)
    assert com[3] is None and vec[3] is None
    assert vec[2].get("vector.fallbacks", 0) == 0
    assert vec[2]["vector.lanes_retired"] == _MIXED_LANES
    assert vec[0] == com[0], "region bytes diverged"
    assert len(vec[1]) == len(com[1]) == _MIXED_LANES
    for lane, (ref, got) in enumerate(zip(com[1], vec[1])):
        _assert_trace_equal(ref, got, f"lane {lane}")
    assert _engine_counters(vec[2]) == _engine_counters(com[2])


# -- region kinds the source fuzzer's programs lack, each one run columnar ----

#: ``&&`` / ``||`` in a loop condition: ``Forward`` regions
_SHORT_CIRCUIT_SOURCE = """
class Body {
public:
  int* data;
  int* trip;
  void operator()(int i) {
    int acc = 0;
    int j = 0;
    while ((j < trip[i] && data[i] + j != 7) || j == 0) {
      acc = acc * 3 + j + data[i];
      j = j + 1;
    }
    data[i] = acc;
  }
};
"""

#: ``continue`` in a divergent ``if`` whose arm is not the loop body's end:
#: a ``Continue`` node
_CONTINUE_SOURCE = """
class Body {
public:
  int* data;
  int* trip;
  void operator()(int i) {
    int acc = 0;
    int j = 0;
    while (j < trip[i]) {
      j = j + 1;
      if ((data[i] + j) % 2 == 0) {
        if ((data[i] ^ j) % 3 == 0) {
          continue;
        }
        acc = acc + j;
      }
      acc = acc * 3 + data[i];
    }
    data[i] = acc;
  }
};
"""


def _region_kinds(stmts) -> set:
    found = set()
    for stmt in stmts:
        found.add(type(stmt))
        for attr in ("then", "orelse", "body"):
            found |= _region_kinds(getattr(stmt, attr, ()))
        for _block, arm in getattr(stmt, "members", ()):
            found |= _region_kinds(arm)
    return found


@pytest.mark.parametrize(
    "source, kind",
    [(_SHORT_CIRCUIT_SOURCE, Forward), (_CONTINUE_SOURCE, Continue)],
    ids=["forward", "continue"],
)
@given(
    values=st.lists(st.integers(-20, 20), min_size=1, max_size=24),
    trips=st.lists(st.integers(0, 12), min_size=24, max_size=24),
)
@SLOW
def test_a_region_kind_runs_columnar(source, kind, values, trips):
    """The kernel's tree has ``kind``, its launch runs columnar, and it
    equals the compiled engine's byte for byte and event for event."""
    program = _compile(source)
    assert kind in _region_kinds(structure(program.kernels["Body"].gpu_kernel))
    n = len(values)

    def fill(rt):
        body = rt.new("Body")
        data, trip = rt.new_array(I32, n), rt.new_array(I32, n)
        data.fill_from(values)
        trip.fill_from(trips[:n])
        body.data, body.trip = data, trip
        return body

    com = _observed_launch(program, "compiled", fill, n)
    vec = _observed_launch(program, "vector", fill, n)
    assert com[3] is None and vec[3] is None
    assert vec[2].get("vector.fallbacks", 0) == 0
    assert vec[2]["vector.lanes_retired"] == n
    assert vec[0] == com[0], "region bytes diverged"
    assert len(vec[1]) == len(com[1]) == n
    for lane, (ref, got) in enumerate(zip(com[1], vec[1])):
        _assert_trace_equal(ref, got, f"lane {lane}")
    assert _engine_counters(vec[2]) == _engine_counters(com[2])


_STEP_SOURCE = """
class LoopBody {
public:
  int* data;
  void operator()(int i) {
    int acc = 0;
    for (int j = 0; j < 200; j++) {
      acc = acc + j;
    }
    data[i] = acc;
  }
};
"""


def test_the_engines_step_limit_binds_the_vector_machine():
    """A step limit below one lane's loop stops both engines with the same
    error; the vector launch rolls back and reruns scalar once."""

    def fill(rt):
        body = rt.new("LoopBody")
        body.data = rt.new_array(I32, 64)
        return body

    program = _compile(_STEP_SOURCE)
    com = _observed_launch(program, "compiled", fill, 64, limit=100)
    vec = _observed_launch(program, "vector", fill, 64, limit=100)
    assert com[3] == "ExecutionError: step limit 100 exceeded in kernel.LoopBody.gpu"
    assert vec[3] == com[3]
    assert vec[0] == com[0], "region bytes diverged"
    assert vec[2]["vector.fallbacks"] == 1


def test_private_rows_hold_what_the_lanes_allocated(monkeypatch):
    """Raytracer's lanes allocate 176 bytes above the bump base; rows
    grown from offset 0 by doubling from 4 KiB held 8 KiB a lane."""
    blocks = []
    materialize = VectorMachine.materialize

    def recorded(machine, budget):
        if machine.priv is not None:
            blocks.append((machine.n, machine.priv.nbytes))
        return materialize(machine, budget)

    monkeypatch.setattr(VectorMachine, "materialize", recorded)
    _run_workload("Raytracer", "vector", on_cpu=False)
    assert blocks
    for n, nbytes in blocks:
        assert nbytes <= n * 512, (n, nbytes)


_BELOW_SOURCE = """
class Below {
public:
  int* data;
  int reach;
  void operator()(int i) {
    int tmp[4];
    tmp[i & 3] = i + 1;
    int* p = tmp;
    data[i] = tmp[i & 3] + p[(i & 3) - reach];
  }
};
"""


@pytest.mark.parametrize("reach, fallbacks", [(0, 0), (1000, 1)])
def test_a_private_read_below_the_bump_base_reruns_scalar(reach, fallbacks):
    """``tmp`` is the first alloca, at the bump base; ``reach`` ints below
    it is still in the private window, which the scalar engines read as
    zeros.  The vector machine's rows start at the base, so the read
    traps and the launch reruns scalar, equal to the compiled engine."""

    def fill(rt):
        body = rt.new("Below")
        body.data = rt.new_array(I32, 64)
        body.reach = reach
        return body

    program = _compile(_BELOW_SOURCE)
    com = _observed_launch(program, "compiled", fill, 64)
    vec = _observed_launch(program, "vector", fill, 64)
    assert com[3] is None and vec[3] is None
    assert vec[0] == com[0], "region bytes diverged"
    assert len(vec[1]) == len(com[1])
    for index, (ref, got) in enumerate(zip(com[1], vec[1])):
        _assert_trace_equal(ref, got, f"trace {index}")
    assert vec[2].get("vector.fallbacks", 0) == fallbacks
    assert _engine_counters(vec[2]) == _engine_counters(com[2])
