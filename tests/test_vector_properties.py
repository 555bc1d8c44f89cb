"""Property tests (hypothesis) for divergence-mask edge cases.

Each named edge case drives the columnar vector engine through a mask
regime the dense-frame scheduler has to get exactly right — empty index
spaces, single-lane chunks, uniformly-taken and fully-diverged branches,
a loop that only one lane keeps iterating, and a store that traps on
exactly one lane — and checks the result (region bytes, outputs, trap)
against ``CompiledEngine`` lane by lane.
"""

import warnings

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ir.types import I32
from repro.passes import OptConfig
from repro.runtime import ConcordRuntime, compile_source, ultrabook

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
