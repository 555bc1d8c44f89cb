"""Unit tests for the software shared-virtual-memory subsystem."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.types import BOOL, F32, F64, I16, I32, I64, I8, U32, U64, U8, StructType, ptr
from repro.svm import (
    ArrayView,
    MemoryFault,
    OutOfSharedMemory,
    PhysicalMemory,
    SharedAllocator,
    SharedRegion,
    StructView,
    SvmHeap,
)


class TestPhysicalMemory:
    def test_int_roundtrip(self):
        mem = PhysicalMemory(64)
        mem.write_int(0, 4, -123, signed=True)
        assert mem.read_int(0, 4, signed=True) == -123
        mem.write_int(8, 8, 2**63 - 1, signed=False)
        assert mem.read_int(8, 8, signed=False) == 2**63 - 1

    def test_float_roundtrip(self):
        mem = PhysicalMemory(64)
        mem.write_float(0, 4, 3.25)
        assert mem.read_float(0, 4) == 3.25
        mem.write_float(8, 8, -1e300)
        assert mem.read_float(8, 8) == -1e300

    def test_out_of_range_faults(self):
        mem = PhysicalMemory(16)
        with pytest.raises(MemoryFault):
            mem.read_int(15, 4, signed=True)
        with pytest.raises(MemoryFault):
            mem.write_int(-1, 1, 0, signed=False)


class TestSharedRegion:
    def test_svm_const_definition(self):
        region = SharedRegion(1 << 16, cpu_base=0x1000, gpu_base=0x9000)
        assert region.svm_const == 0x8000
        assert region.cpu_to_gpu(0x1010) == 0x9010
        assert region.gpu_to_cpu(0x9010) == 0x1010

    def test_cpu_and_gpu_views_alias_same_bytes(self):
        region = SharedRegion(1 << 16)
        cpu_addr = region.cpu_base + 128
        region.write_int(cpu_addr, 4, 0xDEAD, signed=False)
        gpu_addr = region.cpu_to_gpu(cpu_addr)
        phys = region.gpu_to_physical(gpu_addr, 4)
        assert region.physical.read_int(phys, 4, signed=False) == 0xDEAD

    def test_untranslated_cpu_pointer_faults_on_gpu(self):
        """The load-bearing property: dereferencing a CPU virtual address
        on the GPU must fault, so the SVM translation pass is mandatory."""
        region = SharedRegion(1 << 16)
        cpu_addr = region.cpu_base + 64
        with pytest.raises(MemoryFault):
            region.gpu_to_physical(cpu_addr, 4)

    def test_gpu_surface_bounds(self):
        region = SharedRegion(1 << 16)
        with pytest.raises(MemoryFault):
            region.gpu_to_physical(region.gpu_base + (1 << 16), 1)
        # last valid byte
        assert region.gpu_to_physical(region.gpu_base + (1 << 16) - 1, 1) >= 0

    def test_surface_binding_table(self):
        region = SharedRegion(1 << 16, binding_table_index=3)
        assert region.surface.binding_table_index == 3
        assert region.surface.pinned


class TestSharedAllocator:
    def test_malloc_returns_cpu_addresses(self):
        region = SharedRegion(1 << 16)
        alloc = SharedAllocator(region)
        a = alloc.malloc(100)
        assert region.contains_cpu(a, 100)

    def test_alignment(self):
        region = SharedRegion(1 << 16)
        alloc = SharedAllocator(region)
        for request in (1, 3, 17, 100):
            addr = alloc.malloc(request, align=16)
            assert addr % 16 == 0

    def test_free_and_reuse(self):
        region = SharedRegion(1 << 16)
        alloc = SharedAllocator(region)
        a = alloc.malloc(256)
        alloc.free(a)
        b = alloc.malloc(256)
        assert b == a  # first fit reuses the hole

    def test_coalescing(self):
        region = SharedRegion(1 << 12)
        alloc = SharedAllocator(region)
        blocks = [alloc.malloc(512) for _ in range(4)]
        for block in blocks:
            alloc.free(block)
        # after coalescing a near-region-size block is allocatable again
        big = alloc.malloc(2048)
        assert region.contains_cpu(big, 2048)

    def test_exhaustion_raises(self):
        region = SharedRegion(1 << 12)
        alloc = SharedAllocator(region)
        with pytest.raises(OutOfSharedMemory):
            alloc.malloc(1 << 13)

    def test_double_free_raises(self):
        region = SharedRegion(1 << 12)
        alloc = SharedAllocator(region)
        a = alloc.malloc(64)
        alloc.free(a)
        with pytest.raises(ValueError):
            alloc.free(a)

    def test_usage_accounting(self):
        region = SharedRegion(1 << 14)
        alloc = SharedAllocator(region)
        a = alloc.malloc(100)
        b = alloc.malloc(200)
        assert alloc.live_bytes == 300
        alloc.free(a)
        assert alloc.live_bytes == 200
        assert alloc.peak_usage == 300
        alloc.free(b)
        assert alloc.live_bytes == 0


class TestViews:
    def _heap(self):
        region = SharedRegion(1 << 16)
        return SvmHeap(region, SharedAllocator(region))

    def test_struct_view_fields(self):
        heap = self._heap()
        node = StructType("Node")
        node.finalize([("next", ptr(node)), ("value", F32)])
        a = heap.new_struct(node)
        b = heap.new_struct(node)
        a.value = 1.5
        a.next = b
        assert a.value == 1.5
        assert a.next == b.addr
        linked = a.deref("next")
        assert isinstance(linked, StructView)
        assert linked.addr == b.addr

    def test_null_deref_returns_none(self):
        heap = self._heap()
        node = StructType("N2")
        node.finalize([("next", ptr(node))])
        a = heap.new_struct(node)
        assert a.deref("next") is None

    def test_unknown_field_raises(self):
        heap = self._heap()
        s = StructType("S1")
        s.finalize([("x", I32)])
        view = heap.new_struct(s)
        with pytest.raises(AttributeError):
            _ = view.nothere

    def test_array_view(self):
        heap = self._heap()
        arr = heap.new_array(I32, 10)
        arr.fill_from(range(10))
        assert arr.to_list() == list(range(10))
        arr[3] = -5
        assert arr[3] == -5
        with pytest.raises(IndexError):
            _ = arr[10]

    def test_array_of_structs(self):
        heap = self._heap()
        s = StructType("Pt")
        s.finalize([("x", F32), ("y", F32)])
        pts = heap.new_array(s, 4)
        pts[2].x = 7.0
        assert pts[2].x == 7.0
        assert pts.element_address(2) == pts.addr + 2 * s.size()

    def test_zero_initialized(self):
        heap = self._heap()
        s = StructType("Z")
        s.finalize([("a", I64), ("b", F32)])
        view = heap.new_struct(s)
        assert view.a == 0 and view.b == 0.0


# -- bulk array moves ------------------------------------------------------------

ELEMENTS = [BOOL, I8, U8, I16, I32, U32, I64, U64, F32, F64, ptr(I32)]
FLT_MAX = float.fromhex("0x1.fffffep+127")
INTS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, -1, 2**31, -(2**31) - 1, 2**63, 2**64 - 1, 2**64]),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([FLT_MAX, -FLT_MAX, 3.5e38, -1e39, 1e308]),
    st.integers(-(2**40), 2**40),
)
#: "view" stands for another array, whose address a pointer element takes
POINTERS = st.one_of(INTS, st.none(), st.just("view"))


class _SourceFailed(Exception):
    pass


def _source(values: list, shape: str):
    """``values`` as a list, a generator, or a generator that raises after them."""
    if shape == "list":
        return values
    if shape == "generator":
        return iter(values)

    def failing():
        yield from values
        raise _SourceFailed

    return failing()


@st.composite
def _fills(draw):
    element = draw(st.sampled_from(ELEMENTS))
    numbers = FLOATS if element in (F32, F64) else POINTERS if element is ELEMENTS[-1] else INTS
    count = draw(st.integers(1, 12))
    length = draw(st.integers(0, count + 2))  # up to two too many
    return {
        "element": element,
        "count": count,
        "values": draw(st.lists(numbers, min_size=length, max_size=length)),
        "shape": draw(st.sampled_from(["list", "generator", "failing"])),
        "past_the_region": draw(st.booleans()),  # the last element one past its end
    }


def _filled(case: dict, path: str):
    """The region's bytes after ``ArrayView.<path>`` over ``case``, what
    it raised, and the view."""
    region = SharedRegion(1 << 12)
    heap = SvmHeap(region, SharedAllocator(region))
    other = heap.new_array(I32, 4)
    element, count = case["element"], case["count"]
    slots = count - 1 if case["past_the_region"] else count
    array = ArrayView(region, element, region.cpu_base + region.size - slots * element.size(), count)
    values = [other if value == "view" else value for value in case["values"]]
    raised = None
    try:
        getattr(array, path)(_source(values, case["shape"]))
    except Exception as exc:  # compared by type and text
        raised = type(exc), str(exc)
    return bytes(region.physical.data), raised, array


def _listed(array) -> tuple:
    try:
        return array.to_list(), None
    except MemoryFault as exc:
        return None, str(exc)


class TestBulkArrayMoves:
    """``fill_from`` and ``to_list`` move a scalar array in one ``struct``
    call; the bytes, the result and any exception — with the prefix
    written before it — are the element-by-element path's: ints wrap to
    their width, an f32 past its range raises, pointers take an address,
    a generator is read at most one past the end, and one too many raises
    ``IndexError``."""

    @settings(max_examples=400, deadline=None)
    @given(case=_fills())
    def test_fill_from_equals_element_by_element(self, case):
        raw, raised, array = _filled(case, "fill_from")
        expected_raw, expected_raised, _ = _filled(case, "_fill_each")
        assert raised == expected_raised
        assert raw == expected_raw
        try:
            expected = [array[i] for i in range(array.count)], None
        except MemoryFault as exc:
            expected = None, str(exc)
        assert repr(_listed(array)) == repr(expected)  # nan == nan, -0.0 != 0.0

    def test_an_f32_past_its_range_raises_after_the_prefix(self):
        region = SharedRegion(1 << 12)
        array = SvmHeap(region, SharedAllocator(region)).new_array(F32, 4)
        with pytest.raises(OverflowError):
            array.fill_from([1.0, 2.0, 1e39, 4.0])
        assert array.to_list() == [1.0, 2.0, 0.0, 0.0]

    def test_an_endless_source_stops_one_past_the_end(self):
        region = SharedRegion(1 << 12)
        array = SvmHeap(region, SharedAllocator(region)).new_array(I8, 3)
        with pytest.raises(IndexError):
            array.fill_from(iter(range(250, 10**12)))
        assert array.to_list() == [-6, -5, -4]
