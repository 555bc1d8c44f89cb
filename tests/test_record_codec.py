"""A host field access is one codec call, with the old chain's semantics.

``StructView`` and scalar ``ArrayView`` get/set go through each struct
type's field table (:meth:`~repro.ir.types.StructType.field_table`): one
bounds check and one ``struct`` pack or unpack.  The chain they replaced —
a recursive field search, ``read_typed`` / ``write_typed`` over the
region's typed accessors — is kept below as the oracle: the same bytes,
the same values and the same exception, type and text, for ints of every
width and sign past their range, an f32 past its range, pointers given as
ints, views and ``None``, inherited and shadowed fields, and addresses past
the region.  Last, the nine workloads build the same heap they built
before the codec.
"""

import pickle
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.fuzz.oracle import heap_digest
from repro.ir.types import (
    BOOL,
    F32,
    F64,
    I16,
    I32,
    I64,
    I8,
    U16,
    U32,
    U64,
    U8,
    ArrayType,
    FloatType,
    IntType,
    PointerType,
    StructType,
    ptr,
)
from repro.passes import OptConfig
from repro.runtime import ConcordRuntime
from repro.runtime.system import ultrabook
from repro.svm import ArrayView, SharedRegion, StructView, make_view
from repro.workloads import all_workloads

# -- the oracle: the chain the codec replaced ------------------------------------


def old_address_of(value) -> int:
    if isinstance(value, (StructView, ArrayView)):
        return value.addr
    if value is None:
        return 0
    return int(value)


def old_find_field(struct: StructType, name: str):
    if struct.has_field(name):
        field = struct.field_named(name)
        return field.offset, field.type
    for field in struct.fields:
        if field.name.startswith("__base_") and isinstance(field.type, StructType):
            try:
                inner_offset, inner_type = old_find_field(field.type, name)
            except KeyError:
                continue
            return field.offset + inner_offset, inner_type
    raise KeyError(f"struct {struct.name} has no field {name!r}")


def old_read_typed(region, addr, type_):
    if isinstance(type_, IntType):
        return region.read_int(addr, type_.size(), type_.signed)
    if isinstance(type_, FloatType):
        return region.read_float(addr, type_.size())
    if isinstance(type_, PointerType):
        return region.read_int(addr, type_.size(), signed=False)
    raise TypeError(f"cannot read aggregate type {type_} as a scalar")


def old_write_typed(region, addr, type_, value) -> None:
    if isinstance(type_, IntType):
        region.write_int(addr, type_.size(), int(value), type_.signed)
    elif isinstance(type_, FloatType):
        region.write_float(addr, type_.size(), float(value))
    elif isinstance(type_, PointerType):
        region.write_int(addr, type_.size(), old_address_of(value), signed=False)
    else:
        raise TypeError(f"cannot write aggregate type {type_} as a scalar")


def old_get(region, struct, addr, name):
    try:
        offset, type_ = old_find_field(struct, name)
    except KeyError as exc:
        raise AttributeError(str(exc)) from exc
    return old_read_typed(region, addr + offset, type_)


def old_set(region, struct, addr, name, value) -> None:
    offset, type_ = old_find_field(struct, name)
    old_write_typed(region, addr + offset, type_, value)


def old_element_set(region, element, addr, count, index, value) -> None:
    if not 0 <= index < count:
        raise IndexError(f"index {index} out of range [0, {count})")
    old_write_typed(region, addr + index * element.size(), element, value)


def old_element_get(region, element, addr, count, index):
    if not 0 <= index < count:
        raise IndexError(f"index {index} out of range [0, {count})")
    return old_read_typed(region, addr + index * element.size(), element)


# -- a class hierarchy with every kind of field ----------------------------------

SCALARS = (BOOL, I8, U8, I16, U16, I32, U32, I64, U64, F32, F64)


def _hierarchy() -> StructType:
    """``Derived`` embeds ``Left`` (which embeds ``Root``) and ``Right``.
    ``y`` lives in ``Root`` and ``Right``: depth first, ``Root``'s wins.
    ``shared`` lives everywhere: the direct field wins.  ``x`` lives in
    ``Left`` and ``Right``: the first base wins."""
    root = StructType("Root")
    root.finalize([("__vptr", ptr(I64)), ("y", I16), ("deep", I8), ("shared", F32)])
    left = StructType("Left")
    left.finalize([("__base_Root", root), ("x", I32), ("flag", BOOL), ("shared", U8)])
    right = StructType("Right")
    right.finalize([("y", F64), ("x", U64), ("shared", I64), ("w", U16)])
    derived = StructType("Derived")
    derived.finalize(
        [
            ("__base_Left", left),
            ("__base_Right", right),
            ("shared", U32),
            ("z", I64),
            ("next", ArrayType(ptr(I64), 4)),
            ("keys", ArrayType(I32, 3)),
            ("f", F32),
            ("d", F64),
            ("s8", I8),
            ("u16", U16),
            ("p", ptr(I32)),
            ("inner", right),
        ]
    )
    return derived


def _names(struct: StructType) -> set:
    """Every field name of ``struct`` and of the structs it embeds."""
    names = set()
    for field in struct.fields:
        names.add(field.name)
        if isinstance(field.type, StructType):
            names |= _names(field.type)
    return names


DERIVED = _hierarchy()
NAMES = sorted(_names(DERIVED) | {"missing", "__base_Missing"})
REGION_BYTES = 512


def _region(raw: bytes) -> SharedRegion:
    region = SharedRegion(REGION_BYTES)
    region.physical.data[:] = raw
    return region


def _outcome(call):
    """What ``call()`` returned or raised, comparable across the paths
    (``repr``: nan equals nan, -0.0 differs from 0.0)."""
    try:
        return "ok", repr(call())
    except Exception as exc:  # the exception is the result
        return type(exc).__name__, str(exc)


ints = st.integers(min_value=-(1 << 70), max_value=1 << 70)
boundaries = st.sampled_from(
    [0, 1, -1, 127, 128, 255, 256, -129, 32767, 65535, 65536, 2**31 - 1, 2**31,
     -(2**31) - 1, 2**32, 2**63 - 1, 2**63, 2**64, -(2**63) - 1, -(2**64)]
)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([3.4028235e38, 3.4028236e38, 3.5e38, -1e39, 1e308, 5e-324, -0.0]),
)
#: a view is given by kind, built over each path's own region
pointees = st.one_of(st.none(), st.tuples(st.sampled_from(["struct", "array"]), st.integers(0, 600)))
values = st.one_of(ints, boundaries, floats, st.booleans(), st.none(), pointees, st.just("12"), st.just("x"))
#: view addresses inside the region, astride its end and below its start
addresses = st.one_of(st.integers(0, REGION_BYTES - 1), st.integers(-64, REGION_BYTES + 64))


def _value(value, region):
    if isinstance(value, tuple):
        kind, offset = value
        addr = region.cpu_base + offset
        return StructView(region, DERIVED, addr) if kind == "struct" else ArrayView(region, I32, addr, 2)
    return value


operations = st.lists(
    st.tuples(st.sampled_from(["get", "set", "set_item", "address"]), st.sampled_from(NAMES),
              st.integers(-1, 4), values),
    min_size=1,
    max_size=8,
)


class TestFieldCodec:
    @settings(max_examples=300, deadline=None)
    @given(raw=st.binary(min_size=REGION_BYTES, max_size=REGION_BYTES), at=addresses, ops=operations)
    def test_struct_fields_equal_the_old_chain(self, raw, at, ops):
        old_region, new_region = _region(raw), _region(raw)
        addr = old_region.cpu_base + at
        view = StructView(new_region, DERIVED, addr)
        for op, name, index, value in ops:
            if op == "get":
                got = _outcome(lambda: getattr(view, name))
                expected = _outcome(lambda: old_get(old_region, DERIVED, addr, name))
            elif op == "set":
                got = _outcome(lambda: setattr(view, name, _value(value, new_region)))
                expected = _outcome(
                    lambda: old_set(old_region, DERIVED, addr, name, _value(value, old_region))
                )
            elif op == "set_item":
                got = _outcome(lambda: view.set_item(name, index, _value(value, new_region)))

                def old_item():
                    offset, type_ = old_find_field(DERIVED, name)
                    if not isinstance(type_, ArrayType):  # the same refusal
                        make_view(old_region, type_, addr + offset)[index] = value
                    old_element_set(old_region, type_.element, addr + offset, type_.count, index,
                                    _value(value, old_region))

                expected = _outcome(old_item)
            else:
                got = _outcome(lambda: view.field_address(name))
                expected = _outcome(lambda: addr + old_find_field(DERIVED, name)[0])
            assert got == expected, (op, name, index, value)
            assert bytes(new_region.physical.data) == bytes(old_region.physical.data)

    @settings(max_examples=300, deadline=None)
    @given(
        raw=st.binary(min_size=REGION_BYTES, max_size=REGION_BYTES),
        element=st.sampled_from(SCALARS + (ptr(I32),)),
        at=addresses,
        count=st.integers(1, 6),
        ops=st.lists(st.tuples(st.booleans(), st.integers(-2, 7), values), min_size=1, max_size=8),
    )
    def test_scalar_array_elements_equal_the_old_chain(self, raw, element, at, count, ops):
        old_region, new_region = _region(raw), _region(raw)
        addr = old_region.cpu_base + at
        array = ArrayView(new_region, element, addr, count)
        for store, index, value in ops:
            if store:
                got = _outcome(lambda: array.__setitem__(index, _value(value, new_region)))
                expected = _outcome(
                    lambda: old_element_set(old_region, element, addr, count, index,
                                            _value(value, old_region))
                )
            else:
                got = _outcome(lambda: array[index])
                expected = _outcome(lambda: old_element_get(old_region, element, addr, count, index))
            assert got == expected, (store, index, value)
            assert bytes(new_region.physical.data) == bytes(old_region.physical.data)

    def test_precedence_is_the_recursive_search(self):
        table = DERIVED.field_table()
        for name in NAMES:
            try:
                expected = old_find_field(DERIVED, name)
            except KeyError:
                assert name not in table
                continue
            assert (table[name].offset, table[name].type) == expected, name
        right = DERIVED.field_named("__base_Right").offset
        assert table["y"].type == I16  # Root's, through Left, before Right's
        assert table["x"].type == I32  # Left's, the first base
        assert table["shared"].type == U32  # the direct field
        assert table["w"].offset == right + DERIVED.field_named("__base_Right").type.field_named("w").offset

    def test_the_table_is_built_once_and_never_pickled(self):
        struct = StructType("Once")
        struct.finalize([("a", I32), ("b", F64)])
        before = pickle.dumps(struct)
        assert struct.field_table() is struct.field_table()
        assert pickle.dumps(struct) == before
        struct.finalize([("a", I64)])  # a new layout is a new table
        assert set(struct.field_table()) == {"a"} and struct.field_table()["a"].type == I64


# -- what the workloads build -----------------------------------------------------

#: ``heap_digest`` after ``build`` on an Ultrabook runtime, measured with the
#: recursive field search and ``write_typed`` chain the codec replaced.
HEAP_DIGESTS = {
    ("BarnesHut", 0.2): "41b20c4738de930778e03d92970d59c5ca8e4d59576bc93d97823f38eca57952",
    ("BarnesHut", 1.0): "f2fff198c2900a783a20f7e9c4752c880da61737a1df31c93d2ecbfe82af1afa",
    ("BFS", 0.2): "d039298d897f26fa0c96e5f54443332f941bf78975edb50e7e05d99e1c80e858",
    ("BFS", 1.0): "8875e39723cefbf887f26dd0139e6e6036be0759db60c13f2765cbab65b63eab",
    ("BTree", 0.2): "e01a0ef5795366ff79b3f7c034111cc0e0d1a335acdd3307b29b61d674f4227d",
    ("BTree", 1.0): "767e26668343f4c0053771179b3f303f9cb116d23d73b1fd559c7410bc60facc",
    ("ClothPhysics", 0.2): "14e76c842ab38970f44124a67d90f44dda2f2108f289a7af1600374bb1be788b",
    ("ClothPhysics", 1.0): "725850714613a1126ea4791f6d562d55e583ceeb5e8cfbdd8d66a245d2bc8af9",
    ("ConnectedComponent", 0.2): "b701eaa763c8f87694a19f111997b0e3b3295c4fe4ecfdb769a4c43014f1f357",
    ("ConnectedComponent", 1.0): "a6abc37202df651bdab9c9b963ee07b28522322d8562dae368908ec0e8ab037d",
    ("FaceDetect", 0.2): "b8adf98d48a840698841e2825d75c8eb65c4e96a007a695c9e09bf39b4e1ccc0",
    ("FaceDetect", 1.0): "059c09663191f54f13a17a1f49d377d4e1840e12115aedd2de27de3272719cdb",
    ("Raytracer", 0.2): "6f5f033921f6a3d64f63e9e5d779aea3327818da91bcf54c4f4ddfbe65a48132",
    ("Raytracer", 1.0): "7a6f38ec97a9b10fb65f8a5e08dbaf99c4bc23b845d31ac91fa3de0c6eba0102",
    ("SkipList", 0.2): "5f746b8dfea4ebb27bf92014fbc7538f7bb3c7b00f4a34e61e26dcaacade6a2d",
    ("SkipList", 1.0): "d17a0a5709bde0a79db159d78a63cce4516683faa3dbef7b10b62dc45984ff75",
    ("SSSP", 0.2): "56a8be57a01080d98585b2a61a01db5d7e9cc5f835be5f36f71e0b0a6f05633c",
    ("SSSP", 1.0): "c2712e0f90c7e4d8d2a1f3eacefc5632a2312af78fdffbd8f0d42981768c8f26",
}

@pytest.fixture(scope="module")
def programs() -> dict:
    return {}


@pytest.mark.parametrize("name, scale", sorted(HEAP_DIGESTS))
def test_a_build_writes_the_heap_it_wrote_before(programs, name, scale):
    cls = all_workloads()[name]
    if name not in programs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            programs[name] = cls.compile(OptConfig.gpu_all())
    program = programs[name]
    rt = ConcordRuntime(program, ultrabook(), region_size=cls.region_size)
    cls().build(rt, scale)
    assert heap_digest(rt) == HEAP_DIGESTS[name, scale]
