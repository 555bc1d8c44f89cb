"""Typed Python views over objects in the shared region.

The paper's host code is C++: it builds trees/graphs of objects with
ordinary ``new`` (redirected into the shared region) and field writes.  Our
host code is Python, so these views provide the same capability — allocate
a struct or array in SVM, then read and write fields by name with the exact
layout the compiler computed for the device code.

``StructView`` and ``ArrayView`` are deliberately thin: a field or a
scalar element is one bounds check and one ``struct`` pack or unpack at
``base + offset``, with the offset and codec from the struct type's field
table (:meth:`~repro.ir.types.StructType.field_table`).  Pointer fields
accept either a raw CPU address (int) or another view.
"""

from __future__ import annotations

import struct
from itertools import islice
from typing import Iterator, Optional, Union

from ..ir.types import (
    ArrayType,
    FieldSlot,
    FloatType,
    IntType,
    PointerType,
    StructType,
    Type,
    scalar_codec,
    scalar_format,
)
from .allocator import SharedAllocator
from .memory import MemoryFault
from .region import SharedRegion

Addressable = Union[int, "StructView", "ArrayView"]


def address_of(value: Addressable) -> int:
    if isinstance(value, (StructView, ArrayView)):
        return value.addr
    if value is None:
        return 0
    return int(value)


#: What a stored value goes through first, by the class of its type.
_CONVERT = {IntType: int, FloatType: float, PointerType: address_of}


def _load(region: SharedRegion, addr: int, type_: Type, codec: Optional[struct.Struct]):
    """The scalar at ``addr``: one bounds check and one unpack with the
    ``codec`` of ``type_`` (``None``: an aggregate, refused)."""
    if codec is None:
        raise TypeError(f"cannot read aggregate type {type_} as a scalar")
    return codec.unpack_from(region.physical.data, region.cpu_to_physical(addr, codec.size))[0]


def _store(region: SharedRegion, addr: int, type_: Type, codec: Optional[struct.Struct], value) -> None:
    """``value`` converted as its type says — ``int()``, ``float()``,
    ``address_of`` — then one bounds check and one pack; an int past the
    width is wrapped to it."""
    if codec is None:
        raise TypeError(f"cannot write aggregate type {type_} as a scalar")
    value = _CONVERT[type_.__class__](value)
    offset = region.cpu_to_physical(addr, codec.size)
    try:
        codec.pack_into(region.physical.data, offset, value)
    except struct.error:  # f32 overflow is an OverflowError and stays one
        codec.pack_into(region.physical.data, offset, *_wrapped(codec.format[-1], [value]))


def _wrapped(code: str, values: list) -> list:
    """Ints wrapped to the width and sign of the ``struct`` ``code``."""
    bits = 8 * struct.calcsize(code)
    mask = (1 << bits) - 1
    if code.isupper():
        return [value & mask for value in values]
    half = 1 << (bits - 1)
    return [((value + half) & mask) - half for value in values]


def _no_field(struct_type: StructType, name: str) -> KeyError:
    return KeyError(f"struct {struct_type.name} has no field {name!r}")


class StructView:
    """A window onto one struct instance in shared memory."""

    __slots__ = ("_region", "_type", "_fields", "addr")

    def __init__(self, region: SharedRegion, struct_type: StructType, addr: int):
        object.__setattr__(self, "_region", region)
        object.__setattr__(self, "_type", struct_type)
        object.__setattr__(self, "_fields", struct_type.field_table())
        object.__setattr__(self, "addr", addr)

    @property
    def struct_type(self) -> StructType:
        return self._type

    def _slot(self, name: str) -> FieldSlot:
        try:
            return self._fields[name]
        except KeyError:
            raise _no_field(self._type, name) from None

    def field_address(self, name: str) -> int:
        return self.addr + self._slot(name).offset

    def __getattr__(self, name: str):
        try:
            offset, type_, codec, _items = self._fields[name]
        except KeyError:
            raise AttributeError(str(_no_field(self._type, name))) from None
        return _load(self._region, self.addr + offset, type_, codec)

    def __setattr__(self, name: str, value) -> None:
        if name in _VIEW_SLOTS:
            object.__setattr__(self, name, value)
            return
        offset, type_, codec, _items = self._slot(name)
        _store(self._region, self.addr + offset, type_, codec, value)

    def set_item(self, name: str, index: int, value) -> None:
        """``self.view(name)[index] = value`` for an embedded array field,
        without building the array's view."""
        offset, type_, _codec, items = self._slot(name)
        if items is None:
            self.view(name)[index] = value  # not an array of scalars
            return
        if not 0 <= index < type_.count:
            raise IndexError(f"index {index} out of range [0, {type_.count})")
        _store(self._region, self.addr + offset + index * items.size, type_.element, items, value)

    def view(self, name: str):
        """A sub-view of an embedded struct/array field (no indirection)."""
        slot = self._slot(name)
        return make_view(self._region, slot.type, self.addr + slot.offset)

    def deref(self, name: str):
        """Follow a pointer field, returning a view of the pointee."""
        offset, type_, codec, _items = self._slot(name)
        if not isinstance(type_, PointerType):
            raise TypeError(f"{name} is not a pointer field")
        target = _load(self._region, self.addr + offset, type_, codec)
        if target == 0:
            return None
        return make_view(self._region, type_.pointee, target)

    def __repr__(self) -> str:
        return f"StructView({self._type.name} @ {self.addr:#x})"


_VIEW_SLOTS = frozenset(StructView.__slots__)


class ArrayView:
    """A window onto a contiguous array of elements in shared memory."""

    __slots__ = ("_region", "element", "addr", "count", "_stride", "_codec")

    def __init__(self, region: SharedRegion, element: Type, addr: int, count: int):
        self._region = region
        self.element = element
        self.addr = addr
        self.count = count
        self._stride = element.size()
        self._codec = scalar_codec(element)

    def element_address(self, index: int) -> int:
        self._check(index)
        return self.addr + index * self._stride

    def _check(self, index: int) -> None:
        if not 0 <= index < self.count:
            raise IndexError(f"index {index} out of range [0, {self.count})")

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: int):
        self._check(index)
        addr = self.addr + index * self._stride
        if isinstance(self.element, StructType):
            return StructView(self._region, self.element, addr)
        return _load(self._region, addr, self.element, self._codec)

    def __setitem__(self, index: int, value) -> None:
        self._check(index)
        _store(self._region, self.addr + index * self._stride, self.element, self._codec, value)

    def __iter__(self) -> Iterator:
        return (self[i] for i in range(self.count))

    def fill_from(self, values) -> None:
        """Elements 0, 1, ... = ``values``: a scalar array in one ``struct``
        pack.  Whatever fails there — a value past f32, one too many, an
        array past the region — goes element by element, so the same
        exception comes with the same prefix written."""
        bulk = scalar_format(self.element)
        if bulk is None:
            self._fill_each(values)
            return
        items: list = []
        try:
            items.extend(islice(values, self.count + 1))
        except BaseException:
            self._fill_each(items)  # the values the source gave before it raised
            raise
        if len(items) <= self.count:
            try:
                self._region.write_bytes(self.addr, _pack(bulk, self.element, items))
                return
            except Exception:
                pass  # raised again below, after the same prefix
        self._fill_each(items)

    def _fill_each(self, values) -> None:
        for index, value in enumerate(values):
            self[index] = value

    def to_list(self) -> list:
        """Every element; a scalar array in one ``struct`` unpack."""
        bulk = scalar_format(self.element)
        if bulk is not None:
            size = self._stride
            region = self._region
            try:
                offset = region.cpu_to_physical(self.addr, self.count * size)
            except MemoryFault:
                pass  # element by element: the fault names the first element past the end
            else:
                return list(struct.unpack_from(f"<{self.count}{bulk}", region.physical.data, offset))
        return [self[i] for i in range(self.count)]

    def __repr__(self) -> str:
        return f"ArrayView({self.count} x {self.element} @ {self.addr:#x})"


def _pack(code: str, element: Type, items: list) -> bytes:
    """``items`` as ``_store`` converts them — ``int()`` wrapped to the
    width, ``float()``, ``address_of`` masked — in one ``struct`` pack."""
    fmt = f"<{len(items)}{code}"
    values = list(map(_CONVERT[element.__class__], items))
    try:
        return struct.pack(fmt, *values)
    except struct.error:  # past the width: wrap as a single store does
        return struct.pack(fmt, *_wrapped(code, values))


def make_view(region: SharedRegion, type_: Type, addr: int):
    if isinstance(type_, StructType):
        return StructView(region, type_, addr)
    if isinstance(type_, ArrayType):
        return ArrayView(region, type_.element, addr, type_.count)
    return ScalarView(region, type_, addr)


class ScalarView:
    __slots__ = ("_region", "type", "addr")

    def __init__(self, region: SharedRegion, type_: Type, addr: int):
        self._region = region
        self.type = type_
        self.addr = addr

    @property
    def value(self):
        return read_typed(self._region, self.addr, self.type)

    @value.setter
    def value(self, new_value) -> None:
        write_typed(self._region, self.addr, self.type, new_value)


def read_typed(region: SharedRegion, addr: int, type_: Type):
    return _load(region, addr, type_, scalar_codec(type_))


def write_typed(region: SharedRegion, addr: int, type_: Type, value) -> None:
    _store(region, addr, type_, scalar_codec(type_), value)


class SvmHeap:
    """Allocator + view factory bundle the runtime hands to host code."""

    def __init__(self, region: SharedRegion, allocator: SharedAllocator):
        self.region = region
        self.allocator = allocator

    def new_struct(self, struct_type: StructType) -> StructView:
        addr = self.allocator.calloc(struct_type.size(), struct_type.align())
        return StructView(self.region, struct_type, addr)

    def new_array(self, element: Type, count: int) -> ArrayView:
        if count <= 0:
            raise ValueError("array count must be positive")
        addr = self.allocator.calloc(element.size() * count, element.align())
        return ArrayView(self.region, element, addr, count)

    def free(self, view: Addressable) -> None:
        self.allocator.free(address_of(view))
