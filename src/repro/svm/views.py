"""Typed Python views over objects in the shared region.

The paper's host code is C++: it builds trees/graphs of objects with
ordinary ``new`` (redirected into the shared region) and field writes.  Our
host code is Python, so these views provide the same capability — allocate
a struct or array in SVM, then read and write fields by name with the exact
layout the compiler computed for the device code.

``StructView`` and ``ArrayView`` are deliberately thin: attribute access
maps straight to typed loads/stores at ``base + field.offset``.  Pointer
fields accept either a raw CPU address (int) or another view.
"""

from __future__ import annotations

import struct
from itertools import islice
from typing import Iterator, Optional, Union

from ..ir.types import (
    ArrayType,
    FloatType,
    IntType,
    PointerType,
    StructType,
    Type,
)
from .allocator import SharedAllocator
from .memory import _SCALAR_FORMATS, MemoryFault
from .region import SharedRegion

Addressable = Union[int, "StructView", "ArrayView"]


def address_of(value: Addressable) -> int:
    if isinstance(value, (StructView, ArrayView)):
        return value.addr
    if value is None:
        return 0
    return int(value)


class StructView:
    """A window onto one struct instance in shared memory."""

    __slots__ = ("_region", "_type", "addr")

    def __init__(self, region: SharedRegion, struct_type: StructType, addr: int):
        object.__setattr__(self, "_region", region)
        object.__setattr__(self, "_type", struct_type)
        object.__setattr__(self, "addr", addr)

    @property
    def struct_type(self) -> StructType:
        return self._type

    def field_address(self, name: str) -> int:
        offset, _ = _find_field_recursive(self._type, name)
        return self.addr + offset

    def __getattr__(self, name: str):
        try:
            offset, ftype = _find_field_recursive(self._type, name)
        except KeyError as exc:
            raise AttributeError(str(exc)) from exc
        return read_typed(self._region, self.addr + offset, ftype)

    def __setattr__(self, name: str, value) -> None:
        if name in StructView.__slots__:
            object.__setattr__(self, name, value)
            return
        offset, ftype = _find_field_recursive(self._type, name)
        write_typed(self._region, self.addr + offset, ftype, value)

    def view(self, name: str):
        """A sub-view of an embedded struct/array field (no indirection)."""
        offset, ftype = _find_field_recursive(self._type, name)
        return make_view(self._region, ftype, self.addr + offset)

    def deref(self, name: str):
        """Follow a pointer field, returning a view of the pointee."""
        offset, ftype = _find_field_recursive(self._type, name)
        if not isinstance(ftype, PointerType):
            raise TypeError(f"{name} is not a pointer field")
        target = read_typed(self._region, self.addr + offset, ftype)
        if target == 0:
            return None
        return make_view(self._region, ftype.pointee, target)

    def __repr__(self) -> str:
        return f"StructView({self._type.name} @ {self.addr:#x})"


class ArrayView:
    """A window onto a contiguous array of elements in shared memory."""

    __slots__ = ("_region", "element", "addr", "count")

    def __init__(self, region: SharedRegion, element: Type, addr: int, count: int):
        self._region = region
        self.element = element
        self.addr = addr
        self.count = count

    def element_address(self, index: int) -> int:
        self._check(index)
        return self.addr + index * self.element.size()

    def _check(self, index: int) -> None:
        if not 0 <= index < self.count:
            raise IndexError(f"index {index} out of range [0, {self.count})")

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: int):
        self._check(index)
        offset = self.addr + index * self.element.size()
        if isinstance(self.element, StructType):
            return StructView(self._region, self.element, offset)
        return read_typed(self._region, offset, self.element)

    def __setitem__(self, index: int, value) -> None:
        self._check(index)
        offset = self.addr + index * self.element.size()
        write_typed(self._region, offset, self.element, value)

    def __iter__(self) -> Iterator:
        return (self[i] for i in range(self.count))

    def fill_from(self, values) -> None:
        """Elements 0, 1, ... = ``values``: a scalar array in one ``struct``
        pack.  Whatever fails there — a value past f32, one too many, an
        array past the region — goes element by element, so the same
        exception comes with the same prefix written."""
        bulk = _bulk_format(self.element)
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
        bulk = _bulk_format(self.element)
        if bulk is not None:
            size = self.element.size()
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


def _bulk_format(element: Type) -> Optional[str]:
    """The ``struct`` code ``read_typed`` / ``write_typed`` move an
    ``element`` with, or ``None`` for an aggregate."""
    if isinstance(element, IntType):
        return _SCALAR_FORMATS.get(("int", element.size(), element.signed))
    if isinstance(element, FloatType):
        return _SCALAR_FORMATS.get(("float", element.size(), True))
    if isinstance(element, PointerType):
        return _SCALAR_FORMATS.get(("int", element.size(), False))
    return None


def _pack(code: str, element: Type, items: list) -> bytes:
    """``items`` as ``write_typed`` converts them — ``int()`` wrapped to the
    width, ``float()``, ``address_of`` masked — in one ``struct`` pack."""
    fmt = f"<{len(items)}{code}"
    if isinstance(element, FloatType):
        return struct.pack(fmt, *map(float, items))
    values = list(map(address_of if isinstance(element, PointerType) else int, items))
    try:
        return struct.pack(fmt, *values)
    except struct.error:  # past the width: wrap as write_int does
        bits = 8 * element.size()
        mask = (1 << bits) - 1
        if code.isupper():
            return struct.pack(fmt, *[value & mask for value in values])
        half = 1 << (bits - 1)
        return struct.pack(fmt, *[((value + half) & mask) - half for value in values])


def _find_field_recursive(struct: StructType, name: str) -> tuple[int, Type]:
    """(offset, type) of ``name``, searching embedded base subobjects
    (fields named ``__base_*``) so views of derived-class instances can
    touch inherited fields and the vtable pointer."""
    if struct.has_field(name):
        field = struct.field_named(name)
        return field.offset, field.type
    for field in struct.fields:
        if field.name.startswith("__base_") and isinstance(field.type, StructType):
            try:
                inner_offset, inner_type = _find_field_recursive(field.type, name)
            except KeyError:
                continue
            return field.offset + inner_offset, inner_type
    raise KeyError(f"struct {struct.name} has no field {name!r}")


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
    if isinstance(type_, IntType):
        return region.read_int(addr, type_.size(), type_.signed)
    if isinstance(type_, FloatType):
        return region.read_float(addr, type_.size())
    if isinstance(type_, PointerType):
        return region.read_int(addr, type_.size(), signed=False)
    raise TypeError(f"cannot read aggregate type {type_} as a scalar")


def write_typed(region: SharedRegion, addr: int, type_: Type, value) -> None:
    if isinstance(type_, IntType):
        region.write_int(addr, type_.size(), int(value), type_.signed)
    elif isinstance(type_, FloatType):
        region.write_float(addr, type_.size(), float(value))
    elif isinstance(type_, PointerType):
        region.write_int(addr, type_.size(), address_of(value), signed=False)
    else:
        raise TypeError(f"cannot write aggregate type {type_} as a scalar")


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
