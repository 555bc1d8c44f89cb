"""Type system for the repro IR.

The IR is typed in the LLVM style: fixed-width integers (with an explicit
signedness hint used by the frontend and codegen), IEEE floats, opaque
pointers-to-pointee, fixed-size arrays, and named struct types with
precomputed layout (offset of every field).  Layout is computed with the
usual C rules (natural alignment, struct alignment = max member alignment,
tail padding) so that MiniC++ objects built from Python through ``repro.svm``
views and objects accessed from compiled kernels agree byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from struct import Struct
from typing import Iterable, NamedTuple, Optional

POINTER_SIZE = 8
POINTER_ALIGN = 8


class Type:
    """Base class for all IR types."""

    def size(self) -> int:
        raise NotImplementedError

    def align(self) -> int:
        raise NotImplementedError

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_integer(self) -> bool:
        return isinstance(self, IntType)

    @property
    def is_float(self) -> bool:
        return isinstance(self, FloatType)

    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    @property
    def is_struct(self) -> bool:
        return isinstance(self, StructType)

    @property
    def is_array(self) -> bool:
        return isinstance(self, ArrayType)

    @property
    def is_scalar(self) -> bool:
        return self.is_integer or self.is_float or self.is_pointer


@dataclass(frozen=True)
class VoidType(Type):
    def size(self) -> int:
        raise TypeError("void has no size")

    def align(self) -> int:
        raise TypeError("void has no alignment")

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class IntType(Type):
    """Fixed-width integer.  ``signed`` is a frontend hint (wrapping
    arithmetic is two's complement either way); comparisons and
    divisions come in explicitly signed/unsigned flavours at the
    instruction level, so the flag mostly matters for conversions and
    for printing."""

    bits: int
    signed: bool = True

    def size(self) -> int:
        return max(1, self.bits // 8)

    def align(self) -> int:
        return self.size()

    @property
    def min_value(self) -> int:
        return -(1 << (self.bits - 1)) if self.signed else 0

    @property
    def max_value(self) -> int:
        return (1 << (self.bits - 1)) - 1 if self.signed else (1 << self.bits) - 1

    def wrap(self, value: int) -> int:
        """Wrap an arbitrary Python int to this type's range."""
        mask = (1 << self.bits) - 1
        value &= mask
        if self.signed and value >= (1 << (self.bits - 1)):
            value -= 1 << self.bits
        return value

    def __str__(self) -> str:
        return f"{'i' if self.signed else 'u'}{self.bits}"


@dataclass(frozen=True)
class FloatType(Type):
    bits: int

    def size(self) -> int:
        return self.bits // 8

    def align(self) -> int:
        return self.size()

    def __str__(self) -> str:
        return f"f{self.bits}"


@dataclass(frozen=True)
class PointerType(Type):
    pointee: Type

    def size(self) -> int:
        return POINTER_SIZE

    def align(self) -> int:
        return POINTER_ALIGN

    def __str__(self) -> str:
        return f"{self.pointee}*"


@dataclass(frozen=True)
class ArrayType(Type):
    element: Type
    count: int

    def size(self) -> int:
        return self.element.size() * self.count

    def align(self) -> int:
        return self.element.align()

    def __str__(self) -> str:
        return f"[{self.count} x {self.element}]"


@dataclass
class Field:
    name: str
    type: Type
    offset: int = 0


@dataclass
class StructType(Type):
    """A named struct with explicit layout.

    Struct identity is by name (the frontend mangles template
    instantiations and namespaces into the name), which lets recursive
    types like linked-list nodes refer to themselves through
    ``PointerType(StructType(...))`` without infinite recursion: pointer
    equality/size never inspects the pointee layout.
    """

    name: str
    fields: list[Field] = field(default_factory=list)
    _size: int = 0
    _align: int = 1
    complete: bool = False

    def finalize(self, fields: Iterable[tuple[str, Type]]) -> None:
        """Assign field offsets with C layout rules and seal the type."""
        offset = 0
        max_align = 1
        laid_out: list[Field] = []
        for fname, ftype in fields:
            a = ftype.align()
            offset = _round_up(offset, a)
            laid_out.append(Field(fname, ftype, offset))
            offset += ftype.size()
            max_align = max(max_align, a)
        self.fields = laid_out
        self._align = max_align
        self._size = _round_up(max(offset, 1), max_align)
        self.complete = True
        self.__dict__.pop("_table", None)

    def size(self) -> int:
        if not self.complete:
            raise TypeError(f"size of incomplete struct {self.name}")
        return self._size

    def align(self) -> int:
        if not self.complete:
            raise TypeError(f"align of incomplete struct {self.name}")
        return self._align

    def field_named(self, name: str) -> Field:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(f"struct {self.name} has no field {name!r}")

    def has_field(self, name: str) -> bool:
        return any(f.name == name for f in self.fields)

    def field_table(self) -> dict:
        """Every field reachable by name, as name -> :class:`FieldSlot`,
        built once: the direct fields first, then the fields of each
        embedded base subobject (a ``__base_*`` field) in field order,
        depth first, so a view of a derived-class instance reaches
        inherited fields and the vtable pointer, and the first one found
        shadows the rest."""
        table = self.__dict__.get("_table")
        if table is None:
            table = {}
            for f in self.fields:
                table.setdefault(f.name, _slot(f.offset, f.type))
            for f in self.fields:
                if f.name.startswith("__base_") and isinstance(f.type, StructType):
                    for name, inner in f.type.field_table().items():
                        table.setdefault(name, inner._replace(offset=f.offset + inner.offset))
            self._table = table
        return table

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_table", None)  # derived from ``fields``: never pickled
        return state

    def __str__(self) -> str:
        return f"%{self.name}"

    def __hash__(self) -> int:  # identity by name
        return hash(("struct", self.name))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StructType) and other.name == self.name


@dataclass(frozen=True)
class FunctionType(Type):
    ret: Type
    params: tuple[Type, ...]

    def size(self) -> int:
        raise TypeError("function type has no size")

    def align(self) -> int:
        raise TypeError("function type has no alignment")

    def __str__(self) -> str:
        return f"{self.ret} ({', '.join(str(p) for p in self.params)})"


def _round_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align


#: Little-endian ``struct`` codecs by code: a signed int's code per size
#: (its unsigned code is the capital), then the floats'.
_INT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}
_FLOAT_CODES = {4: "f", 8: "d"}
_CODECS = {code: Struct("<" + code) for code in "bBhHiIqQfd"}


def scalar_format(type_: Type) -> Optional[str]:
    """The ``struct`` code a value of ``type_`` is stored with — an int
    of its width and sign, a float, a pointer as an unsigned int — or
    ``None`` for an aggregate."""
    if isinstance(type_, IntType):
        code = _INT_CODES.get(type_.size())
        return code if code is None or type_.signed else code.upper()
    if isinstance(type_, FloatType):
        return _FLOAT_CODES.get(type_.size())
    if isinstance(type_, PointerType):
        return _INT_CODES[POINTER_SIZE].upper()
    return None


def scalar_codec(type_: Type) -> Optional[Struct]:
    """The little-endian codec of :func:`scalar_format`, or ``None``."""
    code = scalar_format(type_)
    return None if code is None else _CODECS[code]


class FieldSlot(NamedTuple):
    """A field of :meth:`StructType.field_table`: its offset in the
    struct, its type, the codec of a scalar field, and the element codec
    of an embedded array of scalars (each ``None`` otherwise)."""

    offset: int
    type: Type
    codec: Optional[Struct]
    items: Optional[Struct]


def _slot(offset: int, type_: Type) -> FieldSlot:
    items = scalar_codec(type_.element) if isinstance(type_, ArrayType) else None
    return FieldSlot(offset, type_, scalar_codec(type_), items)


# Canonical shared instances --------------------------------------------------

VOID = VoidType()
BOOL = IntType(1, signed=False)
I8 = IntType(8)
U8 = IntType(8, signed=False)
I16 = IntType(16)
U16 = IntType(16, signed=False)
I32 = IntType(32)
U32 = IntType(32, signed=False)
I64 = IntType(64)
U64 = IntType(64, signed=False)
F32 = FloatType(32)
F64 = FloatType(64)
VOIDPTR = PointerType(I8)


def ptr(t: Type) -> PointerType:
    return PointerType(t)
