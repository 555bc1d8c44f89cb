"""Simulated physical memory.

One flat anonymous mapping stands in for the physical memory that an
integrated processor shares between CPU and GPU.  Like the region the
paper's runtime maps at startup (section 3.1), its pages are zero until
touched and the OS allocates them only on first write, so a 16 MiB
region costs what its program writes; they are unmapped when the
:class:`PhysicalMemory` is dropped.  Typed accessors read and write
scalars at *physical offsets*; the address-space logic (CPU virtual
addresses, GPU surface-relative addresses) lives in
:mod:`repro.svm.region`.
"""

from __future__ import annotations

import mmap
import struct


class MemoryFault(Exception):
    """Out-of-range or misaligned access in the simulated memory."""


class PhysicalMemory:
    """A fixed-size byte array with typed little-endian accessors.

    ``data`` is a private anonymous ``mmap``: zero-filled, its pages
    allocated on first write and returned to the OS when the object dies
    (no ``close()``), private to this process across a ``fork``.  It
    serves every reader the engines use as a ``bytearray`` would —
    ``struct`` codecs, same-length slice stores, writable
    ``np.frombuffer`` views and ``len`` — but never changes length.
    """

    def __init__(self, size: int):
        self.size = size
        self.data = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)

    def _check(self, offset: int, nbytes: int) -> None:
        if offset < 0 or offset + nbytes > self.size:
            raise MemoryFault(
                f"physical access [{offset}, {offset + nbytes}) outside "
                f"[0, {self.size})"
            )

    def read_int(self, offset: int, nbytes: int, signed: bool) -> int:
        self._check(offset, nbytes)
        return int.from_bytes(
            self.data[offset : offset + nbytes], "little", signed=signed
        )

    def write_int(self, offset: int, nbytes: int, value: int, signed: bool) -> None:
        self._check(offset, nbytes)
        mask = (1 << (nbytes * 8)) - 1
        value &= mask
        if signed and value >= 1 << (nbytes * 8 - 1):
            value -= 1 << (nbytes * 8)
        self.data[offset : offset + nbytes] = value.to_bytes(
            nbytes, "little", signed=signed
        )

    def read_float(self, offset: int, nbytes: int) -> float:
        self._check(offset, nbytes)
        fmt = "<f" if nbytes == 4 else "<d"
        return struct.unpack_from(fmt, self.data, offset)[0]

    def write_float(self, offset: int, nbytes: int, value: float) -> None:
        self._check(offset, nbytes)
        fmt = "<f" if nbytes == 4 else "<d"
        struct.pack_into(fmt, self.data, offset, value)

    def read_bytes(self, offset: int, nbytes: int) -> bytes:
        self._check(offset, nbytes)
        return bytes(self.data[offset : offset + nbytes])

    def write_bytes(self, offset: int, payload: bytes) -> None:
        self._check(offset, len(payload))
        self.data[offset : offset + len(payload)] = payload

    def fill(self, offset: int, nbytes: int, byte: int = 0) -> None:
        self._check(offset, nbytes)
        self.data[offset : offset + nbytes] = bytes([byte]) * nbytes
