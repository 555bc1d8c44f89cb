"""Shared-heap allocator.

Concord redirects ``malloc``/``free`` to specialized routines that allocate
inside the shared region, so any heap object is GPU-visible by
construction.  We implement a first-fit free-list allocator with coalescing
over the shared region: simple, deterministic, and adequate for the
workloads' allocation patterns (bulk arrays plus many small nodes).
"""

from __future__ import annotations

from dataclasses import dataclass

from .region import SharedRegion

DEFAULT_ALIGN = 16


class OutOfSharedMemory(Exception):
    pass


@dataclass
class _FreeBlock:
    offset: int
    size: int


class SharedAllocator:
    """First-fit allocator with address-ordered free list + coalescing."""

    def __init__(self, region: SharedRegion, reserve: int = 0):
        self.region = region
        # ``reserve`` bytes at the region start are kept for the loader
        # (vtables, global symbols — paper section 3.2 moves those there).
        start = _align_up(reserve, DEFAULT_ALIGN)
        self._free: list[_FreeBlock] = [_FreeBlock(start, region.size - start)]
        self._live: dict[int, int] = {}  # cpu address -> size
        self.total_allocated = 0
        self.peak_usage = 0
        self._usage = 0

    def malloc(self, size: int, align: int = DEFAULT_ALIGN) -> int:
        """Allocate ``size`` bytes; returns the CPU virtual address."""
        if size <= 0:
            raise ValueError(f"malloc of non-positive size {size}")
        for index, block in enumerate(self._free):
            aligned = _align_up(self.region.cpu_base + block.offset, align)
            pad = aligned - (self.region.cpu_base + block.offset)
            if block.size < size + pad:
                continue
            offset = block.offset + pad
            remaining = block.size - size - pad
            if pad:
                block.size = pad  # leading pad stays free
                if remaining:
                    self._free.insert(
                        index + 1, _FreeBlock(offset + size, remaining)
                    )
            else:
                if remaining:
                    block.offset = offset + size
                    block.size = remaining
                else:
                    del self._free[index]
            address = self.region.cpu_base + offset
            self._live[address] = size
            self.total_allocated += size
            self._usage += size
            self.peak_usage = max(self.peak_usage, self._usage)
            return address
        raise OutOfSharedMemory(
            f"shared region exhausted allocating {size} bytes "
            f"(in use: {self._usage}/{self.region.size})"
        )

    def calloc(self, size: int, align: int = DEFAULT_ALIGN) -> int:
        address = self.malloc(size, align)
        self.region.write_bytes(address, b"\x00" * size)
        return address

    def free(self, address: int) -> None:
        size = self._live.pop(address, None)
        if size is None:
            raise ValueError(f"free of unallocated address {address:#x}")
        self._usage -= size
        offset = address - self.region.cpu_base
        self._insert_free(_FreeBlock(offset, size))

    @property
    def live_bytes(self) -> int:
        return self._usage

    def _insert_free(self, block: _FreeBlock) -> None:
        # Keep address order; coalesce with neighbours.
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid].offset < block.offset:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, block)
        # coalesce with next
        if lo + 1 < len(self._free):
            nxt = self._free[lo + 1]
            if block.offset + block.size == nxt.offset:
                block.size += nxt.size
                del self._free[lo + 1]
        # coalesce with previous
        if lo > 0:
            prev = self._free[lo - 1]
            if prev.offset + prev.size == block.offset:
                prev.size += block.size
                del self._free[lo]


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align


class DeviceBumpAllocator:
    """Device-side heap: the future-work extension the paper plans.

    Real GPU mallocs are atomic bump allocators over a pre-reserved slab;
    we model exactly that.  The bump cursor itself lives *in shared
    memory* (first 16 bytes of the slab), so allocations made by kernels
    are observable by the host and survive across launches.  ``free`` is
    deliberately a no-op: per-allocation free on a bump heap is deferred
    to slab reset, the standard discipline for device heaps.
    """

    CURSOR_BYTES = 16

    def __init__(self, region: SharedRegion, base: int, size: int):
        self.region = region
        self.base = base
        self.size = size
        region.write_int(base, 8, self.CURSOR_BYTES, signed=False)

    def _cursor(self) -> int:
        return self.region.read_int(self.base, 8, signed=False)

    def calloc(self, size: int, align: int = DEFAULT_ALIGN) -> int:
        # atomic fetch-and-add in the real implementation; the simulator
        # executes lanes sequentially so a read-modify-write suffices
        offset = _align_up(self._cursor(), align)
        if offset + size > self.size:
            raise OutOfSharedMemory(
                f"device heap exhausted allocating {size} bytes "
                f"({offset}/{self.size} used)"
            )
        self.region.write_int(self.base, 8, offset + size, signed=False)
        address = self.base + offset
        self.region.write_bytes(address, b"\x00" * size)
        return address

    def malloc(self, size: int, align: int = DEFAULT_ALIGN) -> int:
        return self.calloc(size, align)

    def free(self, address: int) -> None:
        """No-op: bump heaps reclaim by resetting the whole slab."""

    def reset(self) -> None:
        self.region.write_int(self.base, 8, self.CURSOR_BYTES, signed=False)

    @property
    def used_bytes(self) -> int:
        return self._cursor() - self.CURSOR_BYTES
