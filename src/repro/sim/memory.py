"""Global (GDDR) memory, the allocator, and the constant bank.

Global memory is a flat byte-addressable space backed by a numpy
array, managed by a cudaMalloc-style bump allocator with 256-byte
alignment.  Word accesses are bounds-checked against live allocations
(an access outside every allocation, or a misaligned one, raises
:class:`~repro.sim.errors.MemoryViolation` -- the main source of the
paper's *Crash* outcomes when a fault corrupts an address register).
Cache-line fills deliberately bypass the bounds check, as real DRAM
bursts do.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.sim.errors import MemoryViolation

#: Lowest valid device address; accesses below catch null-pointer bugs.
BASE_ADDRESS = 0x1000

#: cudaMalloc-style allocation alignment.
ALLOC_ALIGN = 256

#: Device MMU page size.  Access faults are *page*-granular, as on
#: real GPUs (CUDA maps the heap with large pages): a fault-corrupted
#: pointer that stays inside a mapped page silently reads garbage or
#: scribbles (-> SDC material), only accesses beyond the mapped heap
#: raise the "illegal address" error that the classifier turns into a
#: Crash.  This is what keeps crashes rare relative to SDCs in the
#: paper's Fig. 1.
PAGE_SIZE = 2 * 1024 * 1024

#: Granularity of sparse DRAM snapshots (see
#: :meth:`GlobalMemory.snapshot`): only non-zero chunks are captured,
#: so a snapshot costs what the workload wrote, not the card's DRAM.
SNAPSHOT_CHUNK = 4096


class GlobalMemory:
    """The simulated off-chip GDDR DRAM with a bump allocator."""

    def __init__(self, size_bytes: int):
        self.size = size_bytes
        self.data = np.zeros(size_bytes, dtype=np.uint8)
        self._next = BASE_ADDRESS
        self._allocations: List[Tuple[int, int]] = []
        self._starts = np.zeros(0, dtype=np.int64)
        self._ends = np.zeros(0, dtype=np.int64)

    def malloc(self, nbytes: int) -> int:
        """Allocate ``nbytes`` of device memory; returns the device pointer."""
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        start = self._next
        end = start + nbytes
        if end > self.size:
            raise MemoryError(
                f"device out of memory: {nbytes} bytes requested, "
                f"{self.size - self._next} free")
        self._allocations.append((start, end))
        self._starts = np.array([a for a, _ in self._allocations],
                                dtype=np.int64)
        self._ends = np.array([e for _, e in self._allocations],
                              dtype=np.int64)
        self._next = (end + ALLOC_ALIGN - 1) // ALLOC_ALIGN * ALLOC_ALIGN
        return start

    def reset(self) -> None:
        """Free every allocation and zero the memory (new application)."""
        self.data[:] = 0
        self._next = BASE_ADDRESS
        self._allocations.clear()
        self._starts = np.zeros(0, dtype=np.int64)
        self._ends = np.zeros(0, dtype=np.int64)

    def mapped_end(self) -> int:
        """One past the last mapped heap address (page granular)."""
        if not self._allocations:
            return BASE_ADDRESS
        heap_end = self._allocations[-1][1]
        pages = (heap_end + PAGE_SIZE - 1) // PAGE_SIZE
        return min(pages * PAGE_SIZE, self.size)

    def check_access(self, addr: int, size: int = 4) -> None:
        """Validate one word access; raises :class:`MemoryViolation`.

        The access must be naturally aligned and land in a mapped heap
        page (see :data:`PAGE_SIZE`): the null page below
        :data:`BASE_ADDRESS` and anything past the mapped heap fault.
        """
        if addr % size:
            raise MemoryViolation("global", addr, "misaligned access")
        if addr < BASE_ADDRESS or addr + size > self.mapped_end():
            raise MemoryViolation("global", addr)

    def check_many(self, addrs: np.ndarray, size: int = 4) -> None:
        """Vectorised :meth:`check_access` over a warp's lane addresses."""
        misaligned = addrs % size != 0
        if misaligned.any():
            bad = int(addrs[np.argmax(misaligned)])
            raise MemoryViolation("global", bad, "misaligned access")
        bad_mask = (addrs < BASE_ADDRESS) | (addrs + size > self.mapped_end())
        if bad_mask.any():
            raise MemoryViolation("global", int(addrs[np.argmax(bad_mask)]))

    def read_word(self, addr: int) -> int:
        """Bounds-checked aligned 32-bit read (raw DRAM, no caches)."""
        self.check_access(addr)
        return int(self.data[addr:addr + 4].view("<u4")[0])

    def write_word(self, addr: int, value: int) -> None:
        """Bounds-checked aligned 32-bit write (raw DRAM, no caches)."""
        self.check_access(addr)
        self.data[addr:addr + 4].view("<u4")[0] = value & 0xFFFFFFFF

    def read_line(self, addr: int, nbytes: int) -> np.ndarray:
        """Unchecked line-granularity read for cache fills.

        Regions outside the DRAM read as zeros (the burst still
        "succeeds", as on hardware).
        """
        out = np.zeros(nbytes, dtype=np.uint8)
        if addr >= self.size or addr < 0:
            return out
        end = min(addr + nbytes, self.size)
        out[: end - addr] = self.data[addr:end]
        return out

    def write_line(self, addr: int, data: np.ndarray) -> None:
        """Unchecked line-granularity write for cache writebacks.

        Writebacks aimed outside the DRAM (possible when a fault flips
        tag bits) are silently dropped, losing the data -- the same
        net effect as the hardware scribbling on an unmapped region.
        """
        if addr < 0 or addr >= self.size:
            return
        end = min(addr + len(data), self.size)
        self.data[addr:end] = data[: end - addr]

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> dict:
        """Capture DRAM contents and allocator state, sparsely.

        Only the non-zero :data:`SNAPSHOT_CHUNK`-byte chunks are kept:
        ``chunks`` holds their indices in ascending order and ``data``
        their bytes as a ``[k, SNAPSHOT_CHUNK]`` array (a short final
        chunk is zero-padded).  The chunks are found by scanning all of
        DRAM, so every write counts -- including writebacks that a
        flipped tag sends past :meth:`mapped_end` -- and a chunk that
        was written and zeroed again is indistinguishable from one
        never written.
        """
        rows = self._rows()
        chunks = np.flatnonzero(rows.view(np.uint64).any(axis=1))
        data = rows[chunks]
        tail = self.data[rows.size:]
        if tail.any():
            chunks = np.append(chunks, len(rows))
            padded = np.zeros((1, SNAPSHOT_CHUNK), dtype=np.uint8)
            padded[0, :len(tail)] = tail
            data = np.concatenate([data, padded])
        return {"chunks": chunks, "data": data, "next": self._next,
                "allocations": [tuple(a) for a in self._allocations]}

    def restore(self, snap: dict) -> None:
        """Rebuild DRAM and allocator from a :meth:`snapshot` dict.

        DRAM is zeroed first: chunks absent from the snapshot were zero
        when it was taken.
        """
        self.data[:] = 0
        rows = self._rows()
        chunks, data = snap["chunks"], snap["data"]
        whole = chunks < len(rows)
        rows[chunks[whole]] = data[whole]
        if not whole.all():
            tail = self.data[rows.size:]
            tail[:] = data[-1, :len(tail)]
        self._next = snap["next"]
        self._allocations = [tuple(a) for a in snap["allocations"]]
        self._starts = np.array([a for a, _ in self._allocations],
                                dtype=np.int64)
        self._ends = np.array([e for _, e in self._allocations],
                              dtype=np.int64)

    def _rows(self) -> np.ndarray:
        """The whole chunks of DRAM as a ``[n, SNAPSHOT_CHUNK]`` view."""
        whole = self.size - self.size % SNAPSHOT_CHUNK
        return self.data[:whole].reshape(-1, SNAPSHOT_CHUNK)


class ConstantBank:
    """The constant memory bank; kernel parameters live at offset 0.

    Mirrors the ``c[0x0][...]`` parameter space of real SASS.  The bank
    is written by the kernel-launch machinery and read by ``LDC``.
    """

    SIZE = 64 * 1024

    def __init__(self):
        self.data = np.zeros(self.SIZE, dtype=np.uint8)

    def load_params(self, words: List[int]) -> None:
        """Install kernel parameters as consecutive 32-bit words."""
        self.data[:] = 0
        for i, word in enumerate(words):
            self.data[4 * i:4 * i + 4].view("<u4")[0] = word & 0xFFFFFFFF

    def read_word(self, offset: int) -> int:
        """Aligned 32-bit read; out-of-bank offsets raise a violation."""
        if offset % 4:
            raise MemoryViolation("constant", offset, "misaligned access")
        if not 0 <= offset <= self.SIZE - 4:
            raise MemoryViolation("constant", offset)
        return int(self.data[offset:offset + 4].view("<u4")[0])

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> dict:
        """Capture bank contents."""
        return {"data": self.data.copy()}

    def restore(self, snap: dict) -> None:
        """Rebuild bank contents from a :meth:`snapshot` dict."""
        self.data[:] = snap["data"]
