"""The block memory used from C down to Mach.

Memory is a finite map from block identifiers to arrays of *symbolic
bytes*.  A symbolic byte is either a concrete byte, a fragment of a pointer
(pointers are opaque ``(block, offset)`` pairs that cannot be inspected a
byte at a time), or undefined.  This is CompCert's ``memval`` construction
and it is what lets the same memory serve languages in which pointer values
are still abstract.

Freed blocks stay in the map with a tombstone, realizing the paper's ``•``
marker: any access to a freed block goes wrong instead of silently aliasing
a reallocation.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import MemoryError_
from repro.memory.chunks import Chunk
from repro.memory.values import VFloat, VInt, VPtr, VUndef, Value


class Pointer:
    """Convenience alias used in signatures; a pointer is just a VPtr."""

    __slots__ = ()


class _ByteCell:
    """A concrete byte."""

    __slots__ = ("byte",)

    def __init__(self, byte: int) -> None:
        self.byte = byte & 0xFF


class _PtrFragment:
    """Byte ``index`` (0..3) of the pointer value ``ptr``."""

    __slots__ = ("ptr", "index")

    def __init__(self, ptr: VPtr, index: int) -> None:
        self.ptr = ptr
        self.index = index


_UNDEF_CELL = None  # undefined contents are represented by None

#: Byte cells are immutable, so all 256 of them are preallocated and
#: shared.  This turns every concrete store into table lookups instead of
#: per-byte object allocations — the dominant cost of the interpreter's
#: ``Pload``/``Pstore`` traffic through the block memory.
_BYTE_CELLS = tuple(_ByteCell(byte) for byte in range(256))


class _Block:
    __slots__ = ("size", "cells", "alive", "tag")

    def __init__(self, size: int, tag: str) -> None:
        self.size = size
        self.cells: list = [_UNDEF_CELL] * size
        self.alive = True
        self.tag = tag


class Memory:
    """A growable collection of disjoint memory blocks."""

    def __init__(self) -> None:
        self._blocks: dict[int, _Block] = {}
        self._next_block = 1
        # High-watermark of simultaneously live bytes, for diagnostics.
        self.live_bytes = 0
        self.peak_live_bytes = 0

    # -- allocation ---------------------------------------------------------

    def alloc(self, size: int, tag: str = "") -> VPtr:
        """Allocate a fresh block of ``size`` undefined bytes."""
        if size < 0:
            raise MemoryError_(f"allocation of negative size {size}")
        ident = self._next_block
        self._next_block += 1
        self._blocks[ident] = _Block(size, tag)
        self.live_bytes += size
        self.peak_live_bytes = max(self.peak_live_bytes, self.live_bytes)
        return VPtr(ident, 0)

    def alloc_globals(self, variables: Iterable) -> list[VPtr]:
        """Allocate one block per global variable, in order, holding its
        initial ``image``; returns the blocks' pointers in that order."""
        pointers = []
        for var in variables:
            ptr = self.alloc(var.size, tag=f"global {var.name}")
            self.store_bytes(ptr, var.image)
            pointers.append(ptr)
        return pointers

    def free(self, ptr: VPtr) -> None:
        """Free a whole block; the pointer must reference offset 0."""
        block = self._require_block(ptr.block, "free")
        if ptr.offset != 0:
            raise MemoryError_(f"free of interior pointer {ptr!r}")
        block.alive = False
        block.cells = []
        self.live_bytes -= block.size

    def blocks(self) -> Iterable[int]:
        return self._blocks.keys()

    # -- typed access -------------------------------------------------------

    def load(self, chunk: Chunk, ptr: VPtr) -> Value:
        """Load a value through ``chunk`` at ``ptr``.

        Loading bytes that are all concrete decodes an integer or a float;
        loading the four fragments of one pointer in order reconstructs the
        pointer; anything mixed or undefined loads :class:`VUndef` (and it
        is the *use* of that undef that subsequently goes wrong, exactly as
        in CompCert).
        """
        if not isinstance(ptr, VPtr):
            raise MemoryError_(f"load through non-pointer value {ptr!r}")
        return self.load_at(chunk, ptr.block, ptr.offset)

    def load_at(self, chunk: Chunk, block_id: int, offset: int) -> Value:
        """:meth:`load` for callers that already peeled the pointer apart.

        The decoded interpreters fuse ``load(base + displacement)`` into
        one call, skipping the intermediate ``VPtr`` allocation; ``offset``
        must already be in unsigned 32-bit representation.
        """
        block = self._blocks.get(block_id)
        if block is None or not block.alive:
            self._require_block(block_id, "load")  # raises with the details
        size = chunk.size
        if offset % chunk.alignment != 0:
            raise MemoryError_(
                f"misaligned load: offset {offset} for chunk {chunk.value}"
            )
        if offset + size > block.size:
            raise MemoryError_(
                f"load of {size} bytes at offset {offset} "
                f"overflows block of {block.size} bytes ({block.tag})"
            )
        cells = block.cells[offset : offset + size]
        try:
            # Fast path: all-concrete bytes.  Only _ByteCell has a ``byte``
            # attribute, so fragments and undef fall through via
            # AttributeError without a per-byte isinstance sweep.  Word
            # loads (the overwhelmingly common case) assemble the integer
            # directly, skipping the bytes object and decode dispatch.
            if chunk is Chunk.INT32:
                c0, c1, c2, c3 = cells
                return VInt(c0.byte | (c1.byte << 8) | (c2.byte << 16)
                            | (c3.byte << 24))
            raw = bytes([cell.byte for cell in cells])
        except AttributeError:
            if chunk is Chunk.INT32:
                c0 = cells[0]
                # A fragment group is written by a single store, so all
                # four cells normally share one VPtr object: check
                # identity first, equality as the semantic backstop.
                if type(c0) is _PtrFragment and c0.index == 0:
                    ptr = c0.ptr
                    c1, c2, c3 = cells[1], cells[2], cells[3]
                    if (type(c1) is _PtrFragment and c1.index == 1
                            and (c1.ptr is ptr or c1.ptr == ptr)
                            and type(c2) is _PtrFragment and c2.index == 2
                            and (c2.ptr is ptr or c2.ptr == ptr)
                            and type(c3) is _PtrFragment and c3.index == 3
                            and (c3.ptr is ptr or c3.ptr == ptr)):
                        return ptr
            return VUndef()
        if chunk.is_float:
            return VFloat(chunk.decode_float(raw))
        return VInt(chunk.decode_int(raw))

    def store(self, chunk: Chunk, ptr: VPtr, value: Value) -> None:
        """Store ``value`` through ``chunk`` at ``ptr``."""
        if not isinstance(ptr, VPtr):
            raise MemoryError_(f"store through non-pointer value {ptr!r}")
        self.store_at(chunk, ptr.block, ptr.offset, value)

    def store_at(self, chunk: Chunk, block_id: int, offset: int,
                 value: Value) -> None:
        """:meth:`store` for callers that already peeled the pointer apart.

        Like :meth:`load_at`, this lets the decoded interpreters fuse
        ``store(base + displacement, v)`` without building the address
        ``VPtr``; ``offset`` must be in unsigned 32-bit representation.
        The access checks run before the value is inspected, preserving
        the error order of :meth:`store`.
        """
        block = self._blocks.get(block_id)
        if block is None or not block.alive:
            self._require_block(block_id, "store")  # raises with the details
        size = chunk.size
        if offset % chunk.alignment != 0:
            raise MemoryError_(
                f"misaligned store: offset {offset} for chunk {chunk.value}"
            )
        if offset + size > block.size:
            raise MemoryError_(
                f"store of {size} bytes at offset {offset} "
                f"overflows block of {block.size} bytes ({block.tag})"
            )
        base = offset
        if isinstance(value, VPtr):
            if chunk is not Chunk.INT32:
                raise MemoryError_(f"pointer stored through non-word chunk {chunk}")
            new_cells: list = [_PtrFragment(value, index) for index in range(4)]
        elif isinstance(value, VInt):
            if chunk is Chunk.INT32:
                v = value.value
                new_cells = [_BYTE_CELLS[v & 0xFF], _BYTE_CELLS[(v >> 8) & 0xFF],
                             _BYTE_CELLS[(v >> 16) & 0xFF], _BYTE_CELLS[v >> 24]]
            elif chunk.is_float:
                raise MemoryError_("integer stored through float chunk")
            else:
                raw = chunk.encode_int(value.value)
                new_cells = [_BYTE_CELLS[byte] for byte in raw]
        elif isinstance(value, VFloat):
            if not chunk.is_float:
                raise MemoryError_("float stored through integer chunk")
            raw = chunk.encode_float(value.value)
            new_cells = [_BYTE_CELLS[byte] for byte in raw]
        elif isinstance(value, VUndef):
            new_cells = [_UNDEF_CELL] * chunk.size
        else:
            raise MemoryError_(f"cannot store value {value!r}")
        block.cells[base : base + size] = new_cells

    def load_bytes(self, ptr: VPtr, length: int) -> bytes:
        """Read ``length`` concrete bytes (goes wrong on undef / fragments)."""
        block = self._require_block(ptr.block, "load_bytes")
        self._check_range(block, ptr, length, "load_bytes")
        out = bytearray()
        for cell in block.cells[ptr.offset : ptr.offset + length]:
            if not isinstance(cell, _ByteCell):
                raise MemoryError_("load_bytes through undefined or pointer bytes")
            out.append(cell.byte)
        return bytes(out)

    def store_bytes(self, ptr: VPtr, data: bytes) -> None:
        """Write concrete bytes (used for global initializers)."""
        block = self._require_block(ptr.block, "store_bytes")
        self._check_range(block, ptr, len(data), "store_bytes")
        block.cells[ptr.offset : ptr.offset + len(data)] = [
            _BYTE_CELLS[byte] for byte in data
        ]

    # -- internals ----------------------------------------------------------

    def _require_block(self, block_id: int, what: str) -> _Block:
        block = self._blocks.get(block_id)
        if block is None:
            raise MemoryError_(f"{what} of unknown block b{block_id}")
        if not block.alive:
            raise MemoryError_(f"{what} of freed block b{block_id} ({block.tag})")
        return block

    @staticmethod
    def _check_range(block: _Block, ptr: VPtr, length: int, what: str) -> None:
        if ptr.offset + length > block.size:
            raise MemoryError_(
                f"{what} of {length} bytes at offset {ptr.offset} "
                f"overflows block of {block.size} bytes ({block.tag})"
            )

