"""Trace containers.

A *trace* is the ordered sequence of load/store accesses reaching the LLC
(i.e. render-cache misses plus write-backs of displayable color), exactly
what the paper's offline cache simulator digests.  Traces are stored as
packed numpy arrays — a frame at the default reduced scale holds a few
hundred thousand accesses, so per-record Python objects would be far too
expensive.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from repro.errors import TraceError
from repro.streams import Stream


@dataclasses.dataclass(frozen=True)
class Access:
    """A single LLC access (used at API edges, not in hot loops)."""

    address: int
    stream: Stream
    is_write: bool = False

    @property
    def block_address(self) -> int:
        """Address of the containing 64 B cache block."""
        return self.address >> 6


class Trace:
    """An immutable, packed sequence of LLC accesses.

    Attributes
    ----------
    addresses:
        ``uint64`` byte addresses.
    streams:
        ``uint8`` values of :class:`repro.streams.Stream`.
    writes:
        ``bool`` store flags.
    meta:
        Free-form metadata (application name, frame id, scale, seed…).
    """

    __slots__ = ("addresses", "streams", "writes", "meta")

    def __init__(
        self,
        addresses: np.ndarray,
        streams: np.ndarray,
        writes: np.ndarray,
        meta: Optional[Mapping[str, object]] = None,
    ) -> None:
        addresses = np.ascontiguousarray(addresses, dtype=np.uint64)
        streams = np.ascontiguousarray(streams, dtype=np.uint8)
        writes = np.ascontiguousarray(writes, dtype=bool)
        if not (len(addresses) == len(streams) == len(writes)):
            raise TraceError(
                "trace arrays have mismatched lengths: "
                f"{len(addresses)}, {len(streams)}, {len(writes)}"
            )
        if len(streams) and streams.max(initial=0) >= len(Stream):
            raise TraceError("trace contains an out-of-range stream id")
        self.addresses = addresses
        self.streams = streams
        self.writes = writes
        self.meta = dict(meta or {})

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[Access]:
        for address, stream, write in zip(
            self.addresses.tolist(), self.streams.tolist(), self.writes.tolist()
        ):
            yield Access(address, Stream(stream), write)

    def __getitem__(self, index: int) -> Access:
        return Access(
            int(self.addresses[index]),
            Stream(int(self.streams[index])),
            bool(self.writes[index]),
        )

    def block_addresses(self, block_bytes: int = 64) -> np.ndarray:
        """Block-aligned addresses for a given block size."""
        shift = int(block_bytes).bit_length() - 1
        return self.addresses >> np.uint64(shift)

    def slice(self, start: int, stop: int) -> "Trace":
        """A contiguous sub-trace (shares memory with the parent)."""
        return Trace(
            self.addresses[start:stop],
            self.streams[start:stop],
            self.writes[start:stop],
            self.meta,
        )

    def concat(self, other: "Trace") -> "Trace":
        """The concatenation of two traces (metadata from ``self``)."""
        return Trace(
            np.concatenate([self.addresses, other.addresses]),
            np.concatenate([self.streams, other.streams]),
            np.concatenate([self.writes, other.writes]),
            self.meta,
        )

    def stream_mask(self, stream: Stream) -> np.ndarray:
        return self.streams == np.uint8(int(stream))

    def __repr__(self) -> str:
        name = self.meta.get("name", "anonymous")
        return f"Trace(name={name!r}, accesses={len(self)})"


class TraceBuilder:
    """Incrementally builds a :class:`Trace` with amortized growth."""

    _INITIAL_CAPACITY = 4096

    def __init__(self, meta: Optional[Mapping[str, object]] = None) -> None:
        self._capacity = self._INITIAL_CAPACITY
        self._length = 0
        self._addresses = np.empty(self._capacity, dtype=np.uint64)
        self._streams = np.empty(self._capacity, dtype=np.uint8)
        self._writes = np.empty(self._capacity, dtype=bool)
        self.meta = dict(meta or {})

    def __len__(self) -> int:
        return self._length

    def _grow(self, needed: int) -> None:
        while self._capacity < needed:
            self._capacity *= 2
        for name in ("_addresses", "_streams", "_writes"):
            old = getattr(self, name)
            new = np.empty(self._capacity, dtype=old.dtype)
            new[: self._length] = old[: self._length]
            setattr(self, name, new)

    def append(self, address: int, stream: Stream, is_write: bool = False) -> None:
        if self._length == self._capacity:
            self._grow(self._length + 1)
        self._addresses[self._length] = address
        self._streams[self._length] = int(stream)
        self._writes[self._length] = is_write
        self._length += 1

    def extend(
        self,
        addresses: Union[np.ndarray, Sequence[int]],
        stream: Stream,
        is_write: bool = False,
        write_positions: Sequence[int] = (),
    ) -> None:
        """Append a batch of addresses sharing one stream and r/w flag.

        ``write_positions`` (indices into ``addresses``) marks entries
        as stores regardless of ``is_write`` — the render-cache front
        end's write-backs interleaved with its loads.
        """
        addresses = np.asarray(addresses, dtype=np.uint64)
        start = self._length
        end = start + len(addresses)
        if end > self._capacity:
            self._grow(end)
        self._addresses[start:end] = addresses
        self._streams[start:end] = int(stream)
        self._writes[start:end] = is_write
        if len(write_positions):
            self._writes[start:end][np.asarray(write_positions, dtype=np.intp)] = True
        self._length = end

    def build(self) -> Trace:
        return Trace(
            self._addresses[: self._length].copy(),
            self._streams[: self._length].copy(),
            self._writes[: self._length].copy(),
            self.meta,
        )
