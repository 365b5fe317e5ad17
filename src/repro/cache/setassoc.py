"""A fast generic LRU set-associative cache.

Used for the small render caches in front of the LLC (vertex, HiZ, Z,
stencil, render target, and the texture hierarchy levels).  Each set is a
Python dict from block address to dirty flag; insertion order doubles as
LRU order (hits delete and re-insert, the first key is the victim), which
keeps every access allocation-free and O(1).

:meth:`LRUCache.access` is the scalar API.  The render-cache front end
(:mod:`repro.cache.hierarchy`) does not call it per access: its batch
loops read and update ``_sets``, ``set_mask``, ``ways``, ``block_bits``
and ``stats`` directly with the same semantics, so any change to how a
set is represented here must be mirrored there.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.config import CacheParams
from repro.utils.bitops import ilog2


@dataclasses.dataclass
class SetAssocStats:
    """Hit/miss accounting for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class LRUCache:
    """Set-associative, write-back, write-allocate LRU cache."""

    __slots__ = (
        "name",
        "num_sets",
        "ways",
        "block_bits",
        "set_mask",
        "_sets",
        "stats",
    )

    def __init__(self, params: CacheParams, name: str = "cache") -> None:
        self.name = name
        self.num_sets = params.num_sets
        self.ways = params.ways
        self.block_bits = ilog2(params.block_bytes)
        self.set_mask = self.num_sets - 1
        self._sets: List[dict] = [{} for _ in range(self.num_sets)]
        self.stats = SetAssocStats()

    def access(self, address: int, is_write: bool = False) -> Tuple[bool, Optional[int]]:
        """Access a byte address.

        Returns ``(hit, evicted_block_address)``.  The evicted block
        address (or None) lets callers model write-back traffic; only
        dirty victims are reported, clean victims are dropped silently.
        """
        block = address >> self.block_bits
        cache_set = self._sets[block & self.set_mask]
        if block in cache_set:
            # Move to MRU position, merging the dirty bit.
            dirty = cache_set.pop(block)
            cache_set[block] = dirty or is_write
            self.stats.hits += 1
            return True, None
        self.stats.misses += 1
        victim_writeback = None
        if len(cache_set) >= self.ways:
            victim = next(iter(cache_set))
            victim_dirty = cache_set.pop(victim)
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.writebacks += 1
                victim_writeback = victim << self.block_bits
        cache_set[block] = is_write
        return False, victim_writeback

    def contains(self, address: int) -> bool:
        """Presence check without touching LRU state or statistics."""
        block = address >> self.block_bits
        return block in self._sets[block & self.set_mask]

    def flush(self) -> int:
        """Invalidate everything; returns the number of dirty blocks."""
        dirty = sum(sum(1 for d in s.values() if d) for s in self._sets)
        for cache_set in self._sets:
            cache_set.clear()
        return dirty

    def __repr__(self) -> str:
        return (
            f"LRUCache({self.name!r}, sets={self.num_sets}, ways={self.ways})"
        )
