"""The render-cache front end between the pipeline and the LLC.

The GPU's fixed-function units never talk to the LLC directly: vertex
fetches go through the vertex cache, depth tests through the HiZ and Z
caches, blending through the render-target cache, stencil tests through
the stencil cache, and sampler reads through a three-level texture
hierarchy (Section 4).  Misses at the innermost levels — plus dirty
write-backs — form the LLC access trace.  Displayable color writes and
miscellaneous (shader code/constant) reads are uncached internally and
reach the LLC directly.

Filtering is the dominant cost of generating a frame, so each batch of
one stream's accesses runs through a single inlined loop over the
caches' per-set dicts (the :class:`~repro.cache.setassoc.LRUCache`
state, read and written directly) instead of one ``LRUCache.access``
call per access.  The loop collects the batch's LLC accesses in a list,
records dirty write-backs by their position in it, and flushes the list
into the trace with one :meth:`~repro.trace.record.TraceBuilder.extend`;
cache statistics are added once per batch.  The result — trace, cache
contents, LRU order, dirty bits and statistics — is exactly what the
per-access ``LRUCache.access`` chain produces.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.setassoc import LRUCache
from repro.config import RenderCachesConfig
from repro.streams import Stream
from repro.trace.record import TraceBuilder


def _filter_reads(
    cache: LRUCache, addresses: Sequence[int]
) -> Tuple[List[int], List[int]]:
    """One LRU pass of loads; returns (LLC addresses, write-back positions).

    Each miss emits its original byte address; a dirty victim's
    write-back (its block address) is emitted just before the miss that
    evicted it.
    """
    sets = cache._sets
    set_mask = cache.set_mask
    ways = cache.ways
    bits = cache.block_bits
    emitted: List[int] = []
    emit = emitted.append
    writebacks: List[int] = []
    hits = evictions = 0
    for address in addresses:
        block = address >> bits
        cache_set = sets[block & set_mask]
        if block in cache_set:
            cache_set[block] = cache_set.pop(block)  # to MRU, dirty bit kept
            hits += 1
            continue
        if len(cache_set) >= ways:
            for victim in cache_set:  # the first key is the LRU line
                break
            evictions += 1
            if cache_set.pop(victim):
                writebacks.append(len(emitted))
                emit(victim << bits)
        cache_set[block] = False
        emit(address)
    _add_stats(cache, hits, len(addresses) - hits, evictions, len(writebacks))
    return emitted, writebacks


def _filter_writes(
    cache: LRUCache, addresses: Sequence[int]
) -> Tuple[List[int], List[int]]:
    """:func:`_filter_reads` for stores: hits and fills leave the line dirty.

    Write-allocate: a store miss still fetches the line, so it reaches
    the LLC as a load.
    """
    sets = cache._sets
    set_mask = cache.set_mask
    ways = cache.ways
    bits = cache.block_bits
    emitted: List[int] = []
    emit = emitted.append
    writebacks: List[int] = []
    hits = evictions = 0
    for address in addresses:
        block = address >> bits
        cache_set = sets[block & set_mask]
        if block in cache_set:
            del cache_set[block]
            cache_set[block] = True
            hits += 1
            continue
        if len(cache_set) >= ways:
            for victim in cache_set:
                break
            evictions += 1
            if cache_set.pop(victim):
                writebacks.append(len(emitted))
                emit(victim << bits)
        cache_set[block] = True
        emit(address)
    _add_stats(cache, hits, len(addresses) - hits, evictions, len(writebacks))
    return emitted, writebacks


def _filter_texture(
    levels: Tuple[LRUCache, LRUCache, LRUCache], addresses: Sequence[int]
) -> List[int]:
    """One pass of sampler loads through the L1→L2→L3 texture hierarchy.

    Every level a load misses in is filled on the way down (no
    exclusivity); a load that misses all three reaches the LLC with its
    original address.  Texture lines are only ever read, so they are
    never dirty and no eviction writes back.  Each level uses its own
    block size.
    """
    l1, l2, l3 = levels
    sets1, mask1, ways1, bits1 = l1._sets, l1.set_mask, l1.ways, l1.block_bits
    sets2, mask2, ways2, bits2 = l2._sets, l2.set_mask, l2.ways, l2.block_bits
    sets3, mask3, ways3, bits3 = l3._sets, l3.set_mask, l3.ways, l3.block_bits
    emitted: List[int] = []
    emit = emitted.append
    hits1 = hits2 = hits3 = 0
    evictions1 = evictions2 = evictions3 = 0
    for address in addresses:
        block = address >> bits1
        cache_set = sets1[block & mask1]
        if block in cache_set:
            cache_set[block] = cache_set.pop(block)
            hits1 += 1
            continue
        if len(cache_set) >= ways1:
            for victim in cache_set:
                break
            del cache_set[victim]
            evictions1 += 1
        cache_set[block] = False

        block = address >> bits2
        cache_set = sets2[block & mask2]
        if block in cache_set:
            cache_set[block] = cache_set.pop(block)
            hits2 += 1
            continue
        if len(cache_set) >= ways2:
            for victim in cache_set:
                break
            del cache_set[victim]
            evictions2 += 1
        cache_set[block] = False

        block = address >> bits3
        cache_set = sets3[block & mask3]
        if block in cache_set:
            cache_set[block] = cache_set.pop(block)
            hits3 += 1
            continue
        if len(cache_set) >= ways3:
            for victim in cache_set:
                break
            del cache_set[victim]
            evictions3 += 1
        cache_set[block] = False
        emit(address)
    accesses2 = len(addresses) - hits1
    accesses3 = accesses2 - hits2
    _add_stats(l1, hits1, accesses2, evictions1, 0)
    _add_stats(l2, hits2, accesses3, evictions2, 0)
    _add_stats(l3, hits3, accesses3 - hits3, evictions3, 0)
    return emitted


def _add_stats(
    cache: LRUCache, hits: int, misses: int, evictions: int, writebacks: int
) -> None:
    stats = cache.stats
    stats.hits += hits
    stats.misses += misses
    stats.evictions += evictions
    stats.writebacks += writebacks


class RenderCacheFrontEnd:
    """Routes raw pipeline accesses through the render caches.

    Every miss that escapes the innermost cache of a stream is appended
    to ``sink`` as an LLC load; every dirty line evicted from a render
    cache is appended as an LLC store (write-back).
    """

    def __init__(
        self, config: Optional[RenderCachesConfig] = None, sink: Optional[TraceBuilder] = None
    ) -> None:
        config = config or RenderCachesConfig()
        self.sink = sink if sink is not None else TraceBuilder()
        self.caches: Dict[Stream, LRUCache] = {
            Stream.VERTEX: LRUCache(config.vertex, "vertex"),
            Stream.HIZ: LRUCache(config.hiz, "hiz"),
            Stream.Z: LRUCache(config.z, "z"),
            Stream.STENCIL: LRUCache(config.stencil, "stencil"),
            Stream.RT: LRUCache(config.render_target, "rt"),
        }
        self.texture_levels = (
            LRUCache(config.texture_l1, "tex-l1"),
            LRUCache(config.texture_l2, "tex-l2"),
            LRUCache(config.texture_l3, "tex-l3"),
        )
        self.raw_accesses = 0

    def access(self, address: int, stream: Stream, is_write: bool = False) -> None:
        """Route one access (a one-element :meth:`access_blocks`)."""
        self.access_blocks(np.array([address], dtype=np.uint64), stream, is_write)

    def access_blocks(
        self, addresses: np.ndarray, stream: Stream, is_write: bool = False
    ) -> None:
        """Route a batch of byte addresses through one stream's caches."""
        self.raw_accesses += len(addresses)
        if stream is Stream.DISPLAY or stream is Stream.OTHER:
            # Uncached internally: straight to the LLC.
            self.sink.extend(addresses, stream, is_write)
            return
        if stream is Stream.TEXTURE:
            emitted = _filter_texture(self.texture_levels, addresses.tolist())
            writebacks: List[int] = []
        else:
            loop = _filter_writes if is_write else _filter_reads
            emitted, writebacks = loop(self.caches[stream], addresses.tolist())
        if emitted:
            self.sink.extend(emitted, stream, write_positions=writebacks)

    def filtered_fraction(self) -> float:
        """Fraction of raw accesses absorbed before reaching the LLC."""
        if self.raw_accesses == 0:
            return 0.0
        return 1.0 - len(self.sink) / self.raw_accesses
