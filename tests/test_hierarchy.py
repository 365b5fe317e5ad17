"""Render-cache front-end tests."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ScalarRenderCacheFrontEnd
from repro.cache.hierarchy import RenderCacheFrontEnd
from repro.config import KB, CacheParams, RenderCachesConfig
from repro.streams import Stream


def _tiny_caches():
    small = CacheParams(512, ways=2)
    return RenderCachesConfig(
        vertex_index=small,
        vertex=small,
        hiz=small,
        stencil=small,
        render_target=small,
        z=small,
        texture_l1=small,
        texture_l2=CacheParams(1 * KB, ways=2),
        texture_l3=CacheParams(2 * KB, ways=2),
    )


def test_miss_reaches_llc_trace():
    front = RenderCacheFrontEnd(_tiny_caches())
    front.access(0, Stream.Z)
    assert len(front.sink) == 1
    trace = front.sink.build()
    assert trace[0].stream is Stream.Z
    assert not trace[0].is_write


def test_render_cache_hit_filtered():
    front = RenderCacheFrontEnd(_tiny_caches())
    front.access(0, Stream.Z)
    front.access(0, Stream.Z)      # absorbed by the Z cache
    assert len(front.sink) == 1
    assert front.filtered_fraction() == 0.5


def test_dirty_eviction_emits_store():
    front = RenderCacheFrontEnd(_tiny_caches())
    front.access(0, Stream.RT, is_write=True)
    # One set has 2 ways: two more blocks in the same set evict block 0.
    sets = front.caches[Stream.RT].num_sets
    front.access(sets * 64, Stream.RT)
    front.access(2 * sets * 64, Stream.RT)
    trace = front.sink.build()
    writes = [a for a in trace if a.is_write]
    assert len(writes) == 1
    assert writes[0].address == 0
    assert writes[0].stream is Stream.RT


def test_texture_hierarchy_three_levels():
    front = RenderCacheFrontEnd(_tiny_caches())
    front.access(0, Stream.TEXTURE)
    assert len(front.sink) == 1       # L1, L2, L3 all missed
    front.access(0, Stream.TEXTURE)   # L1 hit
    assert len(front.sink) == 1
    assert front.texture_levels[0].stats.hits == 1


def test_texture_l2_backstop():
    front = RenderCacheFrontEnd(_tiny_caches())
    l1_blocks = front.texture_levels[0].num_sets * front.texture_levels[0].ways
    # Touch more blocks than L1 holds, then re-touch the first: L1
    # misses but L2 (larger) still hits, so nothing reaches the LLC.
    for block in range(l1_blocks + 1):
        front.access(block * 64, Stream.TEXTURE)
    before = len(front.sink)
    front.access(0, Stream.TEXTURE)
    assert len(front.sink) == before
    assert front.texture_levels[1].stats.hits >= 1


def test_display_and_other_uncached_internally():
    front = RenderCacheFrontEnd(_tiny_caches())
    front.access(0, Stream.DISPLAY, is_write=True)
    front.access(0, Stream.DISPLAY, is_write=True)
    front.access(64, Stream.OTHER)
    assert len(front.sink) == 3


def test_batch_path_matches_scalar_path():
    addresses = np.array([0, 64, 0, 128, 64], dtype=np.uint64)
    scalar = RenderCacheFrontEnd(_tiny_caches())
    for address in addresses.tolist():
        scalar.access(address, Stream.Z)
    batch = RenderCacheFrontEnd(_tiny_caches())
    batch.access_blocks(addresses, Stream.Z)
    assert np.array_equal(
        scalar.sink.build().addresses, batch.sink.build().addresses
    )
    assert scalar.raw_accesses == batch.raw_accesses


def test_streams_use_separate_caches():
    front = RenderCacheFrontEnd(_tiny_caches())
    front.access(0, Stream.Z)
    front.access(0, Stream.STENCIL)   # different cache: still a miss
    assert len(front.sink) == 2


# -- batched filter vs the per-access oracle ------------------------------------

BLOCK_SIZES = (16, 32, 64, 128)


def _params(sets, ways, block_bytes):
    return CacheParams(sets * ways * block_bytes, ways=ways, block_bytes=block_bytes)


geometry = st.tuples(
    st.sampled_from((1, 2, 4, 8)), st.integers(1, 48), st.sampled_from(BLOCK_SIZES)
)


@st.composite
def render_caches(draw):
    fields = {
        name: _params(*draw(geometry))
        for name in ("vertex_index", "vertex", "hiz", "stencil", "render_target", "z")
    }
    # The texture levels always differ in block size from one another.
    texture_blocks = draw(st.permutations(BLOCK_SIZES))[:3]
    texture_levels = ("texture_l1", "texture_l2", "texture_l3")
    for name, block_bytes in zip(texture_levels, texture_blocks):
        sets, ways, _ = draw(geometry)
        fields[name] = _params(sets, ways, block_bytes)
    return RenderCachesConfig(**fields)


@st.composite
def batches(draw):
    """Batches over a few streams and a footprint sized to cause reuse.

    Addresses are unaligned bytes; drawing each example's streams from a
    small pool makes a stream's reads follow its own writes, so dirty
    lines are hit, re-dirtied and evicted by later batches.
    """
    streams = draw(st.lists(st.sampled_from(list(Stream)), min_size=1, max_size=3))
    footprint = draw(st.sampled_from((512, 4096, 32768, 1 << 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    workload = []
    for _ in range(draw(st.integers(1, 12))):
        stream = draw(st.sampled_from(streams))
        is_write = draw(st.booleans())
        size = draw(st.integers(0, 200))
        workload.append((stream, is_write, rng.integers(0, footprint, size=size)))
    return workload


def _all_caches(front):
    return list(front.caches.values()) + list(front.texture_levels)


def _contents(cache):
    """Every set's (block, dirty) pairs in LRU-to-MRU order."""
    return [
        [(block, bool(dirty)) for block, dirty in cache_set.items()]
        for cache_set in cache._sets
    ]


@settings(max_examples=60, deadline=None)
@given(config=render_caches(), workload=batches())
def test_batched_filter_matches_scalar_oracle(config, workload):
    batched = RenderCacheFrontEnd(config)
    oracle = ScalarRenderCacheFrontEnd(config)
    for stream, is_write, addresses in workload:
        addresses = addresses.astype(np.uint64)
        batched.access_blocks(addresses, stream, is_write)
        oracle.access_blocks(addresses, stream, is_write)
        got, want = batched.sink.build(), oracle.sink.build()
        assert got.addresses.tolist() == want.addresses.tolist()
        assert got.streams.tolist() == want.streams.tolist()
        assert np.array_equal(np.flatnonzero(got.writes), np.flatnonzero(want.writes))
        assert batched.raw_accesses == oracle.raw_accesses
        for mine, theirs in zip(_all_caches(batched), _all_caches(oracle)):
            assert mine.stats == theirs.stats, mine
            assert _contents(mine) == _contents(theirs), mine
