"""Shared helpers for the test suite (importable, unlike conftest)."""

from __future__ import annotations

from repro.cache.hierarchy import RenderCacheFrontEnd
from repro.streams import Stream
from repro.trace.record import Trace, TraceBuilder


def make_trace(entries) -> Trace:
    """Build a trace from (block_index, stream[, is_write]) tuples."""
    builder = TraceBuilder({"name": "test"})
    for entry in entries:
        block, stream = entry[0], entry[1]
        write = entry[2] if len(entry) > 2 else False
        builder.append(block * 64, stream, write)
    return builder.build()


class ScalarRenderCacheFrontEnd(RenderCacheFrontEnd):
    """Per-access render-cache filter: the oracle for
    :meth:`~repro.cache.hierarchy.RenderCacheFrontEnd.access_blocks`.

    Chains one :meth:`~repro.cache.setassoc.LRUCache.access` call per
    access (per level for textures) and appends each LLC access to the
    sink on its own.  Cache construction is inherited unchanged.
    """

    def access(self, address: int, stream: Stream, is_write: bool = False) -> None:
        self.raw_accesses += 1
        if stream is Stream.TEXTURE:
            for level in self.texture_levels:
                hit, _ = level.access(address, False)
                if hit:
                    return
            self.sink.append(address, Stream.TEXTURE, False)
            return
        if stream is Stream.DISPLAY or stream is Stream.OTHER:
            self.sink.append(address, stream, is_write)
            return
        hit, writeback = self.caches[stream].access(address, is_write)
        if writeback is not None:
            self.sink.append(writeback, stream, True)
        if not hit:
            self.sink.append(address, stream, False)

    def access_blocks(self, addresses, stream: Stream, is_write: bool = False) -> None:
        for address in addresses.tolist():
            self.access(address, stream, is_write)


def reference_frame_timing(system, trace: Trace, policy):
    """Per-access frame timing: the oracle for
    :class:`~repro.gpu.timing.FrameTimingSimulator`.

    Drives a live reference LLC and charges the DRAM model one request
    at a time, closing a window every ``WINDOW_ACCESSES`` accesses.
    Returns ``FrameTiming.to_dict()``.
    """
    from repro.cache.llc import BYPASS, MISS
    from repro.core.base import NEVER
    from repro.gpu.dram import DRAMTimingModel
    from repro.gpu.llc_timing import LLCTimingModel
    from repro.gpu.shader import ShaderModel
    from repro.gpu.timing import WINDOW_ACCESSES, FrameTiming
    from repro.sim.future import next_use_indices
    from repro.sim.offline import build_llc
    from repro.streams import Stream

    dram = DRAMTimingModel(system.dram)
    # Dirty evictions reach DRAM with their true victim addresses,
    # so write traffic participates in row-locality modeling.
    llc = build_llc(
        policy,
        system.llc,
        writeback_sink=lambda address: dram.request(address, True),
    )
    shader = ShaderModel(system.gpu)
    llc_timing = LLCTimingModel(system.llc, system.gpu)

    addresses = trace.addresses.tolist()
    streams = trace.streams.tolist()
    writes = trace.writes.tolist()
    if llc.policy.needs_future:
        next_uses = next_use_indices(
            trace.block_addresses(system.llc.block_bytes)
        ).tolist()
    else:
        next_uses = None

    total_ns = 0.0
    compute_total = 0.0
    dram_total = 0.0
    llc_total = 0.0
    exposed_total = 0.0
    window_counts = {int(s): 0 for s in Stream}
    window_misses = 0
    window_lookups = 0

    def close_window() -> None:
        nonlocal total_ns, compute_total, dram_total, llc_total
        nonlocal exposed_total, window_misses, window_lookups
        dram_ns = dram.drain_window_ns()
        compute_ns = shader.compute_ns(window_counts)
        llc_ns = llc_timing.occupancy_ns(window_lookups)
        miss_latency = dram.average_latency_ns() + llc_timing.hit_latency_ns
        exposed_ns = shader.exposed_latency_ns(window_misses, miss_latency)
        total_ns += max(compute_ns, dram_ns, llc_ns) + exposed_ns
        compute_total += compute_ns
        dram_total += dram_ns
        llc_total += llc_ns
        exposed_total += exposed_ns
        for key in window_counts:
            window_counts[key] = 0
        window_misses = 0
        window_lookups = 0

    for index, (address, stream, write) in enumerate(
        zip(addresses, streams, writes)
    ):
        next_use = next_uses[index] if next_uses is not None else NEVER
        outcome = llc.access(address, stream, write, next_use)
        window_counts[stream] += 1
        window_lookups += 1
        if outcome == MISS:
            dram.request(address, False)
            window_misses += 1
        elif outcome == BYPASS:
            # Uncached accesses go straight to DRAM (read or write).
            dram.request(address, write)
        if (index + 1) % WINDOW_ACCESSES == 0:
            close_window()
    close_window()

    return FrameTiming(
        policy=llc.policy.name,
        frame_ns=total_ns,
        compute_ns=compute_total,
        dram_ns=dram_total,
        llc_ns=llc_total,
        exposed_ns=exposed_total,
        accesses=len(trace),
        misses=llc.stats.misses,
        dram_row_hit_rate=dram.row_hit_rate,
        scale=float(trace.meta.get("scale", system.scale or 1.0)),
    ).to_dict()
