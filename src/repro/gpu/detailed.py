"""Event-driven detailed GPU timing model.

The windowed model (:mod:`repro.gpu.timing`) integrates throughput
bounds; this model replays the trace through explicit queueing state —
per-thread-context availability, a bounded pool of outstanding misses
(MSHRs), per-bank DRAM service with open-row tracking, and per-channel
data-bus occupancy — the machinery a detailed simulator like the
paper's in-house one resolves cycle by cycle.

Each LLC access is issued by one of the GPU's thread contexts
(round-robin over *warps* of consecutive accesses, modeling the quads a
shader core keeps in flight).  A context performs some compute, issues
its access, and for reads blocks until the data returns; an LLC miss
additionally occupies an MSHR from issue to fill.  Frame time is when
the last context drains.

The model is deliberately still analytic — no event heap, one pass over
the trace with O(1) state per resource — so it stays fast enough to run
inside experiments, yet exhibits queueing effects the windowed model
cannot: MSHR saturation, bank conflicts, and burstiness.  Like the
windowed model it drives no cache itself: the LLC outcome of every
access and the dirty write-backs come from the
:class:`~repro.sim.replaylog.ReplayLog` of one recorded replay.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import List, Optional

from repro.cache.llc import HIT, MISS
from repro.config import SystemConfig
from repro.gpu.shader import WORK_FLOPS_PER_ACCESS
from repro.sim.offline import PolicyLike, simulate_trace
from repro.trace.record import Trace
from repro.utils.bitops import ilog2

#: Consecutive accesses issued by one thread context before rotating —
#: roughly the memory operations of one shaded quad.
WARP_ACCESSES = 4

#: Outstanding misses supported per LLC bank (MSHR pool).
MSHRS_PER_BANK = 32


@dataclasses.dataclass
class DetailedTiming:
    """Outcome of one detailed-model run."""

    policy: str
    frame_ns: float
    accesses: int
    misses: int
    #: Fraction of issue attempts that found every MSHR busy.
    mshr_stall_fraction: float
    #: DRAM row-buffer hit rate observed by misses.
    row_hit_rate: float
    scale: float = 1.0

    @property
    def fps(self) -> float:
        return 1e9 / self.frame_ns if self.frame_ns > 0 else 0.0

    @property
    def fps_full_scale(self) -> float:
        if self.frame_ns <= 0:
            return 0.0
        return 1e9 / (self.frame_ns / (self.scale * self.scale))

    def speedup_over(self, baseline: "DetailedTiming") -> float:
        return baseline.frame_ns / self.frame_ns


class DetailedGPUSimulator:
    """Replays LLC traces through the queueing model.

    ``engine`` selects the LLC replay that records the log, as for
    :class:`~repro.gpu.timing.FrameTimingSimulator`.
    """

    def __init__(self, system: SystemConfig, engine: str = "auto") -> None:
        self.system = system
        self.engine = engine

    def run(self, trace: Trace, policy: PolicyLike) -> DetailedTiming:
        system = self.system
        gpu, dram = system.gpu, system.dram
        result = simulate_trace(
            trace, policy, system.llc, engine=self.engine, record=True
        )
        outcomes = result.log.outcomes.tolist()
        # Write-backs in access order; each drains right after the
        # access that evicted it.
        writeback_index, writeback_address = result.log.writebacks()
        writeback_index.append(len(outcomes))  # sentinel
        next_writeback = 0

        flops_per_ns = gpu.peak_tflops * 1e3 * 0.55
        contexts = gpu.thread_contexts
        llc_hit_ns = gpu.llc_latency_ns
        cycle_ns = dram.cycle_ns
        row_hit_ns = dram.row_hit_ns()
        row_miss_ns = dram.row_miss_ns()
        transfer_ns = dram.transfer_cycles * cycle_ns

        channel_bits = ilog2(dram.channels)
        bank_mask = dram.banks_per_channel - 1
        row_shift = ilog2(dram.row_bytes)

        #: Next-free time per thread context (a min-heap: issuing on the
        #: earliest-available context models greedy warp scheduling).
        context_free: List[float] = [0.0] * contexts
        heapq.heapify(context_free)
        #: Next-free time per (channel, bank) and per channel data bus.
        bank_free = [
            [0.0] * dram.banks_per_channel for _ in range(dram.channels)
        ]
        bus_free = [0.0] * dram.channels
        open_row = [
            [-1] * dram.banks_per_channel for _ in range(dram.channels)
        ]
        #: Completion times of in-flight misses (bounded MSHR pool).
        mshrs: List[float] = []
        mshr_capacity = MSHRS_PER_BANK * system.llc.banks

        addresses = trace.addresses.tolist()
        streams = trace.streams.tolist()
        writes = trace.writes.tolist()

        finish_time = 0.0
        mshr_stalls = 0
        row_hits = 0
        warp_ready = 0.0
        position_in_warp = 0

        for index in range(len(addresses)):
            address = addresses[index]
            stream = streams[index]
            write = writes[index]
            if position_in_warp == 0:
                # Rotate to the earliest-free context for the next warp.
                warp_ready = heapq.heappop(context_free)
            position_in_warp = (position_in_warp + 1) % WARP_ACCESSES

            compute_ns = WORK_FLOPS_PER_ACCESS[stream] / flops_per_ns
            issue = warp_ready + compute_ns
            outcome = outcomes[index]

            if outcome == HIT:
                done = issue + llc_hit_ns
            else:
                # Reads (misses and bypasses) go to DRAM; an LLC miss
                # also needs a free MSHR.
                if outcome == MISS:
                    while len(mshrs) >= mshr_capacity:
                        released = heapq.heappop(mshrs)
                        if released > issue:
                            mshr_stalls += 1
                            issue = released
                block = address >> 6
                channel = block & (dram.channels - 1)
                bank = (block >> channel_bits) & bank_mask
                row = address >> row_shift
                start = max(issue, bank_free[channel][bank],
                            bus_free[channel])
                if open_row[channel][bank] == row:
                    row_hits += 1
                    service = row_hit_ns
                else:
                    open_row[channel][bank] = row
                    service = row_miss_ns
                done = start + service
                bank_free[channel][bank] = done
                bus_free[channel] = max(bus_free[channel], start) + transfer_ns
                if outcome == MISS:
                    heapq.heappush(mshrs, done)
                done += llc_hit_ns

            while writeback_index[next_writeback] == index:
                # Dirty evictions drain to DRAM as posted writes at
                # their true victim addresses (no context blocking).
                victim_address = writeback_address[next_writeback]
                next_writeback += 1
                victim_block = victim_address >> 6
                wb_channel = victim_block & (dram.channels - 1)
                wb_bank = (victim_block >> channel_bits) & bank_mask
                wb_row = victim_address >> row_shift
                wb_start = max(
                    issue,
                    bank_free[wb_channel][wb_bank],
                    bus_free[wb_channel],
                )
                if open_row[wb_channel][wb_bank] == wb_row:
                    wb_service = row_hit_ns
                else:
                    open_row[wb_channel][wb_bank] = wb_row
                    wb_service = row_miss_ns
                bank_free[wb_channel][wb_bank] = wb_start + wb_service
                bus_free[wb_channel] = (
                    max(bus_free[wb_channel], wb_start) + transfer_ns
                )

            if write and outcome != HIT:
                # Posted writes do not block the context.
                done = issue + llc_hit_ns
            warp_ready = max(warp_ready, done if not write else issue)
            if position_in_warp == 0:
                heapq.heappush(context_free, warp_ready)
            finish_time = max(finish_time, done)

        # Drain the contexts still holding partial warps.
        if position_in_warp != 0:
            heapq.heappush(context_free, warp_ready)
        while context_free:
            finish_time = max(finish_time, heapq.heappop(context_free))

        stats = result.stats
        total_memory_ops = max(1, stats.misses + stats.bypasses)
        return DetailedTiming(
            policy=result.policy,
            frame_ns=finish_time,
            accesses=len(trace),
            misses=stats.misses,
            mshr_stall_fraction=mshr_stalls / max(1, stats.misses),
            row_hit_rate=row_hits / total_memory_ops,
            scale=float(trace.meta.get("scale", system.scale or 1.0)),
        )


def simulate_frame_detailed(
    trace: Trace, policy: PolicyLike, system: Optional[SystemConfig] = None
) -> DetailedTiming:
    """Convenience wrapper around :class:`DetailedGPUSimulator`."""
    return DetailedGPUSimulator(system or SystemConfig()).run(trace, policy)
