"""The fast engine's ``simulate_trace`` equivalent.

``fast_simulate_trace`` mirrors :func:`repro.sim.offline.simulate_trace`
observable-for-observable: the same ``setup``/``replay`` span names,
the same ``SimResult`` fields, the same stats, and the same
``fill_distant_fraction`` extras for RRIP-family policies.  It refuses
(rather than silently degrading) to run a policy without a kernel —
engine *selection* lives in :mod:`repro.fastsim.dispatch`.
"""

from __future__ import annotations

import array
import time
from typing import Iterable, Optional

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.llc import BYPASS, HIT, MISS
from repro.cache.stats import LLCStats
from repro.config import LLCConfig
from repro.core.gspc_base import ProbabilisticStreamPolicy
from repro.core.registry import PolicyLike, resolve_policy
from repro.core.rrip import RRIPPolicy
from repro.errors import SimulationError
from repro.fastsim.decode import decode_trace
from repro.fastsim.dispatch import kernel_kind
from repro.fastsim.kernels import kernel_for, kernel_params
from repro.obs.spans import SpanRecorder
from repro.sim.replaylog import ReplayLog
from repro.sim.results import SimResult
from repro.streams import ALL_STREAMS, Stream, StreamClass
from repro.trace.record import Trace


def fast_simulate_trace(
    trace: Trace,
    policy: PolicyLike,
    llc_config: Optional[LLCConfig] = None,
    uncached_streams: Optional[Iterable[Stream]] = None,
    spans: Optional[SpanRecorder] = None,
    record: bool = False,
) -> SimResult:
    """Replay ``trace`` under ``policy`` through the fast engine.

    ``record`` replays through the kernel's logged variant and attaches
    a :class:`~repro.sim.replaylog.ReplayLog` to the result.
    """
    if spans is None:
        spans = SpanRecorder()
    instance, uncached = resolve_policy(policy, uncached_streams)
    kind = kernel_kind(instance)
    if kind is None:
        raise SimulationError(
            f"policy {instance.name!r} has no fast kernel; "
            "route it through the reference engine"
        )
    geometry = CacheGeometry.from_config(llc_config or LLCConfig())
    kernel = kernel_for(kind, logged=record)
    params = kernel_params(instance, geometry)
    if record:
        # Typed arrays, not lists: the log keeps no int objects alive.
        miss_log = array.array("q")
        writeback_log = array.array("q")
        params = dict(params, miss_log=miss_log, writeback_log=writeback_log)

    setup_started = time.perf_counter()
    with spans.span("setup"):
        decoded = decode_trace(
            trace,
            geometry,
            uncached,
            needs_future=instance.needs_future,
            needs_bank=isinstance(instance, ProbabilisticStreamPolicy),
        )
    setup_seconds = time.perf_counter() - setup_started

    replay_started = time.perf_counter()
    with spans.span("replay"):
        counters = kernel(
            decoded.blocks,
            decoded.bases,
            decoded.streams,
            decoded.sclasses,
            decoded.writes,
            decoded.next_uses,
            decoded.banks,
            decoded.samples,
            geometry.num_sets,
            geometry.ways,
            params,
        )
        stats = _assemble_stats(counters, decoded)
        log = None
        if record:
            uncached_mask = decoded.uncached_mask
            del decoded  # release the replay lists before the log is built
            log = _replay_log(
                trace, geometry, uncached_mask, miss_log, writeback_log
            )
    replay_seconds = time.perf_counter() - replay_started

    result = SimResult(
        policy=instance.name,
        stats=stats,
        accesses=len(trace),
        elapsed_seconds=setup_seconds + replay_seconds,
        setup_seconds=setup_seconds,
        replay_seconds=replay_seconds,
        trace_meta=dict(trace.meta),
        log=log,
    )
    if isinstance(instance, RRIPPolicy):
        result.extras["fill_distant_fraction"] = _fill_distant_fractions(
            counters["fill_counts"], instance.distant_rrpv
        )
    return result


def _replay_log(
    trace, geometry, uncached_mask, miss_log, writeback_log
) -> ReplayLog:
    """Map the kernel's replayed indices back to trace positions."""
    outcomes = np.full(len(trace), HIT, dtype=np.uint8)
    misses = np.frombuffer(miss_log, dtype=np.int64)
    pairs = np.frombuffer(writeback_log, dtype=np.int64).reshape(-1, 2)
    writeback_index = pairs[:, 0]
    if uncached_mask is not None:
        outcomes[uncached_mask] = BYPASS
        positions = np.flatnonzero(~uncached_mask)
        misses = positions[misses]
        writeback_index = positions[writeback_index]
    outcomes[misses] = MISS
    writeback_address = pairs[:, 1].astype(np.uint64) << np.uint64(
        geometry.block_bits
    )
    return ReplayLog.assemble(
        outcomes, trace.addresses, writeback_index, writeback_address, "fast"
    )


def _assemble_stats(counters: dict, decoded) -> LLCStats:
    stats = LLCStats()
    hits = counters["hits"]
    misses = counters["misses"]
    for stream in ALL_STREAMS:
        per_stream = stats.per_stream[stream]
        index = int(stream)
        per_stream.hits = hits[index]
        per_stream.misses = misses[index]
        per_stream.bypasses = decoded.bypasses_per_stream[index]
    stats.evictions = counters["evictions"]
    stats.writebacks = counters["writebacks"]
    stats.fills = counters["fills"]
    stats.tex_inter_hits = counters["tex_inter_hits"]
    stats.tex_intra_hits = counters["tex_intra_hits"]
    stats.rt_produced = counters["rt_produced"]
    stats.rt_consumed = counters["rt_consumed"]
    stats.dram_reads = counters["dram_reads"] + decoded.bypass_reads
    stats.dram_writes = counters["dram_writes"] + decoded.bypass_writes
    return stats


def _fill_distant_fractions(fill_counts, distant_rrpv: int) -> dict:
    fractions = {}
    for sclass in StreamClass:
        counts = fill_counts[int(sclass)]
        total = sum(counts)
        fractions[sclass.name] = counts[distant_rrpv] / total if total else 0.0
    return fractions
