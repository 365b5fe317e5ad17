"""The offline LLC simulator.

Replays a trace of LLC accesses through an :class:`~repro.cache.llc.LLC`
driven by a named policy — the exact methodology of the paper: "All the
results presented in this section are generated by an offline cache
simulator ... The offline model digests the LLC load/store access trace".
"""

from __future__ import annotations

import array
import itertools
import time
from typing import Iterable, Optional

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.llc import LLC, LLCObserver
from repro.config import LLCConfig
from repro.core.base import NEVER
from repro.core.registry import PolicyLike, resolve_policy
from repro.core.rrip import RRIPPolicy
from repro.obs.spans import SpanRecorder
from repro.sim.future import next_use_indices
from repro.sim.replaylog import ReplayLog
from repro.sim.results import SimResult
from repro.streams import Stream, StreamClass
from repro.trace.record import Trace

__all__ = ["PolicyLike", "build_llc", "simulate_trace"]


def build_llc(
    policy: PolicyLike,
    llc_config: Optional[LLCConfig] = None,
    uncached_streams: Optional[Iterable[Stream]] = None,
    observer: Optional[LLCObserver] = None,
    writeback_sink=None,
) -> LLC:
    """Construct an LLC ready to digest a trace."""
    instance, uncached = resolve_policy(policy, uncached_streams)
    geometry = CacheGeometry.from_config(llc_config or LLCConfig())
    return LLC(
        geometry,
        instance,
        uncached_streams=uncached,
        observer=observer,
        writeback_sink=writeback_sink,
    )


def simulate_trace(
    trace: Trace,
    policy: PolicyLike,
    llc_config: Optional[LLCConfig] = None,
    uncached_streams: Optional[Iterable[Stream]] = None,
    observer: Optional[LLCObserver] = None,
    spans: Optional[SpanRecorder] = None,
    engine: str = "auto",
    record: bool = False,
) -> SimResult:
    """Replay ``trace`` under ``policy`` and collect statistics.

    ``policy`` may be a registry name (``"gspc+ucd"``), a
    :class:`~repro.core.registry.PolicySpec`, or a bound-ready policy
    instance.  Belady's OPT automatically receives precomputed next-use
    information.  ``spans``, if given, records the setup/replay phase
    breakdown into the caller's :class:`~repro.obs.spans.SpanRecorder`.

    ``engine`` selects the replay implementation: ``"reference"`` (this
    module's hook-driven engine), ``"fast"`` (the specialized kernels
    of :mod:`repro.fastsim`; raises when the policy has no kernel or an
    observer is attached), or ``"auto"`` (the default — fast whenever
    applicable, identical results either way; see
    ``docs/performance.md``).

    ``record`` attaches a :class:`~repro.sim.replaylog.ReplayLog` — the
    per-access outcomes and the DRAM request stream — to the result
    (``result.log``), identical on both engines.
    """
    # Imported lazily: repro.fastsim pulls in repro.sim submodules, so a
    # module-level import would cycle through the package __init__.
    from repro.fastsim.dispatch import ENGINE_FAST, choose_engine
    from repro.fastsim.engine import fast_simulate_trace

    if choose_engine(engine, policy, observer) == ENGINE_FAST:
        return fast_simulate_trace(
            trace, policy, llc_config, uncached_streams, spans, record
        )
    if spans is None:
        spans = SpanRecorder()
    llc = build_llc(policy, llc_config, uncached_streams, observer)
    # Setup covers the array conversions and the next-use precompute —
    # separate from replay so Belady runs don't report inflated replay
    # time (the precompute alone can dominate).
    setup_started = time.perf_counter()
    with spans.span("setup"):
        addresses = trace.addresses.tolist()
        streams = trace.streams.tolist()
        writes = trace.writes.tolist()
        if llc.policy.needs_future:
            next_uses = next_use_indices(
                trace.block_addresses(llc.geometry.block_bytes)
            ).tolist()
        else:
            next_uses = None
    setup_seconds = time.perf_counter() - setup_started
    access = llc.access
    replay_started = time.perf_counter()
    log = None
    with spans.span("replay"):
        if record:
            outcomes, writeback_index, writeback_address = _recorded_replay(
                llc, addresses, streams, writes, next_uses
            )
            # Release the replay lists before the merge allocates.
            del addresses, streams, writes, next_uses
            log = ReplayLog.assemble(
                np.frombuffer(outcomes, dtype=np.uint8),
                trace.addresses,
                np.frombuffer(writeback_index, dtype=np.int64),
                np.frombuffer(writeback_address, dtype=np.uint64),
                "reference",
            )
        elif next_uses is not None:
            for address, stream, write, next_use in zip(
                addresses, streams, writes, next_uses
            ):
                access(address, stream, write, next_use)
        else:
            for address, stream, write in zip(addresses, streams, writes):
                access(address, stream, write, NEVER)
    replay_seconds = time.perf_counter() - replay_started
    result = SimResult(
        policy=llc.policy.name,
        stats=llc.stats,
        accesses=len(trace),
        elapsed_seconds=setup_seconds + replay_seconds,
        setup_seconds=setup_seconds,
        replay_seconds=replay_seconds,
        trace_meta=dict(trace.meta),
        log=log,
    )
    if isinstance(llc.policy, RRIPPolicy):
        # Figure 8 needs the fraction of RT/TEX fills at the distant RRPV.
        result.extras["fill_distant_fraction"] = {
            sclass.name: llc.policy.fill_fraction_at(
                int(sclass), llc.policy.distant_rrpv
            )
            for sclass in StreamClass
        }
    return result


def _recorded_replay(llc: LLC, addresses, streams, writes, next_uses):
    """The reference replay loop, logging outcomes and write-backs.

    Returns the per-access outcomes and, for every dirty eviction, the
    trace index of the access that caused it and the victim's address.
    """
    index = 0
    writeback_index = array.array("q")
    writeback_address = array.array("Q")

    def writeback_sink(address: int) -> None:
        writeback_index.append(index)
        writeback_address.append(address)

    llc.writeback_sink = writeback_sink
    access = llc.access
    outcomes = bytearray(len(addresses))
    if next_uses is None:
        next_uses = itertools.repeat(NEVER)
    for index, (address, stream, write, next_use) in enumerate(
        zip(addresses, streams, writes, next_uses)
    ):
        outcomes[index] = access(address, stream, write, next_use)
    return outcomes, writeback_index, writeback_address
