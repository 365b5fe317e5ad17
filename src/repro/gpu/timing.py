"""Frame-time simulation: LLC trace -> frames per second.

Like the paper's methodology, this runs in two steps.  The offline
cache simulator replays the frame once (either engine, see
:func:`repro.sim.offline.simulate_trace`) and records a
:class:`~repro.sim.replaylog.ReplayLog`; the timing model then consumes
that log, integrating time window by window.  Within a window,
shading/fixed-function compute, LLC bank occupancy and
DRAM service largely overlap — a GPU is a throughput machine — so the
window's duration is their maximum plus the latency that the thread
contexts could not hide.  This reproduces the paper's observed
convexity: small LLC miss savings vanish inside the overlap (GS-DRRIP's
2.9% fewer misses bought only 0.8% speedup), while large savings shift
whole windows off the DRAM bound (GSPC's 13% bought 8%).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Iterable, Optional

import numpy as np

from repro.cache.llc import MISS
from repro.config import SystemConfig
from repro.gpu.dram import DRAMTimingModel
from repro.gpu.llc_timing import LLCTimingModel
from repro.gpu.shader import ShaderModel
from repro.obs.spans import SpanRecorder
from repro.sim.offline import PolicyLike, simulate_trace
from repro.sim.replaylog import ReplayLog
from repro.streams import Stream
from repro.trace.record import Trace

#: Accesses integrated per timing window.
WINDOW_ACCESSES = 4096


@dataclasses.dataclass
class FrameTiming:
    """Timing outcome of one rendered frame."""

    policy: str
    frame_ns: float
    compute_ns: float
    dram_ns: float
    llc_ns: float
    exposed_ns: float
    accesses: int
    misses: int
    dram_row_hit_rate: float
    #: Linear frame scale the trace was generated at (for FPS correction).
    scale: float = 1.0
    #: Wall-clock spent preparing the replay (decode, next-use
    #: precompute) vs. replaying the LLC and integrating the windows —
    #: mirrors :class:`~repro.sim.results.SimResult`.
    setup_seconds: float = 0.0
    replay_seconds: float = 0.0
    #: Replay engine that produced the request log ("reference" or
    #: "fast").  Provenance only: not part of :meth:`to_dict`.
    engine: str = ""

    @property
    def elapsed_seconds(self) -> float:
        return self.setup_seconds + self.replay_seconds

    def to_dict(self) -> Dict[str, float]:
        """Manifest-ready summary of the modeled frame."""
        return {
            "policy": self.policy,
            "frame_ns": self.frame_ns,
            "compute_ns": self.compute_ns,
            "dram_ns": self.dram_ns,
            "llc_ns": self.llc_ns,
            "exposed_ns": self.exposed_ns,
            "accesses": self.accesses,
            "misses": self.misses,
            "dram_row_hit_rate": self.dram_row_hit_rate,
            "scale": self.scale,
            "fps": self.fps,
            "fps_full_scale": self.fps_full_scale,
        }

    @property
    def fps(self) -> float:
        """Frames per second at the trace's own (possibly reduced) scale."""
        return 1e9 / self.frame_ns if self.frame_ns > 0 else 0.0

    @property
    def fps_full_scale(self) -> float:
        """FPS corrected to the paper's full frame resolution.

        A trace generated at linear scale ``s`` has ``s**2`` of the
        full frame's work, so the full-scale frame would take about
        ``frame_ns / s**2``.
        """
        if self.frame_ns <= 0:
            return 0.0
        return 1e9 / (self.frame_ns / (self.scale * self.scale))

    def speedup_over(self, baseline: "FrameTiming") -> float:
        return baseline.frame_ns / self.frame_ns


class FrameTimingSimulator:
    """Reusable timing simulator for one system configuration.

    ``engine`` selects the LLC replay that produces the request log
    (``"auto"``, ``"fast"`` or ``"reference"``, as for
    :func:`~repro.sim.offline.simulate_trace`); timings are identical
    whichever engine runs.
    """

    def __init__(self, system: SystemConfig, engine: str = "auto") -> None:
        self.system = system
        self.engine = engine

    def run(
        self,
        trace: Trace,
        policy: PolicyLike,
        spans: Optional[SpanRecorder] = None,
    ) -> FrameTiming:
        system = self.system
        if spans is None:
            spans = SpanRecorder()
        result = simulate_trace(
            trace,
            policy,
            system.llc,
            spans=spans,
            engine=self.engine,
            record=True,
        )
        integrate_started = time.perf_counter()
        with spans.span("integrate"):
            totals = self._integrate(trace, result.log)
        integrate_seconds = time.perf_counter() - integrate_started
        return FrameTiming(
            policy=result.policy,
            accesses=len(trace),
            misses=result.stats.misses,
            scale=float(trace.meta.get("scale", system.scale or 1.0)),
            setup_seconds=result.setup_seconds,
            replay_seconds=result.replay_seconds + integrate_seconds,
            engine=result.log.engine,
            **totals,
        )

    def _integrate(self, trace: Trace, log: ReplayLog) -> Dict[str, float]:
        """Frame time of a replay log, window by window.

        Every window closes after ``WINDOW_ACCESSES`` accesses, plus one
        final close at the end of the trace (empty when the length is a
        multiple of the window).  Per-window counts are bincounts; only
        the sum over windows runs in Python, in window order.
        """
        system = self.system
        shader = ShaderModel(system.gpu)
        llc_timing = LLCTimingModel(system.llc, system.gpu)
        dram = DRAMTimingModel(system.dram)

        num_windows = len(trace) // WINDOW_ACCESSES + 1
        windows = np.arange(len(trace), dtype=np.int64) // WINDOW_ACCESSES
        stream_keys = [int(s) for s in Stream]
        stream_counts = np.bincount(
            windows * len(stream_keys) + trace.streams,
            minlength=num_windows * len(stream_keys),
        ).reshape(num_windows, len(stream_keys))
        lookups = np.bincount(windows, minlength=num_windows).tolist()
        misses = np.bincount(
            windows[log.outcomes == MISS], minlength=num_windows
        ).tolist()
        service = dram.serve_windows(
            log.request_address,
            log.request_index // WINDOW_ACCESSES,
            num_windows,
        )

        total_ns = 0.0
        compute_total = 0.0
        dram_total = 0.0
        llc_total = 0.0
        exposed_total = 0.0
        for window, counts in enumerate(stream_counts.tolist()):
            dram_ns = service.service_ns[window]
            compute_ns = shader.compute_ns(dict(zip(stream_keys, counts)))
            llc_ns = llc_timing.occupancy_ns(lookups[window])
            miss_latency = service.latency_ns[window] + llc_timing.hit_latency_ns
            exposed_ns = shader.exposed_latency_ns(misses[window], miss_latency)
            total_ns += max(compute_ns, dram_ns, llc_ns) + exposed_ns
            compute_total += compute_ns
            dram_total += dram_ns
            llc_total += llc_ns
            exposed_total += exposed_ns
        return {
            "frame_ns": total_ns,
            "compute_ns": compute_total,
            "dram_ns": dram_total,
            "llc_ns": llc_total,
            "exposed_ns": exposed_total,
            "dram_row_hit_rate": dram.row_hit_rate,
        }


def simulate_frame_timing(
    trace: Trace,
    policy: PolicyLike,
    system: Optional[SystemConfig] = None,
) -> FrameTiming:
    """Convenience wrapper around :class:`FrameTimingSimulator`."""
    return FrameTimingSimulator(system or SystemConfig()).run(trace, policy)


def average_fps(timings: Iterable[FrameTiming]) -> float:
    """Average full-scale FPS over frames (harmonic would overweight
    slow frames; the paper reports plain per-frame averages)."""
    values = [timing.fps_full_scale for timing in timings]
    return sum(values) / len(values) if values else 0.0
