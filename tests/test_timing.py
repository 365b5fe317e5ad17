"""Frame-timing simulator tests."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_trace, reference_frame_timing
from repro.config import (
    DDR3_1867,
    GPU_SMALL,
    KB,
    CacheParams,
    DRAMConfig,
    LLCConfig,
    SystemConfig,
    paper_baseline,
)
from repro.core.registry import available_policies
from repro.fastsim import supports_policy
from repro.gpu import timing as timing_module
from repro.gpu.llc_timing import LLCTimingModel
from repro.gpu.shader import ShaderModel
from repro.gpu.timing import (
    WINDOW_ACCESSES,
    FrameTimingSimulator,
    average_fps,
    simulate_frame_timing,
)
from repro.sim.offline import simulate_trace
from repro.streams import Stream
from repro.trace import synth
from repro.trace.record import Trace


@pytest.fixture(scope="module")
def system():
    return paper_baseline(llc_mb=8, scale=0.125)


@pytest.fixture(scope="module")
def trace():
    return synth.producer_consumer(512, 6, consume_fraction=0.7, gap_blocks=2048)


def test_frame_time_positive(system, trace):
    timing = simulate_frame_timing(trace, "drrip", system)
    assert timing.frame_ns > 0
    assert timing.fps > 0
    assert timing.accesses == len(trace)


def test_breakdown_components_bounded(system, trace):
    timing = simulate_frame_timing(trace, "drrip", system)
    # Windows take max(compute, dram, llc) + exposed, so the total is
    # bounded by the sum of all components and is at least the largest.
    upper = (
        timing.compute_ns + timing.dram_ns + timing.llc_ns + timing.exposed_ns
    )
    assert timing.frame_ns <= upper + 1e-6
    assert timing.frame_ns >= max(
        timing.compute_ns, timing.dram_ns, timing.llc_ns
    )


def test_fewer_misses_is_faster(system, trace):
    simulator = FrameTimingSimulator(system)
    opt = simulator.run(trace, "belady")
    lru = simulator.run(trace, "lru")
    assert opt.misses < lru.misses
    assert opt.frame_ns < lru.frame_ns
    assert opt.speedup_over(lru) > 1.0


def test_faster_dram_is_faster(system, trace):
    fast = dataclasses.replace(system, dram=DDR3_1867)
    base_t = simulate_frame_timing(trace, "drrip", system)
    fast_t = simulate_frame_timing(trace, "drrip", fast)
    assert fast_t.frame_ns < base_t.frame_ns


def test_smaller_gpu_is_slower(system, trace):
    small = dataclasses.replace(system, gpu=GPU_SMALL)
    base_t = simulate_frame_timing(trace, "drrip", system)
    small_t = simulate_frame_timing(trace, "drrip", small)
    assert small_t.frame_ns > base_t.frame_ns


def test_weaker_gpu_damps_policy_speedups(system, trace):
    """The paper's Section-5.4 observation: a less aggressive GPU has
    internal bottlenecks, so rendering is less sensitive to memory
    system optimizations."""
    small = dataclasses.replace(system, gpu=GPU_SMALL)
    base_speedup = simulate_frame_timing(trace, "belady", system).speedup_over(
        simulate_frame_timing(trace, "lru", system)
    )
    small_speedup = simulate_frame_timing(trace, "belady", small).speedup_over(
        simulate_frame_timing(trace, "lru", small)
    )
    assert base_speedup > 1.0
    assert small_speedup < base_speedup


def test_full_scale_fps_correction():
    timing = dataclasses.replace(
        simulate_frame_timing(
            synth.cyclic_scan(256, 2), "lru", paper_baseline(scale=0.125)
        ),
        scale=0.5,
    )
    assert timing.fps_full_scale == pytest.approx(timing.fps * 0.25)


def test_average_fps():
    a = simulate_frame_timing(synth.cyclic_scan(64, 2), "lru")
    assert average_fps([a, a]) == pytest.approx(a.fps_full_scale)
    assert average_fps([]) == 0.0


def test_shader_model_exposed_latency_scales_with_contexts():
    big = ShaderModel(paper_baseline().gpu)
    small = ShaderModel(GPU_SMALL)
    assert small.exposed_latency_ns(100, 50.0) > big.exposed_latency_ns(100, 50.0)
    assert big.exposed_latency_ns(0, 50.0) == 0.0


def test_shader_compute_monotone_in_work():
    model = ShaderModel(paper_baseline().gpu)
    light = model.compute_ns({int(Stream.Z): 10})
    heavy = model.compute_ns({int(Stream.Z): 10, int(Stream.TEXTURE): 100})
    assert heavy > light


def test_llc_timing_occupancy():
    system = paper_baseline()
    model = LLCTimingModel(system.llc, system.gpu)
    assert model.occupancy_ns(0) == 0.0
    assert model.occupancy_ns(1600) == pytest.approx(100.0)  # 4 banks @ 4 GHz


# -- equivalence with the per-access oracle -----------------------------------
#
# ``reference_frame_timing`` (tests/helpers.py) integrates per access:
# a live reference LLC and one DRAM request at a time.  The log-driven
# simulator must reproduce its ``to_dict()`` exactly, on either replay
# engine.

#: Every registry policy, with and without uncached displayable color.
ALL_POLICIES = tuple(
    name for base in available_policies() for name in (base, base + "+ucd")
)


def _engines(policy):
    return ("reference", "fast") if supports_policy(policy) else ("reference",)


def _assert_matches_oracle(system, trace, policy):
    expected = reference_frame_timing(system, trace, policy)
    for engine in _engines(policy):
        timing = FrameTimingSimulator(system, engine=engine).run(trace, policy)
        assert timing.to_dict() == expected, engine
        assert timing.engine == engine


SMALL_SYSTEM = SystemConfig(
    llc=LLCConfig(params=CacheParams(4 * KB, ways=4), banks=2, sample_period=4),
)


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_every_policy_matches_oracle(policy):
    trace = synth.interleaved_streams(
        160, 3,
        streams=(Stream.Z, Stream.RT, Stream.TEXTURE, Stream.DISPLAY, Stream.OTHER),
    )
    # Small windows so one short trace spans many of them.
    with mock.patch.object(timing_module, "WINDOW_ACCESSES", 64):
        _assert_matches_oracle(SMALL_SYSTEM, trace, policy)


_LLC_GEOMETRIES = (
    LLCConfig(params=CacheParams(2 * KB, ways=2), banks=1, sample_period=4),
    LLCConfig(params=CacheParams(4 * KB, ways=4), banks=2, sample_period=4),
    LLCConfig(params=CacheParams(8 * KB, ways=4, block_bytes=128), banks=2,
              sample_period=4),
)

_DRAM_CONFIGS = (
    DRAMConfig(),
    DRAMConfig(channels=1, banks_per_channel=2, row_bytes=1 * KB),
    DRAMConfig(channels=4, banks_per_channel=4, row_bytes=2 * KB, tcas=9,
               trcd=11, trp=13),
)

random_entries = st.lists(
    st.tuples(
        # Blocks span several DRAM rows, banks and channels.
        st.integers(min_value=0, max_value=1023),
        st.integers(min_value=0, max_value=7),  # stream
        st.booleans(),  # write
    ),
    max_size=400,
)


@settings(max_examples=120, deadline=None)
@given(
    entries=random_entries,
    policy=st.sampled_from(ALL_POLICIES),
    llc=st.sampled_from(_LLC_GEOMETRIES),
    dram=st.sampled_from(_DRAM_CONFIGS),
    window=st.sampled_from((16, 64, 256)),
    exact_multiple=st.booleans(),
)
def test_random_traces_match_oracle(
    entries, policy, llc, dram, window, exact_multiple
):
    if exact_multiple:
        # A trace that ends on a window boundary leaves one trailing,
        # empty window for the final close.
        entries = entries[: len(entries) // window * window]
    trace = make_trace(entries)
    system = SystemConfig(llc=llc, dram=dram)
    with mock.patch.object(timing_module, "WINDOW_ACCESSES", window):
        _assert_matches_oracle(system, trace, policy)


@pytest.mark.parametrize("policy", ["drrip+ucd", "gs-drrip+ucd", "gspc+ucd"])
def test_window_multiple_trace_matches_oracle(system, policy):
    """A trace of exactly two full windows at the real window size."""
    trace = synth.producer_consumer(512, 6, consume_fraction=0.7, gap_blocks=2048)
    trace = trace.slice(0, 2 * WINDOW_ACCESSES)
    assert len(trace) == 2 * WINDOW_ACCESSES
    _assert_matches_oracle(system, trace, policy)


@pytest.mark.parametrize("policy", ["lru", "belady", "gspc+ucd", "ship-mem"])
def test_trace_without_dram_requests_matches_oracle(system, policy):
    """Only an empty trace issues no DRAM request (a cold cache misses
    on the first access); the row-hit rate must not divide by zero."""
    empty = Trace(
        np.zeros(0, dtype=np.uint64),
        np.zeros(0, dtype=np.uint8),
        np.zeros(0, dtype=bool),
        {"name": "empty"},
    )
    _assert_matches_oracle(system, empty, policy)
    timing = FrameTimingSimulator(system).run(empty, policy)
    assert timing.dram_row_hit_rate == 0.0
    assert timing.frame_ns == 0.0


def test_writeback_precedes_the_evicting_read():
    """A dirty victim's write-back reaches DRAM before the read of the
    miss that evicted it.

    Direct-mapped two-set LLC; blocks 0, 128 and 144 share LLC set 0
    and DRAM channel 0 / bank 0.  Block 0 sits in DRAM row 0, blocks
    128 and 144 in row 1.  Writing block 0 then reading 128 evicts the
    dirty 0: its write-back hits the row 0 the first miss opened, then
    the read opens row 1, which the read of 144 hits — two row hits in
    four requests.  Issuing the read before the write-back would leave
    row 0 open instead and score none.
    """
    system = SystemConfig(
        llc=LLCConfig(params=CacheParams(128, ways=1), banks=1, sample_period=2),
    )
    trace = make_trace(
        [(0, Stream.RT, True), (128, Stream.TEXTURE), (144, Stream.TEXTURE)]
    )
    expected = reference_frame_timing(system, trace, "lru")
    assert expected["dram_row_hit_rate"] == 0.5
    _assert_matches_oracle(system, trace, "lru")
    for engine in ("reference", "fast"):
        log = simulate_trace(trace, "lru", system.llc, engine=engine, record=True).log
        assert log.request_index.tolist() == [0, 1, 1, 2]
        assert log.request_writeback.tolist() == [False, True, False, False]
        assert log.request_address.tolist() == [0, 0, 128 * 64, 144 * 64]


def test_timing_records_engine_outside_to_dict(system, trace):
    reference = FrameTimingSimulator(system, engine="reference").run(trace, "gspc")
    auto = FrameTimingSimulator(system).run(trace, "gspc")
    uncovered = FrameTimingSimulator(system).run(trace, "gspc+bypass")
    assert (reference.engine, auto.engine, uncovered.engine) == (
        "reference", "fast", "reference",
    )
    assert "engine" not in auto.to_dict()
    assert auto.to_dict() == reference.to_dict()
