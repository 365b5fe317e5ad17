"""Fast replay engine: dispatch rules and reference equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import KB, CacheParams, LLCConfig
from repro.core.ship import SHiPMemPolicy
from repro.errors import ConfigError, SimulationError
from repro.fastsim import (
    ENGINES,
    FAST_POLICIES,
    UNCOVERED_POLICIES,
    choose_engine,
    fast_simulate_trace,
    supports_policy,
)
from repro.fastsim.kernels import kernel_for, kernel_source, ship_signature_table
from repro.obs.events import SamplingObserver
from repro.sim.offline import build_llc, simulate_trace
from repro.streams import Stream
from repro.trace import synth
from repro.trace.record import Trace
from repro.utils.bitops import mix_bits

from helpers import make_trace

TINY = LLCConfig(params=CacheParams(2 * KB, ways=2), banks=1, sample_period=4)

small_traces = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=63),  # block
        st.integers(min_value=0, max_value=7),  # stream
        st.booleans(),  # write
    ),
    min_size=1,
    max_size=300,
)


def _trace_from(entries) -> Trace:
    addresses = np.array([b * 64 for b, _, _ in entries], dtype=np.uint64)
    streams = np.array([s for _, s, _ in entries], dtype=np.uint8)
    writes = np.array([w for _, _, w in entries], dtype=bool)
    return Trace(addresses, streams, writes, {"name": "hyp"})


def _fingerprint(result):
    return (
        result.policy,
        result.accesses,
        result.stats.snapshot(),
        result.extras,
    )


# -- equivalence with the reference engine ------------------------------------


@settings(max_examples=25, deadline=None)
@given(entries=small_traces, policy=st.sampled_from(FAST_POLICIES))
def test_fast_engine_matches_reference(entries, policy):
    """Identical SimResult stats/extras on arbitrary small traces."""
    trace = _trace_from(entries)
    reference = simulate_trace(trace, policy, TINY, engine="reference")
    fast = simulate_trace(trace, policy, TINY, engine="fast")
    assert _fingerprint(fast) == _fingerprint(reference)


@pytest.mark.parametrize("policy", [name + "+ucd" for name in FAST_POLICIES])
def test_fast_engine_matches_reference_with_uncached_streams(policy):
    """Static color/depth bypass accounting matches per stream."""
    trace = synth.interleaved_streams(
        96, 3, streams=(Stream.Z, Stream.RT, Stream.TEXTURE, Stream.DISPLAY)
    )
    reference = simulate_trace(trace, policy, TINY, engine="reference")
    fast = simulate_trace(trace, policy, TINY, engine="fast")
    assert _fingerprint(fast) == _fingerprint(reference)


_GSPC_GEOMETRIES = (
    LLCConfig(params=CacheParams(2 * KB, ways=2), banks=1, sample_period=4),
    LLCConfig(params=CacheParams(4 * KB, ways=4), banks=2, sample_period=4),
    LLCConfig(params=CacheParams(8 * KB, ways=4), banks=4, sample_period=8),
)


@settings(max_examples=40, deadline=None)
@given(
    entries=small_traces,
    policy=st.sampled_from(("gspc", "gspztc", "gspztc+tse")),
    geometry=st.sampled_from(_GSPC_GEOMETRIES),
    ucd=st.booleans(),
)
def test_gspc_family_matches_reference(entries, policy, geometry, ucd):
    """Epoch/TSE state machine and PROD/CONS protection survive the
    kernel specialization across stream mixes, geometries, and ucd."""
    trace = _trace_from(entries)
    name = policy + "+ucd" if ucd else policy
    reference = simulate_trace(trace, name, geometry, engine="reference")
    fast = simulate_trace(trace, name, geometry, engine="fast")
    assert _fingerprint(fast) == _fingerprint(reference)


def test_fast_engine_matches_reference_on_rt_tex_pattern():
    """RT->TEX consumption counters survive the kernel specialization."""
    trace = synth.producer_consumer(24, 4, consume_fraction=0.8)
    for policy in ("drrip", "srrip"):
        reference = simulate_trace(trace, policy, TINY, engine="reference")
        fast = simulate_trace(trace, policy, TINY, engine="fast")
        assert _fingerprint(fast) == _fingerprint(reference)
        assert reference.stats.rt_consumed > 0  # the pattern fired at all


def test_fast_result_reports_timing_and_meta():
    trace = synth.cyclic_scan(64, 3)
    result = fast_simulate_trace(trace, "lru", TINY)
    assert result.accesses == len(trace)
    assert result.trace_meta["name"] == "cyclic_scan(64x3)"
    assert result.elapsed_seconds >= result.replay_seconds >= 0.0


# -- SHiP-mem and GS-DRRIP kernels --------------------------------------------

_LOG_FIELDS = ("outcomes", "request_index", "request_address", "request_writeback")


def _assert_engines_agree(trace, policy, config):
    """Equal ``SimResult`` from the plain and the logged kernel, and an
    equal ``ReplayLog`` from the logged one.  ``policy`` is a registry
    name or a zero-argument factory (a bound instance is single-use)."""
    build = policy if callable(policy) else (lambda: policy)
    for record in (False, True):
        reference = simulate_trace(
            trace, build(), config, engine="reference", record=record
        )
        fast = simulate_trace(trace, build(), config, engine="fast", record=record)
        assert _fingerprint(fast) == _fingerprint(reference)
        if record:
            for field in _LOG_FIELDS:
                assert np.array_equal(
                    getattr(fast.log, field), getattr(reference.log, field)
                ), field
    return reference


#: One set of two ways: every miss after the second evicts.
ONE_SET = LLCConfig(params=CacheParams(128, ways=2), banks=1, sample_period=2)


def test_ship_counters_saturate_at_seven_and_zero():
    """Ten hits push region 0's counter to the 3-bit ceiling; a run of
    never-reused evictions then drains it and keeps hitting the floor.
    A kernel that did not clamp either end would insert differently."""
    entries = [(0, Stream.TEXTURE)] * 11
    entries += [(block, Stream.TEXTURE) for block in range(1, 31)]
    entries += [(30, Stream.TEXTURE), (31, Stream.TEXTURE), (32, Stream.TEXTURE)]
    trace = make_trace(entries)
    signature = SHiPMemPolicy._signature(0)
    history = []
    llc = build_llc("ship-mem", ONE_SET)
    for address, stream, write in zip(
        trace.addresses.tolist(), trace.streams.tolist(), trace.writes.tolist()
    ):
        llc.access(address, stream, write)
        history.append(llc.policy.shct[0][signature])
    assert history[:11] == [1, 2, 3, 4, 5, 6, 7, 7, 7, 7, 7]
    # Never-reused evictions reach 0 and keep landing on it; the final
    # hit on block 30 then lifts the counter off the floor.
    first_zero = history.index(0)
    floor = history[first_zero:-3]
    assert floor == [0] * len(floor) and len(floor) > 3
    assert history[-3] == 1
    reference = _assert_engines_agree(trace, "ship-mem", ONE_SET)
    assert 0.0 < reference.extras["fill_distant_fraction"]["TEX"] < 1.0


def test_ship_never_reused_eviction_decrements_before_the_fill():
    """Counter 1; two fills, then a third evicts the never-reused first
    block: the decrement to 0 must land before the third fill reads the
    counter, so only that fill is inserted at the distant RRPV."""
    trace = make_trace([(0, Stream.Z), (1, Stream.Z), (2, Stream.Z)])
    reference = _assert_engines_agree(trace, "ship-mem", ONE_SET)
    assert reference.stats.evictions == 1
    assert reference.extras["fill_distant_fraction"]["Z"] == pytest.approx(1 / 3)
    # A reused victim leaves the counter alone: all three fills are long.
    trace = make_trace([(0, Stream.Z), (0, Stream.Z), (1, Stream.Z), (2, Stream.Z)])
    reference = _assert_engines_agree(trace, "ship-mem", ONE_SET)
    assert reference.extras["fill_distant_fraction"]["Z"] == 0.0


def test_ship_banks_keep_separate_counter_tables():
    """Two direct-mapped sets on two banks: draining region 0's counter
    in bank 0 leaves bank 1's counter for the same region at 1."""
    config = LLCConfig(params=CacheParams(128, ways=1), banks=2, sample_period=2)
    trace = make_trace([(0, Stream.Z), (2, Stream.Z), (1, Stream.Z)])
    reference = _assert_engines_agree(trace, "ship-mem", config)
    assert reference.extras["fill_distant_fraction"]["Z"] == pytest.approx(1 / 3)


def test_ship_signature_table_matches_mix_bits():
    table = ship_signature_table()
    assert table is ship_signature_table()  # built once per process
    assert len(table) == 2**14
    for region in range(2**14):
        assert table[region] == mix_bits(region) & 0x3FFF


def test_ship_kernel_rejects_blocks_larger_than_a_region():
    config = LLCConfig(
        params=CacheParams(64 * KB, ways=2, block_bytes=32 * KB), banks=1
    )
    trace = make_trace([(0, Stream.Z)])
    with pytest.raises(SimulationError, match="at most 16384 bytes"):
        simulate_trace(trace, "ship-mem", config, engine="fast")


def _dueling_trace() -> Trace:
    """Z reuses a working set that fits; TEX cycles over twice the
    capacity, so BRRIP insertion is what keeps some of it resident."""
    entries = []
    for _ in range(12):
        for i in range(512):
            entries.append((10_000 + i, Stream.TEXTURE))
            if i % 4 == 0:
                entries.append(((i // 4) % 128, Stream.Z, i % 8 == 0))
    return make_trace(entries)


DUEL_LLC = LLCConfig(params=CacheParams(16 * KB, ways=4), banks=2, sample_period=8)


@pytest.mark.parametrize("psel_bits", [10, 6])
def test_gs_drrip_classes_converge_on_different_winners(psel_bits):
    """Z's duel picks SRRIP while TEX's picks BRRIP; with 6-bit PSELs
    both counters also pin at their saturation bounds."""
    from repro.core.dueling import LEADER_A, LEADER_B
    from repro.core.gs_drrip import GSDRRIPPolicy

    def build():
        return GSDRRIPPolicy(psel_bits=psel_bits)

    trace = _dueling_trace()
    llc = build_llc(build(), DUEL_LLC)
    for address, stream, write in zip(
        trace.addresses.tolist(), trace.streams.tolist(), trace.writes.tolist()
    ):
        llc.access(address, stream, write)
    psels = llc.policy.psels
    assert psels[0].winner == LEADER_A  # Z
    assert psels[1].winner == LEADER_B  # TEX
    if psel_bits == 6:
        assert (psels[0].counter.value, psels[1].counter.value) == (0, 63)
    _assert_engines_agree(trace, build, DUEL_LLC)


@pytest.mark.parametrize("policy", ["gs-drrip4", "gs-drrip4+ucd", "gs-drrip+ucd"])
def test_gs_drrip_variants_match_reference(policy):
    _assert_engines_agree(_dueling_trace(), policy, DUEL_LLC)
    trace = synth.interleaved_streams(
        96, 3, streams=(Stream.Z, Stream.RT, Stream.TEXTURE, Stream.DISPLAY)
    )
    _assert_engines_agree(trace, policy, TINY)


def _narrow(sets, ways, banks):
    return LLCConfig(
        params=CacheParams(sets * ways * 64, ways=ways), banks=banks, sample_period=2
    )


#: Ways below the four stream classes, at GS-DRRIP's minimum of eight
#: sets (one constituency hosting four duels) and above it.
_GS_DRRIP_GEOMETRIES = (
    _narrow(8, 1, 1),
    _narrow(8, 2, 2),
    _narrow(8, 3, 1),
    _narrow(16, 2, 4),
)
#: SHiP-mem needs no leader sets: single-set caches and several banks.
_SHIP_GEOMETRIES = (
    _narrow(1, 1, 1),
    _narrow(1, 3, 1),
    _narrow(4, 2, 4),
    _narrow(16, 2, 4),
)
_NARROW_CASES = [
    (policy, geometry)
    for policies, geometries in (
        (("gs-drrip", "gs-drrip4"), _GS_DRRIP_GEOMETRIES),
        (("ship-mem", "ship-mem+ucd"), _SHIP_GEOMETRIES),
    )
    for policy in policies
    for geometry in geometries
]


@settings(max_examples=40, deadline=None)
@given(entries=small_traces, case=st.sampled_from(_NARROW_CASES))
def test_ship_and_gs_drrip_match_reference_on_narrow_geometries(entries, case):
    policy, geometry = case
    _assert_engines_agree(_trace_from(entries), policy, geometry)


def test_gs_drrip_below_minimum_sets_raises_on_both_engines():
    config = _narrow(4, 2, 1)
    trace = make_trace([(0, Stream.Z)])
    messages = []
    for engine in ("reference", "fast"):
        with pytest.raises(ConfigError) as excinfo:
            simulate_trace(trace, "gs-drrip", config, engine=engine)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1] == "4 sets cannot host 4 independent duels"


def test_gs_drrip_params_are_per_class_not_drrips():
    """``kernel_params`` keys on the kernel: GS-DRRIP also has
    ``psel_bits`` but must get one role list per stream class."""
    from repro.cache.geometry import CacheGeometry
    from repro.core.registry import make_policy
    from repro.fastsim.kernels import kernel_params

    geometry = CacheGeometry.from_config(DUEL_LLC)
    roles = kernel_params(make_policy("gs-drrip"), geometry)["roles"]
    assert len(roles) == 4 and len(roles[0]) == geometry.num_sets
    assert len({tuple(class_roles) for class_roles in roles}) == 4
    drrip_roles = kernel_params(make_policy("drrip"), geometry)["roles"]
    assert len(drrip_roles) == geometry.num_sets


# -- dispatch rules -----------------------------------------------------------


def test_engines_tuple_and_coverage():
    assert ENGINES == ("reference", "fast", "auto")
    for policy in FAST_POLICIES:
        assert supports_policy(policy)
        assert supports_policy(policy + "+ucd")
    for policy in ("gspc", "gspc+ucd", "gspztc", "gspztc+tse"):
        assert supports_policy(policy)
    for policy in ("ship-mem", "ship-mem+ucd", "gs-drrip", "gs-drrip4+ucd"):
        assert supports_policy(policy)
    for policy in ("gspc+bypass", "brrip", "dip"):
        assert not supports_policy(policy)


def test_every_paper_experiment_policy_takes_the_fast_path():
    """fig12/14/15-17, table6, the ablation ladder and the timing
    cross-check replay nothing on the reference engine under auto."""
    from repro.experiments import ablation, fig12, fig14, fig15, fig17, table6
    from repro.experiments import timing_models

    rosters = (
        ("drrip",) + fig12.POLICIES,
        fig14.POLICIES,
        (fig15.BASELINE,) + fig15.POLICIES,  # fig16 reuses fig15's roster
        fig17.POLICIES,
        tuple(table6.EVALUATED),
        ablation.LADDER,
        (timing_models.BASELINE,) + timing_models.POLICIES,
    )
    for roster in rosters:
        for policy in roster:
            assert choose_engine("auto", policy) == "fast", policy


def test_fast_policies_derived_from_registry():
    """The covered list tracks the registry, not a hand-written tuple."""
    from repro.core.registry import available_policies

    assert set(FAST_POLICIES) <= set(available_policies())
    assert "gspc" in FAST_POLICIES
    assert "gspc+bypass" not in FAST_POLICIES


def test_choose_engine_auto_falls_back_for_uncovered_policy():
    assert choose_engine("auto", "gspc+bypass") == "reference"
    assert choose_engine("auto", "drrip") == "fast"
    assert choose_engine("auto", "gspc") == "fast"


def test_choose_engine_auto_falls_back_under_observer():
    observer = SamplingObserver()
    assert choose_engine("auto", "drrip", observer) == "reference"


def test_choose_engine_reference_always_allowed():
    assert choose_engine("reference", "gspc") == "reference"
    assert choose_engine("reference", "drrip") == "reference"


def test_choose_engine_rejects_unknown_engine():
    with pytest.raises(SimulationError, match="unknown engine"):
        choose_engine("turbo", "drrip")


_BYPASS_REASON = (
    "GSPCBypassPolicy subclasses GSPCPolicy and overrides should_bypass"
)


def test_choose_engine_fast_rejects_uncovered_policy():
    with pytest.raises(SimulationError) as excinfo:
        choose_engine("fast", "gspc+bypass")
    message = str(excinfo.value)
    assert "not covered" in message
    assert _BYPASS_REASON in message
    # The message enumerates the covered and uncovered policies dynamically.
    for name in FAST_POLICIES + UNCOVERED_POLICIES:
        assert name in message


def test_uncovered_policies_name_the_hooks_they_override():
    assert UNCOVERED_POLICIES == ("bip", "brrip", "dip", "gspc+bypass")
    reasons = {}
    for name in UNCOVERED_POLICIES:
        with pytest.raises(SimulationError) as excinfo:
            choose_engine("fast", name)
        reasons[name] = str(excinfo.value).split(": ", 1)[1].split(" (", 1)[0]
    assert reasons == {
        "bip": "BIPPolicy subclasses LRUPolicy and overrides on_fill",
        "brrip": "BRRIPPolicy subclasses RRIPPolicy and overrides on_fill",
        "dip": "DIPPolicy subclasses LRUPolicy and overrides on_fill",
        "gspc+bypass": _BYPASS_REASON,
    }


def test_gspc_subclass_with_overridden_hooks_takes_reference_path():
    """Exact-type dispatch: a subclass's hook overrides must run."""
    from repro.core.gspc import GSPCPolicy

    class TweakedGSPC(GSPCPolicy):
        def on_hit(self, ctx):  # pragma: no cover - never simulated
            super().on_hit(ctx)

    assert supports_policy(GSPCPolicy())
    assert not supports_policy(TweakedGSPC())
    assert choose_engine("auto", TweakedGSPC()) == "reference"
    assert not supports_policy("gspc+bypass")  # registry-named subclass


def test_choose_engine_fast_rejects_observer():
    with pytest.raises(SimulationError, match="observer"):
        choose_engine("fast", "drrip", SamplingObserver())


def test_fast_simulate_trace_rejects_uncovered_policy():
    trace = synth.cyclic_scan(8, 1)
    with pytest.raises(SimulationError, match="no fast kernel"):
        fast_simulate_trace(trace, "gspc+bypass", TINY)


def test_simulate_trace_unknown_engine_raises():
    trace = synth.cyclic_scan(8, 1)
    with pytest.raises(SimulationError, match="unknown engine"):
        simulate_trace(trace, "drrip", TINY, engine="turbo")


# -- generated kernels --------------------------------------------------------


def test_kernel_source_is_compilable_python():
    for kind in (
        "nru",
        "lru",
        "srrip",
        "drrip",
        "gs_drrip",
        "ship_mem",
        "belady",
        "gspztc",
        "gspztc_tse",
        "gspc",
    ):
        for logged in (False, True):
            source = kernel_source(kind, logged)
            assert source.startswith("def replay(")
            assert ("log_miss(index)" in source) == logged
            compile(source, f"<{kind}>", "exec")


def test_kernel_for_caches_and_records_source():
    kernel = kernel_for("nru")
    assert kernel is kernel_for("nru")
    assert kernel.__name__ == "replay_nru"
    assert "referenced.index(False, base, end)" in kernel.__source__
    logged = kernel_for("nru", logged=True)
    assert logged is not kernel and logged.__name__ == "replay_nru_logged"


def test_kernel_source_rejects_unknown_kind():
    with pytest.raises(SimulationError, match="no fast kernel"):
        kernel_source("plru")
