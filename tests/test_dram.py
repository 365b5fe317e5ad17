"""DRAM timing-model tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DDR3_1600, DDR3_1867, DRAMConfig
from repro.errors import ConfigError
from repro.gpu.dram import DRAMTimingModel


#: Blocks interleave over channels then banks; this stride returns to
#: channel 0 / bank 0 within the same DRAM row.
SAME_BANK_STRIDE = DDR3_1600.channels * DDR3_1600.banks_per_channel * 64


def test_row_hit_tracking():
    dram = DRAMTimingModel(DDR3_1600)
    dram.request(0)
    dram.request(SAME_BANK_STRIDE)  # same channel+bank, same row
    assert dram.total_row_hits == 1
    assert dram.row_hit_rate == pytest.approx(0.5)


def test_row_conflict_detected():
    dram = DRAMTimingModel(DDR3_1600)
    config = DDR3_1600
    dram.request(0)
    # Same channel and bank (block + channels*banks blocks), new row.
    far = config.row_bytes * config.channels * config.banks_per_channel
    dram.request(far)
    assert dram.total_row_hits == 0


def test_window_time_scales_with_requests():
    dram = DRAMTimingModel(DDR3_1600)
    for block in range(10):
        dram.request(block * 64)
    short = dram.drain_window_ns()
    for block in range(100):
        dram.request(block * 64)
    long = dram.drain_window_ns()
    assert long > short > 0.0


def test_drain_resets_window_but_keeps_rows_open():
    dram = DRAMTimingModel(DDR3_1600)
    dram.request(0)
    dram.drain_window_ns()
    assert dram.drain_window_ns() == 0.0
    dram.request(SAME_BANK_STRIDE)  # row stayed open across windows
    assert dram.total_row_hits == 1


def test_requests_spread_over_channels():
    dram = DRAMTimingModel(DDR3_1600)
    # Alternate channels: per-channel data time is half the total.
    for block in range(64):
        dram.request(block * 64)
    one_channel = DRAMTimingModel(DRAMConfig(channels=1))
    for block in range(64):
        one_channel.request(block * 64)
    assert dram.drain_window_ns() < one_channel.drain_window_ns()


def test_faster_part_is_faster():
    slow = DRAMTimingModel(DDR3_1600)
    fast = DRAMTimingModel(DDR3_1867)
    for block in range(0, 4096, 128):  # row misses
        slow.request(block * 64)
        fast.request(block * 64)
    assert fast.drain_window_ns() < slow.drain_window_ns()


def test_average_latency_between_hit_and_miss():
    dram = DRAMTimingModel(DDR3_1600)
    dram.request(0)
    dram.request(64)
    latency = dram.average_latency_ns()
    assert DDR3_1600.row_hit_ns() <= latency <= DDR3_1600.row_miss_ns()


def test_bank_count_must_be_power_of_two():
    with pytest.raises(ConfigError, match="powers of two"):
        DRAMConfig(banks_per_channel=6)


def _serve_one_by_one(dram, addresses, windows, num_windows):
    service, latency = [], []
    position = 0
    for window in range(num_windows):
        while position < len(addresses) and windows[position] == window:
            dram.request(addresses[position])
            position += 1
        service.append(dram.drain_window_ns())
        latency.append(dram.average_latency_ns())
    return service, latency


@settings(max_examples=60, deadline=None)
@given(
    channels=st.sampled_from([1, 2, 4]),
    banks=st.sampled_from([1, 2, 8]),
    row_bytes=st.sampled_from([128, 8192]),
    timings=st.tuples(*[st.integers(0, 20)] * 3),
    warmup=st.lists(st.integers(0, 1 << 16), max_size=4),
    requests=st.lists(
        st.tuples(st.integers(0, (1 << 20) - 1), st.booleans()), max_size=200
    ),
)
def test_serve_windows_matches_per_request_accounting(
    channels, banks, row_bytes, timings, warmup, requests
):
    tcas, trcd, trp = timings
    config = DRAMConfig(
        channels=channels, banks_per_channel=banks, row_bytes=row_bytes,
        tcas=tcas, trcd=trcd, trp=trp,
    )
    # Window boundaries fall where the flag is set.
    addresses = [address for address, _ in requests]
    windows, window = [], 0
    for _, boundary in requests:
        window += boundary
        windows.append(window)
    num_windows = window + 2
    one_by_one, batch = DRAMTimingModel(config), DRAMTimingModel(config)
    for address in warmup:  # open rows and an undrained window carry over
        one_by_one.request(address)
        batch.request(address)
    expected = _serve_one_by_one(one_by_one, addresses, windows, num_windows)
    served = batch.serve_windows(
        np.array(addresses, dtype=np.uint64),
        np.array(windows, dtype=np.int64),
        num_windows,
    )
    assert (served.service_ns, served.latency_ns) == expected
    assert batch.total_row_hits == one_by_one.total_row_hits
    assert batch.total_requests == one_by_one.total_requests
    assert batch.row_hit_rate == one_by_one.row_hit_rate
