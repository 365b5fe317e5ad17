"""DDR3 timing model.

Models what matters for the paper's performance figures: per-channel data
bus occupancy, row-buffer locality (row hits pay tCAS, row misses pay
tRP + tRCD + tCAS), and bank-level parallelism that overlaps row
preparation with data transfer.  Requests are accumulated per *window*
(the frame-time simulator integrates window by window); the model keeps
open-row state across windows.

Requests arrive either one at a time (:meth:`DRAMTimingModel.request`
and :meth:`~DRAMTimingModel.drain_window_ns`) or as a whole replay's
request stream at once (:meth:`~DRAMTimingModel.serve_windows`), which
computes the same cycles with array operations.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

from repro.config import DRAMConfig
from repro.utils.bitops import ilog2


@dataclasses.dataclass
class WindowService:
    """Per-window results of :meth:`DRAMTimingModel.serve_windows`."""

    #: Service time of each window's requests (``drain_window_ns``).
    service_ns: List[float]
    #: Typical request latency at each window's close
    #: (``average_latency_ns``, from the lifetime row-hit rate).
    latency_ns: List[float]


class DRAMTimingModel:
    """Window-based DDR timing with open-page row-buffer policy."""

    def __init__(self, config: DRAMConfig) -> None:
        self.config = config
        self.channel_bits = ilog2(config.channels)
        # Channel interleaving on block address, banks on the next bits.
        self._bank_mask = config.banks_per_channel - 1
        self._row_shift = ilog2(config.row_bytes)
        #: Open row per (channel, bank); -1 = closed.
        self._open_row: List[List[int]] = [
            [-1] * config.banks_per_channel for _ in range(config.channels)
        ]
        self._reset_window()
        # Lifetime counters.
        self.total_requests = 0
        self.total_row_hits = 0

    def _reset_window(self) -> None:
        channels = self.config.channels
        self._data_cycles = [0.0] * channels
        self._prep_cycles = [0.0] * channels

    # -- request accounting -------------------------------------------------

    def request(self, address: int, is_write: bool = False) -> None:
        """Account one 64 B block transfer."""
        config = self.config
        block = address >> 6
        channel = block & (config.channels - 1)
        bank = (block >> self.channel_bits) & self._bank_mask
        row = address >> self._row_shift
        open_rows = self._open_row[channel]
        self.total_requests += 1
        if open_rows[bank] == row:
            self.total_row_hits += 1
            self._prep_cycles[channel] += config.tcas
        else:
            open_rows[bank] = row
            self._prep_cycles[channel] += config.trp + config.trcd + config.tcas
        self._data_cycles[channel] += config.transfer_cycles

    # -- window integration ----------------------------------------------------

    def drain_window_ns(self) -> float:
        """Service time of the window's requests; resets window state.

        Per channel, data-bus occupancy is a hard floor; row preparation
        overlaps across banks, so it only binds when it exceeds the data
        time even after being spread over half the banks (a typical
        achievable bank-level parallelism under an FR-FCFS scheduler).
        """
        config = self.config
        parallelism = self._parallelism()
        worst = 0.0
        for channel in range(config.channels):
            busy = max(
                self._data_cycles[channel],
                self._prep_cycles[channel] / parallelism,
            )
            worst = max(worst, busy)
        self._reset_window()
        return worst * config.cycle_ns

    def serve_windows(
        self, addresses: np.ndarray, windows: np.ndarray, num_windows: int
    ) -> WindowService:
        """Account a whole request stream, window by window.

        ``addresses[k]`` is the byte address of the ``k``-th request in
        issue order and ``windows[k]`` the (non-decreasing) window it
        falls in.  The result — and the model's lifetime counters and
        open rows afterwards — equal calling :meth:`request` for every
        address and closing each window with :meth:`drain_window_ns`
        and :meth:`average_latency_ns`.

        A request hits its row buffer iff the previous request to the
        same (channel, bank) opened the same row, so a stable sort by
        bank puts every request next to its predecessor.  All cycle
        terms are integers, so per-window sums are exact.
        """
        config = self.config
        channels, banks = config.channels, config.banks_per_channel
        addresses = np.asarray(addresses, dtype=np.uint64)
        windows = np.asarray(windows, dtype=np.int64)
        blocks = addresses >> np.uint64(6)
        channel = (blocks & np.uint64(channels - 1)).astype(np.int64)
        bank = (
            (blocks >> np.uint64(self.channel_bits)) & np.uint64(self._bank_mask)
        ).astype(np.int64)
        rows = addresses >> np.uint64(self._row_shift)
        keys = channel * banks + bank

        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        sorted_rows = rows[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = sorted_keys[1:] != sorted_keys[:-1]
        hit_sorted = np.zeros(len(order), dtype=bool)
        hit_sorted[1:] = sorted_rows[1:] == sorted_rows[:-1]
        # A bank's first request compares with the row left open before.
        open_rows = [row for per_channel in self._open_row for row in per_channel]
        first_keys = sorted_keys[first].tolist()
        first_rows = sorted_rows[first].tolist()
        hit_sorted[first] = [
            open_rows[key] == row for key, row in zip(first_keys, first_rows)
        ]
        hits = np.empty(len(order), dtype=bool)
        hits[order] = hit_sorted
        last = np.ones(len(order), dtype=bool)
        last[:-1] = first[1:]
        for key, row in zip(sorted_keys[last].tolist(), sorted_rows[last].tolist()):
            self._open_row[key // banks][key % banks] = row

        cells = windows * channels + channel
        size = num_windows * channels
        requests = np.bincount(cells, minlength=size).reshape(num_windows, channels)
        row_hits = np.bincount(cells[hits], minlength=size).reshape(
            num_windows, channels
        )
        data = (requests * config.transfer_cycles).astype(np.float64)
        prep = (
            row_hits * config.tcas
            + (requests - row_hits) * (config.trp + config.trcd + config.tcas)
        ).astype(np.float64)
        # Requests accounted one at a time but not drained yet belong to
        # the first window.
        data[0] += self._data_cycles
        prep[0] += self._prep_cycles
        busy = np.maximum(data, prep / self._parallelism())
        service_ns = (busy.max(axis=1) * config.cycle_ns).tolist()

        latency_ns = []
        total_requests, total_hits = self.total_requests, self.total_row_hits
        for window_requests, window_hits in zip(
            requests.sum(axis=1).tolist(), row_hits.sum(axis=1).tolist()
        ):
            total_requests += window_requests
            total_hits += window_hits
            latency_ns.append(self._latency_ns(total_hits, total_requests))
        self.total_requests, self.total_row_hits = total_requests, total_hits
        self._reset_window()
        return WindowService(service_ns, latency_ns)

    def _parallelism(self) -> float:
        return max(1.0, self.config.banks_per_channel / 2)

    @property
    def row_hit_rate(self) -> float:
        return self._hit_rate(self.total_row_hits, self.total_requests)

    @staticmethod
    def _hit_rate(row_hits: int, requests: int) -> float:
        if requests == 0:
            return 0.0
        return row_hits / requests

    def _latency_ns(self, row_hits: int, requests: int) -> float:
        config = self.config
        hit = self._hit_rate(row_hits, requests)
        return hit * config.row_hit_ns() + (1.0 - hit) * config.row_miss_ns()

    def average_latency_ns(self) -> float:
        """Typical single-request latency given observed row locality."""
        return self._latency_ns(self.total_row_hits, self.total_requests)
