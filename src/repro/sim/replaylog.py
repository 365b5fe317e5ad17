"""What one LLC replay hands to the timing models.

The paper evaluates a policy in two steps: an offline cache simulator
digests the LLC trace, and a separate timing model turns its misses
into frame time.  A :class:`ReplayLog` is the interface between the two.
Either replay engine records it (``simulate_trace(..., record=True)``),
and :mod:`repro.gpu.timing` / :mod:`repro.gpu.detailed` consume it
without driving a cache themselves.

The log holds the outcome of every trace access and the ordered stream
of DRAM requests the replay issued:

* an access whose outcome is not ``HIT`` (a miss, a statically uncached
  access, or a policy-vetoed fill) requests its own address;
* a dirty eviction writes its victim back.  The write-back is issued
  while the miss that evicted it is being handled, so it comes *before*
  that miss's read in the stream.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.cache.llc import HIT


@dataclasses.dataclass
class ReplayLog:
    """Per-access outcomes and the DRAM request stream of one replay."""

    #: ``MISS`` / ``HIT`` / ``BYPASS`` per trace access (uint8).
    outcomes: np.ndarray
    #: Trace index of the access that issued each DRAM request, in
    #: issue order (int64).
    request_index: np.ndarray
    #: Byte address of each DRAM request (uint64).
    request_address: np.ndarray
    #: Whether each DRAM request is a dirty victim's write-back.
    request_writeback: np.ndarray
    #: Replay engine that produced the log: ``"reference"`` or ``"fast"``.
    engine: str

    @classmethod
    def assemble(
        cls,
        outcomes: np.ndarray,
        addresses: np.ndarray,
        writeback_index: np.ndarray,
        writeback_address: np.ndarray,
        engine: str,
    ) -> "ReplayLog":
        """Merge the non-hit accesses and the write-backs into one stream.

        ``addresses`` are the trace's byte addresses; ``writeback_index``
        and ``writeback_address`` list each dirty eviction in replay
        order with the trace index of the access that caused it.
        """
        reads = np.flatnonzero(outcomes != HIT)
        writeback_index = np.asarray(writeback_index, dtype=np.int64)
        # Write-back k follows the k write-backs before it and the reads
        # of every earlier access; it precedes its own access's read.
        positions = np.arange(len(writeback_index)) + np.searchsorted(
            reads, writeback_index
        )
        writeback = np.zeros(len(reads) + len(writeback_index), dtype=bool)
        writeback[positions] = True
        request_index = np.empty(len(writeback), dtype=np.int64)
        request_index[positions] = writeback_index
        request_index[~writeback] = reads
        request_address = np.empty(len(writeback), dtype=np.uint64)
        request_address[positions] = writeback_address
        request_address[~writeback] = addresses[reads]
        return cls(outcomes, request_index, request_address, writeback, engine)

    def writebacks(self):
        """``(trace index, byte address)`` lists of the write-backs."""
        mask = self.request_writeback
        return (
            self.request_index[mask].tolist(),
            self.request_address[mask].tolist(),
        )
