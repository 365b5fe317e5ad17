"""Output check: digests of every operation, pinned on the reference engine.

Each operation's output is reduced to a short digest of its canonical JSON:

* a replay run: ``SimResult.stats.snapshot()`` + ``extras`` + access count;
* a timing run: ``FrameTiming.to_dict()``;
* a sweep job: its ``results.csv`` row without the ``engine`` cell (the
  engine column names which replay path ran, not what it computed, so a
  new kernel must not read as a wrong answer).

``digests.json`` holds the digest of every operation any seed can select,
computed with ``engine="reference"`` -- the oracle the fast kernels are held
to.  Regenerate it, after a change that is *meant* to alter simulated
results, with::

    PYTHONPATH=src python3 perfbench/oracle.py

It takes a few minutes: every Table 1 frame is replayed on the reference
engine.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, Optional

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def replay_payload(result) -> Dict[str, object]:
    return {
        "accesses": result.accesses,
        "stats": result.stats.snapshot(),
        "extras": result.extras,
    }


def timing_payload(timing) -> Dict[str, object]:
    return timing.to_dict()


def row_payload(header: str, row: str) -> Dict[str, str]:
    cells = dict(zip(header.split(","), row.split(",")))
    cells.pop("engine", None)
    return cells


class Oracle:
    """The pinned digests of one workload."""

    def __init__(self, pinned: Dict[str, str]) -> None:
        self.pinned = pinned

    @classmethod
    def load(cls, workload: str, path: str = DIGESTS_PATH) -> "Oracle":
        with open(path, "r", encoding="utf-8") as handle:
            return cls(json.load(handle)["workloads"][workload])

    def mismatch(self, key: str, payload: object) -> Optional[str]:
        """``None`` when ``payload`` matches the pinned digest of ``key``."""
        expected = self.pinned.get(key)
        if expected is None:
            return f"{key}: no pinned digest"
        actual = digest(payload)
        if actual != expected:
            return f"{key}: digest {actual} != pinned {expected}"
        return None


def main() -> int:
    import workloads

    pinned = {}
    for name, cls in workloads.WORKLOADS.items():
        print(f"pinning {name} on the reference engine", file=sys.stderr)
        pinned[name] = {key: digest(payload) for key, payload in cls.reference_outputs()}
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump({"oracle": "reference", "workloads": pinned}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    total = sum(len(digests) for digests in pinned.values())
    print(f"wrote {total} digests to {DIGESTS_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
