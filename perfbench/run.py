"""The repository benchmark: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim-cold --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: set-up is
repeated in fresh interpreters and its median reported, then one more fresh
interpreter sets up and runs whole passes over the workload's units for
about ``--seconds`` (``BENCHMARK.json``'s ``run_seconds``).  Unit seconds
leave out the hypervisor's steal (see ``workloads.py``), and every time is
scaled to a reference host speed measured in the same process (see
``hostspeed.py``); the unscaled figures are printed beside them.  ``--trace 1``
is the separate traced run that reports per-layer metrics.  Every
operation's output is checked against digests pinned on the reference
engine (see ``oracle.py``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the same
numbers for people, with the host they were measured on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("sim-cold", "paper-warm", "stream-sweep")

#: Fresh-interpreter set-ups per untraced run (the last one also runs the
#: timed passes); ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Each process must end well inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0
#: Scratch space inside the checkout, removed when the run ends.
SCRATCH_DIR = ".perfbench_tmp"

#: name -> unit of every end-to-end metric.
END_TO_END = {
    "setup_s": "s",
    "sim_accesses_per_s": "1/s",
    "unit_p50_s": "s",
    "peak_rss_mb": "MB",
}

#: The paper's figures for the model outputs ``paper-warm`` prints.  They,
#: and ``error_rate``, are printed for people but are not bounded metrics:
#: ``error_rate`` is 0 on a correct run (the result line carries it as
#: ``failed``/``attempted``), and the model outputs are fixed by the pinned
#: digests.
PAPER = {"model_miss_saving_pct": 13.1, "model_speedup_pct": 8.0}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spans-out", metavar="FILE", help="also write the traced run's spans"
    )
    return parser.parse_args(argv)


def run_worker(
    root: str, workdir: str, args: argparse.Namespace, deadline: float,
    setup_only: bool = False,
) -> Dict[str, object]:
    """One fresh-interpreter worker; its result plus ``setup_s`` from spawn."""
    os.makedirs(os.path.join(workdir, "tmp"))
    out = os.path.join(workdir, "result.json")
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir, "--out", out,
    ] + (["--setup-only"] if setup_only else [])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = os.path.join(workdir, "tmp")
    spawned = time.time()
    process = subprocess.Popen(
        command, cwd=root, env=env, stdout=sys.stderr, start_new_session=True
    )
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # The worker's session also holds any sweep processes it started.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if code != 0:
        raise RuntimeError(
            f"{args.workload} worker "
            + ("timed out" if code is None else f"exited with code {code}")
        )
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    result["setup_wall_s"] = result["setup_done_unix"] - spawned
    result["setup_s"] = result["setup_wall_s"] * hostspeed.factor(
        result["setup_calibration"]
    )
    return result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: str) -> Optional[str]:
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: str) -> str:
    """SHA-256 over the program's sources, identifying the code measured."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def host(root: str, numpy_version: str) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root),
    }


def end_to_end(setups: List[float], main: Dict[str, object]) -> Dict[str, float]:
    seconds = [s * k for s, k in zip(main["unit_seconds"], main["unit_scales"])]
    return {
        "setup_s": statistics.median(setups),
        "sim_accesses_per_s": sum(main["unit_accesses"]) / sum(seconds),
        "unit_p50_s": statistics.median(seconds),
        "peak_rss_mb": main["peak_rss_mb"],
    }


def report(args, main, metrics: Dict[str, Dict[str, object]], host_info) -> None:
    """The human-readable lines printed before the result line."""
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("host " + json.dumps(host_info, sort_keys=True))
    print(f"{'host speed factor':<36} {statistics.median(main['unit_scales']):>16.6g}"
          f"  (median over units; {hostspeed.REFERENCE_SECONDS * 1e3:g} ms of "
          f"reference work at the reference speed over its time here, sampled "
          f"around each unit; times below are scaled by it)")
    for name, metric in metrics.items():
        note = ""
        if name == "unit_p50_s":
            note = (f"  (n={len(main['unit_seconds'])} units, {main['passes']} "
                    f"pass(es); unscaled wall clock "
                    f"{statistics.median(main['unit_wall_seconds']):.6g} s)")
        elif name == "sim_accesses_per_s":
            rate = sum(main["unit_accesses"]) / sum(main["unit_wall_seconds"])
            note = f"  (unscaled wall clock {rate:.6g} 1/s)"
        elif name == "setup_s":
            note = (f"  (median of {SETUP_REPEATS} fresh-interpreter set-ups; "
                    f"unscaled wall clock {statistics.median(main['setup_walls']):.6g} s)")
        print(f"{name:<36} {metric['value']:>16.6g} {metric['unit']}{note}")
    attempted, failed = main["attempted"], len(main["failures"])
    print(f"{'error_rate':<36} {failed / attempted:>16.6g} share"
          f"  ({failed} of {attempted} operations)")
    for failure in main["failures"][:10]:
        print(f"  FAIL {failure}")
    for name, value in main.get("model", {}).items():
        paper = PAPER[name]
        label = "model output"
        if name == "model_speedup_pct":
            label += "; the timing model is unvalidated against hardware"
        print(f"{name:<36} {value:>16.4f} %  paper {paper} %, difference "
              f"{value - paper:+.2f} points  [{label}]")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    scratch = os.path.join(root, SCRATCH_DIR, f"run-{os.getpid()}")
    try:
        setups, setup_walls = [], []
        if not args.trace:
            for repeat in range(SETUP_REPEATS - 1):
                workdir = os.path.join(scratch, f"setup{repeat}")
                setup = run_worker(root, workdir, args, deadline, setup_only=True)
                setups.append(setup["setup_s"])
                setup_walls.append(setup["setup_wall_s"])
        main_result = run_worker(root, os.path.join(scratch, "main"), args, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, SCRATCH_DIR))
        except OSError:
            pass
    setups.append(main_result["setup_s"])
    main_result["setup_walls"] = setup_walls + [main_result["setup_wall_s"]]

    if args.trace:
        metrics = main_result["per_layer"]
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as handle:
                json.dump(main_result["spans"], handle)
    else:
        values = end_to_end(setups, main_result)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    report(args, main_result, metrics, host(root, main_result["numpy"]))
    failed = len(main_result["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": main_result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
