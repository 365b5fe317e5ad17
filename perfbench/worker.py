"""One benchmark process: import, set up, then run the timed passes.

Started by ``run.py`` in a fresh interpreter from the root of a checkout, so
import cost is measured as a user pays it.  Writes one JSON result file and
prints nothing on stdout.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --workdir DIR --out FILE [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

#: Host-speed samples taken right after set-up: they scale its time, and
#: the first unit's.
SETUP_SAMPLES = 5
#: After each unit, one host-speed sample per this many seconds of its wall
#: time (at least one); a unit is scaled by the samples just before and after
#: it, which follows the host's speed more closely than one figure per run.
SAMPLE_EVERY_S = 0.5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def directory_mb(path: str) -> float:
    total = 0
    for folder, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(folder, name)) for name in files)
    return total / 2**20


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import_started = time.perf_counter()
    import workloads  # every layer module the workloads call

    import_ended = time.perf_counter()
    import hostspeed
    import numpy
    import oracle
    from spans import NULL_TRACER, Tracer

    tracer = Tracer() if args.trace else NULL_TRACER
    if args.trace:
        tracer.add("import", import_started, import_ended)
    units = workloads.select_units(args.workload, args.seed)
    bench = workloads.WORKLOADS[args.workload](units, args.workdir)
    result = {"import_s": import_ended - import_started, "numpy": numpy.__version__}

    with workloads.traced_generate(tracer):
        with tracer.span("setup"):
            bench.setup(tracer)
        result["setup_done_unix"] = time.time()
        result["setup_calibration"] = [hostspeed.sample() for _ in range(SETUP_SAMPLES)]
        before = statistics.median(result["setup_calibration"])
        if args.setup_only:
            return write(args.out, result)

        pinned = oracle.Oracle.load(args.workload)
        untraced, traced, failures, scales = [], [], [], []
        attempted = 0
        passes = 0
        started = time.perf_counter()
        # Whole passes only, so every unit weighs the same in the run; stop
        # at the pass count whose total lands nearest ``--seconds``.
        while passes == 0 or (
            (time.perf_counter() - started) * (passes + 0.5) / passes < args.seconds
        ):
            for index, unit in enumerate(units):
                # The traced run times each unit untraced and traced, in
                # alternating order, so both see the same machine state.
                order = [NULL_TRACER]
                if args.trace:
                    order = [NULL_TRACER, tracer]
                    if (passes * len(units) + index) % 2:
                        order.reverse()
                for unit_tracer in order:
                    outcome = bench.run_unit(unit, unit_tracer)
                    after = statistics.median([
                        hostspeed.sample()
                        for _ in range(max(1, round(outcome.wall_seconds / SAMPLE_EVERY_S)))
                    ])
                    if unit_tracer is NULL_TRACER:
                        untraced.append(outcome)
                        scales.append(hostspeed.factor([before, after]))
                    else:
                        traced.append(outcome)
                    before = after
                    for op in outcome.ops:
                        attempted += 1
                        problem = workloads.check(op, pinned)
                        if problem is not None:
                            failures.append(problem)
            passes += 1
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if hasattr(bench, "model"):
            result["model"] = bench.model(untraced[: len(units)])
        if args.trace and hasattr(bench, "serial_work"):
            bench.serial_work(tracer)

    result.update(
        passes=passes,
        unit_seconds=[o.seconds for o in untraced],
        unit_wall_seconds=[o.wall_seconds for o in untraced],
        unit_scales=scales,
        unit_accesses=[o.accesses for o in untraced],
        attempted=attempted,
        failures=failures,
    )
    if args.trace:
        overhead = sum(o.seconds for o in traced) / sum(o.seconds for o in untraced) - 1
        values = workloads.per_layer(
            tracer,
            workers=getattr(bench, "workers", 1),
            trace_cache_mb=directory_mb(os.path.join(args.workdir, "trace-cache")),
            overhead_frac=overhead,
        )
        result["per_layer"] = {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _) in workloads.PER_LAYER.items()
        }
        result["spans"] = [span.to_dict() for span in tracer.spans]
    return write(args.out, result)


def write(path: str, result: dict) -> int:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
