"""The benchmark's workloads, each driven through the layers' public calls.

Every workload is a closed loop: one caller issues the next unit when the
previous one returns.  The modelled LLC starts empty for every replay, as in
the paper's per-frame offline method.  The seed picks which frame of each
workload is used and the order units run in; the program sees only the
resulting (workload, frame) inputs.

* ``sim-cold`` -- one unit is one ``gspc-sim --app A --frame i`` done
  in-process: generate the frame (``gspc-sim`` has no trace cache), then
  replay ``gspc-sim``'s default roster with the auto engine.  One seeded
  frame per Table 1 app, default scale, 8 MB LLC.  The only workload where
  frame generation (about half its time) is timed, so generator and
  render-filter changes show here; timing-model and kernel-coverage changes
  must read "no change".
* ``paper-warm`` -- one unit is one Table 1 frame as ``gspc-experiments
  fig12 fig15`` processes it: load the frame from a ``.gsct`` trace cache
  warmed in set-up, replay ``drrip`` plus the fig12 roster (``ship-mem``
  and ``gs-drrip`` take the reference engine), then run the fig15 timing
  model for the baseline and its three policies.  Replay and timing each
  take about half its time and nothing is generated.  Half the default
  linear scale, so one pass over all twelve apps fits in a run.
* ``stream-sweep`` -- one unit is one ``gspc-sweep`` grid (``SweepSpec`` ->
  ``expand`` -> ``SweepRunner`` + ``ProcessLauncher``, one worker per CPU, a
  fresh fsync'd journal directory, warm trace cache) over frame ``i`` of
  each miss-dominated compute and graph preset, at the default scale
  (traces of 0.2-1.3M accesses).  The only workload that crosses a process
  boundary, so the one home of orchestration; its replay kernels spend
  their time in victim and fill paths instead of the hit paths render
  frames favour.  A pass runs one grid per preset frame, in seeded order.

A unit's seconds leave out time the hypervisor gave this machine's vCPUs to
other guests (``steal`` in ``/proc/stat``), which on a shared host varies
from run to run far more than the program does.  ``sim-cold`` and
``paper-warm`` run their units in this one process, so a unit's seconds are
the CPU seconds it used (a kernel with paravirtual steal accounting
leaves steal out of them).
``stream-sweep`` keeps every vCPU busy with sweep workers and waits for the
slowest, so a grid's seconds are its wall time less the mean steal per vCPU.
The worker then scales them to a reference host speed (``hostspeed.py``);
wall time is kept beside them for the human-readable report.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import random
import shutil
import statistics
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import repro.wal  # noqa: F401  (orchestration layer, imported with the rest)
import repro.workloads.framegen  # noqa: F401  (imported lazily by the source)
from repro.cli import build_parser as sim_cli_parser
from repro.config import DEFAULT_SCALE, paper_baseline
from repro.experiments import common, fig12, fig15
from repro.fastsim.dispatch import ENGINE_FAST, choose_engine
from repro.gpu.timing import FrameTimingSimulator
from repro.parallel import resolve_jobs
from repro.sim.offline import simulate_trace
from repro.sweep import (
    Journal,
    ProcessLauncher,
    RetryPolicy,
    SweepJob,
    SweepRunner,
    SweepSpec,
    expand,
    journal_path,
    results_csv,
    write_reports,
)
from repro.sweep.report import RESULTS_FILENAME
from repro.trace.sources.synthetic import SyntheticSource
from repro.workloads.apps import ALL_APPS
from repro.workloads.families import family_by_name

import oracle
from spans import Span, Tracer

#: LLC size of every workload, in MB before scaling (the paper's 8 MB).
LLC_MB = 8


@dataclasses.dataclass
class Op:
    """One checked operation: a replay run, a timing run or a sweep job."""

    kind: str  # "replay" | "timing" | "row" | "job"
    key: str
    policy: str = ""
    value: object = None
    error: str = ""


@dataclasses.dataclass
class UnitOutcome:
    #: Host seconds with steal left out (see the module docstring).
    seconds: float
    wall_seconds: float
    #: Simulated LLC accesses: trace length x every replay/timing run, or
    #: the accesses of every completed sweep sim job.
    accesses: int
    ops: List[Op]


def stolen_seconds() -> float:
    """Seconds the hypervisor has kept this machine's vCPUs from running.

    The ``steal`` column of ``/proc/stat``, summed over vCPUs; 0 where the
    kernel does not report it.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _attempt(ops: List[Op], kind: str, key: str, policy: str, call: Callable):
    """Run one operation, recording its value or the exception it raised."""
    try:
        value = call()
    except Exception as exc:  # an operation that raises counts as failed
        ops.append(Op(kind, key, policy, error=f"{type(exc).__name__}: {exc}"))
        return None
    ops.append(Op(kind, key, policy, value))
    return value


def replay(tracer, trace, policy: str, llc):
    """``simulate_trace`` with the auto engine, as every CLI calls it."""
    with tracer.span("replay", policy=policy) as span:
        result = simulate_trace(trace, policy, llc, engine="auto")
    if span is not None:
        engine = choose_engine("auto", policy)
        span.attrs.update(engine=engine, accesses=result.accesses)
        if engine == ENGINE_FAST:
            tracer.child(span, "decode", result.setup_seconds)
    return result


def timing(tracer, simulator: FrameTimingSimulator, trace, policy: str):
    with tracer.span("timing", policy=policy) as span:
        result = simulator.run(trace, policy)
    if span is not None:
        span.attrs.update(
            accesses=result.accesses,
            setup_s=result.setup_seconds,
            integrate_s=result.replay_seconds,
        )
    return result


def cached_trace(tracer, app: str, frame: int, config: common.ExperimentConfig):
    with tracer.span("trace_cache"):
        return common.frame_trace(common.frame_spec_for(app, frame, config), config)


@contextlib.contextmanager
def traced_generate(tracer) -> Iterator[None]:
    """Record a ``generate`` span around ``SyntheticSource.frame_trace`` calls.

    Generation is wrapped at its class because the trace cache calls it
    internally.  Only calls made inside an open span are recorded: calls
    from forked sweep workers, and from the untraced twin of each unit in a
    traced run, pass straight through.
    """
    if not tracer.enabled:
        yield
        return
    original = SyntheticSource.frame_trace
    pid = os.getpid()

    def frame_trace(source, workload, frame_index, scale):
        if os.getpid() != pid or not tracer.active:
            return original(source, workload, frame_index, scale)
        with tracer.span("generate") as span:
            trace = original(source, workload, frame_index, scale)
        span.attrs.update(
            accesses=len(trace),
            raw_accesses=int(trace.meta.get("raw_accesses", len(trace))),
        )
        return trace

    SyntheticSource.frame_trace = frame_trace
    try:
        yield
    finally:
        SyntheticSource.frame_trace = original


class FrameWorkload:
    """A workload whose unit is one Table 1 frame: get its trace, run ops on it."""

    name = ""
    scale = DEFAULT_SCALE
    replay_policies: Tuple[str, ...] = ()
    timing_policies: Tuple[str, ...] = ()

    def __init__(self, units, workdir: str) -> None:
        self.units = units
        system = paper_baseline(llc_mb=LLC_MB, scale=self.scale)
        self.llc = system.llc
        self.timing = FrameTimingSimulator(system)

    @staticmethod
    def select(rng: random.Random) -> list:
        units = [(app.abbrev, rng.randrange(app.num_frames)) for app in ALL_APPS]
        rng.shuffle(units)
        return units

    def setup(self, tracer) -> None:
        """Nothing to prepare by default."""

    def trace(self, tracer, app: str, frame: int):
        raise NotImplementedError

    def operations(self) -> List[Tuple[str, str]]:
        return [("replay", p) for p in self.replay_policies] + [
            ("timing", p) for p in self.timing_policies
        ]

    def operate(self, tracer, kind: str, trace, policy: str):
        if kind == "replay":
            return replay(tracer, trace, policy, self.llc)
        return timing(tracer, self.timing, trace, policy)

    def run_unit(self, unit, tracer) -> UnitOutcome:
        app, frame = unit
        ops: List[Op] = []
        accesses = 0
        started, cpu_started = time.perf_counter(), time.process_time()
        with tracer.unit(f"{app}:f{frame}"):
            try:
                trace = self.trace(tracer, app, frame)
                failure = ""
            except Exception as exc:  # every op of the frame then fails
                trace, failure = None, f"{type(exc).__name__}: {exc}"
            for kind, policy in self.operations():
                key = f"{kind}:{app}:f{frame}:{policy}"
                if trace is None:
                    ops.append(Op(kind, key, policy, error=failure))
                elif _attempt(
                    ops, kind, key, policy,
                    lambda: self.operate(tracer, kind, trace, policy),
                ) is not None:
                    accesses += len(trace)
        return UnitOutcome(
            time.process_time() - cpu_started,
            time.perf_counter() - started,
            accesses,
            ops,
        )

    @classmethod
    def reference_outputs(cls):
        """Every frame's outputs, replayed on the reference engine."""
        bench = cls([], "")
        source = SyntheticSource()
        for app in ALL_APPS:
            for frame in range(app.num_frames):
                trace = source.frame_trace(app.abbrev, frame, cls.scale)
                for kind, policy in bench.operations():
                    key = f"{kind}:{app.abbrev}:f{frame}:{policy}"
                    if kind == "replay":
                        yield key, oracle.replay_payload(simulate_trace(
                            trace, policy, bench.llc, engine="reference"))
                    else:
                        yield key, oracle.timing_payload(
                            bench.timing.run(trace, policy))


class SimCold(FrameWorkload):
    name = "sim-cold"
    #: ``gspc-sim``'s default policy roster.
    replay_policies = tuple(sim_cli_parser().get_default("policies"))

    def __init__(self, units, workdir: str) -> None:
        super().__init__(units, workdir)
        self.source = SyntheticSource()

    def trace(self, tracer, app: str, frame: int):
        return self.source.frame_trace(app, frame, self.scale)


class PaperWarm(FrameWorkload):
    name = "paper-warm"
    scale = DEFAULT_SCALE / 2
    replay_policies = ("drrip",) + tuple(fig12.POLICIES)
    timing_policies = (fig15.BASELINE,) + tuple(fig15.POLICIES)

    def __init__(self, units, workdir: str) -> None:
        super().__init__(units, workdir)
        self.config = common.ExperimentConfig(
            scale=self.scale,
            llc_mb=LLC_MB,
            cache_dir=os.path.join(workdir, "trace-cache"),
        )

    def setup(self, tracer) -> None:
        # Sorted, so the seeded unit order cannot move set-up's memory peak.
        for app, frame in sorted(set(self.units)):
            self.trace(tracer, app, frame)

    def trace(self, tracer, app: str, frame: int):
        return cached_trace(tracer, app, frame, self.config)

    def model(self, outcomes: Sequence[UnitOutcome]) -> Dict[str, float]:
        """fig12's GSPC+UCD miss saving and fig15's modelled speedup."""
        normalized, speedups = [], []
        for outcome in outcomes:
            replays = {op.policy: op.value for op in outcome.ops
                       if op.kind == "replay" and op.value is not None}
            timings = {op.policy: op.value for op in outcome.ops
                       if op.kind == "timing" and op.value is not None}
            if "drrip" in replays and "gspc+ucd" in replays:
                normalized.append(
                    replays["gspc+ucd"].misses_normalized_to(replays["drrip"])
                )
            if fig15.BASELINE in timings and "gspc+ucd" in timings:
                speedups.append(
                    timings["gspc+ucd"].speedup_over(timings[fig15.BASELINE])
                )
        model = {}
        if normalized:
            model["model_miss_saving_pct"] = (1 - statistics.fmean(normalized)) * 100
        if speedups:
            model["model_speedup_pct"] = (statistics.fmean(speedups) - 1) * 100
        return model


class StreamSweep:
    name = "stream-sweep"
    scale = DEFAULT_SCALE
    presets = ("comp-stream", "comp-stencil", "graph-bfs")
    policies = ("lru", "drrip", "gspc+ucd", "ship-mem")

    def __init__(self, units, workdir: str) -> None:
        self.units = units
        self.workdir = workdir
        self.cache_dir = os.path.join(workdir, "trace-cache")
        self.spec = SweepSpec(
            name="perfbench-stream-sweep",
            policies=self.policies,
            llc_mb=(LLC_MB,),
            apps=self.presets,
            frames_per_app=max(
                family_by_name(p).num_frames for p in self.presets
            ),
            scale=self.scale,
        )
        self.config = self.spec.config_for(LLC_MB, self.cache_dir)
        self.llc = self.config.llc()
        self.workers = resolve_jobs(0)
        self.retry = RetryPolicy()
        self.grids_run = 0

    @classmethod
    def select(cls, rng: random.Random) -> list:
        """Grid ``i`` holds frame ``i`` of every preset; the seed orders the grids.

        Every seed thus runs the same grids, so the seed cannot shift
        ``unit_p50_s`` by pairing large frames with large ones.
        """
        frames = min(family_by_name(p).num_frames for p in cls.presets)
        grids = [tuple((p, i) for p in cls.presets) for i in range(frames)]
        rng.shuffle(grids)
        return grids

    def setup(self, tracer) -> None:
        # Sorted, so the seeded grid order cannot move set-up's memory peak.
        for app, frame in sorted({pair for grid in self.units for pair in grid}):
            cached_trace(tracer, app, frame, self.config)

    def grid_jobs(self, grid) -> List[SweepJob]:
        chosen = set(grid)
        return [
            job for job in expand(self.spec)
            if (job.app, job.frame_index) in chosen
        ]

    def run_unit(self, grid, tracer) -> UnitOutcome:
        self.grids_run += 1
        sweep_dir = os.path.join(self.workdir, f"grid{self.grids_run}")
        jobs: List[SweepJob] = []
        outcome = None
        failure = ""
        started, stolen = time.perf_counter(), stolen_seconds()
        with tracer.unit("+".join(f"{app}:f{frame}" for app, frame in grid)):
            with tracer.span("orchestration") as span:
                try:
                    jobs = self.grid_jobs(grid)
                    launcher = ProcessLauncher(
                        self.spec, self.cache_dir, os.path.join(sweep_dir, "tmp")
                    )
                    with Journal(journal_path(sweep_dir)) as journal:
                        outcome = SweepRunner(
                            jobs,
                            launcher,
                            journal,
                            workers=self.workers,
                            retry=self.retry,
                        ).run()
                    write_reports(
                        sweep_dir,
                        self.spec,
                        jobs,
                        outcome,
                        workers=self.workers,
                        timeout=None,
                        retry=self.retry,
                    )
                except Exception as exc:  # every job of the grid then fails
                    failure = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - started
        seconds = wall - (stolen_seconds() - stolen) / (os.cpu_count() or 1)
        if span is not None and outcome is not None:
            span.attrs.update(
                jobs=len(jobs),
                attempts=sum(outcome.attempts.values()),
                failed=len(outcome.failures),
            )
        ops, accesses = self._grid_ops(grid, jobs, outcome, failure, sweep_dir)
        shutil.rmtree(sweep_dir, ignore_errors=True)
        return UnitOutcome(seconds, wall, accesses, ops)

    def _grid_ops(self, grid, jobs, outcome, failure, sweep_dir):
        """One op per sweep job, sim jobs checked by their results.csv row."""
        if failure or outcome is None:
            jobs = jobs or self.grid_jobs(grid)
            return [Op("job", job.job_id, job.policy, error=failure)
                    for job in jobs], 0
        with open(os.path.join(sweep_dir, RESULTS_FILENAME), encoding="utf-8") as f:
            header, *lines = f.read().splitlines()
        rows = {}
        for line in lines:
            row = oracle.row_payload(header, line)
            rows[(row["app"], row["frame"], row["policy"])] = row
        ops, accesses = [], 0
        for job in jobs:
            if job.job_id in outcome.failures:
                error = str(outcome.failures[job.job_id].get("error", "failed"))
                ops.append(Op("job", job.job_id, job.policy, error=error))
            elif job.kind == "trace":
                ops.append(Op("job", job.job_id))
            else:
                key = f"row:{job.app}:f{job.frame_index}:{job.policy}"
                row = rows.get((job.app, str(job.frame_index), job.policy))
                if row is None:
                    ops.append(Op("row", key, job.policy, error="no results.csv row"))
                else:
                    ops.append(Op("row", key, job.policy, row))
                    accesses += int(row["accesses"])
        return ops, accesses

    def serial_work(self, tracer) -> None:
        """The jobs of every grid run serially in-process, one ``work`` span each grid."""
        for grid in self.units:
            with tracer.span("work"):
                for job in self.grid_jobs(grid):
                    trace = cached_trace(tracer, job.app, job.frame_index, self.config)
                    if job.kind == "sim":
                        replay(tracer, trace, job.policy, self.llc)

    @classmethod
    def reference_outputs(cls):
        source = SyntheticSource()
        llc = paper_baseline(llc_mb=LLC_MB, scale=cls.scale).llc
        for preset in cls.presets:
            for frame in range(family_by_name(preset).num_frames):
                trace = source.frame_trace(preset, frame, cls.scale)
                for policy in cls.policies:
                    result = simulate_trace(trace, policy, llc, engine="reference")
                    job = SweepJob("sim", preset, frame, policy, LLC_MB)
                    payload = {
                        "app": preset,
                        "frame": frame,
                        "policy": policy,
                        "llc_mb": LLC_MB,
                        "engine": "reference",
                        "accesses": result.accesses,
                        "metrics": result.stats.snapshot(),
                    }
                    header, row = results_csv(
                        [job], {job.job_id: payload}
                    ).splitlines()[:2]
                    yield f"row:{preset}:f{frame}:{policy}", oracle.row_payload(
                        header, row
                    )


WORKLOADS = {cls.name: cls for cls in (SimCold, PaperWarm, StreamSweep)}


def select_units(workload: str, seed: int) -> list:
    """The seeded inputs of ``workload``: frames and the order they run in."""
    return WORKLOADS[workload].select(random.Random(f"{workload}:{seed}"))


def check(op: Op, pinned: oracle.Oracle) -> Optional[str]:
    """``None`` when ``op`` ran and its output matches the pinned oracle."""
    if op.error:
        return f"{op.key}: {op.error}"
    if op.kind == "replay":
        return pinned.mismatch(op.key, oracle.replay_payload(op.value))
    if op.kind == "timing":
        return pinned.mismatch(op.key, oracle.timing_payload(op.value))
    if op.kind == "row":
        return pinned.mismatch(op.key, op.value)
    return None


# -- per-layer metrics -----------------------------------------------------------

#: Every policy any roster replays, in metric-name order.
REPLAY_POLICIES = tuple(dict.fromkeys(
    SimCold.replay_policies
    + PaperWarm.replay_policies
    + StreamSweep.policies
))


def policy_metric(policy: str) -> str:
    return f"replay.{policy.replace('+', '-')}.s"


#: name -> (unit, better) of every metric the traced run reports.
PER_LAYER = {
    "import.s": ("s", "lower"),
    "generate.s": ("s", "lower"),
    "generate.calls": ("count", "lower"),
    "generate.raw_accesses_per_s": ("1/s", "higher"),
    "generate.filtered_frac": ("fraction", "higher"),
    "trace_cache.load_s": ("s", "lower"),
    "trace_cache.save_s": ("s", "lower"),
    "trace_cache.hits": ("count", "higher"),
    "trace_cache.misses": ("count", "lower"),
    "trace_cache.mb": ("MB", "lower"),
    "decode.s": ("s", "lower"),
    "replay.fast.s": ("s", "lower"),
    "replay.fast.accesses_per_s": ("1/s", "higher"),
    "replay.reference.s": ("s", "lower"),
    "replay.reference.accesses_per_s": ("1/s", "higher"),
    "replay.fast_share": ("fraction", "higher"),
    **{policy_metric(p): ("s", "lower") for p in REPLAY_POLICIES},
    "timing.s": ("s", "lower"),
    "timing.setup_s": ("s", "lower"),
    "timing.integrate_s": ("s", "lower"),
    "timing.accesses_per_s": ("1/s", "higher"),
    "orchestration.wall_s": ("s/grid", "lower"),
    "orchestration.work_s": ("s/grid", "lower"),
    "orchestration.overhead_s": ("s/grid", "lower"),
    "orchestration.attempts": ("count/grid", "lower"),
    "orchestration.retries": ("count/grid", "lower"),
    "orchestration.failed_jobs": ("count/grid", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
    "trace.accounted_frac": ("fraction", "higher"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    tracer: Tracer,
    workers: int,
    trace_cache_mb: float,
    overhead_frac: float,
) -> Dict[str, float]:
    """Aggregate the traced run's spans into the ``PER_LAYER`` metrics.

    Times are self times (span minus children), summed over the run, so the
    layers partition the traced wall time; the benchmark's own share is the
    self time left on the ``unit``/``work``/``setup`` roots.  Orchestration
    figures are per sweep grid.
    """
    spans: List[Span] = tracer.spans
    own = tracer.self_times()
    children: Dict[int, List[str]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span.name)

    def named(name: str) -> List[int]:
        return [i for i, span in enumerate(spans) if span.name == name]

    def self_sum(indices) -> float:
        return sum(own[i] for i in indices)

    def attr_sum(indices, key: str) -> float:
        return sum(spans[i].attrs.get(key, 0) for i in indices)

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics["import.s"] = self_sum(named("import"))

    generate = named("generate")
    generate_s = self_sum(generate)
    raw = attr_sum(generate, "raw_accesses")
    metrics.update({
        "generate.s": generate_s,
        "generate.calls": len(generate),
        "generate.raw_accesses_per_s": _ratio(raw, generate_s),
        "generate.filtered_frac": 1 - _ratio(attr_sum(generate, "accesses"), raw)
        if raw else 0.0,
    })

    loads = [i for i in named("trace_cache") if "generate" not in children.get(i, ())]
    saves = [i for i in named("trace_cache") if "generate" in children.get(i, ())]
    metrics.update({
        "trace_cache.load_s": self_sum(loads),
        "trace_cache.save_s": self_sum(saves),
        "trace_cache.hits": len(loads),
        "trace_cache.misses": len(saves),
        "trace_cache.mb": trace_cache_mb,
        "decode.s": self_sum(named("decode")),
    })

    replays = named("replay")
    for engine in ("fast", "reference"):
        chosen = [i for i in replays if spans[i].attrs.get("engine") == engine]
        seconds = self_sum(chosen)
        metrics[f"replay.{engine}.s"] = seconds
        metrics[f"replay.{engine}.accesses_per_s"] = _ratio(
            attr_sum(chosen, "accesses"), seconds
        )
    metrics["replay.fast_share"] = _ratio(
        sum(1 for i in replays if spans[i].attrs.get("engine") == "fast"),
        len(replays),
    )
    for policy in REPLAY_POLICIES:
        metrics[policy_metric(policy)] = self_sum(
            i for i in replays if spans[i].attrs.get("policy") == policy
        )

    timings = named("timing")
    timing_s = self_sum(timings)
    metrics.update({
        "timing.s": timing_s,
        "timing.setup_s": attr_sum(timings, "setup_s"),
        "timing.integrate_s": attr_sum(timings, "integrate_s"),
        "timing.accesses_per_s": _ratio(attr_sum(timings, "accesses"), timing_s),
    })

    grids = named("orchestration")
    if grids:
        wall = statistics.fmean(spans[i].seconds for i in grids)
        work = [spans[i].seconds for i in named("work")]
        work_s = statistics.fmean(work) if work else 0.0
        attempts = _ratio(attr_sum(grids, "attempts"), len(grids))
        metrics.update({
            "orchestration.wall_s": wall,
            "orchestration.work_s": work_s,
            "orchestration.overhead_s": wall - work_s / workers,
            "orchestration.attempts": attempts,
            "orchestration.retries": attempts - _ratio(attr_sum(grids, "jobs"), len(grids)),
            "orchestration.failed_jobs": _ratio(attr_sum(grids, "failed"), len(grids)),
        })

    roots = [i for i, span in enumerate(spans) if span.parent is None]
    benchmark_own = self_sum(
        i for i in roots if spans[i].name in ("unit", "work", "setup")
    )
    metrics["trace.overhead_frac"] = overhead_frac
    metrics["trace.accounted_frac"] = 1 - _ratio(
        benchmark_own, sum(spans[i].seconds for i in roots)
    )
    return metrics
