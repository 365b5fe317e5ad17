"""Engine selection: which runs may take the fast replay path.

The fast engine covers the policies whose per-access transitions
specialize into a flat loop: ``nru``, ``lru``, ``srrip``, ``drrip``
(any RRPV width, set-dueling included), ``belady``, the paper's
baselines ``ship-mem`` (region-signature SHCT) and ``gs-drrip`` (one
duel per stream class, any RRPV width), and the paper's GSPC family —
``gspztc``, ``gspztc+tse``, and ``gspc`` (epoch/TSE state machine plus
PROD/CONS render-target protection).  The uncovered registry policies
(:data:`UNCOVERED_POLICIES`: ``gspc+bypass``, ``dip``, ``bip``,
``brrip``) and any run that attaches an
:class:`~repro.cache.llc.LLCObserver` (the fast kernels have no event
hooks) use the reference engine.

``auto`` (the default everywhere) picks the fast engine exactly when it
is applicable and silently falls back otherwise, so results never
change with the engine knob; ``fast`` is strict and raises when the run
cannot take the fast path.

The same rule selects the replay behind the timing models
(:class:`~repro.gpu.timing.FrameTimingSimulator`,
:class:`~repro.gpu.detailed.DetailedGPUSimulator`): they replay once
with ``record=True`` and consume the resulting
:class:`~repro.sim.replaylog.ReplayLog`, which the fast kernels record
in a separately compiled logged variant and the reference engine from
``LLC.access`` return values and its write-back sink.  Fig15-17,
``gspc-sim --timing`` and the ``timing`` experiment pass their
``engine`` setting through, so under ``auto`` a covered policy's frame
timing takes the fast path too, and ``FrameTiming.engine`` records
which engine ran.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.base import ReplacementPolicy
from repro.core.belady import BeladyPolicy
from repro.core.drrip import DRRIPPolicy
from repro.core.gs_drrip import GSDRRIPPolicy
from repro.core.gspc import GSPCPolicy
from repro.core.gspztc import GSPZTCPolicy
from repro.core.gspztc_tse import GSPZTCTSEPolicy
from repro.core.lru import LRUPolicy
from repro.core.nru import NRUPolicy
from repro.core.registry import (
    PolicyLike,
    available_policies,
    policy_spec,
    resolve_policy,
)
from repro.core.ship import SHiPMemPolicy
from repro.core.srrip import SRRIPPolicy
from repro.errors import SimulationError

ENGINE_REFERENCE = "reference"
ENGINE_FAST = "fast"
ENGINE_AUTO = "auto"
#: Valid ``--engine`` values.
ENGINES = (ENGINE_REFERENCE, ENGINE_FAST, ENGINE_AUTO)

#: Exact policy classes with a specialized kernel, keyed to the kernel
#: name.  Exact type checks, not ``isinstance``: a subclass (the bypass
#: extension of GSPC, DIP/BIP of LRU) overrides hooks the kernel has
#: inlined, so it must take the reference path.
_KERNEL_OF_TYPE = {
    NRUPolicy: "nru",
    LRUPolicy: "lru",
    SRRIPPolicy: "srrip",
    DRRIPPolicy: "drrip",
    GSDRRIPPolicy: "gs_drrip",
    SHiPMemPolicy: "ship_mem",
    BeladyPolicy: "belady",
    GSPZTCPolicy: "gspztc",
    GSPZTCTSEPolicy: "gspztc_tse",
    GSPCPolicy: "gspc",
}


#: The per-access hooks a kernel inlines: what :func:`uncovered_reason`
#: reports a subclass as overriding.
_HOOKS = ("should_bypass", "select_victim", "on_hit", "on_fill", "on_evict")


def _registry_names(covered: bool) -> Tuple[str, ...]:
    """Registry base names whose *built* policy has (or lacks) a kernel.

    Derived from the registry rather than hand-listed so the strict
    ``--engine fast`` error (and the benchmarks) stay truthful as
    kernel coverage grows.  Exact-type semantics carry over: a name
    that builds a subclass with overridden hooks is not covered.
    """
    names = []
    for name in available_policies():
        if (type(policy_spec(name).build()) in _KERNEL_OF_TYPE) == covered:
            names.append(name)
    return tuple(sorted(names))


#: Registry base names covered by the fast engine (each also accepts
#: ``+ucd`` and, for (GS-)DRRIP, any RRPV width — coverage is by class).
FAST_POLICIES = _registry_names(covered=True)
#: Registry base names that always replay on the reference engine.
UNCOVERED_POLICIES = _registry_names(covered=False)


def uncovered_reason(instance: ReplacementPolicy) -> str:
    """Why ``instance`` has no kernel, naming the hooks it overrides.

    Measured against the nearest ancestor with a kernel, or against the
    direct base class when no ancestor has one (e.g. ``GSPCBypassPolicy
    subclasses GSPCPolicy and overrides should_bypass``).
    """
    cls = type(instance)
    parents = [base for base in cls.__mro__[1:] if base in _KERNEL_OF_TYPE]
    parent = parents[0] if parents else cls.__mro__[1]
    hooks = [h for h in _HOOKS if getattr(cls, h) is not getattr(parent, h, None)]
    overrides = ", ".join(hooks) if hooks else "no access hook"
    return f"{cls.__name__} subclasses {parent.__name__} and overrides {overrides}"


def kernel_kind(instance: ReplacementPolicy) -> Optional[str]:
    """The kernel name for a bound-ready policy instance, or ``None``."""
    return _KERNEL_OF_TYPE.get(type(instance))


def supports_policy(policy: PolicyLike) -> bool:
    """Whether the fast engine has a kernel for ``policy``."""
    instance, _ = resolve_policy(policy)
    return kernel_kind(instance) is not None


def choose_engine(
    engine: str, policy: PolicyLike, observer: Optional[object] = None
) -> str:
    """Resolve an ``--engine`` request into ``reference`` or ``fast``.

    Raises :class:`~repro.errors.SimulationError` for an unknown engine
    name, and for ``fast`` when the run cannot take the fast path (the
    policy has no kernel, or an observer is attached).
    """
    if engine not in ENGINES:
        known = ", ".join(ENGINES)
        raise SimulationError(f"unknown engine {engine!r}; expected one of: {known}")
    if engine == ENGINE_REFERENCE:
        return ENGINE_REFERENCE
    instance, _ = resolve_policy(policy)
    covered = kernel_kind(instance) is not None
    if engine == ENGINE_FAST:
        if observer is not None:
            raise SimulationError(
                "the fast engine has no observer hooks; drop the observer "
                "or use --engine reference"
            )
        if not covered:
            raise SimulationError(
                f"policy {instance.name!r} is not covered by the fast engine: "
                f"{uncovered_reason(instance)} (covered: "
                f"{', '.join(FAST_POLICIES)}; uncovered: "
                f"{', '.join(UNCOVERED_POLICIES)}); use --engine auto or reference"
            )
        return ENGINE_FAST
    if observer is not None or not covered:
        return ENGINE_REFERENCE
    return ENGINE_FAST
