"""Specialized per-policy replay kernels, generated from one template.

The reference engine pays, per access, an ``AccessContext`` refresh,
several method dispatches, and a per-set dict lookup.  Each kernel here
is a single generated function: the engine's hit/fill/evict bookkeeping
inlined into one loop, with the policy's state transitions substituted
at the marked points and all state held in flat Python lists plus one
global ``{block: slot}`` dict (a block address determines its set, so
one dict replaces the per-set lookups).  Generating every kernel from
the same template keeps the engine semantics single-source — a policy
only contributes its ``setup`` / ``on hit`` / ``select victim`` /
``on fill`` snippets, mirroring the hook interface of
:class:`~repro.core.base.ReplacementPolicy` line for line.

Victim-selection snippets must leave the chosen slot in ``slot``;
``base`` is the set's first slot and ``end`` the one past its last.
They lean on C-level list primitives — ``list.index`` with bounds,
``min``/``max`` over a slice, slice assignment — instead of Python
``for`` loops, which is where most of the engine's speedup comes from
on miss-heavy traces.  Stream-class constants are inlined: ``0`` is Z,
``1`` is TEX, ``2`` is RT (:data:`repro.streams.StreamClass`).

Kernels cover every policy of the paper's evaluation.  On top of the
RRIP substrate, ``drrip`` and ``gs_drrip`` add set dueling (one duel,
or one per stream class), and ``ship_mem`` adds per-line signatures
over a flat per-bank SHCT whose bank offset is looked up by ``base``,
so neither needs a decode column beyond the common ones.  The GSPC
family (``gspztc``, ``gspztc_tse``, ``gspc``) adds per-bank saturating
counters and a per-line epoch state array; those kernels additionally
consume the pre-decoded ``bank`` / ``sample`` columns (see
:mod:`repro.fastsim.decode`).  Which policy classes map to which kernel
is decided in :mod:`repro.fastsim.dispatch`.
"""

from __future__ import annotations

import array
import functools
import string
import textwrap
from typing import Callable, Dict, Tuple

import numpy as np

from repro.core.base import NEVER
from repro.core.brrip import BIMODAL_PERIOD
from repro.core.dueling import leader_roles
from repro.core.gspc import LOW_FACTOR, MID_FACTOR
from repro.core.gs_drrip import NUM_STREAM_CLASSES
from repro.core.gspc_base import ProbabilisticStreamPolicy
from repro.core.rrip import RRIPPolicy
from repro.core.ship import COUNTER_MAX as SHIP_COUNTER_MAX
from repro.core.ship import REGION_BITS, REGION_SHIFT, TABLE_ENTRIES
from repro.errors import SimulationError
from repro.fastsim.dispatch import kernel_kind

_TEMPLATE = string.Template("""\
def replay(blocks, bases, streams, sclasses, writes, next_uses,
           banks, samples, num_sets, ways, params):
    total_slots = num_sets * ways
    lookup = {}
    lookup_get = lookup.get
    # Per-set state is indexed by the set's base slot (set * ways, as
    # pre-decoded into ``bases``) so the loop never multiplies.
    filled = [0] * total_slots
    tags = [0] * total_slots
    dirty = [False] * total_slots
    rt = [False] * total_slots
${setup}
${log_setup}
    hits_s = [0] * 8
    misses_s = [0] * 8
    evictions = 0
    writebacks = 0
    fills = 0
    tex_inter = 0
    tex_intra = 0
    rt_prod = 0
    rt_cons = 0
    dram_reads = 0
    dram_writes = 0
    for ${loop_head}:
        slot = lookup_get(block)
        if slot is not None:
            hits_s[stream] += 1
${hit_body}
            continue
        misses_s[stream] += 1
        dram_reads += 1
        count = filled[base]
        if count < ways:
            slot = base + count
            filled[base] = count + 1
        else:
            end = base + ways
${select_victim}
            evictions += 1
            if dirty[slot]:
                writebacks += 1
                dram_writes += 1
${log_writeback}
            del lookup[tags[slot]]
${log_miss}
        fills += 1
        lookup[block] = slot
        tags[slot] = block
        dirty[slot] = write
        if sclass == 2:
            rt[slot] = True
            rt_prod += 1
        else:
            rt[slot] = False
${on_fill}
    return {
        "hits": hits_s,
        "misses": misses_s,
        "evictions": evictions,
        "writebacks": writebacks,
        "fills": fills,
        "tex_inter_hits": tex_inter,
        "tex_intra_hits": tex_intra,
        "rt_produced": rt_prod,
        "rt_consumed": rt_cons,
        "dram_reads": dram_reads,
        "dram_writes": dram_writes,
        "fill_counts": ${fill_counts},
    }
""")

# Default hit body: the engine's inter-stream (RT-bit) bookkeeping
# followed by the policy's ``on hit`` snippet.  A spec may instead
# provide a full ``hit_body`` that fuses both into one stream-class
# dispatch — the GSPC kernels do, so the hot hit path pays a single
# branch tree instead of two sequential ones.
_DEFAULT_HIT_BODY = string.Template("""\
if sclass == 1:
    if rt[slot]:
        tex_inter += 1
        rt_cons += 1
        rt[slot] = False
    else:
        tex_intra += 1
elif sclass == 2 and not rt[slot]:
    rt[slot] = True
    rt_prod += 1
if write:
    dirty[slot] = True
${on_hit}
""")

# RRPVs are stored *relative* to a per-set aging offset: the effective
# RRPV of a block is ``rrpv[slot] + age[base]``.  The reference engine's
# aging step adds (max - oldest) to every block in the set, which the
# offset absorbs in O(1) — orderings inside a set are unchanged because
# the offset is common to all its blocks.
_RRIP_SETUP = """\
max_rrpv = params["max_rrpv"]
long_rrpv = max_rrpv - 1
rrpv = [max_rrpv] * total_slots
age = [0] * total_slots
fill_counts = [[0] * (max_rrpv + 1) for _ in range(4)]
"""

# First way at the maximal effective RRPV wins.  After the reference
# engine's aging the set maximum is exactly ``max_rrpv``, so the new
# offset is always ``max_rrpv - oldest_stored`` (a no-op when the set
# already held a saturated block).
_RRIP_VICTIM = """\
seg = rrpv[base:end]
oldest = max(seg)
slot = base + seg.index(oldest)
age[base] = max_rrpv - oldest
"""

_LRU_TOUCH = """\
clock = clocks[base] + 1
clocks[base] = clock
stamps[slot] = clock
"""


# DRRIP fill: leader misses move PSEL first, then the set's role (or
# the duel winner, for followers) picks SRRIP or BRRIP insertion.
# Roles: 1 = SRRIP leader, 2 = BRRIP leader, 0 = follower.  ``role``,
# ``psel`` and ``tick`` name where the duel's state lives: one scalar
# each for DRRIP, one list element per stream class for GS-DRRIP.
def _dueling_fill(role: str, psel: str, tick: str) -> str:
    bimodal = f"""\
{tick} += 1
if {tick} >= bimodal_period:
    {tick} = 0
    value = long_rrpv
else:
    value = max_rrpv"""
    return f"""\
role = {role}
if role == 1:
    if {psel} < psel_max:
        {psel} += 1
    value = long_rrpv
elif role == 2:
    if {psel} > 0:
        {psel} -= 1
{textwrap.indent(bimodal, "    ")}
elif {psel} > psel_mid:
{textwrap.indent(bimodal, "    ")}
else:
    value = long_rrpv
rrpv[slot] = value - age[base]
fill_counts[sclass][value] += 1
"""


_DRRIP_FILL = _dueling_fill("roles_by_base[base]", "psel", "fill_tick")

# GS-DRRIP runs one DRRIP duel per stream class.  Its roles live in one
# flat table indexed ``base * 4 + sclass``: four entries per slot, so
# the index stays unique even when a set has fewer than four ways.
_GS_DRRIP_FILL = _dueling_fill(
    "roles_by_class[base * 4 + sclass]", "psels[sclass]", "fill_ticks[sclass]"
)

_GS_DRRIP_SETUP = """\
roles = params["roles"]
roles_by_class = [0] * (total_slots * 4)
for sclass_i in range(4):
    class_roles = roles[sclass_i]
    for set_i in range(num_sets):
        roles_by_class[set_i * ways * 4 + sclass_i] = class_roles[set_i]
psels = [params["psel_midpoint"]] * 4
psel_mid = params["psel_midpoint"]
psel_max = params["psel_max"]
bimodal_period = params["bimodal_period"]
fill_ticks = [0] * 4
"""

# SHiP-mem: each slot remembers its fill's SHCT index (bank offset plus
# region signature) and whether it was reused.  The SHCT is one flat
# list of ``banks * TABLE_ENTRIES`` counters; ``shct_base`` holds each
# set's bank offset at its base slot, so the kernel needs no per-access
# bank column.  ``sig_table`` maps a 14-bit region to its signature.
_SHIP_SETUP = f"""\
table_entries = {TABLE_ENTRIES}
shct = [1] * (params["banks"] * table_entries)
bank_of_set = params["bank_of_set"]
shct_base = [0] * total_slots
for set_i in range(num_sets):
    shct_base[set_i * ways] = bank_of_set[set_i] * table_entries
sig_table = params["sig_table"]
region_shift = params["region_shift"]
region_mask = {(1 << REGION_BITS) - 1}
sigs = [0] * total_slots
reused = [False] * total_slots
"""

_SHIP_ON_HIT = f"""\
rrpv[slot] = -age[base]
sig = sigs[slot]
if shct[sig] < {SHIP_COUNTER_MAX}:
    shct[sig] += 1
reused[slot] = True
"""

# The never-reused decrement is ``on_evict``: after victim selection,
# before the fill reads the (possibly same) counter.
_SHIP_VICTIM = _RRIP_VICTIM + """\
if not reused[slot]:
    sig = sigs[slot]
    if shct[sig] > 0:
        shct[sig] -= 1
"""

_SHIP_ON_FILL = """\
sig = shct_base[base] + sig_table[(block >> region_shift) & region_mask]
sigs[slot] = sig
reused[slot] = False
value = long_rrpv if shct[sig] else max_rrpv
rrpv[slot] = value - age[base]
fill_counts[sclass][value] += 1
"""

# -- GSPC family -------------------------------------------------------------
#
# The epoch/TSE state machine of the GSPC family (gspztc, gspztc+tse,
# gspc) compiles to the same flat shape as the baselines: one per-line
# ``pstate`` array holding the Figure-10 block state (0 = E0, 1 = E1,
# 2 = E>=2, 3 = RT), the relative-RRPV array of the RRIP substrate, and
# one flat saturating-counter list per (counter, bank).  Probabilistic
# insertion is a threshold compare against the live sampled counters —
# ``FILL > t * HIT`` — exactly the reference's ``_low_reuse``, so the
# replay stays deterministic and byte-identical.  Sample-set accesses
# additionally drive the per-bank ACC tick that halves every counter on
# saturation.  These kernels consume two extra per-access inputs,
# ``bank`` and ``sample``, pre-decoded from the set index.


def _inc(counter: str) -> str:
    """Saturating increment of one per-bank counter (``_inc``)."""
    return (
        f"if {counter}[bank] < counter_max:\n"
        f"    {counter}[bank] += 1"
    )


def _tick(counters: Tuple[str, ...]) -> str:
    """One sample-set ACC tick: halve every counter on saturation."""
    halves = "\n".join(f"    {name}[bank] >>= 1" for name in counters)
    return (
        "if acc[bank] >= acc_max:\n"
        f"{halves}\n"
        "    acc[bank] = 0\n"
        "else:\n"
        "    acc[bank] += 1"
    )


def _gspc_setup(counters: Tuple[str, ...]) -> str:
    lines = [
        _RRIP_SETUP.rstrip(),
        't = params["t"]',
        'counter_max = params["counter_max"]',
        'acc_max = params["acc_max"]',
        'acc = [0] * params["banks"]',
        "pstate = [0] * total_slots",
    ]
    lines.extend(f'{name} = [0] * params["banks"]' for name in counters)
    return "\n".join(lines)


_GSPZTC_COUNTERS = ("fill_z", "hit_z", "fill_tex", "hit_tex")

# Fused hit bodies: the engine's TEX/RT inter-stream bookkeeping and
# the policy's transitions dispatch on ``sclass`` once.  The class
# branches are mutually exclusive, so dispatch order is free to favor
# the cheap bookkeeping-free OTHER class; *within* each class the
# order matches the reference hooks exactly (tick before counter
# increments, counter reads before state updates).
_GSPZTC_HIT_BODY = f"""\
if sclass == 3:
    if write:
        dirty[slot] = True
    if sample:
{textwrap.indent(_tick(_GSPZTC_COUNTERS), "        ")}
    rrpv[slot] = -age[base]
elif sclass == 1:
    if rt[slot]:
        tex_inter += 1
        rt_cons += 1
        rt[slot] = False
    else:
        tex_intra += 1
    if write:
        dirty[slot] = True
    if sample:
{textwrap.indent(_tick(_GSPZTC_COUNTERS), "        ")}
        if pstate[slot] == 3:
{textwrap.indent(_inc("fill_tex"), "            ")}
        else:
{textwrap.indent(_inc("hit_tex"), "            ")}
    if pstate[slot] == 3:
        pstate[slot] = 0
    rrpv[slot] = -age[base]
elif sclass == 2:
    if not rt[slot]:
        rt[slot] = True
        rt_prod += 1
    if write:
        dirty[slot] = True
    if sample:
{textwrap.indent(_tick(_GSPZTC_COUNTERS), "        ")}
    pstate[slot] = 3
    rrpv[slot] = -age[base]
else:
    if write:
        dirty[slot] = True
    if sample:
{textwrap.indent(_tick(_GSPZTC_COUNTERS), "        ")}
{textwrap.indent(_inc("hit_z"), "        ")}
    rrpv[slot] = -age[base]
"""

_GSPZTC_ON_FILL = f"""\
pstate[slot] = 3 if sclass == 2 else 0
if sample:
{textwrap.indent(_tick(_GSPZTC_COUNTERS), "    ")}
    if sclass == 0:
{textwrap.indent(_inc("fill_z"), "        ")}
    elif sclass == 1:
{textwrap.indent(_inc("fill_tex"), "        ")}
    value = long_rrpv
elif sclass == 0:
    value = max_rrpv if fill_z[bank] > t * hit_z[bank] else long_rrpv
elif sclass == 1:
    value = max_rrpv if fill_tex[bank] > t * hit_tex[bank] else 0
elif sclass == 2:
    value = 0
else:
    value = long_rrpv
rrpv[slot] = value - age[base]
fill_counts[sclass][value] += 1
"""

_TSE_COUNTERS = ("fill_z", "hit_z", "fill_e0", "hit_e0", "fill_e1", "hit_e1")
_GSPC_COUNTERS = _TSE_COUNTERS + ("prod", "cons")


def _tse_hit_body(counters: Tuple[str, ...], rt_consumed: str = "") -> str:
    """Shared GSPZTC+TSE fused hit body; ``rt_consumed`` is GSPC's
    extra CONS count on an RT -> TEX consumption in a sample set."""
    consumed = (
        textwrap.indent(_inc(rt_consumed), "            ") + "\n"
        if rt_consumed
        else ""
    )
    return f"""\
if sclass == 3:
    if write:
        dirty[slot] = True
    if sample:
{textwrap.indent(_tick(counters), "        ")}
    rrpv[slot] = -age[base]
elif sclass == 1:
    if rt[slot]:
        tex_inter += 1
        rt_cons += 1
        rt[slot] = False
    else:
        tex_intra += 1
    if write:
        dirty[slot] = True
    current = pstate[slot]
    if sample:
{textwrap.indent(_tick(counters), "        ")}
        if current == 3:
{textwrap.indent(_inc("fill_e0"), "            ")}
{consumed}\
            pstate[slot] = 0
        elif current == 0:
{textwrap.indent(_inc("hit_e0"), "            ")}
{textwrap.indent(_inc("fill_e1"), "            ")}
            pstate[slot] = 1
        elif current == 1:
{textwrap.indent(_inc("hit_e1"), "            ")}
            pstate[slot] = 2
        else:
            pstate[slot] = 2
        rrpv[slot] = -age[base]
    elif current == 3:
        rrpv[slot] = (
            max_rrpv if fill_e0[bank] > t * hit_e0[bank] else 0
        ) - age[base]
        pstate[slot] = 0
    elif current == 0:
        rrpv[slot] = (
            max_rrpv if fill_e1[bank] > t * hit_e1[bank] else 0
        ) - age[base]
        pstate[slot] = 1
    else:
        rrpv[slot] = -age[base]
        pstate[slot] = 2
elif sclass == 2:
    if not rt[slot]:
        rt[slot] = True
        rt_prod += 1
    if write:
        dirty[slot] = True
    if sample:
{textwrap.indent(_tick(counters), "        ")}
    pstate[slot] = 3
    rrpv[slot] = -age[base]
else:
    if write:
        dirty[slot] = True
    if sample:
{textwrap.indent(_tick(counters), "        ")}
{textwrap.indent(_inc("hit_z"), "        ")}
    rrpv[slot] = -age[base]
"""


def _tse_on_fill(
    counters: Tuple[str, ...], rt_value: str, rt_produced: str = ""
) -> str:
    """Shared GSPZTC+TSE fill insertion; ``rt_value`` is the RT-fill
    RRPV snippet (static 0, or GSPC's PROD/CONS thresholds) and
    ``rt_produced`` is GSPC's PROD count on a sample-set RT fill."""
    produced = (
        "    elif sclass == 2:\n"
        + textwrap.indent(_inc(rt_produced), "        ")
        + "\n"
        if rt_produced
        else ""
    )
    return f"""\
pstate[slot] = 3 if sclass == 2 else 0
if sample:
{textwrap.indent(_tick(counters), "    ")}
    if sclass == 0:
{textwrap.indent(_inc("fill_z"), "        ")}
    elif sclass == 1:
{textwrap.indent(_inc("fill_e0"), "        ")}
{produced}\
    value = long_rrpv
elif sclass == 0:
    value = max_rrpv if fill_z[bank] > t * hit_z[bank] else long_rrpv
elif sclass == 1:
    value = max_rrpv if fill_e0[bank] > t * hit_e0[bank] else 0
elif sclass == 2:
{textwrap.indent(rt_value, "    ")}
else:
    value = long_rrpv
rrpv[slot] = value - age[base]
fill_counts[sclass][value] += 1
"""


# Table 5's dynamic render-target protection: the sampled CONS/PROD
# ratio picks distant (< 1/16), long (< 1/8), or maximal protection.
_GSPC_RT_VALUE = f"""\
prod_b = prod[bank]
cons_b = cons[bank]
if prod_b > {LOW_FACTOR} * cons_b:
    value = max_rrpv
elif prod_b > {MID_FACTOR} * cons_b:
    value = long_rrpv
else:
    value = 0
"""

_SPECS: Dict[str, Dict[str, object]] = {
    "nru": {
        "setup": (
            "referenced = [False] * total_slots\n"
            "clear_ways = [False] * ways"
        ),
        "on_hit": "referenced[slot] = True",
        "select_victim": """\
try:
    slot = referenced.index(False, base, end)
except ValueError:
    referenced[base:end] = clear_ways
    slot = base
""",
        "on_fill": "referenced[slot] = True",
    },
    "lru": {
        "setup": "stamps = [0] * total_slots\nclocks = [0] * total_slots",
        "on_hit": _LRU_TOUCH,
        "select_victim": """\
seg = stamps[base:end]
slot = base + seg.index(min(seg))
""",
        "on_fill": _LRU_TOUCH,
    },
    "srrip": {
        "setup": _RRIP_SETUP,
        "on_hit": "rrpv[slot] = -age[base]",
        "select_victim": _RRIP_VICTIM,
        "on_fill": (
            "rrpv[slot] = long_rrpv - age[base]\n"
            "fill_counts[sclass][long_rrpv] += 1"
        ),
        "fill_counts": True,
    },
    "drrip": {
        "setup": _RRIP_SETUP
        + """\
roles = params["roles"]
roles_by_base = [0] * total_slots
for set_i in range(num_sets):
    roles_by_base[set_i * ways] = roles[set_i]
psel = params["psel_midpoint"]
psel_mid = params["psel_midpoint"]
psel_max = params["psel_max"]
bimodal_period = params["bimodal_period"]
fill_tick = 0
""",
        "on_hit": "rrpv[slot] = -age[base]",
        "select_victim": _RRIP_VICTIM,
        "on_fill": _DRRIP_FILL,
        "fill_counts": True,
    },
    "gs_drrip": {
        "setup": _RRIP_SETUP + _GS_DRRIP_SETUP,
        "on_hit": "rrpv[slot] = -age[base]",
        "select_victim": _RRIP_VICTIM,
        "on_fill": _GS_DRRIP_FILL,
        "fill_counts": True,
    },
    "ship_mem": {
        "setup": _RRIP_SETUP + _SHIP_SETUP,
        "on_hit": _SHIP_ON_HIT,
        "select_victim": _SHIP_VICTIM,
        "on_fill": _SHIP_ON_FILL,
        "fill_counts": True,
    },
    "belady": {
        "setup": 'next_slot = [params["never"]] * total_slots',
        "on_hit": "next_slot[slot] = next_use",
        "select_victim": """\
seg = next_slot[base:end]
slot = base + seg.index(max(seg))
""",
        "on_fill": "next_slot[slot] = next_use",
        "needs_future": True,
    },
    "gspztc": {
        "setup": _gspc_setup(_GSPZTC_COUNTERS),
        "hit_body": _GSPZTC_HIT_BODY,
        "select_victim": _RRIP_VICTIM,
        "on_fill": _GSPZTC_ON_FILL,
        "fill_counts": True,
        "needs_bank": True,
    },
    "gspztc_tse": {
        "setup": _gspc_setup(_TSE_COUNTERS),
        "hit_body": _tse_hit_body(_TSE_COUNTERS),
        "select_victim": _RRIP_VICTIM,
        "on_fill": _tse_on_fill(_TSE_COUNTERS, "value = 0"),
        "fill_counts": True,
        "needs_bank": True,
    },
    "gspc": {
        "setup": _gspc_setup(_GSPC_COUNTERS),
        "hit_body": _tse_hit_body(_GSPC_COUNTERS, rt_consumed="cons"),
        "select_victim": _RRIP_VICTIM,
        "on_fill": _tse_on_fill(
            _GSPC_COUNTERS, _GSPC_RT_VALUE, rt_produced="prod"
        ),
        "fill_counts": True,
        "needs_bank": True,
    },
}

# The logged variant of a kernel additionally records, per replayed
# access index, every miss and every dirty eviction (with the victim's
# block) into two caller-supplied buffers — the raw material of a
# :class:`~repro.sim.replaylog.ReplayLog`.  It is a separate compiled
# function, so plain replays run the unlogged loop unchanged.
_LOG_SETUP = """\
log_miss = params["miss_log"].append
log_writeback = params["writeback_log"].append
"""

_LOG_WRITEBACK = """\
log_writeback(index)
log_writeback(tags[slot])
"""

_LOG_MISS = "log_miss(index)"

#: Stands in for an unused log placeholder; its line is dropped.
_UNUSED = "#unused"

_COMPILED: Dict[Tuple[str, bool], Callable] = {}


def kernel_source(kind: str, logged: bool = False) -> str:
    """The generated source of one kernel (also kept on the function)."""
    if kind not in _SPECS:
        known = ", ".join(sorted(_SPECS))
        raise SimulationError(f"no fast kernel {kind!r}; known kernels: {known}")
    spec = _SPECS[kind]
    loop_vars = "block, base, stream, sclass, write"
    loop_srcs = "blocks, bases, streams, sclasses, writes"
    if spec.get("needs_future"):
        loop_vars += ", next_use"
        loop_srcs += ", next_uses"
    if spec.get("needs_bank"):
        loop_vars += ", bank, sample"
        loop_srcs += ", banks, samples"
    if logged:
        loop_head = f"index, ({loop_vars}) in enumerate(zip({loop_srcs}))"
    else:
        loop_head = f"{loop_vars} in zip({loop_srcs})"
    hit_body = spec.get("hit_body")
    if hit_body is None:
        hit_body = _DEFAULT_HIT_BODY.substitute(on_hit=str(spec["on_hit"]).rstrip())
    source = _TEMPLATE.substitute(
        setup=textwrap.indent(str(spec["setup"]).rstrip(), " " * 4),
        log_setup=(
            textwrap.indent(_LOG_SETUP.rstrip(), " " * 4) if logged else _UNUSED
        ),
        hit_body=textwrap.indent(str(hit_body).rstrip(), " " * 12),
        select_victim=textwrap.indent(
            str(spec["select_victim"]).rstrip(), " " * 12
        ),
        log_writeback=(
            textwrap.indent(_LOG_WRITEBACK.rstrip(), " " * 16)
            if logged
            else _UNUSED
        ),
        log_miss=textwrap.indent(_LOG_MISS, " " * 8) if logged else _UNUSED,
        on_fill=textwrap.indent(str(spec["on_fill"]).rstrip(), " " * 8),
        loop_head=loop_head,
        fill_counts="fill_counts" if spec.get("fill_counts") else "None",
    )
    # Dropping the unused placeholders' lines keeps a plain kernel's
    # source exactly what it is without logging.
    return "".join(
        line
        for line in source.splitlines(keepends=True)
        if line.rstrip("\n") != _UNUSED
    )


def kernel_for(kind: str, logged: bool = False) -> Callable:
    """Compile (once) and return the replay kernel named ``kind``.

    ``logged`` selects the variant that appends to ``params["miss_log"]``
    and ``params["writeback_log"]`` (see :data:`_LOG_SETUP`).
    """
    key = (kind, logged)
    kernel = _COMPILED.get(key)
    if kernel is None:
        source = kernel_source(kind, logged)
        name = f"{kind}_logged" if logged else kind
        namespace: Dict[str, object] = {}
        exec(compile(source, f"<fastsim-kernel:{name}>", "exec"), namespace)
        kernel = namespace["replay"]
        kernel.__name__ = f"replay_{name}"
        kernel.__source__ = source
        _COMPILED[key] = kernel
    return kernel


@functools.lru_cache(maxsize=None)
def ship_signature_table() -> array.array:
    """SHiP-mem's signature of every 14-bit region, in region order.

    ``mix_bits(region) & (TABLE_ENTRIES - 1)`` for all ``2**14`` regions,
    as one vectorized splitmix64 pass (uint64 arithmetic wraps exactly
    like the masked Python version).  Built on first use and kept for
    the life of the process: importing this module stays cheap, and
    replays after the first pay nothing for it.  A 16-bit typed array
    (32 KB) rather than a list of int objects (about 0.6 MB), since it
    stays resident; kernels only read it.
    """
    value = np.arange(1 << REGION_BITS, dtype=np.uint64)
    value = (value ^ (value >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    value = (value ^ (value >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    value ^= value >> np.uint64(31)
    signatures = (value & np.uint64(TABLE_ENTRIES - 1)).astype(np.uint16)
    return array.array("H", signatures.tobytes())


def _dueling_params(instance) -> Dict[str, object]:
    return {
        "psel_max": (1 << instance.psel_bits) - 1,
        "psel_midpoint": 1 << (instance.psel_bits - 1),
        "bimodal_period": BIMODAL_PERIOD,
    }


def kernel_params(instance, geometry) -> Dict[str, object]:
    """Per-run parameters a kernel reads from its policy instance.

    Keyed on the instance's kernel, not on its attributes: GS-DRRIP
    carries DRRIP's ``psel_bits`` but duels once per stream class.
    """
    kind = kernel_kind(instance)
    if isinstance(instance, ProbabilisticStreamPolicy):
        return {
            "max_rrpv": instance.max_rrpv,
            "t": instance.t,
            "counter_max": instance.counter_max,
            "acc_max": instance.acc_max,
            "banks": geometry.banks,
        }
    if kind == "belady":
        return {"never": NEVER}
    if not isinstance(instance, RRIPPolicy):
        return {}
    params: Dict[str, object] = {"max_rrpv": instance.max_rrpv}
    if kind == "drrip":
        params.update(
            _dueling_params(instance),
            roles=leader_roles(
                geometry.num_sets, target_leaders=instance.target_leaders
            ),
        )
    elif kind == "gs_drrip":
        # The same constructor call as GSDRRIPPolicy.bind, so a geometry
        # too small for four duels raises the same ConfigError.
        params.update(
            _dueling_params(instance),
            roles=[
                leader_roles(
                    geometry.num_sets,
                    duel_index=sclass,
                    num_duels=NUM_STREAM_CLASSES,
                    target_leaders=instance.target_leaders,
                )
                for sclass in range(NUM_STREAM_CLASSES)
            ],
        )
    elif kind == "ship_mem":
        # The kernel sees block addresses; a region is the block address
        # shifted by the bits a region has beyond a block.
        if geometry.block_bits > REGION_SHIFT:
            raise SimulationError(
                "the ship-mem kernel needs blocks of at most "
                f"{1 << REGION_SHIFT} bytes, got {geometry.block_bytes}; "
                "use --engine reference"
            )
        params.update(
            banks=geometry.banks,
            bank_of_set=geometry.bank_of_set,
            sig_table=ship_signature_table(),
            region_shift=REGION_SHIFT - geometry.block_bits,
        )
    return params
