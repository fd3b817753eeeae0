"""Deterministic discrete-event execution of schedules under LogGP timing with noise.

Execution model
---------------
Each rank executes its op list in program order, every op waiting for

  * its ``requires`` dependencies,
  * the previous op on the same rank to release the host,
  * for message ops, the minimum message gap: at least max(o, g) between the
    starts of consecutive message ops on one rank,
  * for recvs, the wire arrival of the matching message.

A send occupies the sender host for o, after which the message travels for
``wire = round_half_up(L_eff + (size-1) * G_eff)`` ns and the recv occupies
the receiver host for o starting no earlier than arrival. Calc ops occupy the
host for their duration. Host occupancy intervals are stretched by OS detours
(below). Message matching is in-order per (src, dst, size).

Every edge above is fixed before a run starts; only edge weights depend on
the noise draws. The order in which ops can execute is therefore static: the
walk that validates a schedule sorts its ops by DAG level once
(``goal.execution_order``), and a schedule in which some op can never run
is refused there, before any run and before run_many starts workers.
Durations are >= 0, so finishes never decrease along a rank's program order:
a ``requires`` on an earlier op of the same rank is met once the previous op
has released the host. One on the op itself or a later op could never be
met, and validation refuses it as a ScheduleValidationError naming the op;
DeadlockError is left to recvs whose send can never come.

Two engines
-----------
Both engines visit the ops in that one level-sorted order, and both draw
every message's wire delay up front as the seed of that message's arrival
time, to which its send adds its finish. The per-op engine (``_run``)
computes each run as one forward pass over per-op lists in level order,
built once for all its runs, in Python integers. The batch engine
(``_run_batch``) computes a chunk of runs at once as int64 numpy arrays. It
visits the DAG levels in order, each level a slice of one set of per-op
columns sorted by level (``_level_columns``): all ops of one level (which
are independent) for all runs of the chunk together. ``simulate`` and
``run_many`` pick the batch engine when the schedule is wide, ops x reps >=
``_BATCH_K`` x levels, the op-runs are enough to pay for importing numpy,
ops x reps >= ``_BATCH_MIN_OP_RUNS``, and every time value is provably below
2**62 (``_Compiled.time_bound``). Deep, narrow schedules, small jobs and ones
whose times could leave int64 run per op. numpy is imported only when the
batch engine runs. Both engines keep every time an exact integer, compute
each wire delay with the same IEEE-754 operations on the same values and
stretch occupancies by the same closed form on the same tables, so they give
the same bits; tests check this on random schedules. A run keeps only its
per-rank completions, not the start and finish of each op.

Noise
-----
With a latency distribution, each message draws a value v that replaces the
whole deterministic 2o+L term (measured one-way samples include host overhead
inseparably): the wire latency becomes max(0, v - 2o) while the two host
occupancies stay at o, so an uncontended message completes in v + (size-1)G.
With a bandwidth distribution, each message draws bw and uses
G_eff = 8/bw. With a detour trace, each rank gets an independent uniformly
random cyclic phase into the trace per run, and any host occupancy is extended
by the detour time it overlaps, re-checked until a fixed point. Both engines
compute that fixed point in closed form: the occupancy ends once the host has
accumulated its base duration of detour-free time, found by two lookups in
per-span idle-time tables. The batch engine finds both segments through
bucket indexes over the sorted columns (``_bucket_index``,
``_detour_end_vec``). The per-op engine keeps, per rank, the time window of
the idle segment in which its last occupancy ended. Measured detours are
short and the gaps between them long, so most occupancies fit in that window
and end unstretched with no lookup; only one that leaves it bisects the
tables (``_detour_window``), which also gives the rank its next window.

Determinism
-----------
The PRNG is splitmix64, used in counter mode: run i of a batch derives
``run_seed = mix64(seed + (i+1)*GAMMA)``, the detour phase of rank r is
``mix64((run_seed ^ OS_STREAM) + (r+1)*GAMMA)`` scaled to [0, span), and a
message with static index m (sends enumerated in (rank, op id) order) draws
``mix64((run_seed ^ LAT_STREAM) + (m+1)*GAMMA)`` for latency and the
BW_STREAM analogue for bandwidth, each mapped to a distribution index by
``(u64 * count) >> 64`` (``_draws``, and ``_pick_steps`` in the batch
engine). Because every value a run computes is a pure function of these
inputs, results are bit-identical regardless of worker count, of which
engine runs them, of how runs are chunked, or of which valid order the ops
are visited in.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress, repeat
from typing import Sequence

from .errors import DeadlockError
from .goal import KIND_CALC, KIND_RECV, KIND_SEND, Schedule, execution_order
from .model import DetourTrace, LogGPParams, NoiseModel

__all__ = [
    "PRNG_NAME",
    "SimConfig",
    "SimResult",
    "DeadlockError",
    "simulate",
    "run_many",
    "derive_run_seed",
    "mix64",
]

PRNG_NAME = "splitmix64"

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_LAT_STREAM = 0x6C6174656E637900  # distinct per-purpose stream tags
_BW_STREAM = 0x62616E6477696474
_OS_STREAM = 0x6F73706861736500

_NOISELESS = NoiseModel()


def mix64(z: int) -> int:
    """The splitmix64 finalizer; a bijective 64-bit mix."""
    z &= _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def derive_run_seed(seed: int, run_index: int) -> int:
    """Seed of run ``run_index`` in a batch: mix64(seed + (i+1)*GAMMA)."""
    return mix64(seed + (run_index + 1) * _GAMMA)


@dataclass(frozen=True)
class SimConfig:
    """Everything that determines a run besides the schedule itself."""

    params: LogGPParams
    noise: NoiseModel = _NOISELESS
    seed: int = 0


@dataclass(frozen=True)
class SimResult:
    """Completion times of one run.

    completion is max(per_rank_completion); draws_used counts the
    latency/bandwidth distribution samples consumed.
    """

    completion: int
    per_rank_completion: tuple[int, ...]
    draws_used: int


# ---------------------------------------------------------------------------
# Static schedule compilation (shared by every run of a batch)

# Byte maps from the ``kinds`` column to masks of its calcs and of its sends.
_IS_CALC = bytes(k == KIND_CALC for k in range(256))
_IS_SEND = bytes(k == KIND_SEND for k in range(256))


class _Compiled:
    """Per-op columns and the static execution order of one schedule.

    Ops are numbered globally in (rank, op id) order. ``kind`` and ``size`` are
    the schedule's columns, and ``msg`` (a send's index, the counter of its
    noise draws), ``by_level`` and ``level_bounds`` are
    ``goal.execution_order``'s, shared, not copied. Every per-op column is a
    stdlib array.
    """

    __slots__ = ("nranks", "kind", "size", "rank", "msg", "n_sends", "by_level",
                 "level_bounds", "n_levels", "calc_total", "n_calc", "send_bytes", "max_send")

    def __init__(self, schedule: Schedule):
        self.msg, self.by_level, self.level_bounds = execution_order(schedule)
        self.nranks = nranks = schedule.nranks
        offsets = schedule.rank_offsets
        self.kind = kind = schedule.kinds
        self.size = size = schedule.sizes
        self.rank = rank = array("i")
        for r in range(nranks):
            rank += array("i", [r]) * (offsets[r + 1] - offsets[r])
        self.n_levels = len(self.level_bounds) - 1
        self.n_sends = kind.count(KIND_SEND)
        self.n_calc = kind.count(KIND_CALC)
        codes = kind.tobytes()
        self.calc_total = sum(compress(size, codes.translate(_IS_CALC)))
        self.send_bytes = sum(compress(size, codes.translate(_IS_SEND))) - self.n_sends
        self.max_send = max(compress(size, codes.translate(_IS_SEND)), default=0)

    def wire_max(self, cfg: SimConfig) -> tuple[float, float]:
        """The largest wire latency and per-byte gap a run under ``cfg`` can
        draw. Raises ValueError when the wire delay of the largest send under
        them is not a finite number."""
        params, lat, bw = cfg.params, cfg.noise.latency, cfg.noise.bandwidth
        lat_max = params.L if lat is None else max(0.0, lat._samples[-1] - 2 * params.o)
        g_max = params.G if bw is None else 8.0 / bw._samples[0]
        if self.max_send and not math.isfinite(lat_max + (self.max_send - 1) * g_max):
            raise ValueError(f"the wire delay of a {self.max_send}-byte message, {lat_max} ns "
                             f"+ {self.max_send - 1} x {g_max} ns/byte, is not a finite number")
        return lat_max, g_max

    def time_bound(self, cfg: SimConfig) -> int | float:
        """An upper bound on every time value a run under ``cfg`` computes.

        A time is at most the longest path through the execution DAG, which
        visits each op once: its duration stretched by detours, plus the
        message gap for a message op and the largest possible wire delay after
        a send. ``math.inf`` when the bound is not a finite number.
        """
        params, noise = cfg.params, cfg.noise
        o = params.o
        gap = max(o, params.g)
        n_msg = len(self.kind) - self.n_calc
        osn = noise.os
        if osn is None:
            busy = self.calc_total + n_msg * (o + gap)
        else:
            # An occupancy of d > 0 gathers its d idle ns within ceil(d / idle)
            # <= d // idle + 1 spans; the extra span covers a detour phase.
            idle = osn.span - osn.total_detour
            busy = ((self.calc_total // idle + self.n_calc) * osn.span
                    + n_msg * ((o // idle + 1) * osn.span + gap) + osn.span)
        lat_max, g_max = self.wire_max(cfg)
        try:
            return busy + math.ceil(self.n_sends * (lat_max + 1.0) + self.send_bytes * g_max)
        except (OverflowError, ValueError):  # an infinite or NaN wire bound
            return math.inf


# ---------------------------------------------------------------------------
# OS detour replay

def _detour_tables(osn: DetourTrace):
    """Idle-time tables of one detour trace for ``_detour_window`` and ``_detour_end_vec``.

    Idle segment k runs from ``seg_start[k]`` (0, or the end of event k-1) to
    ``seg_end[k]`` (the start of event k, or the span); ``idle_at[k]`` and
    ``idle_to[k]`` are the idle ns accumulated in a span at its start and
    end, and ``detour_before[k]`` the detour ns before it. Built afresh on
    every call: a run builds them once.
    """
    seg_end = [s for s, _ in osn.events] + [osn.span]
    detour_before = list(accumulate((d for _, d in osn.events), initial=0))
    seg_start = [0] + [s + d for s, d in osn.events]
    idle_at = [s - b for s, b in zip(seg_start, detour_before)]
    idle_to = [s - b for s, b in zip(seg_end, detour_before)]
    return (seg_end, detour_before, seg_start, idle_at, idle_to, osn.span,
            osn.span - osn.total_detour)


def _detour_window(t: int, dur: int, phase: int, tables) -> tuple[int, int, int]:
    """``(end, lo, hi)``: the earliest end of a host occupancy of ``dur``
    beginning at ``t``, and the time range ``[lo, hi)`` of the idle segment
    that holds its last ns, so that any occupancy inside it ends unstretched.

    With I(y) the idle ns of the cyclic pattern before pattern position y, an
    occupancy of ``dur`` > 0 that starts at pattern position x = t + phase
    ends at the least y with I(y) = I(x) + dur: the least fixed point of
    "extend the interval by the detour time it overlaps, re-check". Both
    steps are a bisection of the tables of one span. A zero-length occupancy
    ends at ``t`` and gives the empty window ``[t, t)``.
    """
    if dur <= 0:
        return t, t, t
    seg_end, detour_before, seg_start, idle_at, idle_to, span, idle = tables
    cycles, pos = divmod(t + phase, span)
    k = bisect_right(seg_end, pos)  # events that began by pos
    wait = seg_start[k] - pos  # > 0 when pos lies inside event k-1
    if wait < 0:
        wait = 0
    a = pos - detour_before[k] + wait + dur  # I(y) less the idle ns of whole cycles
    if a <= idle_to[k]:  # ends in the idle segment it starts in
        base = t - pos
        return t + wait + dur, base + seg_start[k], base + seg_end[k]
    extra = (a - 1) // idle  # the last idle ns lies in cycle cycles + extra
    a -= extra * idle  # in [1, idle]
    k = bisect_left(idle_to, a)
    base = (cycles + extra) * span - phase
    return base + seg_start[k] + (a - idle_at[k]), base + seg_start[k], base + seg_end[k]


# ---------------------------------------------------------------------------
# Per-op runs

def _draws(seed: int, n: int, count: int) -> list[int]:
    """Draws 0..n-1 of the counter-mode stream ``seed``, each mapped to an
    index in [0, count): mix64(seed + (i+1)*GAMMA) * count >> 64, inlined."""
    out = []
    append = out.append
    step = seed
    for _ in range(n):
        step = (step + _GAMMA) & _M64
        z = ((step ^ (step >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        append(((z ^ (z >> 31)) * count) >> 64)
    return out


def _wires(run_seed: int, size_m1: list[int], params: LogGPParams, lat, bw) -> list[int]:
    """``one_way_wire_ns`` of every send of the run ``run_seed``, in message order.

    size_m1 holds the send sizes less one; lat and bw are the latency and
    bandwidth distributions, None when that noise is off.
    """
    n = len(size_m1)
    if lat is None:
        lat_eff = repeat(params.L)
    else:
        samples, two_o = lat._samples, 2 * params.o
        lat_eff = [x if (x := samples[j] - two_o) >= 0.0 else 0.0
                   for j in _draws(run_seed ^ _LAT_STREAM, n, lat.count)]
    if bw is None:
        g_eff = repeat(params.G)
    else:
        samples = bw._samples
        g_eff = [8.0 / samples[j] for j in _draws(run_seed ^ _BW_STREAM, n, bw.count)]
    # lat_eff + (size - 1) * g_eff, rounded half up, as one_way_wire_ns does.
    return [math.floor(L + s * g + 0.5) for L, s, g in zip(lat_eff, size_m1, g_eff)]


def _run(c: _Compiled, cfg: SimConfig, run_indices: Sequence[int]) -> list[SimResult]:
    """The runs ``run_indices``, each one forward pass over the ops in
    ``c.by_level`` order in Python integers.

    The per-op columns in that order are built once for all the runs. A run
    draws its wire delays and detour phases up front; each send adds its
    finish to its message's wire delay. Each rank keeps the window
    ``[lo, hi)`` of the idle segment where its last occupancy ended: an
    occupancy inside it ends unstretched, and only one that leaves it runs
    ``_detour_window``.
    """
    params, noise = cfg.params, cfg.noise
    o = params.o
    gap = max(o, params.g)
    lat, bw, osn = noise.latency, noise.bandwidth, noise.os
    nranks = c.nranks
    # Lists index faster than arrays in this loop, and locals read faster
    # than globals.
    calc, recv, send = KIND_CALC, KIND_RECV, KIND_SEND
    gids = c.by_level.tolist()
    kind, size, rank, msg = c.kind.tolist(), c.size.tolist(), c.rank.tolist(), c.msg.tolist()
    kinds = [kind[g] for g in gids]
    ranks = [rank[g] for g in gids]
    msgs = [msg[g] for g in gids]
    durs = [size[g] if kind[g] == calc else o for g in gids]
    size_m1 = [s - 1 for s in compress(size, c.kind.tobytes().translate(_IS_SEND))]
    # Without latency and bandwidth noise every run has the same wire delays.
    wire = _wires(0, size_m1, params, None, None) if lat is None and bw is None else None
    if osn is None:
        lo = [0] * nranks
        hi = [c.time_bound(cfg)] * nranks  # past every time a run computes
    else:
        tables = _detour_tables(osn)
    draws = c.n_sends * ((lat is not None) + (bw is not None))

    results = []
    for i in run_indices:
        run_seed = derive_run_seed(cfg.seed, i)
        # When each message reaches its recv, once its send has added its finish.
        arrival = wire[:] if wire is not None else _wires(run_seed, size_m1, params, lat, bw)
        if osn is not None:
            phases = _draws(run_seed ^ _OS_STREAM, nranks, osn.span)
            lo = [0] * nranks
            hi = [0] * nranks
        free = [0] * nranks  # when each rank's host is released
        msg_ok = [0] * nranks  # earliest start of each rank's next message op
        for r, k, d, m in zip(ranks, kinds, durs, msgs):
            t = free[r]
            if k != calc:
                if k == recv:
                    a = arrival[m]
                    if a > t:
                        t = a
                a = msg_ok[r]
                if a > t:
                    t = a
                msg_ok[r] = t + gap
            f = t + d
            if f > hi[r] or t < lo[r]:
                f, lo[r], hi[r] = _detour_window(t, d, phases[r], tables)
            free[r] = f
            if k == send:
                arrival[m] += f
        results.append(SimResult(completion=max(free), per_rank_completion=tuple(free),
                                 draws_used=draws))
    return results


# ---------------------------------------------------------------------------
# Batched runs: a chunk of reps, one level of the execution DAG at a time

# The batch path runs when ops * reps >= _BATCH_K * levels, i.e. when a level
# holds enough op-runs to pay for the fixed cost of its numpy calls, and when
# there are at least _BATCH_MIN_OP_RUNS op-runs to pay for importing numpy:
# 0.05-0.06 s in `sim run` on a 2-core x86 VM, with OpenBLAS at one thread
# (cli.main). At 0.24-0.60 us per per-op op-run that is 2**16 to 2**18 op-runs;
# on dissem_text's 102,400 latency-noise op-runs the batch run took 55 ms and
# the per-op one 61 ms (medians of 12 fresh `sim run`s, import included).
_BATCH_K = 64
_BATCH_MIN_OP_RUNS = 1 << 16
_CHUNK_BYTES = 2 << 20  # numpy arrays held by one chunk of reps
_TIME_LIMIT = 1 << 62  # every time value of a batched run stays below this


def _use_batch(c: _Compiled, cfg: SimConfig, reps: int) -> bool:
    """True when ``reps`` runs are cheaper batched and provably fit int64."""
    op_runs = len(c.kind) * reps
    return (op_runs >= max(_BATCH_K * c.n_levels, _BATCH_MIN_OP_RUNS)
            and c.time_bound(cfg) < _TIME_LIMIT)


def _mix64_vec(z):
    """mix64 over a uint64 array, in place; wraps mod 2**64 exactly like ``mix64``."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def _mulhi_vec(u, count: int):
    """``(u * count) >> 64`` for a uint64 array u and 0 < count < 2**64, exactly.

    The 128-bit product is formed from 32-bit halves so that no partial
    product or carry sum leaves uint64. At most five arrays of u's shape are
    alive at once, u included.
    """
    import numpy as np

    m32, s32 = np.uint64(0xFFFFFFFF), np.uint64(32)
    ch, cl = np.uint64(count >> 32), np.uint64(count & 0xFFFFFFFF)
    ul, hi = u & m32, u >> s32
    cross = ul * cl  # lo*lo, then the carries into bit 64
    cross >>= s32
    ul *= ch  # lo*hi
    cross += ul
    hi_lo = np.multiply(hi, cl, out=ul)
    hi *= ch  # hi*hi, then the result
    cross += hi_lo & m32
    hi_lo >>= s32
    hi += hi_lo
    cross >>= s32
    hi += cross
    return hi


def _steps(counters):
    """``(i + 1) * GAMMA`` of each counter i as uint64: where draw i sits in a stream."""
    import numpy as np

    return (np.asarray(counters, dtype=np.uint64) + np.uint64(1)) * np.uint64(_GAMMA)


def _pick_steps(seeds, steps, count: int):
    """Draw i of stream ``seeds[j]`` as ``_draws`` maps it, as a uint64 array
    of shape (i, j), for the ``_steps`` of the counters i."""
    return _mulhi_vec(_mix64_vec(seeds[None, :] + steps[:, None]), count)


def _wire_vec(seeds, send_steps, size_m1, params: LogGPParams, lat_samples, bw_samples):
    """``one_way_wire_ns`` of every send (rows) in every rep (columns).

    send_steps are the ``_steps`` of the send indices, size_m1 is the column
    of send sizes less one; a samples array is None when that noise is off.
    Without latency or bandwidth noise the result is one column for all reps.
    At most six (n_sends, reps) arrays are alive at once; all but the result
    are freed on return.
    """
    import numpy as np

    if lat_samples is None:
        lat_eff = params.L
    else:
        lat_eff = lat_samples[_pick_steps(seeds ^ np.uint64(_LAT_STREAM), send_steps,
                                          len(lat_samples))]
        lat_eff -= 2 * params.o
        np.maximum(lat_eff, 0.0, out=lat_eff)
    if bw_samples is None:
        wire = size_m1 * params.G
    else:
        wire = bw_samples[_pick_steps(seeds ^ np.uint64(_BW_STREAM), send_steps,
                                      len(bw_samples))]
        np.divide(8.0, wire, out=wire)
        wire *= size_m1
    # lat_eff + size_m1 * g_eff + 0.5, rounded half up; + commutes exactly.
    wire = wire + lat_eff
    del lat_eff
    wire += 0.5
    np.floor(wire, out=wire)
    return wire.astype(np.int64)


def _bucket_index(keys, hi: int):
    """A lookup of ``np.searchsorted(keys, x, side="right")`` for integers x in [0, hi).

    ``keys`` are sorted integers. [0, hi) is cut into buckets of 2**shift
    integers, at most two to four times as many buckets as keys, and ``base``
    holds the answer at each bucket's lowest integer. With m the most keys in
    one bucket, ``_bucket_find`` finishes in ceil(log2(m + 1)) steps: one or
    two for evenly spread keys, and no more than a bisection when all keys
    share one bucket. Step s reads the keys padded with the int64 maximum, from
    position s - 1 on.
    """
    import numpy as np

    keys = np.asarray(keys, dtype=np.int64)
    shift = max(0, (hi - 1).bit_length() - len(keys).bit_length() - 1)
    low = np.arange(((hi - 1) >> shift) + 1, dtype=np.int64) << shift
    base = np.searchsorted(keys, low, side="right")
    below_next = np.searchsorted(keys, np.append(low[1:], hi), side="left")
    steps = int((below_next - base).max()).bit_length()
    padded = np.append(keys, np.full(1 << steps, np.iinfo(np.int64).max))
    return base, shift, [(1 << i, padded[(1 << i) - 1:]) for i in reversed(range(steps))]


def _bucket_find(index, x):
    """``np.searchsorted(keys, x, side="right")`` for an int64 array x in [0, hi),
    through ``index = _bucket_index(keys, hi)``; branchless."""
    base, shift, probes = index
    j = base[x >> shift]
    for s, probe in probes:  # probe[j] is keys[j + s - 1]
        j += s * (probe[j] <= x)
    return j


def _detour_tables_vec(osn: DetourTrace):
    """``_detour_tables(osn)`` for ``_detour_end_vec``: the columns as int64
    arrays, with ``seg_end`` and ``idle_to`` as ``_bucket_index`` lookups."""
    import numpy as np

    seg_end, detour_before, seg_start, idle_at, idle_to, span, idle = _detour_tables(osn)
    return (_bucket_index(seg_end, span), *(np.asarray(col, dtype=np.int64)
                                           for col in (detour_before, seg_start, idle_at)),
            _bucket_index(idle_to, idle), span, idle)


def _detour_end_vec(t, dur, phase, tables):
    """The end ``_detour_window`` gives, over int64 arrays: the same closed form
    on ``_detour_tables_vec``.

    Both segment lookups go through bucket indexes. On integers,
    ``searchsorted(idle_to, a, side="left")`` is the right-side lookup of
    a - 1, so both use ``_bucket_find``.
    """
    import numpy as np

    seg_end, detour_before, seg_start, idle_at, idle_to, span, idle = tables
    cycles, pos = np.divmod(t + phase, span)
    j = _bucket_find(seg_end, pos)  # events that began by pos
    target = (cycles * idle + pos - detour_before[j]
              + np.maximum(seg_start[j] - pos, 0) + dur)
    cycles, a = np.divmod(target - 1, idle)  # the last idle ns is idle ns a + 1 of this cycle
    k = _bucket_find(idle_to, a)  # idle segments that end before it
    end = cycles * span + seg_start[k] + (a + 1 - idle_at[k]) - phase
    return np.where(dur > 0, end, t)


def _level_columns(c: _Compiled, o: int):
    """Per-op columns in ``c.by_level`` order, which ``_run_batch`` slices by level.

    Level v is slice ``c.level_bounds[v]:c.level_bounds[v + 1]`` of each.
    Returns ``(ranks, dur, ok_in, ok_out, arr_in, arr_out)``: each op's rank
    and duration (``o`` for a message op) as a column, the msg_ok row it
    reads and writes, and the arrival row it reads and writes. A message op
    reads and writes its rank's msg_ok row, a recv reads its message's
    arrival row and a send writes it. Every other op reads a read-dummy row,
    ``c.nranks`` of msg_ok or ``c.n_sends`` of arrival, which stays 0 (every
    time is >= 0), and writes a sink row, ``c.nranks + 1`` or
    ``c.n_sends + 1``, which nothing reads. A level holds at most one op per rank and each message has one send, so no
    two ops of a level write the same real row.
    """
    import numpy as np

    gids = np.frombuffer(c.by_level, dtype=c.by_level.typecode)
    kind = np.frombuffer(c.kind, dtype=np.int8)[gids]
    ranks = np.frombuffer(c.rank, dtype=np.int32)[gids].astype(np.intp)
    is_msg = kind != KIND_CALC
    dur = np.frombuffer(c.size, dtype=np.uint64)[gids].view(np.int64)
    dur[is_msg] = o
    ok_in = np.where(is_msg, ranks, c.nranks)
    ok_out = np.where(is_msg, ranks, c.nranks + 1)
    del is_msg
    msg = np.frombuffer(c.msg, dtype=c.msg.typecode)[gids].astype(np.intp)
    arr_in = np.where(kind == KIND_RECV, msg, c.n_sends)
    arr_out = np.where(kind == KIND_SEND, msg, c.n_sends + 1)
    return ranks, dur[:, None], ok_in, ok_out, arr_in, arr_out


def _run_batch(c: _Compiled, cfg: SimConfig, run_indices: Sequence[int]) -> list[SimResult]:
    """``[_run(c, cfg, i) for i in run_indices]``, computed level by level.

    Each chunk of reps holds the per-rank and per-message state as
    (rows, reps) int64 arrays, draws every wire delay up front and then
    visits the DAG levels in order, all ops of a level at once. The caller
    guarantees that every time value stays below ``_TIME_LIMIT``.
    """
    import numpy as np

    take = np.take
    params = cfg.params
    noise = cfg.noise
    o = params.o
    gap = max(o, params.g)
    osn = noise.os
    nranks, n_sends = c.nranks, c.n_sends
    ranks, dur, ok_in, ok_out, arr_in, arr_out = _level_columns(c, o)
    bounds = c.level_bounds.tolist()
    is_send = np.frombuffer(c.kind, dtype=np.int8) == KIND_SEND
    size_m1 = (np.frombuffer(c.size, dtype=np.uint64)[is_send] - 1).astype(np.float64)[:, None]
    lat_samples = None if noise.latency is None else np.frombuffer(noise.latency._samples)
    bw_samples = None if noise.bandwidth is None else np.frombuffer(noise.bandwidth._samples)
    tables = None
    if osn is not None:
        tables = _detour_tables_vec(osn)
    draws = n_sends * ((lat_samples is not None) + (bw_samples is not None))
    send_steps = _steps(np.arange(n_sends, dtype=np.uint64))
    rank_steps = _steps(np.arange(nranks, dtype=np.uint64)) if tables is not None else None

    # Words per rep of a chunk's numpy arrays at the larger of its two peaks.
    # Drawing: at most five (nranks,) temporaries for the detour phases, then,
    # with the phases alive, at most six (n_sends,) ones in _wire_vec, and
    # after it only the wire delays and arrival. The level loop: free,
    # msg_ok, phases, arrival and about eight temporaries of the widest level.
    widest = max(map(int.__sub__, bounds[1:], bounds), default=0)
    os_words = nranks if tables is not None else 0
    wire_words = n_sends if draws else 0
    draw_words = 5 * os_words + 6 * wire_words
    loop_words = 2 * nranks + os_words + n_sends + 8 * widest + 4
    chunk = max(1, _CHUNK_BYTES // (8 * max(draw_words, loop_words)))

    def run_chunk(indices: Sequence[int]) -> list[SimResult]:
        # A function of its own, so that a chunk's arrays are freed before
        # the next chunk draws.
        reps = len(indices)
        seeds = np.array([derive_run_seed(cfg.seed, i) for i in indices], dtype=np.uint64)
        if tables is not None:
            phases = _pick_steps(seeds ^ np.uint64(_OS_STREAM), rank_steps,
                                 osn.span).astype(np.int64)
        wire = _wire_vec(seeds, send_steps, size_m1, params, lat_samples, bw_samples)
        # Each level adds a send's finish to its wire delay; the two rows
        # past the messages are the read-dummy and the sink.
        arrival = np.zeros((n_sends + 2, reps), dtype=np.int64)
        arrival[:n_sends] = wire
        del wire
        free = np.zeros((nranks, reps), dtype=np.int64)
        msg_ok = np.zeros((nranks + 2, reps), dtype=np.int64)
        for lo, hi in zip(bounds, bounds[1:]):
            r = ranks[lo:hi]
            t = take(free, r, axis=0)
            np.maximum(t, take(arrival, arr_in[lo:hi], axis=0), out=t)
            np.maximum(t, take(msg_ok, ok_in[lo:hi], axis=0), out=t)
            msg_ok[ok_out[lo:hi]] = t + gap
            if tables is None:
                f = t + dur[lo:hi]
            else:
                f = _detour_end_vec(t, dur[lo:hi], take(phases, r, axis=0), tables)
            free[r] = f
            arrival[arr_out[lo:hi]] += f
        return [SimResult(completion=max(row), per_rank_completion=tuple(row), draws_used=draws)
                for row in free.T.tolist()]

    results: list[SimResult] = []
    for first in range(0, len(run_indices), chunk):
        results.extend(run_chunk(run_indices[first:first + chunk]))
    return results


def _run_reps(c: _Compiled, cfg: SimConfig, run_indices: Sequence[int]) -> list[SimResult]:
    """The runs ``run_indices``, batched when ``_use_batch`` allows it."""
    if _use_batch(c, cfg, len(run_indices)):
        return _run_batch(c, cfg, run_indices)
    return _run(c, cfg, run_indices)


# ---------------------------------------------------------------------------
# Public API

def simulate(schedule: Schedule, cfg: SimConfig) -> SimResult:
    """Run one simulation: run_many(schedule, cfg, 1)[0]."""
    return run_many(schedule, cfg, 1)[0]


_FORK_STATE: tuple[_Compiled, SimConfig] | None = None


def _pool_run(indices: Sequence[int]) -> list[SimResult]:
    c, cfg = _FORK_STATE  # type: ignore[misc]
    return _run_reps(c, cfg, indices)


def run_many(
    schedule: Schedule,
    cfg: SimConfig,
    n: int,
    workers: int | None = None,
) -> list[SimResult]:
    """n independent runs; run i is seeded with derive_run_seed(cfg.seed, i).

    n and ``workers`` (None for 1) must be >= 1, and ``cfg`` must give every
    message a finite wire delay. Results come back in run order and are
    bit-identical for identical (schedule, cfg, n) regardless of ``workers``.
    The schedule is compiled on first use and the compiled form kept on it.
    Parallel execution uses forked processes, each running a contiguous block
    of runs on the inherited compiled form, and falls back to sequential
    where fork is unavailable.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if workers is None:
        workers = 1
    elif workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    c = schedule._compiled
    if c is None:
        c = _Compiled(schedule)
        object.__setattr__(schedule, "_compiled", c)
    c.wire_max(cfg)  # refuses a cfg under which a wire delay is not finite
    workers = min(workers, n)
    if workers <= 1:
        return _run_reps(c, cfg, range(n))
    try:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return _run_reps(c, cfg, range(n))
    global _FORK_STATE
    _FORK_STATE = (c, cfg)
    try:
        blocks = [range(n * w // workers, n * (w + 1) // workers) for w in range(workers)]
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            return [r for block in pool.map(_pool_run, blocks) for r in block]
    finally:
        _FORK_STATE = None


def result_to_dict(result: SimResult, run_index: int, per_rank: bool = False) -> dict:
    """JSON-ready form of one run for the results export."""
    entry: dict[str, object] = {"run": run_index, "completion_ns": result.completion}
    if per_rank:
        entry["per_rank_completion_ns"] = list(result.per_rank_completion)
    return entry
