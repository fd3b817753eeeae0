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
the noise draws. The order in which ops can execute is therefore static: it is
computed once per schedule, and a schedule in which some op can never run
raises DeadlockError at that point, before any run and before run_many starts
workers. Durations are >= 0, so finishes never decrease along a rank's
program order: a ``requires`` on an earlier op of the same rank is met once
the previous op has released the host, and one on a later op is a cycle
through program order.

Two engines
-----------
The per-op engine (``_run``) computes one run as one forward pass over that
order in Python integers. The batch engine (``_run_batch``) computes a chunk
of runs at once as int64 numpy arrays: it draws every message's wire delay up
front, then visits the DAG levels in order, all ops of one level (which are
independent) for all runs of the chunk together. ``simulate`` and
``run_many`` pick the batch engine when the schedule is wide, ops x reps >=
``_BATCH_K`` x levels, the op-runs are enough to pay for importing numpy,
ops x reps >= ``_BATCH_MIN_OP_RUNS``, and every time value is provably below
2**62 (``_Compiled.time_bound``). Deep, narrow schedules, small jobs and ones
whose times could leave int64 run per op. numpy is imported only when the
batch engine runs. Both engines keep every time an exact integer, compute
each wire delay with the same IEEE-754 operations on the same values and
stretch occupancies by the same closed form on the same tables, so they give
the same bits; tests check this on random schedules.

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
accumulated its base duration of detour-free time, found by two bisections of
per-span idle-time tables (``_detour_end``, ``_detour_end_vec``).

Determinism
-----------
The PRNG is splitmix64, used in counter mode: run i of a batch derives
``run_seed = mix64(seed + (i+1)*GAMMA)``, the detour phase of rank r is
``mix64((run_seed ^ OS_STREAM) + (r+1)*GAMMA)`` scaled to [0, span), and a
message with static index m (sends enumerated in (rank, op id) order) draws
``mix64((run_seed ^ LAT_STREAM) + (m+1)*GAMMA)`` for latency and the
BW_STREAM analogue for bandwidth, each mapped to a distribution index by
``(u64 * count) >> 64``. Because every value a run computes is a pure function
of these inputs, results are bit-identical regardless of worker count, of
which engine runs them, of how runs are chunked, or of which valid order the
ops are visited in.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .goal import (KIND_CALC, KIND_RECV, KIND_SEND, KINDS, Schedule,
                   ScheduleValidationError, match_messages, validate)
from .model import DetourTrace, LogGPParams, NoiseModel, one_way_wire_ns

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


def _pick(seed: int, i: int, count: int) -> int:
    """Draw i of the counter-mode stream ``seed``, mapped to an index in [0, count)."""
    return (mix64(seed + (i + 1) * _GAMMA) * count) >> 64


class DeadlockError(RuntimeError):
    """Schedule with ops that can never run; lists the blocked ops."""

    def __init__(self, blocked: list[tuple[int, int, str]]):
        self.blocked = blocked
        shown = ", ".join(f"rank {r} op {i} ({k})" for r, i, k in blocked[:16])
        more = "" if len(blocked) <= 16 else f" and {len(blocked) - 16} more"
        super().__init__(f"deadlock: {len(blocked)} op(s) blocked: {shown}{more}")


@dataclass(frozen=True)
class SimConfig:
    """Everything that determines a run besides the schedule itself."""

    params: LogGPParams
    noise: NoiseModel = _NOISELESS
    seed: int = 0
    record_per_op: bool = False


@dataclass(frozen=True)
class SimResult:
    """Completion times of one run.

    completion is max(per_rank_completion); per_op_times, present only when
    recording was requested, maps [rank][op id] -> (start, finish) ns.
    draws_used counts the latency/bandwidth distribution samples consumed.
    """

    completion: int
    per_rank_completion: tuple[int, ...]
    draws_used: int
    per_op_times: tuple[tuple[tuple[int, int], ...], ...] | None = None


# ---------------------------------------------------------------------------
# Static schedule compilation (shared by every run of a batch)


class _Compiled:
    """Per-op columns and the static execution order of one schedule.

    Ops are numbered globally in (rank, op id) order; ``offsets``, ``kind``
    and ``size`` are the schedule's own columns. ``msg`` holds, for a send and
    for its matched recv, the send's index among all sends, which is also the
    counter of its noise draws. ``level`` is an op's depth in the execution
    DAG: one more than the larger of the levels of its rank predecessor and,
    for a recv, its send. Ops of one level are independent, and a rank has at
    most one op per level. Every per-op column is a stdlib array.
    """

    __slots__ = ("nranks", "offsets", "kind", "size", "rank", "msg", "n_sends", "order",
                 "level", "n_levels", "calc_total", "n_calc", "send_bytes")

    def __init__(self, schedule: Schedule):
        violations = validate(schedule)
        if violations:
            raise ScheduleValidationError(violations)
        self.nranks = nranks = schedule.nranks
        self.offsets = offsets = schedule.rank_offsets
        self.kind = kind = schedule.kinds
        self.size = size = schedule.sizes
        peer = schedule.peers
        req, req_off = schedule.req_targets, schedule.req_offsets
        n = len(kind)
        rank = array("i")
        for r in range(nranks):
            rank += array("i", [r]) * (offsets[r + 1] - offsets[r])

        # Sends are numbered in op order; a recv shares its send's number.
        send_of, _ = match_messages(schedule)
        msg = array("q", [-1]) * n
        n_sends = calc_total = send_bytes = 0
        for g in range(n):
            k = kind[g]
            if k == KIND_SEND:
                msg[g] = n_sends
                n_sends += 1
                send_bytes += size[g] - 1
            elif k == KIND_CALC:
                calc_total += size[g]
        for g in range(n):
            if kind[g] == KIND_RECV:
                msg[g] = msg[send_of[g]]
        del send_of

        # Kahn's algorithm over program order, requires and matches. Program
        # order makes each rank a chain, so a rank advances while its next op
        # is ready: every op it requires already placed (an earlier op; a
        # later one is a cycle through program order) and, for a recv, its
        # send placed. Placing a send wakes the rank of its recv.
        sent = bytearray(n_sends)
        send_level = array("i", [0]) * n_sends
        level = array("i", [0]) * n
        placed = [0] * nranks  # ops of each rank placed so far
        order = array("q")
        todo = list(range(nranks))
        while todo:
            r = todo.pop()
            base = offsets[r]
            count = offsets[r + 1] - base
            i = placed[r]
            while i < count:
                gid = base + i
                k = kind[gid]
                last_req = req_off[gid + 1] - 1
                if (last_req >= req_off[gid] and req[last_req] >= i) or (
                        k == KIND_RECV and not sent[msg[gid]]):
                    break
                order.append(gid)
                lv = level[gid - 1] + 1 if i else 0
                if k == KIND_SEND:
                    sent[msg[gid]] = 1
                    send_level[msg[gid]] = lv
                    todo.append(peer[gid])
                elif k == KIND_RECV and send_level[msg[gid]] >= lv:
                    lv = send_level[msg[gid]] + 1
                level[gid] = lv
                i += 1
            placed[r] = i
        if len(order) < n:
            raise DeadlockError([
                (r, i, KINDS[kind[offsets[r] + i]])
                for r in range(nranks)
                for i in range(placed[r], offsets[r + 1] - offsets[r])
            ])
        self.rank = rank
        self.msg = msg
        self.n_sends = n_sends
        self.order = order
        self.level = level
        self.n_levels = max(level) + 1 if n else 0
        self.calc_total = calc_total
        self.n_calc = kind.count(KIND_CALC)
        self.send_bytes = send_bytes

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
        lat = noise.latency
        bw = noise.bandwidth
        try:
            lat_max = params.L if lat is None else max(0.0, lat.samples[-1] - 2 * o)
            g_max = params.G if bw is None else 8.0 / bw.samples[0]
            return busy + math.ceil(self.n_sends * (lat_max + 1.0) + self.send_bytes * g_max)
        except (OverflowError, ValueError):  # an infinite or NaN wire bound
            return math.inf


# ---------------------------------------------------------------------------
# OS detour replay

def _detour_tables(osn: DetourTrace):
    """Idle-time tables of one detour trace for ``_detour_end`` and ``_detour_end_vec``.

    Idle segment k runs from ``seg_start[k]`` (0, or the end of event k-1) to
    the start of event k (or the span); ``idle_at[k]`` and ``idle_to[k]`` are
    the idle ns accumulated in a span at its start and end, and
    ``detour_before[k]`` the detour ns before it. Built on first use and kept
    on the trace.
    """
    tables = osn.__dict__.get("_tables")
    if tables is None:
        starts = [s for s, _ in osn.events]
        detour_before = list(accumulate((d for _, d in osn.events), initial=0))
        seg_start = [0] + [s + d for s, d in osn.events]
        idle_at = [s - b for s, b in zip(seg_start, detour_before)]
        idle_to = [s - b for s, b in zip(starts + [osn.span], detour_before)]
        tables = (starts, detour_before, seg_start, idle_at, idle_to, osn.span,
                  osn.span - osn.total_detour)
        object.__setattr__(osn, "_tables", tables)
    return tables


def _detour_end(t: int, dur: int, phase: int, tables) -> int:
    """Earliest end of a host occupancy of ``dur`` beginning at ``t``.

    With I(y) the idle ns of the cyclic pattern before pattern position y, an
    occupancy of ``dur`` > 0 that starts at pattern position x = t + phase
    ends at the least y with I(y) = I(x) + dur: the least fixed point of
    "extend the interval by the detour time it overlaps, re-check". Both
    steps are a bisection of the tables of one span.
    """
    if dur <= 0:
        return t
    starts, detour_before, seg_start, idle_at, idle_to, span, idle = tables
    cycles, pos = divmod(t + phase, span)
    j = bisect_right(starts, pos)  # events that began by pos
    wait = seg_start[j] - pos  # > 0 when pos lies inside event j-1
    if wait < 0:
        wait = 0
    a = pos - detour_before[j] + wait + dur  # I(y) less the idle ns of whole cycles
    if a <= idle_to[j]:  # ends in the idle segment it starts in
        return t + wait + dur
    extra = (a - 1) // idle  # the last idle ns lies in cycle cycles + extra
    a -= extra * idle  # in [1, idle]
    k = bisect_left(idle_to, a)
    return (cycles + extra) * span + seg_start[k] + (a - idle_at[k]) - phase


# ---------------------------------------------------------------------------
# One run

def _per_op_times(c: _Compiled, start: list[int], finish: list[int]):
    """``SimResult.per_op_times`` from per-op start and finish lists."""
    bounds = c.offsets.tolist()
    return tuple(tuple(zip(start[lo:hi], finish[lo:hi])) for lo, hi in zip(bounds, bounds[1:]))


def _run(c: _Compiled, cfg: SimConfig, run_index: int) -> SimResult:
    params = cfg.params
    noise = cfg.noise
    run_seed = derive_run_seed(cfg.seed, run_index)

    o = params.o
    gap = max(o, params.g)
    two_o = 2 * o
    lat = noise.latency
    bw = noise.bandwidth
    lat_seed = run_seed ^ _LAT_STREAM
    bw_seed = run_seed ^ _BW_STREAM

    osn = noise.os
    if osn is not None:
        tables = _detour_tables(osn)
        os_seed = run_seed ^ _OS_STREAM
        phases = [_pick(os_seed, r, osn.span) for r in range(c.nranks)]

    # Lists index faster than arrays in this loop.
    kind = c.kind.tolist()
    size = c.size.tolist()
    rank = c.rank.tolist()
    msg = c.msg.tolist()
    n = len(kind)
    start = [0] * n
    finish = [0] * n
    free = [0] * c.nranks  # when each rank's host is released
    msg_ok = [0] * c.nranks  # earliest start of each rank's next message op
    arrival = [0] * c.n_sends  # when message m reaches its recv

    for gid in c.order.tolist():
        r = rank[gid]
        t = free[r]
        k = kind[gid]
        if k == KIND_CALC:
            dur = size[gid]
        else:
            if k == KIND_RECV and arrival[msg[gid]] > t:
                t = arrival[msg[gid]]
            if msg_ok[r] > t:
                t = msg_ok[r]
            msg_ok[r] = t + gap
            dur = o
        if osn is not None:
            f = _detour_end(t, dur, phases[r], tables)
        else:
            f = t + dur
        start[gid] = t
        finish[gid] = f
        free[r] = f
        if k == KIND_SEND:
            m = msg[gid]
            if lat is not None:
                lat_eff = lat.samples[_pick(lat_seed, m, lat.count)] - two_o
                if lat_eff < 0.0:
                    lat_eff = 0.0
            else:
                lat_eff = params.L
            g_eff = params.G if bw is None else 8.0 / bw.samples[_pick(bw_seed, m, bw.count)]
            arrival[m] = f + one_way_wire_ns(lat_eff, size[gid], g_eff)

    draws = c.n_sends * ((lat is not None) + (bw is not None))
    per_op = _per_op_times(c, start, finish) if cfg.record_per_op else None
    return SimResult(
        completion=max(free),
        per_rank_completion=tuple(free),
        draws_used=draws,
        per_op_times=per_op,
    )


# ---------------------------------------------------------------------------
# Batched runs: a chunk of reps, one level of the execution DAG at a time

# The batch path runs when ops * reps >= _BATCH_K * levels, i.e. when a level
# holds enough op-runs to pay for the fixed cost of its numpy calls, and when
# there are at least _BATCH_MIN_OP_RUNS op-runs to pay for importing numpy
# (0.16 s, about as long as 2**16 op-runs take per op).
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
    """``_pick(seeds[j], i, count)`` as a uint64 array of shape (i, j), for the
    ``_steps`` of the counters i."""
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


def _detour_end_vec(t, dur, phase, tables):
    """``_detour_end`` over int64 arrays: the same closed form on the same tables."""
    import numpy as np

    starts, detour_before, seg_start, idle_at, idle_to, span, idle = tables
    x = t + phase
    cycles, pos = np.divmod(x, span)
    j = np.searchsorted(starts, pos, side="right")  # events that began by pos
    target = (cycles * idle + pos - detour_before[j]
              + np.maximum(seg_start[j] - pos, 0) + dur)
    cycles = (target - 1) // idle  # the last idle ns lies in this cycle
    a = target - cycles * idle  # in [1, idle]
    k = np.searchsorted(idle_to, a, side="left")
    end = cycles * span + seg_start[k] + (a - idle_at[k]) - phase
    return np.where(dur > 0, end, t)


def _levels(c: _Compiled, o: int):
    """Per DAG level, the index arrays ``_run_batch`` gathers and scatters with.

    Each level is a tuple: the level's op ids; their ranks; their durations
    (``o`` for a message op) as a column; the msg_ok rows they read; the positions of the message ops
    among them (None when all are); the msg_ok rows those write; the arrival
    rows they read; the positions of the sends among them; and the sends'
    message indices. Rows ``c.nranks`` of msg_ok and ``c.n_sends`` of arrival
    stay 0, and ops that do not wait on them read those rows: every time is
    >= 0. The msg_ok and arrival reads are None for a level without message
    ops or recvs.
    """
    import numpy as np

    kind = np.frombuffer(c.kind, dtype=np.int8)
    rank = np.frombuffer(c.rank, dtype=np.int32).astype(np.intp)
    msg = np.frombuffer(c.msg, dtype=np.int64).astype(np.intp)
    level = np.frombuffer(c.level, dtype=np.int32)
    is_calc = kind == KIND_CALC
    dur_all = np.full(len(kind), o, dtype=np.int64)
    dur_all[is_calc] = np.frombuffer(c.size, dtype=np.uint64)[is_calc]
    by_level = np.argsort(level, kind="stable")
    bounds = np.searchsorted(level[by_level], np.arange(c.n_levels + 1))
    levels = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        gids = by_level[lo:hi]
        k = kind[gids]
        ranks = rank[gids]
        is_msg = k != KIND_CALC
        is_recv = k == KIND_RECV
        is_send = k == KIND_SEND
        all_msg = bool(is_msg.all())
        levels.append((
            gids,
            ranks,
            dur_all[gids][:, None],
            np.where(is_msg, ranks, c.nranks) if is_msg.any() else None,
            None if all_msg else np.flatnonzero(is_msg),
            ranks[is_msg],
            np.where(is_recv, msg[gids], c.n_sends) if is_recv.any() else None,
            np.flatnonzero(is_send),
            msg[gids][is_send],
        ))
    return levels


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
    nranks, n_sends, n_ops = c.nranks, c.n_sends, len(c.kind)
    levels = _levels(c, o)
    is_send = np.frombuffer(c.kind, dtype=np.int8) == KIND_SEND
    size_m1 = (np.frombuffer(c.size, dtype=np.uint64)[is_send] - 1).astype(np.float64)[:, None]
    lat_samples = None if noise.latency is None else np.array(noise.latency.samples)
    bw_samples = None if noise.bandwidth is None else np.array(noise.bandwidth.samples)
    tables = None
    if osn is not None:
        *cols, span, idle = _detour_tables(osn)
        tables = (*(np.asarray(col, dtype=np.int64) for col in cols), span, idle)
    draws = n_sends * ((lat_samples is not None) + (bw_samples is not None))
    send_steps = _steps(np.arange(n_sends, dtype=np.uint64))
    rank_steps = _steps(np.arange(nranks, dtype=np.uint64)) if tables is not None else None

    # Words per rep of a chunk's numpy arrays at the larger of its two peaks.
    # Drawing: at most five (nranks,) temporaries for the detour phases, then,
    # with the phases alive, at most six (n_sends,) ones in _wire_vec. The
    # level loop: free, msg_ok, phases, arrival, wire, the recorded starts and
    # finishes, and about eight temporaries of the widest level.
    widest = max((len(lv[0]) for lv in levels), default=0)
    os_words = nranks if tables is not None else 0
    wire_words = n_sends if draws else 0
    draw_words = 5 * os_words + 6 * wire_words
    loop_words = (2 * nranks + os_words + n_sends + wire_words + 8 * widest
                  + (2 * n_ops if cfg.record_per_op else 0) + 2)
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

        free = np.zeros((nranks, reps), dtype=np.int64)
        msg_ok = np.zeros((nranks + 1, reps), dtype=np.int64)
        arrival = np.zeros((n_sends + 1, reps), dtype=np.int64)
        if cfg.record_per_op:
            start = np.empty((n_ops, reps), dtype=np.int64)
            finish = np.empty((n_ops, reps), dtype=np.int64)
        for (gids, ranks, dur, ok_rows, msg_pos, msg_ranks, arr_rows,
             send_pos, send_m) in levels:
            t = take(free, ranks, axis=0)
            if arr_rows is not None:
                np.maximum(t, take(arrival, arr_rows, axis=0), out=t)
            if ok_rows is not None:
                np.maximum(t, take(msg_ok, ok_rows, axis=0), out=t)
                msg_ok[msg_ranks] = (t if msg_pos is None else take(t, msg_pos, axis=0)) + gap
            if tables is None:
                f = t + dur
            else:
                f = _detour_end_vec(t, dur, take(phases, ranks, axis=0), tables)
            free[ranks] = f
            if len(send_m):
                arrival[send_m] = take(f, send_pos, axis=0) + take(wire, send_m, axis=0)
            if cfg.record_per_op:
                start[gids] = t
                finish[gids] = f

        per_rank = free.T.tolist()
        if cfg.record_per_op:
            starts, finishes = start.T.tolist(), finish.T.tolist()
        results = []
        for j, row in enumerate(per_rank):
            per_op = _per_op_times(c, starts[j], finishes[j]) if cfg.record_per_op else None
            results.append(SimResult(completion=max(row), per_rank_completion=tuple(row),
                                     draws_used=draws, per_op_times=per_op))
        return results

    results: list[SimResult] = []
    for first in range(0, len(run_indices), chunk):
        results.extend(run_chunk(run_indices[first:first + chunk]))
    return results


def _run_reps(c: _Compiled, cfg: SimConfig, run_indices: Sequence[int]) -> list[SimResult]:
    """The runs ``run_indices``, batched when ``_use_batch`` allows it."""
    if _use_batch(c, cfg, len(run_indices)):
        return _run_batch(c, cfg, run_indices)
    return [_run(c, cfg, i) for i in run_indices]


# ---------------------------------------------------------------------------
# Public API

def _compiled(schedule: Schedule) -> _Compiled:
    """The compiled form of ``schedule``, built on first use and kept on it."""
    c = schedule._compiled
    if c is None:
        c = _Compiled(schedule)
        object.__setattr__(schedule, "_compiled", c)
    return c


def simulate(schedule: Schedule, cfg: SimConfig) -> SimResult:
    """Run one simulation; identical to run_many(schedule, cfg, 1)[0]."""
    return _run_reps(_compiled(schedule), cfg, [0])[0]


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

    Results come back in run order and are bit-identical for identical
    (schedule, cfg, n) regardless of ``workers``. Parallel execution uses
    forked processes (one compile, inherited read-only) and falls back to
    sequential where fork is unavailable.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    c = _compiled(schedule)
    if workers is None:
        workers = 1
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
        chunks = [list(range(w, n, workers)) for w in range(workers)]
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            per_worker = list(pool.map(_pool_run, chunks))
    finally:
        _FORK_STATE = None
    results: list[SimResult | None] = [None] * n
    for chunk, chunk_results in zip(chunks, per_worker):
        for i, res in zip(chunk, chunk_results):
            results[i] = res
    return results  # type: ignore[return-value]


def result_to_dict(result: SimResult, run_index: int, per_rank: bool = False) -> dict:
    """JSON-ready form of one run for the results export."""
    entry: dict[str, object] = {"run": run_index, "completion_ns": result.completion}
    if per_rank:
        entry["per_rank_completion_ns"] = list(result.per_rank_completion)
    return entry
