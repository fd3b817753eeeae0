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
workers. Each run is then one forward pass over that order. Durations are
>= 0, so finishes never decrease along a rank's program order: a ``requires``
on an earlier op of the same rank is met once the previous op has released
the host, and one on a later op is a cycle through program order.

Noise
-----
With a latency distribution, each message draws a value v that replaces the
whole deterministic 2o+L term (measured one-way samples include host overhead
inseparably): the wire latency becomes max(0, v - 2o) while the two host
occupancies stay at o, so an uncontended message completes in v + (size-1)G.
With a bandwidth distribution, each message draws bw and uses
G_eff = 8/bw. With a detour trace, each rank gets an independent uniformly
random cyclic phase into the trace per run, and any host occupancy is extended
by the detour time it overlaps, re-checked until a fixed point (equivalently:
occupancy ends once the host has accumulated its base duration of
detour-free time).

Determinism
-----------
The PRNG is splitmix64, used in counter mode: run i of a batch derives
``run_seed = mix64(seed + (i+1)*GAMMA)``, the detour phase of rank r is
``mix64((run_seed ^ OS_STREAM) + (r+1)*GAMMA)`` scaled to [0, span), and a
message with static index m (sends enumerated in (rank, op id) order) draws
``mix64((run_seed ^ LAT_STREAM) + (m+1)*GAMMA)`` for latency and the
BW_STREAM analogue for bandwidth, each mapped to a distribution index by
``(u64 * count) >> 64``. Because every value a run computes is a pure function
of these inputs, results are bit-identical regardless of worker count or of
which valid order the ops are visited in.
"""

from __future__ import annotations

from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from .goal import CALC, RECV, SEND, Schedule, ScheduleValidationError, validate
from .model import LogGPParams, NoiseModel, one_way_wire_ns

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

_KIND_SEND, _KIND_RECV, _KIND_CALC = 0, 1, 2


class _Compiled:
    """Flat per-op columns and the static execution order of one schedule.

    Ops are numbered globally in (rank, op id) order. ``msg`` holds, for a
    send and for its matched recv, the send's index among all sends, which is
    also the counter of its noise draws.
    """

    __slots__ = ("schedule", "nranks", "offsets", "kind", "size", "rank", "msg",
                 "n_sends", "order")

    def __init__(self, schedule: Schedule):
        violations = validate(schedule)
        if violations:
            raise ScheduleValidationError(violations)
        self.schedule = schedule
        self.nranks = nranks = schedule.nranks
        kind_code = {SEND: _KIND_SEND, RECV: _KIND_RECV, CALC: _KIND_CALC}
        offsets: list[int] = []
        kind: list[int] = []
        size: list[int] = []
        rank: list[int] = []
        msg: list[int] = []
        # In-order matching: the j-th send of a (src, dst, size) triple pairs
        # with the j-th recv; validate() already guaranteed equal counts.
        sends: dict[tuple[int, int, int], list[int]] = {}
        recvs: dict[tuple[int, int, int], list[int]] = {}
        n_sends = 0
        for r, rank_ops in enumerate(schedule.ops):
            offsets.append(len(kind))
            for op in rank_ops:
                m = -1
                if op.kind == SEND:
                    m = n_sends
                    n_sends += 1
                    sends.setdefault((r, op.peer, op.size), []).append(m)
                elif op.kind == RECV:
                    recvs.setdefault((op.peer, r, op.size), []).append(len(kind))
                kind.append(kind_code[op.kind])
                size.append(op.size)
                rank.append(r)
                msg.append(m)
        for key, send_ms in sends.items():
            for m, r_gid in zip(send_ms, recvs[key]):
                msg[r_gid] = m

        # Kahn's algorithm over program order, requires and matches. Program
        # order makes each rank a chain, so a rank advances while its next op
        # is ready: every op it requires already placed (an earlier op; a
        # later one is a cycle through program order) and, for a recv, its
        # send placed. Placing a send wakes the rank of its recv.
        sent = [False] * n_sends
        placed = [0] * nranks  # ops of each rank placed so far
        order: list[int] = []
        todo = list(range(nranks))
        while todo:
            r = todo.pop()
            rank_ops = schedule.ops[r]
            base = offsets[r]
            i = placed[r]
            while i < len(rank_ops):
                op = rank_ops[i]
                gid = base + i
                k = kind[gid]
                if (op.requires and max(op.requires) >= i) or (
                        k == _KIND_RECV and not sent[msg[gid]]):
                    break
                order.append(gid)
                if k == _KIND_SEND:
                    sent[msg[gid]] = True
                    todo.append(op.peer)
                i += 1
            placed[r] = i
        if len(order) < len(kind):
            raise DeadlockError([
                (r, i, rank_ops[i].kind)
                for r, rank_ops in enumerate(schedule.ops)
                for i in range(placed[r], len(rank_ops))
            ])
        self.offsets = offsets
        self.kind = kind
        self.size = size
        self.rank = rank
        self.msg = msg
        self.n_sends = n_sends
        self.order = order


# ---------------------------------------------------------------------------
# OS detour replay

def _detour_end(
    t_start: int,
    duration: int,
    phase: int,
    ev_starts: list[int],
    ev_ends: list[int],
    span: int,
    idle_per_span: int,
) -> int:
    """Earliest end of a host occupancy of ``duration`` beginning at ``t_start``.

    Walks the cyclic detour pattern accumulating detour-free time until the
    base duration is covered; this is the least fixed point of "extend the
    interval by the detour time it overlaps, re-check".
    """
    if duration <= 0 or not ev_starts:
        return t_start + duration
    remaining = duration
    t = t_start
    if remaining > idle_per_span:  # whole cycles in one hop
        cycles = (remaining - 1) // idle_per_span
        t += cycles * span
        remaining -= cycles * idle_per_span
    pos = (t + phase) % span
    nev = len(ev_starts)
    while True:
        i = bisect_right(ev_starts, pos) - 1
        if i >= 0 and pos < ev_ends[i]:  # inside a detour: no progress
            jump = ev_ends[i] - pos
            t += jump
            pos += jump
            if pos >= span:
                pos -= span
            continue
        j = bisect_right(ev_starts, pos)
        if j < nev:
            idle = ev_starts[j] - pos
        else:
            idle = span - pos + ev_starts[0]  # wrap to the next cycle's first event
        if remaining <= idle:
            return t + remaining
        remaining -= idle
        t += idle
        pos = (pos + idle) % span


# ---------------------------------------------------------------------------
# One run

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
        ev_starts = [s for s, _ in osn.events]
        ev_ends = [s + d for s, d in osn.events]
        span = osn.span
        idle_per_span = span - osn.total_detour
        os_seed = run_seed ^ _OS_STREAM
        phases = [_pick(os_seed, r, span) for r in range(c.nranks)]

    kind = c.kind
    size = c.size
    rank = c.rank
    msg = c.msg
    n = len(kind)
    start = [0] * n
    finish = [0] * n
    free = [0] * c.nranks  # when each rank's host is released
    msg_ok = [0] * c.nranks  # earliest start of each rank's next message op
    arrival = [0] * c.n_sends  # when message m reaches its recv

    for gid in c.order:
        r = rank[gid]
        t = free[r]
        k = kind[gid]
        if k == _KIND_CALC:
            dur = size[gid]
        else:
            if k == _KIND_RECV and arrival[msg[gid]] > t:
                t = arrival[msg[gid]]
            if msg_ok[r] > t:
                t = msg_ok[r]
            msg_ok[r] = t + gap
            dur = o
        if osn is not None:
            f = _detour_end(t, dur, phases[r], ev_starts, ev_ends, span, idle_per_span)
        else:
            f = t + dur
        start[gid] = t
        finish[gid] = f
        free[r] = f
        if k == _KIND_SEND:
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
    per_op = None
    if cfg.record_per_op:
        per_op = tuple(
            tuple(zip(start[lo:lo + len(ops)], finish[lo:lo + len(ops)]))
            for lo, ops in zip(c.offsets, c.schedule.ops)
        )
    return SimResult(
        completion=max(free),
        per_rank_completion=tuple(free),
        draws_used=draws,
        per_op_times=per_op,
    )


# ---------------------------------------------------------------------------
# Public API

def simulate(schedule: Schedule, cfg: SimConfig) -> SimResult:
    """Run one simulation; identical to run_many(schedule, cfg, 1)[0]."""
    return _run(_Compiled(schedule), cfg, 0)


_FORK_STATE: tuple[_Compiled, SimConfig] | None = None


def _pool_run(indices: Sequence[int]) -> list[SimResult]:
    c, cfg = _FORK_STATE  # type: ignore[misc]
    return [_run(c, cfg, i) for i in indices]


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
    c = _Compiled(schedule)
    if workers is None:
        workers = 1
    workers = min(workers, n)
    if workers <= 1:
        return [_run(c, cfg, i) for i in range(n)]
    try:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return [_run(c, cfg, i) for i in range(n)]
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
