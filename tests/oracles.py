"""Independent reference implementations used to check the package under test.

Everything here is deliberately written against different structures than the
production code: the schedule oracle is an explicit edge-weighted longest-path
computation over a built graph, the detour oracle is the literal
extend-and-recheck fixed point, the KS distance is an exact sup over ECDF
step functions, the schedule writers build the document op by op from
``ScheduleOp`` views (JSON through ``json.dumps(indent=2)``), and the trace
readers take the whole text one row at a time.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from collections import deque


def wire_ns(latency: float, size: int, gap_per_byte: float) -> int:
    return math.floor(latency + (size - 1) * gap_per_byte + 0.5)


def dag_completion(
    schedule,
    params,
    g_per_message: dict[int, float] | None = None,
    lat_per_message: dict[int, float] | None = None,
) -> int:
    """Longest path through the fully expanded op graph, noiseless by default.

    Nodes are op starts and finishes. Edges:
      finish(dep)              -> start(op)   weight 0
      finish(previous op, rank)-> start(op)   weight 0   (host is serial)
      start(prev msg op, rank) -> start(op)   weight max(o, g)  (msg ops only)
      finish(send)             -> start(recv) weight round(L + (size-1)G)
    finish(op) = start(op) + o for message ops, + duration for calcs.

    Messages are matched in order per (src, dst, size). ``g_per_message`` and
    ``lat_per_message`` optionally override G / the latency term for the
    send with the given global message index (sends enumerated rank-major in
    program order), which lets tests enumerate per-message noise assignments.
    """
    o = params.o
    gap = max(params.o, params.g)

    ops = []  # (rank, op) with global ids
    gid_of = {}
    for rank, rank_ops in enumerate(schedule.ops):
        for op in rank_ops:
            gid_of[(rank, op.id)] = len(ops)
            ops.append((rank, op))
    n = len(ops)

    sends: dict[tuple[int, int, int], list[int]] = {}
    recvs: dict[tuple[int, int, int], list[int]] = {}
    msg_index = {}
    next_msg_index = 0
    for gid, (rank, op) in enumerate(ops):
        if op.kind == "send":
            msg_index[gid] = next_msg_index
            next_msg_index += 1
            sends.setdefault((rank, op.peer, op.size), []).append(gid)
        elif op.kind == "recv":
            recvs.setdefault((op.peer, rank, op.size), []).append(gid)

    # edge list into each start node: (source_node, weight); sources encoded
    # as ("s", gid) for starts and ("f", gid) for finishes
    in_edges: list[list[tuple[str, int, int]]] = [[] for _ in range(n)]
    for gid, (rank, op) in enumerate(ops):
        for dep in op.requires:
            in_edges[gid].append(("f", gid_of[(rank, dep)], 0))
        if op.id > 0:
            in_edges[gid].append(("f", gid - 1, 0))
    for rank, rank_ops in enumerate(schedule.ops):
        prev_msg = None
        for op in rank_ops:
            if op.kind in ("send", "recv"):
                gid = gid_of[(rank, op.id)]
                if prev_msg is not None:
                    in_edges[gid].append(("s", prev_msg, gap))
                prev_msg = gid
    for key, send_list in sends.items():
        recv_list = recvs.get(key, [])
        assert len(send_list) == len(recv_list), f"unmatched messages for {key}"
        for s_gid, r_gid in zip(send_list, recv_list):
            _, op = ops[s_gid]
            m = msg_index[s_gid]
            lat = lat_per_message.get(m, params.L) if lat_per_message else params.L
            g_eff = g_per_message.get(m, params.G) if g_per_message else params.G
            in_edges[r_gid].append(("f", s_gid, wire_ns(lat, op.size, g_eff)))

    # longest path in topological order (Kahn over start-node indegrees)
    indeg = [len(e) for e in in_edges]
    dependents: list[list[int]] = [[] for _ in range(n)]
    for gid, edges in enumerate(in_edges):
        for kind, src, _ in edges:
            dependents[src].append(gid)
    start = [0] * n
    finish = [0] * n
    queue = deque(g for g in range(n) if indeg[g] == 0)
    done = 0
    while queue:
        gid = queue.popleft()
        done += 1
        s = 0
        for kind, src, w in in_edges[gid]:
            v = (start[src] if kind == "s" else finish[src]) + w
            if v > s:
                s = v
        start[gid] = s
        _, op = ops[gid]
        finish[gid] = s + (op.size if op.kind == "calc" else o)
        for dep_gid in dependents[gid]:
            indeg[dep_gid] -= 1
            if indeg[dep_gid] == 0:
                queue.append(dep_gid)
    assert done == n, "oracle: schedule has a cycle"
    return max(finish) if finish else 0


def detour_end_fixed_point(start: int, duration: int, phase: int, trace) -> int:
    """Literal statement of the detour rule: extend the occupancy interval by
    the detour time it overlaps, re-check, repeat until nothing changes."""
    if duration <= 0:
        return start

    def overlap(t0: int, t1: int) -> int:
        if t1 <= t0:
            return 0
        total = 0
        first_cycle = (t0 + phase) // trace.span
        last_cycle = (t1 - 1 + phase) // trace.span
        for cycle in range(first_cycle, last_cycle + 1):
            base = cycle * trace.span - phase
            for ev_start, ev_dur in trace.events:
                a = base + ev_start
                b = a + ev_dur
                lo = max(a, t0)
                hi = min(b, t1)
                if hi > lo:
                    total += hi - lo
        return total

    end = start + duration
    while True:
        new_end = start + duration + overlap(start, end)
        if new_end == end:
            return end
        end = new_end


def ks_distance(sample_a, sample_b) -> float:
    """Exact Kolmogorov-Smirnov distance between two empirical CDFs."""
    a = sorted(sample_a)
    b = sorted(sample_b)
    na, nb = len(a), len(b)
    d = 0.0
    for p in sorted(set(a) | set(b)):
        d = max(
            d,
            abs(bisect_right(a, p) / na - bisect_right(b, p) / nb),
            abs(bisect_left(a, p) / na - bisect_left(b, p) / nb),
        )
    return d


def schedule_to_json(schedule) -> str:
    """The schedule JSON document, built as a dict and dumped with indent 2."""
    ranks = []
    for rank_ops in schedule.ops:
        ops = []
        for op in rank_ops:
            entry: dict[str, object] = {"id": op.id, "kind": op.kind}
            if op.kind == "calc":
                entry["duration_ns"] = op.size
            else:
                entry["peer"] = op.peer
                entry["size_bytes"] = op.size
            entry["requires"] = sorted(op.requires)
            ops.append(entry)
        ranks.append(ops)
    doc = {
        "schema": "nsim.schedule/1",
        "num_ranks": schedule.nranks,
        "metadata": dict(schedule.metadata),
        "ranks": ranks,
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def emit_goal(schedule) -> str:
    """GOAL text: metadata comments, then one block per rank, labels o<id>."""
    lines: list[str] = []
    for key in sorted(schedule.metadata):
        value = " ".join(str(schedule.metadata[key]).split())
        lines.append(f"# {key}: {value}")
    lines.append(f"num_ranks {schedule.nranks}")
    for rank, rank_ops in enumerate(schedule.ops):
        if not rank_ops:
            lines.append(f"rank {rank} {{ }}")
            continue
        lines.append(f"rank {rank} {{")
        for op in rank_ops:
            if op.kind == "send":
                lines.append(f"  o{op.id}: send {op.size}b to {op.peer}")
            elif op.kind == "recv":
                lines.append(f"  o{op.id}: recv {op.size}b from {op.peer}")
            else:
                lines.append(f"  o{op.id}: calc {op.size}")
            if op.requires:
                reqs = ", ".join(f"o{r}" for r in sorted(op.requires))
                lines.append(f"  o{op.id} requires {reqs}")
        lines.append("}")
    return "\n".join(lines) + "\n"


def _trace_rows(text: str, expected_unit: str):
    """Yield (line_number, timestamp, value) for each data row of trace CSV text."""
    from nsim.noise import TraceFormatError

    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if not saw_header and fields[0] == "timestamp_ns":
            saw_header = True
            continue
        if len(fields) not in (2, 3):
            raise TraceFormatError(f"expected 2 or 3 fields, got {len(fields)}", lineno)
        try:
            ts = int(fields[0])
        except ValueError:
            raise TraceFormatError(f"bad timestamp {fields[0]!r}", lineno) from None
        try:
            value = float(fields[1])
        except ValueError:
            raise TraceFormatError(f"bad value {fields[1]!r}", lineno) from None
        if not math.isfinite(value):
            raise TraceFormatError(f"non-finite value {fields[1]!r}", lineno)
        unit = fields[2] if len(fields) == 3 else None
        if unit is not None and unit != expected_unit:
            raise TraceFormatError(f"unit {unit!r} does not match expected "
                                   f"{expected_unit!r}", lineno)
        yield lineno, ts, value


def parse_trace(text: str, expected_unit: str):
    """The trace CSV reader, row by row over the whole text: a SampleTrace or
    the first fault as a TraceFormatError with its line."""
    from array import array

    from nsim.noise import SampleTrace, TraceFormatError

    positive = expected_unit in ("ns", "gbps")
    timestamps = array("q")
    values = array("d")
    for lineno, ts, value in _trace_rows(text, expected_unit):
        if timestamps and ts < timestamps[-1]:
            raise TraceFormatError(f"timestamp {ts} decreases (previous {timestamps[-1]})",
                                   lineno)
        if positive and value <= 0:
            raise TraceFormatError(f"{expected_unit} value must be > 0, got {value}", lineno)
        try:
            timestamps.append(ts)
        except OverflowError:
            raise TraceFormatError(f"timestamp {ts} is outside the signed 64-bit range",
                                   lineno) from None
        values.append(value)
    if not values:
        raise TraceFormatError("no samples in trace")
    return SampleTrace._from_columns(timestamps, values, expected_unit)


def load_detour_trace(path):
    """The detour trace reader: the span comment in one pass over the lines,
    then the rows with durations rounded half up."""
    from pathlib import Path

    from nsim.model import DetourTrace
    from nsim.noise import TraceFormatError

    text = Path(path).read_text(encoding="utf-8")
    span = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#") and "span_ns=" in line:
            value = line.split("span_ns=", 1)[1].strip()
            try:
                span = int(value)
            except ValueError:
                raise TraceFormatError(
                    f"'# span_ns=' needs an integer ns count, got {value!r}", lineno) from None
    events = []
    for lineno, ts, value in _trace_rows(text, "ns"):
        dur = math.floor(value + 0.5)
        if dur <= 0:
            raise TraceFormatError(f"detour duration must be > 0 ns, got {value}", lineno)
        events.append((ts, dur))
    if not events:
        raise TraceFormatError(f"no detour events in {path}")
    if span is None:
        span = max(s + d for s, d in events)
    return DetourTrace(tuple(events), span)
