"""Independent reference implementations used to check the package under test.

Everything here is deliberately written against different structures than the
production code: the schedule oracle is an explicit edge-weighted longest-path
computation over a built graph, the detour oracle is the literal
extend-and-recheck fixed point, the KS distance is an exact sup over ECDF
step functions, the schedule writers build the document op by op from
``ScheduleOp`` views (JSON through ``json.dumps(indent=2)``), the trace
readers take the whole text one row at a time, the GOAL text reader takes
every block one statement at a time with its own patterns, a comment
matched as a separator, where the package blanks comments and reads each
block body in bulk, the schedule columns are built and
checked one op at a time where the package appends and checks whole ranks,
the static analysis of a schedule makes three passes where the package
makes one walk and diagnoses from the ``ScheduleOp`` views where the package
reads the columns, and the per-op engine (``run_recorded``) records every op's
(start, finish), which the package's engines do not keep. It draws each
message's noise (``pick``) and bisects the detour tables (``detour_end``) op
by op, where the package draws a run's values up front and looks detours up
only for an occupancy that leaves its rank's idle window.
"""

from __future__ import annotations

import json
import math
import re
from array import array
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


def static_analysis(schedule):
    """The verdict, message numbers and levels of a schedule, in three passes.

    First the diagnostics, from the ``ScheduleOp`` views: in op order, each
    message op whose peer is its own rank or out of range and each op whose
    requires name itself or a later op, then each (src, dst, size) triple
    whose send and recv counts differ, in triple order. Then the message
    numbers from pairing sends with recvs in order per triple, then Kahn's
    algorithm over program order and pairing for the levels (with no
    requires at or after an op, program order meets every requires).
    Returns ``(violations, msg, level, blocked)``: msg and level are per-op
    lists of a runnable schedule, blocked the DeadlockError list of one that
    validates but cannot run, and the fields that do not apply are None.
    """
    from nsim.goal import CALC, KIND_RECV, KIND_SEND, KINDS, SEND

    nranks = schedule.nranks
    violations = []
    counts = {}  # (src, dst, size) -> [sends, recvs]
    for r, rank_ops in enumerate(schedule.ops):
        for op in rank_ops:
            if op.kind != CALC and op.peer == r:
                violations.append(f"rank {r} op {op.id}: peer equals own rank")
            elif op.kind != CALC and op.peer >= nranks:
                violations.append(f"rank {r} op {op.id}: peer {op.peer} out of range")
            elif op.kind == SEND:
                counts.setdefault((r, op.peer, op.size), [0, 0])[0] += 1
            elif op.kind != CALC:
                counts.setdefault((op.peer, r, op.size), [0, 0])[1] += 1
            later = sorted(d for d in op.requires if d >= op.id)
            if later:
                violations.append(f"rank {r} op {op.id}: requires op(s) {later} at or after "
                                  "it, a dependency cycle through program order")
    violations += [f"unmatched messages {src}->{dst} size {size}: {ns} send(s), {nr} recv(s)"
                   for (src, dst, size), (ns, nr) in sorted(counts.items()) if ns != nr]
    if violations:
        return violations, None, None, None
    offsets, kind, peer, size = (schedule.rank_offsets, schedule.kinds, schedule.peers,
                                 schedule.sizes)
    n = len(kind)
    msg = [-1] * n
    queued: dict[tuple[int, int, int], deque] = {}  # each triple's send numbers
    n_sends = 0
    for r in range(nranks):
        for g in range(offsets[r], offsets[r + 1]):
            if kind[g] == KIND_SEND:
                msg[g] = n_sends
                queued.setdefault((r, peer[g], size[g]), deque()).append(n_sends)
                n_sends += 1
    for r in range(nranks):
        for g in range(offsets[r], offsets[r + 1]):
            if kind[g] == KIND_RECV:
                msg[g] = queued[(peer[g], r, size[g])].popleft()
    sent = [False] * n_sends
    send_level = [0] * n_sends
    level = [0] * n
    placed = [0] * nranks
    todo = list(range(nranks))
    while todo:
        r = todo.pop()
        base, count = offsets[r], offsets[r + 1] - offsets[r]
        i = placed[r]
        while i < count:
            g = base + i
            if kind[g] == KIND_RECV and not sent[msg[g]]:
                break
            lv = level[g - 1] + 1 if i else 0
            if kind[g] == KIND_SEND:
                sent[msg[g]] = True
                send_level[msg[g]] = lv
                todo.append(peer[g])
            elif kind[g] == KIND_RECV:
                lv = max(lv, send_level[msg[g]] + 1)
            level[g] = lv
            i += 1
        placed[r] = i
    blocked = [(r, i, KINDS[kind[offsets[r] + i]])
               for r in range(nranks) for i in range(placed[r], offsets[r + 1] - offsets[r])]
    if blocked:
        return [], None, None, blocked
    return [], msg, level, None


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


def schedule_doc(nranks, ops, metadata=None) -> dict:
    """The schedule JSON document of per-rank ScheduleOp sequences, its columns
    appended op by op. The values are not checked, so a test can write faults."""
    doc = {"schema": "nsim.schedule/2", "num_ranks": nranks, "metadata": dict(metadata or {}),
           "rank_offsets": [0], "kinds": [], "peers": [], "sizes": [], "req_offsets": [0],
           "req_targets": []}
    for rank_ops in ops:
        for op in rank_ops:
            doc["kinds"].append(("send", "recv", "calc").index(op.kind))
            doc["peers"].append(-1 if op.peer is None else op.peer)
            doc["sizes"].append(op.size)
            doc["req_targets"] += sorted(op.requires)
            doc["req_offsets"].append(len(doc["req_targets"]))
        doc["rank_offsets"].append(len(doc["kinds"]))
    return doc


def schedule_to_json(schedule) -> str:
    """The schedule JSON document of ``schedule``'s ScheduleOp views."""
    return json.dumps(schedule_doc(schedule.nranks, schedule.ops, schedule.metadata),
                      separators=(",", ":")) + "\n"


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


def top_fraction(trace, frac: float, side: str):
    """The ceil(frac * n) rows first by (-value or value, timestamp, row index),
    in row order: the tie rule ``top_fraction`` documents, as an explicit key."""
    from nsim.noise import SampleTrace

    rows = trace.rows
    sign = -1.0 if side == "largest" else 1.0
    ranked = sorted(range(len(rows)), key=lambda i: (sign * rows[i][1], rows[i][0], i))
    chosen = sorted(ranked[:math.ceil(frac * len(rows))])
    return SampleTrace([rows[i] for i in chosen], trace.unit)


def load_detour_trace(path):
    """The detour trace reader: the span comment in one pass over the lines
    (a second one is refused), then the rows with durations rounded half up."""
    from pathlib import Path

    from nsim.model import DetourTrace
    from nsim.noise import TraceFormatError

    text = Path(path).read_text(encoding="utf-8")
    span = span_line = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#") and "span_ns=" in line:
            if span_line is not None:
                raise TraceFormatError(
                    f"a second '# span_ns=' comment (the first is on line {span_line})", lineno)
            span_line = lineno
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
        raise TraceFormatError("no detour events")
    if span is None:
        span = max(s + d for s, d in events)
    return DetourTrace(tuple(events), span)


# The schedule columns built one op at a time, as the package built them
# before every source appended whole ranks.

class OpColumns:
    """The growing columns of a schedule, appended one op at a time.

    ``add`` appends an op (requires sorted and unique) and checks its peer,
    size and duration; ``end_rank`` closes the rank and checks that its
    requires name its own ops: ``add`` notes a negative one (requires arrive
    sorted), so ``end_rank`` needs only their maximum.
    """

    def __init__(self) -> None:
        self.rank_offsets = array("q", [0])
        self.kinds = array("b")
        self.peers = array("q")
        self.sizes = array("Q")
        self.req_offsets = array("q", [0])
        self.req_targets = array("q")
        self._negative = False  # an op requires an op < 0, which end_rank names

    def add(self, kind: int, peer: int, size: int, requires=()) -> None:
        from nsim.goal import KIND_CALC, KINDS

        if (peer < 0 or size < 1) and kind != KIND_CALC:
            raise ValueError(f"{KINDS[kind]} needs a peer rank >= 0" if peer < 0
                             else f"{KINDS[kind]} size must be >= 1 byte")
        try:
            self.sizes.append(size)
            self.peers.append(peer)
        except OverflowError:
            if size < 0:
                raise ValueError("calc duration must be >= 0 ns") from None
            field = ("size", size) if size >> 64 else ("peer", peer)
            raise ValueError("op %s %d does not fit in 64 bits" % field) from None
        self.kinds.append(kind)
        if requires:
            if requires[0] < 0:
                self._negative = True
            try:
                self.req_targets.extend(requires)
            except OverflowError:  # beyond 64 bits, so beyond any rank's ops
                self._check_requires(len(self.kinds) - 1, requires, 1 << 63)
        self.req_offsets.append(len(self.req_targets))

    def end_rank(self) -> None:
        lo, hi = self.rank_offsets[-1], len(self.kinds)
        req, req_off = self.req_targets, self.req_offsets
        first = req_off[lo]
        if self._negative or (first < len(req) and max(req[first:]) >= hi - lo):
            for g in range(lo, hi):
                self._check_requires(g, req[req_off[g]:req_off[g + 1]], hi - lo)
        self.rank_offsets.append(hi)

    def _check_requires(self, g: int, requires, n: int) -> None:
        missing = [d for d in requires if not 0 <= d < n]  # op g of the open rank
        if missing:
            rank, lo = len(self.rank_offsets) - 1, self.rank_offsets[-1]
            raise ValueError(f"rank {rank} op {g - lo}: unknown requires {missing}")

    def schedule(self, nranks: int, metadata):
        """The finished Schedule, through the package's own checks of it."""
        from nsim.goal import _COLUMNS, _Columns

        cols = _Columns()
        for name in _COLUMNS:
            setattr(cols, name, getattr(self, name))
        return cols.schedule(nranks, metadata)


# The GOAL text reader one statement per regex match in every block, as the
# package read all text before its bulk block reader, with its own patterns:
# comments are separators here, where the package blanks them first.

_KEYWORDS = ("num_ranks", "rank", "send", "recv", "calc", "to", "from", "requires")

# Whitespace and comments. A comment must run to the end of its line, so that
# backtracking can never stop inside one and read its words as syntax. Each
# whitespace run belongs to exactly one \s*, so a failed match backtracks over
# a separator in linear time, not once per way of splitting a run.
_SEP = r"\s*(?:\#[^\n]*(?![^\n])\s*)*"
_LABEL = rf"(?!(?:{'|'.join(_KEYWORDS)})\b)[A-Za-z_][A-Za-z0-9_]*\b"

# Each pattern matches one statement and the separators after it, so the
# cursor always rests on the first character of the next statement. The count
# after num_ranks is optional so that a failed header still ends there too.
_HEADER_RE = re.compile(rf"{_SEP}(?:num_ranks\b{_SEP}(?P<nranks>\d+)\b{_SEP})?")
_BLOCK_RE = re.compile(rf"rank\b{_SEP}(?P<rank>\d+)\b{_SEP}\{{{_SEP}")
# The last group to close names the statement: to, from, calc, requires, close.
_STMT_RE = re.compile(
    rf"""(?: (?P<label>{_LABEL}){_SEP}
             (?: :{_SEP}(?: send\b{_SEP}(?P<send>\d+)b\b{_SEP}to\b{_SEP}(?P<to>\d+)
                          | recv\b{_SEP}(?P<recv>\d+)b\b{_SEP}from\b{_SEP}(?P<from>\d+)
                          | calc\b{_SEP}(?P<calc>\d+) )\b
               | requires\b{_SEP}(?P<requires>{_LABEL}(?:{_SEP},{_SEP}{_LABEL})*) )
         | (?P<close>\}}) ){_SEP}""",
    re.VERBOSE,
)


def parse_goal(text: str):
    """Parse schedule text into a validated Schedule.

    The text is read one statement per regex match: ``num_ranks N``, then
    ``rank N {`` blocks of op, requires and ``}`` statements. Raises
    GoalSyntaxError for malformed text, with the line and column of the first
    statement that does not parse (or, for a bad value, of the offending rank
    id, peer, size or label), and ScheduleValidationError for well-formed text
    that is not a runnable schedule (unmatched messages, requires on the op
    itself or a later op).
    """
    from nsim.goal import _error, _expected, _validated

    m = _HEADER_RE.match(text)
    if m["nranks"] is None:
        raise _expected(text, m.end(), "'num_ranks N'")
    nranks = int(m["nranks"])
    if nranks < 1:
        raise _error(text, m.start("nranks"), "num_ranks must be >= 1")
    try:
        blocks: list[tuple[list, list] | None] = [None] * nranks  # (ops, requires)
    except (MemoryError, OverflowError):
        raise _error(text, m.start("nranks"), f"num_ranks {nranks} is too large") from None
    pos = m.end()
    while pos < len(text):
        m = _BLOCK_RE.match(text, pos)
        if m is None:
            raise _expected(text, pos, "'rank N {'")
        rank = int(m["rank"])
        if rank >= nranks:
            raise _error(text, m.start("rank"), f"rank {rank} out of range (num_ranks {nranks})")
        if blocks[rank] is not None:
            raise _error(text, pos, f"duplicate block for rank {rank}")
        ops, requires, pos = _parse_block(text, m.end(), rank, nranks)
        blocks[rank] = (ops, requires)
    cols = OpColumns()
    for block in blocks:
        if block is not None:
            for op, requires in zip(*block):
                cols.add(*op, requires)
        cols.end_rank()
    return _validated(cols.schedule(nranks, None))


def _parse_block(text: str, pos: int, rank: int,
                 nranks: int) -> tuple[list[tuple[int, int, int]], list[list[int]], int]:
    """The block body starting at ``pos``: its ops as (kind code, peer, size),
    their sorted requires, and the offset after its '}'."""
    from nsim.goal import KIND_CALC, KIND_RECV, KIND_SEND, _STMT_FORMS, _error, _expected

    ops: list[tuple[int, int, int]] = []
    labels: dict[str, int] = {}
    deps: list[tuple[int, str, str]] = []  # (offset, label, dependency list text)
    while True:
        m = _STMT_RE.match(text, pos)
        if m is None:
            if pos == len(text):
                raise _error(text, pos, "unterminated rank block")
            raise _expected(text, pos, _STMT_FORMS)
        kind, label = m.lastgroup, m["label"]
        if kind == "close":
            break
        if kind == "requires":
            deps.append((pos, label, m["requires"]))
        elif label in labels:
            raise _error(text, pos, f"duplicate label {label!r}")
        else:
            size_group = "calc" if kind == "calc" else "send" if kind == "to" else "recv"
            size = int(m[size_group])
            labels[label] = len(ops)
            if kind == "calc":
                ops.append((KIND_CALC, -1, size))
            else:
                peer = int(m[kind])
                if peer >= nranks:
                    raise _error(text, m.start(kind),
                                 f"peer {peer} out of range (num_ranks {nranks})")
                if peer == rank:
                    raise _error(text, m.start(kind), f"peer must differ from own rank {rank}")
                ops.append((KIND_SEND if kind == "to" else KIND_RECV, peer, size))
        pos = m.end()
    requires: list[set[int]] = [set() for _ in ops]
    for at, label, dep_text in deps:
        if "#" in dep_text:
            dep_text = " ".join(line.partition("#")[0] for line in dep_text.split("\n"))
        targets = dep_text.replace(",", " ").split()
        for name in (label, *targets):
            if name not in labels:
                raise _error(text, at, f"dangling dependency label {name!r}")
        requires[labels[label]].update(labels[t] for t in targets)
    return ops, [sorted(req) for req in requires], m.end()


# The per-op engine as the package ran it while it could record each op's
# (start, finish), one draw and one detour bisection per op; the pinned
# digests hash its runs.

def pick(seed: int, i: int, count: int) -> int:
    """Draw i of the counter-mode stream ``seed``, mapped to an index in [0, count)."""
    from nsim.simengine import _GAMMA, mix64

    return (mix64(seed + (i + 1) * _GAMMA) * count) >> 64


def detour_end(t: int, dur: int, phase: int, tables) -> int:
    """Earliest end of a host occupancy of ``dur`` beginning at ``t``, by two
    bisections of the idle-time ``tables`` of one span (``_detour_tables``).

    With I(y) the idle ns of the cyclic pattern before pattern position y, an
    occupancy of ``dur`` > 0 that starts at pattern position x = t + phase
    ends at the least y with I(y) = I(x) + dur.
    """
    if dur <= 0:
        return t
    seg_end, detour_before, seg_start, idle_at, idle_to, span, idle = tables
    cycles, pos = divmod(t + phase, span)
    j = bisect_right(seg_end, pos)  # events that began by pos
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


def _per_op_times(c, start: list[int], finish: list[int]):
    """``[rank][op id] -> (start, finish)`` from per-op start and finish lists."""
    bounds = [bisect_left(c.rank, r) for r in range(c.nranks + 1)]
    return tuple(tuple(zip(start[lo:hi], finish[lo:hi])) for lo, hi in zip(bounds, bounds[1:]))


def run_recorded(c, cfg, run_index: int):
    """Run ``run_index`` of the compiled schedule ``c`` under ``cfg``, one op at
    a time in ``c.by_level`` order. Returns ``(result, per_op_times)``: the
    ``SimResult`` and every op's ``(start, finish)`` ns by [rank][op id]."""
    from nsim.goal import KIND_CALC, KIND_RECV, KIND_SEND
    from nsim.model import one_way_wire_ns
    from nsim.simengine import (_BW_STREAM, _LAT_STREAM, _OS_STREAM, SimResult,
                                _detour_tables, derive_run_seed)

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
        phases = [pick(os_seed, r, osn.span) for r in range(c.nranks)]

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

    for gid in c.by_level.tolist():
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
            f = detour_end(t, dur, phases[r], tables)
        else:
            f = t + dur
        start[gid] = t
        finish[gid] = f
        free[r] = f
        if k == KIND_SEND:
            m = msg[gid]
            if lat is not None:
                lat_eff = lat._samples[pick(lat_seed, m, lat.count)] - two_o
                if lat_eff < 0.0:
                    lat_eff = 0.0
            else:
                lat_eff = params.L
            g_eff = params.G if bw is None else 8.0 / bw._samples[pick(bw_seed, m, bw.count)]
            arrival[m] = f + one_way_wire_ns(lat_eff, size[gid], g_eff)

    draws = c.n_sends * ((lat is not None) + (bw is not None))
    result = SimResult(completion=max(free), per_rank_completion=tuple(free), draws_used=draws)
    return result, _per_op_times(c, start, finish)
