"""Schedule IR for communication patterns, a GOAL-style text format, and generators.

A Schedule is a per-rank DAG of send/recv/calc operations with explicit
rank-local dependencies. The text form is a sequence of statements:

    num_ranks 4
    rank 0 {
      o0: send 16b to 1
      o1: recv 16b from 3
      o2: calc 5000
      o2 requires o0, o1
    }
    ...

``num_ranks N`` comes first, then one ``rank N { ... }`` block per rank (a
rank without a block has no ops). Inside a block, one statement per label:
sends/recvs carry a byte size with a ``b`` suffix and a peer rank, calcs carry
a duration in ns. ``LABEL requires LABEL, ...`` adds dependencies between ops
of the same block (forward references are allowed). Keywords cannot be
labels. Whitespace, newlines included, is free between any two words or
symbols, even inside a statement, and a ``#`` comment may go wherever
whitespace may. A syntax error names the line and column of the first
statement that does not parse; a bad rank id, peer or label is named at its
own position.

Message matching is in-order per (src, dst, size) triple: the j-th send of a
given triple pairs with the j-th matching recv. All generators here are
unambiguous under that rule.
"""

from __future__ import annotations

import json
import re
import reprlib
from array import array
from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "SEND",
    "RECV",
    "CALC",
    "KINDS",
    "KIND_SEND",
    "KIND_RECV",
    "KIND_CALC",
    "ScheduleOp",
    "Schedule",
    "GoalSyntaxError",
    "ScheduleValidationError",
    "parse_goal",
    "emit_goal",
    "validate",
    "match_messages",
    "gen_dissemination",
    "gen_ring_allreduce",
    "gen_compute_collective",
    "schedule_to_json",
    "schedule_from_json",
]

SEND = "send"
RECV = "recv"
CALC = "calc"

KINDS = (SEND, RECV, CALC)  # kind names, indexed by kind code
KIND_SEND, KIND_RECV, KIND_CALC = 0, 1, 2  # kind codes of the ``kinds`` column
_KIND_CODE = {SEND: KIND_SEND, RECV: KIND_RECV, CALC: KIND_CALC}


class GoalSyntaxError(ValueError):
    """Malformed schedule text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class ScheduleValidationError(ValueError):
    """Structurally well-formed schedule that violates schedule semantics."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


@dataclass(frozen=True)
class ScheduleOp:
    """One operation of one rank.

    id is the rank-local position (ops are numbered 0..n-1 in program order).
    size holds bytes for send/recv and a duration in ns for calc. requires
    references rank-local op ids only.
    """

    id: int
    kind: str
    peer: int | None
    size: int
    requires: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown op kind {self.kind!r}")
        if self.id < 0:
            raise ValueError("op id must be >= 0")
        object.__setattr__(self, "requires", frozenset(self.requires))
        if self.kind == CALC:
            if self.peer is not None:
                raise ValueError("calc ops take no peer")
            if self.size < 0:
                raise ValueError("calc duration must be >= 0 ns")
        else:
            if self.peer is None or self.peer < 0:
                raise ValueError(f"{self.kind} needs a peer rank >= 0")
            if self.size < 1:
                raise ValueError(f"{self.kind} size must be >= 1 byte")


class _Columns:
    """The growing columns of a schedule under construction.

    Callers append one op at a time with ``add`` (requires sorted, unique and
    rank-local) and close each rank with ``end_rank``.
    """

    __slots__ = ("rank_offsets", "kinds", "peers", "sizes", "req_offsets", "req_targets")

    def __init__(self) -> None:
        self.rank_offsets = array("q", [0])
        self.kinds = array("b")
        self.peers = array("q")
        self.sizes = array("Q")
        self.req_offsets = array("q", [0])
        self.req_targets = array("q")

    def add(self, kind: int, peer: int, size: int, requires=()) -> None:
        try:
            self.sizes.append(size)
            self.peers.append(peer)
        except OverflowError:
            field = ("size", size) if size >> 64 else ("peer", peer)
            raise ValueError("op %s %d does not fit in 64 bits" % field) from None
        self.kinds.append(kind)
        if requires:
            self.req_targets.extend(requires)
        self.req_offsets.append(len(self.req_targets))

    def end_rank(self) -> None:
        self.rank_offsets.append(len(self.kinds))

    def schedule(self, nranks: int, metadata: Mapping[str, object] | None) -> Schedule:
        """The finished Schedule; checks that it has one op list per rank."""
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        if len(self.rank_offsets) != nranks + 1:
            raise ValueError(f"expected {nranks} rank op lists, got {len(self.rank_offsets) - 1}")
        s = object.__new__(Schedule)
        for name in self.__slots__:
            object.__setattr__(s, name, getattr(self, name))
        object.__setattr__(s, "nranks", nranks)
        object.__setattr__(s, "metadata", {} if metadata is None else metadata)
        object.__setattr__(s, "_verdict", None)
        object.__setattr__(s, "_compiled", None)
        return s


class Schedule:
    """Per-rank ordered op lists plus provenance metadata, stored as columns.

    Op g (ops numbered globally in (rank, op id) order) has kind code
    ``kinds[g]``, peer ``peers[g]`` (-1 for a calc) and size ``sizes[g]``;
    rank r holds ops ``rank_offsets[r]`` to ``rank_offsets[r + 1] - 1``, and
    op g requires the rank-local op ids ``req_targets[req_offsets[g]:
    req_offsets[g + 1]]``, sorted and unique. The columns are stdlib arrays
    and must not be modified: a Schedule is immutable, and ``validate`` and
    the simulation engine memoize their work on it.

    ``Schedule(nranks, ops)`` builds one from per-rank sequences of
    ScheduleOp, and ``ops`` gives them back as ScheduleOp views. metadata
    records the generator name and parameters; it is excluded from equality
    so that round-tripping through text (where it travels as comments)
    compares schedules structurally.
    """

    __slots__ = _Columns.__slots__ + ("nranks", "metadata", "_verdict", "_compiled")

    def __new__(cls, nranks: int, ops, metadata: Mapping[str, object] | None = None):
        cols = _Columns()
        for rank, rank_ops in enumerate(ops):
            rank_ops = tuple(rank_ops)
            for pos, op in enumerate(rank_ops):
                if op.id != pos:
                    raise ValueError(f"rank {rank}: op ids must be 0..n-1 in order")
                requires = sorted(op.requires)
                if requires and not 0 <= requires[0] <= requires[-1] < len(rank_ops):
                    missing = [d for d in requires if not 0 <= d < len(rank_ops)]
                    raise ValueError(f"rank {rank} op {op.id}: unknown requires {missing}")
                cols.add(_KIND_CODE[op.kind], -1 if op.peer is None else op.peer, op.size,
                         requires)
            cols.end_rank()
        return cols.schedule(nranks, metadata)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Schedule is immutable; cannot set {name!r}")

    def __reduce__(self):
        return Schedule, (self.nranks, self.ops, self.metadata)

    @property
    def ops(self) -> tuple[tuple[ScheduleOp, ...], ...]:
        """The ops of each rank as ScheduleOp views, built on each access."""
        kinds, peers, sizes = self.kinds.tolist(), self.peers.tolist(), self.sizes.tolist()
        req, req_off, bounds = self.req_targets, self.req_offsets, self.rank_offsets
        return tuple(
            tuple(ScheduleOp(g - lo, KINDS[kinds[g]], None if peers[g] < 0 else peers[g],
                             sizes[g], frozenset(req[req_off[g]:req_off[g + 1]]))
                  for g in range(lo, hi))
            for lo, hi in zip(bounds, bounds[1:])
        )

    def op_count(self) -> int:
        return len(self.kinds)

    def _key(self) -> tuple:
        return (self.nranks, self.rank_offsets, self.kinds, self.peers, self.sizes,
                self.req_offsets, self.req_targets)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Schedule:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(tuple(c if type(c) is int else c.tobytes() for c in self._key()))

    def __repr__(self) -> str:
        return (f"Schedule(nranks={self.nranks}, op_count={self.op_count()}, "
                f"metadata={self.metadata!r})")


# ---------------------------------------------------------------------------
# Parsing

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
_STMT_FORMS = "'LABEL: send|recv|calc ...', 'LABEL requires ...' or '}'"


def _error(text: str, pos: int, message: str) -> GoalSyntaxError:
    line_start = text.rfind("\n", 0, pos) + 1
    return GoalSyntaxError(message, text.count("\n", 0, pos) + 1, pos - line_start + 1)


def _expected(text: str, pos: int, what: str) -> GoalSyntaxError:
    line_end = text.find("\n", pos)
    found = text[pos:line_end if line_end >= 0 else len(text)].rstrip()
    return _error(text, pos, f"expected {what}, found {found or 'end of input'!r}")


def parse_goal(text: str) -> Schedule:
    """Parse schedule text into a validated Schedule.

    The text is read one statement per regex match: ``num_ranks N``, then
    ``rank N {`` blocks of op, requires and ``}`` statements. Raises
    GoalSyntaxError for malformed text, with the line and column of the first
    statement that does not parse (or, for a bad value, of the offending rank
    id, peer, size or label), and ScheduleValidationError for well-formed text
    that is not a runnable schedule (unmatched messages, dependency cycles).
    """
    m = _HEADER_RE.match(text)
    if m["nranks"] is None:
        raise _expected(text, m.end(), "'num_ranks N'")
    nranks = int(m["nranks"])
    if nranks < 1:
        raise _error(text, m.start("nranks"), "num_ranks must be >= 1")
    blocks: list[tuple[list, list] | None] = [None] * nranks  # (ops, requires)
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
    cols = _Columns()
    for block in blocks:
        if block is not None:
            for op, requires in zip(*block):
                cols.add(*op, requires)
        cols.end_rank()
    schedule = cols.schedule(nranks, None)
    violations = validate(schedule)
    if violations:
        raise ScheduleValidationError(violations)
    return schedule


def _parse_block(text: str, pos: int, rank: int,
                 nranks: int) -> tuple[list[tuple[int, int, int]], list[list[int]], int]:
    """The block body starting at ``pos``: its ops as (kind code, peer, size),
    their sorted requires, and the offset after its '}'."""
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
    for kind, _, size in ops:
        if kind != KIND_CALC and size < 1:
            raise ValueError(f"{KINDS[kind]} size must be >= 1 byte")
    return ops, [sorted(req) for req in requires], m.end()


def emit_goal(schedule: Schedule) -> str:
    """Canonical text form; parse_goal(emit_goal(s)) equals s structurally.

    Metadata is emitted as leading ``#`` comments (ignored on parse). Labels
    are ``o<id>``; requires lines directly follow their op, deps sorted.
    """
    lines: list[str] = []
    for key in sorted(schedule.metadata):
        value = " ".join(str(schedule.metadata[key]).split())  # keep comments one line
        lines.append(f"# {key}: {value}")
    lines.append(f"num_ranks {schedule.nranks}")
    kinds, peers, sizes = schedule.kinds, schedule.peers, schedule.sizes
    req, req_off, bounds = schedule.req_targets, schedule.req_offsets, schedule.rank_offsets
    op_line = ("  o%d: send %db to %d", "  o%d: recv %db from %d")
    for rank in range(schedule.nranks):
        lo, hi = bounds[rank], bounds[rank + 1]
        if lo == hi:
            lines.append(f"rank {rank} {{ }}")
            continue
        lines.append(f"rank {rank} {{")
        for g in range(lo, hi):
            i = g - lo
            k = kinds[g]
            if k == KIND_CALC:
                lines.append(f"  o{i}: calc {sizes[g]}")
            else:
                lines.append(op_line[k] % (i, sizes[g], peers[g]))
            a, b = req_off[g], req_off[g + 1]
            if a != b:
                lines.append(f"  o{i} requires " + ", ".join([f"o{t}" for t in req[a:b]]))
        lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Validation

def validate(schedule: Schedule) -> list[str]:
    """Collect schedule-semantics violations; empty list means runnable.

    Checks that send and recv multisets match per (src, dst, size) and that
    every rank's dependency graph is acyclic. Violations are returned as data
    rather than raised so callers can report them all at once. The verdict is
    computed once per Schedule and memoized on it.
    """
    if schedule._verdict is None:
        object.__setattr__(schedule, "_verdict", tuple(_violations(schedule)))
    return list(schedule._verdict)


def _violations(schedule: Schedule) -> list[str]:
    violations: list[str] = []
    nranks = schedule.nranks
    kinds, peers, bounds = schedule.kinds, schedule.peers, schedule.rank_offsets
    for rank in range(nranks):
        lo = bounds[rank]
        for g in range(lo, bounds[rank + 1]):
            if kinds[g] == KIND_CALC:
                continue
            peer = peers[g]
            if peer == rank:
                violations.append(f"rank {rank} op {g - lo}: peer equals own rank")
            elif peer >= nranks:
                violations.append(f"rank {rank} op {g - lo}: peer {peer} out of range")
    _, unmatched = match_messages(schedule)
    for (src, dst, size), (ns, nr) in sorted(unmatched.items()):
        violations.append(
            f"unmatched messages {src}->{dst} size {size}: {ns} send(s), {nr} recv(s)")
    for rank in range(nranks):
        if _has_cycle(schedule, bounds[rank], bounds[rank + 1]):
            violations.append(f"rank {rank}: dependency cycle")
    return violations


def match_messages(schedule: Schedule) -> tuple[array, dict[tuple[int, int, int],
                                                             tuple[int, int]]]:
    """Pair sends with recvs, in order per (src, dst, size) triple.

    Returns ``(send_of, unmatched)``: ``send_of[g]`` is the global op index
    of the send that recv g receives, or -1 for an op that is no matched
    recv; ``unmatched`` maps each triple whose send and recv counts differ to
    those counts, and its ops stay unpaired. Message ops whose peer is their
    own rank or out of range are left out.
    """
    nranks = schedule.nranks
    kinds, peers, sizes, bounds = (schedule.kinds, schedule.peers, schedule.sizes,
                                   schedule.rank_offsets)
    # (src, send) pairs per destination, so that one rank's queues are alive
    # at a time.
    incoming = [array("q") for _ in range(nranks)]
    for rank in range(nranks):
        for g in range(bounds[rank], bounds[rank + 1]):
            if kinds[g] == KIND_SEND and rank != peers[g] < nranks:
                incoming[peers[g]].extend((rank, g))
    send_of = array("q", [-1]) * len(kinds)
    unmatched: dict[tuple[int, int, int], tuple[int, int]] = {}
    for rank in range(nranks):
        sends: dict[tuple[int, int], list[int]] = {}
        pairs = iter(incoming[rank])
        for src, g in zip(pairs, pairs):
            sends.setdefault((src, sizes[g]), []).append(g)
        incoming[rank] = None
        recvs: dict[tuple[int, int], list[int]] = {}
        for g in range(bounds[rank], bounds[rank + 1]):
            if kinds[g] == KIND_RECV and rank != peers[g] < nranks:
                recvs.setdefault((peers[g], sizes[g]), []).append(g)
        for key, recv_gs in recvs.items():
            send_gs = sends.pop(key, ())
            if len(send_gs) != len(recv_gs):
                unmatched[key[0], rank, key[1]] = (len(send_gs), len(recv_gs))
                continue
            for s, g in zip(send_gs, recv_gs):
                send_of[g] = s
        for (src, size), send_gs in sends.items():
            unmatched[src, rank, size] = (len(send_gs), 0)
    return send_of, unmatched


def _has_cycle(schedule: Schedule, lo: int, hi: int) -> bool:
    """Whether the requires of ops lo..hi-1 (one rank) form a cycle."""
    req, req_off = schedule.req_targets, schedule.req_offsets
    # Requires that only point backwards in program order cannot form a cycle.
    if all(req_off[g] == req_off[g + 1] or req[req_off[g + 1] - 1] < g - lo
           for g in range(lo, hi)):
        return False
    indeg = [req_off[g + 1] - req_off[g] for g in range(lo, hi)]
    dependents: list[list[int]] = [[] for _ in indeg]
    for i in range(hi - lo):
        for dep in req[req_off[lo + i]:req_off[lo + i + 1]]:
            dependents[dep].append(i)
    stack = [i for i, d in enumerate(indeg) if d == 0]
    seen = 0
    while stack:
        i = stack.pop()
        seen += 1
        for j in dependents[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                stack.append(j)
    return seen != len(indeg)


# ---------------------------------------------------------------------------
# Generators

def gen_dissemination(nranks: int, size: int) -> Schedule:
    """Butterfly dissemination: ceil(log2 P) rounds of exchange with (r +- 2^k) mod P.

    Round k has each rank send ``size`` bytes to (r + 2^k) mod P and receive
    from (r - 2^k) mod P; every op of round k+1 requires both round-k ops, the
    tightly coupled variant used by barriers and small allreduces.
    """
    if nranks < 2:
        raise ValueError(f"dissemination needs nranks >= 2, got {nranks}")
    if size < 1:
        raise ValueError(f"size must be >= 1 byte, got {size}")
    rounds = (nranks - 1).bit_length()
    cols = _Columns()
    add = cols.add
    for r in range(nranks):
        for k in range(rounds):
            req = (2 * k - 2, 2 * k - 1) if k > 0 else ()
            add(KIND_SEND, (r + (1 << k)) % nranks, size, req)
            add(KIND_RECV, (r - (1 << k)) % nranks, size, req)
        cols.end_rank()
    return cols.schedule(
        nranks, {"generator": "dissemination", "nranks": nranks, "size_bytes": size})


def gen_ring_allreduce(nranks: int, size: int, reduce_cost_per_chunk: int = 0) -> Schedule:
    """Ring allreduce: P-1 reduce-scatter steps then P-1 allgather steps.

    Each step receives a chunk of ceil(size/P) bytes from the left neighbour
    and sends one to the right; reduce-scatter steps reduce the received chunk
    (a calc of ``reduce_cost_per_chunk`` ns, emitted only when > 0). A step's
    send requires the previous step's recv (and its calc where present), which
    is the long dependency chain that makes the pattern bandwidth-optimal but
    sensitive to any single slow transfer.
    """
    if nranks < 2:
        raise ValueError(f"ring allreduce needs nranks >= 2, got {nranks}")
    if size < nranks:
        raise ValueError(f"size ({size}) must be >= nranks ({nranks}) so chunks are non-empty")
    if reduce_cost_per_chunk < 0:
        raise ValueError("reduce cost must be >= 0 ns")
    chunk = -(-size // nranks)
    steps = 2 * (nranks - 1)
    reduce_steps = nranks - 1
    cols = _Columns()
    for r in range(nranks):
        left = (r - 1) % nranks
        right = (r + 1) % nranks
        n = 0  # ops of this rank so far
        req: tuple[int, ...] = ()  # the next send's requires
        for step in range(steps):
            cols.add(KIND_SEND, right, chunk, req)
            cols.add(KIND_RECV, left, chunk)
            recv_id = n + 1
            n += 2
            req = (recv_id,)
            if step < reduce_steps and reduce_cost_per_chunk > 0:
                cols.add(KIND_CALC, -1, reduce_cost_per_chunk, req)
                req = (recv_id, n)
                n += 1
        cols.end_rank()
    return cols.schedule(
        nranks,
        {
            "generator": "ring_allreduce",
            "nranks": nranks,
            "size_bytes": size,
            "chunk_bytes": chunk,
            "reduce_cost_ns": reduce_cost_per_chunk,
        },
    )


def gen_compute_collective(
    nranks: int,
    comp_ns: int,
    pattern: str,
    size: int,
    iterations: int,
) -> Schedule:
    """Compute phase followed by a collective, repeated ``iterations`` times.

    Per iteration and rank: one calc of ``comp_ns``, then the collective
    (``pattern`` is "dissemination" or "ring"); the collective's root ops wait
    on the calc, and the next iteration's calc waits on all loose ends of the
    previous collective on that rank.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if comp_ns < 0:
        raise ValueError("comp_ns must be >= 0")
    if pattern == "dissemination":
        inner = gen_dissemination(nranks, size)
    elif pattern == "ring":
        inner = gen_ring_allreduce(nranks, size, 0)
    else:
        raise ValueError(f"unknown pattern {pattern!r} (want dissemination or ring)")

    req, req_off, bounds = inner.req_targets, inner.req_offsets, inner.rank_offsets
    cols = _Columns()
    for rank in range(nranks):
        lo, hi = bounds[rank], bounds[rank + 1]
        rank_ops = [(inner.kinds[g], inner.peers[g], inner.sizes[g],
                     req[req_off[g]:req_off[g + 1]].tolist()) for g in range(lo, hi)]
        required = {d for *_, requires in rank_ops for d in requires}
        sinks = [i for i in range(hi - lo) if i not in required]
        prev_sinks: list[int] = []
        for it in range(iterations):
            calc_id = it * (hi - lo + 1)
            cols.add(KIND_CALC, -1, comp_ns, prev_sinks)
            base = calc_id + 1
            for kind, peer, size, requires in rank_ops:
                # A root of the collective waits on the calc.
                cols.add(kind, peer, size, [base + d for d in requires] or (calc_id,))
            prev_sinks = [base + s for s in sinks]
        cols.end_rank()
    return cols.schedule(
        nranks,
        {
            "generator": "compute_collective",
            "pattern": pattern,
            "nranks": nranks,
            "comp_ns": comp_ns,
            "size_bytes": size,
            "iterations": iterations,
        },
    )


# ---------------------------------------------------------------------------
# JSON export (mirrors the IR one-to-one)

_SCHEDULE_SCHEMA = "nsim.schedule/1"


# Per-op templates of the op entries json.dumps(doc, indent=2) writes, and the
# lines of a requires list; schedule_to_json gives the same bytes.
_JSON_OP = ('      {\n        "id": %d,\n        "kind": "send",\n        "peer": %d,\n'
            '        "size_bytes": %d,\n        "requires": %s\n      }',
            '      {\n        "id": %d,\n        "kind": "recv",\n        "peer": %d,\n'
            '        "size_bytes": %d,\n        "requires": %s\n      }')
_JSON_CALC = ('      {\n        "id": %d,\n        "kind": "calc",\n        "duration_ns": %d,\n'
              '        "requires": %s\n      }')
_JSON_REQ_SEP = ",\n          "


def schedule_to_json(schedule: Schedule) -> str:
    """The schedule JSON document, as ``json.dumps(doc, indent=2)`` writes it.

    Only the header and the metadata go through json; the op entries are
    formatted from the columns.
    """
    head = json.dumps({
        "schema": _SCHEDULE_SCHEMA,
        "num_ranks": schedule.nranks,
        "metadata": dict(schedule.metadata),
        "ranks": [],
    }, indent=2)
    parts = [head[:-len("[]\n}")], "[\n"]
    kinds, peers, sizes = schedule.kinds, schedule.peers, schedule.sizes
    req, req_off, bounds = schedule.req_targets, schedule.req_offsets, schedule.rank_offsets
    for rank in range(schedule.nranks):
        lo, hi = bounds[rank], bounds[rank + 1]
        if rank:
            parts.append(",\n")
        if lo == hi:
            parts.append("    []")
            continue
        ops = []
        for g in range(lo, hi):
            a, b = req_off[g], req_off[g + 1]
            reqs = ("[\n          " + _JSON_REQ_SEP.join(map(str, req[a:b])) + "\n        ]"
                    if a != b else "[]")
            k = kinds[g]
            if k == KIND_CALC:
                ops.append(_JSON_CALC % (g - lo, sizes[g], reqs))
            else:
                ops.append(_JSON_OP[k] % (g - lo, peers[g], sizes[g], reqs))
        parts += ("    [\n", ",\n".join(ops), "\n    ]")
    parts.append("\n  ]\n}\n")
    return "".join(parts)


def _op_int(entry: dict, key: str, r: int, i: int) -> int:
    value = entry.get(key)
    if type(value) is not int:
        raise ValueError(f"rank {r} op entry {i}: {key!r} must be an integer, "
                         f"got {reprlib.repr(value)}")
    return value


def _op_entry(entry: object, r: int, i: int, n: int) -> tuple[int, int, int, list[int]]:
    """Kind code, peer, size and sorted requires of op entry i of rank r's n.

    Checks the entry's types, then what ScheduleOp and Schedule check, and
    raises ValueError naming the first fault.
    """
    if not isinstance(entry, dict):
        raise ValueError(f"rank {r} op entry {i} must be an object, got {type(entry).__name__}")
    kind = entry.get("kind")
    if kind == CALC:
        peer, size = -1, _op_int(entry, "duration_ns", r, i)
    elif kind == SEND or kind == RECV:
        peer, size = _op_int(entry, "peer", r, i), _op_int(entry, "size_bytes", r, i)
    else:
        raise ValueError(f"rank {r} op entry {i}: 'kind' must be one of "
                         f"{', '.join(KINDS)}, got {reprlib.repr(kind)}")
    requires = entry.get("requires", [])
    if not isinstance(requires, list) or any(type(d) is not int for d in requires):
        raise ValueError(f"rank {r} op entry {i}: 'requires' must be a list of integers")
    op_id = _op_int(entry, "id", r, i)
    if op_id < 0:
        raise ValueError("op id must be >= 0")
    if kind == CALC:
        if size < 0:
            raise ValueError("calc duration must be >= 0 ns")
    elif peer < 0:
        raise ValueError(f"{kind} needs a peer rank >= 0")
    elif size < 1:
        raise ValueError(f"{kind} size must be >= 1 byte")
    if op_id != i:
        raise ValueError(f"rank {r}: op ids must be 0..n-1 in order")
    requires = sorted(set(requires))
    if requires and not 0 <= requires[0] <= requires[-1] < n:
        missing = [d for d in requires if not 0 <= d < n]
        raise ValueError(f"rank {r} op {i}: unknown requires {missing}")
    return _KIND_CODE[kind], peer, size, requires


def schedule_from_json(text: str) -> Schedule:
    """Read a schedule JSON document; a malformed document raises ValueError."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"schedule JSON must be an object, got {type(doc).__name__}")
    if doc.get("schema") != _SCHEDULE_SCHEMA:
        raise ValueError(f"unexpected schedule schema {reprlib.repr(doc.get('schema'))}")
    nranks = doc.get("num_ranks")
    if type(nranks) is not int:
        raise ValueError(f"'num_ranks' must be an integer, got {reprlib.repr(nranks)}")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValueError(f"'metadata' must be an object, got {type(metadata).__name__}")
    ranks_doc = doc.get("ranks")
    if not isinstance(ranks_doc, list):
        raise ValueError(f"'ranks' must be a list, got {type(ranks_doc).__name__}")
    cols = _Columns()
    add = cols.add
    for r, rank_ops in enumerate(ranks_doc):
        if not isinstance(rank_ops, list):
            raise ValueError(f"rank {r}'s ops must be a list, got {type(rank_ops).__name__}")
        for i, entry in enumerate(rank_ops):
            add(*_op_entry(entry, r, i, len(rank_ops)))
        cols.end_rank()
    schedule = cols.schedule(nranks, metadata)
    violations = validate(schedule)
    if violations:
        raise ScheduleValidationError(violations)
    return schedule
