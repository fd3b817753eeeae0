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
from dataclasses import dataclass, field
from typing import Mapping

__all__ = [
    "SEND",
    "RECV",
    "CALC",
    "ScheduleOp",
    "Schedule",
    "GoalSyntaxError",
    "ScheduleValidationError",
    "parse_goal",
    "emit_goal",
    "validate",
    "gen_dissemination",
    "gen_ring_allreduce",
    "gen_compute_collective",
    "schedule_to_json",
    "schedule_from_json",
]

SEND = "send"
RECV = "recv"
CALC = "calc"

_KINDS = (SEND, RECV, CALC)


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
        if self.kind not in _KINDS:
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


@dataclass(frozen=True)
class Schedule:
    """Per-rank ordered op lists plus provenance metadata.

    metadata records the generator name and parameters; it is excluded from
    equality so that round-tripping through text (where it travels as
    comments) compares schedules structurally.
    """

    nranks: int
    ops: tuple[tuple[ScheduleOp, ...], ...]
    metadata: Mapping[str, object] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.nranks < 1:
            raise ValueError("nranks must be >= 1")
        if len(self.ops) != self.nranks:
            raise ValueError(f"expected {self.nranks} rank op lists, got {len(self.ops)}")
        object.__setattr__(self, "ops", tuple(tuple(rank_ops) for rank_ops in self.ops))
        for rank, rank_ops in enumerate(self.ops):
            ids = {op.id for op in rank_ops}
            for pos, op in enumerate(rank_ops):
                if op.id != pos:
                    raise ValueError(f"rank {rank}: op ids must be 0..n-1 in order")
                if not op.requires <= ids:
                    missing = sorted(op.requires - ids)
                    raise ValueError(f"rank {rank} op {op.id}: unknown requires {missing}")

    def op_count(self) -> int:
        return sum(len(r) for r in self.ops)


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
    id, peer or label), and ScheduleValidationError for well-formed text that
    is not a runnable schedule (unmatched messages, dependency cycles).
    """
    m = _HEADER_RE.match(text)
    if m["nranks"] is None:
        raise _expected(text, m.end(), "'num_ranks N'")
    nranks = int(m["nranks"])
    if nranks < 1:
        raise _error(text, m.start("nranks"), "num_ranks must be >= 1")
    blocks: list[tuple[ScheduleOp, ...] | None] = [None] * nranks
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
        blocks[rank], pos = _parse_block(text, m.end(), rank, nranks)
    schedule = Schedule(nranks=nranks, ops=tuple(block or () for block in blocks))
    violations = validate(schedule)
    if violations:
        raise ScheduleValidationError(violations)
    return schedule


def _parse_block(text: str, pos: int, rank: int,
                 nranks: int) -> tuple[tuple[ScheduleOp, ...], int]:
    """Ops of the block body starting at ``pos``, and the offset after its '}'."""
    ops: list[tuple[str, int | None, int]] = []
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
        elif kind == "calc":
            labels[label] = len(ops)
            ops.append((CALC, None, int(m["calc"])))
        else:
            peer = int(m[kind])
            if peer >= nranks:
                raise _error(text, m.start(kind), f"peer {peer} out of range (num_ranks {nranks})")
            if peer == rank:
                raise _error(text, m.start(kind), f"peer must differ from own rank {rank}")
            labels[label] = len(ops)
            ops.append((SEND, peer, int(m["send"])) if kind == "to"
                       else (RECV, peer, int(m["recv"])))
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
    block = tuple(ScheduleOp(i, kind, peer, size, frozenset(req))
                  for i, ((kind, peer, size), req) in enumerate(zip(ops, requires)))
    return block, m.end()


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
    for rank, rank_ops in enumerate(schedule.ops):
        if not rank_ops:
            lines.append(f"rank {rank} {{ }}")
            continue
        lines.append(f"rank {rank} {{")
        for op in rank_ops:
            if op.kind == SEND:
                lines.append(f"  o{op.id}: send {op.size}b to {op.peer}")
            elif op.kind == RECV:
                lines.append(f"  o{op.id}: recv {op.size}b from {op.peer}")
            else:
                lines.append(f"  o{op.id}: calc {op.size}")
            if op.requires:
                reqs = ", ".join(f"o{r}" for r in sorted(op.requires))
                lines.append(f"  o{op.id} requires {reqs}")
        lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Validation

def validate(schedule: Schedule) -> list[str]:
    """Collect schedule-semantics violations; empty list means runnable.

    Checks that send and recv multisets match per (src, dst, size) and that
    every rank's dependency graph is acyclic. Violations are returned as data
    rather than raised so callers can report them all at once.
    """
    violations: list[str] = []
    sends: dict[tuple[int, int, int], int] = {}
    recvs: dict[tuple[int, int, int], int] = {}
    for rank, rank_ops in enumerate(schedule.ops):
        for op in rank_ops:
            if op.kind == CALC:
                continue
            if op.peer == rank:
                violations.append(f"rank {rank} op {op.id}: peer equals own rank")
                continue
            if op.peer >= schedule.nranks:
                violations.append(f"rank {rank} op {op.id}: peer {op.peer} out of range")
                continue
            if op.kind == SEND:
                key = (rank, op.peer, op.size)
                sends[key] = sends.get(key, 0) + 1
            else:
                key = (op.peer, rank, op.size)
                recvs[key] = recvs.get(key, 0) + 1
    for key in sorted(set(sends) | set(recvs)):
        ns, nr = sends.get(key, 0), recvs.get(key, 0)
        if ns != nr:
            src, dst, size = key
            violations.append(
                f"unmatched messages {src}->{dst} size {size}: {ns} send(s), {nr} recv(s)"
            )
    for rank, rank_ops in enumerate(schedule.ops):
        if _has_cycle(rank_ops):
            violations.append(f"rank {rank}: dependency cycle")
    return violations


def _has_cycle(rank_ops: tuple[ScheduleOp, ...]) -> bool:
    indeg = [len(op.requires) for op in rank_ops]
    dependents: list[list[int]] = [[] for _ in rank_ops]
    for op in rank_ops:
        for dep in op.requires:
            dependents[dep].append(op.id)
    stack = [i for i, d in enumerate(indeg) if d == 0]
    seen = 0
    while stack:
        i = stack.pop()
        seen += 1
        for j in dependents[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                stack.append(j)
    return seen != len(rank_ops)


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
    all_ops = []
    for r in range(nranks):
        ops = []
        for k in range(rounds):
            req = frozenset((2 * k - 2, 2 * k - 1)) if k > 0 else frozenset()
            ops.append(ScheduleOp(2 * k, SEND, (r + (1 << k)) % nranks, size, req))
            ops.append(ScheduleOp(2 * k + 1, RECV, (r - (1 << k)) % nranks, size, req))
        all_ops.append(tuple(ops))
    return Schedule(
        nranks=nranks,
        ops=tuple(all_ops),
        metadata={"generator": "dissemination", "nranks": nranks, "size_bytes": size},
    )


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
    all_ops = []
    for r in range(nranks):
        left = (r - 1) % nranks
        right = (r + 1) % nranks
        ops: list[ScheduleOp] = []
        prev_recv = -1
        prev_calc = -1
        for step in range(steps):
            req: set[int] = set()
            if step > 0:
                req.add(prev_recv)
                if prev_calc >= 0:
                    req.add(prev_calc)
            ops.append(ScheduleOp(len(ops), SEND, right, chunk, frozenset(req)))
            recv_id = len(ops)
            ops.append(ScheduleOp(recv_id, RECV, left, chunk))
            prev_recv, prev_calc = recv_id, -1
            if step < reduce_steps and reduce_cost_per_chunk > 0:
                calc_id = len(ops)
                ops.append(ScheduleOp(calc_id, CALC, None, reduce_cost_per_chunk,
                                      frozenset((recv_id,))))
                prev_calc = calc_id
        all_ops.append(tuple(ops))
    return Schedule(
        nranks=nranks,
        ops=tuple(all_ops),
        metadata={
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

    all_ops = []
    for rank_ops in inner.ops:
        required = set()
        for op in rank_ops:
            required |= op.requires
        roots = [op.id for op in rank_ops if not op.requires]
        sinks = [op.id for op in rank_ops if op.id not in required]
        ops: list[ScheduleOp] = []
        prev_sinks: list[int] = []
        for _ in range(iterations):
            calc_id = len(ops)
            ops.append(ScheduleOp(calc_id, CALC, None, comp_ns, frozenset(prev_sinks)))
            base = len(ops)
            for op in rank_ops:
                req = {base + d for d in op.requires}
                if op.id in roots:
                    req.add(calc_id)
                ops.append(ScheduleOp(base + op.id, op.kind, op.peer, op.size, frozenset(req)))
            prev_sinks = [base + s for s in sinks]
        all_ops.append(tuple(ops))
    return Schedule(
        nranks=nranks,
        ops=tuple(all_ops),
        metadata={
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


def schedule_to_json(schedule: Schedule) -> str:
    ranks = []
    for rank_ops in schedule.ops:
        ops = []
        for op in rank_ops:
            entry: dict[str, object] = {"id": op.id, "kind": op.kind}
            if op.kind == CALC:
                entry["duration_ns"] = op.size
            else:
                entry["peer"] = op.peer
                entry["size_bytes"] = op.size
            entry["requires"] = sorted(op.requires)
            ops.append(entry)
        ranks.append(ops)
    doc = {
        "schema": _SCHEDULE_SCHEMA,
        "num_ranks": schedule.nranks,
        "metadata": dict(schedule.metadata),
        "ranks": ranks,
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def _op_int(entry: dict, key: str, r: int, i: int) -> int:
    value = entry.get(key)
    if type(value) is not int:
        raise ValueError(f"rank {r} op entry {i}: {key!r} must be an integer, "
                         f"got {reprlib.repr(value)}")
    return value


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
    ranks = []
    for r, rank_ops in enumerate(ranks_doc):
        if not isinstance(rank_ops, list):
            raise ValueError(f"rank {r}'s ops must be a list, got {type(rank_ops).__name__}")
        ops = []
        for i, entry in enumerate(rank_ops):
            if not isinstance(entry, dict):
                raise ValueError(f"rank {r} op entry {i} must be an object, "
                                 f"got {type(entry).__name__}")
            kind = entry.get("kind")
            if kind == CALC:
                peer, size = None, _op_int(entry, "duration_ns", r, i)
            elif kind in _KINDS:
                peer, size = _op_int(entry, "peer", r, i), _op_int(entry, "size_bytes", r, i)
            else:
                raise ValueError(f"rank {r} op entry {i}: 'kind' must be one of "
                                 f"{', '.join(_KINDS)}, got {reprlib.repr(kind)}")
            requires = entry.get("requires", [])
            if not isinstance(requires, list) or any(type(d) is not int for d in requires):
                raise ValueError(f"rank {r} op entry {i}: 'requires' must be a list of "
                                 "integers")
            ops.append(ScheduleOp(_op_int(entry, "id", r, i), kind, peer, size,
                                  frozenset(requires)))
        ranks.append(tuple(ops))
    schedule = Schedule(nranks=nranks, ops=tuple(ranks), metadata=metadata)
    violations = validate(schedule)
    if violations:
        raise ScheduleValidationError(violations)
    return schedule
