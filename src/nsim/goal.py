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
a duration in ns. ``LABEL requires LABEL, ...`` adds dependencies on earlier
ops of the same block (a label may be named before it is defined; a requires
on the op itself or a later op is a validation error). Keywords cannot be
labels. Whitespace, newlines included, is free between any two words or
symbols, even inside a statement. A ``#`` starts a comment that runs to the
end of its line and reads as whitespace, so it may go wherever whitespace
may. A syntax error names the line and column of the first statement that
does not parse and quotes its line, comment included; a bad rank id, peer
or label is named at its own position.

Message matching is in-order per (src, dst, size) triple: the j-th send of a
given triple pairs with the j-th matching recv. All generators here are
unambiguous under that rule.
"""

from __future__ import annotations

import json
import re
import reprlib
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, compress, islice, repeat
from operator import add, ge, gt, itemgetter, mod, not_, sub
from typing import Mapping

from .errors import DeadlockError, GoalSyntaxError, ScheduleValidationError, decode_json
from .units import COMPAPP_PATTERNS

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


@dataclass(frozen=True)
class ScheduleOp:
    """One operation of one rank: an unchecked input record of ``Schedule(nranks,
    ops)`` (only its kind is checked here, the rest when it is put into a
    Schedule) and the read-only view ``Schedule.ops`` gives back.

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
        object.__setattr__(self, "requires", frozenset(self.requires))


_COLUMNS = ("rank_offsets", "kinds", "peers", "sizes", "req_offsets", "req_targets")


def _csr(requires) -> tuple[list[int], list[int]]:
    """Per-op requires lists as CSR columns: per-op offsets, from 0, into one
    flat list of targets."""
    return list(accumulate(map(len, requires), initial=0)), list(chain.from_iterable(requires))


class _Columns:
    """The growing columns of a schedule under construction.

    Every schedule source appends its ops a rank at a time with ``add_rank``,
    the one place that checks op values: a send or recv needs a peer >= 0 and
    a size >= 1 byte, a calc a duration >= 0 ns, every value must fit the
    64-bit columns, and each op's requires must name ops of its own rank. A
    rank whose ops differ from the last rank's only in their peers is
    appended with ``add_like_last``, which checks only the peers.
    """

    __slots__ = _COLUMNS

    def __init__(self) -> None:
        self.rank_offsets = array("q", [0])
        self.kinds = array("b")
        self.peers = array("q")
        self.sizes = array("Q")
        self.req_offsets = array("q", [0])
        self.req_targets = array("q")

    def add_rank(self, kinds, peers, sizes, req_offsets=None, req_targets=()) -> None:
        """Append a rank's ops from its columns: op i has kind code
        ``kinds[i]``, peer ``peers[i]`` (-1 for a calc) and size ``sizes[i]``,
        and requires ``req_targets[req_offsets[i]:req_offsets[i + 1]]``, sorted
        and unique, with ``req_offsets[0] == 0``; without ``req_offsets`` no op
        requires another.

        The values are checked a column at a time: the minimum peer and size of
        the sends and recvs, the requires' minimum and maximum, and the 64-bit
        range as the arrays check it. ``_rank_fault`` names the first fault of
        a rank that fails.
        """
        n = len(kinds)
        if req_offsets is None:
            req_offsets = [0] * (n + 1)
        if KIND_CALC in kinds:
            is_msg = list(map(KIND_CALC.__ne__, kinds))
            msg_peers, msg_sizes = compress(peers, is_msg), compress(sizes, is_msg)
        else:
            msg_peers, msg_sizes = peers, sizes
        try:
            columns = (array("b", kinds), array("q", peers), array("Q", sizes),
                       array("q", req_targets))
        except OverflowError:
            columns = None
        if (columns is None or min(msg_peers, default=0) < 0 or min(msg_sizes, default=1) < 1
                or (req_targets and not 0 <= min(req_targets) <= max(req_targets) < n)):
            raise _rank_fault(len(self.rank_offsets) - 1, kinds, peers, sizes,
                              req_offsets, req_targets)
        base = len(self.req_targets)
        self.kinds += columns[0]
        self.peers += columns[1]
        self.sizes += columns[2]
        self.req_targets += columns[3]
        self.req_offsets.fromlist([base + x for x in islice(req_offsets, 1, None)])
        self.rank_offsets.append(len(self.kinds))

    def add_like_last(self, peers) -> None:
        """Append a rank with the last rank's kinds, sizes and requires and
        with op i's peer ``peers[i]``, from a sequence. Only the peers are
        checked, as ``add_rank`` checks them: a send's or recv's must be >= 0
        and fit 64 bits, and a calc's must be -1."""
        bounds, req_off = self.rank_offsets, self.req_offsets
        lo, hi = bounds[-2], bounds[-1]
        a, b = req_off[lo], req_off[hi]
        kinds = self.kinds[lo:hi]
        is_calc = list(map(KIND_CALC.__eq__, kinds)) if KIND_CALC in kinds else None
        try:
            column = array("q", peers)
        except OverflowError:  # a peer beyond 64 bits
            ok = False
        else:  # negative exactly at the calcs, and no lower than -1
            ok = (min(column, default=0) >= 0 if is_calc is None
                  else list(map((0).__gt__, column)) == is_calc and min(column) >= -1)
        if not ok:
            if is_calc and not {-1}.issuperset(compress(peers, is_calc)):
                raise ValueError("calc ops take no peer")
            raise _rank_fault(len(bounds) - 1, kinds, peers, self.sizes[lo:hi],
                              [x - a for x in req_off[lo:hi + 1]], self.req_targets[a:b])
        self.kinds += kinds
        self.peers += column
        self.sizes += self.sizes[lo:hi]
        self.req_targets += self.req_targets[a:b]
        self.req_offsets.extend(map(add, req_off[lo + 1:hi + 1], repeat(b - a)))
        bounds.append(len(self.kinds))

    def schedule(self, nranks: int, metadata: Mapping[str, object] | None) -> Schedule:
        """The finished Schedule; checks that it has one op list per rank."""
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        if len(self.rank_offsets) != nranks + 1:
            raise ValueError(f"expected {nranks} rank op lists, got {len(self.rank_offsets) - 1}")
        s = object.__new__(Schedule)
        for name in _COLUMNS:
            object.__setattr__(s, name, getattr(self, name))
        object.__setattr__(s, "nranks", nranks)
        object.__setattr__(s, "metadata", {} if metadata is None else metadata)
        for memo in ("_verdict", "_order", "_compiled"):
            object.__setattr__(s, memo, None)
        return s


def _rank_fault(rank: int, kinds, peers, sizes, req_offsets, req_targets) -> ValueError:
    """The error naming the first fault of rank ``rank``, whose columns
    ``add_rank`` refused: in op order, a bad peer, size or duration or
    requires beyond 64 bits; else the first op whose requires name no op of
    the rank."""
    def unknown(i: int, bound: int) -> list[int]:
        return [d for d in req_targets[req_offsets[i]:req_offsets[i + 1]] if not 0 <= d < bound]

    for i, (kind, peer, size) in enumerate(zip(kinds, peers, sizes)):
        if kind != KIND_CALC and (peer < 0 or size < 1):
            return ValueError(f"{KINDS[kind]} needs a peer rank >= 0" if peer < 0
                              else f"{KINDS[kind]} size must be >= 1 byte")
        if size < 0:
            return ValueError("calc duration must be >= 0 ns")
        if size >> 64 or not -1 << 63 <= peer < 1 << 63:
            field = ("size", size) if size >> 64 else ("peer", peer)
            return ValueError("op %s %d does not fit in 64 bits" % field)
        missing = unknown(i, 1 << 63)  # beyond 64 bits, so beyond any rank's ops
        if missing and not -1 << 63 <= min(missing) <= max(missing) < 1 << 63:
            return ValueError(f"rank {rank} op {i}: unknown requires {missing}")
    for i in range(len(kinds)):
        missing = unknown(i, len(kinds))
        if missing:
            return ValueError(f"rank {rank} op {i}: unknown requires {missing}")


class Schedule:
    """Per-rank ordered op lists plus provenance metadata, stored as columns.

    Op g (ops numbered globally in (rank, op id) order) has kind code
    ``kinds[g]``, peer ``peers[g]`` (-1 for a calc) and size ``sizes[g]``;
    rank r holds ops ``rank_offsets[r]`` to ``rank_offsets[r + 1] - 1``, and
    op g requires the rank-local op ids ``req_targets[req_offsets[g]:
    req_offsets[g + 1]]``, sorted and unique. The columns are stdlib arrays
    and must not be modified: a Schedule is immutable, and ``validate`` and
    the simulation engine memoize their work on it, unpickled, in the slots
    ``_verdict``, ``_order`` (``execution_order``'s columns, or the blocked
    ops of a deadlock) and ``_compiled``.

    ``Schedule(nranks, ops)`` builds one from per-rank sequences of
    ScheduleOp, and ``ops`` gives them back as ScheduleOp views. metadata
    records the generator name and parameters; it is excluded from equality
    so that round-tripping through text (where it travels as comments)
    compares schedules structurally.
    """

    __slots__ = _COLUMNS + ("nranks", "metadata", "_verdict", "_order", "_compiled")

    def __new__(cls, nranks: int, ops, metadata: Mapping[str, object] | None = None):
        cols = _Columns()
        for rank, rank_ops in enumerate(ops):
            rows = []
            for pos, op in enumerate(rank_ops):
                if op.id != pos:
                    raise ValueError("op id must be >= 0" if op.id < 0
                                     else f"rank {rank}: op ids must be 0..n-1 in order")
                if op.kind == CALC and op.peer is not None:
                    raise ValueError("calc ops take no peer")
                rows.append((_KIND_CODE[op.kind], -1 if op.peer is None else op.peer, op.size,
                             sorted(op.requires)))
            kinds, peers, sizes, requires = zip(*rows) if rows else ((),) * 4
            cols.add_rank(kinds, peers, sizes, *_csr(requires))
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
_LABEL = rf"(?!(?:{'|'.join(_KEYWORDS)})\b)[A-Za-z_][A-Za-z0-9_]*\b"

# A comment runs from '#' to the end of its line. parse_goal blanks each one
# with as many spaces, so lines and columns do not move and every separator
# below is \s*. Each pattern ends with the whitespace after it, so the cursor
# rests on the first character of the next word. The count after num_ranks is
# optional so that a failed header still ends there too.
_COMMENT_RE = re.compile(r"#[^\n]*")
_HEADER_RE = re.compile(r"\s*(?:num_ranks\b\s*(?P<nranks>\d+)\b\s*)?")
_BLOCK_RE = re.compile(r"rank\b\s*(?P<rank>\d+)\b\s*\{\s*")
_SPACE_RE = re.compile(r"\s*")
_STMT_FORMS = "'LABEL: send|recv|calc ...', 'LABEL requires ...' or '}'"
# The statements of a block body, read whole with findall. Each row is one
# statement and the whitespace after it, or one character of anything else in
# the junk group (the last), so the rows cover the body. An op statement fills
# label, kind, size and, for a send or recv, preposition and peer; a requires
# statement fills label and requires list. The op forms are folded into one,
# so a row whose kind and preposition do not pair as send-to, recv-from or
# calc alone is not a statement.
_BULK_RE = re.compile(
    rf"""(?: ({_LABEL})\s*
             (?: :\s*(send|recv|calc)\b\s*(\d+)(?:b\b\s*(to|from)\b\s*(\d+))?\b
               | requires\b\s*({_LABEL}(?:\s*,\s*{_LABEL})*) )\s*
         | ([\s\S]) )""",
    re.VERBOSE,
)
_BULK_FORMS = {"sendto", "recvfrom", "calc", ""}  # kind + preposition of each row
_CALC_PEER = {"": "-1"}  # a calc's peer text, which is empty, to its peer column value


def _error(text: str, pos: int, message: str) -> GoalSyntaxError:
    line_start = text.rfind("\n", 0, pos) + 1
    return GoalSyntaxError(message, text.count("\n", 0, pos) + 1, pos - line_start + 1)


def _expected(text: str, pos: int, what: str) -> GoalSyntaxError:
    line_end = text.find("\n", pos)
    found = text[pos:line_end if line_end >= 0 else len(text)].rstrip()
    return _error(text, pos, f"expected {what}, found {found or 'end of input'!r}")


def parse_goal(text: str) -> Schedule:
    """Parse schedule text into a validated Schedule.

    Each comment is first blanked with as many spaces, so that it reads as
    whitespace and no line or column moves. After ``num_ranks N``, the body
    of each ``rank N {`` block, up to the next ``}``, is read in bulk by
    ``_BulkReader``; a body that it refuses is replayed by ``_block_fault``
    only to name its fault. Errors quote the text as given, comments
    included. Raises GoalSyntaxError for malformed text, with the line and
    column of the first statement that does not parse (or, for a bad value,
    of the offending rank id, peer or label), and ScheduleValidationError for
    well-formed text that is not a runnable schedule (bad peers, unmatched
    messages, requires on the op itself or a later op).
    """
    code = _COMMENT_RE.sub(lambda c: " " * len(c[0]), text) if "#" in text else text
    m = _HEADER_RE.match(code)
    if m["nranks"] is None:
        raise _expected(text, m.end(), "'num_ranks N'")
    nranks = int(m["nranks"])
    if nranks < 1:
        raise _error(text, m.start("nranks"), "num_ranks must be >= 1")
    try:
        blocks: list[tuple | None] = [None] * nranks  # each block's structure and peers
    except (MemoryError, OverflowError):
        raise _error(text, m.start("nranks"), f"num_ranks {nranks} is too large") from None
    bulk = _BulkReader(nranks)
    pos = m.end()
    while pos < len(code):
        m = _BLOCK_RE.match(code, pos)
        if m is None:
            raise _expected(text, pos, "'rank N {'")
        rank = int(m["rank"])
        if rank >= nranks:
            raise _error(text, m.start("rank"), f"rank {rank} out of range (num_ranks {nranks})")
        if blocks[rank] is not None:
            raise _error(text, pos, f"duplicate block for rank {rank}")
        start, close = m.end(), code.find("}", m.end())
        block = bulk.read(code, start, close, rank) if close >= 0 else None
        if block is None:
            raise _block_fault(text, code, start, close, rank, nranks)
        blocks[rank] = block
        pos = _SPACE_RE.match(code, close + 1).end()
    cols = _Columns()
    last = None  # the structure of the rank appended last
    for block in blocks:
        structure, peers = block or (_NO_OPS, ())
        if structure is last:
            cols.add_like_last(peers)
        else:
            kinds, sizes, req_offsets, req_targets = last = structure
            cols.add_rank(kinds, peers, sizes, req_offsets, req_targets)
    return _validated(cols.schedule(nranks, None))


_NO_OPS = (array("b"), [], array("q", [0]), array("q"))  # the structure of an empty body
_PREPOSITIONS = ("to", "from")


class _BulkReader:
    """Reads the block bodies of one text, comments blanked, into their
    structure (kinds, sizes, requires offsets and targets, as ``add_rank``
    takes them) and peer column (-1 for a calc).

    ``read`` gives None for a body unless every statement in it parses and
    names a good peer and known labels. Each step runs over a whole column in
    C; there is no Python work per statement. A size beyond 64 bits is passed
    on as an int, for ``add_rank`` to name.

    The ranks of a generated schedule differ only in their peers. So the
    reader keeps a template of the last body that ``findall`` accepted with a
    new structure: its whitespace-split words, which of them are peers (the
    word after each ``to`` or ``from``) and its structure. A body with as many
    words, equal at every other position, and peers of ASCII digits has that
    structure, and its structure object is returned, without ``findall``.
    The regex reads any run of whitespace alike, and the peer words are digits
    in both, so ``findall`` would accept the body with the same columns.
    """

    __slots__ = ("nranks", "_count", "_others", "_other_words", "_peer_at", "_peer_index",
                 "_structure")

    def __init__(self, nranks: int) -> None:
        self.nranks = nranks
        self._count = -1  # no template yet
        self._structure: tuple | None = None

    def read(self, code: str, start: int, end: int, rank: int) -> tuple | None:
        """``(structure, peers)`` of the body ``code[start:end]`` of rank ``rank``'s block."""
        words = code[start:end].split()
        if len(words) == self._count and self._others(words) == self._other_words:
            digits = "".join(map(words.__getitem__, self._peer_at))
            if digits.isascii() and (digits.isdigit() or not digits):
                words.append("-1")  # the peer of a calc
                peers = self._peers(map(words.__getitem__, self._peer_index), rank)
                return None if peers is None else (self._structure, peers)
        rows = _BULK_RE.findall(code, start, end)
        if not rows:
            return _NO_OPS, ()
        labels, kind, size, prep, peer, deps, junk = zip(*rows)
        if any(junk) or not _BULK_FORMS.issuperset(map(add, kind, prep)):
            return None
        requires = _requires_columns(labels, deps)
        if requires is None:
            return None
        peer = list(compress(peer, kind))  # "" for a calc
        peers = self._peers(map(_CALC_PEER.get, peer, peer), rank)
        if peers is None:
            return None
        structure = (array("b", map(_KIND_CODE.__getitem__, filter(None, kind))),
                     list(map(int, filter(None, size))), *requires)
        if structure != self._structure:
            self._keep(words, structure)
        return self._structure, peers

    def _peers(self, digits, rank: int) -> array | None:
        """The peer column from each op's peer digits ("-1" for a calc), or
        None for a peer out of range or equal to ``rank``."""
        try:
            peers = array("q", map(int, digits))
        except OverflowError:  # a peer beyond 64 bits is out of range
            return None
        if peers and (max(peers) >= self.nranks or rank in peers):
            return None
        return peers

    def _keep(self, words: list[str], structure: tuple) -> None:
        """Make the accepted body of ``words`` and ``structure`` the template."""
        n = len(words)
        self._peer_at = [i + 1 for i, word in enumerate(words) if word in _PREPOSITIONS]
        peer_at = iter(self._peer_at)
        self._peer_index = [n if kind == KIND_CALC else next(peer_at) for kind in structure[0]]
        self._others = itemgetter(*sorted(set(range(n)).difference(self._peer_at)))
        self._other_words = self._others(words)
        self._count = n
        self._structure = structure


def _requires_columns(labels: tuple[str, ...], deps: tuple[str, ...]) -> tuple | None:
    """A body's requires offsets and targets from its rows' labels and
    requires lists (empty in an op statement), or None for a duplicate or
    unknown label. Op i's requires are the keys ``i * n + target`` of its
    requires statements, sorted and unique."""
    op_labels = list(compress(labels, map(not_, deps)))
    n = len(op_labels)
    index = dict(zip(op_labels, range(n)))
    if len(index) != n:
        return None
    lists = list(filter(None, deps))
    try:
        owners = map(index.__getitem__, compress(labels, deps))
        targets = map(index.__getitem__, ",".join(lists).replace(",", " ").split())
        counts = map(len, map(str.split, lists, repeat(",")))
        bases = chain.from_iterable(map(repeat, map(n.__mul__, owners), counts))
        keys = sorted(set(map(add, bases, targets)))
    except KeyError:
        return None
    offsets = array("q", map(bisect_left, repeat(keys), range(0, n * n + 1, n or 1)))
    return offsets, array("q", map(mod, keys, repeat(n)))


def _block_fault(text: str, code: str, start: int, close: int, rank: int,
                 nranks: int) -> GoalSyntaxError:
    """The first fault of the block body at ``start`` of rank ``rank`` that
    ``_BulkReader.read`` refused, up to the ``}`` at ``close`` (-1 if there
    is none), quoting ``text``; ``code`` is ``text`` with comments blanked.

    The body's rows are replayed in statement order for a statement that
    does not parse, a duplicate label or a bad peer; then the block may be
    unterminated; then the first requires statement that names an unknown
    label is named. A refused body has one of these faults.
    """
    labels: set[str] = set()
    deps = []  # the requires rows
    for row in _BULK_RE.finditer(code, start, close if close >= 0 else len(code)):
        label, kind, _, prep, peer, dep_text, junk = row.groups("")
        if junk or kind + prep not in _BULK_FORMS:
            return _expected(text, row.start(), _STMT_FORMS)
        if dep_text:
            deps.append(row)
        elif label in labels:
            return _error(text, row.start(), f"duplicate label {label!r}")
        else:
            labels.add(label)
            if peer and int(peer) >= nranks:
                return _error(text, row.start(5),
                              f"peer {int(peer)} out of range (num_ranks {nranks})")
            if peer and int(peer) == rank:
                return _error(text, row.start(5), f"peer must differ from own rank {rank}")
    if close < 0:
        return _error(text, len(text), "unterminated rank block")
    for row in deps:
        for name in (row[1], *row[6].replace(",", " ").split()):
            if name not in labels:
                return _error(text, row.start(), f"dangling dependency label {name!r}")


def emit_goal(schedule: Schedule) -> str:
    """Canonical text form; parse_goal(emit_goal(s)) equals s structurally.

    Metadata is emitted as leading ``#`` comments (ignored on parse), keys
    and values flattened to one line. Labels are ``o<id>``; requires lines
    directly follow their op, deps sorted. A rank with the previous rank's
    kinds, sizes and requires reuses its block's format string.
    """
    metadata = schedule.metadata
    lines = [f"# {' '.join(str(key).split())}: {' '.join(str(metadata[key]).split())}"
             for key in sorted(metadata)]
    lines.append(f"num_ranks {schedule.nranks}")
    kinds, peers, sizes = schedule.kinds, schedule.peers, schedule.sizes
    req, req_off, bounds = schedule.req_targets, schedule.req_offsets, schedule.rank_offsets
    structure = block = is_msg = None
    for rank in range(schedule.nranks):
        lo, hi = bounds[rank], bounds[rank + 1]
        a = req_off[lo]
        rank_structure = (kinds[lo:hi], sizes[lo:hi], req[a:req_off[hi]],
                          array("q", map(sub, req_off[lo:hi + 1], repeat(a))))
        if rank_structure != structure:
            structure = rank_structure
            block = _block_format(*structure)
            is_msg = list(map(KIND_CALC.__ne__, structure[0]))
        lines.append(block % (rank, *compress(peers[lo:hi], is_msg)))
    return "\n".join(lines) + "\n"


def _block_format(kinds, sizes, req_targets, req_offsets) -> str:
    """The text of a rank's block with ``%d`` for its rank id and for the peer
    of each send and recv, in op order."""
    if not kinds:
        return "rank %d { }"
    lines = ["rank %d {"]
    for i, (kind, size) in enumerate(zip(kinds, sizes)):
        lines.append(f"  o{i}: calc {size}" if kind == KIND_CALC
                     else f"  o{i}: {KINDS[kind]} {size}b {('to', 'from')[kind]} %d")
        deps = req_targets[req_offsets[i]:req_offsets[i + 1]]
        if deps:
            lines.append(f"  o{i} requires " + ", ".join([f"o{t}" for t in deps]))
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Validation

def validate(schedule: Schedule) -> list[str]:
    """Collect schedule-semantics violations; empty list means runnable.

    Checks that peers are other ranks in range, that each op requires only
    earlier ops of its rank and that send and recv multisets match per
    (src, dst, size). One ``_walk`` accepts a runnable schedule; only a
    failed walk is diagnosed, all violations at once. Both results are
    memoized on the schedule.
    """
    if schedule._verdict is None:
        walked = _walk(schedule)
        violations = () if type(walked) is tuple else tuple(_violations(schedule))
        object.__setattr__(schedule, "_verdict", violations)
        object.__setattr__(schedule, "_order", None if violations else walked)
    return list(schedule._verdict)


def execution_order(schedule: Schedule) -> tuple[array, array, array]:
    """``(msg, by_level, level_bounds)`` of a runnable schedule, from its walk.

    ``msg[g]`` is the index among all sends of send g or of the send paired
    with recv g, and -1 for a calc. An op's level is one above its rank
    predecessor's and, for a recv, its send's; level v holds the ops
    ``by_level[level_bounds[v]:level_bounds[v + 1]]``, in op order. Raises
    ScheduleValidationError, or DeadlockError when some recvs wait forever.
    """
    order = _validated(schedule)._order
    if type(order) is list:
        raise DeadlockError(order)
    return order


def _validated(schedule: Schedule) -> Schedule:
    """The schedule, or ScheduleValidationError naming its violations."""
    violations = validate(schedule)
    if violations:
        raise ScheduleValidationError(violations)
    return schedule


def _walk(schedule: Schedule) -> tuple[array, array, array] | list:
    """Kahn's algorithm over program order, ``requires`` and message pairing.

    A rank advances while its next op requires no later op and, for a send,
    names another rank in range or, for a recv, finds a send of its triple
    (src, dst, size) queued. A placed send is queued and wakes its peer; a placed
    recv takes the oldest, pairing messages in order per triple. Returns
    ``execution_order``'s columns, or the unplaced ops as DeadlockError lists them.
    """
    nranks = schedule.nranks
    kinds, peers, sizes, offsets = (schedule.kinds, schedule.peers, schedule.sizes,
                                    schedule.rank_offsets)
    req, req_off = schedule.req_targets, schedule.req_offsets
    n = len(kinds)
    code = "i" if n < 1 << 31 else "q"
    msg, level = array(code, [-1]) * n, array(code, [0]) * n
    # Per rank: the ops placed, the level of the last one and the next send number.
    placed, last_level = [0] * nranks, [-1] * nranks
    next_send = list(accumulate((kinds[lo:hi].count(KIND_SEND)
                                 for lo, hi in zip(offsets, offsets[1:])), initial=0))
    send_level = array(code, [0]) * next_send[-1]
    # Each triple's sends not yet received: a send number, or a deque of several.
    queued: dict[tuple[int, int, int], int | deque] = {}
    todo = list(range(nranks))
    while todo:
        r = todo.pop()
        lo, hi = offsets[r], offsets[r + 1]
        g, lv, m = lo + placed[r], last_level[r], next_send[r]
        while g < hi:
            last_req = req_off[g + 1] - 1
            if last_req >= req_off[g] and req[last_req] >= g - lo:
                break
            k = kinds[g]
            if k == KIND_SEND:
                p = peers[g]
                if p == r or p >= nranks:
                    break
                key = (r, p, sizes[g])
                q = queued.get(key)
                if q is None:
                    queued[key] = m
                elif type(q) is int:
                    queued[key] = deque((q, m))
                else:
                    q.append(m)
                msg[g] = m
                send_level[m] = lv = lv + 1
                m += 1
                todo.append(p)
            elif k == KIND_RECV:
                key = (peers[g], r, sizes[g])
                q = queued.pop(key, None)
                if q is None:
                    break
                s = q if type(q) is int else q.popleft()
                if type(q) is deque and q:
                    queued[key] = q
                msg[g] = s
                lv = (lv if lv > send_level[s] else send_level[s]) + 1
            else:
                lv += 1
            level[g] = lv
            g += 1
        placed[r], last_level[r], next_send[r] = g - lo, lv, m
    if queued or sum(placed) != n:
        return [(r, g - offsets[r], KINDS[kinds[g]])
                for r in range(nranks) for g in range(offsets[r] + placed[r], offsets[r + 1])]
    # Each level's ops in op order, which keeps the engines' gathers local.
    levels = [array(code) for _ in range(max(level, default=-1) + 1)]
    for g, lv in enumerate(level):
        levels[lv].append(g)
    del level
    by_level, level_bounds = array(code), array(code, [0])
    for ops in levels:
        by_level += ops
        level_bounds.append(len(by_level))
    return msg, by_level, level_bounds


def _violations(schedule: Schedule) -> list[str]:
    """The diagnostics of a schedule that ``_walk`` rejects, in op order: bad
    peers and requires on the op itself or a later op, then the (src, dst,
    size) triples whose send and recv counts differ."""
    violations: list[str] = []
    nranks = schedule.nranks
    kinds, peers, sizes, bounds = (schedule.kinds, schedule.peers, schedule.sizes,
                                   schedule.rank_offsets)
    req, req_off = schedule.req_targets, schedule.req_offsets
    counts: dict[tuple[int, int, int], list[int]] = {}  # sends and recvs per triple
    for rank in range(nranks):
        lo = bounds[rank]
        for g in range(lo, bounds[rank + 1]):
            peer = peers[g]  # -1 for a calc
            if peer == rank:
                violations.append(f"rank {rank} op {g - lo}: peer equals own rank")
            elif peer >= nranks:
                violations.append(f"rank {rank} op {g - lo}: peer {peer} out of range")
            elif kinds[g] == KIND_SEND:
                counts.setdefault((rank, peer, sizes[g]), [0, 0])[0] += 1
            elif kinds[g] == KIND_RECV:
                counts.setdefault((peer, rank, sizes[g]), [0, 0])[1] += 1
            later = [t for t in req[req_off[g]:req_off[g + 1]] if t >= g - lo]
            if later:
                violations.append(f"rank {rank} op {g - lo}: requires op(s) {later} at or "
                                  "after it, a dependency cycle through program order")
    for (src, dst, size), (ns, nr) in sorted(counts.items()):
        if ns != nr:
            violations.append(
                f"unmatched messages {src}->{dst} size {size}: {ns} send(s), {nr} recv(s)")
    return violations


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
    # Every rank has the same ops but for their peers, so all but the first
    # are appended like the last.
    kinds, sizes = [KIND_SEND, KIND_RECV] * rounds, [size] * (2 * rounds)
    requires = _csr([()] * 2 + [(2 * k - 2, 2 * k - 1) for k in range(1, rounds)
                     for _ in (KIND_SEND, KIND_RECV)])
    steps = [d for k in range(rounds) for d in (1 << k, -(1 << k))]
    cols = _Columns()
    for r in range(nranks):
        peers = list(map(mod, map(add, steps, repeat(r)), repeat(nranks)))
        if r:
            cols.add_like_last(peers)
        else:
            cols.add_rank(kinds, peers, sizes, *requires)
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
    # Every rank has the same ops but for their peers (the right neighbour of
    # its sends and the left one of its recvs), so all but the first are
    # appended like the last.
    ops: list[tuple[int, int, tuple[int, ...]]] = []  # (kind code, size, requires)
    req: tuple[int, ...] = ()  # the next send's requires
    for step in range(2 * (nranks - 1)):
        recv_id = len(ops) + 1
        ops += ((KIND_SEND, chunk, req), (KIND_RECV, chunk, ()))
        req = (recv_id,)
        if step < nranks - 1 and reduce_cost_per_chunk > 0:
            ops.append((KIND_CALC, reduce_cost_per_chunk, req))
            req = (recv_id, recv_id + 1)
    kinds, sizes, requires = zip(*ops)
    req_columns = _csr(requires)
    cols = _Columns()
    for r in range(nranks):
        peer_of_kind = ((r + 1) % nranks, (r - 1) % nranks, -1)
        peers = list(map(peer_of_kind.__getitem__, kinds))
        if r:
            cols.add_like_last(peers)
        else:
            cols.add_rank(kinds, peers, sizes, *req_columns)
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


# gen_compute_collective's collectives, named in the order of COMPAPP_PATTERNS
_COMPAPP = dict(zip(COMPAPP_PATTERNS, (gen_dissemination, gen_ring_allreduce), strict=True))


def gen_compute_collective(
    nranks: int,
    comp_ns: int,
    pattern: str,
    size: int,
    iterations: int,
) -> Schedule:
    """Compute phase followed by a collective, repeated ``iterations`` times.

    Per iteration and rank: one calc of ``comp_ns``, then the collective
    (``pattern`` is one of ``COMPAPP_PATTERNS``); the collective's root ops wait
    on the calc, and the next iteration's calc waits on all loose ends of the
    previous collective on that rank.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if comp_ns < 0:
        raise ValueError("comp_ns must be >= 0")
    if pattern not in _COMPAPP:
        raise ValueError(f"unknown pattern {pattern!r} (want {' or '.join(_COMPAPP)})")
    inner = _COMPAPP[pattern](nranks, size)

    req, req_off, bounds = inner.req_targets, inner.req_offsets, inner.rank_offsets
    cols = _Columns()
    for rank in range(nranks):
        lo, hi = bounds[rank], bounds[rank + 1]
        inner_req = [req[req_off[g]:req_off[g + 1]].tolist() for g in range(lo, hi)]
        required = set(chain.from_iterable(inner_req))
        sinks = [i for i in range(hi - lo) if i not in required]
        requires: list[list[int]] = []
        for it in range(iterations):
            calc_id = it * (hi - lo + 1)
            # The calc waits on the previous collective's sinks, and a root of
            # the collective waits on the calc.
            requires.append([calc_id - (hi - lo) + s for s in sinks] if it else [])
            requires += ([calc_id + 1 + d for d in r] or [calc_id] for r in inner_req)
        cols.add_rank(([KIND_CALC] + inner.kinds[lo:hi].tolist()) * iterations,
                      ([-1] + inner.peers[lo:hi].tolist()) * iterations,
                      ([comp_ns] + inner.sizes[lo:hi].tolist()) * iterations, *_csr(requires))
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
# JSON export: the IR's columns

_SCHEDULE_SCHEMA = "nsim.schedule/2"


def schedule_to_json(schedule: Schedule) -> str:
    """The schedule JSON document on one line: the header and the six IR
    columns (see Schedule) as integer lists."""
    doc = {"schema": _SCHEDULE_SCHEMA, "num_ranks": schedule.nranks,
           "metadata": dict(schedule.metadata)}
    doc.update((name, getattr(schedule, name).tolist()) for name in _COLUMNS)
    return json.dumps(doc, separators=(",", ":"), allow_nan=False) + "\n"


def schedule_from_json(text: str) -> Schedule:
    """Read a schedule JSON document; a malformed document raises ValueError.

    The columns' types, lengths and offsets, the kind codes, the calcs' peers
    and the order of each op's requires are checked here; each rank's slice
    then goes to ``_Columns.add_rank``, which checks and names its values.
    """
    doc = decode_json(text)
    if not isinstance(doc, dict):
        raise ValueError(f"schedule JSON must be an object, got {type(doc).__name__}")
    if doc.get("schema") == "nsim.schedule/1":
        raise ValueError("nsim.schedule/1 is no longer read; "
                         "regenerate it with 'nsim gen ... --format json'")
    if doc.get("schema") != _SCHEDULE_SCHEMA:
        raise ValueError(f"unexpected schedule schema {reprlib.repr(doc.get('schema'))}")
    nranks = doc.get("num_ranks")
    if type(nranks) is not int:
        raise ValueError(f"'num_ranks' must be an integer, got {reprlib.repr(nranks)}")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValueError(f"'metadata' must be an object, got {type(metadata).__name__}")
    for name in _COLUMNS:
        if type(doc.get(name)) is not list or not {int}.issuperset(map(type, doc[name])):
            raise ValueError(f"{name!r} must be a list of integers")
    bounds, kinds, peers, sizes, req_off, req = map(doc.get, _COLUMNS)
    n = len(kinds)
    if not len(peers) == len(sizes) == len(req_off) - 1 == n:
        raise ValueError("'kinds', 'peers' and 'sizes' must have one entry per op, "
                         "and 'req_offsets' one more")
    for name, offsets, end in (("rank_offsets", bounds, n), ("req_offsets", req_off, len(req))):
        if offsets[:1] != [0] or offsets[-1] != end or any(map(gt, offsets, offsets[1:])):
            raise ValueError(f"{name!r} must run from 0 to {end} and never decrease")
    if not {KIND_SEND, KIND_RECV, KIND_CALC}.issuperset(kinds):
        raise ValueError("'kinds' must hold the codes 0 (send), 1 (recv) and 2 (calc)")
    if not {-1}.issuperset(compress(peers, map(KIND_CALC.__eq__, kinds))):
        raise ValueError("calc ops take no peer")
    unsorted = set(compress(range(1, len(req)), map(ge, req, islice(req, 1, None))))
    if not unsorted.issubset(req_off):
        g = bisect_right(req_off, min(unsorted - set(req_off))) - 1
        r = bisect_right(bounds, g) - 1
        raise ValueError(f"rank {r} op {g - bounds[r]}: requires must be sorted and unique")
    cols = _Columns()
    for lo, hi in zip(bounds, islice(bounds, 1, None)):
        base = req_off[lo]
        cols.add_rank(kinds[lo:hi], peers[lo:hi], sizes[lo:hi],
                      list(map(sub, req_off[lo:hi + 1], repeat(base))), req[base:req_off[hi]])
    return _validated(cols.schedule(nranks, metadata))
