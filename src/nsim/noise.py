"""Measurement trace ingest and the analytics that turn traces into noise inputs.

Trace CSV format (one file per measurement session):

    # optional comments
    timestamp_ns,value,unit
    0,1190,ns
    1000,1200,ns

Timestamps are integer ns since trace start and must be nondecreasing; values
are real. The unit column may be omitted (rows of two fields), in which case
the caller-supplied expected unit applies. Units: ``ns`` for latencies and
durations, ``gbps`` for bandwidths, ``ratio`` for normalized traces. Numbers
use ``.`` as the decimal separator regardless of locale.

A detour trace reuses the same CSV with timestamp_ns = event start offset and
value = event duration (unit ns), plus at most one ``# span_ns=N`` comment
giving the replay window length; without it the span defaults to the end of
the last event.
"""

from __future__ import annotations

import base64
import json
import math
import operator
import sys
from array import array
from itertools import islice, repeat
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from .errors import TraceFormatError, decode_json
from .model import (
    UNIT_GBPS,
    UNIT_NS,
    DetourTrace,
    EmpiricalDistribution,
    _check_samples,
    _frozen_slotted,
    round_half_up,
)

__all__ = [
    "UNIT_RATIO",
    "SampleTrace",
    "TraceFormatError",
    "parse_trace",
    "format_trace",
    "load_trace",
    "save_trace",
    "build_distribution",
    "normalize_min",
    "normalize_max",
    "top_fraction",
    "bandwidth_from_rtt",
    "format_detour_trace",
    "parse_detour_trace",
    "load_detour_trace",
    "save_detour_trace",
    "format_distribution",
    "save_distribution",
    "parse_distribution",
    "load_distribution",
]

UNIT_RATIO = "ratio"
_HEADER = "timestamp_ns,value,unit"


@_frozen_slotted
class SampleTrace:
    """Per-sample measurements: (timestamp ns since start, value) rows.

    Stored as two columns, signed 64-bit timestamps and float values; ``rows``,
    ``timestamps`` and ``values`` are tuple views built on access. A frozen,
    slotted dataclass: assigning any name raises ``FrozenInstanceError``,
    and ``==`` compares the columns and the unit. In ``ns`` and ``gbps`` traces
    every value is finite and > 0, which ``build_distribution`` relies on.
    """

    _timestamps: array
    _values: array
    unit: str

    def __init__(self, rows: Iterable[tuple[int, float]], unit: str):
        rules = _trace_rules(unit)
        timestamps, values = array("q"), array("d")
        for i, (t, v) in enumerate(rows):
            t, v = int(t), float(v)
            fault = _row_fault(t, v, v, None, timestamps, rules)
            if fault is not None:
                raise ValueError(f"row {i}: {fault}")
            timestamps.append(t)
            values.append(v)
        self._set(timestamps, values, unit)

    @classmethod
    def _from_columns(cls, timestamps: array, values: array, unit: str) -> "SampleTrace":
        """Wrap columns that the caller has already checked; they are not copied."""
        trace = cls.__new__(cls)
        trace._set(timestamps, values, unit)
        return trace

    def _set(self, timestamps: array, values: array, unit: str) -> None:
        object.__setattr__(self, "_timestamps", timestamps)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "unit", unit)

    @property
    def rows(self) -> tuple[tuple[int, float], ...]:
        return tuple(zip(self._timestamps, self._values))

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self._values)

    @property
    def timestamps(self) -> tuple[int, ...]:
        return tuple(self._timestamps)

    def __len__(self) -> int:
        return len(self._values)

    def __hash__(self) -> int:
        return hash((self.rows, self.unit))

    def __repr__(self) -> str:
        return f"SampleTrace(rows={self.rows!r}, unit={self.unit!r})"


class _Rules(NamedTuple):
    """What a trace reader demands of each data row beyond the CSV shape."""

    unit: str  # the unit a 3-field row must name
    ordered: bool  # timestamps must be nondecreasing
    # a test that, once true, stays true for larger values, so that a whole
    # column passes if its minimum does; None accepts any value
    value_ok: Callable[[float], bool] | None
    value_error: str  # message for a value that fails value_ok; {} is the value


def _trace_rules(unit: str) -> _Rules:
    """A trace's rules: nondecreasing timestamps, and values > 0 in ns and gbps."""
    if unit not in (UNIT_NS, UNIT_GBPS, UNIT_RATIO):
        raise ValueError(f"unknown trace unit {unit!r}")
    positive = (0.0).__lt__ if unit in (UNIT_NS, UNIT_GBPS) else None  # 0 < v
    return _Rules(unit, True, positive, f"{unit} value must be > 0, got {{}}")


def _row_fault(ts: int, value: float, shown: object, unit: str | None, timestamps: array,
               rules: _Rules) -> str | None:
    """The first fault of a row that would follow ``timestamps``, or None: a value not
    finite (``shown`` as written), a unit (None if the row has none) other than the
    rules', a decreasing timestamp, a value the rules refuse, a timestamp beyond int64."""
    if not math.isfinite(value):
        return f"non-finite value {shown!r}"
    if unit is not None and unit != rules.unit:
        return f"unit {unit!r} does not match expected {rules.unit!r}"
    if rules.ordered and timestamps and ts < timestamps[-1]:
        return f"timestamp {ts} decreases (previous {timestamps[-1]})"
    if rules.value_ok is not None and not rules.value_ok(value):
        return rules.value_error.format(value)
    if not -1 << 63 <= ts < 1 << 63:
        return f"timestamp {ts} is outside the signed 64-bit range"
    return None


# Characters per chunk, cut after the next newline: about 3k rows of a
# measured trace. Only one chunk's lines and fields exist at a time.
_CHUNK_CHARS = 1 << 16


def _read_rows(text: str, rules: _Rules,
               on_comment: Callable[[str, int], None] | None = None) -> tuple[array, array]:
    """Timestamp and value columns of trace CSV text, read a chunk at a time.

    _bulk_rows converts a chunk whole when every line in it is a good data row;
    any other chunk (a comment, a blank line, the header or a fault in it)
    goes through _scan_rows, the per-row reader that knows line numbers. So
    every fault is reported as the per-row reader reports it, and only such a
    chunk pays for it.
    """
    timestamps, values = array("q"), array("d")
    saw_header = False
    offset = pos = 0
    while pos < len(text):
        # cut after a "\n", so that no line and no "\r\n" spans two chunks
        end = text.find("\n", pos + _CHUNK_CHARS) + 1 or len(text)
        lines = text[pos:end].splitlines()
        if not _bulk_rows(lines, rules, timestamps, values):
            saw_header = _scan_rows(lines, offset, rules, saw_header, timestamps, values,
                                    on_comment)
        offset += len(lines)
        pos = end
    return timestamps, values


def _bulk_rows(lines: list[str], rules: _Rules, timestamps: array, values: array) -> bool:
    """Append the rows of ``lines`` if each is a data row that passes every check.

    Returns False, appending nothing, for anything else: the caller then reads
    the chunk row by row. Every loop here runs in C.
    """
    commas = set(map(str.count, lines, repeat(",")))
    if len(commas) != 1:
        return False
    width = commas.pop() + 1
    if width not in (2, 3):
        return False
    fields = ",".join(lines).split(",")
    if width == 3 and set(fields[2::3]) != {rules.unit}:
        return False
    try:
        ts = array("q", map(int, fields[0::width]))
        vs = array("d", map(float, fields[1::width]))
    except (ValueError, OverflowError):
        return False
    if not all(map(math.isfinite, vs)):
        return False
    if rules.ordered and ((timestamps and ts[0] < timestamps[-1])
                          or any(map(operator.lt, islice(ts, 1, None), ts))):
        return False
    if rules.value_ok is not None and not rules.value_ok(min(vs)):
        return False
    timestamps.extend(ts)
    values.extend(vs)
    return True


def _scan_rows(lines: list[str], offset: int, rules: _Rules, saw_header: bool,
               timestamps: array, values: array,
               on_comment: Callable[[str, int], None] | None) -> bool:
    """Append the rows of ``lines`` one at a time; the first fault raises with its line.

    ``offset`` is the number of lines before ``lines`` in the file. Until the
    header has been seen, a row whose first field is ``timestamp_ns`` is the
    header; the return value says whether it has been seen, for the next chunk.
    """
    for lineno, raw in enumerate(lines, offset + 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            if line and on_comment is not None:
                on_comment(line, lineno)
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
        fault = _row_fault(ts, value, fields[1], fields[2] if len(fields) == 3 else None,
                           timestamps, rules)
        if fault is not None:
            raise TraceFormatError(fault, lineno)
        timestamps.append(ts)
        values.append(value)
    return saw_header


def parse_trace(text: str, expected_unit: str) -> SampleTrace:
    """Read trace CSV text, enforcing the unit and timestamp monotonicity."""
    timestamps, values = _read_rows(text, _trace_rules(expected_unit))
    if not values:
        raise TraceFormatError("no samples in trace")
    return SampleTrace._from_columns(timestamps, values, expected_unit)


def load_trace(path: str | Path, expected_unit: str) -> SampleTrace:
    """Read a trace CSV file; see parse_trace."""
    return parse_trace(Path(path).read_text(encoding="utf-8-sig"), expected_unit)


def format_trace(trace: SampleTrace, comments: Iterable[str] = ()) -> str:
    """The canonical 3-column form (LF endings, values as Python float reprs)."""
    lines = [f"# {c}" for c in comments]
    lines.append(_HEADER)
    lines.extend(f"{t},{v!r},{trace.unit}" for t, v in trace.rows)
    return "\n".join(lines) + "\n"


def save_trace(trace: SampleTrace, path: str | Path, comments: Iterable[str] = ()) -> None:
    """Write a trace CSV file; see format_trace."""
    Path(path).write_text(format_trace(trace, comments), encoding="utf-8")


def build_distribution(trace: SampleTrace) -> EmpiricalDistribution:
    """Sorted copy of the trace values, unit preserved; the simulator's input."""
    if trace.unit not in (UNIT_NS, UNIT_GBPS):
        raise ValueError(f"cannot build a noise distribution from a {trace.unit!r} trace")
    if len(trace) == 0:
        raise ValueError("empty trace")
    # A trace's values are finite floats, > 0 in these units: sorting is all that is left.
    return EmpiricalDistribution._from_sorted(array("d", sorted(trace._values)), trace.unit)


def normalize_min(trace: SampleTrace) -> SampleTrace:
    """Divide every value by the trace minimum; the result's minimum is 1."""
    return _scaled(trace, min, "minimum")


def normalize_max(trace: SampleTrace) -> SampleTrace:
    """Divide every value by the trace maximum; the result's maximum is 1."""
    return _scaled(trace, max, "maximum")


def _scaled(trace: SampleTrace, pick: Callable[[array], float], name: str) -> SampleTrace:
    """The ratio trace of the values over their ``pick`` (``name`` in errors), timestamps
    shared."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    divisor = pick(trace._values)
    if divisor <= 0:
        raise ValueError(f"{name} must be > 0 to normalize, got {divisor}")
    return SampleTrace._from_columns(
        trace._timestamps, array("d", map(divisor.__rtruediv__, trace._values)), UNIT_RATIO)


def top_fraction(trace: SampleTrace, frac: float, side: str = "largest") -> SampleTrace:
    """Keep the ceil(frac * n) most extreme samples, in original timestamp order.

    side selects which tail: "largest" (e.g. worst latencies) or "smallest"
    (e.g. deepest bandwidth drops). Ties at the cut are broken toward earlier
    rows, that is earlier timestamps, so output is deterministic.
    """
    if not 0.0 < frac <= 1.0:
        raise ValueError(f"frac must lie in (0, 1], got {frac}")
    if side not in ("largest", "smallest"):
        raise ValueError(f"side must be 'largest' or 'smallest', got {side!r}")
    n = len(trace)
    if n == 0:
        raise ValueError("empty trace")
    values = trace._values
    # sorted() is stable, with reverse=True too, so equal values keep row order.
    by_value = sorted(range(n), key=values.__getitem__, reverse=side == "largest")
    chosen = sorted(by_value[:math.ceil(frac * n)])
    return SampleTrace._from_columns(array("q", map(trace._timestamps.__getitem__, chosen)),
                                     array("d", map(values.__getitem__, chosen)), trace.unit)


def bandwidth_from_rtt(size: int, half_rtt_ns: float) -> float:
    """Achieved bandwidth in Gb/s: message size over half the round-trip time."""
    if size < 1:
        raise ValueError(f"size must be >= 1 byte, got {size}")
    if not half_rtt_ns > 0:
        raise ValueError(f"half_rtt must be > 0 ns, got {half_rtt_ns}")
    return 8.0 * size / half_rtt_ns


# ---------------------------------------------------------------------------
# Detour trace and distribution files

_DETOUR_RULES = _Rules(UNIT_NS, False, lambda v: round_half_up(v) > 0,
                       "detour duration must be > 0 ns, got {}")


def parse_detour_trace(text: str) -> DetourTrace:
    """Read detour trace CSV text (start offset, duration) with at most one span comment."""
    span: int | None = None
    span_line = 0

    def read_span(line: str, lineno: int) -> None:
        nonlocal span, span_line
        if "span_ns=" in line:
            if span_line:
                raise TraceFormatError(
                    f"a second '# span_ns=' comment (the first is on line {span_line})", lineno)
            value = line.split("span_ns=", 1)[1].strip()
            try:
                span = int(value)
            except ValueError:
                raise TraceFormatError(
                    f"'# span_ns=' needs an integer ns count, got {value!r}", lineno) from None
            span_line = lineno

    starts, durations = _read_rows(text, _DETOUR_RULES, read_span)
    if not starts:
        raise TraceFormatError("no detour events")
    events = tuple(zip(starts, map(round_half_up, durations)))
    if span is None:
        span = max(s + d for s, d in events)
    return DetourTrace(events, span)


def load_detour_trace(path: str | Path) -> DetourTrace:
    """Read a detour trace CSV file; see parse_detour_trace."""
    return parse_detour_trace(Path(path).read_text(encoding="utf-8-sig"))


def format_detour_trace(trace: DetourTrace, comments: Iterable[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"# span_ns={trace.span}")
    lines.append(_HEADER)
    lines.extend(f"{s},{d},{UNIT_NS}" for s, d in trace.events)
    return "\n".join(lines) + "\n"


def save_detour_trace(trace: DetourTrace, path: str | Path,
                      comments: Iterable[str] = ()) -> None:
    Path(path).write_text(format_detour_trace(trace, comments), encoding="utf-8")


_DIST_SCHEMA = "nsim.dist/2"


def format_distribution(dist: EmpiricalDistribution) -> str:
    """One line of JSON; the samples are the base64 of their little-endian binary64 bytes."""
    column = array("d", dist._samples)
    if sys.byteorder == "big":
        column.byteswap()
    return json.dumps({"schema": _DIST_SCHEMA, "unit": dist.unit, "count": len(column),
                       "samples_f64le": base64.b64encode(column).decode("ascii")}) + "\n"


def save_distribution(dist: EmpiricalDistribution, path: str | Path) -> None:
    Path(path).write_text(format_distribution(dist), encoding="utf-8")


def parse_distribution(text: str) -> EmpiricalDistribution:
    """Read distribution JSON text; a malformed document raises ValueError."""
    doc = decode_json(text)
    if not isinstance(doc, dict):
        raise ValueError(f"distribution JSON must be an object, got {type(doc).__name__}")
    if doc.get("schema") == "nsim.dist/1":
        raise ValueError("nsim.dist/1 is no longer read; rebuild it with 'nsim trace dist'")
    if doc.get("schema") != _DIST_SCHEMA:
        raise ValueError(f"unexpected distribution schema {doc.get('schema')!r}")
    count = doc.get("count")
    if type(count) is not int or count < 1:
        raise ValueError(f"'count' must be an integer >= 1, got {count!r}")
    try:
        data = base64.b64decode(doc.get("samples_f64le"), validate=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"'samples_f64le' must be a base64 string: {exc}") from None
    if len(data) != 8 * count:
        raise ValueError(f"'samples_f64le' holds {len(data)} bytes, not 8 x count = {8 * count}")
    column = array("d", data)
    if sys.byteorder == "big":
        column.byteswap()
    _check_samples(column, doc.get("unit"))
    return EmpiricalDistribution._from_sorted(column, doc["unit"])


def load_distribution(path: str | Path) -> EmpiricalDistribution:
    """Read a distribution JSON file; see parse_distribution."""
    return parse_distribution(Path(path).read_text(encoding="utf-8-sig"))
