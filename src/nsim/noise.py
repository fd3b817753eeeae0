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
value = event duration (unit ns), plus an optional ``# span_ns=N`` comment
giving the replay window length; without it the span defaults to the end of
the last event.
"""

from __future__ import annotations

import json
import math
from array import array
from pathlib import Path
from typing import Iterable

from .model import (
    UNIT_GBPS,
    UNIT_NS,
    DetourTrace,
    EmpiricalDistribution,
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
    "load_detour_trace",
    "save_detour_trace",
    "format_distribution",
    "save_distribution",
    "load_distribution",
]

UNIT_RATIO = "ratio"
_TRACE_UNITS = (UNIT_NS, UNIT_GBPS, UNIT_RATIO)
_HEADER = "timestamp_ns,value,unit"


class TraceFormatError(ValueError):
    """Bad trace file content; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class SampleTrace:
    """Per-sample measurements: (timestamp ns since start, value) rows.

    Stored as two columns, signed 64-bit timestamps and float values; ``rows``,
    ``timestamps`` and ``values`` are tuple views built on access. Immutable.
    """

    __slots__ = ("_timestamps", "_values", "unit")

    def __init__(self, rows: Iterable[tuple[int, float]], unit: str):
        if unit not in _TRACE_UNITS:
            raise ValueError(f"unknown trace unit {unit!r}")
        positive = unit in (UNIT_NS, UNIT_GBPS)
        timestamps = array("q")
        values = array("d")
        for i, (t, v) in enumerate(rows):
            t, v = int(t), float(v)
            if timestamps and t < timestamps[-1]:
                raise ValueError(f"row {i}: timestamps must be nondecreasing")
            if positive and v <= 0:
                raise ValueError(f"row {i}: {unit} values must be > 0, got {v}")
            try:
                timestamps.append(t)
            except OverflowError:
                raise ValueError(f"row {i}: timestamp {t} is outside the signed "
                                 "64-bit range") from None
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

    def __setattr__(self, name, value):
        raise AttributeError(f"SampleTrace is immutable; cannot set {name!r}")

    def __reduce__(self):
        return (self._from_columns, (self._timestamps, self._values, self.unit))

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

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.unit == other.unit and self._timestamps == other._timestamps
                and self._values == other._values)

    def __hash__(self) -> int:
        return hash((self.rows, self.unit))

    def __repr__(self) -> str:
        return f"SampleTrace(rows={self.rows!r}, unit={self.unit!r})"


def _parse_rows(text: str, expected_unit: str):
    """Yield (line_number, timestamp, value) from trace CSV text."""
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


def parse_trace(text: str, expected_unit: str) -> SampleTrace:
    """Read trace CSV text, enforcing the unit and timestamp monotonicity."""
    if expected_unit not in _TRACE_UNITS:
        raise ValueError(f"unknown trace unit {expected_unit!r}")
    positive = expected_unit in (UNIT_NS, UNIT_GBPS)
    timestamps = array("q")
    values = array("d")
    for lineno, ts, value in _parse_rows(text, expected_unit):
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


def load_trace(path: str | Path, expected_unit: str) -> SampleTrace:
    """Read a trace CSV file; see parse_trace."""
    return parse_trace(Path(path).read_text(encoding="utf-8"), expected_unit)


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
    return EmpiricalDistribution.from_values(trace.values, trace.unit)


def normalize_min(trace: SampleTrace) -> SampleTrace:
    """Divide every value by the trace minimum; the result's minimum is 1."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    lo = min(trace.values)
    if lo <= 0:
        raise ValueError(f"minimum must be > 0 to normalize, got {lo}")
    return SampleTrace(tuple((t, v / lo) for t, v in trace.rows), UNIT_RATIO)


def normalize_max(trace: SampleTrace) -> SampleTrace:
    """Divide every value by the trace maximum; the result's maximum is 1."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    hi = max(trace.values)
    if hi <= 0:
        raise ValueError(f"maximum must be > 0 to normalize, got {hi}")
    return SampleTrace(tuple((t, v / hi) for t, v in trace.rows), UNIT_RATIO)


def top_fraction(trace: SampleTrace, frac: float, side: str = "largest") -> SampleTrace:
    """Keep the ceil(frac * n) most extreme samples, in original timestamp order.

    side selects which tail: "largest" (e.g. worst latencies) or "smallest"
    (e.g. deepest bandwidth drops). Ties at the cut are broken toward earlier
    timestamps so output is deterministic.
    """
    if not 0.0 < frac <= 1.0:
        raise ValueError(f"frac must lie in (0, 1], got {frac}")
    if side not in ("largest", "smallest"):
        raise ValueError(f"side must be 'largest' or 'smallest', got {side!r}")
    n = len(trace)
    if n == 0:
        raise ValueError("empty trace")
    keep = math.ceil(frac * n)
    rows = trace.rows  # a view built on each access: build it once
    indexed = list(enumerate(rows))
    if side == "largest":
        indexed.sort(key=lambda e: (-e[1][1], e[1][0], e[0]))
    else:
        indexed.sort(key=lambda e: (e[1][1], e[1][0], e[0]))
    chosen = sorted(i for i, _ in indexed[:keep])
    return SampleTrace(tuple(rows[i] for i in chosen), trace.unit)


def bandwidth_from_rtt(size: int, half_rtt_ns: float) -> float:
    """Achieved bandwidth in Gb/s: message size over half the round-trip time."""
    if size < 1:
        raise ValueError(f"size must be >= 1 byte, got {size}")
    if not half_rtt_ns > 0:
        raise ValueError(f"half_rtt must be > 0 ns, got {half_rtt_ns}")
    return 8.0 * size / half_rtt_ns


# ---------------------------------------------------------------------------
# Detour trace and distribution files

def load_detour_trace(path: str | Path) -> DetourTrace:
    """Read a detour trace CSV (start offset, duration) with optional span comment."""
    text = Path(path).read_text(encoding="utf-8")
    span: int | None = None
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
    for lineno, ts, value in _parse_rows(text, UNIT_NS):
        dur = round_half_up(value)
        if dur <= 0:
            raise TraceFormatError(f"detour duration must be > 0 ns, got {value}", lineno)
        events.append((ts, dur))
    if not events:
        raise TraceFormatError(f"no detour events in {path}")
    if span is None:
        span = max(s + d for s, d in events)
    return DetourTrace(tuple(events), span)


def format_detour_trace(trace: DetourTrace, comments: Iterable[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"# span_ns={trace.span}")
    lines.append(_HEADER)
    lines.extend(f"{s},{d},{UNIT_NS}" for s, d in trace.events)
    return "\n".join(lines) + "\n"


def save_detour_trace(trace: DetourTrace, path: str | Path,
                      comments: Iterable[str] = ()) -> None:
    Path(path).write_text(format_detour_trace(trace, comments), encoding="utf-8")


_DIST_SCHEMA = "nsim.dist/1"


def format_distribution(dist: EmpiricalDistribution) -> str:
    doc = {"schema": _DIST_SCHEMA, "unit": dist.unit, "samples": list(dist.samples)}
    return json.dumps(doc) + "\n"


def save_distribution(dist: EmpiricalDistribution, path: str | Path) -> None:
    Path(path).write_text(format_distribution(dist), encoding="utf-8")


def load_distribution(path: str | Path) -> EmpiricalDistribution:
    """Read a distribution JSON file; a malformed document raises ValueError."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: distribution JSON must be an object, "
                         f"got {type(doc).__name__}")
    if doc.get("schema") != _DIST_SCHEMA:
        raise ValueError(f"unexpected distribution schema {doc.get('schema')!r}")
    samples = doc.get("samples")
    if not isinstance(samples, list) or not set(map(type, samples)) <= {int, float}:
        raise ValueError(f"{path}: 'samples' must be a list of numbers")
    return EmpiricalDistribution(tuple(samples), doc.get("unit"))
