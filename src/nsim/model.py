"""LogGP machine parameters, empirical noise distributions, and message timing.

Time is kept as 64-bit integer nanoseconds everywhere; the only real-valued
machine parameter is G (nanoseconds per byte). Every duration derived from G
is rounded half-up to integer nanoseconds at the point where it enters the
event timeline, which keeps event ordering deterministic across platforms.

The LogGP message time for s bytes is

    T(s) = 2*o + L + (s - 1) * G

with o the per-message host overhead, L the network latency and G the gap per
byte (the inverse of the network bandwidth). The extra parameter g is the
minimum interval between two message transmissions at one host and does not
appear in T(s); it matters only when a host issues several messages.
"""

from __future__ import annotations

import math
import operator
import warnings
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

from .units import UNIT_GBPS, UNIT_NS, UNIT_NS_PER_BYTE

__all__ = [
    "UNIT_NS",
    "UNIT_GBPS",
    "UNIT_NS_PER_BYTE",
    "LogGPParams",
    "EmpiricalDistribution",
    "DetourTrace",
    "NoiseModel",
    "DegenerateCalibrationWarning",
    "round_half_up",
    "one_way_wire_ns",
    "message_time",
    "calibrate",
    "bandwidth_to_G",
]

_DIST_UNITS = (UNIT_NS, UNIT_GBPS, UNIT_NS_PER_BYTE)
# A latency (ns) or a rate (gbps) must be strictly positive; a per-byte gap may be 0.
_POSITIVE_UNITS = (UNIT_NS, UNIT_GBPS)


class DegenerateCalibrationWarning(UserWarning):
    """Large-message minimum was faster than the small-message minimum; G forced to 0."""


def round_half_up(x: float) -> int:
    """Round to integer nanoseconds, halves away from zero toward +inf."""
    return math.floor(x + 0.5)


@dataclass(frozen=True)
class LogGPParams:
    """The four machine parameters driving all message timing.

    L: network latency, integer ns.
    o: per-message host overhead (send and receive side each pay o), integer ns.
    g: minimum gap between two message transmissions at one host, integer ns.
       g >= o is not required; either ordering is accepted.
    G: gap per byte, real ns/byte.
    """

    L: int
    o: int
    g: int
    G: float

    def __post_init__(self) -> None:
        for name in ("L", "o", "g"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"{name} must be an integer nanosecond count, got {v!r}")
            if v < 0:
                raise ValueError(f"{name} must be >= 0, got {v}")
            if v >= 1 << 63:
                raise ValueError(f"{name} must fit in signed 64-bit ns (< 2**63)")
        if isinstance(self.G, bool) or not isinstance(self.G, (int, float)):
            raise ValueError(f"G must be a number of ns per byte, got {self.G!r}")
        try:
            G = float(self.G)
        except OverflowError:  # an int beyond the float range
            G = math.inf if self.G > 0 else -math.inf
        object.__setattr__(self, "G", G)
        if not 0.0 <= G < math.inf:
            raise ValueError(f"G must be finite and >= 0, got {G}")


def _check_samples(column: array, unit: str) -> None:
    """ValueError unless ``column`` holds finite samples, at least one, ascending and
    > 0 in ns or gbps. One ``<=`` pass over adjacent pairs (a NaN fails it) and the
    two ends decide; only a failed column is checked again, to name the fault."""
    if unit not in _DIST_UNITS:
        raise ValueError(f"unknown distribution unit {unit!r}")
    if not column:
        raise ValueError("distribution needs at least one sample")
    if (all(map(operator.le, column, islice(column, 1, None)))
            and math.isfinite(column[0]) and math.isfinite(column[-1])
            and (column[0] > 0.0 or unit not in _POSITIVE_UNITS)):
        return
    if not all(map(math.isfinite, column)):
        raise ValueError("samples must be finite numbers")
    if any(map(operator.lt, islice(column, 1, None), column)):
        raise ValueError("samples must be sorted ascending")
    raise ValueError(f"{unit} samples must be > 0, got min {column[0]}")


@dataclass(frozen=True, slots=True, init=False, repr=False)
class EmpiricalDistribution:
    """Sorted measured samples for inverse-ECDF draws.

    The simulator draws ``samples[(u * count) >> 64]`` for a 64-bit uniform
    u (``simengine._draws``): the step-function empirical quantile with no
    interpolation, so every value a simulation can draw was actually
    observed. This is what lets rare heavy-tail outliers in measured traces
    reappear at full size instead of being smoothed away.

    The samples are stored as one float column, which both engines read;
    ``samples`` is a tuple view built on access. A frozen, slotted dataclass:
    assigning a field raises ``FrozenInstanceError``, and ``==`` compares the
    column and the unit.
    """

    _samples: array
    unit: str

    def __init__(self, samples: Iterable[float], unit: str) -> None:
        try:
            column = array("d", map(float, samples))
        except OverflowError:  # an int beyond the float range
            column = array("d", [math.inf])
        _check_samples(column, unit)
        self._set(column, unit)

    @classmethod
    def from_values(cls, values: Iterable[float], unit: str) -> "EmpiricalDistribution":
        """Build from unsorted values (a multiset copy, sorted ascending)."""
        return cls(sorted(values), unit)

    @classmethod
    def _from_sorted(cls, samples: array, unit: str) -> "EmpiricalDistribution":
        """Wrap a float column that the caller has already checked and sorted;
        it is not copied."""
        dist = cls.__new__(cls)
        dist._set(samples, unit)
        return dist

    def _set(self, samples: array, unit: str) -> None:
        object.__setattr__(self, "_samples", samples)
        object.__setattr__(self, "unit", unit)

    @property
    def samples(self) -> tuple[float, ...]:
        return tuple(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    def __hash__(self) -> int:
        return hash((self.samples, self.unit))

    def __repr__(self) -> str:
        return f"EmpiricalDistribution(samples={self.samples!r}, unit={self.unit!r})"


@dataclass(frozen=True)
class DetourTrace:
    """Timestamped host interruptions: (start_offset, duration) pairs in ns.

    Events are sorted, non-overlapping, strictly positive in duration and fit
    inside ``span``, the total length of the recorded window, leaving some of
    it idle (a host that never gets idle time never finishes). Replay is
    cyclic: simulations lay the window end to end along the timeline, each
    rank with its own random phase.
    """

    events: tuple[tuple[int, int], ...]
    span: int

    def __post_init__(self) -> None:
        if not isinstance(self.span, int) or self.span < 1:
            raise ValueError(f"span must be a positive integer, got {self.span!r}")
        events = tuple((int(s), int(d)) for s, d in self.events)
        object.__setattr__(self, "events", events)
        prev_end = 0
        for i, (s, d) in enumerate(events):
            if d <= 0:
                raise ValueError(f"event {i}: duration must be > 0, got {d}")
            if s < prev_end:
                raise ValueError(f"event {i}: overlaps or precedes previous event")
            if s + d > self.span:
                raise ValueError(f"event {i}: extends past span ({s}+{d} > {self.span})")
            prev_end = s + d
        if self.total_detour >= self.span:
            raise ValueError(f"detour events cover the whole span of {self.span} ns, "
                             "leaving the host no idle time to make progress")

    @property
    def total_detour(self) -> int:
        return sum(d for _, d in self.events)


@dataclass(frozen=True)
class NoiseModel:
    """Composite noise configuration; all-absent means noiseless.

    latency:   ns distribution of measured one-way small-message times. A draw
               replaces the whole deterministic 2o+L portion of a message (the
               measurements include host overhead inseparably); the (s-1)G
               term is unaffected.
    bandwidth: Gb/s distribution; a draw is converted per message to an
               effective G via ``bandwidth_to_G``.
    os:        detour trace replayed cyclically onto host occupancy intervals.
    """

    latency: EmpiricalDistribution | None = None
    bandwidth: EmpiricalDistribution | None = None
    os: DetourTrace | None = None

    def __post_init__(self) -> None:
        if self.latency is not None and self.latency.unit != UNIT_NS:
            raise ValueError(f"latency noise must be in ns, got {self.latency.unit!r}")
        if self.bandwidth is not None and self.bandwidth.unit != UNIT_GBPS:
            raise ValueError(f"bandwidth noise must be in gbps, got {self.bandwidth.unit!r}")

    @property
    def is_noiseless(self) -> bool:
        return self.latency is None and self.bandwidth is None and self.os is None


def one_way_wire_ns(latency_ns: float, size: int, gap_per_byte: float) -> int:
    """Integer wire delay of one message: latency + (size-1) byte gaps, rounded half-up.

    Used by message_time, whose 2o term is an integer and commutes with the
    rounding. The simulator does not call it: ``_wires`` and ``_wire_vec``
    inline the same rounding, and ``tests/oracles.wire_ns`` is the reference.
    """
    return round_half_up(latency_ns + (size - 1) * gap_per_byte)


def message_time(params: LogGPParams, size: int) -> int:
    """T(s) = 2o + L + (s-1)G in integer ns for a single message of ``size`` bytes."""
    if isinstance(size, bool) or not isinstance(size, int) or size < 1:
        raise ValueError(f"size must be an integer >= 1 byte, got {size!r}")
    return 2 * params.o + one_way_wire_ns(params.L, size, params.G)


def calibrate(
    small_samples: Sequence[float],
    large_samples: Sequence[float],
    size_s: int,
    o_fraction: float = 0.5,
) -> LogGPParams:
    """Fit LogGP parameters from two RTT/2 sample traces.

    ``small_samples`` are 1-byte RTT/2 measurements in ns, ``large_samples``
    RTT/2 at ``size_s`` bytes. The base one-way time t1 = min(small_samples)
    is split between 2o and L by ``o_fraction`` (it cannot be separated by
    measurement, so the split is explicit and should be recorded alongside the
    result); G is the size-dependent slope between the two minima; g defaults
    to o.

    A large-message minimum faster than the small-message minimum happens on
    noisy hosts with non-monotone tails. That is reported as G = 0 plus a
    DegenerateCalibrationWarning rather than an error, so pipelines keep
    running on imperfect inputs.
    """
    if not small_samples or not large_samples:
        raise ValueError("calibration traces must be non-empty")
    if not 0.0 <= o_fraction <= 1.0:
        raise ValueError(f"o_fraction must lie in [0, 1], got {o_fraction}")
    if size_s <= 1:
        raise ValueError(f"size_s must be > 1 byte, got {size_s}")
    t1 = min(float(v) for v in small_samples)
    if t1 <= 0:
        raise ValueError(f"small-message minimum must be > 0 ns, got {t1}")
    t1_int = round_half_up(t1)
    o = round_half_up(o_fraction * t1 / 2.0)
    if 2 * o > t1_int:
        o = t1_int // 2
    L = t1_int - 2 * o
    t_large = min(float(v) for v in large_samples)
    if t_large < t1:
        warnings.warn(
            f"large-message minimum ({t_large} ns) below small-message minimum "
            f"({t1} ns); reporting G=0",
            DegenerateCalibrationWarning,
            stacklevel=2,
        )
        G = 0.0
    else:
        G = (t_large - t1) / (size_s - 1)
    return LogGPParams(L=L, o=o, g=o, G=G)


def bandwidth_to_G(bw_gbps: float) -> float:
    """Gap per byte in ns for a bandwidth in Gb/s: G = 8 / bw."""
    if not bw_gbps > 0.0:
        raise ValueError(f"bandwidth must be > 0 Gb/s, got {bw_gbps!r}")
    return 8.0 / bw_gbps
