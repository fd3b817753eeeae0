"""The errors that nsim commands map to exit codes.

Each class is re-exported by the module that raises it (``goal``, ``noise``,
``simengine``, ``bench``), so ``nsim.goal.GoalSyntaxError`` is
``nsim.errors.GoalSyntaxError``. This module imports only ``json`` and
``math``, so the CLI can catch every one of them without loading the modules
that raise them. The messages name no file: the CLI puts the path of the file
it was reading in front of them. ``decode_json`` is the JSON decoder of every
reader.
"""

import json
import math

__all__ = [
    "GoalSyntaxError",
    "ScheduleValidationError",
    "TraceFormatError",
    "DeadlockError",
    "ClockResolutionError",
    "DetourLimitError",
    "decode_json",
]


def _refuse_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")


def _finite_float(token: str) -> float:
    value = float(token)
    if math.isinf(value):
        raise ValueError(f"number {token} is beyond the float range")
    return value


def decode_json(text: str):
    """``json.loads(text)`` for RFC 8259 JSON: ``NaN``, ``Infinity``, ``-Infinity``
    and a number beyond the float range raise ValueError. A document nested too
    deep to decode raises json.JSONDecodeError, a ValueError, like other text
    that is not JSON."""
    try:
        return json.loads(text, parse_constant=_refuse_constant, parse_float=_finite_float)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply to decode", text, 0) from None


class GoalSyntaxError(ValueError):
    """Malformed schedule text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


def _first_16(entries: list, sep: str, show=str) -> str:
    """The first 16 ``entries`` through ``show``, joined by ``sep``, then ``and N more``."""
    shown = sep.join(map(show, entries[:16]))
    return shown if len(entries) <= 16 else f"{shown} and {len(entries) - 16} more"


class ScheduleValidationError(ValueError):
    """Well-formed schedule that violates schedule semantics; the message
    shows the first 16 ``violations``."""

    def __init__(self, violations: list[str]):
        super().__init__(_first_16(violations, "; "))
        self.violations = list(violations)


class TraceFormatError(ValueError):
    """Bad trace file content; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class DeadlockError(RuntimeError):
    """Schedule with recvs that wait forever; the message shows the first 16
    ``blocked`` ops."""

    def __init__(self, blocked: list[tuple[int, int, str]]):
        self.blocked = blocked
        shown = _first_16(blocked, ", ", lambda b: "rank %d op %d (%s)" % b)
        super().__init__(f"deadlock: {len(blocked)} op(s) blocked: {shown}")


class ClockResolutionError(RuntimeError):
    """The monotonic clock cannot resolve a single loop iteration."""


class DetourLimitError(RuntimeError):
    """The detour recorder reached max_iterations before collecting enough events."""

