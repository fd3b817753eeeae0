"""The errors that nsim commands map to exit codes.

Each class is re-exported by the module that raises it (``goal``, ``noise``,
``simengine``, ``bench``), so ``nsim.goal.GoalSyntaxError`` is
``nsim.errors.GoalSyntaxError``. This module imports nothing, so the CLI can
catch every one of them without loading the modules that raise them. The
messages name no file: the CLI puts the path of the file it was reading in
front of them.
"""

__all__ = [
    "GoalSyntaxError",
    "ScheduleValidationError",
    "TraceFormatError",
    "DeadlockError",
    "ClockResolutionError",
    "DetourLimitError",
]


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


class TraceFormatError(ValueError):
    """Bad trace file content; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class DeadlockError(RuntimeError):
    """Schedule with ops that can never run; lists the blocked ops."""

    def __init__(self, blocked: list[tuple[int, int, str]]):
        self.blocked = blocked
        shown = ", ".join(f"rank {r} op {i} ({k})" for r, i, k in blocked[:16])
        more = "" if len(blocked) <= 16 else f" and {len(blocked) - 16} more"
        super().__init__(f"deadlock: {len(blocked)} op(s) blocked: {shown}{more}")


class ClockResolutionError(RuntimeError):
    """The monotonic clock cannot resolve a single loop iteration."""


class DetourLimitError(RuntimeError):
    """The detour recorder reached max_iterations before collecting enough events."""

