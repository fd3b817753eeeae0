"""Measure network/OS noise at small scale, replay it at simulated large scale.

The toolkit has three legs: microbenchmarks that record per-sample latency,
bandwidth and OS-detour traces from real hosts (``nsim.bench``), trace
analytics that turn measurements into empirical distributions
(``nsim.noise``), and a deterministic LogGP schedule simulator that replays
those distributions per message at arbitrary rank counts (``nsim.goal``,
``nsim.simengine``), with cost and boxplot reporting on top (``nsim.cost``,
``nsim.report``).
"""

from .model import (
    DetourTrace,
    EmpiricalDistribution,
    LogGPParams,
    NoiseModel,
    bandwidth_to_G,
    calibrate,
    message_time,
)
from .goal import (
    Schedule,
    ScheduleOp,
    emit_goal,
    gen_compute_collective,
    gen_dissemination,
    gen_ring_allreduce,
    parse_goal,
    validate,
)
from .simengine import SimConfig, SimResult, run_many, simulate

__all__ = [
    "DetourTrace",
    "EmpiricalDistribution",
    "LogGPParams",
    "NoiseModel",
    "Schedule",
    "ScheduleOp",
    "SimConfig",
    "SimResult",
    "bandwidth_to_G",
    "calibrate",
    "emit_goal",
    "gen_compute_collective",
    "gen_dissemination",
    "gen_ring_allreduce",
    "message_time",
    "parse_goal",
    "run_many",
    "simulate",
    "validate",
]

__version__ = "0.1.0"
