"""Measure network/OS noise at small scale, replay it at simulated large scale.

The toolkit has three legs: microbenchmarks that record per-sample latency,
bandwidth and OS-detour traces from real hosts (``nsim.bench``), trace
analytics that turn measurements into empirical distributions
(``nsim.noise``), and a deterministic LogGP schedule simulator that replays
those distributions per message at arbitrary rank counts (``nsim.goal``,
``nsim.simengine``), with cost and boxplot reporting on top (``nsim.cost``,
``nsim.report``).

The names in ``__all__`` resolve on first access (PEP 562 ``__getattr__``):
``nsim.simulate`` imports ``nsim.simengine`` then, so ``import nsim`` alone
loads no submodule and each command of ``nsim.cli`` loads only the modules it
runs. ``from nsim import *`` and ``dir(nsim)`` list the same names.
"""

import importlib

# Public name -> submodule that defines it.
_SOURCES = {
    "DetourTrace": "model",
    "EmpiricalDistribution": "model",
    "LogGPParams": "model",
    "NoiseModel": "model",
    "bandwidth_to_G": "model",
    "calibrate": "model",
    "message_time": "model",
    "Schedule": "goal",
    "ScheduleOp": "goal",
    "emit_goal": "goal",
    "gen_compute_collective": "goal",
    "gen_dissemination": "goal",
    "gen_ring_allreduce": "goal",
    "parse_goal": "goal",
    "validate": "goal",
    "SimConfig": "simengine",
    "SimResult": "simengine",
    "run_many": "simengine",
    "simulate": "simengine",
}

__all__ = sorted(_SOURCES)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
