"""The benchmark's workloads: one schedule shape, one noise mix, one rep count each.

All use the params in ``synth.PARAMS`` and the seeded synthetic traces. Why each
workload exists, and which layer it stresses, is in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass

from nsim import goal


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: str  # "dissem" or "compapp", the `nsim gen` subcommand
    gen_args: dict  # keyword arguments of the library generator
    fmt: str  # "goal" (text) or "json": how the schedule travels to `sim run`
    noise: tuple[str, ...]  # subset of ("lat", "bw", "os")
    reps: int

    def cli_gen_args(self, fmt: str | None = None) -> list[str]:
        """`nsim gen` arguments; ``fmt`` overrides the workload's format."""
        a = self.gen_args
        if self.generator == "dissem":
            args = ["dissem", "-p", a["nranks"], "-s", a["size"]]
        else:
            args = ["compapp", "-p", a["nranks"], "--comp", a["comp_ns"],
                    "--pattern", a["pattern"], "-s", a["size"],
                    "--iterations", a["iterations"]]
        return ["gen", *map(str, args), "--format", fmt or self.fmt]

    def make_schedule(self) -> goal.Schedule:
        if self.generator == "dissem":
            return goal.gen_dissemination(**self.gen_args)
        return goal.gen_compute_collective(**self.gen_args)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="dissem_text",
        why="GOAL text pipe into a light latency-noise run: parse-bound, isolates "
            "the text parser and the schedule IR",
        generator="dissem", gen_args={"nranks": 1024, "size": 16}, fmt="goal",
        noise=("lat",), reps=5),
    Workload(
        name="dissem_reps",
        why="wide, shallow dissemination over many reps with latency and OS noise: "
            "engine-bound, where a batched engine shows",
        generator="dissem", gen_args={"nranks": 256, "size": 16}, fmt="json",
        noise=("lat", "os"), reps=100),
    Workload(
        name="compapp_chain",
        why="deep, narrow compute plus ring allreduce with bandwidth and OS noise: "
            "long dependency chains and the JSON IR",
        generator="compapp",
        gen_args={"nranks": 8, "comp_ns": 100_000, "pattern": "ring",
                  "size": 65536, "iterations": 100},
        fmt="json", noise=("bw", "os"), reps=4),
)}
