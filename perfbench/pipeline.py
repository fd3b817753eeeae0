"""One iteration of a workload's pipeline, run through the CLI or through the library.

The CLI iteration is what a user runs, stage by stage, each stage a fresh
``python -m nsim.cli`` process:

    trace dist (per latency/bandwidth trace)
    gen ... | sim run --noise-... --seed S --reps R
    cost --baseline base.json
    report box noisy.json base.json

The library iteration makes the same public calls in-process, each inside a
span, so its ``stage.*`` spans compare with the CLI stages. The noiseless
baseline is simulated once per run, like the CLI's ``base.json``. ``aside``
times, once per traced run, the layers the workload's CLI path does not use
(the other schedule format, a detour trace the run does not replay), so every
per-layer metric is measured on every workload.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

from nsim import cost as cost_mod
from nsim import goal
from nsim import noise as noise_mod
from nsim import report as report_mod
from nsim import simengine
from nsim.model import LogGPParams, NoiseModel

from .spans import Tracer
from .synth import PARAMS, Inputs
from .workloads import Workload

UNITS = {"lat": "ns", "bw": "gbps"}
NOISE_FLAGS = {"lat": "--noise-lat", "bw": "--noise-bw", "os": "--noise-os"}
PRICE = ("aws", "on_demand", "c5n.18xlarge")  # provider, label, instance
LABELS = ("noisy", "clean")
STAGES = ("trace_dist", "sim_pipe", "cost", "report")


def params() -> LogGPParams:
    return LogGPParams(L=PARAMS["L_ns"], o=PARAMS["o_ns"], g=PARAMS["g_ns"],
                       G=PARAMS["G_ns_per_byte"])


class StageFailed(RuntimeError):
    """A CLI stage exited nonzero."""


@dataclass
class Outputs:
    """What an iteration produced; the gate compares CLI against library."""

    results: list  # results JSON "results" entries
    per_run_usd: list
    relative_increase: list
    baseline_completion_ns: int
    report: str


@dataclass
class CliIteration:
    wall_s: float
    stages: dict  # STAGES -> seconds
    peak_rss_kb: int
    outputs: Outputs


class Cli:
    """Runs CLI stages as child processes, at most two at once (the gen | sim pipe)."""

    def __init__(self, root: Path, work: Path):
        path = os.environ.get("PYTHONPATH")
        src = str(root / "src")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.work = work

    def _spawn(self, name: str, args: list[str], stdin=None, stdout=None):
        with open(self.work / f"{name}.stderr", "wb") as err:
            return subprocess.Popen([sys.executable, "-m", "nsim.cli", *args],
                                    stdin=stdin, stdout=stdout, stderr=err,
                                    env=self.env, cwd=self.work)

    def _reap(self, *named) -> int:
        """Wait for every process; return the highest ru_maxrss (KiB) among them."""
        peak, failed = 0, []
        for name, proc in named:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            peak = max(peak, usage.ru_maxrss)
            if proc.returncode != 0:
                err = (self.work / f"{name}.stderr").read_text(errors="replace").strip()
                failed.append(f"{name} exited {proc.returncode}: {err[-300:]}")
        if failed:
            raise StageFailed("; ".join(failed))
        return peak

    def run(self, name: str, args: list[str]) -> int:
        return self._reap((name, self._spawn(name, args)))

    def pipe(self, gen_args: list[str], sim_args: list[str]) -> int:
        gen = self._spawn("gen", gen_args, stdout=subprocess.PIPE)
        try:
            sim = self._spawn("sim", sim_args, stdin=gen.stdout)
        finally:
            gen.stdout.close()
        return self._reap(("gen", gen), ("sim", sim))

    def help_seconds(self) -> float:
        """Wall time of a fresh interpreter importing the CLI and printing help."""
        t0 = time.perf_counter()
        with open(os.devnull, "wb") as devnull:
            self._reap(("help", self._spawn("help", ["--help"], stdout=devnull)))
        return time.perf_counter() - t0

    def baseline(self, w: Workload, inputs: Inputs, out: Path) -> None:
        """Noiseless single-run results file, the `cost`/`report` baseline."""
        self.pipe(w.cli_gen_args("json"),
                  ["sim", "run", "--params", str(inputs.params), "--out", str(out)])

    def iteration(self, w: Workload, inputs: Inputs, seed: int,
                  baseline: Path) -> CliIteration:
        work = self.work
        peak = 0
        t0 = time.perf_counter()
        dists = {}
        for kind in ("lat", "bw"):
            if kind in w.noise:
                dists[kind] = work / f"{kind}.json"
                peak = max(peak, self.run("trace_dist", [
                    "trace", "dist", "--in", str(getattr(inputs, kind)),
                    "--unit", UNITS[kind], "--out", str(dists[kind])]))
        t1 = time.perf_counter()
        noisy = work / "noisy.json"
        sim_args = ["sim", "run", "--params", str(inputs.params),
                    "--seed", str(seed), "--reps", str(w.reps), "--out", str(noisy)]
        for kind in w.noise:
            path = inputs.detour if kind == "os" else dists[kind]
            sim_args += [NOISE_FLAGS[kind], str(path)]
        peak = max(peak, self.pipe(w.cli_gen_args(), sim_args))
        t2 = time.perf_counter()
        cost_json = work / "cost.json"
        provider, label, instance = PRICE
        peak = max(peak, self.run("cost", [
            "cost", "--results", str(noisy), "--provider", provider, "--label", label,
            "--instance", instance, "--baseline", str(baseline), "--out", str(cost_json)]))
        t3 = time.perf_counter()
        box = work / "box.json"
        peak = max(peak, self.run("report", [
            "report", "box", str(noisy), str(baseline), "--label", LABELS[0],
            "--label", LABELS[1], "--format", "json", "--out", str(box)]))
        t4 = time.perf_counter()
        stages = dict(zip(STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)))

        cost_doc = json.loads(cost_json.read_text(encoding="utf-8"))
        outputs = Outputs(
            results=json.loads(noisy.read_text(encoding="utf-8"))["results"],
            per_run_usd=cost_doc["per_run_usd"],
            relative_increase=cost_doc["relative_increase"],
            baseline_completion_ns=cost_doc["baseline_completion_ns"],
            report=box.read_text(encoding="utf-8"),
        )
        return CliIteration(t4 - t0, stages, peak, outputs)


def _through_format(tracer: Tracer, schedule: goal.Schedule, fmt: str) -> goal.Schedule:
    if fmt == "goal":
        with tracer.span("goal.emit") as sp:
            text = goal.emit_goal(schedule)
        sp.counts["text_bytes"] = len(text.encode())
        with tracer.span("goal.parse"):
            return goal.parse_goal(text)
    with tracer.span("goal.to_json") as sp:
        text = goal.schedule_to_json(schedule)
    sp.counts["json_bytes"] = len(text.encode())
    with tracer.span("goal.from_json"):
        return goal.schedule_from_json(text)


def simulate_clean(schedule: goal.Schedule, tracer: Tracer) -> simengine.SimResult:
    with tracer.span("simengine.simulate_clean"):
        return simengine.simulate(schedule, simengine.SimConfig(params=params()))


def aside(w: Workload, inputs: Inputs, schedule: goal.Schedule, tracer: Tracer) -> None:
    """Time the layers that the workload's CLI path leaves out."""
    with tracer.span("aside"):
        _through_format(tracer, schedule, "json" if w.fmt == "goal" else "goal")
        if "os" not in w.noise:
            with tracer.span("noise.load_detour") as sp:
                sp.counts["detour_events"] = len(
                    noise_mod.load_detour_trace(inputs.detour).events)


def _traced_box_stats(tracer: Tracer):
    """Put a span around each box_stats call that render makes for its groups."""
    real = report_mod.box_stats

    def box_stats(samples):
        with tracer.span("report.box_stats"):
            return real(samples)

    return mock.patch.object(report_mod, "box_stats", box_stats)


def library_iteration(w: Workload, inputs: Inputs, seed: int, tracer: Tracer,
                      tmp: Path, clean: simengine.SimResult) -> Outputs:
    """The CLI iteration's public calls, in-process and traced."""
    with tracer.span("iteration"):
        dist_paths = {}
        with tracer.span("stage.trace_dist"):
            for kind in ("lat", "bw"):
                if kind in w.noise:
                    with tracer.span("noise.load_trace") as sp:
                        trace = noise_mod.load_trace(getattr(inputs, kind), UNITS[kind])
                    sp.counts["samples"] = len(trace)
                    with tracer.span("noise.build_distribution"):
                        dist = noise_mod.build_distribution(trace)
                    dist_paths[kind] = tmp / f"lib-{kind}.json"
                    noise_mod.save_distribution(dist, dist_paths[kind])

        with tracer.span("stage.sim_pipe"):
            with tracer.span("goal.gen") as sp:
                generated = w.make_schedule()
            sp.counts["ops"] = generated.op_count()
            schedule = _through_format(tracer, generated, w.fmt)
            dists = {}
            for kind, path in dist_paths.items():
                with tracer.span("noise.load_distribution"):
                    dists[kind] = noise_mod.load_distribution(path)
            detour = None
            if "os" in w.noise:
                with tracer.span("noise.load_detour") as sp:
                    detour = noise_mod.load_detour_trace(inputs.detour)
                sp.counts["detour_events"] = len(detour.events)
            cfg = simengine.SimConfig(
                params=params(), seed=seed,
                noise=NoiseModel(latency=dists.get("lat"), bandwidth=dists.get("bw"),
                                 os=detour))
            with tracer.span("simengine.run_many") as sp:
                runs = simengine.run_many(schedule, cfg, w.reps)
            sp.counts["op_runs"] = schedule.op_count() * w.reps
            sp.counts["draws"] = sum(r.draws_used for r in runs)
            with tracer.span("simengine.results_json"):
                results = [simengine.result_to_dict(r, i) for i, r in enumerate(runs)]
                (tmp / "lib-noisy.json").write_text(
                    json.dumps({"results": results}, indent=2) + "\n", encoding="utf-8")

        with tracer.span("stage.cost"), tracer.span("cost"):
            catalog = cost_mod.load_price_catalog(cost_mod.builtin_catalog_path())
            price = cost_mod.find_price(catalog, *PRICE)
            per_run_usd = [cost_mod.run_cost(r.completion, schedule.nranks, price)
                           for r in runs]
            increase = cost_mod.relative_increase(runs, clean)

        groups = [(LABELS[0], [r.completion for r in runs]),
                  (LABELS[1], [clean.completion])]
        with tracer.span("stage.report"), tracer.span("report.render"), \
                _traced_box_stats(tracer):
            rendered = report_mod.render(groups, "json")

    return Outputs(results, per_run_usd, increase, clean.completion, rendered)
