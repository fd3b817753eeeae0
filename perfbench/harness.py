"""Set up, time, check and summarize one benchmark run of one workload.

``--trace 0`` times the CLI pipeline with nothing traced and reports the
end-to-end metrics. ``--trace 1`` runs the CLI pipeline and then the traced
library pipeline in every iteration and reports the per-layer metrics. Either
way the correctness gate runs on every iteration before a number is reported.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

from . import gate, pipeline, synth
from .spans import Tracer, self_times
from .workloads import WORKLOADS, Workload

DEFAULT_SEED = 1
SETUP_REPS = 7

# per-layer time metric -> span name; the metric is the span's self time
LAYER_SPANS = {
    "goal.gen_s": "goal.gen",
    "goal.emit_s": "goal.emit",
    "goal.parse_s": "goal.parse",
    "goal.to_json_s": "goal.to_json",
    "goal.from_json_s": "goal.from_json",
    "simengine.run_many_s": "simengine.run_many",
    "simengine.simulate_clean_s": "simengine.simulate_clean",
    "simengine.results_json_s": "simengine.results_json",
    "noise.load_trace_s": "noise.load_trace",
    "noise.build_distribution_s": "noise.build_distribution",
    "noise.load_distribution_s": "noise.load_distribution",
    "noise.load_detour_s": "noise.load_detour",
    "cost.s": "cost",
    "report.box_stats_s": "report.box_stats",
    "report.render_s": "report.render",
}
# per-layer count metric -> (span name, count key); these must repeat exactly
LAYER_COUNTS = {
    "goal.ops": ("goal.gen", "ops"),
    "goal.text_bytes": ("goal.emit", "text_bytes"),
    "goal.json_bytes": ("goal.to_json", "json_bytes"),
    "simengine.op_runs": ("simengine.run_many", "op_runs"),
    "simengine.draws": ("simengine.run_many", "draws"),
    "noise.samples": ("noise.load_trace", "samples"),
    "noise.detour_events": ("noise.load_detour", "detour_events"),
}


def host_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    numpy = None
    if importlib.util.find_spec("numpy") is not None:
        numpy = importlib.metadata.version("numpy")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "click": importlib.metadata.version("click"),
        "numpy": numpy,
    }


def layer_metrics(spans, cli: pipeline.CliIteration) -> dict:
    """Per-layer metrics of one traced iteration; a layer with no span is left out."""
    own = self_times(spans)
    by_span = {span: name for name, span in LAYER_SPANS.items()}
    m = {}
    stage_total = 0.0
    for s in spans:
        if s.name in by_span:
            name = by_span[s.name]
            m[name] = m.get(name, 0.0) + own[s.id]
        if s.name.startswith("stage."):
            stage_total += s.duration
        for name, (span, key) in LAYER_COUNTS.items():
            if s.name == span and key in s.counts:
                m[name] = m.get(name, 0) + s.counts[key]
    m["goal.parse_us_per_op"] = m["goal.parse_s"] * 1e6 / m["goal.ops"]
    m["goal.from_json_us_per_op"] = m["goal.from_json_s"] * 1e6 / m["goal.ops"]
    m["simengine.us_per_op_run"] = m["simengine.run_many_s"] * 1e6 / m["simengine.op_runs"]
    m["noise.us_per_sample"] = ((m["noise.load_trace_s"] + m["noise.build_distribution_s"]
                                 + m["noise.load_distribution_s"]) * 1e6
                                / m["noise.samples"])
    for stage, seconds in cli.stages.items():
        m[f"cli.{stage}_s"] = seconds
    m["cli.overhead_s"] = cli.wall_s - stage_total
    return m


def e2e_metrics(w: Workload, ops: int, cli: pipeline.CliIteration) -> dict:
    return {
        "wall_s": cli.wall_s,
        "op_runs_per_s": ops * w.reps / cli.stages["sim_pipe"],
        "peak_rss_mb": cli.peak_rss_kb / 1024,
    }


def declared_units(root: Path, trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def run(w: Workload, seed: int, seconds: float, trace: bool, root: Path,
        stored: dict, work: Path) -> tuple[dict, dict]:
    """One benchmark run in ``work``; returns (result line, side record).

    ``work`` ends up holding result.json and, when traced, spans.json.
    """
    units = declared_units(root, trace)
    shutil.rmtree(work, ignore_errors=True)
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    inputs = synth.synthesize(seed, tmp)
    cli = pipeline.Cli(root, tmp)
    setup = [cli.help_seconds() for _ in range(SETUP_REPS)]
    baseline = tmp / "base.json"
    cli.baseline(w, inputs, baseline)

    tracer = Tracer(w.name)
    tracer.iteration = -1  # set-up spans; their layers are added to every iteration
    schedule = w.make_schedule()
    clean = pipeline.simulate_clean(schedule, tracer)
    run_errors = gate.check_oracle(
        schedule, pipeline.params(), clean.completion,
        json.loads(baseline.read_text(encoding="utf-8")), gate.load_oracles(root))
    if trace:
        pipeline.aside(w, inputs, schedule, tracer)
    setup_spans = list(tracer.spans)

    # (c) runs on the stored seed's inputs whatever this run's seed is
    digest_seed = stored["seed"]
    digest_inputs = inputs if seed == digest_seed else synth.synthesize(
        digest_seed, tmp / "digest")
    digest_run = pipeline.library_iteration(w, digest_inputs, digest_seed,
                                            Tracer(w.name), tmp, clean)
    digest = gate.completion_digest(digest_run.results)
    run_errors += gate.check_digests(w.name, digest_inputs.facts, digest, stored)
    reference = None  # library outputs on this run's inputs, for (a) untraced
    if not trace:
        reference = digest_run if seed == digest_seed else pipeline.library_iteration(
            w, inputs, seed, Tracer(w.name), tmp, clean)

    iterations = []
    deadline = time.perf_counter() + seconds
    last = 0.0
    # start an iteration only when it is expected to end by the deadline
    while not iterations or time.perf_counter() + last <= deadline:
        t0 = time.perf_counter()
        tracer.iteration = len(iterations)
        record = {"iteration": len(iterations), "errors": []}
        iterations.append(record)
        try:
            c = cli.iteration(w, inputs, seed, baseline)
        except pipeline.StageFailed as exc:
            record["errors"].append(str(exc))
            continue
        if trace:
            first = len(tracer.spans)
            lib = pipeline.library_iteration(w, inputs, seed, tracer, tmp, clean)
            record["metrics"] = layer_metrics(setup_spans + tracer.spans[first:], c)
        else:
            lib = reference
            record["metrics"] = e2e_metrics(w, schedule.op_count(), c)
        record["errors"] += gate.compare(c.outputs, lib)
        last = time.perf_counter() - t0
        print(f"{w.name} iteration {record['iteration']}: wall {c.wall_s:.3f} s"
              + (f", {len(record['errors'])} gate errors" if record["errors"] else ""),
              file=sys.stderr)

    attempted = len(iterations)
    failed = attempted if run_errors else sum(1 for r in iterations if r["errors"])
    metrics = {}
    if not failed:
        names = iterations[0]["metrics"].keys()
        for name in names:
            value = statistics.median(r["metrics"][name] for r in iterations)
            metrics[name] = {"value": value, "unit": units[name]}
        if not trace:
            metrics["setup_s"] = {"value": statistics.median(setup), "unit": units["setup_s"]}
    line = {"correct": not failed, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    side = {
        "workload": w.name, "why": w.why, "seed": seed, "seconds": seconds,
        "trace": int(trace), "host": host_facts(), "inputs": inputs.facts,
        "digest_seed": digest_seed, "digest_completion_sha256": digest, "setup_samples_s": setup, "errors": run_errors,
        "iterations": iterations, "result": line,
    }
    (work / "result.json").write_text(json.dumps(side, indent=2) + "\n", encoding="utf-8")
    if trace:
        tracer.dump(work / "spans.json")
    shutil.rmtree(tmp)
    return line, side


def main(argv: list[str], root: Path) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    stored = json.loads(gate.DIGESTS_PATH.read_text(encoding="utf-8"))
    work = root / "perfbench" / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    line, side = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), root, stored, work)
    print("host " + json.dumps(side["host"]))
    for err in side["errors"] + [e for r in side["iterations"] for e in r["errors"]]:
        print(f"gate: {err}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1
