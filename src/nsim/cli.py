"""Command line entry point: measure, ingest, generate, simulate, cost, report.

Subcommands compose over pipes where formats allow (GOAL text and JSON travel
on stdin/stdout with ``-``). Option values resolve as flags > NSIM_* env vars
> --config file > built-in defaults. Exit codes: 0 ok, 2 usage, 3 validation,
4 I/O, 5 simulation deadlock; ``--error-json`` switches error reporting to a
machine-readable JSON object on stderr.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import click

from . import bench as bench_mod
from . import cost as cost_mod
from . import goal as goal_mod
from . import noise as noise_mod
from . import report as report_mod
from . import simengine
from .goal import GoalSyntaxError, ScheduleValidationError
from .model import UNIT_GBPS, UNIT_NS, LogGPParams, NoiseModel
from .noise import TraceFormatError
from .simengine import DeadlockError, SimConfig

EXIT_VALIDATION = 3
EXIT_IO = 4
EXIT_DEADLOCK = 5

_PARAMS_SCHEMA = "nsim.params/1"
_RESULTS_SCHEMA = "nsim.results/1"


def _fail(code: int, exc: BaseException) -> None:
    ctx = click.get_current_context(silent=True)
    as_json = False
    if ctx is not None:
        root = ctx.find_root()
        as_json = bool(root.params.get("error_json"))
    if as_json:
        click.echo(json.dumps({"error": type(exc).__name__, "message": str(exc),
                               "exit_code": code}), err=True)
    else:
        click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DeadlockError as exc:
            _fail(EXIT_DEADLOCK, exc)
        except (TraceFormatError, OSError, json.JSONDecodeError) as exc:
            _fail(EXIT_IO, exc)
        except (GoalSyntaxError, ScheduleValidationError, ValueError,
                bench_mod.ClockResolutionError, bench_mod.DetourLimitError) as exc:
            _fail(EXIT_VALIDATION, exc)

    return wrapper


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _write_text(path: str, content: str) -> None:
    if path == "-":
        sys.stdout.write(content)
    else:
        Path(path).write_text(content, encoding="utf-8")


def _load_schedule(path: str) -> goal_mod.Schedule:
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return goal_mod.schedule_from_json(text)
    return goal_mod.parse_goal(text)


def load_params_file(path: str) -> tuple[LogGPParams, dict]:
    """Read a params JSON file; returns (params, full document)."""
    doc = json.loads(_read_text(path))
    if not isinstance(doc, dict):
        raise ValueError(f"params file {path} must hold a JSON object")

    def pick(*names):
        for n in names:
            if n in doc:
                return doc[n]
        raise ValueError(f"params file {path} is missing {'/'.join(names)}")
    params = LogGPParams(
        L=pick("L_ns", "L"),
        o=pick("o_ns", "o"),
        g=pick("g_ns", "g"),
        G=pick("G_ns_per_byte", "G"),
    )
    return params, doc


def dump_params_file(params: LogGPParams, path: str, **extra) -> None:
    doc = {
        "schema": _PARAMS_SCHEMA,
        "L_ns": params.L,
        "o_ns": params.o,
        "g_ns": params.g,
        "G_ns_per_byte": params.G,
        **extra,
    }
    _write_text(path, json.dumps(doc, indent=2) + "\n")


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _parse_endpoint(value: str, default_host: str = "127.0.0.1") -> tuple[str, int]:
    if ":" in value:
        host, port = value.rsplit(":", 1)
        return (host or default_host, int(port))
    return (default_host, int(value))


def _check_defaults(command: click.Command, defaults, where: str) -> None:
    """Refuse option defaults for ``command`` that are not a JSON object, at any depth."""
    if not isinstance(defaults, dict):
        raise ValueError(f"{where} must hold a JSON object")
    for name, sub in getattr(command, "commands", {}).items():
        if name in defaults:
            _check_defaults(sub, defaults[name], f"{where}: {name!r}")


@click.group(context_settings={"auto_envvar_prefix": "NSIM",
                               "help_option_names": ["-h", "--help"]})
@click.option("--config", type=click.Path(exists=True, dir_okay=False),
              help="JSON file of per-command option defaults.")
@click.option("--error-json", is_flag=True, help="Report errors as JSON on stderr.")
@click.pass_context
def cli(ctx: click.Context, config: str | None, error_json: bool) -> None:
    """Network/OS noise benchmarking and LogGP schedule simulation."""
    if config:
        try:
            default_map = json.loads(Path(config).read_text(encoding="utf-8"))
            _check_defaults(ctx.command, default_map, f"config file {config}")
        except (OSError, ValueError) as exc:
            _fail(EXIT_IO, exc)
        ctx.default_map = default_map


# ---------------------------------------------------------------------------
# gen

@cli.group()
def gen() -> None:
    """Generate communication schedules."""


def _emit_schedule(schedule: goal_mod.Schedule, fmt: str, out: str) -> None:
    if fmt == "json":
        _write_text(out, goal_mod.schedule_to_json(schedule))
    else:
        _write_text(out, goal_mod.emit_goal(schedule))


_FMT = click.option("--format", "fmt", type=click.Choice(["goal", "json"]),
                    default="goal", show_default=True)
_OUT = click.option("-o", "--out", default="-", show_default=True)


@gen.command("dissem")
@click.option("-p", "--nranks", type=int, required=True)
@click.option("-s", "--size", type=int, required=True, help="Message size in bytes.")
@_FMT
@_OUT
@_handle_errors
def gen_dissem(nranks: int, size: int, fmt: str, out: str) -> None:
    """Butterfly dissemination (barrier/small-allreduce shape)."""
    _emit_schedule(goal_mod.gen_dissemination(nranks, size), fmt, out)


@gen.command("ring")
@click.option("-p", "--nranks", type=int, required=True)
@click.option("-s", "--size", type=int, required=True, help="Total payload in bytes.")
@click.option("--reduce-cost", type=int, default=0, show_default=True,
              help="Reduction cost per chunk in ns.")
@_FMT
@_OUT
@_handle_errors
def gen_ring(nranks: int, size: int, reduce_cost: int, fmt: str, out: str) -> None:
    """Ring allreduce (reduce-scatter then allgather)."""
    _emit_schedule(goal_mod.gen_ring_allreduce(nranks, size, reduce_cost), fmt, out)


@gen.command("compapp")
@click.option("-p", "--nranks", type=int, required=True)
@click.option("--comp", type=int, required=True, help="Compute phase duration in ns.")
@click.option("--pattern", type=click.Choice(["dissemination", "ring"]), required=True)
@click.option("-s", "--size", type=int, required=True)
@click.option("--iterations", type=int, default=1, show_default=True)
@_FMT
@_OUT
@_handle_errors
def gen_compapp(nranks: int, comp: int, pattern: str, size: int, iterations: int,
                fmt: str, out: str) -> None:
    """Compute phase followed by a collective, repeated."""
    schedule = goal_mod.gen_compute_collective(nranks, comp, pattern, size, iterations)
    _emit_schedule(schedule, fmt, out)


# ---------------------------------------------------------------------------
# sim

@cli.group()
def sim() -> None:
    """Simulate schedules."""


@sim.command("run")
@click.option("--goal", "goal_path", default="-", show_default=True,
              help="Schedule file (GOAL text or schedule JSON), - for stdin.")
@click.option("--params", "params_path", required=True, help="LogGP params JSON.")
@click.option("--noise-lat", type=click.Path(exists=True, dir_okay=False),
              help="Latency distribution JSON (ns).")
@click.option("--noise-bw", type=click.Path(exists=True, dir_okay=False),
              help="Bandwidth distribution JSON (Gb/s).")
@click.option("--noise-os", type=click.Path(exists=True, dir_okay=False),
              help="OS detour trace CSV.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--reps", type=int, default=1, show_default=True)
@click.option("--workers", type=int, default=1, show_default=True)
@click.option("--per-rank", is_flag=True, help="Include per-rank completions.")
@_OUT
@_handle_errors
def sim_run(goal_path: str, params_path: str, noise_lat: str | None,
            noise_bw: str | None, noise_os: str | None, seed: int, reps: int,
            workers: int, per_rank: bool, out: str) -> None:
    """Run a schedule under LogGP timing with optional measured noise."""
    schedule = _load_schedule(goal_path)
    params, params_doc = load_params_file(params_path)
    noise_model = NoiseModel(
        latency=noise_mod.load_distribution(noise_lat) if noise_lat else None,
        bandwidth=noise_mod.load_distribution(noise_bw) if noise_bw else None,
        os=noise_mod.load_detour_trace(noise_os) if noise_os else None,
    )
    cfg = SimConfig(params=params, noise=noise_model, seed=seed)
    results = simengine.run_many(schedule, cfg, reps, workers=workers)
    noise_meta = {
        "latency": {"path": noise_lat, "sha256": _sha256(noise_lat)} if noise_lat else None,
        "bandwidth": {"path": noise_bw, "sha256": _sha256(noise_bw)} if noise_bw else None,
        "os": {"path": noise_os, "sha256": _sha256(noise_os)} if noise_os else None,
    }
    doc = {
        "schema": _RESULTS_SCHEMA,
        "metadata": {
            "params": {"L_ns": params.L, "o_ns": params.o, "g_ns": params.g,
                       "G_ns_per_byte": params.G},
            "params_file": params_doc,
            "noise": noise_meta,
            "seed": seed,
            "reps": reps,
            "prng": simengine.PRNG_NAME,
            "nranks": schedule.nranks,
            "schedule_metadata": dict(schedule.metadata),
            "created": datetime.now(timezone.utc).isoformat(),
        },
        "results": [simengine.result_to_dict(r, i, per_rank)
                    for i, r in enumerate(results)],
    }
    _write_text(out, json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# trace

@cli.group()
def trace() -> None:
    """Transform measurement traces."""


_UNIT = click.option("--unit", type=click.Choice([UNIT_NS, UNIT_GBPS]),
                     default=UNIT_NS, show_default=True)


@trace.command("dist")
@click.option("--in", "in_path", required=True, help="Trace CSV, - for stdin.")
@_UNIT
@_OUT
@_handle_errors
def trace_dist(in_path: str, unit: str, out: str) -> None:
    """Build a sorted empirical distribution from a trace."""
    t = noise_mod.parse_trace(_read_text(in_path), unit)
    _write_text(out, noise_mod.format_distribution(noise_mod.build_distribution(t)))


@trace.command("normalize")
@click.option("--in", "in_path", required=True)
@_UNIT
@click.option("--mode", type=click.Choice(["min", "max"]), required=True,
              help="Divide by the trace minimum or maximum.")
@_OUT
@_handle_errors
def trace_normalize(in_path: str, unit: str, mode: str, out: str) -> None:
    """Normalize a trace to its minimum (latency) or maximum (bandwidth)."""
    t = noise_mod.parse_trace(_read_text(in_path), unit)
    result = noise_mod.normalize_min(t) if mode == "min" else noise_mod.normalize_max(t)
    _write_text(out, noise_mod.format_trace(result))


@trace.command("top")
@click.option("--in", "in_path", required=True)
@_UNIT
@click.option("--frac", type=float, required=True, help="Fraction to keep, in (0, 1].")
@click.option("--side", type=click.Choice(["largest", "smallest"]), default="largest",
              show_default=True)
@_OUT
@_handle_errors
def trace_top(in_path: str, unit: str, frac: float, side: str, out: str) -> None:
    """Keep only the most extreme samples of a trace."""
    t = noise_mod.parse_trace(_read_text(in_path), unit)
    _write_text(out, noise_mod.format_trace(noise_mod.top_fraction(t, frac, side)))


# ---------------------------------------------------------------------------
# cost

def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _load_results(path: str, with_nranks: bool = False) -> tuple[list[int], int | None]:
    """Completion times of a `sim run` results file, plus metadata.nranks if asked."""
    doc = json.loads(_read_text(path))
    runs = doc.get("results") if isinstance(doc, dict) else None
    if not isinstance(runs, list) or not runs:
        raise ValueError(f"{path}: 'results' must be a non-empty list of runs")
    completions = [run.get("completion_ns") if isinstance(run, dict) else None
                   for run in runs]
    if not all(map(_is_int, completions)):
        raise ValueError(f"{path}: every run needs an integer 'completion_ns'")
    if not with_nranks:
        return completions, None
    metadata = doc.get("metadata")
    nranks = metadata.get("nranks") if isinstance(metadata, dict) else None
    if not _is_int(nranks):
        raise ValueError(f"{path}: 'metadata.nranks' must be an integer")
    return completions, nranks


@cli.command("cost")
@click.option("--results", "results_path", required=True,
              help="Results JSON from `sim run`, - for stdin.")
@click.option("--price-catalog", type=click.Path(exists=True, dir_okay=False),
              help="CSV catalog; defaults to the built-in one.")
@click.option("--provider", required=True)
@click.option("--label", type=click.Choice(["committed", "on_demand"]), required=True)
@click.option("--instance", help="Instance type when the provider has several.")
@click.option("--baseline", "baseline_path",
              help="Noiseless results JSON for relative increase.")
@_OUT
@_handle_errors
def cost_cmd(results_path: str, price_catalog: str | None, provider: str, label: str,
             instance: str | None, baseline_path: str | None, out: str) -> None:
    """Convert simulated runtimes into USD (and relative increase vs a baseline)."""
    completions, nodes = _load_results(results_path, with_nranks=True)
    catalog_path = price_catalog or cost_mod.builtin_catalog_path()
    price = cost_mod.find_price(cost_mod.load_price_catalog(catalog_path),
                                provider, label, instance)
    costs = [cost_mod.run_cost(c, nodes, price) for c in completions]
    output: dict[str, object] = {
        "schema": "nsim.cost/1",
        "provider": provider,
        "label": label,
        "usd_per_node_hour": price.per_node_hour,
        "nodes": nodes,
        "per_run_usd": costs,
        "mean_usd": sum(costs) / len(costs),
    }
    if baseline_path:
        base = _load_results(baseline_path)[0][0]
        increases = cost_mod.completion_increase(completions, base)
        output["baseline_completion_ns"] = base
        output["relative_increase"] = increases
        output["mean_relative_increase"] = sum(increases) / len(increases)
    _write_text(out, json.dumps(output, indent=2) + "\n")


# ---------------------------------------------------------------------------
# report

@cli.group()
def report() -> None:
    """Summarize result files."""


def _result_groups(paths: tuple[str, ...], labels: tuple[str, ...]):
    if labels and len(labels) != len(paths):
        raise ValueError("--label count must match the number of result files")
    groups = []
    for i, p in enumerate(paths):
        label = labels[i] if labels else (Path(p).stem if p != "-" else f"group{i}")
        groups.append((label, _load_results(p)[0]))
    return groups


@report.command("box")
@click.argument("results", nargs=-1, required=True)
@click.option("--label", "labels", multiple=True, help="One per results file.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="json",
              show_default=True)
@click.option("--include-samples", is_flag=True)
@_OUT
@_handle_errors
def report_box(results: tuple[str, ...], labels: tuple[str, ...], fmt: str,
               include_samples: bool, out: str) -> None:
    """Boxplot statistics of one or more result files."""
    groups = _result_groups(results, labels)
    _write_text(out, report_mod.render(groups, fmt, include_samples=include_samples))


@report.command("svg")
@click.argument("results", nargs=-1, required=True)
@click.option("--label", "labels", multiple=True)
@click.option("--log2", is_flag=True, help="Log-2 value axis.")
@click.option("--title")
@click.option("-o", "--out", required=True)
@_handle_errors
def report_svg(results: tuple[str, ...], labels: tuple[str, ...], log2: bool,
               title: str | None, out: str) -> None:
    """Self-contained SVG boxplot of one or more result files."""
    groups = _result_groups(results, labels)
    _write_text(out, report_mod.render(groups, "svg", log2_scale=log2, title=title))


# ---------------------------------------------------------------------------
# bench

@cli.group("bench")
def bench_group() -> None:
    """Real-host microbenchmarks."""


def _maybe_pin(cpu: int | None) -> None:
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


def _serve_or_peer(listen: str | None, peer: str | None) -> tuple[str, int] | None:
    """Serve as the responder until killed (--listen), else the --peer endpoint."""
    if listen:
        host, port = _parse_endpoint(listen)
        server = bench_mod.EchoServer(host, port)
        click.echo(f"listening on {server.host}:{server.port}", err=True)
        server.serve_forever()
        return None
    if not peer:
        raise ValueError("either --listen or --peer is required")
    return _parse_endpoint(peer)


@bench_group.command("pingpong")
@click.option("--listen", help="Responder role: HOST:PORT or PORT to serve on.")
@click.option("--peer", help="Initiator role: HOST:PORT of the responder.")
@click.option("--size", type=int, default=1, show_default=True)
@click.option("--iterations", type=int, default=1000, show_default=True)
@click.option("--warmup", type=int, default=10, show_default=True)
@click.option("--connections", type=int, default=1, show_default=True)
@click.option("--interval", type=int, default=0, show_default=True,
              help="Inter-message interval in ns.")
@click.option("--cpu", type=int, help="Pin this process to one CPU.")
@_OUT
@_handle_errors
def bench_pingpong(listen: str | None, peer: str | None, size: int, iterations: int,
                   warmup: int, connections: int, interval: int, cpu: int | None,
                   out: str) -> None:
    """Ping-pong RTT/2 trace (multi-connection splits the payload)."""
    _maybe_pin(cpu)
    endpoint = _serve_or_peer(listen, peer)
    if endpoint is None:
        return
    plan = bench_mod.BenchPlan(
        mode="pingpong", size=size, iterations=iterations, warmup_iterations=warmup,
        connections=connections, inter_message_interval_ns=interval, peer=endpoint,
    )
    _write_text(out, noise_mod.format_trace(bench_mod.pingpong(plan)))


@bench_group.command("bidir")
@click.option("--listen", help="Responder role: HOST:PORT or PORT to serve on.")
@click.option("--peer", help="Initiator role: HOST:PORT of the responder.")
@click.option("--size", type=int, default=1, show_default=True)
@click.option("--iterations", type=int, default=1000, show_default=True)
@click.option("--warmup", type=int, default=10, show_default=True)
@click.option("--connections", type=int, default=1, show_default=True)
@click.option("--interval", type=int, default=0, show_default=True)
@click.option("--cpu", type=int)
@click.option("--out-forward", default="-", show_default=True)
@click.option("--out-reverse", default="-", show_default=True)
@_handle_errors
def bench_bidir(listen: str | None, peer: str | None, size: int, iterations: int,
                warmup: int, connections: int, interval: int, cpu: int | None,
                out_forward: str, out_reverse: str) -> None:
    """Two simultaneous ping-pongs, one initiated from each endpoint."""
    _maybe_pin(cpu)
    endpoint = _serve_or_peer(listen, peer)
    if endpoint is None:
        return
    plan = bench_mod.BenchPlan(
        mode="pingpong_bidir", size=size, iterations=iterations,
        warmup_iterations=warmup, connections=connections,
        inter_message_interval_ns=interval, peer=endpoint,
    )
    forward, reverse = bench_mod.pingpong_bidirectional(plan)
    _write_text(out_forward, noise_mod.format_trace(forward))
    _write_text(out_reverse, noise_mod.format_trace(reverse))


@bench_group.command("detour")
@click.option("--records", type=int, default=10_000, show_default=True,
              help="Detour events to collect before stopping.")
@click.option("--threshold", type=float, default=9.0, show_default=True,
              help="Record iterations longer than threshold * t_min.")
@click.option("--probe", type=int, default=10_000, show_default=True,
              help="Probe iterations used to estimate t_min.")
@click.option("--max-iterations", type=int, help="Abort after this many loop iterations.")
@click.option("--cpu", type=int)
@_OUT
@_handle_errors
def bench_detour(records: int, threshold: float, probe: int,
                 max_iterations: int | None, cpu: int | None, out: str) -> None:
    """Selfish-detour OS noise recorder."""
    _maybe_pin(cpu)
    t_min, detour = bench_mod.selfish_detour(records, threshold, probe,
                                             max_iterations=max_iterations)
    _write_text(out, noise_mod.format_detour_trace(detour, comments=[f"t_min_ns={t_min}"]))


def main() -> None:
    cli(auto_envvar_prefix="NSIM")


if __name__ == "__main__":
    main()
