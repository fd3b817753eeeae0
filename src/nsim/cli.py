"""Command line entry point: measure, ingest, generate, simulate, cost, report.

Subcommands compose over pipes where formats allow (GOAL text and JSON travel
on stdin/stdout with ``-``). Option values resolve as flags > NSIM_* env vars
> --config file > built-in defaults. Exit codes: 0 ok, 2 usage, 3 validation,
4 I/O, 5 simulation deadlock, decided for every command by the root group
``_Root``; ``--error-json`` switches error reporting to a machine-readable JSON
object on stderr. A fault found while a command reads a file names the file
(``_reading``); the library's messages do not.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

import click

from .errors import (ClockResolutionError, DeadlockError, DetourLimitError,
                     GoalSyntaxError, ScheduleValidationError, TraceFormatError, decode_json)
from .units import COMPAPP_PATTERNS, PRICE_LABELS, UNIT_GBPS, UNIT_NS

if TYPE_CHECKING:
    from .bench import BenchPlan
    from .goal import Schedule
    from .model import LogGPParams

EXIT_VALIDATION = 3
EXIT_IO = 4
EXIT_DEADLOCK = 5


def _fail(root: click.Context, code: int, exc: BaseException) -> None:
    """Report ``exc`` on stderr, as JSON under the root's --error-json, and exit ``code``."""
    if root.params.get("error_json"):
        click.echo(json.dumps({"error": type(exc).__name__, "message": str(exc),
                               "exit_code": code}, allow_nan=False), err=True)
    else:
        click.echo(f"error: {exc}", err=True)
    sys.exit(code)


class _Root(click.Group):
    """The root group: every command runs inside its ``invoke``, so this is the
    one place where an error becomes its exit code."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except DeadlockError as exc:
            _fail(ctx, EXIT_DEADLOCK, exc)
        except (TraceFormatError, OSError, json.JSONDecodeError) as exc:
            _fail(ctx, EXIT_IO, exc)
        except (GoalSyntaxError, ScheduleValidationError, ValueError,
                ClockResolutionError, DetourLimitError) as exc:
            _fail(ctx, EXIT_VALIDATION, exc)


@contextmanager
def _reading(path: str | Path | None):
    """Put ``path: `` before the message of a ValueError raised while a command
    reads ``path``; the error keeps its type and attributes. Stdin stays unnamed."""
    try:
        yield
    except ValueError as exc:
        if path == "-":
            raise
        if isinstance(exc, UnicodeError):  # its message comes from its fields, not args
            raise ValueError(f"{path}: {exc}") from None
        exc.args = (f"{path}: {exc}",)
        raise


def _read_bytes(path: str) -> bytes:
    """The bytes of the file at ``path``, or of stdin for ``-``."""
    return sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()


def _decode(data: bytes) -> str:
    """``data`` as text mode reads a file, whatever the locale: UTF-8 after an
    optional byte-order mark, with each line end read as ``\\n``."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig").read()


def _read_text(path: str) -> str:
    return _decode(_read_bytes(path))


def _write_text(path: str, content: str) -> None:
    if path == "-":
        try:
            sys.stdout.write(content)
            sys.stdout.flush()
        except BrokenPipeError:  # the reader has gone: say nothing; main() exits 4
            sys.exit(EXIT_IO)
    else:
        Path(path).write_text(content, encoding="utf-8")


def _load_schedule(path: str) -> Schedule:
    from . import goal as goal_mod

    with _reading(path):
        text = _read_text(path)
        if text.lstrip().startswith("{"):
            return goal_mod.schedule_from_json(text)
        return goal_mod.parse_goal(text)


def load_params_file(path: str) -> tuple[LogGPParams, dict]:
    """Read a params JSON file; returns (params, full document)."""
    from .runfiles import params_from_json

    with _reading(path):
        return params_from_json(_read_text(path))


def _load_results(path: str, with_nranks: bool = False) -> tuple[list[int], int | None]:
    """Completion times of a `sim run` results file, plus metadata.nranks if asked."""
    from .runfiles import results_from_json

    with _reading(path):
        return results_from_json(_read_text(path), with_nranks)


def _parse_endpoint(value: str, default_host: str = "127.0.0.1") -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    try:
        number = int(port)
    except ValueError:
        raise ValueError(f"port must be an integer 0-65535, got {port!r} in {value!r}") from None
    if not 0 <= number <= 65535:  # getaddrinfo would take 70000 as 70000 mod 65536
        raise ValueError(f"port must be 0-65535, got {number} in {value!r}")
    return (host or default_host, number)


def _check_defaults(command: click.Command, defaults, where: str,
                    path: str = "nsim") -> None:
    """Refuse option defaults for ``command`` that are not a JSON object or hold a
    key naming neither a subcommand nor a parameter of it, at any depth."""
    if not isinstance(defaults, dict):
        raise ValueError(f"{where} must hold a JSON object")
    commands = getattr(command, "commands", {})
    names = {param.name for param in command.params}
    for key, value in defaults.items():
        if key in commands:
            _check_defaults(commands[key], value, f"{where}: {key!r}", f"{path} {key}")
        elif key not in names:
            known = ", ".join(sorted(names | set(commands)))
            raise ValueError(f"{where}: {key!r} names no subcommand or parameter of "
                             f"'{path}' (known: {known})")


@click.group(cls=_Root, context_settings={"auto_envvar_prefix": "NSIM",
                                          "help_option_names": ["-h", "--help"]})
@click.option("--config", type=click.Path(exists=True, dir_okay=False),
              help="JSON file of per-command option defaults.")
@click.option("--error-json", is_flag=True, help="Report errors as JSON on stderr.")
@click.pass_context
def cli(ctx: click.Context, config: str | None, error_json: bool) -> None:
    """Network/OS noise benchmarking and LogGP schedule simulation."""
    if config:
        try:
            with _reading(config):
                default_map = decode_json(_read_text(config))
                _check_defaults(ctx.command, default_map, "config file")
        except (OSError, ValueError) as exc:  # exit 4, where the root would give 3
            _fail(ctx, EXIT_IO, exc)
        ctx.default_map = default_map


# ---------------------------------------------------------------------------
# gen

@cli.group()
def gen() -> None:
    """Generate communication schedules."""


def _emit_schedule(schedule: Schedule, fmt: str, out: str) -> None:
    from . import goal as goal_mod

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
def gen_dissem(nranks: int, size: int, fmt: str, out: str) -> None:
    """Butterfly dissemination (barrier/small-allreduce shape)."""
    from . import goal as goal_mod

    _emit_schedule(goal_mod.gen_dissemination(nranks, size), fmt, out)


@gen.command("ring")
@click.option("-p", "--nranks", type=int, required=True)
@click.option("-s", "--size", type=int, required=True, help="Total payload in bytes.")
@click.option("--reduce-cost", type=int, default=0, show_default=True,
              help="Reduction cost per chunk in ns.")
@_FMT
@_OUT
def gen_ring(nranks: int, size: int, reduce_cost: int, fmt: str, out: str) -> None:
    """Ring allreduce (reduce-scatter then allgather)."""
    from . import goal as goal_mod

    _emit_schedule(goal_mod.gen_ring_allreduce(nranks, size, reduce_cost), fmt, out)


@gen.command("compapp")
@click.option("-p", "--nranks", type=int, required=True)
@click.option("--comp", type=int, required=True, help="Compute phase duration in ns.")
@click.option("--pattern", type=click.Choice(COMPAPP_PATTERNS), required=True)
@click.option("-s", "--size", type=int, required=True)
@click.option("--iterations", type=int, default=1, show_default=True)
@_FMT
@_OUT
def gen_compapp(nranks: int, comp: int, pattern: str, size: int, iterations: int,
                fmt: str, out: str) -> None:
    """Compute phase followed by a collective, repeated."""
    from . import goal as goal_mod

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
def sim_run(goal_path: str, params_path: str, noise_lat: str | None,
            noise_bw: str | None, noise_os: str | None, seed: int, reps: int,
            workers: int, per_rank: bool, out: str) -> None:
    """Run a schedule under LogGP timing with optional measured noise.

    Params and noise files are read before the schedule, so that in a
    `gen | sim run` pipe they load while `gen` is still writing.
    """
    import hashlib
    from datetime import datetime, timezone

    from . import noise as noise_mod
    from . import runfiles, simengine
    from .model import NoiseModel

    for option, value in (("--reps", reps), ("--workers", workers)):
        if value < 1:  # refused before any file is read
            raise ValueError(f"{option} must be >= 1, got {value}")
    params, params_doc = load_params_file(params_path)
    noise, noise_meta = {}, {}
    for field, path, parse in (("latency", noise_lat, noise_mod.parse_distribution),
                               ("bandwidth", noise_bw, noise_mod.parse_distribution),
                               ("os", noise_os, noise_mod.parse_detour_trace)):
        noise_meta[field] = None
        if path:  # one read: the recorded digest is of the bytes simulated
            with _reading(path):
                data = _read_bytes(path)
                noise[field] = parse(_decode(data))
            noise_meta[field] = {"path": path, "sha256": hashlib.sha256(data).hexdigest()}
    schedule = _load_schedule(goal_path)
    cfg = simengine.SimConfig(params=params, noise=NoiseModel(**noise), seed=seed)
    results = simengine.run_many(schedule, cfg, reps, workers=workers)
    metadata = {
        "params": runfiles.params_by_key(params),
        "params_file": params_doc,
        "noise": noise_meta,
        "seed": seed,
        "reps": reps,
        "prng": simengine.PRNG_NAME,
        "nranks": schedule.nranks,
        "schedule_metadata": dict(schedule.metadata),
        "created": datetime.now(timezone.utc).isoformat(),
    }
    _write_text(out, runfiles.results_to_json(metadata, results, per_rank))


# ---------------------------------------------------------------------------
# trace

@cli.group()
def trace() -> None:
    """Transform measurement traces."""


def _load_trace(path: str, unit: str):
    from . import noise as noise_mod

    with _reading(path):
        return noise_mod.parse_trace(_read_text(path), unit)


_UNIT = click.option("--unit", type=click.Choice([UNIT_NS, UNIT_GBPS]),
                     default=UNIT_NS, show_default=True)


@trace.command("dist")
@click.option("--in", "in_path", required=True, help="Trace CSV, - for stdin.")
@_UNIT
@_OUT
def trace_dist(in_path: str, unit: str, out: str) -> None:
    """Build a sorted empirical distribution from a trace."""
    from . import noise as noise_mod

    t = _load_trace(in_path, unit)
    _write_text(out, noise_mod.format_distribution(noise_mod.build_distribution(t)))


@trace.command("normalize")
@click.option("--in", "in_path", required=True)
@_UNIT
@click.option("--mode", type=click.Choice(["min", "max"]), required=True,
              help="Divide by the trace minimum or maximum.")
@_OUT
def trace_normalize(in_path: str, unit: str, mode: str, out: str) -> None:
    """Normalize a trace to its minimum (latency) or maximum (bandwidth)."""
    from . import noise as noise_mod

    t = _load_trace(in_path, unit)
    result = noise_mod.normalize_min(t) if mode == "min" else noise_mod.normalize_max(t)
    _write_text(out, noise_mod.format_trace(result))


@trace.command("top")
@click.option("--in", "in_path", required=True)
@_UNIT
@click.option("--frac", type=float, required=True, help="Fraction to keep, in (0, 1].")
@click.option("--side", type=click.Choice(["largest", "smallest"]), default="largest",
              show_default=True)
@_OUT
def trace_top(in_path: str, unit: str, frac: float, side: str, out: str) -> None:
    """Keep only the most extreme samples of a trace."""
    from . import noise as noise_mod

    t = _load_trace(in_path, unit)
    _write_text(out, noise_mod.format_trace(noise_mod.top_fraction(t, frac, side)))


# ---------------------------------------------------------------------------
# cost

@cli.command("cost")
@click.option("--results", "results_path", required=True,
              help="Results JSON from `sim run`, - for stdin.")
@click.option("--price-catalog", type=click.Path(exists=True, dir_okay=False),
              help="CSV catalog; defaults to the built-in one.")
@click.option("--provider", required=True)
@click.option("--label", type=click.Choice(PRICE_LABELS), required=True)
@click.option("--instance", help="Instance type when the provider has several.")
@click.option("--baseline", "baseline_path",
              help="Noiseless results JSON for relative increase.")
@_OUT
def cost_cmd(results_path: str, price_catalog: str | None, provider: str, label: str,
             instance: str | None, baseline_path: str | None, out: str) -> None:
    """Convert simulated runtimes into USD (and relative increase vs a baseline)."""
    from . import cost as cost_mod

    completions, nodes = _load_results(results_path, with_nranks=True)
    catalog_path = price_catalog or cost_mod.builtin_catalog_path()
    with _reading(catalog_path):
        catalog = cost_mod.load_price_catalog(catalog_path)
    price = cost_mod.find_price(catalog, provider, label, instance)
    baseline = _load_results(baseline_path)[0][0] if baseline_path else None
    _write_text(out, cost_mod.format_cost(completions, nodes, price, baseline))


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
def report_box(results: tuple[str, ...], labels: tuple[str, ...], fmt: str,
               include_samples: bool, out: str) -> None:
    """Boxplot statistics of one or more result files."""
    from . import report as report_mod

    groups = _result_groups(results, labels)
    _write_text(out, report_mod.render(groups, fmt, include_samples=include_samples))


@report.command("svg")
@click.argument("results", nargs=-1, required=True)
@click.option("--label", "labels", multiple=True)
@click.option("--log2", is_flag=True, help="Log-2 value axis.")
@click.option("--title")
@click.option("-o", "--out", required=True)
def report_svg(results: tuple[str, ...], labels: tuple[str, ...], log2: bool,
               title: str | None, out: str) -> None:
    """Self-contained SVG boxplot of one or more result files."""
    from . import report as report_mod

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


_SESSION = (
    click.option("--listen", help="Responder role: HOST:PORT or PORT to serve on."),
    click.option("--peer", help="Initiator role: HOST:PORT of the responder."),
    click.option("--size", type=int, default=1, show_default=True),
    click.option("--iterations", type=int, default=1000, show_default=True),
    click.option("--warmup", type=int, default=10, show_default=True),
    click.option("--connections", type=int, default=1, show_default=True),
    click.option("--interval", type=int, default=0, show_default=True,
                 help="Inter-message interval in ns."),
    click.option("--cpu", type=int, help="Pin this process to one CPU."),
)


def _session_options(fn):
    """Attach the _SESSION options of a ping-pong command, in the order listed."""
    for option in reversed(_SESSION):
        fn = option(fn)
    return fn


def _session_plan(listen: str | None, peer: str | None, size: int, iterations: int,
                  warmup: int, connections: int, interval: int,
                  cpu: int | None) -> BenchPlan | None:
    """Serve as the responder until killed (--listen, None), else the --peer plan."""
    from . import bench as bench_mod

    _maybe_pin(cpu)
    if listen:
        host, port = _parse_endpoint(listen)
        server = bench_mod.EchoServer(host, port)
        click.echo(f"listening on {server.host}:{server.port}", err=True)
        server.serve_forever()
        return None
    if not peer:
        raise ValueError("either --listen or --peer is required")
    return bench_mod.BenchPlan(
        peer=_parse_endpoint(peer), size=size, iterations=iterations,
        warmup_iterations=warmup, connections=connections,
        inter_message_interval_ns=interval,
    )


@bench_group.command("pingpong")
@_session_options
@_OUT
def bench_pingpong(out: str, **session) -> None:
    """Ping-pong RTT/2 trace (multi-connection splits the payload)."""
    from . import bench as bench_mod
    from . import noise as noise_mod

    plan = _session_plan(**session)
    if plan is not None:
        _write_text(out, noise_mod.format_trace(bench_mod.pingpong(plan)))


@bench_group.command("bidir")
@_session_options
@click.option("--out-forward", default="-", show_default=True)
@click.option("--out-reverse", default="-", show_default=True)
def bench_bidir(out_forward: str, out_reverse: str, **session) -> None:
    """Two simultaneous ping-pongs, one initiated from each endpoint."""
    from . import bench as bench_mod
    from . import noise as noise_mod

    plan = _session_plan(**session)
    if plan is not None:
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
def bench_detour(records: int, threshold: float, probe: int,
                 max_iterations: int | None, cpu: int | None, out: str) -> None:
    """Selfish-detour OS noise recorder."""
    from . import bench as bench_mod
    from . import noise as noise_mod

    _maybe_pin(cpu)
    t_min, detour = bench_mod.selfish_detour(records, threshold, probe,
                                             max_iterations=max_iterations)
    _write_text(out, noise_mod.format_detour_trace(detour, comments=[f"t_min_ns={t_min}"]))


def main() -> None:
    # nsim calls no BLAS routine: spare each process OpenBLAS's thread-per-core start.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        cli(auto_envvar_prefix="NSIM")
    except SystemExit as exc:  # click's standalone mode always ends in one, with an int
        code = exc.code or 0
    # Commands close their files, shut their worker pool down and join their
    # threads or make them daemons: teardown would only free memory, so skip it.
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:  # the reader has gone: exit 4 and say nothing
        code = EXIT_IO
    os._exit(code)


if __name__ == "__main__":
    main()
