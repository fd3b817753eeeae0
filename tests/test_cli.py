import json
import re
import subprocess
import sys

import pytest
from click.testing import CliRunner

from nsim.bench import EchoServer
from nsim.cli import cli, dump_params_file, load_params_file
from nsim.goal import parse_goal, schedule_from_json
from nsim.model import DetourTrace, LogGPParams
from nsim.noise import format_detour_trace


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def params_file(tmp_path):
    path = tmp_path / "params.json"
    dump_params_file(LogGPParams(L=5000, o=1000, g=1000, G=0.01), str(path),
                     o_fraction=0.5)
    return str(path)


def _invoke(runner, args, **kwargs):
    result = runner.invoke(cli, args, catch_exceptions=False, **kwargs)
    return result


def _run_cli(*args, input=None):
    """Run the CLI in a fresh interpreter, as a shell user would."""
    return subprocess.run([sys.executable, "-m", "nsim.cli", *args], input=input,
                          capture_output=True, text=True, timeout=120)


def _assert_clean_exit(proc, code):
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_cli_import_leaves_numpy_unloaded():
    # Only the batch engine imports numpy and only run_many with workers
    # starts a process pool, so `nsim --help` pays for neither.
    code = ("import sys, nsim.cli\n"
            "print([m in sys.modules for m in ('numpy', 'concurrent.futures.process')])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False]"


def test_per_op_run_with_os_noise_leaves_numpy_unloaded(params_file, tmp_path):
    # A small run stays on the per-op engine, whose detour tables are lists.
    detour = tmp_path / "detour.csv"
    detour.write_text(format_detour_trace(DetourTrace(((100, 50), (400, 200)), span=1000)),
                      encoding="utf-8")
    out = tmp_path / "res.json"
    code = ("import sys\n"
            "from nsim.cli import cli\n"
            f"cli(['sim', 'run', '--params', {params_file!r}, '--noise-os', {str(detour)!r},"
            f" '--reps', '3', '--out', {str(out)!r}], standalone_mode=False)\n"
            "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          input="num_ranks 2\nrank 0 { a: calc 5000\nb: send 4b to 1\n"
                                "b requires a }\nrank 1 { a: recv 4b from 0 }\n",
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    runs = json.loads(out.read_text())["results"]
    assert len(runs) == 3 and all(r["completion_ns"] > 8000 for r in runs)


class TestGen:
    def test_dissem_goal_text(self, runner):
        r = _invoke(runner, ["gen", "dissem", "-p", "4", "-s", "16"])
        assert r.exit_code == 0
        s = parse_goal(r.output)
        assert s.nranks == 4

    def test_ring_json(self, runner):
        r = _invoke(runner, ["gen", "ring", "-p", "4", "-s", "536870912",
                             "--format", "json"])
        assert r.exit_code == 0
        s = schedule_from_json(r.output)
        assert s.metadata["chunk_bytes"] == 128 * 2**20

    def test_compapp(self, runner):
        r = _invoke(runner, ["gen", "compapp", "-p", "2", "--comp", "1000",
                             "--pattern", "dissemination", "-s", "131072"])
        assert r.exit_code == 0
        assert "calc 1000" in r.output

    def test_invalid_nranks_exits_3(self, runner):
        r = runner.invoke(cli, ["gen", "dissem", "-p", "1", "-s", "16"])
        assert r.exit_code == 3


class TestSimRun:
    def test_pipe_composition(self, runner, params_file):
        gen = _invoke(runner, ["gen", "dissem", "-p", "4", "-s", "16"])
        r = _invoke(runner, ["sim", "run", "--params", params_file, "--reps", "3",
                             "--seed", "7"], input=gen.output)
        assert r.exit_code == 0
        doc = json.loads(r.output)
        assert doc["schema"] == "nsim.results/1"
        assert len(doc["results"]) == 3
        assert doc["metadata"]["prng"] == "splitmix64"
        assert doc["metadata"]["params_file"]["o_fraction"] == 0.5
        # noiseless baseline: all runs identical
        assert len({r["completion_ns"] for r in doc["results"]}) == 1

    def test_noise_files_and_digests(self, runner, params_file, tmp_path):
        lat = tmp_path / "lat.json"
        lat.write_text(json.dumps(
            {"schema": "nsim.dist/1", "unit": "ns",
             "samples": [7000.0] * 9 + [70000.0]}))
        gen = _invoke(runner, ["gen", "dissem", "-p", "4", "-s", "16"])
        r = _invoke(runner, ["sim", "run", "--params", params_file,
                             "--noise-lat", str(lat), "--reps", "5", "--seed", "3",
                             "--per-rank"], input=gen.output)
        doc = json.loads(r.output)
        assert doc["metadata"]["noise"]["latency"]["sha256"]
        assert len(doc["results"][0]["per_rank_completion_ns"]) == 4

    def test_deadlock_exit_5(self, runner, params_file):
        goal_text = (
            "num_ranks 2\n"
            "rank 0 { a: recv 4b from 1\n b: send 4b to 1 }\n"
            "rank 1 { a: recv 4b from 0\n b: send 4b to 0 }\n"
        )
        r = runner.invoke(cli, ["sim", "run", "--params", params_file],
                          input=goal_text)
        assert r.exit_code == 5

    def test_deadlock_exit_5_with_workers(self, params_file, tmp_path):
        # the deadlock is found before any run, so no worker has to report it
        goal = tmp_path / "dl.goal"
        goal.write_text(
            "num_ranks 2\n"
            "rank 0 { a: recv 4b from 1\n b: send 4b to 1 }\n"
            "rank 1 { a: recv 4b from 0\n b: send 4b to 0 }\n"
        )
        proc = _run_cli("sim", "run", "--goal", str(goal), "--params", params_file,
                        "--reps", "4", "--workers", "2")
        _assert_clean_exit(proc, 5)
        assert "deadlock: 4 op(s) blocked" in proc.stderr

    def test_validation_exit_3(self, runner, params_file):
        r = runner.invoke(cli, ["sim", "run", "--params", params_file],
                          input="num_ranks 2\nrank 0 { a: send 4b to 1 }\n")
        assert r.exit_code == 3

    def test_missing_file_exit_4(self, runner, params_file):
        r = runner.invoke(cli, ["sim", "run", "--goal", "/nonexistent/x.goal",
                                "--params", params_file])
        assert r.exit_code == 4

    def test_error_json_flag(self, runner, params_file):
        r = runner.invoke(cli, ["--error-json", "sim", "run", "--params", params_file],
                          input="num_ranks 2\nrank 0 { a: send 4b to 1 }\n")
        assert r.exit_code == 3
        err = json.loads(r.stderr)
        assert err["error"] == "ScheduleValidationError"
        assert err["exit_code"] == 3

    def test_deterministic_output(self, runner, params_file, tmp_path):
        gen = _invoke(runner, ["gen", "dissem", "-p", "4", "-s", "16"])
        lat = tmp_path / "lat.json"
        lat.write_text(json.dumps(
            {"schema": "nsim.dist/1", "unit": "ns",
             "samples": [7000.0] * 4 + [9000.0]}))
        args = ["sim", "run", "--params", params_file, "--noise-lat", str(lat),
                "--reps", "20", "--seed", "42"]
        out1 = _invoke(runner, args, input=gen.output).output
        out2 = _invoke(runner, args, input=gen.output).output
        strip = lambda s: re.sub(r'"created": "[^"]*"', '"created": "X"', s)
        assert strip(out1) == strip(out2)


class TestTrace:
    def test_dist_normalize_top(self, runner, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text("timestamp_ns,value,unit\n0,100,ns\n5,400,ns\n9,200,ns\n")
        r = _invoke(runner, ["trace", "dist", "--in", str(trace), "--unit", "ns"])
        doc = json.loads(r.output)
        assert doc["samples"] == [100.0, 200.0, 400.0]

        r = _invoke(runner, ["trace", "normalize", "--in", str(trace),
                             "--unit", "ns", "--mode", "min"])
        assert "1.0,ratio" in r.output and "4.0,ratio" in r.output

        r = _invoke(runner, ["trace", "top", "--in", str(trace), "--unit", "ns",
                             "--frac", "0.33"])
        lines = [l for l in r.output.splitlines() if not l.startswith("timestamp")]
        assert lines == ["5,400.0,ns"]  # ceil(0.33 * 3) = 1 row

    def test_trace_from_stdin(self, runner):
        r = _invoke(runner, ["trace", "dist", "--in", "-", "--unit", "ns"],
                    input="timestamp_ns,value,unit\n0,300,ns\n4,100,ns\n")
        assert json.loads(r.output)["samples"] == [100.0, 300.0]

    def test_malformed_trace_exit_4(self, runner, tmp_path):
        trace = tmp_path / "bad.csv"
        trace.write_text("0,notanumber\n")
        r = runner.invoke(cli, ["trace", "dist", "--in", str(trace), "--unit", "ns"])
        assert r.exit_code == 4


class TestCostAndReport:
    def _results(self, runner, params_file, reps, noise=None, tmp_path=None):
        gen = _invoke(runner, ["gen", "dissem", "-p", "4", "-s", "16"])
        args = ["sim", "run", "--params", params_file, "--reps", str(reps),
                "--seed", "1"]
        if noise:
            args += ["--noise-lat", noise]
        return _invoke(runner, args, input=gen.output).output

    def test_cost_pipeline(self, runner, params_file, tmp_path):
        noisy_doc = self._results(runner, params_file, 4)
        results = tmp_path / "res.json"
        results.write_text(noisy_doc)
        baseline = tmp_path / "base.json"
        baseline.write_text(self._results(runner, params_file, 1))
        r = _invoke(runner, ["cost", "--results", str(results),
                             "--provider", "aws", "--label", "on_demand",
                             "--instance", "c5n.18xlarge",
                             "--baseline", str(baseline)])
        doc = json.loads(r.output)
        assert doc["usd_per_node_hour"] == 3.88
        assert doc["nodes"] == 4
        assert len(doc["per_run_usd"]) == 4
        # noiseless in == noiseless baseline: zero increase
        assert doc["mean_relative_increase"] == 0.0

    def test_zero_baseline_exit_3(self, params_file, tmp_path):
        results = tmp_path / "res.json"
        results.write_text(json.dumps({"schema": "nsim.results/1", "metadata": {"nranks": 2},
                                       "results": [{"run": 0, "completion_ns": 10}]}))
        baseline = tmp_path / "base.json"
        baseline.write_text(results.read_text().replace('"completion_ns": 10',
                                                        '"completion_ns": 0'))
        proc = _run_cli("cost", "--results", str(results), "--provider", "aws",
                        "--label", "on_demand", "--instance", "c5n.18xlarge",
                        "--baseline", str(baseline))
        _assert_clean_exit(proc, 3)
        assert proc.stderr == "error: baseline completion must be > 0, got 0\n"

    def test_report_box_and_svg(self, runner, params_file, tmp_path):
        res = tmp_path / "res.json"
        res.write_text(self._results(runner, params_file, 6))
        r = _invoke(runner, ["report", "box", str(res), "--format", "csv"])
        assert r.output.startswith("group,")
        svg_path = tmp_path / "plot.svg"
        r = _invoke(runner, ["report", "svg", str(res), str(res),
                             "--label", "a", "--label", "b",
                             "--log2", "-o", str(svg_path)])
        assert r.exit_code == 0
        content = svg_path.read_text()
        assert content.count('class="box"') == 2

    def test_cost_without_runs_exit_3(self, tmp_path):
        res = tmp_path / "res.json"
        res.write_text(json.dumps({"schema": "nsim.results/1",
                                   "metadata": {"nranks": 4}, "results": []}))
        proc = _run_cli("cost", "--results", str(res), "--provider", "aws",
                        "--label", "on_demand", "--instance", "c5n.18xlarge")
        _assert_clean_exit(proc, 3)

    def test_report_without_completion_exit_3(self, tmp_path):
        res = tmp_path / "res.json"
        res.write_text(json.dumps({"schema": "nsim.results/1",
                                   "metadata": {"nranks": 4}, "results": [{"run": 0}]}))
        _assert_clean_exit(_run_cli("report", "box", str(res)), 3)

    def test_label_count_mismatch(self, runner, params_file, tmp_path):
        res = tmp_path / "res.json"
        res.write_text(self._results(runner, params_file, 2))
        r = runner.invoke(cli, ["report", "box", str(res),
                                "--label", "a", "--label", "b"])
        assert r.exit_code == 3


class TestConfigPrecedence:
    def test_env_beats_config_flag_beats_env(self, runner, params_file, tmp_path):
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"gen": {"dissem": {"size": 8}}}))
        # config default applies
        r = _invoke(runner, ["--config", str(cfg), "gen", "dissem", "-p", "2"])
        assert "send 8b" in r.output
        # env var beats config
        r = _invoke(runner, ["--config", str(cfg), "gen", "dissem", "-p", "2"],
                    env={"NSIM_GEN_DISSEM_SIZE": "32"})
        assert "send 32b" in r.output
        # flag beats both
        r = _invoke(runner, ["--config", str(cfg), "gen", "dissem", "-p", "2",
                             "-s", "64"], env={"NSIM_GEN_DISSEM_SIZE": "32"})
        assert "send 64b" in r.output

    @pytest.mark.parametrize("doc", ["[1]", '{"gen": 5}', '{"gen": {"dissem": [8]}}'])
    def test_config_not_an_object_exit_4(self, tmp_path, doc):
        cfg = tmp_path / "conf.json"
        cfg.write_text(doc)
        proc = _run_cli("--config", str(cfg), "gen", "dissem", "-p", "2", "-s", "1")
        _assert_clean_exit(proc, 4)
        assert "JSON object" in proc.stderr


class TestParamsFile:
    def test_roundtrip(self, tmp_path):
        p = LogGPParams(L=10, o=2, g=3, G=0.5)
        path = tmp_path / "p.json"
        dump_params_file(p, str(path), source="unit-test")
        back, doc = load_params_file(str(path))
        assert back == p
        assert doc["source"] == "unit-test"

    def test_fractional_latency_exit_3(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"L_ns": 5000.9, "o_ns": 1000, "g_ns": 1000, "G_ns_per_byte": 0.01}')
        proc = _run_cli("sim", "run", "--params", str(path),
                        input="num_ranks 1\nrank 0 { a: calc 1 }\n")
        _assert_clean_exit(proc, 3)

    @pytest.mark.parametrize("doc", ["5", '"L_ns"', "[1, 2]"])
    def test_params_not_an_object_exit_3(self, tmp_path, doc):
        path = tmp_path / "p.json"
        path.write_text(doc)
        proc = _run_cli("sim", "run", "--params", str(path),
                        input="num_ranks 1\nrank 0 { a: calc 1 }\n")
        _assert_clean_exit(proc, 3)
        assert "JSON object" in proc.stderr

    def test_nan_distribution_exit_3(self, params_file, tmp_path):
        lat = tmp_path / "lat.json"
        lat.write_text('{"schema": "nsim.dist/1", "unit": "ns", "samples": [7000.0, NaN]}')
        proc = _run_cli("sim", "run", "--params", params_file, "--noise-lat", str(lat),
                        input="num_ranks 2\nrank 0 { a: send 4b to 1 }\n"
                              "rank 1 { a: recv 4b from 0 }\n")
        _assert_clean_exit(proc, 3)
        assert "finite" in proc.stderr  # rejected on load, not mid-run

    def test_short_keys_accepted(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"L": 1, "o": 2, "g": 3, "G": 4.0}')
        back, _ = load_params_file(str(path))
        assert back == LogGPParams(L=1, o=2, g=3, G=4.0)


_TWO_RANK_MESSAGE = "num_ranks 2\nrank 0 { a: send 4b to 1 }\nrank 1 { a: recv 4b from 0 }\n"


class TestMalformedInputExit:
    """Malformed input documents are refused at load with one line, no traceback."""

    @pytest.mark.parametrize("doc", [
        {"schema": "nsim.schedule/1", "num_ranks": 1, "ranks": [[{"id": 0}]]},
        {"schema": "nsim.schedule/1", "num_ranks": 1, "ranks": ["abc"]},
    ], ids=["op_without_kind", "rank_is_string"])
    def test_schedule_json_exit_3(self, params_file, doc):
        proc = _run_cli("sim", "run", "--params", params_file, input=json.dumps(doc))
        _assert_clean_exit(proc, 3)

    @pytest.mark.parametrize("doc", [
        {"schema": "nsim.dist/1", "unit": "ns", "samples": [None]},
        {"schema": "nsim.dist/1", "unit": "ns"},
        [7000.0],
    ], ids=["null_sample", "missing_samples", "top_level_list"])
    def test_distribution_json_exit_3(self, params_file, tmp_path, doc):
        lat = tmp_path / "lat.json"
        lat.write_text(json.dumps(doc))
        proc = _run_cli("sim", "run", "--params", params_file, "--noise-lat", str(lat),
                        input=_TWO_RANK_MESSAGE)
        _assert_clean_exit(proc, 3)

    def test_detour_span_not_a_number_exit_4(self, params_file, tmp_path):
        trace = tmp_path / "detour.csv"
        trace.write_text("# span_ns=abc\ntimestamp_ns,value,unit\n0,10,ns\n")
        proc = _run_cli("sim", "run", "--params", params_file, "--noise-os", str(trace),
                        input=_TWO_RANK_MESSAGE)
        _assert_clean_exit(proc, 4)
        assert "line 1" in proc.stderr and "span_ns" in proc.stderr and "'abc'" in proc.stderr

    def test_detour_without_idle_time_exit_3(self, params_file, tmp_path):
        trace = tmp_path / "detour.csv"
        trace.write_text("# span_ns=10\ntimestamp_ns,value,unit\n0,10,ns\n")
        # a zero-length calc never consults the trace: only a load-time check refuses it
        proc = _run_cli("sim", "run", "--params", params_file, "--noise-os", str(trace),
                        input="num_ranks 1\nrank 0 { a: calc 0 }\n")
        _assert_clean_exit(proc, 3)
        assert "idle" in proc.stderr


class TestBench:
    def test_detour_iteration_limit_exit_3(self):
        proc = _run_cli("bench", "detour", "--max-iterations", "5", "--records", "100",
                        "--probe", "100")
        _assert_clean_exit(proc, 3)

    def test_pingpong_needs_listen_or_peer(self, runner):
        r = runner.invoke(cli, ["bench", "pingpong"])
        assert r.exit_code == 3

    def test_pingpong_trace_csv(self, runner):
        with EchoServer() as server:
            r = _invoke(runner, ["bench", "pingpong", "--peer", f"127.0.0.1:{server.port}",
                                 "--size", "8", "--iterations", "3", "--warmup", "0"])
        lines = r.output.splitlines()
        assert lines[0] == "timestamp_ns,value,unit"
        assert len(lines) == 4
        assert all(re.fullmatch(r"\d+,\d+\.\d+,ns", line) for line in lines[1:])


@pytest.mark.parametrize("fmt", ["json", "goal"])
def test_sim_run_validates_and_compiles_once(runner, params_file, monkeypatch, fmt):
    from nsim import goal, simengine

    verdicts, compiles = [], []
    real_violations = goal._violations
    monkeypatch.setattr(goal, "_violations",
                        lambda s: verdicts.append(s) or real_violations(s))

    class Counted(simengine._Compiled):
        __slots__ = ()

        def __init__(self, schedule):
            compiles.append(schedule)
            super().__init__(schedule)

    monkeypatch.setattr(simengine, "_Compiled", Counted)
    gen = _invoke(runner, ["gen", "compapp", "-p", "4", "--comp", "100", "--pattern", "ring",
                           "-s", "64", "--iterations", "2", "--format", fmt])
    assert gen.exit_code == 0
    r = _invoke(runner, ["sim", "run", "--params", params_file, "--reps", "3"],
                input=gen.output)
    assert r.exit_code == 0
    assert len(json.loads(r.output)["results"]) == 3
    assert len(verdicts) == 1 and len(compiles) == 1
