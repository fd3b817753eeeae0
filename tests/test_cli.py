import codecs
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from array import array
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from nsim.bench import BenchPlan, EchoServer, pingpong, pingpong_bidirectional
from nsim.cli import cli, load_params_file
from nsim.goal import parse_goal, schedule_from_json, schedule_to_json
from nsim.model import DetourTrace, EmpiricalDistribution, LogGPParams
from nsim.noise import (format_detour_trace, format_distribution, parse_distribution,
                        save_distribution)
from nsim.runfiles import params_to_json


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def params_file(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(params_to_json(LogGPParams(L=5000, o=1000, g=1000, G=0.01),
                                   o_fraction=0.5))
    return str(path)


def _invoke(runner, args, **kwargs):
    result = runner.invoke(cli, args, catch_exceptions=False, **kwargs)
    return result


def _run_cli(*args, input=None):
    """Run the CLI in a fresh interpreter, as a shell user would."""
    return subprocess.run([sys.executable, "-m", "nsim.cli", *args], input=input,
                          capture_output=True, text=True, timeout=120)


_RESULTS_DOC = {"schema": "nsim.results/1", "metadata": {"nranks": 4},
                "results": [{"run": 0, "completion_ns": 9000}]}


def _results_doc(completions):
    return json.dumps({"schema": "nsim.results/1", "metadata": {"nranks": 4},
                       "results": [{"run": i, "completion_ns": c}
                                   for i, c in enumerate(completions)]})


def _write_dist(path, samples, unit="ns"):
    """Write ``samples`` as a distribution file, unchecked, so a test can write faults."""
    save_distribution(EmpiricalDistribution._from_sorted(array("d", samples), unit), path)
    return path


def _dist_doc(samples, unit="ns", **change):
    """The distribution document of ``samples``, unchecked, with ``change`` applied."""
    dist = EmpiricalDistribution._from_sorted(array("d", samples), unit)
    return {**json.loads(format_distribution(dist)), **change}


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


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


@pytest.mark.parametrize("preset", [None, "3"])
def test_main_defaults_openblas_to_one_thread(preset):
    # numpy is not imported before main() runs, so the default reaches OpenBLAS;
    # a value the user set is kept, and `import nsim` alone sets nothing.
    code = ("import os, sys\n"
            "before = dict(os.environ)\n"
            "import nsim, nsim.cli\n"
            "assert dict(os.environ) == before and 'numpy' not in sys.modules\n"
            "def report(code, _exit=os._exit):\n"
            "    print(os.environ.get('OPENBLAS_NUM_THREADS'), flush=True)\n"
            "    _exit(code)\n"
            "os._exit = report\n"
            "sys.argv = ['nsim', '--help']\n"
            "nsim.cli.main()\n")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == (preset or "1")


def test_sim_run_into_closed_pipe_exits_4(params_file, tmp_path):
    # main() flushes stdout itself and leaves without the interpreter's
    # teardown, whose second flush would print "Exception ignored".
    goal = tmp_path / "s.goal"
    goal.write_text(_CALC_SEND_RECV)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "nsim.cli", "sim", "run", "--goal",
                               str(goal), "--params", params_file, "--out", "-"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 4
    assert proc.stderr == ""


_CALC_SEND_RECV = ("num_ranks 2\nrank 0 { a: calc 5000\nb: send 4b to 1\nb requires a }\n"
                   "rank 1 { a: recv 4b from 0 }\n")


def test_per_op_run_with_os_noise_leaves_numpy_unloaded(params_file, tmp_path):
    # A small run stays on the per-op engine, whose detour tables are lists,
    # and neither schedule reader, text or JSON, imports numpy.
    detour = tmp_path / "detour.csv"
    detour.write_text(format_detour_trace(DetourTrace(((100, 50), (400, 200)), span=1000)),
                      encoding="utf-8")
    out = tmp_path / "res.json"
    code = ("import sys\n"
            "from nsim.cli import cli\n"
            f"cli(['sim', 'run', '--params', {params_file!r}, '--noise-os', {str(detour)!r},"
            f" '--reps', '3', '--out', {str(out)!r}], standalone_mode=False)\n"
            "print('numpy' in sys.modules)\n")
    for schedule in (_CALC_SEND_RECV, schedule_to_json(parse_goal(_CALC_SEND_RECV))):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              input=schedule, timeout=120)
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

    def test_compapp_ring_records_the_payload(self, runner):
        r = _invoke(runner, ["gen", "compapp", "-p", "8", "--comp", "100000", "--pattern",
                             "ring", "-s", "65536", "--format", "json"])
        assert r.exit_code == 0
        assert schedule_from_json(r.output).metadata["size_bytes"] == 65536

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
        lat = _write_dist(tmp_path / "lat.json", [7000.0] * 9 + [70000.0])
        gen = _invoke(runner, ["gen", "dissem", "-p", "4", "-s", "16"])
        r = _invoke(runner, ["sim", "run", "--params", params_file,
                             "--noise-lat", str(lat), "--reps", "5", "--seed", "3",
                             "--per-rank"], input=gen.output)
        doc = json.loads(r.output)
        assert doc["metadata"]["noise"]["latency"]["sha256"]
        assert len(doc["results"][0]["per_rank_completion_ns"]) == 4

    def test_noise_files_read_once_with_digests_of_their_bytes(self, runner, params_file,
                                                              tmp_path, monkeypatch):
        # A file replaced between a load and a second read for the digest would
        # be recorded with the digest of bytes never simulated.
        from pathlib import Path

        lat, bw, os_ = tmp_path / "lat.json", tmp_path / "bw.json", tmp_path / "os.csv"
        _write_dist(lat, [7000.0, 9000.0])
        _write_dist(bw, [50.0, 100.0], "gbps")
        os_.write_bytes(b"# span_ns=1000\r\n100,50,ns\r\n400,200,ns\r\n")
        reads = []
        for name in ("read_bytes", "read_text"):
            real = getattr(Path, name)
            monkeypatch.setattr(Path, name, lambda self, *a, _real=real, **k:
                                reads.append(str(self)) or _real(self, *a, **k))
        r = _invoke(runner, ["sim", "run", "--params", params_file, "--noise-lat", str(lat),
                             "--noise-bw", str(bw), "--noise-os", str(os_)],
                    input="num_ranks 2\nrank 0 { a: send 4b to 1 }\n"
                          "rank 1 { a: recv 4b from 0 }\n")
        assert r.exit_code == 0, r.output
        noise = json.loads(r.stdout)["metadata"]["noise"]
        for key, path in (("latency", lat), ("bandwidth", bw), ("os", os_)):
            assert reads.count(str(path)) == 1
            assert noise[key] == {"path": str(path),
                                  "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_3(self, runner, params_file, workers):
        r = runner.invoke(cli, ["sim", "run", "--params", params_file, "--workers", workers],
                          input="num_ranks 2\nrank 0 { a: calc 5 }\nrank 1 { a: calc 5 }\n")
        assert r.exit_code == 3
        assert r.stderr == f"error: --workers must be >= 1, got {workers}\n"

    @pytest.mark.parametrize("option", ["--reps", "--workers"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_reps_or_workers_below_one_refused_before_reading(self, runner, tmp_path,
                                                              option, value):
        # The params file does not exist and the schedule on stdin is garbage:
        # reading either would fail with another line and exit code.
        r = runner.invoke(cli, ["sim", "run", "--params", str(tmp_path / "missing.json"),
                                option, value], input="not a schedule\n")
        assert r.exit_code == 3
        assert r.stderr == f"error: {option} must be >= 1, got {value}\n"

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

    def test_num_ranks_too_large_exit_3(self, params_file):
        # 10**15 rank slots fail to allocate at once; no memory is touched.
        proc = _run_cli("sim", "run", "--params", params_file,
                        input="num_ranks 1000000000000000\n")
        _assert_clean_exit(proc, 3)
        assert proc.stderr == "error: line 1, col 11: num_ranks 1000000000000000 is too large\n"

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
        lat = _write_dist(tmp_path / "lat.json", [7000.0] * 4 + [9000.0])
        args = ["sim", "run", "--params", params_file, "--noise-lat", str(lat),
                "--reps", "20", "--seed", "42"]
        out1 = _invoke(runner, args, input=gen.output).output
        out2 = _invoke(runner, args, input=gen.output).output
        strip = lambda s: re.sub(r'"created": "[^"]*"', '"created": "X"', s)
        assert strip(out1) == strip(out2)

    def test_workers_do_not_change_output(self, params_file, tmp_path):
        # README "Determinism": the results bytes do not depend on --workers.
        goal, lat = tmp_path / "dissem.goal", tmp_path / "lat.json"
        goal.write_text(_run_cli("gen", "dissem", "-p", "8", "-s", "16").stdout)
        _write_dist(lat, [7000.0] * 9 + [70000.0])
        outs = []
        for workers in ("1", "2"):
            proc = _run_cli("sim", "run", "--goal", str(goal), "--params", params_file,
                            "--noise-lat", str(lat), "--reps", "50", "--seed", "11",
                            "--workers", workers)
            assert proc.returncode == 0, proc.stderr
            outs.append(re.sub(r'"created": "[^"]*"', '"created": null', proc.stdout))
        assert outs[0] == outs[1]
        assert len({run["completion_ns"] for run in json.loads(outs[0])["results"]}) > 1


class TestTrace:
    def test_dist_normalize_top(self, runner, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text("timestamp_ns,value,unit\n0,100,ns\n5,400,ns\n9,200,ns\n")
        r = _invoke(runner, ["trace", "dist", "--in", str(trace), "--unit", "ns"])
        assert parse_distribution(r.output) == EmpiricalDistribution((100.0, 200.0, 400.0), "ns")

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
        assert parse_distribution(r.output) == EmpiricalDistribution((100.0, 300.0), "ns")

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

    @pytest.mark.parametrize("completions, log2", [
        ([1, int(1.79e308)], False),
        ([1, 10**308], True),
        ([10**17, 10**17], False),
        ([int(1.7e308)] * 2, False),
    ], ids=["linear", "log2", "one_value_above_2_53", "sum_beyond_max"])
    def test_svg_near_the_float_maximum(self, runner, tmp_path, completions, log2):
        res, svg_path = tmp_path / "res.json", tmp_path / "plot.svg"
        res.write_text(json.dumps({
            "schema": "nsim.results/1", "metadata": {"nranks": 4},
            "results": [{"run": i, "completion_ns": c} for i, c in enumerate(completions)],
        }))
        r = runner.invoke(cli, ["report", "svg", str(res), *(["--log2"] if log2 else []),
                                "-o", str(svg_path)])
        assert r.exit_code == 0, r.output
        content = svg_path.read_text()
        assert content.count('class="box"') == 1
        assert not re.search("nan|inf", content)

    @pytest.mark.parametrize("completions", [[int(1.7e308)] * 2, [1, int(1.79e308)]],
                             ids=["sum_beyond_max", "notch_beyond_max"])
    def test_box_near_the_float_maximum(self, runner, tmp_path, completions):
        res = tmp_path / "res.json"
        res.write_text(_results_doc(completions))
        r = runner.invoke(cli, ["report", "box", str(res)])
        assert r.exit_code == 0, r.output
        stats = json.loads(r.output, parse_constant=_refuse_constant)["groups"][0]["stats"]
        assert stats["mean"] == sum(completions) / 2
        assert stats["notch_low"] <= stats["median"] <= stats["notch_high"]

    def test_mean_increase_near_the_float_maximum(self, runner, tmp_path):
        res, base = tmp_path / "res.json", tmp_path / "base.json"
        res.write_text(_results_doc([int(1.7e308)] * 2))
        base.write_text(_results_doc([1]))
        r = runner.invoke(cli, ["cost", "--results", str(res), "--provider", "aws",
                                "--label", "on_demand", "--instance", "c5n.18xlarge",
                                "--baseline", str(base)])
        assert r.exit_code == 0, r.output
        doc = json.loads(r.output, parse_constant=_refuse_constant)
        assert doc["mean_relative_increase"] == doc["relative_increase"][0] == 1.7e308

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
        path.write_text(params_to_json(p, source="unit-test"))
        assert path.read_text() == (
            '{\n  "schema": "nsim.params/1",\n  "L_ns": 10,\n  "o_ns": 2,\n  "g_ns": 3,\n'
            '  "G_ns_per_byte": 0.5,\n  "source": "unit-test"\n}\n')
        back, doc = load_params_file(str(path))
        assert back == p
        assert doc["source"] == "unit-test"

    @pytest.mark.parametrize("key, field", [("L_ns", "L"), ("o_ns", "o"), ("g_ns", "g"),
                                            ("G_ns_per_byte", "G")])
    def test_missing_key_named(self, tmp_path, key, field):
        doc = {"L_ns": 1, "o_ns": 2, "g_ns": 3, "G_ns_per_byte": 0.5}
        del doc[key]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f": params file is missing {key}/{field}$"):
            load_params_file(str(path))

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
        lat = _write_dist(tmp_path / "lat.json", [7000.0, float("nan")])
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


class TestStrictJson:
    """Every JSON reader takes RFC 8259 JSON only: NaN, Infinity, -Infinity and a
    number beyond the float range are refused with one line that names the token."""

    # each document holds the token where "TOKEN" is
    _DOCS = {
        "params": {"L_ns": 1, "o_ns": 1, "g_ns": 1, "G_ns_per_byte": 0.5, "x": "TOKEN"},
        "schedule": {**json.loads(schedule_to_json(parse_goal(_TWO_RANK_MESSAGE))),
                     "metadata": {"x": "TOKEN"}},
        "noise_lat": {**_dist_doc([7000.0]), "x": "TOKEN"},
        "report_box": {**_RESULTS_DOC, "metadata": {"nranks": 4, "x": "TOKEN"}},
        "cost": {**_RESULTS_DOC, "results": [{"run": 0, "completion_ns": "TOKEN"}]},
        "config": {"gen": {"dissem": {"size": "TOKEN"}}},
    }

    @pytest.mark.parametrize("token, message", [
        ("NaN", "NaN is not a JSON number"),
        ("Infinity", "Infinity is not a JSON number"),
        ("-Infinity", "-Infinity is not a JSON number"),
        ("1e400", "number 1e400 is beyond the float range"),
        ("-1E+400", "number -1E+400 is beyond the float range"),
    ])
    @pytest.mark.parametrize("reader", sorted(_DOCS))
    def test_non_finite_number_refused(self, runner, params_file, tmp_path, reader, token,
                                       message):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(self._DOCS[reader]).replace('"TOKEN"', token))
        goal = tmp_path / "s.goal"
        goal.write_text(_TWO_RANK_MESSAGE)
        args = {
            "params": ["sim", "run", "--params", str(path), "--goal", str(goal)],
            "schedule": ["sim", "run", "--params", params_file, "--goal", str(path)],
            "noise_lat": ["sim", "run", "--params", params_file, "--goal", str(goal),
                          "--noise-lat", str(path)],
            "report_box": ["report", "box", str(path)],
            "cost": ["cost", "--results", str(path), "--provider", "aws",
                     "--label", "on_demand", "--instance", "c5n.18xlarge"],
            "config": ["--config", str(path), "gen", "dissem", "-p", "2", "-s", "1"],
        }[reader]
        r = runner.invoke(cli, args)
        assert r.exit_code == (4 if reader == "config" else 3)
        assert r.stderr == f"error: {path}: {message}\n"
        assert r.stdout == ""

    def test_tiny_numbers_are_read(self, runner, tmp_path):
        # a number that rounds to zero is finite
        path = tmp_path / "p.json"
        path.write_text('{"L_ns": 1, "o_ns": 1, "g_ns": 1, "G_ns_per_byte": 1e-400}')
        assert load_params_file(str(path))[0].G == 0.0


class TestMalformedInputExit:
    """Malformed input documents are refused at load with one line, no traceback."""

    @pytest.mark.parametrize("change", [
        {"kinds": [0]},
        {"rank_offsets": [0, "abc", 2]},
        {"kinds": [0, True]},
        {"rank_offsets": [0, 2, 1, 2]},
        {"schema": "nsim.schedule/1", "ranks": [[], []]},
    ], ids=["op_without_kind", "rank_is_string", "bool_kind", "rank_offsets_decrease",
            "schema_1"])
    def test_schedule_json_exit_3(self, params_file, change):
        doc = {**json.loads(schedule_to_json(parse_goal(_TWO_RANK_MESSAGE))), **change}
        proc = _run_cli("sim", "run", "--params", params_file, input=json.dumps(doc))
        _assert_clean_exit(proc, 3)
        assert len(proc.stderr.splitlines()) == 1
        if "ranks" in change:
            assert proc.stderr == ("error: nsim.schedule/1 is no longer read; "
                                   "regenerate it with 'nsim gen ... --format json'\n")

    @pytest.mark.parametrize("reader", ["goal", "params", "noise_lat", "report_box"])
    def test_deeply_nested_json_exit_4(self, params_file, tmp_path, reader):
        # Too deep for the JSON decoder, like any other text that is not JSON.
        deep = tmp_path / "deep.json"
        deep.write_text('{"schema": ' + "[" * 200_000 + "]" * 200_000 + "}")
        goal = tmp_path / "s.goal"
        goal.write_text(_TWO_RANK_MESSAGE)
        args = {
            "goal": ["sim", "run", "--params", params_file, "--goal", str(deep)],
            "params": ["sim", "run", "--params", str(deep), "--goal", str(goal)],
            "noise_lat": ["sim", "run", "--params", params_file, "--goal", str(goal),
                          "--noise-lat", str(deep)],
            "report_box": ["report", "box", str(deep)],
        }[reader]
        proc = _run_cli(*args)
        _assert_clean_exit(proc, 4)
        assert proc.stderr == (f"error: {deep}: nested too deeply to decode: "
                               "line 1 column 1 (char 0)\n")

    @pytest.mark.parametrize("doc", [
        _dist_doc([7000.0], samples_f64le=None),
        {"schema": "nsim.dist/2", "unit": "ns", "count": 1},
        [7000.0],
        _dist_doc([7000.0, math.inf]),  # +inf last: a value beyond the float range
        _dist_doc([7000.0], samples_f64le="AAAAAABYu0A*"),
        _dist_doc([7000.0, 9000.0], count=3),
        _dist_doc([7000.0], count=True),
        _dist_doc([7000.0], count=0),
        _dist_doc([7000.0], count="1"),
        _dist_doc([7000.0, math.nan, 9000.0]),
        _dist_doc([-math.inf, 7000.0]),
        _dist_doc([9000.0, 7000.0]),
        _dist_doc([0.0, 7000.0]),
        _dist_doc([7000.0], "ms"),
        {"schema": "nsim.dist/1", "unit": "ns", "samples": [7000.0]},
    ], ids=["null_sample", "missing_samples", "top_level_list", "sample_beyond_float",
            "bad_base64_char", "length_not_8_count", "count_true", "count_zero",
            "count_string", "nan_in_middle", "minus_inf_first", "unsorted_pair", "zero_min_ns",
            "unknown_unit", "v1"])
    def test_distribution_json_exit_3(self, params_file, tmp_path, doc):
        text = json.dumps(doc)
        with pytest.raises(ValueError):
            parse_distribution(text)
        lat = tmp_path / "lat.json"
        lat.write_text(text)
        proc = _run_cli("sim", "run", "--params", params_file, "--noise-lat", str(lat),
                        input=_TWO_RANK_MESSAGE)
        _assert_clean_exit(proc, 3)
        assert len(proc.stderr.splitlines()) == 1
        if "samples" in doc:
            assert proc.stderr == (f"error: {lat}: nsim.dist/1 is no longer read; "
                                   "rebuild it with 'nsim trace dist'\n")

    @pytest.mark.parametrize("key", ["G_ns_per_byte", "L_ns"])
    def test_params_beyond_range_exit_3(self, tmp_path, key):
        # A 401-digit number fits neither a float nor 64-bit ns.
        doc = {"L_ns": 5000, "o_ns": 1000, "g_ns": 1000, "G_ns_per_byte": 0.01, key: 10**400}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        proc = _run_cli("sim", "run", "--params", str(path), input=_TWO_RANK_MESSAGE)
        _assert_clean_exit(proc, 3)
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("case", ["bandwidth_sample", "byte_gap"])
    def test_infinite_wire_delay_exit_3(self, params_file, tmp_path, case):
        # Valid inputs whose largest wire delay, L + (size - 1) * G, is inf.
        if case == "bandwidth_sample":
            bw = _write_dist(tmp_path / "bw.json", [1e-320], "gbps")
            proc = _run_cli("sim", "run", "--params", params_file, "--noise-bw", str(bw),
                            input=_TWO_RANK_MESSAGE)
        else:
            params = tmp_path / "p.json"
            params.write_text(json.dumps({"L_ns": 5000, "o_ns": 1000, "g_ns": 1000,
                                          "G_ns_per_byte": 1e300}))
            ring = _run_cli("gen", "ring", "-p", "4", "-s", "4000000000000000000").stdout
            proc = _run_cli("sim", "run", "--params", str(params), input=ring)
        _assert_clean_exit(proc, 3)
        assert len(proc.stderr.splitlines()) == 1 and "wire delay" in proc.stderr

    @pytest.mark.parametrize("case", ["cost", "cost_baseline", "cost_nranks", "report_box",
                                      "report_svg"])
    def test_results_beyond_float_exit_3(self, tmp_path, case):
        # A 401-digit integer fits no float.
        big, small, out = tmp_path / "big.json", tmp_path / "small.json", str(tmp_path / "out")
        nranks, completion = (10**400, 9000) if case == "cost_nranks" else (4, 10**400)
        big.write_text(json.dumps({"schema": "nsim.results/1", "metadata": {"nranks": nranks},
                                   "results": [{"run": 0, "completion_ns": completion}]}))
        small.write_text(json.dumps({"schema": "nsim.results/1", "metadata": {"nranks": 4},
                                     "results": [{"run": 0, "completion_ns": 9000}]}))
        cost = ["cost", "--provider", "aws", "--label", "on_demand", "--instance",
                "c5n.18xlarge", "-o", out]
        args = {
            "cost": [*cost, "--results", str(big)],
            "cost_baseline": [*cost, "--results", str(small), "--baseline", str(big)],
            "cost_nranks": [*cost, "--results", str(big)],
            "report_box": ["report", "box", str(big), "-o", out],
            "report_svg": ["report", "svg", str(big), "-o", out],
        }[case]
        proc = _run_cli(*args)
        _assert_clean_exit(proc, 3)
        assert len(proc.stderr.splitlines()) == 1 and str(big) in proc.stderr

    @pytest.mark.parametrize("command", ["cost", "report_box", "report_svg"])
    def test_negative_completion_exit_3(self, tmp_path, command):
        res, out = tmp_path / "res.json", str(tmp_path / "out")
        res.write_text(_results_doc([-int(1.7e308), int(1.7e308)]))
        args = {
            "cost": ["cost", "--results", str(res), "--provider", "aws", "--label",
                     "on_demand", "--instance", "c5n.18xlarge", "-o", out],
            "report_box": ["report", "box", str(res), "-o", out],
            "report_svg": ["report", "svg", str(res), "-o", out],
        }[command]
        proc = _run_cli(*args)
        _assert_clean_exit(proc, 3)
        assert proc.stderr == f"error: {res}: 'completion_ns' must be >= 0\n"

    def test_cost_beyond_float_exit_3(self, tmp_path):
        # Each integer fits a float, but nodes x runtime x price does not.
        res, out = tmp_path / "res.json", tmp_path / "cost.json"
        res.write_text(json.dumps({"schema": "nsim.results/1", "metadata": {"nranks": 10**300},
                                   "results": [{"run": 0, "completion_ns": 10**300}]}))
        proc = _run_cli("cost", "--results", str(res), "--provider", "aws", "--label",
                        "on_demand", "--instance", "c5n.18xlarge", "-o", str(out))
        _assert_clean_exit(proc, 3)
        assert len(proc.stderr.splitlines()) == 1 and "beyond the float range" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["params", "noise_lat"])
    def test_bad_input_file_ends_a_pipe_cleanly(self, params_file, tmp_path, bad):
        # sim run reads params and noise files before the schedule, so it quits
        # while gen is still writing; gen then meets a closed pipe.
        garbled = tmp_path / "garbled.json"
        garbled.write_text('{"L_ns": 5000,\n')
        sim_args = (["--params", str(garbled)] if bad == "params"
                    else ["--params", params_file, "--noise-lat", str(garbled)])
        cli_cmd = [sys.executable, "-m", "nsim.cli"]
        with subprocess.Popen([*cli_cmd, "gen", "dissem", "-p", "4096", "-s", "16"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as gen:
            with subprocess.Popen([*cli_cmd, "sim", "run", *sim_args], stdin=gen.stdout,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True) as sim:
                gen.stdout.close()
                sim_out, sim_err = sim.communicate(timeout=120)
            gen_err = gen.communicate(timeout=120)[1]
        assert sim.returncode == 4 and sim_out == ""
        assert sim_err == f"error: {garbled}: Expecting property name enclosed in double " \
                          "quotes: line 2 column 1 (char 15)\n"
        assert gen.returncode in (0, 4) and "Traceback" not in gen_err
        assert gen_err == ""

    @pytest.mark.parametrize("kind", ["params", "noise_lat", "noise_bw", "goal", "results",
                                      "baseline", "report", "config"])
    def test_json_that_does_not_parse_names_its_file(self, params_file, tmp_path, kind):
        garbled = tmp_path / f"{kind}.json"
        garbled.write_text('{"L_ns": 5000,\n')
        results = tmp_path / "res.json"
        results.write_text(_results_doc([10]))
        cost = ["cost", "--provider", "aws", "--label", "on_demand", "--instance",
                "c5n.18xlarge", "--results"]
        args = {
            "params": ["sim", "run", "--params", garbled],
            "noise_lat": ["sim", "run", "--params", params_file, "--noise-lat", garbled],
            "noise_bw": ["sim", "run", "--params", params_file, "--noise-bw", garbled],
            "goal": ["sim", "run", "--params", params_file, "--goal", garbled],
            "results": [*cost, garbled],
            "baseline": [*cost, results, "--baseline", garbled],
            "report": ["report", "box", garbled],
            "config": ["--config", garbled, "gen", "dissem", "-p", "2", "-s", "1"],
        }[kind]
        proc = _run_cli(*map(str, args), input=_TWO_RANK_MESSAGE)
        _assert_clean_exit(proc, 4)
        assert proc.stderr == (f"error: {garbled}: Expecting property name enclosed in "
                               "double quotes: line 2 column 1 (char 15)\n")

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


class TestInputFaultNamesItsFile:
    """A fault found while a command reads a file gains only ``path: `` before
    the message it had before, with the same exit code."""

    def test_negative_latency(self, tmp_path):
        params = tmp_path / "p.json"
        params.write_text('{"L_ns": -5, "o_ns": 1000, "g_ns": 1000, "G_ns_per_byte": 0.01}')
        proc = _run_cli("sim", "run", "--params", str(params), input=_TWO_RANK_MESSAGE)
        _assert_clean_exit(proc, 3)
        assert proc.stderr == f"error: {params}: L must be >= 0, got -5\n"

    def test_unsorted_distribution(self, params_file, tmp_path):
        lat = _write_dist(tmp_path / "lat.json", [7000.0, 6000.0])
        proc = _run_cli("sim", "run", "--params", params_file, "--noise-lat", str(lat),
                        input=_TWO_RANK_MESSAGE)
        _assert_clean_exit(proc, 3)
        assert proc.stderr == f"error: {lat}: samples must be sorted ascending\n"

    def test_overlapping_detours(self, params_file, tmp_path):
        trace = tmp_path / "detour.csv"
        trace.write_text("# span_ns=1000\ntimestamp_ns,value,unit\n0,50,ns\n20,30,ns\n")
        proc = _run_cli("sim", "run", "--params", params_file, "--noise-os", str(trace),
                        input=_TWO_RANK_MESSAGE)
        _assert_clean_exit(proc, 3)
        assert proc.stderr == f"error: {trace}: event 1: overlaps or precedes previous event\n"

    def test_second_span_comment_exit_4(self, params_file, tmp_path):
        trace = tmp_path / "detour.csv"
        trace.write_text("# span_ns=1000\ntimestamp_ns,value,unit\n10,5,ns\n# span_ns=50\n")
        proc = _run_cli("sim", "run", "--params", params_file, "--noise-os", str(trace),
                        input=_TWO_RANK_MESSAGE)
        _assert_clean_exit(proc, 4)
        assert proc.stderr == (f"error: {trace}: line 4: a second '# span_ns=' comment "
                               "(the first is on line 1)\n")

    def test_goal_syntax_error(self, params_file, tmp_path):
        goal = tmp_path / "bad.goal"
        goal.write_text("num_ranks 2\nrank 0 { a: sendd 4b to 1 }\n")
        message = ("line 2, col 10: expected 'LABEL: send|recv|calc ...', 'LABEL requires "
                   "...' or '}', found 'a: sendd 4b to 1 }'\n")
        proc = _run_cli("sim", "run", "--params", params_file, "--goal", str(goal))
        _assert_clean_exit(proc, 3)
        assert proc.stderr == f"error: {goal}: {message}"
        # the same text on stdin stays unnamed
        proc = _run_cli("sim", "run", "--params", params_file, input=goal.read_text())
        _assert_clean_exit(proc, 3)
        assert proc.stderr == f"error: {message}"

    def test_trace_bad_value(self, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text("timestamp_ns,value,unit\n0,abc,ns\n")
        proc = _run_cli("trace", "dist", "--in", str(trace))
        _assert_clean_exit(proc, 4)
        assert proc.stderr == f"error: {trace}: line 2: bad value 'abc'\n"

    @pytest.mark.parametrize("rows, line, message", [
        ("aws,c5,on_demand", 2, "expected 4 fields, got 3"),
        ("aws,c5,spot,1.0", 2, "label must be one of ('committed', 'on_demand'), got 'spot'"),
        ("aws,c5,on_demand,abc", 2, "could not convert string to float: 'abc'"),
        ("aws,c5,on_demand,-3", 2, "per_node_hour must be a finite number > 0, got -3.0"),
        ("aws,c5,on_demand,nan", 2, "per_node_hour must be a finite number > 0, got nan"),
        ("aws,c5,on_demand,inf", 2, "per_node_hour must be a finite number > 0, got inf"),
        ("aws,c5,on_demand,1\ngcp,c2,on_demand,-3", 3,
         "per_node_hour must be a finite number > 0, got -3.0"),
        ("aws,c5,on_demand,1\naws,c5,on_demand,2", 3,
         "('aws', 'c5', 'on_demand') is already priced on line 2"),
        ("aws,c5,on_demand,1\nprovider,instance,label,usd_per_hour", 3,
         "could not convert string to float: 'usd_per_hour'"),
    ], ids=["short_row", "spot", "abc", "negative", "nan", "inf", "row_not_priced",
            "repeated_key", "second_header"])
    def test_price_catalog_fault(self, tmp_path, rows, line, message):
        # Every row is checked at load, so a fault names its line even in a
        # row that is not the one priced.
        results, catalog = tmp_path / "res.json", tmp_path / "cat.csv"
        results.write_text(_results_doc([10]))
        catalog.write_text(f"provider,instance,label,usd_per_hour\n{rows}\n")
        proc = _run_cli("cost", "--results", str(results), "--price-catalog", str(catalog),
                        "--provider", "aws", "--label", "on_demand", "--instance", "c5")
        _assert_clean_exit(proc, 3)
        assert proc.stderr == f"error: {catalog}: line {line}: {message}\n"

    def test_text_that_is_not_utf8(self, tmp_path):
        params = tmp_path / "p.json"
        params.write_bytes(b"\xff{}")
        proc = _run_cli("sim", "run", "--params", str(params), input=_TWO_RANK_MESSAGE)
        _assert_clean_exit(proc, 3)
        assert proc.stderr == (f"error: {params}: 'utf-8' codec can't decode byte 0xff in "
                               "position 0: invalid start byte\n")

    def test_stdin_that_is_not_utf8(self, params_file):
        # Stdin is decoded as a file is, not with the interpreter's error handler.
        proc = subprocess.run([sys.executable, "-m", "nsim.cli", "sim", "run", "--params",
                               params_file], input=b"\xff{}", capture_output=True, timeout=120)
        assert proc.returncode == 3
        assert proc.stderr == (b"error: 'utf-8' codec can't decode byte 0xff in position 0: "
                               b"invalid start byte\n")

    @pytest.mark.parametrize("command", ["cost", "report_box"])
    def test_results_named_once(self, tmp_path, command):
        # The results file is read and checked in one place, so it is named once.
        results, out = tmp_path / "res.json", str(tmp_path / "out")
        results.write_text(_results_doc([]))
        args = {
            "cost": ["cost", "--results", str(results), "--provider", "aws", "--label",
                     "on_demand", "--instance", "c5n.18xlarge", "-o", out],
            "report_box": ["report", "box", str(results), "-o", out],
        }[command]
        proc = _run_cli(*args)
        _assert_clean_exit(proc, 3)
        assert proc.stderr == f"error: {results}: 'results' must be a non-empty list of runs\n"


def _requires_later_op(runner, fmt, nranks, later, ranks):
    """``gen dissem -p NRANKS -s 16`` in ``fmt`` ("goal" or "json"), with op 0
    of each of ``ranks`` also requiring op ``later`` of its rank."""
    text = _invoke(runner, ["gen", "dissem", "-p", str(nranks), "-s", "16",
                            "--format", fmt]).output
    if fmt == "json":  # op 0 of rank r is op rank_offsets[r] of the columns
        doc = json.loads(text)
        for r in ranks:
            g = doc["rank_offsets"][r]
            doc["req_targets"].insert(doc["req_offsets"][g], later)
            doc["req_offsets"][g + 1:] = [x + 1 for x in doc["req_offsets"][g + 1:]]
        return json.dumps(doc)
    bodies = text.split("\n}")  # body r ends where rank r's block closes
    for r in ranks:
        bodies[r] += f"\n  o0 requires o{later}"
    return "\n}".join(bodies)


def _later_op_entry(rank, later):
    return (f"rank {rank} op 0: requires op(s) [{later}] at or after it, a dependency "
            "cycle through program order")


class TestRequiresOnALaterOp:
    """Ops run in program order, so an op that requires itself or a later op
    can never start. That is a violation found before any run, naming the op,
    whichever op it names and whatever the schedule's source."""

    @pytest.mark.parametrize("fmt", ["goal", "json"])
    @pytest.mark.parametrize("later", [1, 5])
    def test_exit_3_naming_the_op(self, runner, params_file, tmp_path, fmt, later):
        path = tmp_path / f"schedule.{fmt}"
        path.write_text(_requires_later_op(runner, fmt, 1024, later, [0]))
        proc = _run_cli("sim", "run", "--params", params_file, "--goal", str(path))
        _assert_clean_exit(proc, 3)
        assert proc.stderr == f"error: {path}: {_later_op_entry(0, later)}\n"

    @pytest.mark.parametrize("error_json", [False, True], ids=["plain", "error_json"])
    def test_message_shows_16_violations(self, runner, params_file, error_json):
        # One violation per rank; the message lists 16 and counts the rest.
        text = _requires_later_op(runner, "goal", 20, 1, range(20))
        message = "; ".join(_later_op_entry(r, 1) for r in range(16)) + " and 4 more"
        flags = ["--error-json"] if error_json else []
        r = runner.invoke(cli, [*flags, "sim", "run", "--params", params_file], input=text)
        assert r.exit_code == 3 and r.stdout == ""
        if error_json:
            assert json.loads(r.stderr) == {"error": "ScheduleValidationError",
                                            "message": message, "exit_code": 3}
        else:
            assert r.stderr == f"error: {message}\n"


_BOM_KINDS = ["catalog", "trace", "detour_trace", "goal", "schedule_json", "params", "config"]


@pytest.mark.parametrize("kind", _BOM_KINDS)
def test_byte_order_mark_reads_as_the_plain_file(runner, params_file, tmp_path, kind):
    # Spreadsheet tools start UTF-8 files with a byte-order mark; every file
    # reader drops it. sim run records the file's path and digest, so only
    # its results are compared.
    results, goal = tmp_path / "res.json", tmp_path / "s.goal"
    results.write_text(_results_doc([10, 20]))
    goal.write_text(_TWO_RANK_MESSAGE)
    content = {
        "catalog": "provider,instance,label,usd_per_hour\naws,c5,on_demand,2.5\n",
        "trace": "timestamp_ns,value,unit\n0,7000,ns\n5,7100,ns\n",
        "detour_trace": "# span_ns=100000\ntimestamp_ns,value,unit\n10,500,ns\n",
        "goal": _TWO_RANK_MESSAGE,
        "schedule_json": _invoke(runner, ["gen", "dissem", "-p", "4", "-s", "16",
                                          "--format", "json"]).output,
        "params": Path(params_file).read_text(),
        "config": json.dumps({"gen": {"dissem": {"size": 64}}}),
    }[kind]
    sim_run = ["sim", "run", "--reps", "3", "--params"]
    outputs = []
    for bom in (b"", codecs.BOM_UTF8):
        path = tmp_path / ("bom" if bom else "plain")
        path.write_bytes(bom + content.encode())
        args = {
            "catalog": ["cost", "--results", str(results), "--price-catalog", str(path),
                        "--provider", "aws", "--label", "on_demand"],
            "trace": ["trace", "dist", "--in", str(path), "--unit", "ns"],
            "detour_trace": [*sim_run, params_file, "--goal", str(goal), "--noise-os",
                             str(path)],
            "goal": [*sim_run, params_file, "--goal", str(path)],
            "schedule_json": [*sim_run, params_file, "--goal", str(path)],
            "params": [*sim_run, str(path), "--goal", str(goal)],
            "config": ["--config", str(path), "gen", "dissem", "-p", "4"],
        }[kind]
        r = _invoke(runner, args)
        assert r.exit_code == 0, r.output
        outputs.append(json.loads(r.stdout)["results"] if args[0] == "sim" else r.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("kind", ["trace", "goal"])
def test_byte_order_mark_on_stdin_reads_as_the_plain_text(runner, params_file, kind):
    # Stdin is read as bytes and decoded as a file is, whatever the locale.
    content, args = {
        "trace": ("timestamp_ns,value,unit\n0,7000,ns\n",
                  ["trace", "dist", "--in", "-", "--unit", "ns"]),
        "goal": (_TWO_RANK_MESSAGE, ["sim", "run", "--reps", "3", "--params", params_file]),
    }[kind]
    outputs = []
    for bom in (b"", codecs.BOM_UTF8):
        r = _invoke(runner, args, input=bom + content.encode())
        assert r.exit_code == 0, r.output
        outputs.append(json.loads(r.stdout)["results"] if kind == "goal" else r.stdout)
    assert outputs[0] == outputs[1]


def test_price_label_choice_is_the_cost_labels():
    from nsim import cost

    label = next(p for p in cli.commands["cost"].params if p.name == "label")
    assert tuple(label.type.choices) == cost.PRICE_LABELS


def test_compapp_pattern_choice_is_the_generator_table():
    from nsim import goal

    pattern = next(p for p in cli.commands["gen"].commands["compapp"].params
                   if p.name == "pattern")
    assert tuple(pattern.type.choices) == tuple(goal._COMPAPP)


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

    def test_bidir_trace_csvs(self, runner, tmp_path):
        forward, reverse = tmp_path / "fwd.csv", tmp_path / "rev.csv"
        with EchoServer() as server:
            r = _invoke(runner, ["bench", "bidir", "--peer", f"127.0.0.1:{server.port}",
                                 "--size", "8", "--iterations", "3", "--warmup", "1",
                                 "--out-forward", str(forward), "--out-reverse", str(reverse)])
        assert r.exit_code == 0
        for path in (forward, reverse):
            lines = path.read_text().splitlines()
            assert lines[0] == "timestamp_ns,value,unit"
            assert len(lines) == 4
            assert all(re.fullmatch(r"\d+,\d+\.\d+,ns", line) for line in lines[1:])

    def test_pingpong_iterations_beyond_setup_exit_3(self):
        # the setup message carries iterations in 32 bits
        with EchoServer() as server:
            proc = _run_cli("bench", "pingpong", "--peer", f"127.0.0.1:{server.port}",
                            "--iterations", str(2**32))
        _assert_clean_exit(proc, 3)
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("args", [
        ["--listen", "70000"], ["--listen", "127.0.0.1:-1"],
        ["--peer", "127.0.0.1:70000"], ["--peer", "127.0.0.1:0"],
    ], ids=["listen_above", "listen_negative", "peer_above", "peer_zero"])
    @pytest.mark.parametrize("command", ["pingpong", "bidir"])
    def test_port_out_of_range_exit_3(self, runner, command, args):
        # 70000 would bind nothing, or connect to 70000 mod 65536 = 4464
        r = runner.invoke(cli, ["bench", command, *args])
        assert r.exit_code == 3
        assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1
        assert "port must be" in r.stderr

    @pytest.mark.parametrize("option", ["--listen", "--peer"])
    @pytest.mark.parametrize("port", ["abc", "", "1.5"])
    def test_port_not_a_number_exit_3(self, runner, option, port):
        r = runner.invoke(cli, ["bench", "pingpong", option, f"127.0.0.1:{port}"])
        assert r.exit_code == 3
        assert r.stderr == (f"error: port must be an integer 0-65535, got {port!r} "
                            f"in '127.0.0.1:{port}'\n")

    def test_listen_serves_pingpong_and_bidir(self):
        with subprocess.Popen([sys.executable, "-m", "nsim.cli", "bench", "pingpong",
                               "--listen", "127.0.0.1:0"],
                              stderr=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stderr.readline()
                host, port = re.fullmatch(r"listening on (\S+):(\d+)\n", line).groups()
                plan = BenchPlan(size=8, iterations=3, warmup_iterations=1,
                                 peer=(host, int(port)))
                assert len(pingpong(plan)) == 3
                forward, reverse = pingpong_bidirectional(plan)
                assert len(forward) == len(reverse) == 3
            finally:
                proc.kill()

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_detour_threshold_not_finite_exit_3(self, threshold):
        proc = _run_cli("bench", "detour", "--threshold", threshold, "--records", "1",
                        "--probe", "100", "--max-iterations", "1000")
        _assert_clean_exit(proc, 3)
        assert len(proc.stderr.splitlines()) == 1 and "threshold" in proc.stderr


@pytest.mark.parametrize("fmt", ["json", "goal"])
def test_sim_run_validates_and_compiles_once(runner, params_file, monkeypatch, fmt):
    from nsim import goal, simengine

    walks, diagnoses, compiles = [], [], []
    real_walk, real_diagnose = goal._walk, goal._violations
    monkeypatch.setattr(goal, "_walk", lambda s: walks.append(s) or real_walk(s))
    monkeypatch.setattr(goal, "_violations", lambda s: diagnoses.append(s) or real_diagnose(s))

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
    assert len(walks) == 1 and len(compiles) == 1 and diagnoses == []


# ---------------------------------------------------------------------------
# What each command loads, and the lazy `nsim` namespace

def _modules_at_exit(tmp_path, *args):
    """The names in sys.modules when `python -m nsim.cli <args>` exits, run afresh.

    main() ends in os._exit, which runs no atexit hook, so the probe wraps it."""
    listing = tmp_path / "modules.txt"
    code = ("import os, runpy, sys\n"
            "def dump(code, _exit=os._exit):\n"
            f"    with open({str(listing)!r}, 'w') as f:\n"
            "        f.write('\\n'.join(sys.modules))\n"
            "    _exit(code)\n"
            "os._exit = dump\n"
            "runpy.run_module('nsim.cli', run_name='__main__')\n")
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(listing.read_text().split())


def _startup_cases(tmp_path):
    results = tmp_path / "res.json"
    results.write_text(json.dumps(_RESULTS_DOC))
    trace = tmp_path / "lat.csv"
    trace.write_text("timestamp_ns,value,unit\n0,7000,ns\n5,7100,ns\n")
    params = tmp_path / "params.json"
    params.write_text(params_to_json(LogGPParams(L=5000, o=1000, g=1000, G=0.01)))
    detour = tmp_path / "detour.csv"
    detour.write_text(format_detour_trace(DetourTrace(((100, 50), (400, 200)), span=1000)))
    goal = tmp_path / "s.goal"
    goal.write_text(_CALC_SEND_RECV)
    out = str(tmp_path / "out")
    # (args, the modules the command runs, modules it must not load)
    return {
        "help": (["--help"], (), ("model", "goal", "noise", "simengine", "bench", "report",
                                  "cost", "runfiles", "numpy")),
        "cost": (["cost", "--results", str(results), "--provider", "aws",
                  "--label", "on_demand", "--instance", "c5n.18xlarge", "-o", out],
                 ("cost", "runfiles"), ("model", "goal", "noise", "simengine", "bench",
                                        "numpy")),
        "report": (["report", "box", str(results), "-o", out], ("report", "runfiles"),
                   ("model", "goal", "noise", "simengine", "bench", "numpy")),
        "trace": (["trace", "dist", "--in", str(trace), "-o", out], ("noise",),
                  ("goal", "simengine", "bench", "runfiles", "numpy")),
        "gen": (["gen", "dissem", "-p", "4", "-s", "16", "-o", out], ("goal",),
                ("model", "noise", "simengine", "bench", "runfiles")),
        "sim": (["sim", "run", "--goal", str(goal), "--params", str(params), "--noise-os",
                 str(detour), "-o", out], ("goal", "simengine", "model", "noise", "runfiles"),
                ("cost", "report", "bench", "numpy")),
    }


@pytest.mark.parametrize("case", ["help", "cost", "report", "trace", "gen", "sim"])
def test_command_loads_only_what_it_runs(tmp_path, case):
    args, runs, unused = _startup_cases(tmp_path)[case]
    loaded = _modules_at_exit(tmp_path, *args)
    assert {f"nsim.{m}" for m in runs} <= loaded
    names = {m if m == "numpy" else f"nsim.{m}" for m in unused}
    assert not names & loaded


_PUBLIC = ["DetourTrace", "EmpiricalDistribution", "LogGPParams", "NoiseModel", "Schedule",
           "ScheduleOp", "SimConfig", "SimResult", "bandwidth_to_G", "calibrate",
           "emit_goal", "gen_compute_collective", "gen_dissemination", "gen_ring_allreduce",
           "message_time", "parse_goal", "run_many", "simulate", "validate"]


class TestPublicNamespace:
    def test_every_public_name_resolves_and_is_listed(self):
        import nsim
        from nsim import goal, model, simengine

        assert nsim.__all__ == _PUBLIC
        listed = dir(nsim)
        for name in _PUBLIC:
            assert name in listed
            value = getattr(nsim, name)
            assert any(getattr(m, name, None) is value for m in (goal, model, simengine))

    def test_star_import(self):
        namespace: dict = {}
        exec("from nsim import *", namespace)
        import nsim

        assert {name: namespace[name] for name in _PUBLIC} == \
            {name: getattr(nsim, name) for name in _PUBLIC}

    def test_import_nsim_loads_no_submodule(self):
        code = ("import sys, nsim\n"
                "print(sorted(m for m in sys.modules if m.startswith('nsim.')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_unknown_attribute(self):
        import nsim

        with pytest.raises(AttributeError, match="no_such_name"):
            nsim.no_such_name
        assert not hasattr(nsim, "sample")


def _error_cases():
    from nsim import bench, errors, goal, noise, simengine

    return [
        (goal.GoalSyntaxError("bad token", 1, 2), errors.GoalSyntaxError, 3),
        (goal.ScheduleValidationError(["rank 0 op 0: bad peer"]),
         errors.ScheduleValidationError, 3),
        (noise.TraceFormatError("bad value", 3), errors.TraceFormatError, 4),
        (simengine.DeadlockError([(0, 0, "recv")]), errors.DeadlockError, 5),
        (bench.ClockResolutionError("clock too coarse"), errors.ClockResolutionError, 3),
        (bench.DetourLimitError("too few events"), errors.DetourLimitError, 3),
    ]


@pytest.mark.parametrize("exc, cls, code", _error_cases(),
                         ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_error_classes_keep_their_exit_codes(runner, monkeypatch, exc, cls, code):
    from nsim import goal

    assert type(exc) is cls

    def fail(*args):
        raise exc

    monkeypatch.setattr(goal, "gen_dissemination", fail)
    r = runner.invoke(cli, ["gen", "dissem", "-p", "2", "-s", "1"])
    assert r.exit_code == code
    assert r.output.startswith(f"error: {exc}")
    r = runner.invoke(cli, ["--error-json", "gen", "dissem", "-p", "2", "-s", "1"])
    assert r.exit_code == code
    assert json.loads(r.output) == {"error": cls.__name__, "message": str(exc),
                                    "exit_code": code}


def _mapped_errors():
    """One error of each type the root group maps, with its exit code."""
    from nsim import errors

    return [
        (errors.DeadlockError([(0, 0, "recv")]), 5),
        (errors.TraceFormatError("bad value", 3), 4),
        (FileNotFoundError(2, "No such file or directory"), 4),
        (json.JSONDecodeError("Expecting value", "x", 0), 4),
        (errors.GoalSyntaxError("bad token", 1, 2), 3),
        (errors.ScheduleValidationError(["rank 0 op 0: bad peer"]), 3),
        (ValueError("bad value"), 3),
        (errors.ClockResolutionError("clock too coarse"), 3),
        (errors.DetourLimitError("too few events"), 3),
    ]


def _assert_mapped(path):
    """Every mapped error raised by the command at ``path`` exits with its code and
    one line on stderr, or one JSON object under --error-json."""
    runner = CliRunner()
    command = cli
    for name in path:
        command = command.commands[name]
    for exc, code in _mapped_errors():
        def fail(**_):
            raise exc

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(command, "callback", fail)
            patch.setattr(command, "params", [])  # no required option stands in the way
            r = runner.invoke(cli, list(path))
            assert (r.exit_code, r.stdout, r.stderr) == (code, "", f"error: {exc}\n"), exc
            r = runner.invoke(cli, ["--error-json", *path])
            assert r.exit_code == code and r.stdout == ""
            assert json.loads(r.stderr) == {"error": type(exc).__name__, "message": str(exc),
                                            "exit_code": code}


def _leaf_commands(group=cli, path=()):
    for name, command in group.commands.items():
        if isinstance(command, click.Group):
            yield from _leaf_commands(command, (*path, name))
        else:
            yield (*path, name)


@pytest.mark.parametrize("path", list(_leaf_commands()), ids=" ".join)
def test_every_command_maps_errors_to_exit_codes(path):
    _assert_mapped(path)


def _readme_commands():
    """The command paths named in README's "Command surface" table; a row such
    as `trace dist / normalize / top` names three."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Command surface\n\n", 1)[1].split("\n\n", 1)[0]
    paths = []
    for row in table.splitlines()[2:]:
        first, *others = row.split("|")[1].strip().strip("`").split(" / ")
        path = tuple(first.split())
        paths += [path, *((*path[:-1], other) for other in others)]
    return paths


def test_readme_command_table_names_every_command():
    assert sorted(_readme_commands()) == sorted(_leaf_commands())


@pytest.mark.parametrize("group", [(), ("gen",)], ids=["root", "gen"])
def test_a_command_added_later_maps_errors_to_exit_codes(monkeypatch, group):
    # The command carries no error handling of its own.
    parent = cli
    for name in group:
        parent = parent.commands[name]
    monkeypatch.setitem(parent.commands, "later", click.Command("later"))
    _assert_mapped((*group, "later"))


def test_config_unknown_key_exit_4(tmp_path):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"gen": {"dissem": {"s": 16}}}))
    proc = _run_cli("--config", str(cfg), "gen", "dissem", "-p", "2")
    _assert_clean_exit(proc, 4)
    assert len(proc.stderr.splitlines()) == 1
    assert "'s'" in proc.stderr and "'nsim gen dissem'" in proc.stderr


def test_config_unknown_command_exit_4(tmp_path):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"gen": {"dissemination": {"size": 16}}}))
    proc = _run_cli("--config", str(cfg), "gen", "dissem", "-p", "2", "-s", "1")
    _assert_clean_exit(proc, 4)
    assert "'dissemination'" in proc.stderr and "'nsim gen'" in proc.stderr


# sha256 of `trace dist` (nsim.dist/2) on the benchmark's seed-1 traces.
_TRACE_DIST_SHA256 = {
    ("lat.csv", "ns"): "4e47e282b1aadd042750b1961849a2c718c2e3075327b8bbb041cb7a18b1466e",
    ("bw.csv", "gbps"): "8d4683feba7542f723c613639aa71122c8199cc890726df11c715b0477391665",
}
# sha256 of the same distributions' samples as little-endian binary64, whatever
# the file format: taken from the nsim.dist/1 files, as written when
# build_distribution still went through the checking EmpiricalDistribution.from_values.
_TRACE_DIST_COLUMN_SHA256 = {
    "lat.csv": "afed174d49d37f3ec1ff26e15c3805ba506bd6a3a203295e8cc9a589c4a23e87",
    "bw.csv": "7ce81d185dc4ecd04d60c26bd1e4feb5865fc02b7b5e1f2d24349c2c68b4aa67",
}


def test_trace_dist_bytes_on_benchmark_traces(runner, tmp_path, monkeypatch):
    from nsim.noise import load_distribution

    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root))
    from perfbench.synth import synthesize

    inputs = synthesize(1, tmp_path)
    pinned = json.loads((root / "perfbench" / "digests.json").read_text())["inputs"]
    for (name, unit), digest in _TRACE_DIST_SHA256.items():
        assert inputs.facts[name]["sha256"] == pinned[name]
        out = tmp_path / f"{name}.json"
        r = _invoke(runner, ["trace", "dist", "--in", str(tmp_path / name), "--unit", unit,
                             "-o", str(out)])
        assert r.exit_code == 0
        column = array("d", load_distribution(out)._samples)
        if sys.byteorder == "big":
            column.byteswap()
        assert hashlib.sha256(column.tobytes()).hexdigest() == _TRACE_DIST_COLUMN_SHA256[name]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of `nsim gen` GOAL text, taken while the writer still formatted one op at a time.
_GEN_GOAL_SHA256 = {
    "dissem -p 1024 -s 16": "5a153ab5fe59c9b756cd3a8a718470f4b3db36bf68ce7b61cc6dd2ed3d1d1ba9",
    "ring -p 64 -s 65536 --reduce-cost 250":
        "3faad79b00b27beee2378070210209b66392f215a7f99c8c4acf71d26e562863",
    "compapp -p 16 --comp 100000 --pattern dissemination -s 64 --iterations 3":
        "893f7e2de6a8d5ab8ec42e5f02f1e9320d389d514239a1e32875af9a3f3fc911",
    "compapp -p 8 --comp 100000 --pattern ring -s 4096 --iterations 2":
        "c9a33b20a43684a525a3a1ee466563ed8663457bfc7934b035ff52acd222b8a4",
}


@pytest.mark.parametrize("args", sorted(_GEN_GOAL_SHA256))
def test_gen_goal_bytes_are_pinned(runner, args):
    r = runner.invoke(cli, ["gen", *args.split()])
    assert r.exit_code == 0, r.output
    assert hashlib.sha256(r.stdout_bytes).hexdigest() == _GEN_GOAL_SHA256[args]


# sha256 of a small `sim run` results file, its "created" line removed, and of the
# `cost --baseline` document of it, taken while cli.py still wrote both formats.
_RESULTS_SHA256 = "9b82bb14d8516792130fd291ace3068d5e7505acc3a94d23bf8f661229e27749"
_COST_SHA256 = "ec6cdf2f9c60950b9b2f91a72a68cb18460b3e6e7cb736f14c8ebe43282ee41a"


def test_results_and_cost_bytes_are_pinned(runner, params_file, tmp_path):
    # relative paths: the results metadata records the noise file's path as given
    with runner.isolated_filesystem(temp_dir=tmp_path):
        _write_dist("lat.json", [7000.0] * 9 + [70000.0])
        gen = _invoke(runner, ["gen", "dissem", "-p", "4", "-s", "16", "--format", "json"])
        for args in (["--noise-lat", "lat.json", "--seed", "3", "--reps", "4", "--per-rank",
                      "-o", "noisy.json"], ["-o", "clean.json"]):
            r = _invoke(runner, ["sim", "run", "--params", params_file, *args],
                        input=gen.output)
            assert r.exit_code == 0, r.output
        cost = _invoke(runner, ["cost", "--results", "noisy.json", "--baseline", "clean.json",
                                "--provider", "aws", "--label", "on_demand",
                                "--instance", "c5n.18xlarge"])
        lines = Path("noisy.json").read_bytes().splitlines(keepends=True)
    kept = b"".join(line for line in lines if not line.lstrip().startswith(b'"created": '))
    assert len(kept) < sum(map(len, lines))
    assert hashlib.sha256(kept).hexdigest() == _RESULTS_SHA256
    assert hashlib.sha256(cost.stdout_bytes).hexdigest() == _COST_SHA256
