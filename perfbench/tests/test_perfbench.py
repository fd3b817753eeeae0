"""Tests of the benchmark itself: input synthesis, the digest gate, span self time.

Run from the repository root: python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import gate, harness, pipeline, synth
from perfbench.spans import Span, Tracer, self_times
from perfbench.workloads import Workload

ROOT = Path(__file__).resolve().parents[2]


def test_synthesis_is_byte_identical_for_a_seed(tmp_path):
    a = synth.synthesize(7, tmp_path / "a")
    b = synth.synthesize(7, tmp_path / "b")
    c = synth.synthesize(8, tmp_path / "c")
    for name in ("lat.csv", "bw.csv", "detour.csv", "params.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert a.facts == b.facts
    assert a.facts["lat.csv"]["rows"] == synth.LAT_ROWS
    assert a.facts["bw.csv"]["rows"] == synth.BW_ROWS
    assert a.facts["detour.csv"]["rows"] == synth.DETOUR_EVENTS
    assert a.facts["lat.csv"]["sha256"] != c.facts["lat.csv"]["sha256"]


def test_synthesized_traces_load(tmp_path):
    from nsim import noise

    inputs = synth.synthesize(3, tmp_path)
    lat = noise.load_trace(inputs.lat, "ns")
    assert len(lat) == synth.LAT_ROWS and min(lat.values) >= 7000.0
    bw = noise.load_trace(inputs.bw, "gbps")
    assert len(bw) == synth.BW_ROWS and min(bw.values) > 0.0
    detour = noise.load_detour_trace(inputs.detour)
    assert detour.span == synth.DETOUR_SPAN_NS and len(detour.events) == synth.DETOUR_EVENTS
    assert all(500 <= d <= 20_000 for _, d in detour.events)


def test_self_time_of_a_hand_built_tree():
    def span(i, start, end, parent):
        return Span(i, f"s{i}", start, end, parent, "w", 0)

    spans = [
        span(0, 0.0, 10.0, None),
        span(1, 1.0, 4.0, 0),   # overlaps span 2
        span(2, 3.0, 6.0, 0),
        span(3, 8.0, 12.0, 0),  # runs past its parent's end
        span(4, 2.0, 3.0, 1),
        span(5, 1.5, 2.5, 1),   # overlaps span 4
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (6.0 - 1.0) - (10.0 - 8.0))
    assert own[1] == pytest.approx(3.0 - (3.0 - 1.5))
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(1.0)


TINY = Workload(name="tiny", why="test", generator="dissem",
                gen_args={"nranks": 8, "size": 16}, fmt="goal", noise=("lat", "os"), reps=3)


STORED_SEED = 5


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """Digests of TINY on the STORED_SEED inputs, as digests.json holds them."""
    tmp = tmp_path_factory.mktemp("stored")
    inputs = synth.synthesize(STORED_SEED, tmp)
    schedule = TINY.make_schedule()
    clean = pipeline.simulate_clean(schedule, Tracer(TINY.name))
    lib = pipeline.library_iteration(TINY, inputs, STORED_SEED, Tracer(TINY.name), tmp, clean)
    return {"seed": STORED_SEED,
            "inputs": {name: f["sha256"] for name, f in inputs.facts.items()},
            "completions": {TINY.name: gate.completion_digest(lib.results)}}


@pytest.mark.parametrize("seed", [STORED_SEED, STORED_SEED + 1])
def test_gate_refuses_to_report_on_a_tampered_digest(tmp_path, stored, seed):
    tampered = dict(stored, completions={TINY.name: "0" * 64})
    line, side = harness.run(TINY, seed, 0.0, False, ROOT, tampered, tmp_path / "work")
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] >= 1
    assert line["metrics"] == {}
    assert side["errors"] == [f"completion sha256 {stored['completions'][TINY.name]} "
                              f"!= stored {'0' * 64}"]
    assert all(not r["errors"] for r in side["iterations"])
    assert (tmp_path / "work" / "result.json").is_file()


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_run_reports_exactly_the_declared_metrics(tmp_path, stored, trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]
    line, _ = harness.run(TINY, STORED_SEED + 1, 0.0, trace, ROOT, stored, tmp_path / "work")
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in declared}
