"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The statistical criteria
use pinned seeds, so outcomes are reproducible bit for bit.
"""

import json
import random
import re
import statistics
import subprocess
import sys
from itertools import product

import pytest

from nsim.cost import PriceSpec, relative_increase, run_cost
from nsim.goal import gen_dissemination, gen_ring_allreduce
from nsim.model import (
    DetourTrace,
    EmpiricalDistribution,
    LogGPParams,
    NoiseModel,
    calibrate,
    message_time,
)
from nsim.report import box_stats
from nsim.simengine import SimConfig, SimResult, _pick, mix64, run_many, simulate
from nsim.goal import Schedule, ScheduleOp

from localhost_dissem import measure_schedule
from oracles import dag_completion, ks_distance

WORKERS = 2


def _ok(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def _single_send(size: int) -> Schedule:
    return Schedule(nranks=2, ops=(
        (ScheduleOp(0, "send", 1, size),),
        (ScheduleOp(0, "recv", 0, size),),
    ))


def test_c01_closed_form_exactness():
    """Single-message simulation equals T(s) = 2o + L + (s-1)G exactly."""
    rng = random.Random(0xC1)
    for _ in range(100):
        params = LogGPParams(
            L=rng.randrange(0, 10**6),
            o=rng.randrange(0, 10**5),
            g=rng.randrange(0, 2 * 10**5),
            G=rng.random() * 10.0,
        )
        size = rng.randrange(1, 2**30)
        got = simulate(_single_send(size), SimConfig(params=params)).completion
        assert got == message_time(params, size), (params, size)
    _ok(1, "closed-form exactness (100 randomized cases, tolerance 0)")


def test_c02_oracle_equivalence():
    """Noiseless engine equals the brute-force longest-path oracle exactly."""
    params = LogGPParams(L=2500, o=800, g=1200, G=0.05)
    sizes = (16, 1 << 20)
    ranks = (2, 3, 4, 8, 16, 32, 64)
    checked = 0
    for nranks, size in product(ranks, sizes):
        s = gen_dissemination(nranks, size)
        assert simulate(s, SimConfig(params=params)).completion == \
            dag_completion(s, params)
        checked += 1
        # ring requires size >= nranks so chunks are non-empty
        if size >= nranks:
            for reduce_cost in (0, 911):
                r = gen_ring_allreduce(nranks, size, reduce_cost)
                assert simulate(r, SimConfig(params=params)).completion == \
                    dag_completion(r, params)
                checked += 1
    assert checked == 14 + 2 * (5 + 7)
    _ok(2, f"oracle equivalence ({checked} generator configs, tolerance 0)")


def test_c03_sampling_fidelity():
    """KS distance of 1e5 inverse-ECDF draws vs the source, three fixtures.

    The draws are the engines' own: ``_pick`` maps draw j of a splitmix64
    stream to a sample index.
    """
    m = (1 << 64) - 1
    gamma = 0x9E3779B97F4A7C15

    def unit(i: int, tag: int) -> float:
        return mix64((tag + (i + 1) * gamma) & m) / 2.0**64

    fixtures = {
        "latency-like": EmpiricalDistribution.from_values(
            [1190.0 * (1.0 + 3.0 * unit(i, 0xA)) for i in range(1000)], "ns"),
        "bandwidth-like": EmpiricalDistribution.from_values(
            [90.0 + 7.0 * unit(i, 0xB) for i in range(500)], "gbps"),
        "single-extreme-outlier": EmpiricalDistribution.from_values(
            [1700.0 * (1.0 + 0.2 * unit(i, 0xC)) for i in range(99)]
            + [1700.0 * 10_000], "ns"),
    }
    n = 100_000
    for name, dist in fixtures.items():
        draws = [dist.samples[_pick(0xD, j, dist.count)] for j in range(n)]
        d = ks_distance(draws, dist.samples)
        assert d <= 0.01, (name, d)
    _ok(3, "sampling fidelity (KS <= 0.01 on three fixtures)")


def test_c04_noise_amplification_trend():
    """Two-point latency noise hurts strictly more at every scale step."""
    params = LogGPParams(L=5000, o=1000, g=1000, G=0.0)
    base = float(2 * params.o + params.L)
    dist = EmpiricalDistribution.from_values([base] * 99 + [base * 10.0], "ns")
    ratios = []
    for nranks in (16, 256, 4096, 16384):
        s = gen_dissemination(nranks, 16)
        clean = simulate(s, SimConfig(params=params)).completion
        runs = run_many(
            s, SimConfig(params=params, noise=NoiseModel(latency=dist), seed=0xC4),
            200, workers=WORKERS)
        ratios.append(statistics.fmean(r.completion for r in runs) / clean)
    assert all(b > a for a, b in zip(ratios, ratios[1:])), ratios
    pretty = ", ".join(f"{r:.2f}x" for r in ratios)
    _ok(4, f"noise amplification strictly increasing over P (ratios {pretty})")


def test_c05_ring_os_insensitivity():
    """Short OS detours leave a bandwidth-bound ring essentially untouched."""
    params = LogGPParams(L=1500, o=500, g=0, G=0.32)  # 32 MiB chunk ~= 10.7 ms
    s = gen_ring_allreduce(16, 512 * 2**20, 0)
    clean = simulate(s, SimConfig(params=params)).completion
    assert (s.metadata["chunk_bytes"] - 1) * params.G >= 10e6  # >= 10 ms per step
    detours = DetourTrace(
        tuple((i * 5_000_000, 20_000 + i * 8_000) for i in range(10)),
        span=50_000_000,
    )
    assert max(d for _, d in detours.events) <= 100_000  # detours <= 100 us
    runs = run_many(
        s, SimConfig(params=params, noise=NoiseModel(os=detours), seed=0xC5),
        100, workers=WORKERS)
    mean = statistics.fmean(r.completion for r in runs)
    rel = abs(mean - clean) / clean
    assert rel < 0.02, rel
    _ok(5, f"ring OS-insensitivity (mean shift {rel * 100:.3f}% < 2%)")


def test_c06_bandwidth_noise_sensitivity():
    """Two-point bandwidth noise slows small rings; P=2 mean matches the
    exact expectation over per-message draw assignments."""
    params = LogGPParams(L=1500, o=500, g=0, G=0.08)  # matches 100 Gb/s
    bw = EmpiricalDistribution.from_values([50.0] + [100.0] * 9, "gbps")

    s4 = gen_ring_allreduce(4, 512 * 2**20, 0)
    clean4 = simulate(s4, SimConfig(params=params)).completion
    runs4 = run_many(
        s4, SimConfig(params=params, noise=NoiseModel(bandwidth=bw), seed=0xC6),
        200, workers=WORKERS)
    mean4 = statistics.fmean(r.completion for r in runs4)
    assert mean4 > clean4

    s2 = gen_ring_allreduce(2, 512 * 2**20, 0)
    clean2 = simulate(s2, SimConfig(params=params)).completion
    n_msgs = sum(1 for rank_ops in s2.ops for op in rank_ops if op.kind == "send")
    assert n_msgs == 4
    expected = 0.0
    for combo in product((0.16, 0.08), repeat=n_msgs):  # G for 50 / 100 Gb/s
        prob = 1.0
        for g_eff in combo:
            prob *= 0.1 if g_eff == 0.16 else 0.9
        expected += prob * dag_completion(s2, params,
                                          g_per_message=dict(enumerate(combo)))
    runs2 = run_many(
        s2, SimConfig(params=params, noise=NoiseModel(bandwidth=bw), seed=0xC62),
        10_000, workers=WORKERS)
    mean2 = statistics.fmean(r.completion for r in runs2)
    inc_sim = mean2 / clean2 - 1.0
    inc_exact = expected / clean2 - 1.0
    assert abs(mean2 - expected) / expected <= 0.01, (mean2, expected)
    assert abs(inc_sim - inc_exact) <= 0.01, (inc_sim, inc_exact)
    _ok(6, f"bandwidth-noise sensitivity (P=4 mean +{mean4 / clean4 - 1:.1%}; "
           f"P=2 increase {inc_sim:.4f} vs exact {inc_exact:.4f})")


def test_c07_localhost_validation():
    """Calibrate from a real loopback ping-pong, then simulated vs measured
    4-process 16 B dissemination medians within 15%."""
    from nsim.bench import BenchPlan, EchoServer, pingpong

    with EchoServer() as server:
        small = pingpong(BenchPlan(
            mode="pingpong", size=1, iterations=2500, warmup_iterations=100,
            peer=(server.host, server.port)))
        large_size = 1 << 20
        large = pingpong(BenchPlan(
            mode="pingpong", size=large_size, iterations=100, warmup_iterations=10,
            peer=(server.host, server.port)))
    params = calibrate(small.values, large.values, large_size, o_fraction=0.5)

    schedule = gen_dissemination(4, 16)
    simulated = simulate(schedule, SimConfig(params=params)).completion
    trials = measure_schedule(schedule, warmup=10, iters_per_trial=40, trials=20)
    measured = statistics.median(trials)
    rel = abs(simulated - measured) / measured
    print(f"[c07] params={params} simulated={simulated} ns "
          f"measured median={measured:.0f} ns rel error={rel:.1%}")
    assert rel <= 0.15, (simulated, measured, rel)
    _ok(7, f"localhost validation (relative error {rel:.1%} <= 15%)")


def test_c08_cli_determinism(tmp_path):
    """Two CLI executions with the same seed emit byte-identical JSON."""
    goal_file = tmp_path / "dissem.goal"
    subprocess.run(
        [sys.executable, "-m", "nsim.cli", "gen", "dissem", "-p", "8", "-s", "16",
         "-o", str(goal_file)],
        check=True)
    params_file = tmp_path / "params.json"
    params_file.write_text(json.dumps(
        {"schema": "nsim.params/1", "L_ns": 5000, "o_ns": 1000, "g_ns": 1000,
         "G_ns_per_byte": 0.01}))
    lat_file = tmp_path / "lat.json"
    lat_file.write_text(json.dumps(
        {"schema": "nsim.dist/1", "unit": "ns",
         "samples": [7000.0] * 99 + [70000.0]}))
    cmd = [sys.executable, "-m", "nsim.cli", "sim", "run",
           "--goal", str(goal_file), "--params", str(params_file),
           "--noise-lat", str(lat_file), "--seed", "42", "--reps", "1000"]
    out1 = subprocess.run(cmd, check=True, capture_output=True).stdout
    out2 = subprocess.run(cmd, check=True, capture_output=True).stdout
    strip = lambda b: re.sub(rb'"created": "[^"]*"', b'"created": null', b)
    assert strip(out1) == strip(out2)
    assert out1 != b""
    _ok(8, "CLI determinism (reps=1000 seed=42, byte-identical modulo timestamp)")


def test_c09_cost_identities():
    """run_cost linearity fuzz and exact relative increase."""
    rng = random.Random(0xC9)
    for _ in range(1000):
        price = PriceSpec(per_node_hour=rng.uniform(0.1, 10.0), label="on_demand",
                          provider="fuzz")
        t = rng.randrange(0, 10**15)
        nodes = rng.randrange(1, 20_000)
        k = rng.randrange(1, 9)
        base = run_cost(t, nodes, price)
        assert run_cost(k * t, nodes, price) == pytest.approx(k * base, rel=1e-12)
        assert run_cost(t, k * nodes, price) == pytest.approx(k * base, rel=1e-12)

    def res(c):
        return SimResult(completion=c, per_rank_completion=(c,), draws_used=0)

    for c in (1, 17, 36_000_000_000, 2**40):
        assert relative_increase([res(2 * c)], res(c)) == [1.0]
    _ok(9, "cost identities (1000-case linearity fuzz; 2x runtime -> +1.0 exactly)")


def test_c10_boxplot_partition():
    """Whisker-interior samples plus outliers reconstruct the input multiset."""
    from collections import Counter

    rng = random.Random(0xC10)
    for _ in range(1000):
        n = rng.randrange(1, 120)
        scale = 10 ** rng.randrange(0, 6)
        samples = [rng.gauss(100.0, 30.0) * scale for _ in range(n)]
        if rng.random() < 0.3:  # salt with heavy outliers
            samples += [rng.uniform(1e4, 1e7) * scale for _ in range(rng.randrange(1, 4))]
        stats = box_stats(samples)
        inside = [v for v in samples if stats.whisker_low <= v <= stats.whisker_high]
        assert Counter(inside) + Counter(stats.outliers) == Counter(samples)
        assert stats.whisker_low <= stats.q1 <= stats.median <= stats.q3 \
            <= stats.whisker_high

    s = box_stats([1, 2, 3, 4, 5])
    assert (s.median, s.q1, s.q3, s.iqr) == (3, 2, 4, 2)
    assert (s.whisker_low, s.whisker_high) == (1, 5)
    assert s.outliers == ()
    _ok(10, "boxplot partition property (1000 random sets + reference case)")
