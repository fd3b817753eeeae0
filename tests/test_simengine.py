import hashlib
import random
import statistics
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsim.goal import (
    CALC,
    RECV,
    SEND,
    Schedule,
    ScheduleOp,
    ScheduleValidationError,
    emit_goal,
    gen_compute_collective,
    gen_dissemination,
    gen_ring_allreduce,
    parse_goal,
    schedule_from_json,
    schedule_to_json,
)
from nsim.model import DetourTrace, EmpiricalDistribution, LogGPParams, NoiseModel
from nsim.simengine import (
    DeadlockError,
    SimConfig,
    derive_run_seed,
    mix64,
    run_many,
    simulate,
)
from nsim import goal, simengine
from nsim.simengine import (
    _Compiled,
    _bucket_find,
    _bucket_index,
    _detour_end_vec,
    _detour_tables,
    _detour_tables_vec,
    _detour_window,
    _draws,
    _pick_steps,
    _run,
    _run_batch,
    _steps,
    _use_batch,
)

from oracles import dag_completion, detour_end, detour_end_fixed_point, pick, run_recorded

P1 = LogGPParams(L=5000, o=1000, g=1000, G=0.01)


def two_rank_single_send(size=1):
    return Schedule(nranks=2, ops=(
        (ScheduleOp(0, SEND, 1, size),),
        (ScheduleOp(0, RECV, 0, size),),
    ))


# Digests of the oracle's noisy runs (``run_recorded``): any change to timing,
# draw assignment or rounding that alters a completion, a per-rank completion
# or an op's (start, finish) shows here, and each engine must give the
# oracle's runs. g < o leaves the message gap slack; g > o makes it bind.
_PIN_SCHEDULES = {
    "dissem": lambda: gen_dissemination(12, 64),
    "ring": lambda: gen_ring_allreduce(5, 40_000, reduce_cost_per_chunk=404),
    "compapp": lambda: gen_compute_collective(4, 3333, "ring", 64, 3),
}
_PIN_PARAMS = {
    "g_lt_o": LogGPParams(L=5000, o=1000, g=300, G=0.01),
    "g_gt_o": LogGPParams(L=3000, o=200, g=1500, G=0.37),
}
_PIN_LAT = EmpiricalDistribution.from_values(
    [1500.0, 6900.0, 7000.0, 7400.0, 9100.0, 70000.0], "ns")  # 1500 < 2o clamps
_PIN_BW = EmpiricalDistribution.from_values([12.5, 50.0, 80.0, 100.0], "gbps")
_PIN_OS = DetourTrace(((300, 1200), (4000, 250), (9000, 3000)), span=20_000)
_PIN_NOISE = {
    "lat": NoiseModel(latency=_PIN_LAT),
    "bw": NoiseModel(bandwidth=_PIN_BW),
    "os": NoiseModel(os=_PIN_OS),
    "all": NoiseModel(latency=_PIN_LAT, bandwidth=_PIN_BW, os=_PIN_OS),
}
_PINNED = {
("dissem", "lat", "g_lt_o"): "fcad26a4ac2fab39cd1b8933bef9aca2880ca6b627dbc413909ba79d12452acf",
    ("dissem", "lat", "g_gt_o"): "a76ef42e38d383842b96e546a9e8db7d8acf2ca63ea3ded48f64252e63f683c4",
    ("dissem", "bw", "g_lt_o"): "131cf92c14c5aefc62417dfb34944c1ba740743375a3c11bb1302b4ff36443e0",
    ("dissem", "bw", "g_gt_o"): "ba041a0378a5ea15a63e19591c20dbf9446a13d05fe6cc3955b0ddf45b1c7015",
    ("dissem", "os", "g_lt_o"): "4d08d67e338ca6a0f8fd18dd93cf446d3355d7adf4c2c422223bcbde96850388",
    ("dissem", "os", "g_gt_o"): "01f193d71f037aa23b9162c34870c4b53ab274818a78935f0908eaebeb54c9e4",
    ("dissem", "all", "g_lt_o"): "518b79d71d96852e827724feee415512dbe3ae78282469d858d04a1e56548d14",
    ("dissem", "all", "g_gt_o"): "712a768a14e2f3a606b41e5ebee4f4868abd0ce42dbebcf266415284ab643c3d",
    ("ring", "lat", "g_lt_o"): "37a9c9bf6c4bbaff47c0725f21876df4c25badb58584cd0bd96d0d5e2ba5b6fa",
    ("ring", "lat", "g_gt_o"): "902661884362a3258a3798d24ea0c27a0345f5b2a0c055552e3616db491cc8af",
    ("ring", "bw", "g_lt_o"): "522b421fe343e6eb51040bd29abd1e8c331d7ecbdff014bb5878fcfdc4bea619",
    ("ring", "bw", "g_gt_o"): "a74320d17dde9d2c0fb5522d46b2fbc65a1e585548496bd841789c1c4e3246ca",
    ("ring", "os", "g_lt_o"): "b47c9ef4ea9f6d4d7171c654c532123bd2651d092afb19a8ac7d6eb0d6a6213b",
    ("ring", "os", "g_gt_o"): "c9af466737594060329fefa727e31b3fa656b014b05b296d7745a17712748789",
    ("ring", "all", "g_lt_o"): "4ee94aa420050cad3132007770d5549b97657422ec15e2eb0f504c4ac4d32349",
    ("ring", "all", "g_gt_o"): "ccf59d64060cdbab79826720291d3afd09385605751bfc1de2f6e3cdd5a58c95",
    ("compapp", "lat", "g_lt_o"): "7db800a241d99720753e471f63676b68c108ee203972636d0880e8a2cdf30898",
    ("compapp", "lat", "g_gt_o"): "da4ad3caaf617b207a321d79fdeccbc4ae5e19b7db069361e83d0aa76f7f8f27",
    ("compapp", "bw", "g_lt_o"): "6be28dc98c58fafb65e684db24250e9b9ac47c050866ea54952151f3925fc682",
    ("compapp", "bw", "g_gt_o"): "ec5d2d06c7a9c9eb62705b1f6f95440fd81402eee1d1832ca2ac32a9e3ef6bdb",
    ("compapp", "os", "g_lt_o"): "9acf35d0dc71ed8afb1dfa4eb43fb7f67fbf8b4cca0b31819ef406ff5cad8049",
    ("compapp", "os", "g_gt_o"): "c09c0d29bf61bf92000db8fa1e9fdb12cda259f2caaf1760d6d43f7231dd43bc",
    ("compapp", "all", "g_lt_o"): "6ca9c65749e2750f8e7797c847e131439dbf3722cdcc5fa0528b00e282f89622",
    ("compapp", "all", "g_gt_o"): "5c53fb02b841ca5ade4299f687dc656225354b7b3c7530b46010f7ec4d4c606d",
}


def _pinned_runs(key):
    """The pinned schedule, its config and the oracle's 4 runs, once the
    digest of those runs is checked."""
    schedule, noise, params = key
    s = _PIN_SCHEDULES[schedule]()
    cfg = SimConfig(params=_PIN_PARAMS[params], noise=_PIN_NOISE[noise], seed=2024)
    c = _Compiled(s)
    recorded = [run_recorded(c, cfg, i) for i in range(4)]
    blob = repr([(r.completion, r.per_rank_completion, times) for r, times in recorded])
    assert hashlib.sha256(blob.encode()).hexdigest() == _PINNED[key]
    return s, cfg, [r for r, _ in recorded]


@pytest.mark.parametrize("key", list(_PINNED), ids="-".join)
def test_pinned_noisy_results(key):
    # The pinned shapes are narrow, so run_many sends them to _run.
    s, cfg, want = _pinned_runs(key)
    assert run_many(s, cfg, 4) == want


@pytest.mark.parametrize("key", list(_PINNED), ids="-".join)
def test_pinned_noisy_results_batch_engine(key):
    s, cfg, want = _pinned_runs(key)
    assert _run_batch(_Compiled(s), cfg, range(4)) == want


class TestSingleMessage:
    def test_one_byte_completion(self):
        params = LogGPParams(L=5000, o=1000, g=0, G=0.0)
        r = simulate(two_rank_single_send(), SimConfig(params=params))
        assert r.completion == 7000
        assert r.per_rank_completion == (1000, 7000)

    def test_matches_closed_form_for_sizes(self):
        from nsim.model import message_time
        params = LogGPParams(L=1234, o=77, g=300, G=0.7)
        for size in (1, 2, 1000, 999_999):
            r = simulate(two_rank_single_send(size), SimConfig(params=params))
            assert r.completion == message_time(params, size)


class TestOracleEquivalence:
    @pytest.mark.parametrize("nranks", [2, 3, 4, 8, 16])
    def test_dissemination(self, nranks):
        s = gen_dissemination(nranks, 16)
        assert simulate(s, SimConfig(params=P1)).completion == dag_completion(s, P1)

    @pytest.mark.parametrize("nranks", [2, 3, 4, 8])
    def test_ring(self, nranks):
        s = gen_ring_allreduce(nranks, 64 * nranks, reduce_cost_per_chunk=404)
        assert simulate(s, SimConfig(params=P1)).completion == dag_completion(s, P1)

    @pytest.mark.parametrize("pattern", ["dissemination", "ring"])
    def test_compute_collective(self, pattern):
        s = gen_compute_collective(4, 3333, pattern, 64, 3)
        assert simulate(s, SimConfig(params=P1)).completion == dag_completion(s, P1)

    def test_g_larger_than_o(self):
        params = LogGPParams(L=100, o=10, g=400, G=0.0)
        s = gen_dissemination(8, 16)
        assert simulate(s, SimConfig(params=params)).completion == dag_completion(s, params)

    def test_512mib_ring_dominated_by_byte_gaps(self):
        params = LogGPParams(L=1500, o=500, g=0, G=0.08)
        s = gen_ring_allreduce(4, 512 * 2**20, 0)
        r = simulate(s, SimConfig(params=params))
        assert r.completion == dag_completion(s, params)
        floor_bound = 6 * (2**27 - 1) * 0.08  # 2(P-1) chunk transfers back to back
        assert floor_bound < r.completion < floor_bound * 1.01


class TestComputeCollectiveTiming:
    def test_zero_comp_single_iteration_equals_bare_collective(self):
        bare = gen_dissemination(4, 16)
        wrapped = gen_compute_collective(4, 0, "dissemination", 16, 1)
        cfg = SimConfig(params=P1)
        assert simulate(wrapped, cfg).completion == simulate(bare, cfg).completion


class TestDeterminism:
    def test_same_seed_same_results(self):
        s = gen_dissemination(8, 16)
        dist = EmpiricalDistribution.from_values([7000.0] * 9 + [70000.0], "ns")
        cfg = SimConfig(params=P1, noise=NoiseModel(latency=dist), seed=42)
        a = run_many(s, cfg, 50)
        b = run_many(s, cfg, 50)
        assert a == b

    def test_workers_do_not_change_results(self):
        s = gen_dissemination(8, 16)
        dist = EmpiricalDistribution.from_values([7000.0] * 9 + [70000.0], "ns")
        cfg = SimConfig(params=P1, noise=NoiseModel(latency=dist), seed=7)
        assert run_many(s, cfg, 20, workers=1) == run_many(s, cfg, 20, workers=2)

    def test_noiseless_runs_identical_and_draw_free(self):
        s = gen_dissemination(4, 16)
        results = run_many(s, SimConfig(params=P1, seed=3), 5)
        assert len({r.completion for r in results}) == 1
        assert all(r.draws_used == 0 for r in results)

    def test_different_seeds_differ(self):
        s = gen_dissemination(16, 16)
        dist = EmpiricalDistribution.from_values([7000.0] * 2 + [70000.0], "ns")
        r1 = simulate(s, SimConfig(params=P1, noise=NoiseModel(latency=dist), seed=1))
        r2 = simulate(s, SimConfig(params=P1, noise=NoiseModel(latency=dist), seed=2))
        assert r1.completion != r2.completion

    def test_simulate_equals_first_of_run_many(self):
        s = gen_dissemination(4, 16)
        dist = EmpiricalDistribution.from_values([7000.0, 7100.0, 9000.0], "ns")
        cfg = SimConfig(params=P1, noise=NoiseModel(latency=dist), seed=11)
        assert simulate(s, cfg) == run_many(s, cfg, 3)[0]

    def test_mix64_is_stable(self):
        # pinned so the documented stream derivation cannot silently change
        assert mix64(0) == 0
        assert mix64(1) == 6238072747940578789
        assert derive_run_seed(42, 0) != derive_run_seed(42, 1)


class TestLatencyNoise:
    def test_draw_replaces_two_o_plus_L(self):
        # draw of exactly 2o+L reproduces the noiseless timeline
        base = 2 * P1.o + P1.L
        dist = EmpiricalDistribution((float(base),), "ns")
        s = gen_dissemination(4, 16)
        noisy = simulate(s, SimConfig(params=P1, noise=NoiseModel(latency=dist), seed=5))
        # G is nonzero, and latency draws must not disturb the (s-1)G term
        clean = simulate(s, SimConfig(params=P1))
        assert noisy.completion == clean.completion

    def test_min_at_base_never_speeds_up(self):
        base = 2 * P1.o + P1.L
        dist = EmpiricalDistribution.from_values(
            [float(base)] * 9 + [float(base) * 4], "ns")
        s = gen_dissemination(8, 16)
        clean = simulate(s, SimConfig(params=P1)).completion
        for seed in range(10):
            noisy = simulate(
                s, SimConfig(params=P1, noise=NoiseModel(latency=dist), seed=seed))
            assert noisy.completion >= clean
            assert all(a >= b for a, b in zip(noisy.per_rank_completion,
                                              simulate(s, SimConfig(params=P1)).per_rank_completion))

    def test_draw_below_two_o_clamps_wire_to_zero(self):
        params = LogGPParams(L=5000, o=1000, g=0, G=0.0)
        dist = EmpiricalDistribution((500.0,), "ns")  # below 2o
        r = simulate(two_rank_single_send(),
                     SimConfig(params=params, noise=NoiseModel(latency=dist)))
        assert r.completion == 2 * params.o  # wire floor at 0

    def test_amplification_grows_with_scale(self):
        base = 2 * P1.o + P1.L
        dist = EmpiricalDistribution.from_values(
            [float(base)] * 99 + [float(base) * 10], "ns")
        ratios = []
        for nranks in (16, 256):
            s = gen_dissemination(nranks, 16)
            clean = simulate(s, SimConfig(params=P1)).completion
            runs = run_many(s, SimConfig(params=P1, noise=NoiseModel(latency=dist),
                                         seed=99), 40)
            ratios.append(statistics.fmean(r.completion for r in runs) / clean)
        assert ratios[1] > ratios[0] > 1.0

    def test_draws_counted(self):
        s = gen_dissemination(4, 16)  # 4 ranks x 2 rounds = 8 sends
        dist = EmpiricalDistribution((7000.0,), "ns")
        bw = EmpiricalDistribution((100.0,), "gbps")
        r = simulate(s, SimConfig(params=P1, noise=NoiseModel(latency=dist)))
        assert r.draws_used == 8
        r = simulate(s, SimConfig(params=P1, noise=NoiseModel(latency=dist, bandwidth=bw)))
        assert r.draws_used == 16


class TestBandwidthNoise:
    def test_constant_full_rate_matches_plain_G(self):
        params = LogGPParams(L=1500, o=500, g=0, G=0.08)
        bw = EmpiricalDistribution((100.0,), "gbps")  # 8/100 = 0.08 ns/B
        s = gen_ring_allreduce(4, 4096, 0)
        noisy = simulate(s, SimConfig(params=params, noise=NoiseModel(bandwidth=bw)))
        assert noisy.completion == simulate(s, SimConfig(params=params)).completion

    def test_half_rate_slows_run(self):
        params = LogGPParams(L=1500, o=500, g=0, G=0.08)
        bw = EmpiricalDistribution((50.0,), "gbps")
        s = gen_ring_allreduce(4, 1 << 20, 0)
        noisy = simulate(s, SimConfig(params=params, noise=NoiseModel(bandwidth=bw)))
        assert noisy.completion > simulate(s, SimConfig(params=params)).completion


class TestOsNoise:
    def test_detour_end_against_fixed_point_oracle(self):
        trace = DetourTrace(((100, 50), (400, 200), (900, 30)), span=1000)
        tables = _detour_tables(trace)
        for phase in (0, 17, 333, 999):
            for start in (0, 50, 120, 950, 12345):
                for dur in (0, 1, 10, 260, 1000, 5000):
                    got = _detour_window(start, dur, phase, tables)[0]
                    want = detour_end_fixed_point(start, dur, phase, trace)
                    assert got == want, (start, dur, phase)

    def test_zero_duration_never_extended(self):
        trace = DetourTrace(((0, 999),), span=1000)
        assert _detour_window(500, 0, 0, _detour_tables(trace))[0] == 500

    def test_calc_extended_by_detour(self):
        # detour of 100 at offset 50; calc [0, 80) overlaps 30 of it, extension
        # re-checks until the full remaining detour is absorbed
        trace = DetourTrace(((50, 100),), span=10_000)
        params = LogGPParams(L=0, o=0, g=0, G=0.0)
        s = Schedule(nranks=1, ops=((ScheduleOp(0, CALC, None, 80),),))
        # phase 0 means pattern position == absolute time
        got = _detour_window(0, 80, 0, _detour_tables(trace))[0]
        assert got == 180  # 80 of work, last 30 pushed past the 100-long detour
        r = simulate(s, SimConfig(params=params, noise=NoiseModel(
            os=trace), seed=0))
        assert r.completion in (80, 180)  # depends on the random phase

    def test_phases_vary_across_ranks_and_runs(self):
        trace = DetourTrace(((0, 5_000),), span=100_000)
        params = LogGPParams(L=100, o=2000, g=0, G=0.0)
        s = gen_dissemination(8, 16)
        results = run_many(s, SimConfig(params=params, noise=NoiseModel(os=trace),
                                        seed=4), 30)
        assert len({r.completion for r in results}) > 3

    def test_bandwidth_bound_ring_insensitive_to_short_detours(self):
        params = LogGPParams(L=1500, o=500, g=0, G=0.32)
        s = gen_ring_allreduce(4, 128 * 2**20, 0)  # 32 MiB chunks, ~10ms steps
        clean = simulate(s, SimConfig(params=params)).completion
        trace = DetourTrace(
            tuple((i * 2_500_000, 50_000) for i in range(40)), span=100_000_000)
        runs = run_many(s, SimConfig(params=params, noise=NoiseModel(os=trace),
                                     seed=12), 20)
        mean = statistics.fmean(r.completion for r in runs)
        assert abs(mean - clean) / clean < 0.02

    @pytest.mark.parametrize("batched", [False, True], ids=["per_op", "batch"])
    def test_run_leaves_the_trace_as_built(self, batched):
        # The idle-time tables are built afresh for each run, never kept on the trace.
        trace = DetourTrace(((100, 50), (400, 200)), span=1000)
        with mock.patch.object(simengine, "_use_batch", return_value=batched):
            run_many(gen_dissemination(4, 16), SimConfig(params=P1, noise=NoiseModel(
                os=trace)), 3)
        assert vars(trace) == {"events": ((100, 50), (400, 200)), "span": 1000}
        assert _detour_tables(trace) == _detour_tables(trace)


class TestErrors:
    def test_unmatched_messages_rejected(self):
        s = Schedule(nranks=2, ops=((ScheduleOp(0, SEND, 1, 4),), ()))
        with pytest.raises(ScheduleValidationError):
            simulate(s, SimConfig(params=P1))

    def test_head_of_line_deadlock(self):
        text = (
            "num_ranks 2\n"
            "rank 0 { a: recv 4b from 1\n b: send 4b to 1 }\n"
            "rank 1 { a: recv 4b from 0\n b: send 4b to 0 }\n"
        )
        s = parse_goal(text)  # valid multisets, but both ranks wait first
        with pytest.raises(DeadlockError) as err:
            simulate(s, SimConfig(params=P1))
        assert len(err.value.blocked) == 4

    def test_forward_requires_deadlock_message(self):
        # a requires b, but b follows a on the rank: a cycle through program
        # order. It is a violation naming a, found before any run, and no
        # deadlock: DeadlockError is left to recvs that wait forever.
        s = Schedule(nranks=1, ops=((
            ScheduleOp(0, CALC, None, 5, frozenset({1})),
            ScheduleOp(1, CALC, None, 5),
        ),))
        entry = ("rank 0 op 0: requires op(s) [1] at or after it, a dependency cycle "
                 "through program order")
        with pytest.raises(ScheduleValidationError) as err:
            simulate(s, SimConfig(params=P1))
        assert err.value.violations == goal.validate(s) == [entry]
        assert str(err.value) == entry

    def test_zero_reps_rejected(self):
        with pytest.raises(ValueError):
            run_many(gen_dissemination(2, 1), SimConfig(params=P1), 0)


class TestRecording:
    def test_per_op_times(self):
        params = LogGPParams(L=5000, o=1000, g=0, G=0.0)
        s = two_rank_single_send()
        cfg = SimConfig(params=params)
        _, times = run_recorded(_Compiled(s), cfg, 0)
        assert times[0][0] == (0, 1000)
        assert times[1][0] == (6000, 7000)
        assert simulate(s, cfg).per_rank_completion == (1000, 7000)

    def test_completion_is_max_of_per_rank(self):
        s = gen_ring_allreduce(5, 100, 9)
        r = simulate(s, SimConfig(params=P1))
        assert r.completion == max(r.per_rank_completion)


# ---------------------------------------------------------------------------
# The batch engine against the per-op engine

@st.composite
def valid_schedules(draw):
    """Random deadlock-free schedules: sends, recvs, calcs and backward requires.

    Ops are appended in one global order in which every recv follows its send
    (a recv waits in ``pending`` for a random number of steps), so that order
    is a valid execution order.
    """
    nranks = draw(st.integers(1, 5))
    ops: list[list[ScheduleOp]] = [[] for _ in range(nranks)]
    pending: list[tuple[int, str, int, int]] = []  # recvs not yet posted

    def append(r, kind, peer, size):
        i = len(ops[r])
        requires = draw(st.sets(st.integers(0, i - 1), max_size=2)) if i else set()
        ops[r].append(ScheduleOp(i, kind, peer, size, frozenset(requires)))

    for _ in range(draw(st.integers(0, 24))):
        action = draw(st.sampled_from(("calc", "send", "recv")))
        if action == "recv" and pending:
            append(*pending.pop(draw(st.integers(0, len(pending) - 1))))
        elif action == "send" and nranks > 1:
            src, dst = draw(st.lists(st.integers(0, nranks - 1), min_size=2, max_size=2,
                                     unique=True))
            size = draw(st.sampled_from((1, 16, 4096, 70_000)))
            append(src, SEND, dst, size)
            pending.append((dst, RECV, src, size))
        else:
            append(draw(st.integers(0, nranks - 1)), CALC, None,
                   draw(st.sampled_from((0, 1, 404, 3333, 25_000))))
    for r, kind, peer, size in pending:
        append(r, kind, peer, size)
    return Schedule(nranks=nranks, ops=tuple(map(tuple, ops)))


_NOISE_MIXES = {
    "clean": NoiseModel(),
    "lat": NoiseModel(latency=_PIN_LAT),
    "bw": NoiseModel(bandwidth=_PIN_BW),
    "os": NoiseModel(os=_PIN_OS),
    "lat+os": NoiseModel(latency=_PIN_LAT, os=_PIN_OS),
    "bw+os": NoiseModel(bandwidth=_PIN_BW, os=_PIN_OS),
    "all": _PIN_NOISE["all"],
    # Touching events give equal idle_to entries; the clustered events share
    # one bucket in both of the batch engine's bucket indexes.
    "os_adjacent": NoiseModel(os=DetourTrace(
        ((300, 700), (1000, 1200), (2200, 50), (9000, 3000), (12000, 100)), span=20_000)),
    "os_clustered": NoiseModel(latency=_PIN_LAT, os=DetourTrace(
        tuple((5120 + 16 * i, 10) for i in range(24)), span=20_000)),
    # A detour every 300 ns: most occupancies leave their rank's idle window.
    "os_dense": NoiseModel(bandwidth=_PIN_BW, os=DetourTrace(
        tuple((300 * i + 50, 100) for i in range(64)), span=19_200)),
}


def _assert_python_ints(runs, per_op_times=()):
    for r in runs:
        assert type(r.completion) is int and type(r.draws_used) is int
        assert all(type(v) is int for v in r.per_rank_completion)
    assert all(type(v) is int for times in per_op_times for rank in times
               for pair in rank for v in pair)


@settings(max_examples=300, deadline=None)
@given(schedule=valid_schedules(), noise=st.sampled_from(sorted(_NOISE_MIXES)),
       params=st.sampled_from(sorted(_PIN_PARAMS)), seed=st.integers(0, 2**64 - 1),
       reps=st.integers(1, 9), chunk_bytes=st.integers(1, 4000))
def test_batch_engine_matches_per_op_engine(schedule, noise, params, seed, reps,
                                            chunk_bytes):
    # chunk_bytes from 1 (a chunk per rep) up to chunks larger than ``reps``
    # puts chunk boundaries at every position within the reps.
    c = _Compiled(schedule)
    cfg = SimConfig(params=_PIN_PARAMS[params], noise=_NOISE_MIXES[noise], seed=seed)
    recorded = [run_recorded(c, cfg, i) for i in range(reps)]
    want = [r for r, _ in recorded]
    assert _run(c, cfg, range(reps)) == want
    with mock.patch.object(simengine, "_CHUNK_BYTES", chunk_bytes):
        got = _run_batch(c, cfg, range(reps))
    assert got == want
    _assert_python_ints(got, [times for _, times in recorded])
    assert max(r.completion for r in want) <= c.time_bound(cfg)


@pytest.mark.parametrize("workers", [1, 2])
def test_batch_engine_through_run_many(workers):
    s = gen_compute_collective(4, 3333, "ring", 64, 3)
    cfg = SimConfig(params=_PIN_PARAMS["g_gt_o"], noise=_PIN_NOISE["all"], seed=99)
    c = _Compiled(s)
    want = _run(c, cfg, range(7))
    # No op-run minimum makes every schedule batched; 3 KB chunks split the 7
    # reps unevenly.
    with mock.patch.object(simengine, "_BATCH_K", 0), \
            mock.patch.object(simengine, "_BATCH_MIN_OP_RUNS", 0), \
            mock.patch.object(simengine, "_CHUNK_BYTES", 3000):
        assert _use_batch(c, cfg, 1)
        got = run_many(s, cfg, 7, workers=workers)
    assert got == want
    _assert_python_ints(got)


class TestBatchDispatch:
    def test_wide_schedule_is_batched_and_chain_is_not(self):
        cfg = SimConfig(params=P1, noise=_PIN_NOISE["all"])
        wide = _Compiled(gen_dissemination(256, 16))
        assert _use_batch(wide, cfg, 100)
        chain = _Compiled(gen_compute_collective(8, 100_000, "ring", 65536, 100))
        assert not _use_batch(chain, cfg, 4)
        assert not _use_batch(wide, cfg, 1)  # too few op-runs to import numpy for

    @pytest.mark.parametrize("size, batched", [(5, True), (2**63, False)])
    def test_time_bound_beyond_int64_stays_per_op(self, size, batched):
        # 64 independent calcs form one level, so the schedule is wide; a
        # 2**63 ns calc would wrap in int64.
        s = Schedule(nranks=64, ops=tuple(
            (ScheduleOp(0, CALC, None, size if r == 0 else 5),) for r in range(64)))
        cfg = SimConfig(params=P1)
        c = _Compiled(s)
        assert (c.time_bound(cfg) >= 2**63) == (size == 2**63)
        with mock.patch.object(simengine, "_BATCH_MIN_OP_RUNS", 0):
            assert _use_batch(c, cfg, 2) == batched
            runs = run_many(s, cfg, 2)
        assert [r.completion for r in runs] == [size, size]
        assert type(runs[0].completion) is int

    def test_time_bound_covers_detours_and_heavy_tails(self):
        trace = DetourTrace(((0, 999),), span=1000)  # 1 idle ns per 1000
        cfg = SimConfig(params=P1, noise=NoiseModel(os=trace, latency=_PIN_LAT))
        s = gen_dissemination(8, 4096)
        runs = run_many(s, cfg, 5)
        assert max(r.completion for r in runs) <= _Compiled(s).time_bound(cfg)


@pytest.mark.parametrize("noise", sorted(_NOISE_MIXES))
def test_batch_chunk_working_set_within_budget(noise):
    import tracemalloc

    # numpy reports its buffers to tracemalloc. 300 reps of a 64-rank
    # dissemination span three chunks; what a chunk holds beyond the results
    # it returns, the wire-delay draws included, stays within _CHUNK_BYTES.
    c = _Compiled(gen_dissemination(64, 16))
    cfg = SimConfig(params=P1, noise=_NOISE_MIXES[noise], seed=5)
    _run_batch(c, cfg, range(1))  # numpy's own first-call allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        runs = _run_batch(c, cfg, range(300))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(runs) == 300
    assert peak - kept <= simengine._CHUNK_BYTES, (peak - base, kept - base)


# ---------------------------------------------------------------------------
# Vector kernels of the batch engine

@pytest.mark.parametrize("count", [1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1])
def test_pick_vec_matches_pick(count):
    import numpy as np

    seeds = [0, 1, 2**63, 2**64 - 1, 0x243F6A8885A308D3]
    counters = [0, 1, 7, 2**20, 2**40]
    got = _pick_steps(np.array(seeds, dtype=np.uint64), _steps(counters), count).tolist()
    assert got == [[pick(s, i, count) for s in seeds] for i in counters]


@st.composite
def sorted_keys(draw):
    """Sorted int64 keys in [0, hi] and hi: spread, duplicated or clustered in
    one bucket, possibly with keys at both ends of the range."""
    hi = draw(st.one_of(st.integers(1, 100), st.integers(1, 2**62)))
    lo = draw(st.integers(0, hi))
    width = draw(st.sampled_from((0, 1, 7, hi)))
    keys = draw(st.lists(st.integers(lo, min(hi, lo + width)), max_size=64))
    keys += draw(st.sets(st.sampled_from((0, hi - 1, hi))))
    return sorted(keys), hi


def _assert_bucket_lookup(keys, hi):
    import numpy as np

    index = _bucket_index(keys, hi)
    assert len(index[2]) <= len(keys).bit_length()  # no more steps than a bisection
    xs = {0, hi - 1} | {k + d for k in keys for d in (-1, 0, 1)}
    x = np.array(sorted(v for v in xs if 0 <= v < hi), dtype=np.int64)
    arr = np.array(keys, dtype=np.int64)
    assert _bucket_find(index, x).tolist() == np.searchsorted(arr, x, side="right").tolist()
    # side="left" at x + 1 is side="right" at x on integers
    assert _bucket_find(index, x).tolist() == np.searchsorted(arr, x + 1, side="left").tolist()


@settings(max_examples=400, deadline=None)
@given(case=sorted_keys())
def test_bucket_lookup_matches_searchsorted(case):
    _assert_bucket_lookup(*case)


_BUCKET_CASES = [
    ([], 1), ([], 5), ([0], 1), ([1], 1), ([3], 10), ([0, 9], 10), ([0, 0, 10, 10], 10),
    ([7] * 33, 2**40), (list(range(100, 164)), 2**62), ([2**62 - 1, 2**62], 2**62),
]


@pytest.mark.parametrize("keys, hi", _BUCKET_CASES, ids=range(len(_BUCKET_CASES)))
def test_bucket_lookup_edge_cases(keys, hi):
    _assert_bucket_lookup(keys, hi)


def test_bucket_index_steps_follow_the_fullest_bucket():
    spread = [i * 1000 + 17 for i in range(2000)]
    assert len(_bucket_index(spread, 2_000_000)[2]) == 1
    clustered = _NOISE_MIXES["os_clustered"].os
    starts_index, *_, idle_index, _, _ = _detour_tables_vec(clustered)
    assert len(starts_index[2]) == len(idle_index[2]) == (24).bit_length()


_VEC_TRACES = [
    DetourTrace(((100, 50), (400, 200), (900, 30)), span=1000),
    _NOISE_MIXES["os_adjacent"].os,
    _NOISE_MIXES["os_clustered"].os,
    DetourTrace(((0, 10), (10, 5), (990, 10)), span=1000),  # touching, at both ends
    DetourTrace(((3, 1),), span=7),
    DetourTrace(((2**32 - 5, 40), (2**33 + 17, 3000)), span=3 * 2**32),
    DetourTrace(((0, 999),), span=1000),  # 1 ns idle per span
]


@pytest.mark.parametrize("trace", _VEC_TRACES, ids=range(len(_VEC_TRACES)))
def test_detour_end_vec_matches_fixed_point(trace):
    import numpy as np

    span = trace.span
    rng = random.Random(span)
    # Up to three spans' worth of work, but within at most 12 spans: the
    # oracle re-scans every span an occupancy crosses on each extension.
    dur_max = 3 * min(span, 4 * (span - trace.total_detour))
    cases = []
    for _ in range(150):
        cases.append((rng.randrange(3 * span), rng.choice((0, 1, rng.randrange(dur_max))),
                      rng.randrange(span)))
    for (s, d), phase in zip(trace.events, (0, 1, span - 1)):
        # start inside a detour, zero-length ops, and ends exactly on an event start
        cases += [(s - phase + span + d // 2, 0, phase), (s - phase + span, 3, phase),
                  (s - phase + span - 4, 4, phase), (s - phase + span + d, 1, phase)]
    t, dur, phase = (np.array(col, dtype=np.int64) for col in zip(*cases))
    tables = _detour_tables(trace)
    got = _detour_end_vec(t, dur, phase, _detour_tables_vec(trace)).tolist()
    for (ti, di, pi), g in zip(cases, got):
        assert detour_end(ti, di, pi, tables) == g, (ti, di, pi)
        assert g == detour_end_fixed_point(ti, di, pi, trace), (ti, di, pi)


@settings(max_examples=400, deadline=None)
@given(trace=st.sampled_from(_VEC_TRACES), data=st.data())
def test_detour_window_matches_oracle(trace, data):
    # The per-op engine ends an occupancy that lies inside its rank's window
    # at t + dur, with no lookup: every such occupancy must be detour-free.
    span, idle = trace.span, trace.span - trace.total_detour
    tables = _detour_tables(trace)
    phase = data.draw(st.one_of(st.sampled_from((0, 1, span - 1)), st.integers(0, span - 1)))
    edges = [s - phase + span * c + e for s, d in trace.events for e in (-1, 0, d, d + 1)
             for c in (0, 1)]
    t = data.draw(st.one_of(st.sampled_from([x for x in edges if x >= 0] or [0]),
                            st.integers(0, 3 * span)))
    dur = data.draw(st.one_of(st.sampled_from((0, 1, idle, idle + 1)),
                              st.integers(0, 3 * min(span, 4 * idle))))
    end, lo, hi = _detour_window(t, dur, phase, tables)
    assert end == detour_end(t, dur, phase, tables)
    if dur == 0:
        assert (end, lo, hi) == (t, t, t)
        return
    assert lo < end <= hi  # the last ns of the occupancy lies in the window
    t2 = data.draw(st.one_of(st.sampled_from((lo, hi)), st.integers(lo, hi)))
    d2 = data.draw(st.one_of(st.sampled_from((0, hi - t2)), st.integers(0, hi - t2)))
    assert detour_end_fixed_point(t2, d2, phase, trace) == t2 + d2


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 40),
       count=st.one_of(st.sampled_from((1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1)),
                       st.integers(1, 2**64 - 1)))
def test_draws_match_pick(seed, n, count):
    assert _draws(seed, n, count) == [pick(seed, i, count) for i in range(n)]


def test_schedule_compiles_once_across_calls(monkeypatch):
    compiles = []

    class Counted(_Compiled):
        __slots__ = ()

        def __init__(self, schedule):
            compiles.append(schedule)
            super().__init__(schedule)

    monkeypatch.setattr(simengine, "_Compiled", Counted)
    s = gen_dissemination(8, 16)
    cfg = SimConfig(params=P1, noise=_PIN_NOISE["all"], seed=3)
    clean = simulate(s, SimConfig(params=P1))
    runs = run_many(s, cfg, 5)
    assert run_many(s, cfg, 5, workers=2) == runs
    assert simulate(s, cfg) == runs[0]
    assert len(compiles) == 1
    assert clean.completion == dag_completion(s, P1)


@pytest.mark.parametrize("load", [schedule_from_json, parse_goal])
def test_messages_are_paired_once_per_schedule(monkeypatch, load):
    # One walk pairs the messages and levels the ops; _violations only
    # names the faults of a schedule that the walk rejects.
    walks, diagnoses = [], []
    real_walk, real_diagnose = goal._walk, goal._violations
    monkeypatch.setattr(goal, "_walk", lambda s: walks.append(s) or real_walk(s))
    monkeypatch.setattr(goal, "_violations", lambda s: diagnoses.append(s) or real_diagnose(s))
    text = (schedule_to_json if load is schedule_from_json else emit_goal)(
        gen_dissemination(8, 16))
    s = load(text)
    cfg = SimConfig(params=P1, noise=_PIN_NOISE["all"], seed=3)
    clean = simulate(s, SimConfig(params=P1))
    runs = run_many(s, cfg, 5)
    assert run_many(s, cfg, 5, workers=2) == runs
    assert len(walks) == 1 and diagnoses == []
    # A second compile of the same schedule shares the walk's columns.
    c = _Compiled(s)
    assert len(walks) == 1
    assert c.by_level is s._compiled.by_level and c.msg is s._compiled.msg
    assert _run(c, cfg, range(5)) == runs
    assert clean.completion == dag_completion(s, P1)


def test_unmatched_constructed_schedule_fails_on_every_call():
    s = Schedule(nranks=2, ops=((ScheduleOp(0, SEND, 1, 4),), ()))
    for _ in range(2):
        with pytest.raises(ScheduleValidationError, match="unmatched"):
            simulate(s, SimConfig(params=P1))
    with pytest.raises(ScheduleValidationError):
        run_many(s, SimConfig(params=P1), 3)
