import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsim.model import (
    DegenerateCalibrationWarning,
    DetourTrace,
    EmpiricalDistribution,
    LogGPParams,
    NoiseModel,
    bandwidth_to_G,
    calibrate,
    message_time,
)
from nsim.simengine import _GAMMA, _M64, _draws, mix64

from oracles import ks_distance, pick


class TestLogGPParams:
    def test_accepts_either_gap_ordering(self):
        LogGPParams(L=1, o=5, g=2, G=0.0)
        LogGPParams(L=1, o=2, g=5, G=0.0)

    @pytest.mark.parametrize("kwargs", [
        dict(L=-1, o=0, g=0, G=0.0),
        dict(L=0, o=-1, g=0, G=0.0),
        dict(L=0, o=0, g=-1, G=0.0),
        dict(L=0, o=0, g=0, G=-0.5),
    ])
    def test_rejects_negative(self, kwargs):
        with pytest.raises(ValueError):
            LogGPParams(**kwargs)

    def test_rejects_fractional_times(self):
        with pytest.raises(ValueError):
            LogGPParams(L=1.5, o=0, g=0, G=0.0)

    @pytest.mark.parametrize("G", [math.inf, math.nan, None, "0.5", True])
    def test_rejects_non_finite_or_non_numeric_G(self, G):
        with pytest.raises(ValueError):
            LogGPParams(L=0, o=0, g=0, G=G)

    @pytest.mark.parametrize("G", [10**400, -10**400])
    def test_rejects_G_beyond_the_float_range(self, G):
        with pytest.raises(ValueError, match="G must be finite"):
            LogGPParams(L=0, o=0, g=0, G=G)

    @pytest.mark.parametrize("name", ["L", "o", "g"])
    def test_times_fit_in_int64(self, name):
        zero = dict(L=0, o=0, g=0, G=0.0)
        assert getattr(LogGPParams(**{**zero, name: 2**63 - 1}), name) == 2**63 - 1
        for v in (2**63, 10**400):
            with pytest.raises(ValueError, match="signed 64-bit"):
                LogGPParams(**{**zero, name: v})


class TestMessageTime:
    def test_one_byte(self):
        p = LogGPParams(L=5000, o=1000, g=0, G=0.01)
        assert message_time(p, 1) == 7000

    def test_large_message(self):
        p = LogGPParams(L=5000, o=1000, g=0, G=0.01)
        assert message_time(p, 1_000_001) == 17000

    def test_all_zero_params(self):
        p = LogGPParams(L=0, o=0, g=0, G=0.0)
        for size in (1, 7, 10**9):
            assert message_time(p, size) == 0

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            message_time(LogGPParams(L=0, o=0, g=0, G=0.0), 0)

    def test_rounding_half_up(self):
        # (size-1)*G = 4.5 rounds up
        p = LogGPParams(L=0, o=0, g=0, G=1.5)
        assert message_time(p, 4) == 5

    @settings(max_examples=200, deadline=None)
    @given(
        L=st.integers(0, 10**6), o=st.integers(0, 10**5), G=st.floats(0, 10.0),
        size=st.integers(1, 2**30), bump=st.integers(1, 1000),
    )
    def test_nondecreasing_in_every_argument(self, L, o, G, size, bump):
        base = message_time(LogGPParams(L=L, o=o, g=0, G=G), size)
        assert message_time(LogGPParams(L=L + bump, o=o, g=0, G=G), size) >= base
        assert message_time(LogGPParams(L=L, o=o + bump, g=0, G=G), size) >= base
        assert message_time(LogGPParams(L=L, o=o, g=0, G=G + 1.0), size) >= base
        assert message_time(LogGPParams(L=L, o=o, g=0, G=G), size + bump) >= base


class TestEmpiricalDistribution:
    def test_sorts_and_preserves_multiset(self):
        d = EmpiricalDistribution.from_values([3.0, 1.0, 2.0, 1.0], "ns")
        assert d.samples == (1.0, 1.0, 2.0, 3.0)
        assert d.count == 4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution((), "ns")

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution((2.0, 1.0), "ns")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            EmpiricalDistribution.from_values([1.0, bad], "ns_per_byte")

    def test_rejects_sample_beyond_the_float_range(self):
        with pytest.raises(ValueError, match="samples must be finite numbers"):
            EmpiricalDistribution((7000.0, 10**400), "ns")
        with pytest.raises(ValueError, match="samples must be finite numbers"):
            EmpiricalDistribution.from_values([7000.0, 10**400], "ns")

    def test_rejects_nonpositive_latency_or_rate(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution((0.0, 1.0), "ns")
        with pytest.raises(ValueError):
            EmpiricalDistribution((-1.0, 5.0), "gbps")
        # a per-byte gap of zero is fine
        EmpiricalDistribution((0.0, 0.5), "ns_per_byte")


def _unshift(z: int, s: int) -> int:
    """The x with x ^ (x >> s) == z."""
    x = z
    for _ in range(64 // s):
        x = z ^ (x >> s)
    return x


def _seed_drawing(u: int) -> int:
    """The stream seed whose draw 0 is the 64-bit uniform ``u`` (mix64 inverted)."""
    z = _unshift(u, 31)
    z = z * pow(0x94D049BB133111EB, -1, 1 << 64) & _M64
    z = _unshift(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _M64
    z = _unshift(z, 30)
    return (z - _GAMMA) & _M64


def _draw(d: EmpiricalDistribution, u: int) -> float:
    """The sample the engines draw for the 64-bit uniform ``u``."""
    return d.samples[_draws(_seed_drawing(u), 1, d.count)[0]]


class TestSample:
    def test_middle_tercile(self):
        d = EmpiricalDistribution((1.0, 2.0, 3.0), "ns")
        assert _draw(d, 1 << 63) == 2.0

    def test_singleton(self):
        d = EmpiricalDistribution((7.0,), "ns")
        for u in (0, int(0.3 * 2**64), int(0.999 * 2**64), _M64):
            assert _draw(d, u) == 7.0

    def test_top_quartile(self):
        d = EmpiricalDistribution((1.0, 2.0, 3.0, 4.0), "ns")
        assert _draw(d, int(0.999 * 2**64)) == 4.0

    @pytest.mark.parametrize("count", [1, 3, 1000, 2**63, _M64])
    def test_index_domain(self, count):
        # The integer rule needs no clamp: u = 0 gives the first index and
        # u = 2**64 - 1 the last.
        assert [mix64(_seed_drawing(u) + _GAMMA) for u in (0, _M64)] == [0, _M64]
        assert _draws(_seed_drawing(0), 1, count) == [0]
        assert _draws(_seed_drawing(_M64), 1, count) == [count - 1]

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.floats(0.001, 1e9), min_size=1, max_size=40),
        seed=st.integers(0, _M64),
        i=st.integers(0, 2**40),
    )
    def test_closure_under_sampling(self, values, seed, i):
        d = EmpiricalDistribution.from_values(values, "ns")
        assert 0 <= pick(seed, i, d.count) < d.count

    def test_ks_fidelity_small(self):
        # deterministic u grid; the ECDF of draws tracks the source ECDF
        d = EmpiricalDistribution.from_values(
            [1.0 + (i * 7919 % 1000) / 10.0 for i in range(1000)], "ns"
        )
        n = 20_000
        draws = [_draw(d, (i << 64) // n) for i in range(n)]
        assert ks_distance(draws, d.samples) <= 0.01


class TestBandwidthToG:
    def test_100_gbps(self):
        assert bandwidth_to_G(100.0) == pytest.approx(0.08)

    def test_8_gbps(self):
        assert bandwidth_to_G(8.0) == 1.0

    def test_measured_peak_rate(self):
        # 78.74 Gb/s: 8/78.74 ns per byte
        assert bandwidth_to_G(78.74) == pytest.approx(0.10160020, abs=1e-7)

    @pytest.mark.parametrize("bw", [0.0, -5.0])
    def test_rejects_nonpositive(self, bw):
        with pytest.raises(ValueError):
            bandwidth_to_G(bw)


class TestCalibrate:
    def test_reference_fit(self):
        small = [1400.0, 1190.0, 1250.0]
        large = [1_500_000.0, 1_398_000.0]
        size_s = 16 * 2**20
        p = calibrate(small, large, size_s, o_fraction=0.5)
        assert p.o == 298  # round half-up of 297.5
        assert p.L == 1190 - 2 * 298
        assert p.g == p.o
        # cross-check G against plain spreadsheet arithmetic
        assert p.G == pytest.approx((1_398_000 - 1190) / (16 * 2**20 - 1), rel=1e-12)

    def test_no_size_dependent_cost(self):
        p = calibrate([1000.0], [1000.0], 2)
        assert p.G == 0.0

    def test_o_fraction_zero_puts_everything_in_L(self):
        p = calibrate([1000.0], [2000.0], 100, o_fraction=0.0)
        assert p.o == 0
        assert p.L == 1000

    def test_o_fraction_one_keeps_L_nonnegative(self):
        p = calibrate([1191.0], [2000.0], 100, o_fraction=1.0)
        assert p.L >= 0
        assert 2 * p.o + p.L == 1191

    def test_degenerate_large_min_warns_and_zeroes_G(self):
        with pytest.warns(DegenerateCalibrationWarning):
            p = calibrate([1000.0], [900.0], 100)
        assert p.G == 0.0

    def test_one_byte_roundtrip(self):
        for t1 in (1190.0, 1191.0, 333.3):
            p = calibrate([t1], [t1 * 2], 1000)
            assert message_time(p, 1) == round(math.floor(t1 + 0.5))

    def test_empty_traces_rejected(self):
        with pytest.raises(ValueError):
            calibrate([], [1.0], 2)
        with pytest.raises(ValueError):
            calibrate([1.0], [], 2)


class TestDetourTrace:
    def test_valid(self):
        t = DetourTrace(((0, 5), (10, 3)), span=20)
        assert t.total_detour == 8

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            DetourTrace(((0, 5), (4, 3)), span=20)

    def test_rejects_event_past_span(self):
        with pytest.raises(ValueError):
            DetourTrace(((18, 5),), span=20)

    def test_rejects_zero_duration(self):
        with pytest.raises(ValueError):
            DetourTrace(((0, 0),), span=20)

    @pytest.mark.parametrize("events", [((0, 10),), ((0, 4), (4, 6))])
    def test_rejects_trace_without_idle_time(self, events):
        with pytest.raises(ValueError, match="no idle time"):
            DetourTrace(events, span=10)


class TestNoiseModel:
    def test_all_absent_is_noiseless(self):
        assert NoiseModel().is_noiseless

    def test_unit_checks(self):
        ns = EmpiricalDistribution((1.0,), "ns")
        gbps = EmpiricalDistribution((1.0,), "gbps")
        NoiseModel(latency=ns, bandwidth=gbps)
        with pytest.raises(ValueError):
            NoiseModel(latency=gbps)
        with pytest.raises(ValueError):
            NoiseModel(bandwidth=ns)

    def test_no_warning_when_large_min_equals_small_min(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            calibrate([500.0], [500.0], 10)
