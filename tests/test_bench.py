import math
import socket
import threading
import time

import pytest

from nsim.bench import (
    MAGIC,
    MODE_BIDIR,
    MODE_PINGPONG,
    SETUP_STRUCT,
    BenchPlan,
    ClockResolutionError,
    EchoServer,
    pack_setup,
    part_sizes,
    pingpong,
    pingpong_bidirectional,
    selfish_detour,
    unpack_setup,
)
from nsim.noise import bandwidth_from_rtt


class TestPartSizes:
    def test_even_split_16mib_over_16(self):
        parts = part_sizes(16 * 2**20, 16)
        assert parts == [2**20] * 16

    def test_uneven_split_partitions(self):
        parts = part_sizes(10, 3)
        assert sum(parts) == 10
        assert all(p >= 1 for p in parts)
        assert parts == [4, 3, 3]

    def test_too_many_connections(self):
        with pytest.raises(ValueError):
            part_sizes(3, 4)


class TestWireProtocol:
    def test_setup_is_20_bytes_network_order(self):
        blob = pack_setup(MODE_PINGPONG, 16 * 2**20, 16, 1000)
        assert len(blob) == SETUP_STRUCT.size == 20
        assert blob[:4] == MAGIC
        assert blob == (b"NSIM\x01\x01" + b"\x00\x00\x00\x00\x01\x00\x00\x00"
                        + b"\x00\x10" + b"\x00\x00\x03\xe8")

    def test_roundtrip(self):
        mode, size, conns, iters = unpack_setup(pack_setup(2, 7, 3, 9))
        assert (mode, size, conns, iters) == (2, 7, 3, 9)

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            unpack_setup(b"XXXX" + bytes(16))


class TestPlanValidation:
    def test_zero_size_payload(self):
        with pytest.raises(ValueError):
            BenchPlan(size=0, peer=("127.0.0.1", 1))

    def test_size_below_connections(self):
        with pytest.raises(ValueError):
            BenchPlan(size=3, connections=4, peer=("127.0.0.1", 1))

    @pytest.mark.parametrize("fields", [
        {"size": 2**64, "connections": 1},
        {"size": 65536, "connections": 65536},
        {"iterations": 2**32 - 10, "warmup_iterations": 10},
        {"inter_message_interval_ns": 2**64},
    ], ids=["size", "connections", "warmup_plus_iterations", "interval"])
    def test_value_beyond_its_setup_field(self, fields):
        with pytest.raises(ValueError, match="must be < 2"):
            BenchPlan(peer=("127.0.0.1", 1), **fields)

    @pytest.mark.parametrize("port", [0, -1, 65536, 70000])
    def test_peer_port_out_of_range(self, port):
        with pytest.raises(ValueError, match="peer port must be 1-65535"):
            BenchPlan(peer=("127.0.0.1", port))

    def test_largest_plan_packs(self):
        plan = BenchPlan(peer=("127.0.0.1", 1), size=2**64 - 1, connections=2**16 - 1,
                         iterations=2**32 - 11, warmup_iterations=10,
                         inter_message_interval_ns=2**64 - 1)
        blob = pack_setup(MODE_BIDIR, plan.size, plan.connections,
                          plan.warmup_iterations + plan.iterations)
        assert unpack_setup(blob) == (MODE_BIDIR, 2**64 - 1, 2**16 - 1, 2**32 - 1)


@pytest.fixture()
def echo_server():
    with EchoServer() as server:
        yield server


class TestPingpong:
    def test_trace_shape(self, echo_server):
        plan = BenchPlan(size=64, iterations=40, warmup_iterations=5,
                         peer=(echo_server.host, echo_server.port))
        trace = pingpong(plan)
        assert len(trace) == 40  # warmup excluded
        assert trace.unit == "ns"
        assert list(trace.timestamps) == sorted(trace.timestamps)
        assert all(v > 0 for v in trace.values)

    def test_derived_bandwidth_sane(self, echo_server):
        plan = BenchPlan(size=4096, iterations=30, warmup_iterations=5,
                         peer=(echo_server.host, echo_server.port))
        trace = pingpong(plan)
        median = sorted(trace.values)[len(trace) // 2]
        bw = bandwidth_from_rtt(plan.size, median)
        assert 0 < bw < 10_000  # positive, finite, below any plausible loopback rate

    def test_multi_connection(self, echo_server):
        plan = BenchPlan(size=64 * 1024, connections=4, iterations=15,
                         warmup_iterations=3, peer=(echo_server.host, echo_server.port))
        trace = pingpong(plan)
        assert len(trace) == 15

    def test_inter_message_interval_paces_iterations(self, echo_server):
        interval = 3_000_000  # 3 ms
        plan = BenchPlan(size=8, iterations=4, warmup_iterations=0,
                         inter_message_interval_ns=interval,
                         peer=(echo_server.host, echo_server.port))
        trace = pingpong(plan)
        gaps = [b - a for a, b in zip(trace.timestamps, trace.timestamps[1:])]
        assert all(g >= interval for g in gaps)

    def test_connection_refused(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        plan = BenchPlan(size=8, iterations=1,
                         peer=("127.0.0.1", free_port))
        with pytest.raises(OSError):
            pingpong(plan)


class TestBidirectional:
    def test_single_iteration_one_row_each(self, echo_server):
        plan = BenchPlan(size=32, iterations=1,
                         warmup_iterations=0,
                         peer=(echo_server.host, echo_server.port))
        fwd, rev = pingpong_bidirectional(plan)
        assert len(fwd) == 1
        assert len(rev) == 1

    def test_symmetric_loopback_within_2x(self, echo_server):
        # enough iterations that one scheduler stall cannot move a median
        plan = BenchPlan(size=16 * 1024, iterations=80,
                         warmup_iterations=8,
                         peer=(echo_server.host, echo_server.port))
        fwd, rev = pingpong_bidirectional(plan)
        med_f = sorted(fwd.values)[len(fwd) // 2]
        med_r = sorted(rev.values)[len(rev) // 2]
        bw_f = bandwidth_from_rtt(plan.size, med_f)
        bw_r = bandwidth_from_rtt(plan.size, med_r)
        assert bw_f / bw_r < 2 and bw_r / bw_f < 2

    def test_peer_runs_the_same_warmup(self):
        # The peer's session runs warmup + iterations like the forward one;
        # the initiator drops the peer's warmup rows.
        sessions = []

        class Recording(EchoServer):
            def _bidir_session(self, conn, addr, size, connections, iterations):
                sessions.append(iterations)
                super()._bidir_session(conn, addr, size, connections, iterations)

        with Recording() as server:
            plan = BenchPlan(size=32, iterations=5,
                             warmup_iterations=3, peer=(server.host, server.port))
            fwd, rev = pingpong_bidirectional(plan)
        assert sessions == [8]
        assert len(fwd) == len(rev) == 5

    def test_zero_size_invalid(self, echo_server):
        with pytest.raises(ValueError):
            BenchPlan(size=0, iterations=1,
                      peer=(echo_server.host, echo_server.port))


class TestResponder:
    def test_stop_does_not_wait_for_an_open_session(self):
        server = EchoServer().start()
        with socket.create_connection((server.host, server.port), timeout=5) as client:
            client.sendall(pack_setup(MODE_PINGPONG, 1, 1, 1) + b"x")
            assert client.recv(1) == b"x"  # the session is open
            start = time.monotonic()
            server.stop()
            assert time.monotonic() - start < 1

    def test_stop_without_start_returns(self):
        stopper = threading.Thread(target=EchoServer().stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive()

    @pytest.mark.parametrize("setup", [
        b"XXXX" + pack_setup(MODE_PINGPONG, 8, 1, 1)[4:],
        pack_setup(3, 8, 1, 1),
    ], ids=["bad_magic", "unknown_mode"])
    def test_bad_setup_gets_eof_and_the_server_goes_on(self, echo_server, setup):
        peer = (echo_server.host, echo_server.port)
        with socket.create_connection(peer, timeout=5) as client:
            client.sendall(setup)
            assert client.recv(1) == b""
        assert len(pingpong(BenchPlan(size=8, iterations=2, peer=peer))) == 2


class _StepClock:
    """Fake monotonic clock fed by a list of absolute timestamps."""

    def __init__(self, times):
        self._times = list(times)
        self._i = 0

    def __call__(self):
        t = self._times[self._i]
        if self._i + 1 < len(self._times):
            self._i += 1
        return t


def _clock_for(probe_deltas, record_deltas):
    times = [0]
    for d in probe_deltas:
        times.append(times[-1] + d)
    times.append(times[-1] + probe_deltas[0])  # epoch read
    for d in record_deltas:
        times.append(times[-1] + d)
    return _StepClock(times)


class TestSelfishDetour:
    def test_records_only_above_nine_t_min(self):
        clock = _clock_for([10, 10, 10], [10, 10, 95, 10])
        t_min, trace = selfish_detour(1, resolution_probe_iterations=3, clock=clock)
        assert t_min == 10
        assert trace.events == ((20, 85),)  # start offset 20, duration 95 - t_min

    def test_boundary_exactly_nine_not_recorded(self):
        clock = _clock_for([10, 10, 10], [90, 91, 10])
        t_min, trace = selfish_detour(1, resolution_probe_iterations=3, clock=clock)
        assert trace.events == ((90, 81),)  # the 90 was skipped, the 91 recorded

    def test_custom_multiplier(self):
        clock = _clock_for([10, 10, 10], [25, 10])
        t_min, trace = selfish_detour(1, threshold_multiplier=2.0,
                                      resolution_probe_iterations=3, clock=clock)
        assert trace.events == ((0, 15),)

    def test_span_covers_events(self):
        clock = _clock_for([10, 10, 10], [10, 95, 200, 10])
        _, trace = selfish_detour(2, resolution_probe_iterations=3, clock=clock)
        assert trace.span >= max(s + d for s, d in trace.events)

    def test_zero_resolution_clock_refused(self):
        clock = _StepClock([5, 5, 5, 5, 5, 5])
        with pytest.raises(ClockResolutionError):
            selfish_detour(1, resolution_probe_iterations=3, clock=clock)

    def test_max_iterations_guard(self):
        clock = _clock_for([10, 10, 10], [10] * 50)
        with pytest.raises(RuntimeError, match="collected only"):
            selfish_detour(1, resolution_probe_iterations=3, clock=clock,
                           max_iterations=20)

    @pytest.mark.parametrize("multiplier", [math.nan, math.inf])
    def test_non_finite_multiplier_refused(self, multiplier):
        # no iteration is ever longer than nan or inf times t_min
        clock = _clock_for([10, 10, 10], [10] * 50)
        with pytest.raises(ValueError, match="threshold_multiplier"):
            selfish_detour(1, multiplier, resolution_probe_iterations=3, clock=clock,
                           max_iterations=20)

    def test_real_clock_smoke(self):
        # any real host shows occasional 9x hiccups within a few million
        # iterations; keep the target tiny so this stays fast
        t_min, trace = selfish_detour(3, resolution_probe_iterations=5000,
                                      max_iterations=50_000_000)
        assert t_min > 0
        assert len(trace.events) == 3
        assert all(d > 8 * t_min for _, d in trace.events)
