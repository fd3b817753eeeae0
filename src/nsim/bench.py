"""Host microbenchmarks producing sample traces: ping-pong and selfish detour.

Transport is a plain TCP byte stream with Nagle disabled, one dedicated worker
thread per connection. A session starts with a fixed setup message in network
byte order:

    magic "NSIM" | version u8 | mode u8 | size u64 | connections u16 | iterations u32

followed by mode-specific traffic. For pingpong (mode 1) the responder simply
echoes every byte until EOF; the payload is split into ``connections``
contiguous disjoint parts, one per connection. For bidirectional runs (mode 2)
the setup is followed in-band by reverse_port u16, inter-message interval u64
and the initiator's epoch u64; the responder replies with its own epoch u64,
runs a mirror-image pingpong back to reverse_port, and finally streams its
trace rows (count u32, then per row: timestamp u64, RTT/2 f64) over the
control socket. Both directions stamp timestamps against the epochs exchanged
at setup, so the two traces share a time origin.

Iteration timing reproduces max-across-connections semantics: all workers
leave a barrier together (the clock is read in the barrier action immediately
before release), each completes its part's ping-pong, and the iteration ends
when the last worker reaches the closing barrier (clock read in its action).
An iteration never pipelines into the next: the following barrier release
waits for the previous completion plus the inter-message interval.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from dataclasses import dataclass

from .model import UNIT_NS, DetourTrace
from .noise import SampleTrace

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "MODE_PINGPONG",
    "MODE_BIDIR",
    "SETUP_STRUCT",
    "BenchPlan",
    "ClockResolutionError",
    "DetourLimitError",
    "part_sizes",
    "pack_setup",
    "unpack_setup",
    "EchoServer",
    "pingpong",
    "pingpong_bidirectional",
    "selfish_detour",
]

MAGIC = b"NSIM"
PROTOCOL_VERSION = 1
MODE_PINGPONG = 1
MODE_BIDIR = 2

SETUP_STRUCT = struct.Struct("!4sBBQHI")
_BIDIR_EXTRA = struct.Struct("!HQQ")  # reverse_port, interval_ns, epoch_ns
_EPOCH_STRUCT = struct.Struct("!Q")
_ROW_COUNT = struct.Struct("!I")
_ROW_STRUCT = struct.Struct("!Qd")

_MODES = ("pingpong", "pingpong_bidir")


class ClockResolutionError(RuntimeError):
    """The monotonic clock cannot resolve a single loop iteration."""


class DetourLimitError(RuntimeError):
    """The detour recorder reached max_iterations before collecting enough events."""


@dataclass(frozen=True)
class BenchPlan:
    """Parameters of one benchmark session."""

    mode: str
    size: int = 1
    iterations: int = 100
    warmup_iterations: int = 10
    connections: int = 1
    inter_message_interval_ns: int = 0
    peer: tuple[str, int] | None = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.connections < 1:
            raise ValueError("connections must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.warmup_iterations < 0:
            raise ValueError("warmup_iterations must be >= 0")
        if self.inter_message_interval_ns < 0:
            raise ValueError("inter_message_interval_ns must be >= 0")
        if self.size < 1:
            raise ValueError("payload size must be >= 1 byte")
        if self.size < self.connections:
            raise ValueError(
                f"size ({self.size}) must be >= connections ({self.connections}) "
                "so every part is non-empty"
            )


def part_sizes(size: int, connections: int) -> list[int]:
    """Split ``size`` bytes into ``connections`` contiguous non-empty parts."""
    if size < connections:
        raise ValueError(f"size ({size}) must be >= connections ({connections})")
    base, extra = divmod(size, connections)
    return [base + 1 if w < extra else base for w in range(connections)]


def pack_setup(mode: int, size: int, connections: int, iterations: int) -> bytes:
    return SETUP_STRUCT.pack(MAGIC, PROTOCOL_VERSION, mode, size, connections, iterations)


def unpack_setup(blob: bytes) -> tuple[int, int, int, int]:
    magic, version, mode, size, connections, iterations = SETUP_STRUCT.unpack(blob)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ValueError(f"unsupported protocol version {version}")
    return mode, size, connections, iterations


def _recvall(sock: socket.socket, n: int) -> bytes:
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        received = sock.recv_into(view[got:], n - got)
        if received == 0:
            raise ConnectionResetError("peer closed mid-message")
        got += received
    return bytes(buf)


def _connect(peer: tuple[str, int]) -> socket.socket:
    sock = socket.create_connection(peer)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


# ---------------------------------------------------------------------------
# Responder

class EchoServer:
    """Responder side: echoes pingpong sessions, mirrors bidirectional ones.

    Runs accept/handler threads until stop(). Usable as a context manager in
    tests; the CLI keeps one in the foreground.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._srv = socket.socket()
        self._srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._srv.bind((host, port))
        self._srv.listen(64)
        # closing a listening socket does not wake a blocked accept() on
        # Linux; poll with a timeout instead so stop() returns promptly
        self._srv.settimeout(0.1)
        self.host, self.port = self._srv.getsockname()[:2]
        self._stopping = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._handlers: list[threading.Thread] = []

    def start(self) -> "EchoServer":
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stopping.set()
        try:
            self._srv.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        for t in self._handlers:
            t.join(timeout=5)

    def __enter__(self) -> "EchoServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def serve_forever(self) -> None:
        """Foreground accept loop (CLI responder role)."""
        self._accept_loop()

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, addr = self._srv.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.setblocking(True)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            t = threading.Thread(target=self._handle, args=(conn, addr), daemon=True)
            t.start()
            self._handlers.append(t)

    def _handle(self, conn: socket.socket, addr) -> None:
        try:
            mode, size, connections, iterations = unpack_setup(
                _recvall(conn, SETUP_STRUCT.size)
            )
            if mode == MODE_PINGPONG:
                self._echo_loop(conn)
            elif mode == MODE_BIDIR:
                self._bidir_session(conn, addr, size, connections, iterations)
            else:
                conn.close()
        except (OSError, ValueError, ConnectionResetError):
            try:
                conn.close()
            except OSError:
                pass

    @staticmethod
    def _echo_loop(conn: socket.socket) -> None:
        while True:
            data = conn.recv(1 << 16)
            if not data:
                break
            conn.sendall(data)
        conn.close()

    def _bidir_session(self, conn, addr, size, connections, iterations) -> None:
        reverse_port, interval, _their_epoch = _BIDIR_EXTRA.unpack(
            _recvall(conn, _BIDIR_EXTRA.size)
        )
        epoch = time.perf_counter_ns()
        conn.sendall(_EPOCH_STRUCT.pack(epoch))
        plan = BenchPlan(
            mode="pingpong",
            size=size,
            iterations=iterations,
            warmup_iterations=0,
            connections=connections,
            inter_message_interval_ns=interval,
            peer=(addr[0], reverse_port),
        )
        trace = pingpong(plan, epoch_ns=epoch)
        conn.sendall(_ROW_COUNT.pack(len(trace.rows)))
        for ts, value in trace.rows:
            conn.sendall(_ROW_STRUCT.pack(ts, value))
        conn.close()


# ---------------------------------------------------------------------------
# Initiator

class _IterationTimer:
    """Shared state of one session's barrier actions."""

    def __init__(self, warmup: int, interval_ns: int, clock, epoch_ns: int | None):
        self.warmup = warmup
        self.interval_ns = interval_ns
        self.clock = clock
        self.epoch = epoch_ns
        self.index = 0
        self.t0 = 0
        self.prev_end: int | None = None
        self.rows: list[tuple[int, float]] = []

    def on_start(self) -> None:
        if self.interval_ns and self.prev_end is not None:
            # next message starts interval after the previous completion
            target = self.prev_end + self.interval_ns
            while True:
                now = self.clock()
                if now >= target:
                    break
                time.sleep(min((target - now) / 1e9, 0.05))
        self.t0 = self.clock()

    def on_end(self) -> None:
        now = self.clock()
        self.prev_end = now
        if self.index >= self.warmup:
            if self.epoch is None:
                self.epoch = self.t0
            self.rows.append((self.t0 - self.epoch, (now - self.t0) / 2.0))
        self.index += 1


def pingpong(
    plan: BenchPlan,
    *,
    clock=time.perf_counter_ns,
    epoch_ns: int | None = None,
) -> SampleTrace:
    """Run a (possibly multi-connection) ping-pong; returns RTT/2 per iteration.

    The payload is split into ``plan.connections`` contiguous parts; every
    worker must finish its part's round trip before the iteration ends, so a
    row records the maximum across concurrent connections. Warmup iterations
    run first and are excluded from the trace.
    """
    if plan.mode != "pingpong":
        raise ValueError(f"pingpong() needs mode='pingpong', got {plan.mode!r}")
    if plan.peer is None:
        raise ValueError("plan.peer is required for the initiator role")
    parts = part_sizes(plan.size, plan.connections)
    timer = _IterationTimer(plan.warmup_iterations, plan.inter_message_interval_ns,
                            clock, epoch_ns)
    b_start = threading.Barrier(plan.connections, action=timer.on_start)
    b_end = threading.Barrier(plan.connections, action=timer.on_end)
    total = plan.warmup_iterations + plan.iterations
    errors: list[BaseException] = []

    socks = []
    try:
        for _ in range(plan.connections):
            sock = _connect(plan.peer)
            sock.sendall(pack_setup(MODE_PINGPONG, plan.size, plan.connections,
                                    plan.iterations))
            socks.append(sock)

        def worker(sock: socket.socket, nbytes: int) -> None:
            payload = b"\xa5" * nbytes
            try:
                for _ in range(total):
                    b_start.wait()
                    sock.sendall(payload)
                    _recvall(sock, nbytes)
                    b_end.wait()
            except threading.BrokenBarrierError:
                pass
            except BaseException as exc:  # noqa: BLE001 - reported to the caller
                errors.append(exc)
                b_start.abort()
                b_end.abort()

        threads = [
            threading.Thread(target=worker, args=(sock, nbytes), daemon=True)
            for sock, nbytes in zip(socks, parts)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        for sock in socks:
            try:
                sock.close()
            except OSError:
                pass
    if errors:
        raise errors[0]
    return SampleTrace(tuple(timer.rows), UNIT_NS)


def pingpong_bidirectional(plan: BenchPlan) -> tuple[SampleTrace, SampleTrace]:
    """Two simultaneous ping-pongs, one initiated from each endpoint.

    The caller is the active side: it runs a forward pingpong toward
    plan.peer, while the peer (an EchoServer or ``bench bidir --listen``)
    initiates the mirror-image session back to an ephemeral local echo server.
    Returns (forward_trace, reverse_trace) with timestamps aligned to the
    epochs exchanged at setup.
    """
    if plan.mode != "pingpong_bidir":
        raise ValueError(f"needs mode='pingpong_bidir', got {plan.mode!r}")
    if plan.peer is None:
        raise ValueError("plan.peer is required for the initiator role")
    forward_plan = BenchPlan(
        mode="pingpong",
        size=plan.size,
        iterations=plan.iterations,
        warmup_iterations=plan.warmup_iterations,
        connections=plan.connections,
        inter_message_interval_ns=plan.inter_message_interval_ns,
        peer=plan.peer,
    )
    with EchoServer() as reverse_echo:
        control = _connect(plan.peer)
        try:
            control.sendall(pack_setup(MODE_BIDIR, plan.size, plan.connections,
                                       plan.iterations))
            epoch = time.perf_counter_ns()
            control.sendall(_BIDIR_EXTRA.pack(reverse_echo.port,
                                              plan.inter_message_interval_ns, epoch))
            _EPOCH_STRUCT.unpack(_recvall(control, _EPOCH_STRUCT.size))
            forward = pingpong(forward_plan, epoch_ns=epoch)
            (count,) = _ROW_COUNT.unpack(_recvall(control, _ROW_COUNT.size))
            rows = [
                _ROW_STRUCT.unpack(_recvall(control, _ROW_STRUCT.size))
                for _ in range(count)
            ]
        finally:
            control.close()
    reverse = SampleTrace(tuple((int(ts), float(v)) for ts, v in rows), UNIT_NS)
    return forward, reverse


# ---------------------------------------------------------------------------
# Selfish detour

def selfish_detour(
    target_records: int,
    threshold_multiplier: float = 9.0,
    resolution_probe_iterations: int = 10_000,
    *,
    clock=time.perf_counter_ns,
    max_iterations: int | None = None,
) -> tuple[int, DetourTrace]:
    """Tight-loop OS interference recorder.

    A probe phase estimates t_min, the minimum time one loop iteration takes.
    The recording loop then logs every iteration strictly longer than
    threshold_multiplier * t_min as (start offset, duration - t_min) until
    ``target_records`` events are collected. Returns (t_min, trace).

    Refuses to run when the clock cannot resolve a loop iteration (a measured
    iteration of 0 ns), raising ClockResolutionError. ``max_iterations``
    optionally bounds the recording loop for hosts too quiet to ever produce
    enough events; reaching it raises DetourLimitError.
    """
    if target_records < 1:
        raise ValueError("target_records must be >= 1")
    if threshold_multiplier <= 1.0:
        raise ValueError("threshold_multiplier must be > 1")
    if resolution_probe_iterations < 2:
        raise ValueError("resolution_probe_iterations must be >= 2")
    t_min = None
    prev = clock()
    for _ in range(resolution_probe_iterations):
        now = clock()
        d = now - prev
        prev = now
        if t_min is None or d < t_min:
            t_min = d
    if t_min is None or t_min <= 0:
        raise ClockResolutionError(
            "monotonic clock resolution is coarser than one loop iteration; "
            "cannot establish t_min"
        )
    threshold = threshold_multiplier * t_min
    events: list[tuple[int, int]] = []
    epoch = clock()
    prev = epoch
    iters = 0
    while len(events) < target_records:
        now = clock()
        d = now - prev
        if d > threshold:
            events.append((prev - epoch, d - t_min))
        prev = now
        iters += 1
        if max_iterations is not None and iters >= max_iterations:
            raise DetourLimitError(
                f"collected only {len(events)}/{target_records} detour events "
                f"within {max_iterations} iterations"
            )
    span = prev - epoch
    return t_min, DetourTrace(tuple(events), max(span, 1))
