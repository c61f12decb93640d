"""A TCP front door for the data-provider service.

:class:`DelayServer` exposes a :class:`~repro.service.DataProviderService`
over a JSON-lines protocol — one JSON object per line in each direction
— and :class:`DelayClient` is its Python client. This is the deployment
shape the paper assumes: clients cannot reach the database except
through the guarded front door, and delays are served while the
connection waits.

Protocol requests::

    {"op": "register", "identity": "alice", "subnet": "10.0.0.0/8"}
    {"op": "query", "sql": "SELECT ...", "identity": "alice",
     "deadline_ms": 250, "priority": 7}
    {"op": "report"}
    {"op": "metrics", "format": "json" | "prometheus"}
    {"op": "trace", "limit": 20}
    {"op": "forensics", "limit": 10}
    {"op": "health"}
    {"op": "checkpoint"}
    {"op": "ping"}

Responses are ``{"ok": true, ...}`` or
``{"ok": false, "error": "...", "reason": "...", "retry_after": 1.5}``.

Overload resilience
-------------------

The delay defense only works while the front door stays up: the guard
prices adversaries into hours of waiting, so the cheapest attack is not
to pay — it is to exhaust the server with connections or park it in
delay sleeps. The server therefore treats *threads* as the scarce
resource and bounds every way a client could consume one:

* **Bounded admission.** A fixed pool of ``max_workers`` threads
  executes requests; parsed requests wait in a bounded priority queue
  (``max_queue``). A request arriving at a full queue is either traded
  against a strictly-lower-priority queued request or **shed** with a
  fast ``{"ok": false, "reason": "overloaded", "retry_after": ...}``
  answer — never accepted and stalled. ``max_connections`` bounds
  concurrently-open connections the same way: connection number
  ``max_connections + 1`` receives the overload answer immediately and
  is closed.
* **Event-driven I/O.** One selector thread owns every socket (accept,
  read, write, idle timeout); neither an idle connection nor a slow
  reader holds a thread. Process thread count is ``max_workers`` plus a
  small constant, independent of connection count.
* **Delay parking, not delay sleeping.** A priced delay is served by a
  timer heap (the *parking lot*), not by a worker blocked in ``sleep``:
  the worker finishes in microseconds and the response is released when
  the delay has elapsed. The lot holds at most ``max_parked`` entries;
  over capacity, the entry with the **largest priced delay is shed
  first** — heavily-delayed (adversary-shaped) traffic is sacrificed
  before cheap popular-tuple queries, preserving the paper's
  legitimate/adversary asymmetry under overload.
* **End-to-end deadlines.** Clients may attach ``deadline_ms``; the
  budget is checked before work starts, at every pipeline stage
  boundary, and against the priced delay itself — a mandated delay
  longer than the remaining budget is rejected up front with the full
  delay as ``retry_after`` instead of holding resources it cannot
  repay.

Everything is observable: queue depth, parked delays, shed counts by
reason, deadline aborts, and injected faults all land in the shared
metrics registry (``metrics`` op, JSON or Prometheus exposition).

Concurrency model
-----------------

There is **no global statement lock**: worker threads run the guard's
staged pipeline (:mod:`repro.core.pipeline`) directly, the engine
arbitrates data access with a writer-preferring read/write lock, and
trackers/stats carry their own internal locks. The server's one
remaining lock covers registration only. A penalised query never
blocks another client: its delay waits in the parking lot while the
workers serve everyone else.

Per-connection robustness: reads are bounded by ``read_timeout`` and
``max_request_bytes``; a handler crash is recorded in
:attr:`DelayServer.handler_errors` and answered with an error response
instead of silently killing a worker; and :meth:`DelayServer.stop`
drains in-flight requests (bounded by ``drain_timeout``) and cancels
parked delays, so shutdown is never held hostage by a penalised
query's multi-hour sleep.
"""

from __future__ import annotations

import heapq
import json
import random
import selectors
import socket
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple, Union

from .core.errors import AccessDenied, ConfigError, DelayDefenseError
from .core.guard import GuardedResult
from .core.resilience import BackoffPolicy, BreakerOpen, CircuitBreaker
from .engine.errors import EngineError
from .obs import SloTracker, build_info
from .service import DataProviderService
from .testing.faults import fire, injector

#: Ops the server dispatches; anything else counts as "unknown" in the
#: per-op request metric so adversarial op names cannot mint series.
KNOWN_OPS = (
    "ping",
    "bye",
    "register",
    "query",
    "report",
    "metrics",
    "trace",
    "checkpoint",
    "forensics",
    "health",
)

#: Valid client priority range; higher is more important.
PRIORITY_MIN, PRIORITY_MAX = 0, 9
#: Priority assumed when the client sends none.
PRIORITY_DEFAULT = 5

#: Largest accepted deadline: one day in milliseconds.
DEADLINE_MS_MAX = 86_400_000.0


class _Request:
    """One parsed request travelling from the I/O loop to a worker."""

    __slots__ = (
        "conn",
        "payload",
        "op",
        "received_at",
        "deadline_at",
        "priority",
        "seq",
    )

    def __init__(
        self,
        conn: "_Connection",
        payload: Dict,
        seq: int,
        received_at: float,
        deadline_at: Optional[float],
        priority: int,
    ):
        self.conn = conn
        self.payload = payload
        self.op = payload.get("op")
        self.seq = seq
        self.received_at = received_at
        self.deadline_at = deadline_at
        self.priority = priority


class _Connection:
    """Per-socket state owned by the I/O loop thread.

    Only the I/O thread touches the buffers and flags; workers and the
    delay scheduler communicate through the loop's command queue.
    """

    __slots__ = (
        "sock",
        "inbuf",
        "outbuf",
        "busy",
        "close_after_write",
        "last_activity",
        "closed",
    )

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        #: a request from this connection is admitted/parked and has not
        #: been answered yet; further complete lines wait in ``inbuf``.
        self.busy = False
        self.close_after_write = False
        self.last_activity = time.monotonic()
        self.closed = False


class _AdmissionQueue:
    """Bounded priority queue between the I/O loop and the workers.

    Pop order is highest priority first, FIFO within a priority. When
    full, :meth:`offer` trades the lowest-priority (newest within that
    priority) queued entry for a strictly-higher-priority newcomer, or
    refuses the newcomer — the caller sheds whichever lost.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._cond = threading.Condition()
        self._heap: List[Tuple[int, int, _Request]] = []
        self._closed = False

    def __len__(self) -> int:
        with self._cond:
            return len(self._heap)

    def offer(
        self, request: _Request
    ) -> Tuple[bool, Optional[_Request]]:
        """Try to admit ``request``.

        Returns ``(admitted, victim)``: ``victim`` is a previously
        queued request evicted to make room (to be shed by the caller);
        ``admitted`` False means the newcomer itself must be shed.
        """
        key = (-request.priority, request.seq, request)
        with self._cond:
            if self._closed:
                return False, None
            if len(self._heap) < self.capacity:
                heapq.heappush(self._heap, key)
                self._cond.notify()
                return True, None
            worst = max(self._heap)
            if -worst[0] < request.priority:
                index = self._heap.index(worst)
                self._heap[index] = self._heap[-1]
                self._heap.pop()
                heapq.heapify(self._heap)
                heapq.heappush(self._heap, key)
                self._cond.notify()
                return True, worst[2]
            return False, None

    def pop(self) -> Optional[_Request]:
        """Blocking pop; returns None once closed and drained."""
        with self._cond:
            while not self._heap and not self._closed:
                self._cond.wait(0.5)
            if not self._heap:
                return None
            return heapq.heappop(self._heap)[2]

    def drain(self) -> List[_Request]:
        """Remove and return everything still queued."""
        with self._cond:
            drained = [entry[2] for entry in self._heap]
            self._heap.clear()
            return drained

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class _Parked:
    """One response waiting out its priced delay in the parking lot."""

    __slots__ = ("due", "seq", "request", "response", "delay", "trace",
                 "sleep_start")

    def __init__(self, due, seq, request, response, delay, trace,
                 sleep_start):
        self.due = due
        self.seq = seq
        self.request = request
        self.response = response
        self.delay = delay
        self.trace = trace
        self.sleep_start = sleep_start


class _DelayScheduler:
    """Serves priced delays on a timer heap instead of worker sleeps.

    A single thread waits for the earliest due entry and releases its
    response through the I/O loop. Capacity is bounded: inserting past
    ``capacity`` evicts the entry with the *largest* priced delay
    (possibly the newcomer), which the server answers with an overload
    shed carrying the full delay as ``retry_after`` — the cheapest
    queries ride out overload, the most expensive are sacrificed first.
    """

    def __init__(self, server: "DelayServer", capacity: int):
        self._server = server
        self.capacity = capacity
        self._cond = threading.Condition()
        self._heap: List[Tuple[float, int, _Parked]] = []
        self._seq = 0
        self._running = False
        self._thread: Optional[threading.Thread] = None

    def __len__(self) -> int:
        with self._cond:
            return len(self._heap)

    def start(self) -> None:
        with self._cond:
            self._running = True
        self._thread = threading.Thread(
            target=self._run, name="repro-delay-scheduler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        with self._cond:
            self._running = False
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def park(
        self,
        request: _Request,
        response: Dict,
        delay: float,
        trace,
    ) -> Optional[Dict]:
        """Park ``response`` until ``delay`` has elapsed.

        Returns None when the response will be delivered later, or the
        shed response the worker should send right away when the
        newcomer itself lost the capacity fight (it carried the
        largest delay) or the scheduler is shutting down.
        """
        now = time.monotonic()
        evicted: List[_Parked] = []
        with self._cond:
            if not self._running:
                return self._server._shed_response(
                    "shutting_down", retry_after=delay
                )
            self._seq += 1
            entry = _Parked(
                due=now + delay,
                seq=self._seq,
                request=request,
                response=response,
                delay=delay,
                trace=trace,
                sleep_start=time.perf_counter(),
            )
            heapq.heappush(self._heap, (entry.due, entry.seq, entry))
            while len(self._heap) > self.capacity:
                index = max(
                    range(len(self._heap)),
                    key=lambda i: self._heap[i][2].delay,
                )
                evicted.append(self._heap[index][2])
                self._heap[index] = self._heap[-1]
                self._heap.pop()
                heapq.heapify(self._heap)
            self._cond.notify()
        shed_self = None
        for victim in evicted:
            shed = self._server._shed_response(
                "overloaded",
                retry_after=victim.delay,
                detail="delay capacity exceeded; largest delay shed first",
            )
            self._server._note_shed("delay_parking")
            if victim is entry:
                shed_self = shed
            else:
                self._server._send_response(victim.request.conn, shed)
        return shed_self

    def cancel_all(self, reason: str) -> int:
        """Answer every parked entry with a denial; returns the count.

        Used by :meth:`DelayServer.stop` so shutdown is bounded by
        ``drain_timeout`` even when a penalised query still owes hours
        of delay — the caller gets ``retry_after`` equal to what it
        still owed, and no data.
        """
        now = time.monotonic()
        with self._cond:
            cancelled = [entry for _, _, entry in self._heap]
            self._heap.clear()
            self._cond.notify_all()
        for entry in cancelled:
            self._server._send_response(
                entry.request.conn,
                self._server._shed_response(
                    reason, retry_after=max(0.0, entry.due - now)
                ),
            )
        return len(cancelled)

    def _run(self) -> None:
        while True:
            with self._cond:
                if not self._running:
                    return
                if not self._heap:
                    self._cond.wait(0.5)
                    continue
                due = self._heap[0][0]
                now = time.monotonic()
                if due > now:
                    self._cond.wait(min(due - now, 0.5))
                    continue
                entry = heapq.heappop(self._heap)[2]
            self._deliver(entry)

    def _deliver(self, entry: _Parked) -> None:
        if entry.trace is not None:
            entry.trace.extend(
                "sleep", entry.sleep_start, time.perf_counter()
            )
        self._server._send_response(entry.request.conn, entry.response)


class _IOLoop(threading.Thread):
    """The selector thread: owns accept, read, write, and timeouts."""

    def __init__(self, server: "DelayServer", listener: socket.socket):
        super().__init__(name="repro-io-loop", daemon=True)
        self._server = server
        self._listener = listener
        self._selector = selectors.DefaultSelector()
        self._commands: Deque[Tuple] = deque()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._running = True
        self.connections: Dict[int, _Connection] = {}
        self._listener.setblocking(False)
        self._selector.register(listener, selectors.EVENT_READ, "accept")
        self._selector.register(
            self._wake_r, selectors.EVENT_READ, "wake"
        )

    # -- cross-thread API ----------------------------------------------------

    def submit(self, command: Tuple) -> None:
        """Queue a command for the loop thread and wake it."""
        self._commands.append(command)
        try:
            self._wake_w.send(b"x")
        except OSError:
            pass

    def shutdown(self) -> None:
        self._running = False
        self.submit(("noop",))

    def busy_count(self) -> int:
        """Connections with an unanswered request (approximate read)."""
        return sum(
            1 for conn in list(self.connections.values()) if conn.busy
        )

    # -- the loop ------------------------------------------------------------

    def run(self) -> None:
        try:
            while self._running:
                events = self._selector.select(timeout=0.2)
                self._drain_commands()
                for key, mask in events:
                    if key.data == "accept":
                        self._accept()
                    elif key.data == "wake":
                        self._drain_wake()
                    else:
                        conn: _Connection = key.data
                        if mask & selectors.EVENT_READ:
                            self._read(conn)
                        if mask & selectors.EVENT_WRITE and not conn.closed:
                            self._flush(conn)
                self._sweep_idle()
        finally:
            for conn in list(self.connections.values()):
                self._close(conn)
            try:
                self._selector.unregister(self._listener)
            except (KeyError, ValueError):
                pass
            self._selector.close()
            self._wake_r.close()
            self._wake_w.close()

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except OSError:
            pass

    def _drain_commands(self) -> None:
        while self._commands:
            command = self._commands.popleft()
            kind = command[0]
            if kind == "send":
                _, conn, data, close_after = command
                self._enqueue_send(conn, data, close_after)
            elif kind == "close":
                self._close(command[1])

    # -- accept --------------------------------------------------------------

    def _accept(self) -> None:
        server = self._server
        while True:
            try:
                sock, _ = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            try:
                fire("server.accept")
            except Exception:
                sock.close()
                continue
            if server._draining.is_set():
                sock.close()
                continue
            if len(self.connections) >= server.max_connections:
                # Fast shed: the kindest thing a saturated server can
                # do is answer *immediately* so the client backs off
                # instead of timing out.
                server._note_shed("connection_limit")
                try:
                    sock.setblocking(False)
                    sock.send(
                        (
                            json.dumps(
                                server._shed_response(
                                    "overloaded",
                                    retry_after=server.overload_retry_after,
                                    detail=(
                                        "connection limit "
                                        f"({server.max_connections}) reached"
                                    ),
                                )
                            )
                            + "\n"
                        ).encode("utf-8")
                    )
                except OSError:
                    pass
                sock.close()
                continue
            sock.setblocking(False)
            conn = _Connection(sock)
            self.connections[id(conn)] = conn
            self._selector.register(sock, selectors.EVENT_READ, conn)
            server._connection_opened()

    # -- read side -----------------------------------------------------------

    def _read(self, conn: _Connection) -> None:
        try:
            fire("server.read")
            data = conn.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except Exception:
            # OSError from the peer, or an injected read fault: either
            # way this connection failed — the loop must survive.
            self._close(conn)
            return
        if not data:
            self._close(conn)
            return
        conn.inbuf += data
        conn.last_activity = time.monotonic()
        self._pump(conn)

    def _pump(self, conn: _Connection) -> None:
        """Dispatch complete lines while the connection is idle."""
        server = self._server
        limit = server.max_request_bytes
        while not conn.busy and not conn.closed:
            newline = conn.inbuf.find(b"\n")
            if newline < 0:
                if len(conn.inbuf) > limit:
                    self._enqueue_send(
                        conn,
                        server._encode(
                            {
                                "ok": False,
                                "error": (
                                    f"request exceeds {limit} bytes"
                                ),
                                "reason": "request_too_large",
                            }
                        ),
                        close_after=True,
                    )
                return
            raw = bytes(conn.inbuf[:newline])
            del conn.inbuf[: newline + 1]
            if len(raw) > limit:
                self._enqueue_send(
                    conn,
                    server._encode(
                        {
                            "ok": False,
                            "error": f"request exceeds {limit} bytes",
                            "reason": "request_too_large",
                        }
                    ),
                    close_after=True,
                )
                return
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            server._dispatch_line(conn, line)

    # -- write side ----------------------------------------------------------

    def _enqueue_send(
        self, conn: _Connection, data: bytes, close_after: bool = False
    ) -> None:
        if conn.closed:
            return
        conn.outbuf += data
        # Answering marks the request cycle complete; the next
        # pipelined line (if any) may dispatch.
        conn.busy = False
        if close_after:
            conn.close_after_write = True
        self._flush(conn)
        if not conn.closed and not conn.close_after_write:
            self._pump(conn)

    def _flush(self, conn: _Connection) -> None:
        try:
            fire("server.write")
            while conn.outbuf:
                sent = conn.sock.send(conn.outbuf)
                del conn.outbuf[:sent]
        except (BlockingIOError, InterruptedError):
            self._want_write(conn, True)
            return
        except Exception:
            # OSError from the peer, or an injected write fault: the
            # connection is unusable either way.
            self._close(conn)
            return
        self._want_write(conn, False)
        if conn.close_after_write:
            self._close(conn)

    def _want_write(self, conn: _Connection, wanted: bool) -> None:
        events = selectors.EVENT_READ | (
            selectors.EVENT_WRITE if wanted else 0
        )
        try:
            self._selector.modify(conn.sock, events, conn)
        except (KeyError, ValueError, OSError):
            pass

    # -- lifecycle -----------------------------------------------------------

    def _sweep_idle(self) -> None:
        timeout = self._server.read_timeout
        if timeout is None:
            return
        now = time.monotonic()
        for conn in list(self.connections.values()):
            if (
                not conn.busy
                and not conn.outbuf
                and now - conn.last_activity > timeout
            ):
                self._close(conn)

    def _close(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        self.connections.pop(id(conn), None)
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        self._server._connection_closed()


class DelayServer:
    """Serves a :class:`DataProviderService` over TCP.

    Args:
        service: the guarded provider to expose.
        host/port: bind address; port 0 picks a free port.
        read_timeout: seconds a connection may sit idle between requests
            before it is dropped (None disables the timeout).
        max_request_bytes: longest accepted request line; longer lines
            are answered with ``request_too_large`` and the connection
            is closed.
        drain_timeout: how long :meth:`stop` waits for in-flight
            requests (queued, executing, or parked in delay) before
            cancelling whatever is left.
        max_handler_errors: how many recent handler exceptions to retain
            in :attr:`handler_errors`.
        max_workers: fixed worker-thread pool size. Thread count is
            bounded by ``max_workers`` plus a small constant (I/O loop,
            delay scheduler, acceptor) regardless of connection count.
        max_queue: admission-queue capacity; a request arriving at a
            full queue is shed (or trades places with a queued
            lower-priority request). Defaults to ``max_connections``,
            so well-behaved request-response clients are never shed at
            the queue before the connection limit bites.
        max_connections: concurrently open connections; further
            connects receive a fast ``overloaded`` answer and a close.
        max_parked: delay-parking-lot capacity. Over it, the largest
            priced delay is shed first with the full delay as
            ``retry_after``.
        overload_retry_after: the ``retry_after`` hint attached to
            queue/connection sheds.
        cache_fast_path: serve result-cache hits directly on the I/O
            loop, skipping the admission queue and worker-pool round
            trip entirely. A hit is still authorized, priced, recorded,
            and delayed exactly like a worker-served query (the guard's
            ``cache_only`` probe runs the full accounting pipeline); a
            miss falls through to normal admission having charged
            nothing. Only applies when the guard has a result cache.
    """

    def __init__(
        self,
        service: DataProviderService,
        host: str = "127.0.0.1",
        port: int = 0,
        read_timeout: Optional[float] = 30.0,
        max_request_bytes: int = 64 * 1024,
        drain_timeout: float = 5.0,
        max_handler_errors: int = 64,
        max_workers: int = 8,
        max_queue: Optional[int] = None,
        max_connections: int = 128,
        max_parked: Optional[int] = None,
        overload_retry_after: float = 1.0,
        cache_fast_path: bool = True,
    ):
        if read_timeout is not None and read_timeout <= 0:
            raise ConfigError(
                f"read_timeout must be positive, got {read_timeout}"
            )
        if max_request_bytes < 1:
            raise ConfigError(
                f"max_request_bytes must be >= 1, got {max_request_bytes}"
            )
        if drain_timeout < 0:
            raise ConfigError(
                f"drain_timeout must be >= 0, got {drain_timeout}"
            )
        if max_handler_errors < 1:
            raise ConfigError(
                f"max_handler_errors must be >= 1, got {max_handler_errors}"
            )
        if max_workers < 1:
            raise ConfigError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        if max_connections < 1:
            raise ConfigError(
                f"max_connections must be >= 1, got {max_connections}"
            )
        if max_queue is None:
            max_queue = max_connections
        if max_queue < 1:
            raise ConfigError(f"max_queue must be >= 1, got {max_queue}")
        if max_parked is None:
            max_parked = max_connections
        if max_parked < 1:
            raise ConfigError(
                f"max_parked must be >= 1, got {max_parked}"
            )
        if overload_retry_after < 0:
            raise ConfigError(
                f"overload_retry_after must be >= 0, "
                f"got {overload_retry_after}"
            )
        self.service = service
        self.read_timeout = read_timeout
        self.max_request_bytes = max_request_bytes
        self.drain_timeout = drain_timeout
        self.max_workers = max_workers
        self.max_queue = max_queue
        self.max_connections = max_connections
        self.max_parked = max_parked
        self.overload_retry_after = overload_retry_after
        self.cache_fast_path = cache_fast_path
        #: lifetime count of queries answered on the I/O loop straight
        #: from the result cache (no worker-pool round trip).
        self.cache_fast_path_hits = 0
        #: recent unexpected exceptions that escaped request handling,
        #: newest last, bounded so a long-running server cannot leak; a
        #: healthy server keeps this empty. The lifetime total is
        #: :attr:`handler_errors_total`.
        self.handler_errors: Deque[BaseException] = deque(
            maxlen=max_handler_errors
        )
        #: exact lifetime count of handler errors (survives ring wrap).
        self.handler_errors_total = 0
        #: lifetime count of shed requests, by reason.
        self.shed_counts: Dict[str, int] = {}
        self.obs = service.obs
        # Registration only. Queries are NOT serialised here: the
        # guard's pipeline and the engine's read/write lock provide all
        # statement-level synchronisation.
        self._lock = threading.Lock()
        self._draining = threading.Event()
        self._conn_cond = threading.Condition()
        self._connection_count = 0
        self._request_seq = 0
        self._seq_lock = threading.Lock()
        self._queue = _AdmissionQueue(max_queue)
        self._sleeper = _DelayScheduler(self, max_parked)
        self._busy_workers = 0
        self._listener = self._bind(host, port)
        self._address: Tuple[str, int] = self._listener.getsockname()
        self._io: Optional[_IOLoop] = None
        self._workers: List[threading.Thread] = []
        self._started = False
        self._stopped = False
        self._started_at: Optional[float] = None
        #: rolling availability / latency SLO windows for the ``health``
        #: op. Latencies recorded here exclude the priced delay: the
        #: delay is the defense working, not service slowness.
        self.slo = SloTracker()
        if self.obs.enabled:
            self._register_metrics()

    @staticmethod
    def _bind(host: str, port: int) -> socket.socket:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(128)
        return listener

    def _register_metrics(self) -> None:
        """Create the server's metric handles in the shared registry."""
        registry = self.obs.registry
        self._m_requests = registry.counter(
            "server_requests_total", "Requests received, by op", ("op",)
        )
        self._m_denied = registry.counter(
            "server_denied_total",
            "Requests answered with a denial, by reason",
            ("reason",),
        )
        self._m_handler_errors = registry.counter(
            "server_handler_errors_total",
            "Unexpected exceptions that escaped request handling",
        )
        self._m_connections = registry.counter(
            "server_connections_total", "Connections accepted"
        )
        self._m_shed = registry.counter(
            "server_shed_total",
            "Requests shed by overload protection, by shed point",
            ("reason",),
        )
        registry.gauge(
            "server_in_flight_connections",
            "Connections currently being served",
        ).set_function(lambda: self.active_connections)
        registry.gauge(
            "server_queue_depth",
            "Requests waiting for a worker in the admission queue",
        ).set_function(lambda: len(self._queue))
        registry.gauge(
            "server_queue_capacity", "Admission-queue capacity"
        ).set_function(lambda: self.max_queue)
        registry.gauge(
            "server_parked_delays",
            "Responses currently waiting out a priced delay",
        ).set_function(lambda: len(self._sleeper))
        registry.gauge(
            "server_workers", "Worker-pool size"
        ).set_function(lambda: self.max_workers)
        registry.gauge(
            "server_workers_busy",
            "Workers currently executing a request",
        ).set_function(lambda: self._busy_workers)
        registry.counter(
            "faults_injected_total",
            "Faults fired by the chaos-testing injector",
        ).set_function(lambda: injector.fired_total)
        registry.gauge(
            "server_uptime_seconds",
            "Seconds since the server last started serving",
        ).set_function(lambda: self.uptime_seconds)
        registry.counter(
            "server_cache_fast_path_hits_total",
            "Queries answered on the I/O loop straight from the "
            "result cache",
        ).set_function(lambda: self.cache_fast_path_hits)
        registry.gauge(
            "repro_build_info",
            "Build information; value is always 1",
            ("version", "python"),
        ).set(1, **build_info())

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port)."""
        return self._address

    @property
    def active_connections(self) -> int:
        """Connections currently being served."""
        with self._conn_cond:
            return self._connection_count

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a worker."""
        return len(self._queue)

    @property
    def parked_delays(self) -> int:
        """Responses currently waiting out a priced delay."""
        return len(self._sleeper)

    @property
    def uptime_seconds(self) -> float:
        """Seconds since the last :meth:`start` (0.0 before the first)."""
        if self._started_at is None:
            return 0.0
        return max(0.0, time.monotonic() - self._started_at)

    def start(self) -> None:
        """Serve in background threads until :meth:`stop`.

        A stopped server may be started again: :meth:`stop` closed the
        listening socket, so a fresh one is bound to the same address.
        """
        if self._started:
            raise ConfigError("server already started")
        if self._stopped:
            self._listener = self._bind(*self._address)
            self._address = self._listener.getsockname()
            self._queue = _AdmissionQueue(self.max_queue)
            self._sleeper = _DelayScheduler(self, self.max_parked)
            self._stopped = False
        self._draining.clear()
        self._io = _IOLoop(self, self._listener)
        self._io.start()
        self._sleeper.start()
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-worker-{index}",
                daemon=True,
            )
            for index in range(self.max_workers)
        ]
        for worker in self._workers:
            worker.start()
        self._started = True
        self._started_at = time.monotonic()

    def stop(self) -> None:
        """Stop accepting, drain in-flight work, then close.

        The drain covers queued requests, executing requests, and
        delays parked in the scheduler — all bounded by
        ``drain_timeout``. Whatever is left when the budget runs out is
        answered with a ``shutting_down`` denial (parked entries
        report the delay they still owed as ``retry_after``), so
        shutdown is never held hostage by a penalised query.
        """
        if not self._started:
            self._teardown()
            return
        self._draining.set()
        deadline = time.monotonic() + self.drain_timeout
        while time.monotonic() < deadline:
            busy = (
                len(self._queue)
                or len(self._sleeper)
                or self._busy_workers
                or (self._io is not None and self._io.busy_count())
            )
            if not busy:
                break
            time.sleep(0.01)
        # Cancel whatever outlived the drain budget.
        self._queue.close()
        for request in self._queue.drain():
            self._send_response(
                request.conn, self._shed_response("shutting_down")
            )
        self._sleeper.cancel_all("shutting_down")
        self._sleeper.stop()
        for worker in self._workers:
            worker.join(timeout=2)
        self._workers = []
        # Give final responses a moment to flush before closing sockets.
        flush_deadline = time.monotonic() + 1.0
        while time.monotonic() < flush_deadline:
            if self._io is None or not self._io.busy_count():
                break
            time.sleep(0.01)
        self._teardown()

    def _teardown(self) -> None:
        if self._io is not None:
            self._io.shutdown()
            self._io.join(timeout=5)
            self._io = None
        try:
            self._listener.close()
        except OSError:
            pass
        self._started = False
        self._stopped = True

    def __enter__(self) -> "DelayServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- connection bookkeeping ------------------------------------------------

    def _connection_opened(self) -> None:
        with self._conn_cond:
            self._connection_count += 1
        if self.obs.enabled:
            self._m_connections.inc()

    def _connection_closed(self) -> None:
        with self._conn_cond:
            self._connection_count -= 1
            self._conn_cond.notify_all()

    def _record_handler_error(self, error: BaseException) -> None:
        with self._conn_cond:
            self.handler_errors.append(error)
            self.handler_errors_total += 1
        if self.obs.enabled:
            self._m_handler_errors.inc()

    # -- shedding helpers ------------------------------------------------------

    def _shed_response(
        self,
        reason: str,
        retry_after: float = 0.0,
        detail: str = "",
    ) -> Dict:
        message = {
            "overloaded": "server overloaded",
            "shutting_down": "server shutting down",
        }.get(reason, reason)
        if detail:
            message = f"{message}: {detail}"
        return {
            "ok": False,
            "error": message,
            "reason": reason,
            "retry_after": retry_after,
        }

    def _note_shed(self, point: str) -> None:
        with self._conn_cond:
            self.shed_counts[point] = self.shed_counts.get(point, 0) + 1
        self.service.guard.stats.note_shed()
        self.slo.note("shed")
        if self.obs.enabled:
            self._m_shed.inc(reason=point)
        audit = self.obs.audit
        if audit is not None:
            audit.emit("query_shed", point=point)

    # -- request intake (I/O loop thread) --------------------------------------

    def _encode(self, payload: Dict) -> bytes:
        return (json.dumps(payload) + "\n").encode("utf-8")

    def _send_response(
        self,
        conn: _Connection,
        payload: Dict,
        close_after: bool = False,
    ) -> None:
        """Hand a response to the I/O loop for delivery (any thread)."""
        io = self._io
        if io is None:
            return
        io.submit(("send", conn, self._encode(payload), close_after))

    def _dispatch_line(self, conn: _Connection, line: str) -> None:
        """Parse, validate, and admit one request line (I/O thread).

        Anything that can be answered without a worker — parse errors,
        invalid fields, admission sheds — is answered here, so a
        saturated worker pool never delays the fast rejection path.
        """
        received_at = time.monotonic()
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as error:
            self._send_response(
                conn, {"ok": False, "error": f"bad json: {error}"}
            )
            return
        if not isinstance(payload, dict) or "op" not in payload:
            self._send_response(
                conn,
                {"ok": False, "error": "request must be {'op': ...}"},
            )
            return
        op = payload["op"]
        if self.obs.enabled:
            self._m_requests.inc(op=op if op in KNOWN_OPS else "unknown")
        invalid = self._validate_request(payload)
        if invalid is not None:
            if self.obs.enabled:
                self._m_denied.inc(reason="bad_request")
            self._send_response(conn, invalid)
            return
        if self._draining.is_set():
            self._send_response(conn, self._shed_response("shutting_down"))
            return
        deadline_at = None
        if payload.get("deadline_ms") is not None:
            deadline_at = received_at + payload["deadline_ms"] / 1000.0
        if (
            op == "query"
            and self.cache_fast_path
            and getattr(self.service.guard, "result_cache", None) is not None
            and self._try_cache_fast_path(
                conn, payload, received_at, deadline_at
            )
        ):
            return
        priority = payload.get("priority", PRIORITY_DEFAULT)
        with self._seq_lock:
            self._request_seq += 1
            seq = self._request_seq
        request = _Request(
            conn=conn,
            payload=payload,
            seq=seq,
            received_at=received_at,
            deadline_at=deadline_at,
            priority=int(priority),
        )
        conn.busy = True
        admitted, victim = self._queue.offer(request)
        if victim is not None:
            self._note_shed("queue_full")
            self._send_response(
                victim.conn,
                self._shed_response(
                    "overloaded",
                    retry_after=self.overload_retry_after,
                    detail="displaced by a higher-priority request",
                ),
            )
        if not admitted:
            self._note_shed("queue_full")
            self._send_response(
                conn,
                self._shed_response(
                    "overloaded",
                    retry_after=self.overload_retry_after,
                    detail=f"admission queue full ({self.max_queue})",
                ),
            )

    def _try_cache_fast_path(
        self,
        conn: _Connection,
        payload: Dict,
        received_at: float,
        deadline_at: Optional[float],
    ) -> bool:
        """Answer a query from the result cache on the I/O loop.

        Returns True when the request was fully answered here (a cache
        hit, a denial, or a statement error) and False when it must
        continue through the admission queue — a miss probe returns
        before the authorize stage, so the account has not been
        charged and the worker-pool run charges exactly once.
        """
        sql = payload.get("sql")
        if not isinstance(sql, str) or not sql:
            return False
        guard = self.service.guard
        try:
            result = guard.execute(
                sql,
                identity=payload.get("identity"),
                sleep=False,
                deadline_at=deadline_at,
                cache_only=True,
            )
        except (EngineError, DelayDefenseError) as error:
            self._send_response(conn, self._deny(error))
            return True
        if result is None:
            return False
        self.cache_fast_path_hits += 1
        self.slo.note("ok", latency=time.monotonic() - received_at)
        response = self._query_response(result)
        if result.delay <= 0:
            self._send_response(conn, response)
            return True
        if hasattr(self.service.clock, "advance"):
            sleep_start = time.perf_counter()
            self.service.clock.sleep(result.delay)
            if result.trace is not None:
                result.trace.extend("sleep", sleep_start, time.perf_counter())
            self._send_response(conn, response)
            return True
        with self._seq_lock:
            self._request_seq += 1
            seq = self._request_seq
        request = _Request(
            conn=conn,
            payload=payload,
            seq=seq,
            received_at=received_at,
            deadline_at=deadline_at,
            priority=int(payload.get("priority", PRIORITY_DEFAULT)),
        )
        conn.busy = True
        parked = self._sleeper.park(
            request, response, result.delay, result.trace
        )
        if parked is not None:
            self._send_response(conn, parked)
        return True

    @staticmethod
    def _validate_request(payload: Dict) -> Optional[Dict]:
        """Type/range-check client-supplied fields.

        Returns a structured ``bad_request`` response for invalid
        input, None when the request is well-formed. Bad values are a
        client bug (or a probe), not a handler exception.
        """

        def bad(message: str) -> Dict:
            return {"ok": False, "error": message, "reason": "bad_request"}

        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None:
            if isinstance(deadline_ms, bool) or not isinstance(
                deadline_ms, (int, float)
            ):
                return bad(
                    "deadline_ms must be a number of milliseconds, got "
                    f"{type(deadline_ms).__name__}"
                )
            if (
                deadline_ms != deadline_ms  # NaN
                or deadline_ms <= 0
                or deadline_ms > DEADLINE_MS_MAX
            ):
                return bad(
                    f"deadline_ms must be in (0, {DEADLINE_MS_MAX:.0f}], "
                    f"got {deadline_ms}"
                )
        priority = payload.get("priority")
        if priority is not None:
            if isinstance(priority, bool) or not isinstance(priority, int):
                return bad(
                    "priority must be an integer, got "
                    f"{type(priority).__name__}"
                )
            if not PRIORITY_MIN <= priority <= PRIORITY_MAX:
                return bad(
                    f"priority must be in [{PRIORITY_MIN}, "
                    f"{PRIORITY_MAX}], got {priority}"
                )
        identity = payload.get("identity")
        if identity is not None and not isinstance(identity, str):
            return bad(
                f"identity must be a string, got {type(identity).__name__}"
            )
        if payload.get("op") == "query":
            sql = payload.get("sql")
            if sql is not None and not isinstance(sql, str):
                return bad(
                    f"sql must be a string, got {type(sql).__name__}"
                )
        return None

    # -- request execution (worker threads) ------------------------------------

    def _worker_loop(self) -> None:
        while True:
            request = self._queue.pop()
            if request is None:
                return
            with self._conn_cond:
                self._busy_workers += 1
            try:
                response = self._execute_request(request)
            except Exception as error:  # noqa: BLE001 — isolate the worker
                # Expected errors were mapped below; anything escaping
                # is a server bug. Record it (tests assert this list is
                # empty) and keep the worker alive.
                self._record_handler_error(error)
                self.slo.note("error")
                response = {
                    "ok": False,
                    "error": f"internal server error: {error}",
                    "reason": "internal_error",
                }
            finally:
                with self._conn_cond:
                    self._busy_workers -= 1
            if response is not None:
                self._send_response(
                    request.conn,
                    response,
                    close_after=response.get("op") == "bye",
                )

    def _execute_request(self, request: _Request) -> Optional[Dict]:
        """Run one admitted request; None means a parked delay will
        answer it later."""
        try:
            fire("server.handler")
            if (
                request.deadline_at is not None
                and time.monotonic() >= request.deadline_at
            ):
                # The budget died in the queue: answer before doing
                # work the client no longer wants.
                raise AccessDenied("deadline_exceeded")
            if request.op == "query":
                return self._handle_query_async(request)
            return self._route_op(request.payload)
        except (EngineError, DelayDefenseError) as error:
            return self._deny(error)

    def _deny(self, error: Exception) -> Dict:
        """The response for a refused or failed statement.

        A refused or malformed statement is the request's fault, not
        the server's: a denial for SLO purposes, not an error. Guard
        refusals carry their machine-readable reason and retry hint.
        """
        self.slo.note("denied")
        if not isinstance(error, AccessDenied):
            return {"ok": False, "error": str(error)}
        if self.obs.enabled:
            self._m_denied.inc(reason=error.reason or "denied")
        return {
            "ok": False,
            "error": str(error),
            "reason": error.reason,
            "retry_after": error.retry_after,
        }

    @staticmethod
    def _query_response(result: GuardedResult) -> Dict:
        """The wire answer for a served statement (delay not yet slept)."""
        return {
            "ok": True,
            "columns": result.result.columns,
            "rows": [list(row) for row in result.result.rows],
            "delay": result.delay,
            "rowcount": result.result.rowcount,
            "cached": result.cached,
        }

    def _handle_query_async(self, request: _Request) -> Optional[Dict]:
        """Execute a query; park its delay instead of sleeping on it."""
        payload = request.payload
        sql = payload.get("sql")
        if not sql:
            return {
                "ok": False,
                "error": "query needs sql",
                "reason": "bad_request",
            }
        result = self.service.guard.execute(
            sql,
            identity=payload.get("identity"),
            sleep=False,
            deadline_at=request.deadline_at,
        )
        # SLO latency deliberately excludes the priced delay served
        # below: the delay is the defense working, not slowness.
        self.slo.note(
            "ok", latency=time.monotonic() - request.received_at
        )
        response = self._query_response(result)
        if result.delay <= 0:
            return response
        if hasattr(self.service.clock, "advance"):
            # Simulated clock: charging the delay is instantaneous, so
            # there is nothing to park — account it and answer.
            sleep_start = time.perf_counter()
            self.service.clock.sleep(result.delay)
            if result.trace is not None:
                result.trace.extend(
                    "sleep", sleep_start, time.perf_counter()
                )
            return response
        return self._sleeper.park(
            request, response, result.delay, result.trace
        )

    # -- request dispatch (synchronous / embedded path) -------------------------

    def handle_request(self, line: str) -> Dict:
        """Process one JSON request line into a response dict.

        The synchronous embedding API (also used by tests): delays are
        served inline on the caller's thread. The TCP path instead
        flows through the admission queue, worker pool, and delay
        parking lot.
        """
        try:
            request = json.loads(line)
        except json.JSONDecodeError as error:
            return {"ok": False, "error": f"bad json: {error}"}
        if not isinstance(request, dict) or "op" not in request:
            return {"ok": False, "error": "request must be {'op': ...}"}
        op = request["op"]
        if self.obs.enabled:
            self._m_requests.inc(op=op if op in KNOWN_OPS else "unknown")
        invalid = self._validate_request(request)
        if invalid is not None:
            if self.obs.enabled:
                self._m_denied.inc(reason="bad_request")
            return invalid
        try:
            if op == "query":
                return self._handle_query_sync(request)
            return self._route_op(request)
        except (EngineError, DelayDefenseError) as error:
            return self._deny(error)

    def _route_op(self, request: Dict) -> Dict:
        """Dispatch every op except ``query`` (shared by both paths)."""
        op = request["op"]
        if op == "ping":
            return {"ok": True, "op": "pong"}
        if op == "bye":
            return {"ok": True, "op": "bye"}
        if op == "register":
            return self._handle_register(request)
        if op == "report":
            return self._handle_report()
        if op == "metrics":
            return self._handle_metrics(request)
        if op == "trace":
            return self._handle_trace(request)
        if op == "forensics":
            return self._handle_forensics(request)
        if op == "health":
            return self._handle_health()
        if op == "checkpoint":
            return self._handle_checkpoint()
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _handle_register(self, request: Dict) -> Dict:
        identity = request.get("identity")
        if not identity:
            return {"ok": False, "error": "register needs an identity"}
        with self._lock:
            account = self.service.register(
                identity, subnet=request.get("subnet", "0.0.0.0/0")
            )
        return {
            "ok": True,
            "identity": account.identity,
            "registered_at": account.registered_at,
        }

    def _handle_query_sync(self, request: Dict) -> Dict:
        """The embedded query path: serve the delay on this thread."""
        sql = request.get("sql")
        if not sql:
            return {
                "ok": False,
                "error": "query needs sql",
                "reason": "bad_request",
            }
        started = time.monotonic()
        deadline_at = None
        if request.get("deadline_ms") is not None:
            deadline_at = started + request["deadline_ms"] / 1000.0
        result = self.service.guard.execute(
            sql,
            identity=request.get("identity"),
            sleep=False,
            deadline_at=deadline_at,
        )
        # Latency excludes the priced delay served below (see the
        # async path).
        self.slo.note("ok", latency=time.monotonic() - started)
        if result.delay > 0:
            sleep_start = time.perf_counter()
            self.service.clock.sleep(result.delay)
            if result.trace is not None:
                result.trace.extend(
                    "sleep", sleep_start, time.perf_counter()
                )
        return self._query_response(result)

    def _handle_report(self) -> Dict:
        # Lock-free: report() reads the engine under its read lock and
        # the trackers/stats under their own locks.
        report = self.service.report()
        return {
            "ok": True,
            "users": report.users,
            "queries": report.queries,
            "denied": report.denied,
            "median_user_delay": report.median_user_delay,
            "extraction_cost": report.extraction_cost,
            "max_extraction_cost": report.max_extraction_cost,
        }

    def _handle_metrics(self, request: Dict) -> Dict:
        # Registry reads take only per-metric locks: a scrape during a
        # long penalised query returns immediately.
        fmt = request.get("format", "json")
        if fmt == "json":
            return {"ok": True, "metrics": self.obs.registry.to_json()}
        if fmt == "prometheus":
            return {
                "ok": True,
                "content_type": "text/plain; version=0.0.4",
                "text": self.obs.registry.render_prometheus(),
            }
        return {
            "ok": False,
            "error": f"unknown metrics format {fmt!r}; "
            "use 'json' or 'prometheus'",
        }

    def _handle_checkpoint(self) -> Dict:
        """Snapshot service state and truncate the journal.

        The target is always the service's configured ``snapshot_path``
        — a client-supplied path would let any remote peer write files
        wherever the server process can. A service without a configured
        path answers with a :class:`~repro.core.errors.ConfigError`
        message.
        """
        seq = self.service.checkpoint()
        return {
            "ok": True,
            "journal_seq": seq,
            "checkpoints_completed": self.service.checkpoints_completed,
        }

    def _handle_trace(self, request: Dict) -> Dict:
        limit = request.get("limit", 20)
        if not isinstance(limit, int) or limit < 1:
            return {"ok": False, "error": f"limit must be >= 1, got {limit}"}
        return {
            "ok": True,
            "traces": self.obs.tracer.to_json(limit),
            "finished_total": self.obs.tracer.finished_total,
        }

    def _handle_forensics(self, request: Dict) -> Dict:
        """Top risk-ranked identities from the live forensics monitor."""
        forensics = self.service.guard.forensics
        if forensics is None:
            return {
                "ok": False,
                "error": (
                    "forensics is not enabled on this guard; set "
                    "GuardConfig(forensics=True)"
                ),
                "reason": "not_enabled",
            }
        limit = request.get("limit", 10)
        if (
            isinstance(limit, bool)
            or not isinstance(limit, int)
            or limit < 1
        ):
            return {"ok": False, "error": f"limit must be >= 1, got {limit}"}
        payload = {"ok": True, "identities": forensics.top(limit)}
        payload.update(forensics.summary())
        return payload

    def _handle_health(self) -> Dict:
        """One self-describing operational snapshot for dashboards.

        Everything an operator needs to answer "is the defense healthy
        and holding?": saturation of every bounded resource, rolling
        availability/latency SLO windows, durability (journal lag since
        the last checkpoint), live per-table staleness guarantees
        (S_max, eqs. 8-12), forensic flag counts, and the process-wide
        client circuit breakers.
        """
        guard = self.service.guard
        forensics = guard.forensics
        with DelayClient._shared_breakers_lock:
            breaker_items = list(DelayClient._shared_breakers.items())
        queue_depth = len(self._queue)
        cluster = (
            self.service.cluster_health()
            if hasattr(self.service, "cluster_health")
            else None
        )
        return {
            "ok": True,
            "status": "draining" if self._draining.is_set() else "serving",
            "build": build_info(),
            "uptime_seconds": self.uptime_seconds,
            "server": {
                "queue_depth": queue_depth,
                "queue_capacity": self.max_queue,
                "queue_saturation": queue_depth / self.max_queue,
                "parked_delays": len(self._sleeper),
                "max_parked": self.max_parked,
                "workers": self.max_workers,
                "workers_busy": self._busy_workers,
                "connections": self.active_connections,
                "max_connections": self.max_connections,
                "shed_counts": dict(self.shed_counts),
                "handler_errors_total": self.handler_errors_total,
                "cache_fast_path_hits": self.cache_fast_path_hits,
            },
            "cluster": cluster,
            "slo": self.slo.report(),
            "durability": self.service.durability_health(),
            "staleness": guard.refresh_staleness_gauges(),
            "forensics": (
                forensics.summary() if forensics is not None else None
            ),
            "audit": (
                self.obs.audit.stats()
                if self.obs.audit is not None
                else None
            ),
            "breakers": {
                f"{host}:{port}": breaker.snapshot()
                for (host, port), breaker in breaker_items
            },
        }


class ServerError(DelayDefenseError):
    """Raised by :class:`DelayClient` when the server reports an error.

    Attributes:
        reason: the machine-readable denial reason, when the server sent
            one (e.g. ``query_quota``, ``user_rate``, ``overloaded``,
            ``deadline_exceeded``, ``bad_request``).
        retry_after: seconds after which the request may succeed, when
            the server knows (0.0 otherwise).
    """

    def __init__(self, payload: Dict):
        super().__init__(payload.get("error", "server error"))
        self.payload = payload
        self.reason = payload.get("reason")
        self.retry_after = payload.get("retry_after", 0.0)


class ConnectionClosed(ServerError):
    """The transport died: no response arrived for the request.

    Distinct from an application-level denial (plain
    :class:`ServerError`): the caller cannot know whether the request
    was processed, so retrying may repeat side effects.
    """

    def __init__(self, detail: str = "connection closed by server"):
        super().__init__({"error": detail})


#: Denial reasons :meth:`DelayClient.query` never retries: waiting and
#: resending the identical request cannot change the answer.
NON_RETRYABLE_REASONS = frozenset(
    {"deadline_exceeded", "bad_request", "request_too_large"}
)


class DelayClient:
    """JSON-lines client for :class:`DelayServer`.

    Resilience: :meth:`query` retries transport failures and overload
    sheds with capped exponential backoff and full jitter (so a fleet
    of shed clients does not stampede back in lockstep), honours
    ``retry_after`` hints from throttle denials, and never retries
    semantic denials. An optional per-endpoint circuit breaker
    (``breaker=True``, or pass a
    :class:`~repro.core.resilience.CircuitBreaker`) fails calls fast
    locally after repeated transport/overload failures, probing the
    endpoint again after its ``probe_interval``.

    >>> # with DelayServer(service) as server:
    >>> #     client = DelayClient(*server.address)
    >>> #     client.query("SELECT * FROM t WHERE id = 1")
    """

    #: process-wide per-endpoint breakers, shared by every client that
    #: asked for ``breaker=True`` against the same (host, port).
    _shared_breakers: Dict[Tuple[str, int], CircuitBreaker] = {}
    _shared_breakers_lock = threading.Lock()

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        breaker: Union[CircuitBreaker, bool, None] = None,
        backoff: Optional[BackoffPolicy] = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        if breaker is True:
            breaker = self.shared_breaker(host, port)
        elif breaker is False:
            breaker = None
        self.breaker: Optional[CircuitBreaker] = breaker
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        #: retry_after from the most recent denial (0.0 when none).
        self.last_retry_after = 0.0
        #: lifetime retry/reconnect counts for this client.
        self.retries_performed = 0
        self.reconnects_performed = 0
        self._connect()

    @classmethod
    def shared_breaker(
        cls,
        host: str,
        port: int,
        failure_threshold: int = 5,
        probe_interval: float = 1.0,
    ) -> CircuitBreaker:
        """The process-wide breaker for one endpoint (created on first
        use); every client passing ``breaker=True`` shares it, so one
        client's failures protect the rest of the process."""
        key = (host, port)
        with cls._shared_breakers_lock:
            existing = cls._shared_breakers.get(key)
            if existing is None:
                existing = CircuitBreaker(
                    endpoint=f"{host}:{port}",
                    failure_threshold=failure_threshold,
                    probe_interval=probe_interval,
                )
                cls._shared_breakers[key] = existing
            return existing

    def _connect(self) -> None:
        self._socket = socket.create_connection(
            (self.host, self.port), self.timeout
        )
        self._file = self._socket.makefile("rwb")

    def _reconnect(self) -> None:
        try:
            self._file.close()
            self._socket.close()
        except OSError:
            pass
        self._connect()
        self.reconnects_performed += 1

    def _call(self, request: Dict) -> Dict:
        """One request/response round trip, feeding the breaker.

        Breaker accounting: transport failures and overload sheds count
        as failures (the endpoint is unhealthy); any other answer —
        including semantic denials — counts as a success (the server
        answered competently).
        """
        if self.breaker is not None:
            self.breaker.before_call()
        try:
            response = self._roundtrip(request)
        except ConnectionClosed:
            if self.breaker is not None:
                self.breaker.record_failure()
            raise
        except ServerError as error:
            if self.breaker is not None:
                if error.reason == "overloaded":
                    self.breaker.record_failure()
                else:
                    self.breaker.record_success()
            raise
        if self.breaker is not None:
            self.breaker.record_success()
        return response

    def _roundtrip(self, request: Dict) -> Dict:
        try:
            self._file.write((json.dumps(request) + "\n").encode("utf-8"))
            self._file.flush()
            line = self._file.readline()
        except OSError as error:
            raise ConnectionClosed(f"transport failure: {error}") from error
        if not line:
            raise ConnectionClosed()
        try:
            response = json.loads(line.decode("utf-8", errors="replace"))
        except json.JSONDecodeError as error:
            # A half-written line (server died mid-response) is a
            # transport failure, not an application denial: the caller
            # cannot know whether the request took effect.
            raise ConnectionClosed(
                f"garbled server response: {error}"
            ) from error
        if not isinstance(response, dict):
            raise ConnectionClosed(
                f"garbled server response: expected an object, "
                f"got {type(response).__name__}"
            )
        if not response.get("ok"):
            error = ServerError(response)
            self.last_retry_after = error.retry_after
            raise error
        self.last_retry_after = 0.0
        return response

    def ping(self) -> bool:
        """Round-trip health check."""
        return self._call({"op": "ping"})["op"] == "pong"

    def register(self, identity: str, subnet: str = "0.0.0.0/0") -> Dict:
        """Register an identity with the provider."""
        return self._call(
            {"op": "register", "identity": identity, "subnet": subnet}
        )

    def query(
        self,
        sql: str,
        identity: Optional[str] = None,
        retries: int = 0,
        max_retry_wait: float = 5.0,
        max_retry_elapsed: float = 30.0,
        deadline_ms: Optional[float] = None,
        priority: Optional[int] = None,
    ) -> Dict:
        """Run one statement; returns columns/rows/delay.

        Args:
            retries: how many times to retry a *retryable* failure:
                a transport failure (:class:`ConnectionClosed` — the
                client reconnects first), an ``overloaded`` shed, or a
                denial carrying a ``retry_after`` hint. Semantic
                denials (``bad_request``, ``deadline_exceeded``,
                ``request_too_large``, or any hint-less refusal) are
                never retried — resending the same request cannot
                change the answer.
            max_retry_wait: give up instead of honouring a hint longer
                than this many seconds; also caps each backoff draw.
            max_retry_elapsed: total wall-clock budget across all
                retry waits; once spent, the last error surfaces.
            deadline_ms: end-to-end budget forwarded to the server; the
                guard aborts the request once it cannot finish (and
                rejects a mandated delay that would not fit, reporting
                the full delay as ``retry_after``).
            priority: 0 (expendable) .. 9 (critical); under overload
                the server sheds lower priorities first.
        """
        request: Dict = {"op": "query", "sql": sql}
        if identity is not None:
            request["identity"] = identity
        if deadline_ms is not None:
            request["deadline_ms"] = deadline_ms
        if priority is not None:
            request["priority"] = priority
        attempts_left = retries
        attempt = 0
        started = time.monotonic()
        while True:
            try:
                return self._call(request)
            except ConnectionClosed:
                if attempts_left <= 0:
                    raise
                wait = self.backoff.wait(attempt)
                self._wait_to_retry(wait, started, max_retry_elapsed)
                attempts_left -= 1
                attempt += 1
                self.retries_performed += 1
                try:
                    self._reconnect()
                except OSError as error:
                    if attempts_left <= 0:
                        raise ConnectionClosed(
                            f"reconnect failed: {error}"
                        ) from error
            except ServerError as denied:
                wait = denied.retry_after
                retryable = denied.reason == "overloaded" or (
                    wait > 0 and denied.reason not in NON_RETRYABLE_REASONS
                )
                if not retryable or attempts_left <= 0:
                    raise
                if wait > max_retry_wait:
                    raise
                if wait <= 0:
                    wait = self.backoff.wait(attempt)
                self._wait_to_retry(wait, started, max_retry_elapsed)
                attempts_left -= 1
                attempt += 1
                self.retries_performed += 1

    @staticmethod
    def _wait_to_retry(
        wait: float, started: float, max_retry_elapsed: float
    ) -> None:
        """Sleep before a retry, unless it would bust the total budget."""
        elapsed = time.monotonic() - started
        if elapsed + wait > max_retry_elapsed:
            raise ServerError(
                {
                    "error": (
                        "retry budget exhausted after "
                        f"{elapsed:.2f}s (cap {max_retry_elapsed}s)"
                    ),
                    "reason": "retry_budget",
                }
            )
        if wait > 0:
            time.sleep(wait)

    def report(self) -> Dict:
        """Fetch the operator report."""
        return self._call({"op": "report"})

    def checkpoint(self) -> Dict:
        """Ask the server to snapshot its state and truncate its journal."""
        return self._call({"op": "checkpoint"})

    def metrics(self, format: str = "json") -> Dict:
        """Scrape the server's metrics registry.

        Args:
            format: ``"json"`` (structured snapshots under ``metrics``)
                or ``"prometheus"`` (text exposition under ``text``).
        """
        return self._call({"op": "metrics", "format": format})

    def traces(self, limit: int = 20) -> Dict:
        """Fetch the most recent query-lifecycle traces, newest first."""
        return self._call({"op": "trace", "limit": limit})

    def forensics(self, limit: int = 10) -> Dict:
        """Fetch the top risk-ranked identities from live forensics."""
        return self._call({"op": "forensics", "limit": limit})

    def health(self) -> Dict:
        """Fetch the server's health / SLO / staleness snapshot."""
        return self._call({"op": "health"})

    def resilience_stats(self) -> Dict:
        """Client-side resilience state: breaker + retry counters."""
        return {
            "breaker": (
                self.breaker.snapshot() if self.breaker is not None else None
            ),
            "retries_performed": self.retries_performed,
            "reconnects_performed": self.reconnects_performed,
        }

    def close(self) -> None:
        """Say goodbye and close the connection.

        Closing is best-effort: a peer that already went away (or shed
        this connection) must not turn cleanup into a new exception.
        """
        try:
            self._roundtrip({"op": "bye"})
        except (ServerError, OSError):
            pass
        try:
            self._file.close()
        except OSError:
            pass
        try:
            self._socket.close()
        except OSError:
            pass

    def __enter__(self) -> "DelayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
