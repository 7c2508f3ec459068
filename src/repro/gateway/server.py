"""The HTTP gateway server: the broker's own HTTP/1.1 front end.

``ScaliaGateway`` owns a listening socket and one accept loop; each
accepted connection gets a thread running :class:`GatewayHandler`, which
reads request heads, translates the S3-flavored route table
(:mod:`repro.gateway.routes`) into
:class:`~repro.gateway.frontend.BrokerFrontend` calls and writes the
responses.  HTTP/1.1 keep-alive and pipelining, no dependencies outside
the stdlib.

The connection layer is written for the small request, where it is most
of the cost: a request head is parsed in one pass over the buffered
socket into a plain dict of lower-cased names, and a response head is
built once as ``bytes`` and leaves in the same ``sendmsg`` as any body
the handler already holds (a JSON reply, an error, a GET's first block),
so a small response is one write.  A connection that sends no request
head within :data:`HEAD_TIMEOUT_S` is closed, so silent sockets cannot
hold ``max_connections`` slots.  Limits and semantics: docs/GATEWAY.md.

The data plane is streamed end to end: request bodies (sized *or*
``Transfer-Encoding: chunked``) are pulled block-by-block into the
broker's stripe writer, and GET responses are pushed stripe-by-stripe —
the server never materializes an object, so its memory stays O(stripe)
however large the payloads grow.  ``Range`` requests answer 206 with a
``Content-Range``; ``If-Match`` / ``If-None-Match`` answer 412/304
against the content-MD5 ETag; multipart uploads ride the S3 query-string
protocol (``?uploads``, ``?partNumber=&uploadId=``, ``?uploadId=``).

Tenancy rides on the ``x-scalia-tenant`` header (default ``public``); the
frontend's namespace mapper turns ``tenant:bucket`` into the internal
broker container, so the gateway itself never touches broker state.
"""

from __future__ import annotations

import base64
import binascii
import email.utils
import http
import http.client
import json
import os
import re
import select
import socket
import sys
import threading
import time
from typing import Any, Iterator, Optional, Tuple
from urllib.parse import urlsplit

from repro import __version__
from repro.cluster.engine import ObjectNotFoundError
from repro.obs.logging import StructuredLogger, get_logger
from repro.obs.trace import end_trace, span, start_trace
from repro.gateway.frontend import BrokerFrontend
from repro.gateway.routes import (
    Route,
    RouteError,
    check_preconditions,
    error_answer,
    int_param,
    parse_range_header,
    parse_route,
)
from repro.providers.registry import UnknownProviderError
from repro.replication.errors import ClusterUnavailableError, NotLeaderError
from repro.util.units import parse_duration

#: Largest accepted object payload (keeps a stray client from filling the
#: providers by accident; real S3 caps single PUTs at 5 GiB).
MAX_BODY_BYTES = 256 * 1024 * 1024

#: Largest body read whole (a multipart completion manifest); object and
#: part bodies stream from the socket into the stripe writer instead.
SMALL_BODY_BYTES = 1024 * 1024

#: Block size for streaming request bodies and responses.
IO_BLOCK_BYTES = 256 * 1024

#: Cap on ``POST /tick?periods=N``: each period runs the full optimization
#: loop while holding the broker serialization, so an unbounded N would let
#: one request wedge the gateway for everyone.
MAX_TICK_PERIODS = 10_000

#: How long a connection may take to send a request head, counted from
#: accept or from the end of its previous response; a silent client is
#: then closed and its ``max_connections`` slot freed.  The same bound
#: holds for each read of the body, so a client that stalls mid-body
#: gets a 408 (and a write it began is aborted); it is cleared
#: before the response is written, so slow readers are not cut off.
HEAD_TIMEOUT_S = 60.0

#: Unix epoch of the simulation clock's hour zero, used to render the
#: deterministic ``Last-Modified`` header (2012-01-01, the paper's year).
SIM_EPOCH = 1325376000.0

DEFAULT_TENANT = "public"
TENANT_HEADER = "x-scalia-tenant"
RULE_HEADER = "x-scalia-rule"
#: Marks a request a follower already relayed once — a leader flap must
#: surface as a 503 to the client, never a forwarding loop.
FORWARDED_HEADER = "x-scalia-forwarded"


def _repair(route: Route) -> bool:
    """``?repair=`` of a scrub or an audit: on unless 0, false or no."""
    return route.params.get("repair", "1") not in ("0", "false", "no")


#: Raw rejection response for connections over the per-worker cap, sent
#: without spinning up a handler (the point is to shed load cheaply).
_OVERLOAD_BODY = b'{"error": "gateway at connection capacity", "status": 503}'
_OVERLOAD_RESPONSE = (
    b"HTTP/1.1 503 Service Unavailable\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: " + str(len(_OVERLOAD_BODY)).encode("ascii") + b"\r\n"
    b"Retry-After: 1\r\n"
    b"Connection: close\r\n"
    b"\r\n" + _OVERLOAD_BODY
)


#: Request-line and header-line limit, and the header count limit (the
#: values ``http.client`` enforces).
_MAX_LINE = 65536
_MAX_HEADERS = 100

#: Methods with a route-table meaning; anything else is a 501.  PATCH and
#: OPTIONS still reach ``parse_route`` so the client gets the route
#: table's 405 + ``Allow`` instead of a bare 501.
_METHODS = frozenset(("GET", "PUT", "HEAD", "DELETE", "POST", "PATCH", "OPTIONS"))

#: An inbound ``X-Request-Id`` is adopted only in this shape: it is
#: echoed in a header and written unquoted into text log lines.
_TRACE_ID_OK = re.compile(r"[A-Za-z0-9._:-]{1,64}").fullmatch

_SERVER_VERSION = f"ScaliaGateway/2.0 Python/{sys.version.split()[0]}"

_STATUS_LINES = {
    status.value: f"HTTP/1.1 {status.value} {status.phrase}\r\n".encode("ascii")
    for status in http.HTTPStatus
}

_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"

#: Bound on the memoised ``Last-Modified`` renderings (one per distinct
#: simulation-clock timestamp; objects written in one period share one).
_LAST_MODIFIED_CACHE_MAX = 4096


def _send_with_head(sock: socket.socket, head: bytes, body) -> None:
    """``head`` and ``body`` in one ``sendmsg``; a partial send finishes
    with ``sendall`` from where it stopped, copying nothing."""
    sent = sock.sendmsg((head, body))
    if sent < len(head):
        sock.sendall(memoryview(head)[sent:])
        sent = len(head)
    rest = memoryview(body)[sent - len(head):]
    if rest:
        sock.sendall(rest)


class ScaliaGateway:
    """The gateway: its listening socket, the accept loop, the state the
    handlers share, and the start / serve / drain / close lifecycle.

    * ``frontend`` defaults to a fresh in-process broker, which
      :meth:`close` then closes too.
    * ``max_connections`` caps concurrent connections; excess accepts are
      answered with a raw 503 + ``Retry-After`` instead of queueing a
      thread per connection without bound.
    * ``reuse_port`` binds with ``SO_REUSEPORT`` so N worker processes
      can share one listening address and let the kernel load-balance
      accepts.

    The accept loop polls the listener and a wake-up socket, so
    :meth:`begin_drain` and :meth:`close` stop it at once without a poll
    interval.  ``begin_drain()`` + ``wait_idle()`` implement graceful
    SIGTERM shutdown: stop accepting, finish requests already being
    handled, close keep-alive connections as their current request
    completes.
    """

    def __init__(
        self,
        frontend: Optional[BrokerFrontend] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        logger: Optional[StructuredLogger] = None,
        trace_slow_ms: Optional[float] = None,
        max_connections: Optional[int] = None,
        reuse_port: bool = False,
    ) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if reuse_port:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((host, port))
            sock.listen(128)
        except BaseException:
            sock.close()
            raise
        # Non-blocking: with a shared listener another process may take
        # the connection between poll and accept.
        sock.setblocking(False)
        self.socket = sock
        #: The bound (host, port): the port is resolved even when 0 was asked.
        self.address: Tuple[str, int] = sock.getsockname()[:2]
        self._wake_r, self._wake_w = socket.socketpair()
        self._stopped = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started = False
        self._owns_frontend = frontend is None
        if frontend is None:
            frontend = BrokerFrontend()
        self.frontend = frontend
        # Response-head renderings, memoised; a race only renders the
        # same text twice.
        self._server_and_date: Tuple[int, bytes] = (-1, b"")
        self._last_modified: dict = {}
        self.max_connections = max_connections
        self._conn_slots = (
            threading.BoundedSemaphore(max_connections)
            if max_connections is not None
            else None
        )
        self._active_connections = 0
        self._active_requests = 0
        self._activity_lock = threading.Lock()
        # Notified when the last request ends during a drain.
        self._idle = threading.Condition(self._activity_lock)
        self.draining = False
        self.logger = logger if logger is not None else get_logger("gateway")
        self.trace_slow_ms = trace_slow_ms
        self.started_at = time.time()
        # Request metric families, resolved once per gateway; None when
        # the broker runs with metrics disabled (--no-metrics).  The
        # inflight gauge is unlabelled, so its one child is resolved here
        # and label children for (route, method, status) combinations are
        # memoized in ``_account_cache`` — steady-state requests never pay
        # a ``labels()`` call (tuple build + str() per value).
        metrics = frontend.metrics
        self._account_cache: dict = {}
        if metrics.enabled:
            self.m_requests = metrics.counter(
                "scalia_gateway_requests_total",
                "HTTP requests handled, by route, method and status.",
                ("route", "method", "status"),
            )
            self.m_latency = metrics.histogram(
                "scalia_gateway_request_seconds",
                "End-to-end gateway request latency, by route.",
                ("route",),
            )
            self.m_inflight = metrics.gauge(
                "scalia_gateway_inflight_requests",
                "Requests currently being handled.",
            ).labels()
            self.m_overload = metrics.counter(
                "scalia_gateway_overload_rejections_total",
                "Connections rejected with 503 over the connection cap.",
            ).labels()
        else:
            self.m_requests = None
            self.m_latency = None
            self.m_inflight = None
            self.m_overload = None

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def server_and_date(self) -> bytes:
        """The ``Server`` and ``Date`` header lines, rebuilt once a second."""
        now = int(time.time())
        second, lines = self._server_and_date
        if second != now:
            lines = (
                f"Server: {_SERVER_VERSION}\r\n"
                f"Date: {email.utils.formatdate(now, usegmt=True)}\r\n"
            ).encode("ascii")
            self._server_and_date = (now, lines)
        return lines

    def last_modified(self, hours: float) -> str:
        """``Last-Modified`` of an object written at simulation hour ``hours``."""
        text = self._last_modified.get(hours)
        if text is None:
            if len(self._last_modified) >= _LAST_MODIFIED_CACHE_MAX:
                self._last_modified.clear()
            text = email.utils.formatdate(SIM_EPOCH + hours * 3600.0, usegmt=True)
            self._last_modified[hours] = text
        return text

    # -- lifecycle, accept loop and connection capping -----------------------

    def start(self) -> "ScaliaGateway":
        """Serve in a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("gateway already started")
        self._started = True
        self._thread = threading.Thread(
            target=self.serve_forever, name="scalia-gateway", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Accept connections on the calling thread until :meth:`begin_drain`
        or :meth:`close`."""
        self._started = True
        try:
            poller = select.poll()
            poller.register(self.socket, select.POLLIN)
            poller.register(self._wake_r, select.POLLIN)
            wake = self._wake_r.fileno()
            while True:
                for fd, _events in poller.poll():
                    if fd == wake:
                        return
                    self._accept()
        finally:
            self._stopped.set()

    def _accept(self) -> None:
        """Admission control before a handler thread is spawned."""
        try:
            conn, client_address = self.socket.accept()
        except OSError:  # taken by another process, or aborted by the peer
            return
        if self._conn_slots is not None and not self._conn_slots.acquire(
            blocking=False
        ):
            if self.m_overload is not None:
                self.m_overload.inc()
            try:
                conn.sendall(_OVERLOAD_RESPONSE)
            except OSError:
                pass
            _close_connection(conn)
            return
        with self._activity_lock:
            self._active_connections += 1
        try:
            threading.Thread(
                target=self._serve_connection,
                args=(conn, client_address),
                daemon=True,
            ).start()
        except RuntimeError:  # no thread to spare: shed this one connection
            self._release_connection()
            _close_connection(conn)

    def _serve_connection(self, conn: socket.socket, client_address) -> None:
        try:
            GatewayHandler(conn, client_address, self).handle()
        finally:
            self._release_connection()

    def _release_connection(self) -> None:
        with self._activity_lock:
            self._active_connections -= 1
        if self._conn_slots is not None:
            self._conn_slots.release()

    def _stop_accepting(self) -> None:
        """Wake the accept loop and wait for it to return.  Only once
        serving has begun: before that nothing would ever return."""
        if not self._started:
            return
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass
        self._stopped.wait()

    def close(self) -> None:
        """Stop serving and release the socket (and an owned frontend)."""
        self._stop_accepting()
        self.socket.close()
        self._wake_r.close()
        self._wake_w.close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._owns_frontend:
            self.frontend.close()

    def __enter__(self) -> "ScaliaGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- graceful drain (the pre-forked worker's SIGTERM path) --------------

    @property
    def active_requests(self) -> int:
        """Requests currently being handled (not idle connections)."""
        with self._activity_lock:
            return self._active_requests

    @property
    def active_connections(self) -> int:
        with self._activity_lock:
            return self._active_connections

    def begin_drain(self) -> None:
        """Stop accepting; handlers close their connection after the
        in-progress request.  Idle keep-alive connections are not waited
        on (:meth:`wait_idle` waits on ``active_requests``, not
        connections); callers then :meth:`wait_idle` before :meth:`close`."""
        self.draining = True
        self._stop_accepting()

    def wait_idle(self, timeout: float) -> bool:
        """Wait up to ``timeout`` s for no request to be in progress;
        False if some were still running."""
        with self._idle:
            return self._idle.wait_for(lambda: self._active_requests == 0, timeout)

    def _begin_request(self) -> None:
        with self._activity_lock:
            self._active_requests += 1

    def _end_request(self) -> None:
        with self._activity_lock:
            self._active_requests -= 1
            if self._active_requests == 0 and self.draining:
                self._idle.notify_all()


def _message(exc: BaseException) -> str:
    """What a failed request's answer says: the exception's own argument,
    so a ``KeyError`` subclass reads ``photos/cat.gif not found``, not its
    quoted ``repr``."""
    return str(exc.args[0]) if exc.args else str(exc)


def _close_connection(conn: socket.socket) -> None:
    try:
        conn.shutdown(socket.SHUT_WR)
    except OSError:
        pass  # the peer may already be gone
    conn.close()


class GatewayHandler:
    """One connection: reads request heads, dispatches, writes responses."""

    def __init__(
        self, conn: socket.socket, client_address, server: ScaliaGateway
    ) -> None:
        self.connection = conn
        self.client_address = client_address
        self.server = server
        # A GET's later blocks leave in writes of their own; without
        # TCP_NODELAY, Nagle + delayed ACK stalls each ~40 ms on loopback.
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = conn.makefile("rb")
        self.close_connection = False
        # The request's own state is (re)set by _read_head.
        self.path = ""
        self.headers: dict = {}

    def handle(self) -> None:
        """Serve requests until the client, an error or a drain ends it."""
        try:
            while not self.close_connection:
                try:
                    if not self._read_head():
                        break
                except RouteError as exc:  # a head refused: answered, then closed
                    self.close_connection = True
                    self._send_error(exc)
                    break
                self._dispatch()
        except OSError:
            pass  # reset, broken pipe, or a head that never came
        finally:
            self.rfile.close()
            _close_connection(self.connection)

    # -- request head --------------------------------------------------------

    def _read_head(self) -> bool:
        """Parse one request head into ``command``, ``path`` and ``headers``.

        False when the connection ended cleanly between requests; raises
        :class:`RouteError` for a head to refuse, ``socket.timeout``
        when none arrived within :data:`HEAD_TIMEOUT_S`.
        """
        self.command: Optional[str] = None
        self._trace_id: Optional[str] = None
        self._status: Optional[int] = None
        self._headers_sent = False
        self._body_read = True
        self._body_streaming = False
        conn = self.connection
        rfile = self.rfile
        deadline = time.monotonic() + HEAD_TIMEOUT_S
        conn.settimeout(HEAD_TIMEOUT_S)
        line = rfile.readline(_MAX_LINE + 1)
        if line in (b"\r\n", b"\n"):  # a stray CRLF after a previous body
            line = rfile.readline(_MAX_LINE + 1)
        if not line:
            return False
        if len(line) > _MAX_LINE:
            raise RouteError("request line too long", status=414)
        requestline = line.decode("latin-1").rstrip("\r\n")
        words = requestline.split()
        if len(words) != 3:
            raise RouteError(f"malformed request line {requestline!r}")
        command, path, version = words
        if version == "HTTP/1.1":
            http11 = True
        elif version == "HTTP/1.0":
            http11 = False
        else:
            number = version[5:].split(".") if version.startswith("HTTP/") else ()
            if len(number) != 2 or not all(
                part.isdigit() and len(part) <= 10 for part in number
            ):
                raise RouteError(f"malformed HTTP version {version!r}")
            major, minor = int(number[0]), int(number[1])
            if major >= 2:
                raise RouteError(f"HTTP version {version[5:]} not supported", status=505)
            http11 = (major, minor) >= (1, 1)
        headers: dict = {}
        count = 0
        while True:
            line = rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                raise RouteError("header line too long", status=431)
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                return False  # the client left mid-head
            count += 1
            if count > _MAX_HEADERS:
                raise RouteError(f"more than {_MAX_HEADERS} headers", status=431)
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep or not name or name[0] in " \t" or name[-1] in " \t":
                raise RouteError("malformed header line")
            name = name.lower()
            if name not in headers:
                headers[name] = value.strip(" \t\r\n")
            if time.monotonic() > deadline:
                raise socket.timeout("request head too slow")
        self.command = command
        self.headers = headers
        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        else:
            self.close_connection = not http11
        if command not in _METHODS:
            raise RouteError(f"unsupported method {command!r}", status=501)
        if path.startswith("//"):
            path = "/" + path.lstrip("/")
        self.path = path
        if http11 and headers.get("expect", "").lower() == "100-continue":
            conn.sendall(_CONTINUE)
        self._body_read = False
        return True

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self) -> None:
        server = self.server
        # One trace per request, honouring a well-formed inbound id.
        inbound = self.headers.get("x-request-id")
        trace = start_trace(inbound if inbound and _TRACE_ID_OK(inbound) else None)
        self._trace_id = trace.trace_id
        if server.m_inflight is not None:
            server.m_inflight.inc()
        server._begin_request()
        if server.draining:
            # SIGTERM drain: finish this request, then drop the
            # connection so active_requests can reach zero without
            # waiting out idle keep-alives.
            self.close_connection = True
        route_kind = "unroutable"
        started = time.perf_counter()
        try:
            try:
                with span("route"):
                    route = parse_route(self.command, self.path)
                route_kind = route.kind
                self._handle(route)
            except Exception as exc:  # noqa: BLE001 — every error becomes a status
                if self._headers_sent:
                    # Mid-stream failure after the status line went out: the
                    # only honest signal left is an aborted connection.
                    self.close_connection = True
                    return
                if isinstance(exc, (ClusterUnavailableError, NotLeaderError)):
                    server.frontend.events.emit(
                        "cluster.unavailable",
                        reason=_message(exc),
                        method=self.command,
                        route=route_kind,
                    )
                self._send_error(exc)
        finally:
            duration = time.perf_counter() - started
            self._account(trace, route_kind, duration)
            server._end_request()
            if server.draining:
                self.close_connection = True
            end_trace(trace)

    def _account(self, trace, route_kind: str, duration: float) -> None:
        """Request epilogue: metrics, ``request.complete``, slow dumps."""
        server = self.server
        status = self._status if self._status is not None else 0
        if server.m_requests is not None:
            key = (route_kind, self.command, status)
            children = server._account_cache.get(key)
            if children is None:
                # Racing first-touch inserts are idempotent: labels()
                # hands every caller the same child.
                children = (
                    server.m_requests.labels(route_kind, self.command, status),
                    server.m_latency.labels(route_kind),
                )
                server._account_cache[key] = children
            children[0].inc()
            children[1].observe(duration)
            server.m_inflight.dec()
        logger = server.logger
        duration_ms = round(duration * 1000.0, 3)
        if logger.enabled_for("info"):
            logger.info(
                "request.complete",
                trace_id=trace.trace_id,
                client=self.client_address[0],
                method=self.command,
                path=self.path,
                route=route_kind,
                status=status,
                duration_ms=duration_ms,
                phases=trace.phases_ms(),
            )
        slow_ms = server.trace_slow_ms
        if slow_ms is not None and duration_ms >= slow_ms:
            logger.warning(
                "request.slow",
                trace_id=trace.trace_id,
                method=self.command,
                path=self.path,
                route=route_kind,
                status=status,
                duration_ms=duration_ms,
                threshold_ms=slow_ms,
                phases=trace.phases_ms(),
                spans=trace.spans(),
                dropped_spans=trace.dropped_spans,
            )

    def _handle(self, route: Route) -> None:
        """Run the handler the route's row names, unless this node is a
        cluster follower and the row sends the method to the leader."""
        frontend = self.server.frontend
        if frontend.requires_leader(route.kind, self.command) and not frontend.is_leader():
            self._forward_to_leader(route)
            return
        tenant = self.headers.get(TENANT_HEADER, DEFAULT_TENANT)
        getattr(self, route.handler)(route, frontend, tenant)

    def _forward_to_leader(self, route: Route) -> None:
        """Relay a write from a follower to the leader's gateway, verbatim.

        Forwarding happens at the HTTP layer — the raw response (status,
        body, ETag, placement headers) is copied back — so the follower
        never has to reconstruct broker objects from JSON.  One hop only:
        a request already carrying the forwarded marker means leadership
        moved mid-flight, and the client gets the 503 + Retry-After it
        can act on.
        """
        frontend = self.server.frontend
        if self.headers.get(FORWARDED_HEADER):
            raise ClusterUnavailableError(
                "leadership changed while the request was being forwarded"
            )
        leader_url = frontend.leader_gateway_url()
        if not leader_url:
            raise ClusterUnavailableError("no cluster leader elected")
        parsed = urlsplit(leader_url)
        # The body streams through: sized as the client sized it, chunked
        # (http.client's default for an iterator) when it was chunked.
        blocks, length = self._body_blocks()
        headers = {FORWARDED_HEADER: "1"}
        if length is not None:
            headers["Content-Length"] = str(length)
        try:
            for name in ("content-type", "content-md5", TENANT_HEADER, RULE_HEADER):
                value = self.headers.get(name)
                if value:
                    headers[name] = value
            conn = http.client.HTTPConnection(
                parsed.hostname, parsed.port, timeout=60.0
            )
            try:
                conn.request(
                    self.command,
                    self.path,
                    body=blocks if length != 0 else None,
                    headers=headers,
                )
                response = conn.getresponse()
                body = response.read()
                relay = {}
                for name, value in response.getheaders():
                    lower = name.lower()
                    if lower in ("etag", "retry-after") or (
                        lower.startswith("x-scalia-") and lower != FORWARDED_HEADER
                    ):
                        relay[name] = value
                content_type = response.getheader("Content-Type", "application/json")
            finally:
                conn.close()
        except OSError as exc:
            raise ClusterUnavailableError(
                f"cluster leader unreachable: {exc}"
            ) from None
        self._send_bytes(
            response.status, body, content_type=content_type, extra_headers=relay
        )

    # -- admin and observability routes -----------------------------------

    def _handle_health(self, route: Route, frontend: BrokerFrontend, tenant: str) -> None:
        status = frontend.recovery_status()
        self._send_json(
            200,
            {
                "status": "ok",
                "version": __version__,
                "uptime_s": round(time.time() - self.server.started_at, 3),
                "pid": os.getpid(),
                "durable": status["durable"],
                "recovery": status["recovery"],
            },
        )

    def _handle_stats(self, route: Route, frontend: BrokerFrontend, tenant: str) -> None:
        self._send_json(200, frontend.stats())

    def _handle_alerts(self, route: Route, frontend: BrokerFrontend, tenant: str) -> None:
        self._send_json(200, frontend.alerts())

    def _handle_tick(self, route: Route, frontend: BrokerFrontend, tenant: str) -> None:
        periods = int_param(route.params, "periods", 1)
        if periods < 1:
            raise RouteError("periods must be >= 1")
        if periods > MAX_TICK_PERIODS:
            raise RouteError(f"periods must be <= {MAX_TICK_PERIODS}")
        self._send_json(200, frontend.tick_report(periods))

    def _handle_scrub(self, route: Route, frontend: BrokerFrontend, tenant: str) -> None:
        self._send_json(200, frontend.scrub(repair=_repair(route)))

    def _handle_audit(self, route: Route, frontend: BrokerFrontend, tenant: str) -> None:
        seed = int_param(route.params, "seed")
        self._send_json(200, frontend.audit(repair=_repair(route), seed=seed))

    def _handle_cluster(self, route: Route, frontend: BrokerFrontend, tenant: str) -> None:
        doc = frontend.cluster_status()
        if doc is None:
            raise RouteError("this gateway is not part of a cluster", status=404)
        self._send_json(200, doc)

    def _handle_metrics(self, route: Route, frontend: BrokerFrontend, tenant: str) -> None:
        """``GET /metrics``: Prometheus text exposition (or JSON).

        Content negotiation: with no explicit ``?format=``, an ``Accept``
        header naming ``application/openmetrics-text`` gets the
        OpenMetrics 1.0 exposition (``# EOF``-terminated); everything
        else gets text format 0.0.4.  ``?format=`` always wins.
        """
        fmt = route.params.get("format")
        if fmt is None:
            accept = self.headers.get("accept", "")
            fmt = "openmetrics" if "application/openmetrics-text" in accept else "text"
        if fmt == "json":
            self._send_json(200, frontend.metrics.render_json())
        elif fmt == "openmetrics":
            self._send_bytes(
                200,
                frontend.metrics.render_openmetrics().encode("utf-8"),
                content_type=(
                    "application/openmetrics-text; version=1.0.0; charset=utf-8"
                ),
            )
        elif fmt == "text":
            self._send_bytes(
                200,
                frontend.metrics.render_text().encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        else:
            raise RouteError(f"unknown metrics format {fmt!r}")

    def _handle_events(
        self, route: Route, frontend: BrokerFrontend, tenant: str
    ) -> None:
        """``GET /events``: query the decision-event journal.

        ``?type=`` matches exactly or by dot-prefix (``migration.``),
        ``?since=SEQ`` is an exclusive resume cursor, ``?key=`` filters by
        subject (``bucket/key`` is translated to the tenant's internal
        container), ``?limit=`` keeps the newest N (default 256).
        """
        params = route.params
        journal = frontend.events
        events = journal.query(
            type=params.get("type") or None,
            since=int_param(params, "since"),
            key=frontend.event_key(tenant, params.get("key") or None),
            limit=int_param(params, "limit", 256),
        )
        self._send_json(
            200,
            {
                "events": events,
                "count": len(events),
                "latest_seq": journal.latest_seq,
                "stats": journal.stats(),
            },
        )

    def _handle_history(self, route: Route, frontend: BrokerFrontend, tenant: str) -> None:
        """``GET /history``: downsampled metric time series.

        ``?series=`` filters by exact name or dot-prefix; ``?window=``
        bounds the lookback in seconds (``300``, ``90s``, ``5m``, ``2h``).
        """
        window = route.params.get("window")
        try:
            window_s = parse_duration(window) if window else None
        except ValueError:
            raise RouteError(f"malformed window {window!r}") from None
        if window_s is not None and window_s <= 0:
            raise RouteError("window must be > 0")
        self._send_json(
            200, frontend.history(series=route.params.get("series") or None, window_s=window_s)
        )

    def _handle_explain(
        self, route: Route, frontend: BrokerFrontend, tenant: str
    ) -> None:
        """``POST /explain``: placement rationale for one object.

        Body ``{"bucket": ..., "key": ...}`` (query parameters of the
        same names work too).
        """
        doc = self._json_body("explain")
        if not isinstance(doc, dict):
            raise RouteError("explain body must be a JSON object")
        bucket = doc.get("bucket") or route.params.get("bucket")
        key = doc.get("key") or route.params.get("key")
        if not bucket or not key:
            raise RouteError('explain needs {"bucket": ..., "key": ...}')
        self._send_json(200, frontend.explain(tenant, str(bucket), str(key)))

    def _handle_faults(self, route: Route, frontend: BrokerFrontend, tenant: str) -> None:
        """``GET /faults``: the per-provider fault profiles."""
        self._send_json(200, frontend.fault_profiles())

    def _handle_set_fault(self, route: Route, frontend: BrokerFrontend, tenant: str) -> None:
        """Runtime fault injection: the chaos-tooling admin surface.

        ``POST /faults`` takes ``{"provider": name, "profile": {...}|null}``
        — the profile uses the JSON form of ``FaultProfile.describe``
        (``latency_ms``, ``jitter_ms``, ``error_rate``,
        ``slow_multiplier``, ``flap``, ``seed``); ``null`` clears.
        """
        doc = self._json_body("fault injection")
        provider = doc.get("provider") or route.params.get("provider")
        if not provider:
            raise RouteError('fault injection needs {"provider": ...}')
        profile_doc = doc.get("profile")
        if profile_doc is not None and not isinstance(profile_doc, dict):
            raise RouteError("profile must be a JSON object or null")
        try:
            result = frontend.set_fault_profile(provider, profile_doc)
        except UnknownProviderError:
            raise
        except (ValueError, TypeError, KeyError) as exc:
            # Malformed profile fields (bad rates, negative latencies,
            # a flap object missing up_ops/down_ops).
            raise RouteError(f"bad fault profile: {exc}") from exc
        self._send_json(200, result)

    # -- listing -----------------------------------------------------------

    def _handle_list_uploads(
        self, route: Route, frontend: BrokerFrontend, tenant: str
    ) -> None:
        uploads = frontend.list_uploads(tenant, route.bucket)
        self._send_json(
            200,
            {
                "bucket": route.bucket,
                "uploads": [u.describe() for u in uploads],
                "count": len(uploads),
            },
        )

    def _handle_list(self, route: Route, frontend: BrokerFrontend, tenant: str) -> None:
        params = route.params
        max_keys = int_param(params, "max-keys")
        if max_keys is not None and max_keys < 1:
            raise RouteError("max-keys must be >= 1")
        page = frontend.list(
            tenant,
            route.bucket,
            prefix=params.get("prefix", ""),
            delimiter=params.get("delimiter", ""),
            max_keys=max_keys,
            continuation_token=params.get("continuation-token") or None,
        )
        self._send_json(
            200,
            {
                "bucket": route.bucket,
                "keys": page.keys,
                "count": len(page.keys),
                "prefix": params.get("prefix", ""),
                "delimiter": params.get("delimiter", ""),
                "common_prefixes": page.common_prefixes,
                "is_truncated": page.is_truncated,
                "next_continuation_token": page.next_token,
            },
        )

    # -- objects -----------------------------------------------------------

    def _handle_head(self, route: Route, frontend: BrokerFrontend, tenant: str) -> None:
        meta = frontend.head(tenant, route.bucket, route.key)
        if meta is None:
            raise ObjectNotFoundError(f"{route.bucket}/{route.key} not found")
        check_preconditions(
            meta.etag, self.headers.get("if-match"), self.headers.get("if-none-match")
        )
        headers = {"Content-Type": meta.mime, "Content-Length": str(meta.size)}
        headers.update(self._meta_headers(meta))
        self._respond(200, headers)

    def _handle_delete(self, route: Route, frontend: BrokerFrontend, tenant: str) -> None:
        frontend.delete(tenant, route.bucket, route.key)
        self._respond(204, {"Content-Length": "0"})

    def _handle_abort(self, route: Route, frontend: BrokerFrontend, tenant: str) -> None:
        frontend.abort_upload(tenant, route.bucket, route.key, route.params["uploadId"])
        self._respond(204, {"Content-Length": "0"})

    def _handle_create_upload(
        self, route: Route, frontend: BrokerFrontend, tenant: str
    ) -> None:
        upload = frontend.create_upload(
            tenant, route.bucket, route.key,
            mime=self.headers.get("content-type") or "application/octet-stream",
            rule=self.headers.get(RULE_HEADER),
            size_hint=int_param(route.params, "size-hint"),
        )
        self._send_json(
            200, {"bucket": route.bucket, "key": route.key, "uploadId": upload.upload_id}
        )

    def _handle_put(self, route: Route, frontend: BrokerFrontend, tenant: str) -> None:
        bucket, key = route.bucket, route.key
        mime = self.headers.get("content-type") or "application/octet-stream"
        rule = self.headers.get(RULE_HEADER)
        content_md5 = self._parse_content_md5()
        blocks, length = self._body_blocks()
        meta = frontend.put(
            tenant, bucket, key, blocks, mime=mime, rule=rule, size_hint=length,
            content_md5=content_md5,
        )
        self._send_json(
            200,
            {
                "bucket": bucket,
                "key": key,
                "size": meta.size,
                "class": meta.class_key,
                "rule": meta.rule_name,
                "placement": meta.placement.label(),
                "etag": meta.etag,
                "stripes": meta.stripe_count,
            },
            extra_headers=self._meta_headers(meta),
        )

    def _handle_upload_part(
        self, route: Route, frontend: BrokerFrontend, tenant: str
    ) -> None:
        params = route.params
        upload_id = params.get("uploadId")
        part_number = int_param(params, "partNumber")
        if not upload_id or part_number is None:
            raise RouteError("part upload needs both partNumber and uploadId")
        content_md5 = self._parse_content_md5()
        blocks, _length = self._body_blocks()
        part = frontend.upload_part(
            tenant, route.bucket, route.key, upload_id, part_number, blocks,
            content_md5=content_md5,
        )
        self._send_json(
            200,
            {
                "bucket": route.bucket,
                "key": route.key,
                "uploadId": upload_id,
                "partNumber": part_number,
                "size": part.size,
                "etag": part.etag,
            },
            extra_headers={"ETag": f'"{part.etag}"'},
        )

    def _handle_complete(
        self, route: Route, frontend: BrokerFrontend, tenant: str
    ) -> None:
        upload_id = route.params.get("uploadId", "")
        if not upload_id:
            raise RouteError("complete needs uploadId")
        doc = self._json_body("completion")
        parts = doc.get("parts") if isinstance(doc, dict) else None
        if parts is not None:
            try:
                parts = [(int(p["partNumber"]), p.get("etag")) for p in parts]
            except (TypeError, KeyError, ValueError):
                raise RouteError(
                    'completion parts must be [{"partNumber": N, "etag": ...}, ...]'
                ) from None
        meta = frontend.complete_upload(
            tenant, route.bucket, route.key, upload_id, parts
        )
        self._send_json(
            200,
            {
                "bucket": route.bucket,
                "key": route.key,
                "size": meta.size,
                "etag": meta.etag,
                "stripes": meta.stripe_count,
                "placement": meta.placement.label(),
            },
            extra_headers=self._meta_headers(meta),
        )

    def _handle_get(self, route: Route, frontend: BrokerFrontend, tenant: str) -> None:
        range_spec = parse_range_header(self.headers.get("range"))
        plan, blocks = frontend.stream_get(
            tenant,
            route.bucket,
            route.key,
            range_spec=range_spec,
            if_match=self.headers.get("if-match"),
            if_none_match=self.headers.get("if-none-match"),
        )
        meta = plan.meta  # resolved under the read lock
        # Synthetic objects (cost simulations) carry sizes, not payloads:
        # the response advertises a zero-length body, as it always has.
        body_length = plan.length if meta.checksum else 0
        headers = {"Content-Type": meta.mime, "Content-Length": str(body_length)}
        headers.update(self._meta_headers(meta))
        if range_spec is not None:
            status = 206
            headers["Content-Range"] = f"bytes {plan.start}-{plan.end}/{meta.size}"
        else:
            status = 200
        # ``stream_get`` fetched the first stripe *before* the status line
        # is committed, so the dominant failure modes (provider outage,
        # missing chunks) surfaced as clean 503s above; a failure deeper
        # into the stream can only abort the connection.  The first block
        # leaves with the head.
        block_iter = iter(blocks)
        self._respond(status, headers, next(block_iter, None))
        conn = self.connection
        for block in block_iter:
            if block:
                conn.sendall(block)

    # -- plumbing ----------------------------------------------------------

    def _meta_headers(self, meta) -> dict:
        return {
            "ETag": f'"{meta.etag}"',
            "Accept-Ranges": "bytes",
            "Last-Modified": self.server.last_modified(meta.last_modified),
            "x-scalia-class": meta.class_key,
            "x-scalia-placement": meta.placement.label(),
            "x-scalia-rule": meta.rule_name,
            "x-scalia-stripes": str(meta.stripe_count),
        }

    def _parse_content_md5(self) -> Optional[bytes]:
        """Decode a ``Content-MD5`` header into the expected 16-byte digest.

        Accepts the RFC 1864 base64 form (what S3 uses) and, leniently, a
        32-char hex digest; a malformed header is a 400.  The body is not
        hashed here: the write path checks the digest against its own
        ETag MD5 before commit.
        """
        header = self.headers.get("content-md5")
        if header is None:
            return None
        header = header.strip()
        digest: Optional[bytes] = None
        if len(header) == 32:
            try:
                digest = bytes.fromhex(header)
            except ValueError:
                digest = None
        if digest is None:
            try:
                digest = base64.b64decode(header, validate=True)
            except (binascii.Error, ValueError):
                raise RouteError("malformed Content-MD5 header") from None
        if len(digest) != 16:
            raise RouteError("Content-MD5 must be a 128-bit MD5 digest")
        return digest

    def _body_blocks(self) -> Tuple[Iterator[bytes], Optional[int]]:
        """Request body as a block iterator plus its length when known.

        An object or part body goes down as it is: the write path reads
        it once, a stripe at a time, as it arrives (it re-plans forward,
        never rewinding), so gateway memory is O(stripe) and receiving
        overlaps encoding and shipping.  A write locks its object at
        commit only, so a slow client stalls nobody.
        """
        te = self.headers.get("transfer-encoding", "").lower()
        if "chunked" in te:
            self._body_read = False
            return self._client_paced(self._chunked_blocks()), None
        try:
            length = int(self.headers.get("content-length", 0) or 0)
        except ValueError:
            self.close_connection = True  # stream position unknowable
            raise RouteError("malformed content-length header") from None
        if length < 0:
            raise RouteError("negative content-length")
        if length > MAX_BODY_BYTES:
            raise RouteError(f"payload exceeds {MAX_BODY_BYTES} bytes", status=413)
        return self._client_paced(self._sized_blocks(length)), length

    def _client_paced(self, blocks: Iterator[bytes]) -> Iterator[bytes]:
        """``blocks``, answering a read that waits out :data:`HEAD_TIMEOUT_S`
        with a 408: the client stalled, not the server."""
        try:
            yield from blocks
        except TimeoutError:
            self.close_connection = True
            raise RouteError("request body timed out", status=408) from None

    def _sized_blocks(self, length: int) -> Iterator[bytes]:
        # Partially-consumed streams poison the keep-alive framing; the
        # flags let _settle_unread_body drop the connection in that case.
        self._body_streaming = True
        remaining = length
        while remaining > 0:
            block = self.rfile.read(min(IO_BLOCK_BYTES, remaining))
            if not block:
                raise RouteError("request body ended early", status=400)
            remaining -= len(block)
            yield block
        self._body_read = True

    def _chunked_blocks(self) -> Iterator[bytes]:
        """Decode a ``Transfer-Encoding: chunked`` body, frame by frame."""
        self._body_streaming = True
        total = 0
        while True:
            size_line = self.rfile.readline(1026)
            if not size_line:
                self.close_connection = True
                raise RouteError("truncated chunked body")
            if not size_line.endswith(b"\n"):
                # readline hit its cap mid-line (an oversized chunk
                # extension): the unread tail would be parsed as payload.
                self.close_connection = True
                raise RouteError("chunk-size line too long")
            try:
                chunk_size = int(size_line.split(b";", 1)[0].strip(), 16)
            except ValueError:
                self.close_connection = True
                raise RouteError("malformed chunk-size line") from None
            if chunk_size == 0:
                break
            total += chunk_size
            if total > MAX_BODY_BYTES:
                self.close_connection = True
                raise RouteError(f"payload exceeds {MAX_BODY_BYTES} bytes", status=413)
            remaining = chunk_size
            while remaining > 0:
                block = self.rfile.read(min(IO_BLOCK_BYTES, remaining))
                if not block:
                    self.close_connection = True
                    raise RouteError("truncated chunk data")
                remaining -= len(block)
                yield block
            if self.rfile.read(2) != b"\r\n":
                self.close_connection = True
                raise RouteError("missing chunk terminator")
        # Trailers (ignored) up to the blank line ending the body.
        while True:
            line = self.rfile.readline(1026)
            if line and not line.endswith(b"\n"):
                self.close_connection = True
                raise RouteError("trailer line too long")
            if line in (b"\r\n", b"\n", b""):
                break
        self._body_read = True

    def _json_body(self, what: str) -> Any:
        """A small request body (a completion manifest, an admin command),
        read whole and parsed as JSON; ``{}`` when empty."""
        blocks, length = self._body_blocks()
        if length is not None and length > SMALL_BODY_BYTES:
            raise RouteError(f"body exceeds {SMALL_BODY_BYTES} bytes", status=413)
        body = bytearray()
        for block in blocks:
            body.extend(block)
            if len(body) > SMALL_BODY_BYTES:
                self.close_connection = True
                raise RouteError(f"body exceeds {SMALL_BODY_BYTES} bytes", status=413)
        try:
            return json.loads(body) if body else {}
        except json.JSONDecodeError:
            raise RouteError(f"{what} body must be JSON") from None

    def _settle_unread_body(self) -> None:
        """Keep the keep-alive stream in sync before any response goes out.

        A handler that errors (413, 405, ...) or ignores its body
        (POST /tick) leaves the payload bytes unread; the next request on
        the connection would then be parsed out of payload garbage.  Small
        leftovers are drained; large or chunked ones close the connection.
        """
        if self._body_read:
            return
        self._body_read = True
        if self._body_streaming:
            # A block iterator was handed out but never ran dry: we no
            # longer know the stream position, so the connection dies.
            self.close_connection = True
            return
        if "chunked" in self.headers.get("transfer-encoding", "").lower():
            self.close_connection = True
            return
        try:
            length = int(self.headers.get("content-length", 0) or 0)
        except ValueError:
            # Runs while *sending an error response*: must never raise.
            self.close_connection = True
            return
        if length <= 0:
            return
        if length <= 1024 * 1024:
            self.rfile.read(length)
        else:
            self.close_connection = True

    def _send_json(
        self, status: int, payload: Any, *, extra_headers: Optional[dict] = None
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send_bytes(
            status, body, content_type="application/json", extra_headers=extra_headers
        )

    def _send_bytes(
        self,
        status: int,
        body: bytes,
        *,
        content_type: str,
        extra_headers: Optional[dict] = None,
    ) -> None:
        headers = {"Content-Type": content_type, "Content-Length": str(len(body))}
        if extra_headers:
            headers.update(extra_headers)
        self._respond(status, headers, body)

    def _send_error(self, exc: BaseException) -> None:
        """Answer a failed request: the status and headers of its
        :data:`~repro.gateway.routes.ERRORS` row, and a JSON body naming
        the failure, except after a 304, which has no body."""
        status, headers = error_answer(exc)
        if status == 304:
            headers["Content-Length"] = "0"
            self._respond(304, headers)
        else:
            body = {"error": _message(exc), "status": status}
            self._send_json(status, body, extra_headers=headers)

    def _respond(self, status: int, headers: dict, body=None) -> None:
        """Send a response head and any body already in hand in one write.

        The head is the status line, ``Server``, ``Date``, the request's
        trace id, ``headers`` and ``Connection: close`` when this response
        ends the connection.  A HEAD request gets the head alone.
        """
        self._settle_unread_body()
        self.connection.settimeout(None)
        self._status = status
        self._headers_sent = True
        server = self.server
        fields = "".join([f"{name}: {value}\r\n" for name, value in headers.items()])
        if self._trace_id is not None:
            fields = f"X-Request-Id: {self._trace_id}\r\n{fields}"
        if self.close_connection:
            fields += "Connection: close\r\n"
        head = b"".join(
            (
                _STATUS_LINES.get(status) or f"HTTP/1.1 {status} \r\n".encode("ascii"),
                server.server_and_date(),
                fields.encode("latin-1"),
                b"\r\n",
            )
        )
        if body and self.command != "HEAD":
            _send_with_head(self.connection, head, body)
        else:
            self.connection.sendall(head)
