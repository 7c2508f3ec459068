"""Length-prefixed JSON RPC over TCP — the cluster's only wire format.

One frame is ``4-byte big-endian length || UTF-8 JSON body``.  A request
is ``{"op": <name>, ...args}``; a response is ``{"ok": true, ...}`` or
``{"ok": false, "error": <message>}``.  That is the entire protocol:
small enough to read in one sitting, debuggable with ``nc`` and a hex
dump, and fast enough for a metadata stream whose records are a few
hundred bytes.

Messages may additionally carry a raw binary payload: the JSON body
reserves the key ``"_bin"`` for the payload's byte length and the
payload bytes follow the JSON frame on the wire, unencoded.  This is
the gateway workers' stripe data path — chunk bytes cross the socket
without base64 or json escaping, and the receiver exposes them as
:class:`memoryview` slices of a single receive buffer (zero copies
after the kernel).  Senders pass a sequence of buffers which are
written back-to-back, so scattered shards need no join.

The server runs one thread per connection (connections are few — one
per peer node plus transient joiners — so a thread apiece is simpler
and no slower than a selector loop at this scale).  Handlers run on the
connection thread; the :class:`~repro.replication.node.ClusterNode`
does its own locking.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

_LEN = struct.Struct(">I")

#: Refuse frames beyond this (64 MiB): chunk pages dominate frame size
#: and are capped well below it by the sender.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Refuse binary payloads beyond this (256 MiB): a payload carries at most
#: one stripe's worth of chunks and stripes are capped far below it.
MAX_PAYLOAD_BYTES = 256 * 1024 * 1024

Buffer = Union[bytes, bytearray, memoryview]


class RpcError(Exception):
    """A transport failure or a peer-reported error."""


class RpcUnreachableError(RpcError):
    """The peer could not be reached or the connection died mid-call.

    Unlike a peer-reported error this says nothing about the request: the
    peer is down or restarting, so a gateway worker answers ``503`` +
    ``Retry-After`` rather than ``500``.
    """

    retry_after = 1.0


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        piece = sock.recv(n - len(buf))
        if not piece:
            raise RpcError("connection closed mid-frame")
        buf.extend(piece)
    return bytes(buf)


def send_message(
    sock: socket.socket, message: dict, buffers: Sequence[Buffer] = ()
) -> None:
    """Send one JSON frame, optionally followed by raw payload bytes.

    ``buffers`` are written back-to-back after the frame; their total
    length travels in the reserved ``"_bin"`` key so the receiver knows
    how many payload bytes to read.  Buffers are never joined sender-side.
    """
    if buffers:
        total = sum(len(b) for b in buffers)
        if total > MAX_PAYLOAD_BYTES:
            raise RpcError(f"payload of {total} B exceeds {MAX_PAYLOAD_BYTES} B")
        message = {**message, "_bin": total}
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise RpcError(f"frame of {len(body)} B exceeds {MAX_FRAME_BYTES} B")
    sock.sendall(_LEN.pack(len(body)) + body)
    for buf in buffers:
        sock.sendall(buf)


def recv_message(sock: socket.socket) -> Tuple[dict, Optional[memoryview]]:
    """Receive one JSON frame plus its raw payload, if one follows.

    The payload arrives as a single :class:`memoryview`; handlers slice
    it into chunk shards without copying.  Returns ``(message, payload)``
    with ``payload=None`` for plain frames.
    """
    (length,) = _LEN.unpack(_recv_exact(sock, _LEN.size))
    if length > MAX_FRAME_BYTES:
        raise RpcError(f"peer announced a {length} B frame; refusing")
    message = json.loads(_recv_exact(sock, length))
    payload: Optional[memoryview] = None
    if isinstance(message, dict) and "_bin" in message:
        total = int(message.pop("_bin"))
        if not 0 <= total <= MAX_PAYLOAD_BYTES:
            raise RpcError(f"peer announced a {total} B payload; refusing")
        payload = memoryview(_recv_exact(sock, total))
    return message, payload


class RpcClient:
    """One persistent connection to a peer, with per-call locking.

    Calls are synchronous request/response; the lock serializes callers
    sharing the connection.  Any transport error closes the socket so
    the next call reconnects — reconnection is the retry policy, the
    caller decides whether to re-issue the request (every cluster RPC is
    idempotent, so resending is always safe).
    """

    def __init__(
        self, host: str, port: int, *, timeout: float = 5.0, connect_timeout: float = 2.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()

    def call(self, op: str, _buffers: Sequence[Buffer] = (), **args) -> dict:
        """Issue one RPC; raises :class:`RpcError` on failure of any kind.

        ``_buffers`` are shipped as the request's raw binary payload; a
        binary response payload comes back under ``"_payload"`` as one
        :class:`memoryview`.
        """
        request = {"op": op, **args}
        with self._lock:
            try:
                if self._sock is None:
                    self._sock = socket.create_connection(
                        (self.host, self.port), timeout=self.connect_timeout
                    )
                    self._sock.settimeout(self.timeout)
                    self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                send_message(self._sock, request, _buffers)
                response, payload = recv_message(self._sock)
            except (OSError, ValueError, RpcError) as exc:
                self._teardown()
                raise RpcUnreachableError(
                    f"rpc {op} to {self.host}:{self.port}: {exc}"
                ) from None
        if not response.get("ok"):
            raise RpcError(response.get("error", f"rpc {op}: peer error"))
        if payload is not None:
            response["_payload"] = payload
        return response

    def _teardown(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        with self._lock:
            self._teardown()


#: Handlers receive the request dict (any binary payload attached under
#: ``"_payload"`` as a memoryview) and return either the response body or
#: ``(body, buffers)`` to ship a binary response payload.
Handler = Callable[[dict], Union[dict, Tuple[dict, Sequence[Buffer]]]]


class RpcServer:
    """Threaded frame server dispatching ``op`` -> handler.

    Handlers return the response body (``ok: true`` is added) or raise;
    the exception message travels back as ``ok: false``.  Binding port 0
    picks a free port, read from :attr:`address` after construction.
    """

    def __init__(self, host: str, port: int, handlers: Dict[str, Handler]) -> None:
        self.handlers = handlers
        self._listener = socket.create_server((host, port), reuse_port=False)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._closed = threading.Event()
        self._conns_lock = threading.Lock()
        self._conns: set = set()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"rpc-accept:{self.address[1]}", daemon=True
        )
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                return  # close() shut the listener down
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._conns_lock:
                if self._closed.is_set():  # accepted as close() ran
                    conn.close()
                    return
                self._conns.add(conn)
            threading.Thread(
                target=self._serve_conn, args=(conn,), daemon=True
            ).start()

    def _serve_conn(self, conn: socket.socket) -> None:
        try:
            while not self._closed.is_set():
                try:
                    request, payload = recv_message(conn)
                except (RpcError, OSError, ValueError):
                    return
                if payload is not None:
                    request["_payload"] = payload
                op = request.pop("op", None)
                handler = self.handlers.get(op)
                buffers: Sequence[Buffer] = ()
                if handler is None:
                    response = {"ok": False, "error": f"unknown op {op!r}"}
                else:
                    try:
                        result = handler(request)
                        if isinstance(result, tuple):
                            body, buffers = result
                        else:
                            body = result
                        response = {"ok": True, **body}
                    except Exception as exc:  # handler bug or rejection
                        response = {"ok": False, "error": str(exc)}
                        buffers = ()
                try:
                    send_message(conn, response, buffers)
                except (RpcError, OSError):
                    return
        finally:
            with self._conns_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def close(self) -> None:
        self._closed.set()
        try:
            # Wakes the accept blocked in the loop, which then returns.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        self._accept_thread.join(timeout=2.0)
