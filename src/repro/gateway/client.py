"""HTTP client for the gateway.

:class:`GatewayClient` is a thin keep-alive wrapper over stdlib
``http.client`` — one TCP connection reused across requests, transparent
single-retry when the server recycles an idle connection.  The streaming
surface mirrors the gateway's: file-like uploads go out without ever
materializing the payload, downloads arrive block-by-block
(:meth:`get_to_file`), ranged reads use ``Range`` headers, and the S3
multipart protocol is wrapped by :meth:`put_multipart` and friends.
"""

from __future__ import annotations

import http.client
import json
import socket
from typing import Dict, Iterator, List, Optional, Tuple
from urllib.parse import quote

from repro.gateway.server import RULE_HEADER, TENANT_HEADER
from repro.util.streams import ByteSource

#: Block size for streamed uploads/downloads.
IO_BLOCK_BYTES = 256 * 1024

#: Default part size for :meth:`GatewayClient.put_multipart`.
DEFAULT_PART_BYTES = 8 * 1024 * 1024


class GatewayError(RuntimeError):
    """A gateway response with status >= 400."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class GatewayClient:
    """Keep-alive client for one gateway endpoint, bound to one tenant."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        tenant: str = "public",
        timeout: float = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.tenant = tenant
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    # -- transport --------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._conn.connect()
            # Mirror the server's TCP_NODELAY: a pipelined PUT would
            # otherwise eat a Nagle stall per request on loopback.
            self._conn.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
        return self._conn

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
        *,
        encode_chunked: bool = False,
    ) -> Tuple[int, Dict[str, str], bytes]:
        status, resp_headers, payload, _ = self._request_ex(
            method, path, body, headers, encode_chunked=encode_chunked
        )
        return status, resp_headers, payload

    def _request_ex(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
        *,
        encode_chunked: bool = False,
    ) -> Tuple[int, Dict[str, str], bytes, bool]:
        """Like :meth:`_request`, also reporting whether a retry happened."""
        send = {TENANT_HEADER: self.tenant}
        if headers:
            send.update(headers)
        # Only idempotent methods with replayable bodies are retried after
        # a dropped keep-alive connection: replaying a POST (/tick) could
        # apply it twice, and a consumed stream cannot be resent.
        retriable = method in ("GET", "HEAD", "PUT", "DELETE") and (
            body is None or isinstance(body, (bytes, bytearray))
        )
        for attempt in (1, 2):
            conn = self._connection()
            try:
                conn.request(
                    method, path, body=body, headers=send,
                    encode_chunked=encode_chunked,
                )
                response = conn.getresponse()
                payload = response.read()
                return (
                    response.status,
                    {k.lower(): v for k, v in response.getheaders()},
                    payload,
                    attempt > 1,
                )
            except (
                http.client.RemoteDisconnected,
                http.client.BadStatusLine,
                ConnectionResetError,
                BrokenPipeError,
            ):
                # The server dropped an idle keep-alive connection between
                # requests; reconnect once before giving up.
                self.close()
                if attempt == 2 or not retriable:
                    raise
        raise AssertionError("unreachable")

    def _json(
        self,
        method: str,
        path: str,
        body=None,
        headers: Optional[Dict[str, str]] = None,
        *,
        encode_chunked: bool = False,
    ) -> dict:
        status, _, payload = self._request(
            method, path, body, headers, encode_chunked=encode_chunked
        )
        if status >= 400:
            raise GatewayError(status, _error_text(payload))
        return json.loads(payload) if payload else {}

    @staticmethod
    def _object_path(bucket: str, key: str) -> str:
        return f"/{quote(bucket, safe='')}/{quote(key, safe='/')}"

    # -- object API -------------------------------------------------------

    def put(
        self,
        bucket: str,
        key: str,
        data: bytes,
        *,
        mime: str = "application/octet-stream",
        rule: Optional[str] = None,
    ) -> dict:
        headers = {"Content-Type": mime}
        if rule is not None:
            headers[RULE_HEADER] = rule
        return self._json("PUT", self._object_path(bucket, key), data, headers)

    def put_stream(
        self,
        bucket: str,
        key: str,
        source,
        *,
        size: Optional[int] = None,
        mime: str = "application/octet-stream",
        rule: Optional[str] = None,
    ) -> dict:
        """Upload from a binary file-like or byte-block iterator.

        The payload is never materialized: a known ``size`` (probed from
        seekable files by :class:`~repro.util.streams.ByteSource`) goes
        out with ``Content-Length``; unknown lengths use
        ``Transfer-Encoding: chunked`` — the gateway streams both into
        stripes.  A recycled idle keep-alive connection is retried once
        when the source can restart (bytes, seekable files).
        """
        headers = {"Content-Type": mime}
        if rule is not None:
            headers[RULE_HEADER] = rule
        stream = ByteSource(source, size_hint=size)
        if stream.size_hint is not None:
            headers["Content-Length"] = str(stream.size_hint)
        def body_blocks():
            while True:
                block = stream.read(IO_BLOCK_BYTES)
                if not block:
                    return
                yield block

        for attempt in (1, 2):
            body = body_blocks()
            try:
                if stream.size_hint is not None:
                    return self._json(
                        "PUT", self._object_path(bucket, key), body, headers
                    )
                return self._json(
                    "PUT", self._object_path(bucket, key), body, headers,
                    encode_chunked=True,
                )
            except (
                http.client.RemoteDisconnected,
                http.client.BadStatusLine,
                ConnectionResetError,
                BrokenPipeError,
            ):
                self.close()
                if attempt == 2 or not stream.restart():
                    raise
        raise AssertionError("unreachable")

    def get(
        self,
        bucket: str,
        key: str,
        *,
        byte_range: Optional[Tuple[int, Optional[int]]] = None,
    ) -> bytes:
        """Read an object; ``byte_range=(start, end)`` issues a Range GET."""
        headers = _range_headers(byte_range)
        status, _, payload = self._request(
            "GET", self._object_path(bucket, key), headers=headers
        )
        if status >= 400:
            raise GatewayError(status, _error_text(payload))
        return payload

    def get_range(self, bucket: str, key: str, start: int, end: Optional[int]) -> bytes:
        """The inclusive byte range ``[start, end]`` of an object (206)."""
        return self.get(bucket, key, byte_range=(start, end))

    def get_to_file(
        self,
        bucket: str,
        key: str,
        sink,
        *,
        byte_range: Optional[Tuple[int, Optional[int]]] = None,
    ) -> Dict[str, str]:
        """Stream an object into ``sink`` block-by-block; returns headers.

        Neither the client nor the gateway holds more than one block /
        stripe of the payload at a time.
        """
        send = {TENANT_HEADER: self.tenant}
        send.update(_range_headers(byte_range))
        for attempt in (1, 2):
            wrote = False
            conn = self._connection()
            try:
                conn.request("GET", self._object_path(bucket, key), headers=send)
                response = conn.getresponse()
                if response.status >= 400:
                    raise GatewayError(response.status, _error_text(response.read()))
                while True:
                    block = response.read(IO_BLOCK_BYTES)
                    if not block:
                        break
                    sink.write(block)
                    wrote = True
                return {k.lower(): v for k, v in response.getheaders()}
            except (
                http.client.RemoteDisconnected,
                http.client.BadStatusLine,
                ConnectionResetError,
                BrokenPipeError,
            ):
                # Retry a recycled idle keep-alive connection — but only
                # if nothing reached the sink yet (a replay would
                # duplicate the bytes already written).
                self.close()
                if attempt == 2 or wrote:
                    raise
        raise AssertionError("unreachable")

    def head(self, bucket: str, key: str) -> Optional[Dict[str, str]]:
        """Metadata headers for the object, or ``None`` when absent."""
        status, headers, _ = self._request("HEAD", self._object_path(bucket, key))
        if status == 404:
            return None
        if status >= 400:
            raise GatewayError(status, f"HEAD {bucket}/{key}")
        return {
            "size": headers.get("content-length", "0"),
            "mime": headers.get("content-type", ""),
            "class": headers.get("x-scalia-class", ""),
            "placement": headers.get("x-scalia-placement", ""),
            "rule": headers.get("x-scalia-rule", ""),
            "etag": headers.get("etag", ""),
        }

    def delete(self, bucket: str, key: str) -> None:
        status, _, payload, retried = self._request_ex(
            "DELETE", self._object_path(bucket, key)
        )
        if status == 404 and retried:
            # The first attempt most likely deleted the object before the
            # connection dropped; a 404 on the replay means "already gone".
            return
        if status >= 400:
            raise GatewayError(status, _error_text(payload))

    def list(
        self,
        bucket: str,
        *,
        prefix: str = "",
        delimiter: str = "",
        page_size: Optional[int] = None,
    ) -> List[str]:
        """Every key in the bucket, following continuation tokens.

        The pre-pagination return type (a plain key list) is preserved;
        :meth:`list_page` exposes single pages, common prefixes and the
        raw token plumbing.
        """
        keys: List[str] = []
        token: Optional[str] = None
        while True:
            page = self.list_page(
                bucket,
                prefix=prefix,
                delimiter=delimiter,
                max_keys=page_size,
                continuation_token=token,
            )
            keys.extend(page["keys"])
            if not page.get("is_truncated"):
                return keys
            token = page.get("next_continuation_token")

    def list_page(
        self,
        bucket: str,
        *,
        prefix: str = "",
        delimiter: str = "",
        max_keys: Optional[int] = None,
        continuation_token: Optional[str] = None,
    ) -> dict:
        """One page of a V2-style listing (keys, prefixes, next token)."""
        query = ["list-type=2"]
        if prefix:
            query.append(f"prefix={quote(prefix, safe='')}")
        if delimiter:
            query.append(f"delimiter={quote(delimiter, safe='')}")
        if max_keys is not None:
            query.append(f"max-keys={max_keys}")
        if continuation_token:
            query.append(f"continuation-token={quote(continuation_token, safe='')}")
        return self._json("GET", f"/{quote(bucket, safe='')}?{'&'.join(query)}")

    # -- multipart upload --------------------------------------------------

    def create_multipart(
        self,
        bucket: str,
        key: str,
        *,
        mime: str = "application/octet-stream",
        rule: Optional[str] = None,
        size_hint: Optional[int] = None,
    ) -> str:
        """Open a multipart upload; returns its upload id."""
        headers = {"Content-Type": mime}
        if rule is not None:
            headers[RULE_HEADER] = rule
        path = f"{self._object_path(bucket, key)}?uploads"
        if size_hint is not None:
            path += f"&size-hint={size_hint}"
        return self._json("POST", path, b"", headers)["uploadId"]

    def upload_part(
        self, bucket: str, key: str, upload_id: str, part_number: int, data
    ) -> dict:
        """Upload one part (bytes or a file-like, streamed); returns etag."""
        path = (
            f"{self._object_path(bucket, key)}"
            f"?partNumber={part_number}&uploadId={quote(upload_id, safe='')}"
        )
        if isinstance(data, (bytes, bytearray)):
            return self._json("PUT", path, bytes(data))
        return self._json("PUT", path, data, encode_chunked=True)

    def complete_multipart(
        self,
        bucket: str,
        key: str,
        upload_id: str,
        parts: Optional[List[Tuple[int, Optional[str]]]] = None,
    ) -> dict:
        """Complete an upload (optionally with the S3-style part manifest)."""
        path = f"{self._object_path(bucket, key)}?uploadId={quote(upload_id, safe='')}"
        body = b""
        if parts is not None:
            body = json.dumps(
                {"parts": [{"partNumber": n, "etag": e} for n, e in parts]}
            ).encode("utf-8")
        return self._json("POST", path, body)

    def abort_multipart(self, bucket: str, key: str, upload_id: str) -> None:
        path = f"{self._object_path(bucket, key)}?uploadId={quote(upload_id, safe='')}"
        status, _, payload = self._request("DELETE", path)
        if status >= 400:
            raise GatewayError(status, _error_text(payload))

    def list_uploads(self, bucket: str) -> List[dict]:
        """In-flight multipart uploads of a bucket."""
        return self._json("GET", f"/{quote(bucket, safe='')}?uploads")["uploads"]

    def put_multipart(
        self,
        bucket: str,
        key: str,
        source,
        *,
        part_size: int = DEFAULT_PART_BYTES,
        mime: str = "application/octet-stream",
        rule: Optional[str] = None,
        size_hint: Optional[int] = None,
    ) -> dict:
        """Multipart-upload a file-like/iterator in ``part_size`` pieces.

        Creates, uploads parts sequentially (each streamed), completes
        with the part manifest; aborts on any failure so no staged chunks
        leak.
        """
        if part_size < 1:
            raise ValueError("part_size must be >= 1")
        upload_id = self.create_multipart(
            bucket, key, mime=mime, rule=rule, size_hint=size_hint
        )
        parts: List[Tuple[int, Optional[str]]] = []
        try:
            number = 1
            for part in _iter_parts(source, part_size):
                receipt = self.upload_part(bucket, key, upload_id, number, part)
                parts.append((number, receipt["etag"]))
                number += 1
            if not parts:
                # Empty source: completion requires >= 1 part, and an
                # empty object is a legitimate upload.
                receipt = self.upload_part(bucket, key, upload_id, 1, b"")
                parts.append((1, receipt["etag"]))
            return self.complete_multipart(bucket, key, upload_id, parts)
        except BaseException:
            try:
                self.abort_multipart(bucket, key, upload_id)
            except Exception:  # noqa: BLE001 — the original error matters more
                pass
            raise

    # -- admin API --------------------------------------------------------

    def health(self) -> dict:
        return self._json("GET", "/healthz")

    def stats(self) -> dict:
        return self._json("GET", "/stats")

    def metrics(self) -> dict:
        """Structured metric snapshot (``GET /metrics?format=json``)."""
        return self._json("GET", "/metrics?format=json")

    def metrics_text(self) -> str:
        """Raw Prometheus text exposition (``GET /metrics``)."""
        status, _, payload = self._request("GET", "/metrics")
        if status >= 400:
            raise GatewayError(status, _error_text(payload))
        return payload.decode("utf-8")

    def events(
        self,
        *,
        type: Optional[str] = None,
        since: Optional[int] = None,
        key: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> dict:
        """Query the decision-event journal (``GET /events``).

        ``since`` is an exclusive sequence cursor — pass the previous
        response's ``latest_seq`` to poll for new events only.
        """
        query = []
        if type is not None:
            query.append(f"type={quote(type, safe='')}")
        if since is not None:
            query.append(f"since={since}")
        if key is not None:
            query.append(f"key={quote(key, safe='')}")
        if limit is not None:
            query.append(f"limit={limit}")
        path = "/events" + (f"?{'&'.join(query)}" if query else "")
        return self._json("GET", path)

    def history(
        self, *, series: Optional[str] = None, window: Optional[str] = None
    ) -> dict:
        """Downsampled metric time series (``GET /history``).

        ``window`` uses the server's duration syntax: ``300``, ``90s``,
        ``5m``, ``2h``.
        """
        query = []
        if series is not None:
            query.append(f"series={quote(series, safe='')}")
        if window is not None:
            query.append(f"window={quote(window, safe='')}")
        path = "/history" + (f"?{'&'.join(query)}" if query else "")
        return self._json("GET", path)

    def alerts(self) -> dict:
        """SLO burn-rate alert states (``GET /alerts``)."""
        return self._json("GET", "/alerts")

    def explain(self, bucket: str, key: str) -> dict:
        """Placement rationale for one object (``POST /explain``)."""
        body = json.dumps({"bucket": bucket, "key": key}).encode("utf-8")
        return self._json(
            "POST", "/explain", body, {"Content-Type": "application/json"}
        )

    def cluster(self) -> dict:
        """``GET /cluster``: this node's cluster status document."""
        return self._json("GET", "/cluster")

    def tick(self, periods: int = 1) -> dict:
        return self._json("POST", f"/tick?periods={periods}")

    def scrub(self, *, repair: bool = True) -> dict:
        """Run a storage integrity pass (``POST /scrub``); returns the report."""
        return self._json("POST", f"/scrub?repair={'1' if repair else '0'}")

    def audit(self, *, repair: bool = True, seed: Optional[int] = None) -> dict:
        """Run a Merkle possession sweep (``POST /audit``); returns the report."""
        path = f"/audit?repair={'1' if repair else '0'}"
        if seed is not None:
            path += f"&seed={int(seed)}"
        return self._json("POST", path)

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _error_text(payload: bytes) -> str:
    try:
        return json.loads(payload).get("error", payload.decode("utf-8", "replace"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        return payload.decode("utf-8", "replace")


def _range_headers(
    byte_range: Optional[Tuple[Optional[int], Optional[int]]]
) -> Dict[str, str]:
    if byte_range is None:
        return {}
    start, end = byte_range
    if start is None:
        # suffix form: the last `end` bytes
        return {"Range": f"bytes=-{end}"}
    return {"Range": f"bytes={start}-{'' if end is None else end}"}


def _iter_parts(source, part_size: int) -> Iterator[bytes]:
    """Cut a file-like or byte-block iterator into ``part_size`` pieces.

    :class:`~repro.util.streams.ByteSource` does the normalization (the
    same one the broker's write path uses), so files, iterators and raw
    bytes all behave identically here.
    """
    stream = ByteSource(source)
    while True:
        part = stream.read(part_size)
        if not part:
            return
        yield part
        if len(part) < part_size:
            return
