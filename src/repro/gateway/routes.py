"""The gateway's route table and error-to-status mapping.

Kept free of any socket or connection machinery so the parsing and the
status mapping are unit-testable without sockets, and so another front
end could reuse them unchanged.

Route table (see ``docs/GATEWAY.md``):

====== ================================== ==============================
Method Path                               Meaning
====== ================================== ==============================
GET    ``/healthz``                       liveness probe (JSON body)
GET    ``/metrics``                       Prometheus exposition (``?format=json``,
                                          OpenMetrics via ``Accept``)
GET    ``/stats``                         gateway + broker counters
GET    ``/events``                        decision-event journal (``?type=&since=&key=``)
GET    ``/history``                       metric time series (``?series=&window=``)
GET    ``/alerts``                        SLO burn-rate alert states
POST   ``/explain``                       placement rationale for ``{"bucket","key"}``
POST   ``/tick``                          close ``?periods=N`` periods
POST   ``/scrub``                         integrity pass + repair
POST   ``/audit``                         Merkle possession sweep + repair
GET    ``/faults``                        installed fault profiles
POST   ``/faults``                        install/clear a fault profile
PUT    ``/{bucket}/{key}``                store object (streamed body)
PUT    ``...?partNumber=N&uploadId=U``    upload one multipart part
GET    ``/{bucket}/{key}``                read object (``Range`` aware)
HEAD   ``/{bucket}/{key}``                metadata only
DELETE ``/{bucket}/{key}``                delete everywhere
DELETE ``...?uploadId=U``                 abort a multipart upload
POST   ``...?uploads``                    create a multipart upload
POST   ``...?uploadId=U``                 complete a multipart upload
GET    ``/{bucket}``                      paginated list (V2 params)
GET    ``/{bucket}?uploads``              list in-flight uploads
====== ================================== ==============================

Object keys may contain ``/`` (S3 style): everything after the first path
segment is the key.  Keys are percent-decoded after the query split, so
``?``, ``#`` and unicode inside a key survive when the client encodes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from repro.cluster.engine import (
    BadDigestError,
    InvalidContinuationTokenError,
    InvalidRangeError,
    MultipartError,
    NoSuchUploadError,
    ObjectNotFoundError,
    PlacementError,
    ReadFailedError,
    WriteFailedError,
)
from repro.gateway.namespace import NamespaceError
from repro.providers.provider import (
    CapacityExceededError,
    ChunkCorruptionError,
    ChunkTooLargeError,
    ProviderUnavailableError,
)
from repro.providers.registry import UnknownProviderError
from repro.replication.errors import ClusterUnavailableError, NotLeaderError
from repro.replication.rpc import RpcUnreachableError

#: Methods object routes accept (POST only with multipart query params).
OBJECT_ALLOW = "DELETE, GET, HEAD, POST, PUT"

#: Route kinds whose mutating methods a cluster follower's HTTP server
#: forwards to the leader before its frontend ever sees them.  Bucket-level
#: POSTs (multipart create) are kind=object; ``/faults`` is not here: fault
#: injection is a per-node chaos knob.
_LEADER_ROUTES = {
    "object": {"PUT", "POST", "DELETE"},
    "tick": {"POST"},
    "scrub": {"POST"},
    "audit": {"POST"},
}


def requires_leader(kind: str, method: str) -> bool:
    """Whether a clustered gateway runs this route on the leader only."""
    return method in _LEADER_ROUTES.get(kind, ())


class PreconditionFailedError(Exception):
    """``If-Match`` named an ETag the object does not carry (412)."""

    def __init__(self, etag: str) -> None:
        super().__init__("If-Match precondition failed")
        self.etag = etag


class NotModifiedError(Exception):
    """``If-None-Match`` matched: the client's copy is current (304)."""

    def __init__(self, etag: str) -> None:
        super().__init__("not modified")
        self.etag = etag


class RouteError(ValueError):
    """A request that matches no route (HTTP 4xx).

    ``allow`` carries the method set for ``405`` responses — the server
    surfaces it as the mandatory ``Allow`` header.
    """

    def __init__(self, message: str, status: int = 400, allow: Optional[str] = None) -> None:
        super().__init__(message)
        self.status = status
        self.allow = allow


@dataclass(frozen=True)
class Route:
    """A parsed gateway request."""

    kind: str  # health | metrics | stats | events | history | alerts | explain
    #          # | tick | scrub | audit | faults | object | list
    bucket: Optional[str] = None
    key: Optional[str] = None
    params: Dict[str, str] = field(default_factory=dict)


_OBJECT_METHODS = frozenset({"PUT", "GET", "HEAD", "DELETE", "POST"})


def parse_route(method: str, target: str) -> Route:
    """Parse ``method`` + request target into a :class:`Route`.

    Raises :class:`RouteError` for unroutable requests.
    """
    parts = urlsplit(target)
    path = unquote(parts.path)
    params = {k: v[-1] for k, v in parse_qs(parts.query, keep_blank_values=True).items()}
    if path in ("/healthz", "/healthz/"):
        if method != "GET":
            raise RouteError("healthz only supports GET", status=405, allow="GET")
        return Route("health")
    if path in ("/metrics", "/metrics/"):
        if method != "GET":
            raise RouteError("metrics only supports GET", status=405, allow="GET")
        return Route("metrics", params=params)
    if path in ("/stats", "/stats/"):
        if method != "GET":
            raise RouteError("stats only supports GET", status=405, allow="GET")
        return Route("stats", params=params)
    if path in ("/events", "/events/"):
        if method != "GET":
            raise RouteError("events only supports GET", status=405, allow="GET")
        return Route("events", params=params)
    if path in ("/history", "/history/"):
        if method != "GET":
            raise RouteError("history only supports GET", status=405, allow="GET")
        return Route("history", params=params)
    if path in ("/alerts", "/alerts/"):
        if method != "GET":
            raise RouteError("alerts only supports GET", status=405, allow="GET")
        return Route("alerts", params=params)
    if path in ("/explain", "/explain/"):
        if method != "POST":
            raise RouteError("explain only supports POST", status=405, allow="POST")
        return Route("explain", params=params)
    if path in ("/tick", "/tick/"):
        if method != "POST":
            raise RouteError("tick only supports POST", status=405, allow="POST")
        return Route("tick", params=params)
    if path in ("/scrub", "/scrub/"):
        if method != "POST":
            raise RouteError("scrub only supports POST", status=405, allow="POST")
        return Route("scrub", params=params)
    if path in ("/audit", "/audit/"):
        if method != "POST":
            raise RouteError("audit only supports POST", status=405, allow="POST")
        return Route("audit", params=params)
    if path in ("/faults", "/faults/"):
        if method not in ("GET", "POST"):
            raise RouteError(
                "faults supports GET and POST", status=405, allow="GET, POST"
            )
        return Route("faults", params=params)
    if path in ("/cluster", "/cluster/"):
        if method != "GET":
            raise RouteError("cluster only supports GET", status=405, allow="GET")
        return Route("cluster", params=params)

    stripped = path.lstrip("/")
    if not stripped:
        raise RouteError("no route for /")
    bucket, _, key = stripped.partition("/")
    if not key:
        if method != "GET":
            raise RouteError(
                f"{method} on a bare bucket is not supported", status=405, allow="GET"
            )
        return Route("list", bucket=bucket, params=params)
    if method not in _OBJECT_METHODS:
        raise RouteError(
            f"method {method} not supported on objects",
            status=405,
            allow=OBJECT_ALLOW,
        )
    if method == "POST" and "uploads" not in params and "uploadId" not in params:
        raise RouteError(
            "POST on an object requires ?uploads (create) or ?uploadId= (complete)"
        )
    return Route("object", bucket=bucket, key=key, params=params)


def int_param(params: Dict[str, str], name: str, default: Optional[int] = None) -> Optional[int]:
    """Integer query parameter, or ``default``; malformed values are 400s."""
    raw = params.get(name)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError:
        raise RouteError(f"query parameter {name} must be an integer, got {raw!r}") from None


def parse_range_header(value: Optional[str]) -> Optional[Tuple[Optional[int], Optional[int]]]:
    """Parse a ``Range: bytes=...`` header into ``(start, end)``.

    Returns ``None`` when the header is absent, non-byte-ranged or a
    multi-range request — per RFC 9110 an uninterpretable ``Range`` is
    *ignored* and the full object served with 200.  The returned pair is
    inclusive; ``(start, None)`` is open-ended and ``(None, n)`` is the
    suffix form ``bytes=-n`` (resolved against the object size by the
    caller).  A syntactically valid but senseless range raises
    :class:`RouteError` with status 416.
    """
    if value is None:
        return None
    value = value.strip()
    if not value.lower().startswith("bytes="):
        return None
    spec = value[len("bytes="):].strip()
    if "," in spec:
        return None  # multi-range: ignored, full response
    if "-" not in spec:
        return None
    first, _, last = spec.partition("-")
    first, last = first.strip(), last.strip()
    try:
        if first == "":
            if last == "":
                return None
            suffix = int(last)
            if suffix <= 0:
                raise RouteError("unsatisfiable suffix range", status=416)
            return (None, suffix)
        start = int(first)
        end = int(last) if last else None
    except ValueError:
        return None
    if start < 0 or (end is not None and end < start):
        raise RouteError(f"unsatisfiable byte range {spec!r}", status=416)
    return (start, end)


def resolve_byte_range(
    spec: Optional[Tuple[Optional[int], Optional[int]]], size: int
) -> Optional[Tuple[int, Optional[int]]]:
    """Turn a parsed ``Range`` into the broker's inclusive ``(start, end)``.

    Suffix ranges need the object size; an empty object satisfies no
    range at all (416, like S3).
    """
    if spec is None:
        return None
    start, end = spec
    if start is None:
        # bytes=-n — the last n bytes
        assert end is not None
        if size <= 0:
            raise RouteError("unsatisfiable range on empty object", status=416)
        return (max(0, size - end), None)
    return (start, end)


def etag_matches(header: str, etag: str) -> bool:
    """True when ``header`` (an If-(None-)Match value) names ``etag``.

    Handles ``*``, comma-separated lists, quoted values and weak
    ``W/"..."`` prefixes (compared ignoring weakness, which is what a
    byte-range-capable origin should do for GET).
    """
    header = header.strip()
    if header == "*":
        return True
    for candidate in header.split(","):
        candidate = candidate.strip()
        if candidate.startswith("W/"):
            candidate = candidate[2:].strip()
        candidate = candidate.strip('"')
        if candidate == etag:
            return True
    return False


def status_for_exception(exc: BaseException) -> int:
    """Map a broker/gateway exception to its HTTP status code.

    The mapping is part of the gateway contract (``docs/GATEWAY.md``):
    placement infeasibility and provider pools that are genuinely full are
    *insufficient storage* conditions (507), an unreadable object (fewer
    than m chunks reachable) or a corrupt chunk awaiting scrub-repair is a
    transient backend failure (503), and only *explicitly named*
    validation errors are client 400s — an unexpected ``ValueError`` or
    ``KeyError`` deep in the broker is a server bug and must surface as a
    500, not masquerade as client error.
    """
    if isinstance(exc, (ObjectNotFoundError, NoSuchUploadError, UnknownProviderError)):
        return 404
    if isinstance(exc, (NamespaceError, RouteError)):
        return getattr(exc, "status", 400)
    if isinstance(exc, InvalidRangeError):
        return 416
    if isinstance(exc, PreconditionFailedError):
        return 412
    if isinstance(exc, NotModifiedError):
        return 304
    if isinstance(exc, (MultipartError, InvalidContinuationTokenError, BadDigestError)):
        return 400
    if isinstance(exc, (PlacementError, WriteFailedError, CapacityExceededError)):
        return 507
    if isinstance(exc, ChunkTooLargeError):
        return 400
    if isinstance(exc, (ReadFailedError, ProviderUnavailableError, ChunkCorruptionError)):
        return 503
    if isinstance(exc, (ClusterUnavailableError, NotLeaderError, RpcUnreachableError)):
        return 503
    return 500
