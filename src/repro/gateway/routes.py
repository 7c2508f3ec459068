"""The gateway's route table and error table.

Kept free of any socket or connection machinery so the parsing and the
status mapping are unit-testable without sockets, and so another front
end could reuse them unchanged.

Each route is one row of :data:`ROUTES` and each typed error one row of
:data:`ERRORS`.  Parsing, the ``405`` and its ``Allow``, a cluster
follower's forwarding and the handler a request runs all read the first;
the HTTP status, the headers of the answer and the error's kind on the
ops RPC (:mod:`repro.gateway.ops`) read the second.  docs/GATEWAY.md
documents both tables.

Object keys may contain ``/`` (S3 style): everything after the first path
segment is the key.  Keys are percent-decoded after the query split, so
``?``, ``#`` and unicode inside a key survive when the client encodes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple
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
from repro.providers.provider import (
    CapacityExceededError,
    ChunkCorruptionError,
    ChunkTooLargeError,
    ProviderUnavailableError,
)
from repro.providers.registry import UnknownProviderError
from repro.replication.errors import ClusterUnavailableError, NotLeaderError
from repro.replication.rpc import RpcUnreachableError


class NamespaceError(ValueError):
    """Invalid tenant or bucket name (HTTP 400)."""


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
    """A request the gateway refuses itself (HTTP 4xx and 5xx): one that
    matches no route, a malformed head or body, a body that stalls.

    ``allow`` carries the method set for ``405`` responses — the server
    surfaces it as the mandatory ``Allow`` header.
    """

    def __init__(self, message: str, status: int = 400, allow: Optional[str] = None) -> None:
        super().__init__(message)
        self.status = status
        self.allow = allow


class FrontendClosedError(RuntimeError):
    """Raised when an operation is submitted after :meth:`BrokerFrontend.close`."""


@dataclass(frozen=True)
class Route:
    """A parsed gateway request."""

    kind: str  # health | metrics | stats | events | history | alerts | explain
    #          # | tick | scrub | audit | faults | cluster | object | list
    bucket: Optional[str] = None
    key: Optional[str] = None
    params: Dict[str, str] = field(default_factory=dict)
    #: The :class:`~repro.gateway.server.GatewayHandler` method that serves it.
    handler: str = ""


#: The paths of the bucket and object routes: the first path segment
#: names the bucket, and everything after it is the key.
BUCKET = "/{bucket}"
OBJECT = "/{bucket}/{key}"


class RouteRow(NamedTuple):
    """One route, as it is declared."""

    #: ``Route.kind``, also the ``route`` label of the request metrics.
    kind: str
    #: A fixed path (a trailing ``/`` matches too), :data:`BUCKET` or
    #: :data:`OBJECT`.
    path: str
    #: Method -> the ``GatewayHandler`` method that serves it.
    methods: Dict[str, str]
    #: Query parameters that select this row when any one is present;
    #: empty selects it always.  A path's rows are tried in order.
    query: Tuple[str, ...] = ()
    #: A cluster follower forwards this row's methods to the leader.
    leader: bool = False


#: Every route, declared once (docs/GATEWAY.md, "Route table").
ROUTES: Tuple[RouteRow, ...] = (
    RouteRow("health", "/healthz", {"GET": "_handle_health"}),
    RouteRow("metrics", "/metrics", {"GET": "_handle_metrics"}),
    RouteRow("stats", "/stats", {"GET": "_handle_stats"}),
    RouteRow("events", "/events", {"GET": "_handle_events"}),
    RouteRow("history", "/history", {"GET": "_handle_history"}),
    RouteRow("alerts", "/alerts", {"GET": "_handle_alerts"}),
    RouteRow("explain", "/explain", {"POST": "_handle_explain"}),
    RouteRow("tick", "/tick", {"POST": "_handle_tick"}, leader=True),
    RouteRow("scrub", "/scrub", {"POST": "_handle_scrub"}, leader=True),
    RouteRow("audit", "/audit", {"POST": "_handle_audit"}, leader=True),
    # Not forwarded: fault injection is a per-node chaos knob.
    RouteRow("faults", "/faults", {"GET": "_handle_faults", "POST": "_handle_set_fault"}),
    RouteRow("cluster", "/cluster", {"GET": "_handle_cluster"}),
    RouteRow("list", BUCKET, {"GET": "_handle_list_uploads"}, ("uploads",)),
    RouteRow("list", BUCKET, {"GET": "_handle_list"}),
    RouteRow("object", OBJECT, {"POST": "_handle_create_upload"}, ("uploads",), leader=True),
    RouteRow(
        "object", OBJECT, {"POST": "_handle_complete", "DELETE": "_handle_abort"}, ("uploadId",),
        leader=True,
    ),
    RouteRow(
        "object", OBJECT, {"PUT": "_handle_upload_part"}, ("partNumber", "uploadId"),
        leader=True,
    ),
    RouteRow("object", OBJECT, {"GET": "_handle_get", "HEAD": "_handle_head"}),
    RouteRow("object", OBJECT, {"PUT": "_handle_put", "DELETE": "_handle_delete"}, leader=True),
)

#: A request path -> the row path it matches, for the fixed paths.
_FIXED = {
    path: row.path
    for row in ROUTES
    if row.path not in (BUCKET, OBJECT)
    for path in (row.path, row.path + "/")
}
#: (row path, method) -> the rows that may serve it, in order.
_CHOICES = {
    (row.path, method): tuple(r for r in ROUTES if r.path == row.path and method in r.methods)
    for row in ROUTES
    for method in row.methods
}
#: Row path -> its methods, sorted: the ``Allow`` of a 405.
_ALLOWED = {
    row.path: tuple(sorted({m for r in ROUTES if r.path == row.path for m in r.methods}))
    for row in ROUTES
}
_LEADER = frozenset((row.kind, method) for row in ROUTES if row.leader for method in row.methods)


def requires_leader(kind: str, method: str) -> bool:
    """Whether a clustered gateway runs this route on the leader only."""
    return (kind, method) in _LEADER


def _not_allowed(path: str, method: str, allowed: Tuple[str, ...]) -> RouteError:
    """The 405 for ``method`` on the row path ``path``."""
    if path == OBJECT:
        message = f"method {method} not supported on objects"
    elif path == BUCKET:
        message = f"{method} on a bare bucket is not supported"
    elif len(allowed) == 1:
        message = f"{path[1:]} only supports {allowed[0]}"
    else:
        message = f"{path[1:]} supports {' and '.join(allowed)}"
    return RouteError(message, status=405, allow=", ".join(allowed))


def parse_route(method: str, target: str) -> Route:
    """Parse ``method`` + request target into a :class:`Route`.

    Raises :class:`RouteError` for unroutable requests.
    """
    parts = urlsplit(target)
    path = unquote(parts.path)
    params = {k: v[-1] for k, v in parse_qs(parts.query, keep_blank_values=True).items()}
    bucket = key = None
    row_path = _FIXED.get(path)
    if row_path is None:
        bucket, _, key = path.lstrip("/").partition("/")
        if not bucket:
            raise RouteError("no route for /")
        row_path = OBJECT if key else BUCKET
        key = key or None
    for row in _CHOICES.get((row_path, method), ()):
        if not row.query or not params.keys().isdisjoint(row.query):
            return Route(row.kind, bucket, key, params, row.methods[method])
    allowed = _ALLOWED[row_path]
    if method not in allowed:
        raise _not_allowed(row_path, method, allowed)
    # Only an object's POST has no row that takes it without a query.
    raise RouteError("POST on an object requires ?uploads (create) or ?uploadId= (complete)")


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
    suffix form ``bytes=-n``.  Whether any byte satisfies it is judged
    against the version read (:func:`resolve_byte_range`, the engine).
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
            suffix = int(last) if last else -1
            return (None, suffix) if suffix >= 0 else None  # bytes=--n is no range
        return (int(first), int(last) if last else None)
    except ValueError:
        return None


def resolve_byte_range(
    spec: Optional[Tuple[Optional[int], Optional[int]]], size: int
) -> Optional[Tuple[int, Optional[int]]]:
    """Turn a parsed ``Range`` into the broker's inclusive ``(start, end)``.

    Suffix ranges need the object size; an empty object satisfies no
    range at all (416, like S3).  The engine refuses an inverted range
    and one past the end.
    """
    if spec is None:
        return None
    start, end = spec
    if start is None:
        # bytes=-n — the last n bytes
        if size <= 0:
            raise InvalidRangeError("unsatisfiable range on empty object", size)
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


def check_preconditions(
    etag: str, if_match: Optional[str], if_none_match: Optional[str]
) -> None:
    """Raise the 412 or the 304 that ``If-Match`` / ``If-None-Match``
    call for against ``etag``, or nothing."""
    if if_match is not None and not etag_matches(if_match, etag):
        raise PreconditionFailedError(etag)
    if if_none_match is not None and etag_matches(if_none_match, etag):
        raise NotModifiedError(etag)


def _size(value) -> int:
    return int(value or 0)


def _same(value):
    return value


def _cause_messages(causes) -> Dict[str, str]:
    return {name: str(exc) for name, exc in (causes or {}).items()}


def _cause_errors(messages) -> Dict[str, BaseException]:
    return {name: RuntimeError(msg) for name, msg in (messages or {}).items()}


class ErrorRow(NamedTuple):
    """One typed error, as it is declared."""

    cls: type
    #: The HTTP status it answers (a :class:`RouteError` carries its own).
    status: int
    #: Its kind on the ops RPC, or ``None``: it is raised only on the
    #: gateway's side of the RPC.
    kind: Optional[str] = None
    #: Exception attributes that cross the RPC too: name -> (to wire, from wire).
    fields: Dict[str, Tuple[Callable, Callable]] = {}
    #: Headers its answer carries: name -> the value, read off the
    #: exception; ``None`` leaves the header out.
    headers: Dict[str, Callable[[Any], Optional[str]]] = {}


def _retry_after(exc) -> str:
    # Elections settle within a couple of timeouts: tell the client when
    # to come back instead of letting it hang.
    return str(max(1, int(round(exc.retry_after))))


_PROVIDER = {"provider_name": (_same, _same)}
_ETAG = {"etag": (_same, _same)}
_RETRY = {"Retry-After": _retry_after}

#: Every typed error, declared once: :func:`error_answer` and the
#: ops RPC's :func:`~repro.gateway.ops.error_doc` and
#: :func:`~repro.gateway.ops.error_from_doc` all read it.  The first row
#: whose class matches wins, so a subclass goes before its base; decode
#: takes the first row of a kind.
ERRORS: Tuple[ErrorRow, ...] = (
    ErrorRow(ObjectNotFoundError, 404, "object_not_found"),
    ErrorRow(NoSuchUploadError, 404, "no_such_upload"),
    ErrorRow(UnknownProviderError, 404, "unknown_provider"),
    ErrorRow(RouteError, 400, headers={"Allow": lambda exc: exc.allow}),
    ErrorRow(NamespaceError, 400),
    ErrorRow(
        InvalidRangeError, 416, "invalid_range", {"object_size": (_size, _size)},
        {"Content-Range": lambda exc: f"bytes */{exc.object_size}"},
    ),
    # The two answers ``open_get`` gives before it reads: each fixes its
    # own message and is rebuilt around the ``etag`` it carries.
    ErrorRow(PreconditionFailedError, 412, "precondition_failed", _ETAG),
    ErrorRow(NotModifiedError, 304, "not_modified", _ETAG, {"ETag": lambda exc: f'"{exc.etag}"'}),
    ErrorRow(MultipartError, 400, "multipart"),
    ErrorRow(InvalidContinuationTokenError, 400, "bad_token"),
    ErrorRow(BadDigestError, 400, "bad_digest"),
    ErrorRow(ChunkTooLargeError, 400, "chunk_too_large", _PROVIDER),
    ErrorRow(PlacementError, 507, "no_placement"),
    ErrorRow(WriteFailedError, 507, "write_failed", {"causes": (_cause_messages, _cause_errors)}),
    ErrorRow(CapacityExceededError, 507, "capacity_exceeded", _PROVIDER),
    ErrorRow(ReadFailedError, 503, "read_failed"),
    ErrorRow(ProviderUnavailableError, 503, "provider_unavailable", _PROVIDER),
    ErrorRow(ChunkCorruptionError, 503),
    # A follower's (or a deposed leader's) broker refusing a write: the
    # worker answers the 503 the single-process node would.
    ErrorRow(NotLeaderError, 503, "not_leader", {"leader_url": (_same, _same)}, _RETRY),
    ErrorRow(
        ClusterUnavailableError, 503, "cluster_unavailable", {"retry_after": (_same, _same)},
        _RETRY,
    ),
    ErrorRow(RpcUnreachableError, 503, headers=_RETRY),
    # Server bugs, on either side of the RPC: an unexpected ValueError or
    # TypeError deep in the broker is not the client's mistake.
    ErrorRow(FrontendClosedError, 500, "closed"),
    ErrorRow(ValueError, 500, "value_error"),
    ErrorRow(TypeError, 500, "value_error"),
)


def error_answer(exc: BaseException) -> Tuple[int, Dict[str, str]]:
    """The HTTP status and headers that answer ``exc``: its row's.

    The mapping is part of the gateway contract (``docs/GATEWAY.md``):
    placement infeasibility and provider pools that are genuinely full are
    *insufficient storage* conditions (507), an unreadable object (fewer
    than m chunks reachable) or a corrupt chunk awaiting scrub-repair is a
    transient backend failure (503), and only *explicitly named*
    validation errors are client 400s — an unexpected ``ValueError`` or
    ``KeyError`` deep in the broker is a server bug and must surface as a
    500, not masquerade as client error.
    """
    for row in ERRORS:
        if isinstance(exc, row.cls):
            headers = {}
            for name, value in row.headers.items():
                text = value(exc)
                if text is not None:
                    headers[name] = text
            return getattr(exc, "status", row.status), headers
    return 500, {}
