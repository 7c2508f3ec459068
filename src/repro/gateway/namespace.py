"""Multi-tenant namespace mapping: ``tenant:bucket -> internal container``.

The broker keeps one flat container namespace, but every gateway tenant
wants to call their bucket ``photos``.  Following the s3gateway scheme, the
mapper derives a deterministic internal container name from a salted
SHA-256 of ``tenant:bucket`` — no mapping table, no coordination: any
gateway replica computes the same internal name, and two tenants using the
same friendly bucket name land in disjoint containers.

The internal name keeps a sanitized tail of the friendly name purely for
debuggability (``gw-<hash16>-photos``); the hash prefix alone carries the
uniqueness.
"""

from __future__ import annotations

import hashlib
import re

from repro.gateway.routes import BUCKET, OBJECT, ROUTES, NamespaceError

_BUCKET_RE = re.compile(r"^[a-z0-9][a-z0-9.\-]{1,61}[a-z0-9]$")
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_TAIL_SANITIZE = re.compile(r"[^a-z0-9\-]")

#: Length of the hex digest prefix embedded in internal container names.
HASH_LEN = 16

#: Bucket names shadowed by the gateway's fixed routes (``/metrics``
#: would be unlistable: ``GET /metrics`` returns counters, never the
#: bucket): the first segment of every fixed path in the route table.
RESERVED_BUCKETS = frozenset(
    row.path.strip("/").split("/")[0] for row in ROUTES if row.path not in (BUCKET, OBJECT)
)


def validate_bucket(bucket: str) -> str:
    """Check S3-style bucket naming rules; returns the name unchanged."""
    if not isinstance(bucket, str) or not _BUCKET_RE.match(bucket):
        raise NamespaceError(
            f"invalid bucket name {bucket!r}: want 3-63 chars of "
            "[a-z0-9.-], starting and ending alphanumeric"
        )
    if ".." in bucket:
        raise NamespaceError(f"invalid bucket name {bucket!r}: double dots")
    if bucket in RESERVED_BUCKETS:
        raise NamespaceError(
            f"bucket name {bucket!r} is reserved by the gateway route table"
        )
    return bucket


def validate_tenant(tenant: str) -> str:
    """Check tenant-id rules; returns the name unchanged."""
    if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
        raise NamespaceError(
            f"invalid tenant {tenant!r}: want 1-64 chars of [A-Za-z0-9_.-], "
            "starting alphanumeric"
        )
    return tenant


class NamespaceMapper:
    """Deterministic, stateless tenant/bucket to internal-container mapping."""

    def __init__(self, salt: str = "scalia-gw") -> None:
        self.salt = salt

    def internal_container(self, tenant: str, bucket: str) -> str:
        """Internal broker container for ``tenant``'s ``bucket``.

        Deterministic: the same (salt, tenant, bucket) triple always maps to
        the same container, so gateway replicas need no shared state.
        """
        validate_tenant(tenant)
        validate_bucket(bucket)
        digest = hashlib.sha256(
            f"{self.salt}:{tenant}:{bucket}".encode("utf-8")
        ).hexdigest()[:HASH_LEN]
        tail = _TAIL_SANITIZE.sub("-", bucket.lower())[:24].strip("-")
        return f"gw-{digest}-{tail}" if tail else f"gw-{digest}"
