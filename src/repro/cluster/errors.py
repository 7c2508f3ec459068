"""Typed failures of the engine layer.

Below both :mod:`repro.cluster.engine` (which re-exports every name;
import them from there) and :mod:`repro.cluster.writepath`, so the write
driver can raise them without importing the engine that calls it.
"""

from __future__ import annotations

from typing import Dict, Optional


class PlacementError(RuntimeError):
    """Raised when no feasible placement exists for an object's rule."""


class ObjectNotFoundError(KeyError):
    """Raised when reading or deleting a key that does not exist."""


def _causes_suffix(causes: Dict[str, BaseException]) -> str:
    """Render per-provider failure causes into an error message tail."""
    if not causes:
        return ""
    detail = "; ".join(
        f"{name}: {type(exc).__name__}: {exc}" for name, exc in sorted(causes.items())
    )
    return f" [per-provider causes: {detail}]"


class WriteFailedError(RuntimeError):
    """Raised when a write cannot be placed on any feasible provider set.

    ``causes`` maps provider name → the exception that disqualified it
    during this write's attempts, so operators (and the chaos suite) can
    tell a timeout from a capacity reject without re-running the write.
    """

    def __init__(
        self, message: str, *, causes: Optional[Dict[str, BaseException]] = None
    ) -> None:
        self.causes: Dict[str, BaseException] = dict(causes or {})
        super().__init__(message + _causes_suffix(self.causes))


class ReadFailedError(RuntimeError):
    """Raised when fewer than ``m`` chunks are reachable for a read.

    ``causes`` maps provider name → the exception (outage, injected
    fault, missing or corrupt chunk) that kept its chunk out of the
    decode, so a failed read tells you *which* providers failed *how*.
    """

    def __init__(
        self, message: str, *, causes: Optional[Dict[str, BaseException]] = None
    ) -> None:
        self.causes: Dict[str, BaseException] = dict(causes or {})
        super().__init__(message + _causes_suffix(self.causes))


class InvalidRangeError(ValueError):
    """Raised for a byte range that no part of the object satisfies (416).

    ``object_size`` is the size of the version that refused it, what a
    ``Content-Range: bytes */N`` answer carries.
    """

    def __init__(self, message: str = "", object_size: int = 0) -> None:
        super().__init__(message)
        self.object_size = object_size


class NoSuchUploadError(KeyError):
    """Raised when an upload id names no in-flight multipart upload (404)."""


class MultipartError(ValueError):
    """Raised for an invalid multipart request (bad part number/etag, 400)."""


class BadDigestError(ValueError):
    """Raised when a body's MD5 is not the ``Content-MD5`` its client
    sent (400); the write's staged stripes are aborted."""


class InvalidContinuationTokenError(ValueError):
    """Raised when a list continuation token cannot be decoded (400)."""
