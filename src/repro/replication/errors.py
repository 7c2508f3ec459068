"""Cluster error types (importable without the rest of the package)."""

from __future__ import annotations


class ClusterUnavailableError(Exception):
    """No leader, or the commit quorum is unreachable.

    The gateway maps this to ``503`` with a ``Retry-After`` header —
    elections finish within a couple of timeouts, so the client should
    come back rather than hang on a socket.
    """

    def __init__(self, message: str, *, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class NotLeaderError(Exception):
    """This node is a follower; the operation belongs on the leader.

    Carries the leader's gateway URL when known so the caller (the HTTP
    server's forwarding layer) can proxy instead of failing.
    """

    #: Reaches a client only when leadership moved mid-request; the next
    #: attempt is forwarded to the new leader.
    retry_after = 1.0

    def __init__(self, message: str, *, leader_url: str | None = None) -> None:
        super().__init__(message)
        self.leader_url = leader_url
