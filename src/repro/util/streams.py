"""Byte-source normalization for the streaming data plane.

The broker's ``put`` accepts whole ``bytes``, any file-like object with a
``read`` method, or any iterable of byte blocks.  :class:`ByteSource`
folds all three into one pull interface the engine consumes stripe by
stripe, so the write path's peak memory stays O(stripe) regardless of how
the caller delivers the payload.

The write path reads a source once and never rewinds it (a provider
failing mid-write is re-planned forward).  :meth:`ByteSource.restart` is
for the HTTP client's retry of a whole request: ``bytes`` and seekable
file objects can rewind, a one-shot iterator cannot.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Union

Streamable = Union[bytes, bytearray, memoryview, Iterable[bytes]]


class ByteSource:
    """Uniform stripe-sized pull access over bytes / file-likes / iterators."""

    def __init__(self, data: Streamable, *, size_hint: Optional[int] = None) -> None:
        self._buffer = bytearray()
        self._exhausted = False
        self._bytes: Optional[bytes] = None
        self._file = None
        self._file_start: Optional[int] = None
        self._iter: Optional[Iterator[bytes]] = None
        if isinstance(data, (bytes, bytearray, memoryview)):
            self._bytes = bytes(data)
            self.size_hint: Optional[int] = len(self._bytes)
            self._iter = iter((self._bytes,)) if self._bytes else iter(())
        elif hasattr(data, "read"):
            self._file = data
            # Record the starting offset unconditionally: restart() must
            # rewind to where streaming began, not to byte 0, whether or
            # not a size_hint spared us the size probe.
            try:
                self._file_start = data.tell()
            except (OSError, ValueError, AttributeError):
                self._file_start = None
            self.size_hint = size_hint if size_hint is not None else self._probe_size()
        else:
            self._iter = iter(data)
            self.size_hint = size_hint

    # -- introspection ----------------------------------------------------

    def _probe_size(self) -> Optional[int]:
        """Remaining byte count of a seekable file, or ``None``."""
        try:
            pos = self._file.tell()
            self._file.seek(0, 2)  # SEEK_END
            end = self._file.tell()
            self._file.seek(pos)
            return max(0, end - pos)
        except (OSError, ValueError, AttributeError):
            return None

    # -- pulling ----------------------------------------------------------

    def read(self, n: int) -> bytes:
        """Up to ``n`` bytes; shorter only at end of stream."""
        if n <= 0:
            raise ValueError("read size must be positive")
        while len(self._buffer) < n and not self._exhausted:
            block = self._pull()
            if not block:
                self._exhausted = True
                break
            self._buffer.extend(block)
        # One copy out of the buffer; the view is released before the
        # buffer is resized.
        with memoryview(self._buffer) as view:
            out = bytes(view[:n])
        del self._buffer[:n]
        return out

    def _pull(self) -> bytes:
        if self._file is not None:
            block = self._file.read(256 * 1024)
            return block if block else b""
        assert self._iter is not None
        while True:
            try:
                block = next(self._iter)
            except StopIteration:
                return b""
            if not isinstance(block, (bytes, bytearray, memoryview)):
                raise TypeError(
                    f"byte-source iterator yielded {type(block).__name__}, want bytes"
                )
            if block:  # iterators may legitimately yield empty keep-alives
                return bytes(block)

    # -- restart (a client's retry) --------------------------------------

    def restart(self) -> bool:
        """Rewind to the first byte; ``False`` when the source is one-shot."""
        if self._bytes is not None:
            self._iter = iter((self._bytes,)) if self._bytes else iter(())
        elif self._file is not None:
            start = self._file_start
            if start is None:
                try:
                    self._file.seek(0)
                except (OSError, ValueError, AttributeError):
                    return False
            else:
                try:
                    self._file.seek(start)
                except (OSError, ValueError):
                    return False
        else:
            return False
        self._buffer.clear()
        self._exhausted = False
        return True
