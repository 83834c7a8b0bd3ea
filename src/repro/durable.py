"""Durable files: the one crash discipline every persisted byte follows.

:func:`atomic_write` replaces whole files (manifests, compacted
journals, model artifacts, the lint cache); :class:`AppendLog` appends
JSONL lines (campaign journal, tsdb, span traces).  A leaf module
(stdlib plus :mod:`repro.errors`), so every layer can build on it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterator, NamedTuple, Optional, Tuple, Union

from .errors import CorruptLogError

#: One decoded log line: (line number, JSON value).
LogEntry = Tuple[int, Any]
#: One decoded log line with its bytes: (line number, JSON value,
#: (offset of its first byte, offset past its newline)).
LogSpan = Tuple[int, Any, Tuple[int, int]]


class LogView(NamedTuple):
    """The bytes one :meth:`AppendLog.follow` opened (a reader that
    knows a prefix already may move :attr:`start` and :attr:`line` on
    to a later line boundary)."""

    #: Offset the lines to read start at (a line boundary).
    start: int
    #: The file's bytes from :attr:`base` on.
    data: bytes
    base: int
    #: Lines before :attr:`start`.
    line: int
    #: (device, inode) of the file, ``None`` if it is missing.
    identity: Optional[Tuple[int, int]]


def _fsync_directory(directory: Union[str, Path]) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: Union[str, Path], data: Union[str, bytes]) -> None:
    """Fsync ``data`` into a temp file, replace ``path``, fsync the
    directory: after a crash readers see the old or the new bytes.

    The temp is per process, so concurrent writers never rename each
    other's half-written file; a crash may leave one behind, and no
    reader looks at ``*.tmp``.
    """
    target = Path(path)
    temp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    view = memoryview(data.encode("utf-8") if isinstance(data, str) else data)
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while view:
            view = view[os.write(fd, view):]
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(temp, target)
    _fsync_directory(target.parent)


class AppendLog:
    """An append-only JSONL file; ``kind`` names it in errors.

    A crash tears at most the last line: reads stop before it and the
    next append truncates it.  A bad line anywhere else raises
    :class:`~repro.errors.CorruptLogError`.
    """

    def __init__(self, path: Union[str, Path], kind: str) -> None:
        self.path = Path(path)
        self.kind = kind
        #: Byte offset past the valid prefix seen by the last read.
        self.end = 0
        #: Lines before :attr:`end` and the (device, inode) of the file
        #: it was measured in (``None``: no file): a read continuing
        #: from :attr:`end` of that file seeks instead of recounting.
        self._lines = 0
        self._identity: Optional[Tuple[int, int]] = None
        self._torn_at: Optional[int] = None

    def read(self, start: int = 0) -> Iterator[LogEntry]:
        """Yield the non-blank complete lines from byte ``start`` on (a
        line boundary), numbered from the top of the file.

        Stops at a torn tail (an unterminated last line, even one that
        parses, or an undecodable last line) and, once exhausted, keeps
        it for :meth:`heal`.  A missing file reads as "nothing yet".
        A generator, so a long journal is never decoded all at once.
        Continuing from :attr:`end` of the same file reads only the
        bytes appended since.
        """
        for line, value, _span in self.scan(self._load(start, rewind=False)):
            yield line, value

    def follow(self) -> LogView:
        """Open the file to continue where the last read stopped; read
        the lines with :meth:`scan`.

        The view starts at :attr:`end`, or at 0 when the file was
        replaced (a different inode, as after an :func:`atomic_write`
        by another process) or shrank below :attr:`end` since -- a
        follower must then rebuild from the top instead of keeping a
        stale order.  A view from 0 holds the whole file.
        """
        return self._load(self.end, rewind=True)

    @property
    def lines(self) -> int:
        """Lines before :attr:`end`, blank ones included."""
        return self._lines

    @property
    def identity(self) -> Optional[Tuple[int, int]]:
        """(device, inode) of the file :attr:`end` was measured in."""
        return self._identity

    def _load(self, start: int, rewind: bool) -> LogView:
        """The file's bytes from offset ``base`` on, the number of lines
        before ``start`` and the file's identity; ``rewind`` turns a
        stale ``start`` into 0."""
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            start = 0 if rewind else start
            return LogView(start, b"", start, 0, None)
        with handle:
            info = os.fstat(handle.fileno())
            identity = (info.st_dev, info.st_ino)
            same = identity == self._identity
            if rewind and (not same or info.st_size < start):
                start = 0
            if start > info.st_size:
                raise CorruptLogError(
                    f"{self.kind} {self.path} shrank below byte {start}: "
                    f"it was rewritten, not appended to"
                )
            if same and start and start == self.end:
                handle.seek(start)
                return LogView(start, handle.read(), start, self._lines,
                               identity)
            data = handle.read()
        return LogView(start, data, 0, data.count(b"\n", 0, start), identity)

    def scan(self, view: LogView) -> Iterator[LogSpan]:
        """Decode the complete lines of ``view`` from its start on, each
        with its byte span; once exhausted, :attr:`end` is past the
        last of them (see :meth:`read`)."""
        base, data = view.base, view.data
        pos, lines = view.start - base, view.line
        line = lines
        while (newline := data.find(b"\n", pos)) >= 0:
            end, line = newline + 1, line + 1
            chunk = data[pos:end]
            if not chunk.isspace():
                try:
                    value = json.loads(chunk.decode("utf-8"))
                except ValueError as exc:
                    if end == len(data):
                        break
                    raise CorruptLogError(
                        f"corrupt {self.kind} line {line} in {self.path}: {exc}"
                    )
                yield line, value, (base + pos, base + end)
            pos, lines = end, line
        self.end, self._lines, self._identity = base + pos, lines, view.identity
        self._torn_at = base + pos if pos < len(data) else None

    def heal(self) -> None:
        """Truncate the torn tail the last :meth:`read` found, if any."""
        if self._torn_at is not None:
            with open(self.path, "r+b") as handle:
                handle.truncate(self._torn_at)
                os.fsync(handle.fileno())
            self._torn_at = None

    def append(self, *lines: str) -> int:
        """Heal, then write every one of ``lines`` + newline, flush and
        fsync once (a group commit: a crash keeps a prefix of them, the
        last one possibly torn); a newly created file also gets its
        directory fsynced.  Returns the offset the first line landed
        at.

        When the file ended exactly at :attr:`end`, :attr:`end` moves
        past the new lines, so a later read continuing from it does not
        see them again.
        """
        self.heal()
        created = not self.path.exists()
        data = [line.encode("utf-8") + b"\n" for line in lines]
        with open(self.path, "ab") as handle:
            at = handle.tell()
            handle.writelines(data)
            handle.flush()
            os.fsync(handle.fileno())
            info = os.fstat(handle.fileno())
        if created:
            _fsync_directory(self.path.parent)
        identity = (info.st_dev, info.st_ino)
        first = self._identity is None and self.end == 0
        if at == self.end and (identity == self._identity or first):
            self.end = at + sum(map(len, data))
            self._identity = identity
            self._lines += sum(chunk.count(b"\n") for chunk in data)
        return at
