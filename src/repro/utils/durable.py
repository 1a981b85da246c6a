"""Crash-safe files: append-only JSONL logs and atomic whole-file writes.

Every durable file of a campaign run, the service, the fleet ledger and
a sweep goes through this module, so the crash policy is stated, and
tested, once.

**Commit rule.** A log line is committed if and only if it ends in
``"\\n"``.

* :meth:`JsonlLog.append` writes one line, newline included, with
  ``os.write`` (looping on short writes), then calls ``os.fsync`` unless
  the log is advisory.  An append that returned is therefore committed
  and, for a synced log, on disk.
* :meth:`JsonlLog.replay` yields the committed lines, parsed.  It drops
  an unterminated tail, even one that parses: that line's newline never
  landed, so its append never returned.  A committed line that is not
  JSON raises, naming the file and the line.
* Before a log object's first append, and after any append that
  raised, the file is cut back to its last ``"\\n"``.  A torn tail left
  by a crash or a failed write is thus never glued to the next entry as
  a corrupt interior line.

A log object takes no lock: callers that append from several threads
serialize their appends themselves.

**Whole files.** :func:`atomic_write` and :func:`atomic_path` write to a
temporary that is unique per call and sits beside the target (its name
ends in ``.tmp``, so ``*.json`` globs never see it), then move it into
place with ``os.replace``.  Readers see the old content or the new,
never a partial file; a write that fails removes its temporary.  No
fsync is spent on them: each is advisory or can be rebuilt from its
inputs.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import uuid
from typing import Any, Iterator, Type, Union

from repro.errors import ReproError

PathLike = Union[str, "os.PathLike[str]"]

#: Bytes read per step while scanning back for the last newline.
_SCAN_BYTES = 4096


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _cut_torn_tail(fd: int) -> None:
    """Truncate an unterminated final line back to the last newline."""
    end = pos = os.lseek(fd, 0, os.SEEK_END)
    keep = 0
    while pos > 0:
        start = max(0, pos - _SCAN_BYTES)
        newline = os.pread(fd, pos - start, start).rfind(b"\n")
        if newline >= 0:
            keep = start + newline + 1
            break
        pos = start
    if keep < end:
        os.ftruncate(fd, keep)


class JsonlLog:
    """One append-only JSONL file under the commit rule above.

    ``name`` and ``error`` shape the corrupt-line error (``corrupt
    <name> <path> at line <n>``); ``fsync=False`` marks an advisory log
    whose lost tail costs debuggability, never correctness; ``sort_keys``
    is passed to ``json.dumps`` for every entry.
    """

    def __init__(
        self,
        path: PathLike,
        *,
        name: str = "log",
        error: Type[ReproError] = ReproError,
        fsync: bool = True,
        sort_keys: bool = True,
    ):
        self.path = pathlib.Path(path)
        self.name = name
        self.error = error
        self.fsync = fsync
        self.sort_keys = sort_keys
        self._tail_clean = False

    def append(self, entry: Any) -> None:
        """Commit one entry as one line; raises if it may not have."""
        data = (json.dumps(entry, sort_keys=self.sort_keys) + "\n").encode()
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            if not self._tail_clean:
                _cut_torn_tail(fd)
            self._tail_clean = False
            _write_all(fd, data)
            if self.fsync:
                os.fsync(fd)
            self._tail_clean = True
        finally:
            os.close(fd)

    def replay(self) -> Iterator[Any]:
        """Yield every committed entry, in append order."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return
        lines = data.split(b"\n")
        lines.pop()  # b"" after the final newline, or an unterminated tail
        for lineno, line in enumerate(lines, 1):
            try:
                entry = json.loads(line)
            except ValueError:
                raise self.error(
                    f"corrupt {self.name} {self.path} at line {lineno}"
                ) from None
            yield entry


@contextlib.contextmanager
def atomic_path(path: PathLike) -> Iterator[pathlib.Path]:
    """Yield a fresh temporary path beside ``path``; what the body wrote
    there replaces ``path`` when the body returns.

    If the body (or the move) raises, the temporary is removed and
    ``path`` keeps its old content.
    """
    path = pathlib.Path(path)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def atomic_write(path: PathLike, text: str) -> None:
    """Replace ``path`` with ``text`` in one ``os.replace``."""
    with atomic_path(path) as tmp:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            _write_all(fd, text.encode())
        finally:
            os.close(fd)
