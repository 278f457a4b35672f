"""Small file helpers shared by the report and CSV writers.

Every CSV is streamed: its cells are formatted and its rows joined ``CHUNK``
rows at a time, and the atomic writer writes each chunk of text as it comes,
so the peak memory of a write is one chunk plus the column a caller formats
once to share (the time column), whatever the number of rows.

Every file is written through one commit routine, ``_commit``: the texts
go into temp files next to the targets, which replace the targets only once
all of them are written, so a failed write leaves every target as it was.
``block_csvs`` writes CSVs whose rows come in blocks while a solve runs,
into temp files of its caller's commit: a forked worker process formats
each block while the caller computes the next one.  Where ``os.fork`` is missing,
the same formatter runs in the calling process."""

from __future__ import annotations

import errno
import gc
import os
import pickle
import signal
import struct
import tempfile
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager, suppress
from itertools import chain, islice, takewhile
from pathlib import Path

import numpy as np

CHUNK = 1024
# The shape (rows, N, d) that leads each block of float64 times and states
# on the worker's pipe; a block of no rows ends the stream.
_HEADER = struct.Struct("3q")


def _cells(values):
    """The CSV cells of a 1-D array, one at a time: each value as the repr
    of a Python float, which round-trips exactly.  The values are made
    Python floats ``CHUNK`` at a time.  A column that several blocks share is
    made a list once and passed to each; the others stay lazy, so a column's
    cells are never all held at once."""
    a = np.asarray(values, dtype=float)
    return chain.from_iterable(map(repr, a[k:k + CHUNK].tolist())
                               for k in range(0, len(a), CHUNK))


def _csv_rows(columns, prefix: str = "", head: str = "") -> Iterator[str]:
    """The text of ``head`` followed by the CSV rows that ``columns``,
    equal-length iterables of formatted cells (``_cells``), make side by
    side, as a generator of chunks: ``head``, then one chunk per ``CHUNK``
    rows, each row started by ``prefix`` and ended by a newline.  A chunk's
    rows are built by one C-level join.  Columns of unequal length raise
    ValueError when the shorter one runs out, after the chunks before it."""
    rows = map(",".join, zip(*columns, strict=True))
    sep = f"\n{prefix}"
    yield head
    while chunk := list(islice(rows, CHUNK)):
        yield f"{prefix}{sep.join(chunk)}\n"


def atomic_write_text(path, text: str | Iterable[str]) -> Path:
    """Write ``text``, a string or an iterable of string chunks written one
    after another, to ``path`` atomically (``_commit``): if a chunk fails to
    come or to encode, the target is left as it was."""
    path = Path(path)
    with _commit([path]) as (tmp,), open(tmp, "w") as fh:
        fh.writelines([text] if isinstance(text, str) else text)
    return path


@contextmanager
def _commit(paths: Sequence[Path]) -> Iterator[list[Path]]:
    """Replace the files ``paths`` together: yields one new, empty temp file
    next to each target for the ``with`` body to write, created with mode
    0o666 so that it gets the mode a plain ``open`` would, 0o666 less the
    umask.  The missing directories are made first; only ancestors up to
    the first that exists are looked at.  On a clean exit of the body every
    target is checked, and if none is a directory the temp files are renamed
    onto their targets.  If the body or a check fails, the temp files and
    the directories made for them are removed and every target is left as
    it was."""
    made: list[Path] = []  # outermost first
    temps: list[Path] = []
    try:
        for parent in dict.fromkeys(p.parent for p in paths):
            missing = takewhile(lambda d: not d.exists(), (parent, *parent.parents))
            made += reversed(list(missing))
            parent.mkdir(parents=True, exist_ok=True)
        for path in paths:
            tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
            os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
            temps.append(tmp)
        yield temps
        for path in paths:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps:
            with suppress(OSError):
                tmp.unlink()
        for d in reversed(made):
            with suppress(OSError):
                d.rmdir()
        raise


def _write_all(fd: int, data) -> None:
    """Write all of ``data``, a contiguous buffer: ``os.write`` may take
    only part of it, for one when a signal handler runs during the write."""
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _read_exact(fd: int, size: int) -> bytearray:
    """The next ``size`` bytes of ``fd``; EOFError if it ends before."""
    buf = bytearray(size)
    view, got = memoryview(buf), 0
    while got < size:
        n = os.readv(fd, [view[got:]])
        if not n:
            raise EOFError("the block stream ended without its end mark")
        got += n
    return buf


class _BlockWriter:
    """Appends each block's text to the files ``paths``, which must exist.
    ``format_block(times, states)`` gives one iterable of text chunks per
    part, and part k belongs to file ``paths[k]``; a file holds its parts
    one after another, each its head and then its text of every block.  A
    file's first part is written as it comes, the file open only while it
    is appended to, so any number of files needs one open file at a time.
    Its later parts, such as the estimate's pairs 1..n-1, are written to one
    unlinked spill file next to the first file and copied in, part by part,
    by ``finish``; so what is held in memory is one block's text and the
    place of each spilled piece, whatever the number of blocks."""

    def __init__(self, paths: Sequence[Path], heads: Sequence[str], format_block):
        self.paths = paths
        firsts = {}
        self.direct = [firsts.setdefault(path, k) == k for k, path in enumerate(paths)]
        self.pieces: list[list[tuple[int, int]]] = [[] for _ in paths]
        self.format_block = format_block
        self.spill = None
        self._write([head] for head in heads)

    def _write(self, parts) -> None:
        for k, (path, chunks) in enumerate(zip(self.paths, parts, strict=True)):
            if self.direct[k]:
                with open(path, "a") as fh:
                    fh.writelines(chunks)
            elif data := "".join(chunks).encode():
                if self.spill is None:
                    self.spill = tempfile.TemporaryFile(dir=self.paths[0].parent)
                self.pieces[k].append((self.spill.tell(), len(data)))
                self.spill.write(data)

    def send(self, times, states) -> None:
        self._write(self.format_block(times, states))

    def finish(self) -> None:
        for path, pieces in zip(self.paths, self.pieces):
            with open(path, "a") as fh:
                for offset, size in pieces:
                    self.spill.seek(offset)
                    fh.write(self.spill.read(size).decode())
        self.abort()

    def abort(self) -> None:
        if self.spill is not None:
            with suppress(OSError):
                self.spill.close()


class _ForkedWriter:
    """A ``_BlockWriter`` in a forked worker process that reads the blocks
    from a pipe.  The worker runs no garbage collection and ends with
    ``os._exit``, so it runs no finalizer or exit handler and flushes no
    buffer it shares with the caller; a failure there, opening the files
    included, comes back pickled and is raised by ``send`` or ``finish``.
    It takes the arguments of a ``_BlockWriter``."""

    def __init__(self, *args):
        data_r, self.data_w = os.pipe()
        self.status_r, status_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (data_r, self.data_w, self.status_r, status_w):
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                gc.disable()
                os.close(self.data_w)
                os.close(self.status_r)
                writer = _BlockWriter(*args)
                while True:
                    rows, n, d = _HEADER.unpack(_read_exact(data_r, _HEADER.size))
                    if not rows:
                        break
                    values = np.frombuffer(_read_exact(data_r, 8 * rows * (1 + n * d)))
                    writer.send(values[:rows], values[rows:].reshape(rows, n, d))
                writer.finish()
                code = 0
            except BaseException as exc:
                try:
                    # the caller may be blocked sending a block: closing the
                    # stream fails that send, so it goes on to read this
                    os.close(data_r)
                    try:
                        report = pickle.dumps(exc)
                        pickle.loads(report)
                    except Exception:  # an exception that does not round-trip
                        report = pickle.dumps(RuntimeError(repr(exc)))
                    _write_all(status_w, report)
                except BaseException:
                    pass
            finally:
                os._exit(code)
        os.close(data_r)
        os.close(status_w)

    def send(self, times, states) -> None:
        """Hand the worker one block: ``times`` (k,) and ``states`` (k, N, d)."""
        if not len(times):
            return
        states = np.ascontiguousarray(states, dtype=float)
        try:
            _write_all(self.data_w, _HEADER.pack(*states.shape))
            _write_all(self.data_w, np.ascontiguousarray(times, dtype=float))
            _write_all(self.data_w, states)
        except BrokenPipeError:  # the worker has stopped: raise its failure
            self._wait()
            raise

    def finish(self) -> None:
        try:
            _write_all(self.data_w, _HEADER.pack(0, 0, 0))
        except BrokenPipeError:  # the worker has stopped; _wait raises why
            pass
        self._wait()

    def abort(self) -> None:
        if self.pid is not None:
            self._wait(kill=True)

    def _wait(self, kill: bool = False) -> None:
        """Close the stream, stop the worker if ``kill``, wait for it to end
        and, unless killed, raise its failure.  Each step is done once, so
        that ``abort`` after an interrupted wait still reaps the worker."""
        if self.data_w is not None:
            os.close(self.data_w)
            self.data_w = None
        if kill:
            os.kill(self.pid, signal.SIGKILL)
        report = b""
        if self.status_r is not None:
            with os.fdopen(self.status_r, "rb") as fh:
                self.status_r = None
                report = fh.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if kill:
            return
        if report:
            raise pickle.loads(report)
        if status:
            raise RuntimeError(f"the CSV worker ended with wait status {status}")


@contextmanager
def block_csvs(paths: Sequence[Path], heads: Sequence[str],
               format_block: Callable[[np.ndarray, np.ndarray], Sequence]) -> Iterator:
    """Append to the files ``paths``, the empty temp files of the caller's
    ``_commit``, blocks of rows handed over while the ``with`` body runs:
    yields ``send(times, states)``, which takes a block of times (k,) and
    states (k, N, d), and on a clean exit of the body waits until every
    block is written.

    ``format_block(times, states)`` gives one iterable of text chunks
    (``_csv_rows``) per entry of ``paths``, the block's part of that entry.
    An entry's text is its head in ``heads`` and then its parts in block
    order; a path listed more than once is the text of its entries one
    after another, in the order listed.  A forked worker calls it while the
    body goes on; where ``os.fork`` is missing, ``send`` calls it.  If the
    body or the formatting fails, the worker is gone before the failure
    reaches the caller's commit; a failure in the worker is raised in the
    caller."""
    writer = (_ForkedWriter if hasattr(os, "fork") else _BlockWriter)(
        paths, heads, format_block)
    try:
        yield writer.send
        writer.finish()
    except BaseException:
        writer.abort()
        raise
