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
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager, suppress
from itertools import chain, islice, takewhile
from pathlib import Path

import numpy as np

CHUNK = 1024


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
    with _commit([path]) as (tmp,):
        _write_text(tmp, text)
    return path


def _write_text(path, text: str | Iterable[str]) -> None:
    """Write ``text``, a string or an iterable of string chunks, to ``path``
    in place, such as a temp file of the caller's ``_commit``."""
    with open(path, "w") as fh:
        fh.writelines([text] if isinstance(text, str) else text)


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


def _append(paths: Sequence[Path], parts) -> None:
    """Append part k, an iterable of text chunks, to the file ``paths[k]``.
    Each file is open only while it is appended to, so any number of files
    needs one open file at a time."""
    for path, chunks in zip(paths, parts, strict=True):
        with open(path, "a") as fh:
            fh.writelines(chunks)


class _ForkedWriter:
    """A forked worker process that reads the blocks from a pipe and calls
    ``write(times, states)`` on each.  Each block crosses the pipe as one
    pickle, flushed as soon as it is dumped so that the worker formats it
    while the caller computes the next, and ``None`` ends the stream.  The
    worker runs no garbage collection and ends with ``os._exit``, so it runs
    no finalizer or exit handler and flushes no buffer it shares with the
    caller; a failure there comes back pickled and is raised by ``send`` or
    ``finish``."""

    def __init__(self, write: Callable[[np.ndarray, np.ndarray], None]):
        data_r, data_w = os.pipe()
        self.status_r, status_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (data_r, data_w, self.status_r, status_w):
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                gc.disable()
                os.close(data_w)
                os.close(self.status_r)
                blocks = open(data_r, "rb")
                while (block := pickle.load(blocks)) is not None:
                    write(*block)
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
                    with open(status_w, "wb") as fh:
                        fh.write(report)
                except BaseException:
                    pass
            finally:
                os._exit(code)
        os.close(data_r)
        os.close(status_w)
        self.data = open(data_w, "wb")

    def send(self, times, states) -> None:
        """Hand the worker one block: ``times`` (k,) and ``states`` (k, N, d)."""
        try:
            pickle.dump((times, states), self.data, pickle.HIGHEST_PROTOCOL)
            self.data.flush()
        except BrokenPipeError:  # the worker has stopped: raise its failure
            self._wait()
            raise

    def finish(self) -> None:
        pickle.dump(None, self.data)  # closing the stream in _wait flushes it
        self._wait()

    def abort(self) -> None:
        if self.pid is not None:
            self._wait(kill=True)

    def _wait(self, kill: bool = False) -> None:
        """Close the stream, stop the worker if ``kill``, wait for it to end
        and, unless killed, raise its failure.  Each step is done once, so
        that ``abort`` after an interrupted wait still reaps the worker."""
        with suppress(BrokenPipeError):  # closing flushes
            self.data.close()
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
    """Append to the files ``paths``, which may be the empty temp files of
    the caller's ``_commit``, blocks of rows handed over while the ``with``
    body runs: yields ``send(times, states)``, which takes a block of times
    (k,) and states (k, N, d), and on a clean exit of the body waits until
    every block is written.

    ``format_block(times, states)`` gives one iterable of text chunks
    (``_csv_rows``) per file, the block's part of that file, and file k
    holds its head in ``heads`` and then its parts in block order.  A forked
    worker calls it while the body goes on; where ``os.fork`` is missing,
    ``send`` calls it.  If the body or the formatting fails, the worker is
    gone before the failure reaches the caller's commit; a failure in the
    worker is raised in the caller."""
    _append(paths, ([head] for head in heads))

    def write(times, states) -> None:
        _append(paths, format_block(times, states))

    if not hasattr(os, "fork"):
        yield write
        return
    writer = _ForkedWriter(write)
    try:
        yield writer.send
        writer.finish()
    except BaseException:
        writer.abort()
        raise
