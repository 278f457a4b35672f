"""Small file helpers shared by the report and CSV writers.

Every CSV is streamed: its cells are formatted and its rows joined ``CHUNK``
rows at a time, and the atomic writer writes each chunk of text as it comes,
so the peak memory of a write is one chunk plus the column a caller formats
once to share (the time column), whatever the number of rows."""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from itertools import chain, islice
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
    after another, to ``path`` atomically (a new temp file in the same
    directory, then rename), so partially written outputs are never observed:
    if a chunk fails to come or to encode, the temp file is removed and the
    target is left as it was.  The temp file is created with mode 0o666, so
    the kernel gives it the mode a plain ``open`` would, 0o666 less the
    umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
