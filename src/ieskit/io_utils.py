"""Small file helpers shared by the report and CSV writers."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np


def _cells(values):
    """The CSV cells of a 1-D array, one at a time: each value as the repr
    of a Python float, which round-trips exactly.  A column that several
    blocks share is made a list once and passed to each; the others stay
    lazy, so a block's cells are never all held at once."""
    return map(repr, np.asarray(values, dtype=float).tolist())


def _csv_rows(columns, prefix: str = "", head: str = "") -> str:
    """``head`` followed by the CSV rows that ``columns``, equal-length
    iterables of formatted cells (``_cells``), make side by side: each row
    starts with ``prefix`` and ends with a newline.  The whole text is built
    by one C-level join, with no Python-level step per row; no rows give
    ``head`` alone."""
    rows = list(map(",".join, zip(*columns, strict=True)))
    if not rows:
        return head
    rows[0] = head + prefix + rows[0]
    rows[-1] += "\n"
    return f"\n{prefix}".join(rows)


def atomic_write_text(path, text: str) -> Path:
    """Write text to ``path`` atomically (a new temp file in the same
    directory, then rename), so partially written outputs are never observed.
    The temp file is created with mode 0o666, so the kernel gives it the mode
    a plain ``open`` would, 0o666 less the umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
