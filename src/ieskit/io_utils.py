"""Small file helpers shared by the report and CSV writers."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np


def fnum(value) -> str:
    """Full-precision decimal form of a scalar that round-trips exactly."""
    return repr(float(value))


def _csv_rows(table, prefix: str = "") -> list[str]:
    """CSV lines of the rows of a 2-D array, each starting with ``prefix``:
    every cell in the form ``fnum`` gives it, the repr of a Python float.
    The cells are formatted a column at a time, which costs less per cell
    than a join per row when rows are short."""
    columns = [map(repr, column) for column in np.asarray(table, dtype=float).T.tolist()]
    return [prefix + ",".join(cells) for cells in zip(*columns)]


def atomic_write_text(path, text: str) -> Path:
    """Write text to ``path`` atomically (temp file in the same directory,
    then rename), so partially written outputs are never observed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
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
