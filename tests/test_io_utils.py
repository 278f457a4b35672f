"""The CSV formatter against the per-row formatter it replaced, kept here as
the oracle: every cell the repr of its float, every row prefixed, byte for
byte, at every chunk boundary and also when the pairs of a distance CSV have
different time grids.  And the files the atomic writer leaves: the mode a
plain ``open`` would give under the umask, and after a failed write or a
stream failing mid-write the target as it was and no temp file; after a
failed write of several files every target as it was, and no directory the
write made; and the bounded memory of a streamed write."""

import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ieskit.dynsys import (
    ADAPTIVE_EMBEDDED,
    DistanceSeries,
    IntegratorConfig,
    assemble,
    flow_differences,
)
from ieskit.estimator import PairResult, write_distance_csv
from ieskit.fhn import fhn_field, figure_params
from ieskit.io_utils import CHUNK, _cells, _commit, _csv_rows, atomic_write_text

SPECIALS = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308,
            1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308, 0.1, 1e16, 1e-5]


def oracle_rows(table, prefix=""):
    """The rows as the per-row formatter wrote them, each ended by a newline."""
    return "".join(prefix + ",".join(map(repr, row)) + "\n"
                   for row in np.asarray(table, dtype=float).tolist())


def joined(chunks):
    """The text of a stream of chunks; each chunk must be a string."""
    chunks = list(chunks)
    assert all(isinstance(c, str) for c in chunks)
    return "".join(chunks)


def csv_rows(table, prefix="", head=""):
    return joined(_csv_rows([_cells(column) for column in np.asarray(table).T],
                            prefix, head))


finite_or_not = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True,
                          width=64) | st.sampled_from(SPECIALS)


@st.composite
def tables(draw):
    """A (rows, cols) table, 0 to 3 000 rows and 1 to 6 columns: a few rows
    drawn value by value, then rows from a seeded generator with magnitudes
    from 1e-323 to 1e308, special values mixed in."""
    cols = draw(st.integers(1, 6))
    head = draw(arrays(np.float64, (draw(st.integers(0, 12)), cols), elements=finite_or_not))
    n = draw(st.sampled_from([0, 1, 2, 7, 100, 2001, 3000]) | st.integers(0, 3000))
    n = max(0, n - len(head))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    with np.errstate(over="ignore"):
        body = rng.standard_normal((n, cols)) * 10.0 ** rng.integers(-323, 309, (n, cols))
    mask = rng.uniform(size=body.shape) < draw(st.sampled_from([0.0, 0.05, 0.5]))
    body[mask] = rng.choice(SPECIALS, size=int(mask.sum()))
    return np.vstack([head, body])


@given(table=tables(), prefix=st.sampled_from(["", "0,", "17,", "x;"]))
@settings(max_examples=150, deadline=None)
def test_csv_rows_are_the_per_row_formatter(table, prefix):
    assert csv_rows(table, prefix) == oracle_rows(table, prefix)


def test_no_rows_give_no_text():
    assert joined(_csv_rows([[], []], "3,")) == ""
    assert joined(_csv_rows([[], []], "3,", head="a,b\n")) == "a,b\n"
    assert csv_rows(np.empty((0, 4))) == ""


def test_head_comes_once_before_the_rows():
    table = np.array([[0.5, -0.0], [1e300, np.nan]])
    cells = [_cells(column) for column in table.T]
    assert (joined(_csv_rows(cells, "7,", head="# h\nt,x\n"))
            == "# h\nt,x\n" + oracle_rows(table, "7,"))


@pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
@pytest.mark.parametrize("prefix, head", [("", ""), ("5,", ""), ("", "t,a,b\n"),
                                          ("12,", "# h\nt,a,b\n")])
def test_chunk_boundaries_are_the_per_row_formatter(n, prefix, head):
    rng = np.random.default_rng(n)
    table = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
    assert csv_rows(table, prefix, head) == head + oracle_rows(table, prefix)
    # a stream never holds more than CHUNK rows in one chunk
    chunks = list(_csv_rows([_cells(column) for column in table.T], prefix, head))
    assert chunks[0] == head
    assert [c.count("\n") for c in chunks[1:]] == [min(CHUNK, n - k)
                                                    for k in range(0, n, CHUNK)]


def test_columns_of_unequal_length_are_refused():
    with pytest.raises(ValueError):
        joined(_csv_rows([["0.0", "1.0"], ["2.0"]]))


def test_cells_are_the_repr_of_each_float():
    values = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 0.1, 3]
    assert list(_cells(np.array(values))) == list(map(repr, map(float, values)))
    assert list(_cells([1, 2])) == ["1.0", "2.0"]
    long = np.random.default_rng(3).standard_normal(2 * CHUNK + 1)
    assert list(_cells(long)) == list(map(repr, long.tolist()))


def oracle_distance_csv(results):
    return "pair_id,t,distance\n" + "".join(
        oracle_rows(np.column_stack([r.series.times, r.series.values]), f"{r.pair_id},")
        for r in results)


def test_distance_csv_with_different_time_grids(tmp_path):
    """Pairs on the shared RK4 grid, on a prefix of it (a row that stopped
    early), on the same grid with its first time written -0.0 (equal values,
    other bytes), and on a Dormand-Prince resampled grid with its own end."""
    field = assemble(fhn_field(figure_params(3)))
    z1s = np.array([[2.0, 0.0], [0.5, -1.0], [-1.0, 3.0]])
    z2s = np.array([[-2.0, 1.0], [0.4, -1.2], [1.5, -2.0]])
    rk4 = flow_differences(field, 0.0, z1s, z2s, IntegratorConfig(max_time=3.0, step=0.01))
    dopri = flow_differences(field, 0.0, z1s[:2], z2s[:2],
                             IntegratorConfig(max_time=2.95, step=0.013,
                                              method=ADAPTIVE_EMBEDDED))
    signed = rk4[2].times.copy()
    signed[0] = -0.0
    series = [rk4[0], rk4[1],
              DistanceSeries(rk4[2].times[:123], rk4[2].values[:123]),
              DistanceSeries(signed, rk4[2].values),
              dopri[0], rk4[2], dopri[1]]
    assert len({s.times.tobytes() for s in series}) == 4
    results = [PairResult(k, z1s[0], z2s[0], s, None, False)
               for k, s in enumerate(series)]
    write_distance_csv(tmp_path / "distances.csv", results)
    text = (tmp_path / "distances.csv").read_bytes().decode()
    assert text == oracle_distance_csv(results)
    assert "\n3,-0.0," in text and "\n4,0.0," in text


@pytest.fixture
def umask():
    """Set the process umask for one test and restore it afterwards."""
    saved = os.umask(0o022)
    os.umask(saved)
    yield lambda mask: os.umask(mask)
    os.umask(saved)


@pytest.mark.parametrize("mask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_written_files_get_the_umask_mode(umask, tmp_path, mask, mode):
    umask(mask)
    fresh = atomic_write_text(tmp_path / "new.csv", "a\n")
    assert stat.S_IMODE(fresh.stat().st_mode) == mode
    existing = tmp_path / "old.csv"
    existing.write_text("old\n")
    existing.chmod(0o600 if mode != 0o600 else 0o644)
    atomic_write_text(existing, "b\n")
    assert existing.read_text() == "b\n"
    assert stat.S_IMODE(existing.stat().st_mode) == mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.csv", "old.csv"]


@pytest.mark.parametrize("existing", [False, True])
def test_a_failed_write_keeps_the_target_and_leaves_no_temp_file(tmp_path, existing):
    # a lone surrogate cannot be encoded, so the write fails after the temp
    # file is made
    target = tmp_path / "out.csv"
    if existing:
        target.write_text("kept\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(target, "a\udc80\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == (["out.csv"] if existing else [])
    if existing:
        assert target.read_text() == "kept\n"


@pytest.mark.parametrize("existing", [False, True])
def test_a_stream_failing_mid_write_keeps_the_target_and_leaves_no_temp_file(
        tmp_path, existing):
    # the columns part after the first chunk, so the strict zip raises once
    # a chunk has been written to the temp file
    target = tmp_path / "out.csv"
    if existing:
        target.write_text("kept\n")
    written = []

    def stream():
        for chunk in _csv_rows([_cells(np.arange(CHUNK + 5)), _cells(np.arange(CHUNK + 4))],
                               head="a,b\n"):
            written.append(chunk)
            yield chunk

    with pytest.raises(ValueError):
        atomic_write_text(target, stream())
    assert len(written) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == (["out.csv"] if existing else [])
    if existing:
        assert target.read_text() == "kept\n"


def test_a_streamed_write_holds_about_one_chunk(tmp_path):
    """100 000 rows of 6 columns, the first a time column formatted once to
    share, as the writers do.  Written whole, the text and its copies peaked
    at about 41 MB of Python allocations, 33 MB above the time column.
    Streamed, they measured 8.2 MB, of which 7.6 MB is the time column's
    cells, and 0.6 MB above it: the bounds leave room for Python's own
    variation, not for a second copy of the text."""
    table = np.random.default_rng(0).standard_normal((100_000, 6))
    tracemalloc.start()
    try:
        times = list(_cells(table[:, 0]))
        shared, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        atomic_write_text(tmp_path / "big.csv",
                          _csv_rows([times, *map(_cells, table[:, 1:].T)], head="h\n"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000
    assert peak - shared < 1_500_000
    assert (tmp_path / "big.csv").read_text() == "h\n" + oracle_rows(table)


@pytest.mark.parametrize("blocked", [False, True])
def test_a_failed_multi_file_write_keeps_every_target(tmp_path, blocked):
    # the second file fails to encode, or its target is a directory: the
    # first target is not replaced either, and no temp file is left
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    first.write_text("kept\n")
    if blocked:
        second.mkdir()
    with pytest.raises(IsADirectoryError if blocked else UnicodeEncodeError):
        with _commit([first, second]) as temps:
            for tmp, text in zip(temps, ["new\n", "new\n" if blocked else "a\udc80\n"]):
                tmp.write_text(text)
    assert first.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["first.csv", "second.csv"] if blocked else ["first.csv"])


def test_a_failed_write_removes_the_directories_it_made_and_no_other(tmp_path, monkeypatch):
    # only the ancestors up to the first that exists are looked at, and
    # only the directories made for the write are removed after it fails
    (tmp_path / "a").mkdir()
    looked = []
    real_exists = type(tmp_path).exists

    def exists(self, *args, **kwargs):
        looked.append(self)
        return real_exists(self, *args, **kwargs)

    monkeypatch.setattr(type(tmp_path), "exists", exists)
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(tmp_path / "a" / "b" / "c" / "out.csv", "a\udc80\n")
    monkeypatch.undo()
    assert looked == [tmp_path / "a" / "b" / "c", tmp_path / "a" / "b", tmp_path / "a"]
    assert [p.name for p in tmp_path.iterdir()] == ["a"]
    assert not list((tmp_path / "a").iterdir())
