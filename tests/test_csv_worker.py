"""The forked CSV worker behind the figures, simulate and estimate actions.

Every run leaves no child process and no temp file behind, whether it
succeeds, blows up or its worker fails.  A failing worker leaves the targets
as they were and exits as the in-process formatter does (the path taken
where ``os.fork`` is missing), its failure reaches the caller also when it
does not pickle or when the caller is blocked sending, and an interrupted
wait still reaps the worker.  A block reaches the worker as soon as it is
sent, so that the worker formats it while the solve goes on.  The bytes
hold while a fast interval timer interrupts the caller, the worker never
flushes the caller's stdout, and the estimate action's distance rows are
those the library writer makes from the report.  Many states or pairs
need no more open files, and the worker's memory does not grow with the
size of distances.csv.  A blow-up prints its one line, and a target that
is a directory leaves every target of the action as it was, the
estimate's summary.csv included."""

import contextlib
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ieskit import scenarios
from ieskit.cli import EXIT_BLOWUP, EXIT_INTERNAL, EXIT_OK, main
from ieskit.dynsys import IntegratorConfig
from ieskit.estimator import ensemble_ies, sample_pairs_box, write_distance_csv
from ieskit.io_utils import block_csvs
from ieskit.scenarios import build_field, parse_config, run_scenario

FIGURE3 = "[params]\nc = 1\nb = 1\nepsilon = 0.9\n"
CONFIGS = {
    "figures": "[scenario]\nsystem = fhn\naction = figures\nhorizon = 5\n{initial}",
    "simulate": "[scenario]\nsystem = fhn\naction = simulate\nhorizon = 5\n{initial}" + FIGURE3,
    "estimate": ("[scenario]\nsystem = fhn\naction = estimate\nhorizon = 5\n{initial}"
                 + FIGURE3 + "[estimate]\npairs = {pairs}\n"),
}
ACTIONS = sorted(CONFIGS)
CALM = {"figures": "initial = 2 0; -2 1\n", "simulate": "initial = 2 0; -2 1\n",
        "estimate": ""}
BLOWING = {"figures": "initial = 1e10 0; -2 1\n", "simulate": "initial = 1e10 0\n",
           "estimate": "initial = 1e10 0; 2 0\n"}
TARGETS = {"figures": ["figure1.csv", "figure2.csv", "figure3.csv"],
           "simulate": ["trajectory_00.csv", "trajectory_01.csv"],
           "estimate": ["distances.csv", "summary.csv"]}


def run(tmp_path, action, initial, out="out", pairs=3) -> int:
    cfg = tmp_path / f"{action}.cfg"
    cfg.write_text(CONFIGS[action].format(initial=initial, pairs=pairs))
    return main([action, "--config", str(cfg), "--out", str(tmp_path / out)])


def assert_clean(tmp_path):
    """No child process, running or ended, and no temp file is left."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("action", ACTIONS)
def test_a_run_that_succeeds_leaves_its_targets_only(action, tmp_path):
    assert run(tmp_path, action, CALM[action]) == EXIT_OK
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == TARGETS[action]
    assert_clean(tmp_path)


@pytest.mark.parametrize("action", ACTIONS)
def test_a_run_that_blows_up_leaves_nothing(action, tmp_path, capsys):
    assert run(tmp_path, action, BLOWING[action]) == EXIT_BLOWUP
    assert "numerical blow-up" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert_clean(tmp_path)


@contextlib.contextmanager
def failing(kind, monkeypatch):
    """A worker that fails: its formatter raises, or its files may not grow
    past 4 KiB, so that a write fails with EFBIG (Python ignores SIGXFSZ)."""
    if kind == "formatter":
        def no_cells(values):
            raise ValueError("no cells today")

        monkeypatch.setattr(scenarios, "_cells", no_cells)
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (4096, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))


@pytest.mark.parametrize("kind", ["formatter", "file_size"])
@pytest.mark.parametrize("action", ACTIONS)
def test_a_failing_worker_exits_as_the_in_process_formatter(action, kind, tmp_path,
                                                            monkeypatch, capsys):
    out = tmp_path / "out"
    out.mkdir()
    for name in TARGETS[action]:
        (out / name).write_text(f"old {name}\n")
    codes, errors = [], []
    for forked in (True, False):
        if not forked:
            monkeypatch.delattr(os, "fork")
        with failing(kind, monkeypatch):
            codes.append(run(tmp_path, action, CALM[action]))
        errors.append(capsys.readouterr().err)
        for name in TARGETS[action]:
            assert (out / name).read_text() == f"old {name}\n"
        assert_clean(tmp_path)
    assert codes == [EXIT_INTERNAL, EXIT_INTERNAL]
    assert errors[0] == errors[1]
    assert ("no cells today" if kind == "formatter" else "File too large") in errors[0]


def test_an_interrupted_wait_still_reaps_the_worker(tmp_path, monkeypatch):
    # Ctrl-C while the caller waits for the worker after the solve
    waited = []

    def interrupted(pid, options):
        if not waited:
            waited.append(pid)
            raise KeyboardInterrupt
        return real_waitpid(pid, options)

    real_waitpid = os.waitpid
    monkeypatch.setattr(os, "waitpid", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(tmp_path, "figures", CALM["figures"])
    monkeypatch.undo()
    assert waited
    assert not (tmp_path / "out").exists()
    assert_clean(tmp_path)


@pytest.mark.parametrize("action, pairs", [("figures", 3), ("estimate", 40)])
def test_bytes_hold_under_a_fast_interval_timer(action, pairs, tmp_path):
    # a Python SIGALRM handler every millisecond, as the benchmark's speed
    # sampler sets one: a write to the worker's pipe may then take only part
    # of a block (40 pairs make blocks of 320 KiB, above a pipe's 64 KiB)
    assert run(tmp_path, action, CALM[action], "plain", pairs) == EXIT_OK
    ticks = []
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: ticks.append(signum))
    signal.setitimer(signal.ITIMER_REAL, 1e-3, 1e-3)
    try:
        code = run(tmp_path, action, CALM[action], "timed", pairs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert code == EXIT_OK and ticks
    for name in TARGETS[action]:
        assert ((tmp_path / "timed" / name).read_bytes()
                == (tmp_path / "plain" / name).read_bytes())
    assert_clean(tmp_path)


def test_a_block_reaches_the_worker_when_it_is_sent(tmp_path):
    # a block held back in the caller until the next send would keep the
    # worker idle while the solve computes that next block
    target = tmp_path / "rows.csv"
    target.touch()
    with block_csvs([target], ["rows\n"],
                    lambda times, states: [[f"{len(times)}\n"]]) as send:
        send(np.zeros(3), np.zeros((3, 2, 2)))
        deadline = time.monotonic() + 60
        while target.read_text() != "rows\n3\n":
            assert time.monotonic() < deadline, "the block did not reach the worker"
            time.sleep(0.01)
    assert target.read_text() == "rows\n3\n"
    assert_clean(tmp_path)


def test_the_worker_never_flushes_the_callers_stdout(tmp_path):
    # stdout to a pipe is block-buffered: the marker is still in the buffer
    # when the worker is forked, and only the caller may write it out
    cfg = tmp_path / "figures.cfg"
    cfg.write_text(CONFIGS["figures"].format(initial=CALM["figures"]))
    script = ("import sys\nfrom ieskit.cli import main\n"
              "sys.stdout.write('unflushed marker\\n')\nsys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script, "figures", "--config", str(cfg),
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.count("unflushed marker") == 1
    assert proc.stdout.count("figure1.csv") == 1


@pytest.mark.parametrize("system, params", [
    ("fhn", "c = 1\nb = 1\nepsilon = 0.9\n"),
    ("builtin_linear", "matrix = -1 10; 0 -1\n"),
])
@pytest.mark.parametrize("forked", [True, False])
def test_estimate_distances_are_write_distance_csvs(system, params, forked, tmp_path,
                                                    monkeypatch):
    # the worker, or the caller where os.fork is missing, formats the
    # distance rows block by block from the states, a scratch file a pair;
    # the library writer formats them pair by pair from the report
    if not forked:
        monkeypatch.delattr(os, "fork")
    cfg = tmp_path / "estimate.cfg"
    cfg.write_text(f"[scenario]\nsystem = {system}\naction = estimate\nhorizon = 30\n"
                   f"step = 0.02\nseed = 4\n[params]\n{params}[estimate]\npairs = 5\n")
    scenario = parse_config(cfg)
    scenario.output_path = tmp_path / "out"
    run_scenario(scenario)
    opts = scenario.options["estimate"]
    config = IntegratorConfig(max_time=scenario.horizon, step=scenario.step)
    report = ensemble_ies(build_field(scenario), sample_pairs_box(opts["box"], 5, 4),
                          config, opts["transient_skip"])
    write_distance_csv(tmp_path / "library.csv", report.results)
    assert ((tmp_path / "out" / "distances.csv").read_bytes()
            == (tmp_path / "library.csv").read_bytes())


@pytest.mark.parametrize("action, initial, pairs", [
    ("simulate", "initial = " + "; ".join(f"{k / 10} 0" for k in range(40)) + "\n", 3),
    ("estimate", "", 40),
], ids=["simulate-40-states", "estimate-40-pairs"])
def test_many_states_or_pairs_need_few_open_files(action, initial, pairs, tmp_path):
    # 40 output files or 40 pairs under a limit of 16 more descriptors than
    # are open now: each file is written and closed in turn, and the pairs
    # of distances.csv go to scratch files that are written in turn too
    fds = Path("/proc/self/fd")
    if not fds.is_dir():
        pytest.skip("needs /proc/self/fd to count the open descriptors")
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    resource.setrlimit(resource.RLIMIT_NOFILE,
                       (max(int(fd) for fd in os.listdir(fds)) + 17, hard))
    try:
        code = run(tmp_path, action, initial, pairs=pairs)
    finally:
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
    assert code == EXIT_OK
    if action == "simulate":
        assert len(list((tmp_path / "out").iterdir())) == 40
    assert_clean(tmp_path)


def worker_peak_mb(tmp_path, horizon):
    """The peak resident set of the CSV worker, in MB, and the size of
    distances.csv, of an estimate run of 200 pairs in a fresh process."""
    cfg = tmp_path / f"estimate{horizon}.cfg"
    cfg.write_text(CONFIGS["estimate"].format(initial="", pairs=200).replace(
        "horizon = 5", f"horizon = {horizon}"))
    out = tmp_path / f"out{horizon}"
    script = ("import resource, sys\nfrom ieskit.cli import main\n"
              "assert main(sys.argv[1:]) == 0\n"
              "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script, "estimate", "--config", str(cfg),
                           "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_OK, proc.stderr
    return (int(proc.stdout.split()[-1]) / 1024,
            (out / "distances.csv").stat().st_size / 2**20)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_the_workers_memory_does_not_grow_with_the_distances(tmp_path):
    # pairs 1..199 of distances.csv come before the end but are written
    # after pair 0: the worker writes each pair's text to its own scratch
    # file instead of holding it
    small, small_size = worker_peak_mb(tmp_path, 5)
    large, large_size = worker_peak_mb(tmp_path, 30)
    assert large_size - small_size > 15
    assert large - small < 4


def test_a_failure_that_does_not_pickle_still_reaches_the_caller(tmp_path, monkeypatch,
                                                                 capsys):
    class LocalError(Exception):  # a local class: pickle cannot find it
        pass

    def no_cells(values):
        raise LocalError("no cells today")

    monkeypatch.setattr(scenarios, "_cells", no_cells)
    assert run(tmp_path, "figures", CALM["figures"]) == EXIT_INTERNAL
    assert "LocalError('no cells today')" in capsys.readouterr().err
    assert_clean(tmp_path)


def test_a_large_failure_report_does_not_stall_the_caller(tmp_path, monkeypatch, capsys):
    # the worker fails on its first block while the caller is blocked on a
    # full pipe sending the next (40 pairs make blocks of 320 KiB), and its
    # report is larger than a pipe holds
    def no_cells(values):
        raise ValueError("no cells today " + "x" * 2**20)

    def stalled(signum, frame):
        raise TimeoutError("the caller and the worker wait on each other")

    monkeypatch.setattr(scenarios, "_cells", no_cells)
    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(60)
    try:
        code = run(tmp_path, "estimate", CALM["estimate"], pairs=40)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == EXIT_INTERNAL
    assert "no cells today xxx" in capsys.readouterr().err
    assert_clean(tmp_path)


@pytest.mark.parametrize("action, initial, box", [
    ("figures", "initial = 1e10 0; 2 0\n", ""),
    ("estimate", "initial = 1e10 0; 2 0\n", ""),
    ("estimate", "", "box = -1e200 1e200; -1 1\n"),
], ids=["figures", "estimate", "estimate-box-of-width-2e200"])
def test_a_blow_up_prints_only_its_line(action, initial, box, tmp_path):
    # the rows that blew up overflow when their distances are formatted;
    # that is the IEEE answer, so no numpy warning may reach stderr, nor
    # from the diagonal of a wide box or the norms of the pairs drawn in it
    cfg = tmp_path / f"{action}.cfg"
    cfg.write_text(CONFIGS[action].format(initial=initial, pairs=3) + box)
    env = dict(os.environ, PYTHONWARNINGS="default",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "ieskit.cli", action, "--config", str(cfg),
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_BLOWUP
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("numerical blow-up: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("forked", [True, False])
@pytest.mark.parametrize("action, blocked", [("figures", "figure2.csv"),
                                             ("simulate", "trajectory_01.csv"),
                                             ("estimate", "summary.csv")])
def test_a_target_that_is_a_directory_leaves_every_target_as_it_was(
        action, blocked, forked, tmp_path, monkeypatch, capsys):
    # the files are committed together: a target that cannot be replaced is
    # found before the first rename
    if not forked:
        monkeypatch.delattr(os, "fork")
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    for name in TARGETS[action]:
        if name != blocked:
            (out / name).write_text(f"old {name}\n")
    assert run(tmp_path, action, CALM[action]) == EXIT_INTERNAL
    assert f"Is a directory: '{out / blocked}'" in capsys.readouterr().err
    for name in TARGETS[action]:
        if name != blocked:
            assert (out / name).read_text() == f"old {name}\n"
    assert (out / blocked).is_dir()
    assert_clean(tmp_path)
