"""ieskit benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; ieskit is imported from ``src/`` next to this directory.
The workload's inputs are made from the seed.  The run repeats whole rounds
of the workload's operations until the rounds add up to S seconds, checks
every operation's output (see workloads.py) and prints, as its last line,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: set-up time, peak
resident memory and median round time, the times rescaled to nominal machine
speed (speed.py).  With --trace 1 a warm-up round is
followed by rounds that alternate traced and untraced, and the metrics are
the per-layer ones (tracing.py), averaged over the traced rounds.  A result
file with the machine stamp, the per-round times and every failure goes to
``.perfbench_runs/`` in the checkout; a traced run also writes its spans.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
WORKLOAD_NAMES = ("figures", "certify-sweep", "ensemble", "adaptive-scan")
# fresh interpreters started one after another to time set-up; median reported
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def time_setup(configs) -> tuple[float, float, list[float]]:
    """Median time of a fresh interpreter that imports ieskit, parses the
    workload's configs and builds their fields, rescaled to nominal machine
    speed; the median import time those interpreters report; the raw walls."""
    walls, scaled, imports = [], [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), *map(str, configs)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(report["import_s"])
        # the part outside the sampled stretch (interpreter start, numpy
        # import, exit) is rescaled at the stretch's mean speed
        ratio = report["sampled_scaled_s"] / report["sampled_wall_s"]
        scaled.append(ratio * (walls[-1] - report["sampled_wall_s"])
                      + report["sampled_scaled_s"])
    return statistics.median(scaled), statistics.median(imports), walls


def import_ieskit():
    sys.path.insert(0, str(SRC))
    import ieskit

    if not Path(ieskit.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"ieskit imported from {ieskit.__file__}, not {SRC}")
    return ieskit


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM in /proc/self/status")


def machine_stamp(ieskit) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ieskit": ieskit.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": deps.get("blas", {}).get("name", "unknown"),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "platform": platform.platform(),
    }


class Ledger:
    """Attempted and failed operations; a failure outside the workload's
    known fault makes the run incorrect.  Outputs already checked are
    recognised by digest, so repeated rounds are not re-checked."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[tuple] = []
        self.known: list[tuple] = []
        self._verdicts: dict[tuple, str | None] = {}

    def record(self, outcomes) -> None:
        for o in outcomes:
            self.attempted += 1
            reason = o.error or self._verdict(o)
            if reason is None:
                continue
            self.failed += 1
            bucket = self.known if self.workload.known_fault(o.key) else self.unexpected
            if len(bucket) < 64:
                bucket.append((list(o.key), reason))

    def _verdict(self, o):
        try:
            key = (o.key, self.workload.digest(o))
            if key not in self._verdicts:
                self._verdicts[key] = self.workload.check(o)
            return self._verdicts[key]
        except Exception as exc:  # a malformed output fails its operation
            return f"check raised {exc!r}"


def run(args) -> dict:
    if not (SRC / "ieskit" / "__init__.py").is_file():
        raise BenchError(f"no ieskit sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import speed
    import tracing
    import workloads

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = RUNS / stem
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s, import_s, setup_walls = time_setup(workload.probe_configs())
        ieskit = import_ieskit()
        ledger = Ledger(workload)
        tracer = tracing.Tracer() if args.trace else None
        sampler = speed.SpeedSampler()
        rounds: list[dict] = []
        measured = 0.0
        while True:
            # trace mode: a warm-up round, then traced and untraced in turn;
            # the speed control runs only in untraced runs
            traced = tracer is not None and len(rounds) % 2 == 1
            if traced:
                tracer.reset_totals()
                tracer.install()
            with contextlib.ExitStack() as stack:
                if tracer is None:
                    stack.enter_context(sampler)
                start = time.perf_counter()
                try:
                    outcomes = workload.run_round()
                finally:
                    wall = time.perf_counter() - start
                    if traced:
                        tracer.uninstall()
            measured += wall
            entry = {"wall_s": wall, "traced": traced}
            if tracer is None:
                entry["scaled_s"] = sampler.scaled_s
                entry["snippet_median_s"] = sampler.median_snippet_s
            if traced:
                entry["layers"] = tracer.layer_metrics()
            rounds.append(entry)
            ledger.record(outcomes)
            if measured >= args.seconds and (tracer is None or len(rounds) >= 3):
                break
        rss = peak_rss_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss, "MB"),
            "round_s": (statistics.median(r["scaled_s"] for r in rounds), "s"),
        }
    else:
        metrics = layer_summary(rounds, import_s, tracing)
        tracer.save(RUNS / f"{stem}-spans.npz")
    result = {
        "correct": not ledger.unexpected,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "args": vars(args),
        "machine": machine_stamp(ieskit),
        "setup_walls_s": setup_walls,
        "rounds": rounds,
        "unexpected_failures": ledger.unexpected,
        "known_fault_failures": ledger.known,
        "result": result,
    }
    (RUNS / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    return result


def layer_summary(rounds, import_s, tracing) -> dict[str, tuple[float, str]]:
    """Mean of each layer metric over the traced rounds.  Module self times
    plus the benchmark's remainder add up to the traced round time; the
    overhead is traced minus untraced round time (warm-up round excluded)."""
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds[1:] if not r["traced"]]
    names = traced[0]["layers"].keys()
    out = {}
    for name in names:
        out[name] = (statistics.fmean(r["layers"][name] for r in traced),
                     tracing.unit_of(name))
    traced_s = statistics.fmean(r["wall_s"] for r in traced)
    self_s = sum(v for n, (v, _) in out.items() if n.endswith(".self_s"))
    out["scenarios.import_s"] = (import_s, "s")
    out["bench.traced_round_s"] = (traced_s, "s")
    out["bench.untraced_round_s"] = (statistics.fmean(r["wall_s"] for r in untraced), "s")
    out["bench.remainder_s"] = (traced_s - self_s, "s")
    out["bench.trace_overhead_s"] = (traced_s - out["bench.untraced_round_s"][0], "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    try:
        result = run(args)
    except (BenchError, subprocess.SubprocessError, OSError, ImportError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
