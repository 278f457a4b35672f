#!/usr/bin/env python3
"""Fold the perfbench result files of a change and of its parent commit into
one ``BENCH_<pr>.json`` record.

    python3 scripts/bench_record.py --pr N --before PARENT_RUNS --after CHANGE_RUNS

``perfbench/run.py`` writes one JSON result file per run into the
``.perfbench_runs/`` directory of the checkout it runs from; ``--before`` and
``--after`` name two such directories.  For every workload and side, the
record holds each end-to-end metric's median and quartiles over the untraced
runs, the operations attempted and failed, and the median of each per-layer
metric over the traced runs.  Every untraced run counts, also several at one
seed.  Where both sides have untraced runs at the same seed, it also counts
the seeds at which the change's median at that seed is better than the
parent's (``pairs``, ``after_better``), and states the gain rule: the
parent's spread ``parent_iqr`` (q3 - q1), the signed ``median_change``
(after minus before), and ``gain``, true when the change is better at 9 in
10 of the pairs or more and its median moved the better way by more than
``parent_iqr``.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_runs(directory: Path) -> list[dict]:
    """The result files of a runs directory, each as its parsed JSON."""
    runs = []
    for path in sorted(Path(directory).glob("*-trace[01]-*.json")):
        detail = json.loads(path.read_text())
        if "args" in detail and "result" in detail:
            runs.append(detail)
    if not runs:
        raise SystemExit(f"no perfbench result files in {directory}")
    return runs


def summary(values: list[float]) -> dict:
    """Count, median and quartiles (inclusive method) of ``values``."""
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def directions() -> dict[str, str]:
    """'lower' or 'higher' per end-to-end metric, as the benchmark declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec.get("end_to_end", [])}


def fold_side(runs: list[dict]) -> dict[str, dict]:
    """Per workload: the untraced metric values of every run, listed by
    seed, operation counts, and traced layer values."""
    sides: dict[str, dict] = defaultdict(lambda: {
        "metrics": defaultdict(lambda: defaultdict(list)), "units": {},
        "attempted": 0, "failed": 0,
        "runs": 0, "layers": defaultdict(list)})
    for run in runs:
        args, result = run["args"], run["result"]
        side = sides[args["workload"]]
        if args["trace"]:
            for name, m in result["metrics"].items():
                side["layers"][name].append(m["value"])
                side["units"][name] = m["unit"]
            continue
        side["runs"] += 1
        side["attempted"] += result["attempted"]
        side["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            side["metrics"][name][args["seed"]].append(m["value"])
            side["units"][name] = m["unit"]
    return sides


def gain_rule(before: dict, after: dict, sign: float, pairs: int, after_better: int) -> dict:
    """The parent's spread q3 - q1, the signed change of the median, and
    whether it is a gain: the change better at 9 in 10 of the seeds paired
    or more, and its median moved the better way (``sign`` -1 for lower) by
    more than the parent's spread."""
    iqr = before["q3"] - before["q1"]
    change = after["median"] - before["median"]
    gain = pairs > 0 and after_better >= 0.9 * pairs and sign * change > iqr
    return {"parent_iqr": iqr, "median_change": change, "gain": gain}


def record(pr: int, before: list[dict], after: list[dict]) -> dict:
    better = directions()
    sides = {"before": fold_side(before), "after": fold_side(after)}
    workloads = {}
    for name in sorted(set(sides["before"]) | set(sides["after"])):
        entry = {"end_to_end": {}, "operations": {}, "layers": {}}
        for label, folded in sides.items():
            if name not in folded:
                continue
            side = folded[name]
            entry["operations"][label] = {"runs": side["runs"],
                                          "attempted": side["attempted"],
                                          "failed": side["failed"]}
            for metric, by_seed in side["metrics"].items():
                out = entry["end_to_end"].setdefault(
                    metric, {"unit": side["units"][metric],
                             "better": better.get(metric, "lower")})
                out[label] = summary([v for values in by_seed.values() for v in values])
            for metric, values in side["layers"].items():
                out = entry["layers"].setdefault(metric, {"unit": side["units"][metric]})
                out[label] = statistics.median(values)
        if name in sides["before"] and name in sides["after"]:
            for metric, out in entry["end_to_end"].items():
                b = sides["before"][name]["metrics"].get(metric, {})
                a = sides["after"][name]["metrics"].get(metric, {})
                seeds = sorted(set(a) & set(b))
                sign = -1.0 if out["better"] == "lower" else 1.0
                out["pairs"] = len(seeds)
                out["after_better"] = sum(
                    sign * (statistics.median(a[s]) - statistics.median(b[s])) > 0
                    for s in seeds)
                if "before" in out and "after" in out:
                    out.update(gain_rule(out["before"], out["after"], sign, out["pairs"],
                                         out["after_better"]))
        workloads[name] = entry
    return {"pr": pr, "machine": after[0].get("machine", {}),
            "seconds": after[0]["args"].get("seconds"), "workloads": workloads}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True, help="number N of BENCH_N.json")
    ap.add_argument("--before", type=Path, required=True,
                    help="runs directory of the parent commit")
    ap.add_argument("--after", type=Path, required=True,
                    help="runs directory of the change")
    args = ap.parse_args(argv)
    rec = record(args.pr, load_runs(args.before), load_runs(args.after))
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
