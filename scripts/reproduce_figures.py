#!/usr/bin/env python3
"""Regenerate the three benchmark figure CSVs and print envelope verdicts.

Writes figure1.csv .. figure3.csv (columns t, x1, y1, x2, y2, distance) and a
one-line summary per figure: fitted decay rate, prefactor, and verdict.
"""

import argparse
from pathlib import Path

import numpy as np

from ieskit.estimator import fit_envelope
from ieskit.scenarios import Scenario, run_figures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("results/figures"))
    ap.add_argument("--horizon", type=float, default=Scenario.horizon)
    ap.add_argument("--step", type=float, default=Scenario.step)
    ap.add_argument("--seed", type=int, default=Scenario.seed)
    args = ap.parse_args()

    written = run_figures(Scenario("fhn", "figures", horizon=args.horizon, step=args.step,
                                   seed=args.seed, output_path=args.out))
    for path in written:
        rows = np.loadtxt(path, delimiter=",", skiprows=2)
        ts, dist = rows[:, 0], rows[:, 5]
        fit = fit_envelope(ts, dist)
        print(f"{path}: verdict={fit.verdict} lambda={fit.lam:.5f} "
              f"K={fit.K:.3f} final/initial={dist[-1] / dist[0]:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
