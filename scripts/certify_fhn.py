#!/usr/bin/env python3
"""End-to-end certification experiment on the FitzHugh-Nagumo model.

Builds the contraction weight, certifies an admissible gain budget over
a ball, locates a forward-invariant sublevel set at the budget gains, and
cross-checks with a trajectory-pair ensemble sampled inside that set.
"""

import argparse
from pathlib import Path

from ieskit.dynsys import IntegratorConfig, assemble
from ieskit.estimator import ensemble_ies, sample_pairs_sublevel
from ieskit.fhn import FhnParams, build_fc, fc_candidate, fhn_field
from ieskit.invariance import fhn_outer_lyapunov, find_invariant_level
from ieskit.smallgain import certify


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("results/certification"))
    ap.add_argument("--r", type=float, default=2.1)
    ap.add_argument("--alpha-weight", type=float, default=1.0,
                    help="exponent rate of the contraction weight")
    ap.add_argument("--b", type=float, default=1.0)
    ap.add_argument("--epsilon", type=float, default=0.9)
    ap.add_argument("--radius", type=float, default=16.0)
    ap.add_argument("--alpha", type=float, default=0.5,
                    help="target composite decay rate")
    ap.add_argument("--pairs", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    params = FhnParams(b=args.b, rho1=1.0, rho2=1.0, epsilon=args.epsilon,
                       r=args.r, alpha=args.alpha_weight)
    table = build_fc(params)
    print(f"weight: mu={table.mu:.6f} eta={table.eta:.6f} "
          f"plateau={table.left_plateau:.6f}")

    cand1, cand2 = fc_candidate(table)
    ic = fhn_field(params)
    cert = certify(ic, cand1, cand2, args.radius,
                   alpha1=params.alpha, alpha2=params.b / params.epsilon,
                   alpha=args.alpha)
    print(f"gain budget: rho1 <= {cert.rho1_max:.6f}, rho2 <= {cert.rho2_max:.6f}")
    cert.write_record(args.out / "certificate.rec")
    cert.write_report(args.out / "certificate.txt")

    certified = FhnParams(b=params.b, rho1=cert.rho1_max, rho2=cert.rho2_max,
                          epsilon=params.epsilon, r=params.r, alpha=params.alpha)
    field = assemble(fhn_field(certified))
    w = fhn_outer_lyapunov(certified)
    est = find_invariant_level(w, field, (5.0, 40.0), [[-10.0, 10.0]] * 2,
                               n_levels=36, grid_density=81)
    print(f"invariant sublevel: level={est.level:.3f} radius={est.radius:.3f} "
          f"shell margin={est.margin:.4f}")

    pairs = sample_pairs_sublevel(w, est.level, args.pairs, args.seed)
    report = ensemble_ies(field, pairs, 40.0,
                          IntegratorConfig(max_time=40.0, step=0.02))
    print(f"ensemble: min lambda={report.min_lambda:.4f} "
          f"max K={report.max_gain:.3f} all contracting={report.passed}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
