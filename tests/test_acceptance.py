"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Criterion 9 is implemented exactly as stated and is expected to fail: at the
third benchmark parameter set the model's equilibrium sits above the printed
ultimate bound, so no finite entry time exists (see the repository notes).
"""

import time

import numpy as np
import pytest

from ieskit.dynsys import (
    IntegratorConfig,
    assemble,
    flow_difference,
    integrate,
    integrate_with_displacement,
    linear_field,
)
from ieskit.estimator import (
    CONTRACTING,
    NON_CONTRACTING,
    ensemble_ies,
    fit_envelope,
    sample_pairs_sublevel,
)
from ieskit.fhn import (
    FhnParams,
    build_fc,
    fc_candidate,
    fhn_field,
    figure_params,
    x_subsystem,
)
from oracles import vdot
from ieskit.invariance import (
    fhn_dissipation_level,
    fhn_outer_lyapunov,
    find_invariant_level,
    ultimate_bound_fhn,
    wdot,
)
from ieskit.scenarios import run_figures
from ieskit.smallgain import SupConstants, certify, gain_budget

PAIR = (np.array([2.0, 0.0]), np.array([-2.0, 1.0]))


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_1_analytic_integration():
    start = time.perf_counter()
    field = linear_field([[-0.1]])
    tr = integrate(field, 0.0, [1.0], IntegratorConfig(max_time=10.0, step=1e-3))
    rel_err = abs(tr.states[-1, 0] - np.exp(-1.0)) / np.exp(-1.0)
    errs = []
    for step in (0.5, 0.25):
        t = integrate(field, 0.0, [1.0], IntegratorConfig(max_time=10.0, step=step))
        errs.append(abs(t.states[-1, 0] - np.exp(-1.0)))
    ratio = errs[0] / errs[1]
    elapsed = time.perf_counter() - start
    ok = rel_err < 1e-8 and 14.0 <= ratio <= 18.0 and elapsed < 1.0
    _report(1, ok, f"rel_err={rel_err:.2e} order_ratio={ratio:.2f} t={elapsed:.2f}s")
    assert rel_err < 1e-8
    assert 14.0 <= ratio <= 18.0
    assert elapsed < 1.0


def test_criterion_2_variational_consistency():
    start = time.perf_counter()
    field = assemble(fhn_field(figure_params(2)))
    z0 = np.array([1.2, -0.3])
    v = np.array([0.6, 0.8])
    cfg = IntegratorConfig(max_time=5.0, step=1e-3)
    base = integrate_with_displacement(field, 0.0, z0, v, cfg)
    defects = []
    for h in (1e-3, 5e-4):
        shifted = integrate(field, 0.0, z0 + h * v, cfg)
        defects.append(np.linalg.norm(
            shifted.states[-1] - base.states[-1] - h * base.displacements[-1]))
    ratio = defects[0] / defects[1]
    elapsed = time.perf_counter() - start
    ok = 3.5 <= ratio <= 4.5 and elapsed < 5.0
    _report(2, ok, f"defect_ratio={ratio:.3f} t={elapsed:.2f}s")
    assert 3.5 <= ratio <= 4.5
    assert elapsed < 5.0


def test_criterion_3_fc_certificate():
    start = time.perf_counter()
    params = FhnParams(b=1.0, rho1=1.0, rho2=1.0, epsilon=0.9, r=2.1, alpha=1.0)
    table = build_fc(params)
    s = params.s_star

    # independent quadrature route: composite Gauss-Legendre, uniform panels
    nodes, weights = np.polynomial.legendre.leggauss(10)
    edges = np.linspace(-s, s, 513)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    pts = mid[:, None] + half[:, None] * nodes[None, :]
    num = 2.0 * pts**2 - 2.0 - params.alpha
    den = pts - pts**3 / 3.0 + params.c
    mu_oracle = -float(np.sum(half * ((num / den) @ weights)))

    agree = abs(table.mu - mu_oracle)
    grid = -s * np.cos(np.pi * np.arange(2048) / 2047)
    vals, ders = table.fc_pair(grid)
    bounds_ok = bool(np.all(vals >= 1.0 - 1e-12)
                     and np.all(vals <= table.left_plateau + 1e-12))
    mono_ok = bool(np.all(np.diff(vals) <= 1e-12))
    deriv_ok = bool(np.all(ders <= 1e-12)
                    and np.all(ders >= -table.eta * (1 + 1e-9)))
    plateaus_ok = (table.fc(s) == 1.0 and table.fc(s + 3.0) == 1.0
                   and table.fc(-s) == table.left_plateau
                   and table.fc(-s - 3.0) == table.left_plateau)
    elapsed = time.perf_counter() - start
    ok = (agree < 1e-8 and bounds_ok and mono_ok and deriv_ok and plateaus_ok
          and elapsed < 5.0)
    _report(3, ok, f"mu={table.mu:.9f} dual_quadrature_gap={agree:.2e} "
                   f"eta={table.eta:.6f} t={elapsed:.2f}s")
    assert agree < 1e-8
    assert bounds_ok and mono_ok and deriv_ok and plateaus_ok
    assert elapsed < 5.0


def test_criterion_4_exact_decay():
    start = time.perf_counter()
    params = FhnParams(b=1.0, rho1=1.0, rho2=1.0, epsilon=0.9, r=2.1, alpha=1.0)
    table = build_fc(params)
    v1, _ = fc_candidate(table)
    field = x_subsystem(params)
    s = params.s_star
    rng = np.random.default_rng(2024)

    worst_interior = 0.0
    for x in rng.uniform(-s * (1 - 1e-12), s * (1 - 1e-12), size=1000):
        z, dz = np.array([x]), np.array([1.0])
        val = v1.value(z, dz)
        resid = abs(vdot(v1, field, 0.0, z, dz) + params.alpha * val) / val
        worst_interior = max(worst_interior, resid)

    worst_exterior = -np.inf
    exterior = np.concatenate([rng.uniform(s, 8.0, 500), rng.uniform(-8.0, -s, 500)])
    for x in exterior:
        z, dz = np.array([x]), np.array([1.0])
        resid = vdot(v1, field, 0.0, z, dz) + params.alpha * v1.value(z, dz)
        worst_exterior = max(worst_exterior, resid)

    elapsed = time.perf_counter() - start
    ok = worst_interior <= 1e-8 and worst_exterior <= 1e-9 and elapsed < 2.0
    _report(4, ok, f"interior_rel={worst_interior:.2e} "
                   f"exterior={worst_exterior:.2e} t={elapsed:.2f}s")
    assert worst_interior <= 1e-8
    assert worst_exterior <= 1e-9
    assert elapsed < 2.0


def test_criterion_5_gain_budget_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    worst_margin = np.inf
    for _ in range(100):
        a1, a2, b1, b2, e1, e2, t1, t2 = rng.uniform(0.05, 4.0, size=8)
        alpha1, alpha2 = rng.uniform(0.3, 3.0, size=2)
        alpha = 0.5 * min(alpha1, alpha2)
        cons = SupConstants(radius=1.0, a1=a1, a2=a2, b1=b1, b2=b2,
                            eta1=e1, eta2=e2, theta1=t1, theta2=t2)
        rho1, rho2 = gain_budget(cons, alpha1, alpha2, alpha)
        lhs1 = -alpha1 + rho1 * (a1 * e1 + b1 * t1**2 / 2.0) + rho2 * b2 / 2.0
        lhs2 = -alpha2 + rho2 * (a2 * e2 + b2 * t2**2 / 2.0) + rho1 * b1 / 2.0
        worst_margin = min(worst_margin, -alpha - lhs1, -alpha - lhs2)
    elapsed = time.perf_counter() - start
    ok = worst_margin >= 0.0 and elapsed < 1.0
    _report(5, ok, f"worst_margin={worst_margin:.3e} t={elapsed:.2f}s")
    assert worst_margin >= 0.0
    assert elapsed < 1.0


def test_criterion_6_dissipation_chain():
    # the chain gives Wdot <= -2 kappa (W - level) - 5/256, so Wdot <= -5/256
    # on the boundary of the sublevel set at the chain's level
    start = time.perf_counter()
    angles = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    circle = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    worst = []
    for fig in (1, 2, 3):
        p = figure_params(fig)
        w = fhn_outer_lyapunov(p)
        boundary = w.half_axes(fhn_dissipation_level(p)) * circle
        worst.append(float(np.max(wdot(w, assemble(fhn_field(p)), boundary))))
    elapsed = time.perf_counter() - start
    ok = all(m <= -5 / 256 + 1e-9 for m in worst) and elapsed < 5.0
    _report(6, ok, f"worst_boundary_wdot={[f'{m:.2e}' for m in worst]} t={elapsed:.2f}s")
    assert ok, f"boundary Wdot above -5/256: {worst}"


def test_criterion_7_figure_reproduction():
    start = time.perf_counter()
    cfg = IntegratorConfig(max_time=100.0, step=0.01)
    fits = {}
    finals = {}
    for fig in (1, 2, 3):
        field = assemble(fhn_field(figure_params(fig)))
        series = flow_difference(field, 0.0, *PAIR, cfg)
        fits[fig] = fit_envelope(series.times, series.values)
        finals[fig] = series.values[-1] / series.values[0]
        if fig == 1:
            late = series.values[series.times >= 80.0]
            late_ok = float(np.mean(late)) >= 0.05 * series.values[0]
    elapsed = time.perf_counter() - start

    fig1_ok = fits[1].verdict == NON_CONTRACTING and late_ok
    fig2_ok = (fits[2].verdict == CONTRACTING and fits[2].lam > 1e-3
               and finals[2] <= 1e-3)
    fig3_ok = fits[3].verdict == CONTRACTING
    # regression pins from the first verified run of this configuration
    lam2_ok = fits[2].lam == pytest.approx(0.103258, abs=3e-3)
    lam3_ok = fits[3].lam == pytest.approx(1.120650, abs=3e-2)
    ok = fig1_ok and fig2_ok and fig3_ok and lam2_ok and lam3_ok and elapsed < 30.0
    _report(7, ok, f"lam1={fits[1].lam:.5f} lam2={fits[2].lam:.5f} "
                   f"lam3={fits[3].lam:.5f} final2={finals[2]:.2e} t={elapsed:.1f}s")
    assert fig1_ok and fig2_ok and fig3_ok
    assert lam2_ok and lam3_ok
    assert elapsed < 30.0


def test_criterion_8_certificate_simulation_consistency():
    start = time.perf_counter()
    params = FhnParams(b=1.0, rho1=1.0, rho2=1.0, epsilon=0.9, r=2.1, alpha=1.0)
    table = build_fc(params)
    cand1, cand2 = fc_candidate(table)
    ic = fhn_field(params)
    radius = 16.0
    cert = certify(ic, cand1, cand2, radius,
                   alpha1=params.alpha, alpha2=params.b / params.epsilon,
                   alpha=0.5)
    assert cert.decay_report.passed

    gains = (cert.rho1_max, cert.rho2_max)
    certified = FhnParams(b=params.b, rho1=gains[0], rho2=gains[1],
                          epsilon=params.epsilon, r=params.r, alpha=params.alpha)
    field = assemble(fhn_field(certified))
    w = fhn_outer_lyapunov(certified)
    est = find_invariant_level(w, field, (5.0, 40.0), [[-10.0, 10.0]] * 2,
                               n_levels=36, grid_density=81)
    assert est.radius <= radius, "invariant set not contained in the certified ball"

    pairs = sample_pairs_sublevel(w, est.level, 20, seed=17)
    report = ensemble_ies(field, pairs, 40.0,
                          IntegratorConfig(max_time=40.0, step=0.02))
    non_contracting = [v for v in report.verdicts if v == NON_CONTRACTING]
    elapsed = time.perf_counter() - start
    ok = not non_contracting and not report.inconclusive and elapsed < 60.0
    _report(8, ok, f"gains=({gains[0]:.5f},{gains[1]:.5f}) level={est.level:.2f} "
                   f"R={est.radius:.2f} min_lambda={report.min_lambda:.4f} "
                   f"t={elapsed:.1f}s")
    assert not non_contracting
    assert not report.inconclusive
    assert elapsed < 60.0


def test_criterion_9_ultimate_bound():
    start = time.perf_counter()
    params = figure_params(3)
    field = assemble(fhn_field(params))
    tr = integrate(field, 0.0, np.array([3.0, 3.0]),
                   IntegratorConfig(max_time=120.0, step=0.01))
    ub = ultimate_bound_fhn(params, 0.1, tr)
    settled = params.epsilon * tr.states[-1, 1] ** 2
    elapsed = time.perf_counter() - start
    ok = ub.entry_time is not None and elapsed < 5.0
    _report(9, ok, f"B={ub.bound} entry={ub.entry_time} "
                   f"settled_eps_y2={settled:.4f} t={elapsed:.2f}s")
    assert ub.bound == pytest.approx(1.225)
    assert elapsed < 5.0
    assert ub.entry_time is not None, (
        "the trajectory never settles below the printed bound: the model "
        f"equilibrium at these parameters has eps*y^2 = {settled:.4f} > "
        f"{ub.bound}, so the printed ultimate bound is refuted by its own "
        "benchmark parameter set (see notes/decisions ledger)"
    )


def test_criterion_10_figures_determinism(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    run_figures(out1, seed=123)
    run_figures(out2, seed=123)
    identical = all(
        (out1 / f"figure{fig}.csv").read_bytes() == (out2 / f"figure{fig}.csv").read_bytes()
        for fig in (1, 2, 3)
    )
    _report(10, identical, "byte-identical CSVs across reruns")
    assert identical
