"""The batched state contract: every callable takes points of shape (..., d);
one solver loop integrates a batch (N, d) with the same results row by row as
one state at a time, and each sampled check evaluates its callables once on
the whole sample set with the report a row-by-row loop gives."""

import dataclasses
import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ieskit.dynsys import (
    ADAPTIVE_EMBEDDED,
    CouplingMap,
    IntegratorConfig,
    Interconnection,
    TimeVaryingField,
    assemble,
    fd_jacobian,
    integrate,
    linear_coupling,
    linear_field,
)
from ieskit.estimator import CONTRACTING, ensemble_ies, sample_pairs_ball, wies_scan
from ieskit.fhn import (
    FhnParams,
    build_fc,
    fc_candidate,
    fhn_field,
    figure_params,
    x_subsystem,
    y_subsystem,
)
from ieskit.finsler import (
    DisplacementSamples,
    FinslerCandidate,
    check_decay,
    check_sandwich,
    compose,
)
from ieskit.invariance import OuterLyapunov, fhn_outer_lyapunov, find_invariant_level
from ieskit.polynomials import PolynomialMap, polynomial_field, polynomial_interconnection
from ieskit.sampling import ball_grid
from ieskit.scenarios import build_field, parse_config
from ieskit.smallgain import _refine_max, extract_constants

# dz/dt = z^3 - z: rows starting inside (-1, 1) contract to 0, rows outside
# blow up in finite time
CUBIC = TimeVaryingField(1, lambda t, z: z**3 - z,
                         lambda t, z: (3.0 * z**2 - 1.0)[..., None])

# bound on |batched - per point| relative to the sum of absolute terms: the
# batched matrix products and integer powers round differently from the
# per-point ones, so the two agree to rounding, not bitwise
REL_BOUND = 1e-12


def assert_rows_match_single(field, z, cfg):
    batch = integrate(field, 0.0, z, cfg)
    for k in range(len(z)):
        single = integrate(field, 0.0, z[k], cfg)
        row = batch.row(k)
        assert np.array_equal(row.times, single.times)
        assert np.array_equal(row.states, single.states)
        assert row.blew_up == single.blew_up
        assert np.all(np.isnan(batch.states[len(single.times):, k]))


@given(figure=st.sampled_from([1, 2, 3]),
       n=st.integers(min_value=1, max_value=8),
       horizon=st.sampled_from([0.5, 1.0, 2.0]),
       step=st.sampled_from([0.01, 0.05]),
       seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None)
def test_fhn_rk4_rows_are_bitwise_single_solves(figure, n, horizon, step, seed):
    field = assemble(fhn_field(figure_params(figure)))
    z = np.random.default_rng(seed).uniform(-3.0, 3.0, (n, 2))
    assert_rows_match_single(field, z, IntegratorConfig(max_time=horizon, step=step))


@given(z=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=8))
@settings(max_examples=25, deadline=None)
def test_rows_blow_up_on_their_own(z):
    # each row keeps its own truncation at its first non-finite value
    assert_rows_match_single(CUBIC, np.array(z)[:, None],
                             IntegratorConfig(max_time=2.0, step=0.01))


@given(d=st.integers(min_value=1, max_value=5),
       n=st.integers(min_value=1, max_value=8),
       seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None)
def test_linear_rhs_batch_matches_points(d, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d))
    z = rng.uniform(-3.0, 3.0, (n, d))
    for rhs in (linear_field(a).rhs, lambda t, v: linear_coupling(a).value(v)):
        single = np.array([rhs(0.0, v) for v in z])
        scale = np.abs(z) @ np.abs(a).T
        assert np.all(np.abs(rhs(0.0, z) - single) <= REL_BOUND * scale)


@st.composite
def polynomial_maps(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    coef = st.floats(min_value=-2.0, max_value=2.0)
    term = st.tuples(coef, st.tuples(*[st.integers(min_value=0, max_value=4)] * d))
    components = tuple(tuple(draw(st.lists(term, min_size=1, max_size=4)))
                       for _ in range(d))
    return PolynomialMap(in_dim=d, components=components)


def magnitudes(pmap):
    """The map with every coefficient replaced by its absolute value: at |z|
    it gives the sum of absolute terms of pmap and of its Jacobian."""
    return PolynomialMap(
        in_dim=pmap.in_dim,
        components=tuple(tuple((abs(c), e) for c, e in comp) for comp in pmap.components),
    )


@given(pmap=polynomial_maps(), n=st.integers(min_value=1, max_value=8),
       seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None)
def test_polynomial_rhs_batch_matches_points(pmap, n, seed):
    z = np.random.default_rng(seed).uniform(-3.0, 3.0, (n, pmap.in_dim))
    field = polynomial_field(pmap.components)
    single = np.array([field.rhs(0.0, v) for v in z])
    scale = magnitudes(pmap)(np.abs(z))
    assert np.all(np.abs(field.rhs(0.0, z) - single) <= REL_BOUND * scale)


@given(figure=st.sampled_from([1, 2, 3]),
       n=st.integers(min_value=1, max_value=8),
       seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=10, deadline=None)
def test_shared_step_dopri_rows_match_fine_rk4(figure, n, seed):
    field = assemble(fhn_field(figure_params(figure)))
    z = np.random.default_rng(seed).uniform(-3.0, 3.0, (n, 2))
    adaptive = integrate(field, 0.0, z, IntegratorConfig(
        max_time=2.0, method=ADAPTIVE_EMBEDDED, atol=1e-9, rtol=1e-9))
    assert not adaptive.blew_up.any()
    between = np.linspace(0.0, 2.0, 37)
    dense = adaptive.state_at(between)
    for k in range(n):
        fine = integrate(field, 0.0, z[k], IntegratorConfig(max_time=2.0, step=1e-3))
        err = np.abs(adaptive.states[:, k] - fine.state_at(adaptive.times))
        assert np.max(err) <= 1e-6
        assert np.array_equal(dense[:, k], adaptive.row(k).state_at(between))


GOOD_PAIR = (np.array([0.2]), np.array([0.5]))
BAD_PAIR = (np.array([3.0]), np.array([3.5]))


class TestBlowUpIsolation:
    def test_rk4_flags_only_the_bad_pair(self):
        cfg = IntegratorConfig(max_time=5.0, step=0.01)
        mixed = ensemble_ies(CUBIC, [GOOD_PAIR, BAD_PAIR], cfg)
        alone = ensemble_ies(CUBIC, [GOOD_PAIR], cfg)
        assert [r.blew_up for r in mixed.results] == [False, True]
        assert mixed.inconclusive and not mixed.passed
        good, ref = mixed.results[0].series, alone.results[0].series
        assert np.array_equal(good.times, ref.times)
        assert np.array_equal(good.values, ref.values)
        assert mixed.results[0].fit == alone.results[0].fit

    def test_dopri_good_pair_still_contracts(self):
        cfg = IntegratorConfig(max_time=5.0, method=ADAPTIVE_EMBEDDED,
                               atol=1e-9, rtol=1e-6)
        mixed = ensemble_ies(CUBIC, [GOOD_PAIR, BAD_PAIR], cfg)
        assert [r.blew_up for r in mixed.results] == [False, True]
        assert mixed.results[0].fit.verdict == CONTRACTING
        assert mixed.results[0].series.times[-1] == 5.0


# polynomial and linear fields sum their terms in matrix products, which may
# round differently at another batch width (one row takes a matrix-vector
# product); fixed-step RK4 steps a stopped row on, so the rows still going
# keep their width and do not move when another row blows up
POLY_2D = polynomial_field((((0.5, (3, 0)), (-1.0, (0, 1)), (0.3, (1, 1))),
                            ((1.0, (1, 0)), (-1.0, (0, 1)), (0.2, (2, 0)))))
GROWING_3D = linear_field(np.random.default_rng(1).normal(size=(3, 3)) + 3.0 * np.eye(3))


@pytest.mark.parametrize("n", [2, 3, 9])
@pytest.mark.parametrize("field, far, horizon", [
    (POLY_2D, np.array([3.5, 0.0]), 4.0),  # finite-time blow-up
    (GROWING_3D, np.array([1e305, -1e305, 1e305]), 6.0),  # overflow
])
def test_rk4_rows_going_on_ignore_a_row_that_stops(field, far, horizon, n):
    cfg = IntegratorConfig(max_time=horizon, step=0.01)
    calm = np.random.default_rng(n).uniform(-0.5, 0.5, (n, field.dim))
    mixed = calm.copy()
    mixed[0] = far
    with_stop, without = integrate(field, 0.0, mixed, cfg), integrate(field, 0.0, calm, cfg)
    assert with_stop.blew_up.tolist() == [True] + [False] * (n - 1)
    assert not without.blew_up.any()
    assert with_stop.states[:, 1:].tobytes() == without.states[:, 1:].tobytes()
    assert with_stop.derivatives[:, 1:].tobytes() == without.derivatives[:, 1:].tobytes()


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 1), (3,), (0, 2)])
def test_batch_of_wrong_shape_rejected(shape):
    field = assemble(fhn_field(figure_params(1)))
    with pytest.raises(ValueError, match="shape"):
        integrate(field, 0.0, np.ones(shape), IntegratorConfig(max_time=1.0, step=0.01))


# -- radius scans ---------------------------------------------------------------

SCAN_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
SCAN_FIELDS = {
    "linear": linear_field(np.random.default_rng(2).normal(size=(3, 3)) - 2.0 * np.eye(3)),
    "fhn": assemble(fhn_field(figure_params(3))),
    "polynomial": build_field(parse_config(SCAN_CONFIGS / "scan_polynomial.cfg")),
}


def radius_loop(field, radii, n_pairs, cfg, seed):
    """One ensemble_ies call per radius on the pairs wies_scan draws there."""
    return [ensemble_ies(field, sample_pairs_ball(r, field.dim, n_pairs, seed + k), cfg)
            for k, r in enumerate(radii)]


def aggregates(report):
    return repr((report.min_lambda, report.max_gain, report.passed, report.inconclusive,
                 report.blown_up))


@given(name=st.sampled_from(sorted(SCAN_FIELDS)),
       radii=st.lists(st.floats(min_value=0.1, max_value=4.0), min_size=1, max_size=4,
                      unique=True).map(sorted),
       n_pairs=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=30, deadline=None)
def test_rk4_scan_is_bitwise_a_loop_of_ensembles(name, radii, n_pairs, seed):
    field = SCAN_FIELDS[name]
    cfg = IntegratorConfig(max_time=3.0, step=0.02)
    scan = wies_scan(field, radii, n_pairs, 3.0, cfg, seed=seed)
    loop = radius_loop(field, radii, n_pairs, cfg, seed)
    assert len(scan.per_radius) == len(loop)
    for merged, alone in zip(scan.per_radius, loop):
        assert [r.pair_id for r in merged.results] == list(range(n_pairs))
        for a, b in zip(merged.results, alone.results, strict=True):
            assert a.pair_id == b.pair_id
            assert a.series.times.tobytes() == b.series.times.tobytes()
            assert a.series.values.tobytes() == b.series.values.tobytes()
            assert repr(a.fit) == repr(b.fit)
        assert aggregates(merged) == aggregates(alone)
    assert repr(scan.gain_profile) == repr(tuple(r.max_gain for r in loop))


@pytest.mark.parametrize("cfg_name, radii, horizon", [
    ("scan_polynomial.cfg", (0.5, 1.0, 2.0, 4.0, 8.0), 20.0),
    ("scan_fhn.cfg", (0.5, 1.0, 2.0, 4.0), 40.0),
])
def test_dopri_scan_verdicts_are_the_per_radius_ones(cfg_name, radii, horizon):
    # the shared step moves the numbers within the solver tolerance, not the verdicts
    field = build_field(parse_config(SCAN_CONFIGS / cfg_name))
    cfg = IntegratorConfig(max_time=horizon, method=ADAPTIVE_EMBEDDED, atol=1e-9, rtol=1e-6)
    scan = wies_scan(field, radii, 8, horizon, cfg, seed=0)
    loop = radius_loop(field, radii, 8, cfg, 0)
    for merged, alone in zip(scan.per_radius, loop, strict=True):
        assert merged.verdicts == alone.verdicts
        assert (merged.passed, merged.inconclusive) == (alone.passed, alone.inconclusive)


@pytest.mark.filterwarnings("error")  # a blown-up pair leaks no overflow warning
@pytest.mark.parametrize("cfg", [
    IntegratorConfig(max_time=5.0, step=0.01),
    IntegratorConfig(max_time=5.0, method=ADAPTIVE_EMBEDDED, atol=1e-9, rtol=1e-6),
])
def test_scan_blow_up_marks_only_its_radius(cfg):
    # CUBIC blows up from |z| > 1 only: every pair of radius 0.5 contracts
    scan = wies_scan(CUBIC, [0.5, 2.0], 4, 5.0, cfg, seed=0)
    inner, outer = scan.per_radius
    assert inner.passed and not inner.inconclusive and inner.blown_up == ()
    outside = tuple(r.pair_id for r in outer.results
                    if max(abs(r.z1[0]), abs(r.z2[0])) > 1.0)
    assert 0 < len(outside) < 4
    assert outer.inconclusive and not outer.passed
    assert outer.blown_up == outside
    assert all(outer.results[i].fit is None for i in outside)
    assert scan.gain_profile[0] == inner.max_gain


# -- Jacobians ----------------------------------------------------------------


def assert_jacobian_rows(jac, z, scale=None):
    """jac(z) for the batch z is (N, d, d) and row k is jac(z[k]): bitwise,
    or within REL_BOUND of ``scale`` (the Jacobian's sum of absolute terms)."""
    batch = jac(z)
    assert batch.shape == (len(z), z.shape[1], z.shape[1])
    for k in range(len(z)):
        single = jac(z[k])
        assert single.shape == batch.shape[1:]
        if scale is None:
            assert np.array_equal(batch[k], single)
        else:
            assert np.all(np.abs(batch[k] - single) <= REL_BOUND * scale[k])


@given(figure=st.sampled_from([1, 2, 3]), n=st.integers(min_value=1, max_value=8),
       seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=15, deadline=None)
def test_fhn_and_fd_jacobian_rows_are_bitwise(figure, n, seed):
    field = assemble(fhn_field(figure_params(figure)))
    z = np.random.default_rng(seed).uniform(-3.0, 3.0, (n, 2))
    assert_jacobian_rows(lambda v: field.jacobian(0.0, v), z)
    fd = fd_jacobian(field.rhs, 2)
    assert_jacobian_rows(lambda v: fd(0.0, v), z)


@given(d=st.integers(min_value=1, max_value=4), n=st.integers(min_value=1, max_value=8),
       seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=15, deadline=None)
def test_linear_jacobian_rows(d, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d))
    z = rng.uniform(-3.0, 3.0, (n, d))
    field = linear_field(a)
    assert_jacobian_rows(lambda v: field.jacobian(0.0, v), z)
    assert np.array_equal(field.jacobian(0.0, z[0]), a)


@given(pmap=polynomial_maps(), n=st.integers(min_value=1, max_value=8),
       seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None)
def test_polynomial_jacobian_rows(pmap, n, seed):
    z = np.random.default_rng(seed).uniform(-3.0, 3.0, (n, pmap.in_dim))
    field = polynomial_field(pmap.components)
    scale = magnitudes(pmap).jacobian(np.abs(z))
    assert_jacobian_rows(lambda v: field.jacobian(0.0, v), z, scale)


@given(pmap=polynomial_maps(), n=st.integers(min_value=1, max_value=8),
       seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None)
def test_polynomial_map_matches_its_term_list(pmap, n, seed):
    # the exponent matrix sums the terms in another order than a loop over
    # the term list: c x^e for the value, c e_j x^(e - e_j) for column j
    z = np.random.default_rng(seed).uniform(-3.0, 3.0, (n, pmap.in_dim))
    value, jac = pmap(z), pmap.jacobian(z)
    value_scale = magnitudes(pmap)(np.abs(z))
    jac_scale = magnitudes(pmap).jacobian(np.abs(z))
    for k in range(n):
        want = np.zeros(pmap.out_dim)
        want_jac = np.zeros((pmap.out_dim, pmap.in_dim))
        for i, comp in enumerate(pmap.components):
            for coef, exps in comp:
                want[i] += coef * np.prod(z[k] ** np.array(exps))
                for j, e in enumerate(exps):
                    if e:
                        lowered = np.array(exps) - np.eye(pmap.in_dim, dtype=int)[j]
                        want_jac[i, j] += coef * e * np.prod(z[k] ** lowered)
        assert np.all(np.abs(value[k] - want) <= REL_BOUND * value_scale[k])
        assert np.all(np.abs(jac[k] - want_jac) <= REL_BOUND * jac_scale[k])


# -- oracles: the sampled checks as loops over rows, one call per row ----------


def oracle_decay(candidate, field, alpha, samples, tol):
    """Per-state violations lambda_max(Q) + alpha - tol (1 + |v^T M v|), with
    Q = M J + J^T M + sum_k dM/dz_k f_k and v its top unit eigenvector, one
    state at a time, and the first worst one, the first non-finite one
    counting as the worst."""
    viol = []
    for z in samples.zs:
        m, jac = candidate.metric(z), field.jacobian(0.0, z)
        q = m @ jac + jac.T @ m + candidate.metric_grad(z) @ field.rhs(0.0, z)
        w, vecs = np.linalg.eigh(q)
        v = vecs[:, -1]
        viol.append(w[-1] + alpha - tol * (1.0 + abs(v @ (m @ v))))
    worst, worst_i = -math.inf, 0
    for i, violation in enumerate(viol):
        if not math.isfinite(violation):
            worst, worst_i = violation, i
            break
        if violation > worst:
            worst, worst_i = violation, i
    return np.array(viol, dtype=float), float(worst), worst_i


def first_min(values):
    best, best_i = math.inf, 0
    for i, v in enumerate(values):
        if v < best:
            best, best_i = v, i
    return best_i


def oracle_sandwich(candidate, samples):
    """Per-state margins lambda_min(M) - c_lower and c_upper - lambda_max(M)."""
    lower, upper = [], []
    for z in samples.zs:
        w = np.linalg.eigh(candidate.metric(z))[0]
        lower.append(w[0] - candidate.c_lower)
        upper.append(candidate.c_upper - w[-1])
    return np.array(lower, dtype=float), np.array(upper, dtype=float)


def oracle_refine_max(fn, x, s, radius):
    """The greedy pattern search one point at a time, from x at scale s:
    (the maximum found, the number of moves it made)."""
    best, moves = float(fn(x)), 0
    for _ in range(60):
        improved = False
        for i in range(len(x)):
            for delta in (s, -s):
                cand = x.copy()
                cand[i] += delta
                nrm = np.linalg.norm(cand)
                if nrm > radius:
                    cand *= radius / nrm
                v = float(fn(cand))
                if v > best:
                    best, x, improved, moves = v, cand, True, moves + 1
        if not improved:
            s *= 0.5
            if s < 1e-12 * (1.0 + radius):
                break
    return best, moves


def oracle_extract_constants(ic, candidate1, candidate2, radius, grid_density, safety=1.05):
    """Grid scan with a strict > and the greedy pattern search from its argmax."""
    xs = ball_grid(radius, ic.n, grid_density)
    ys = ball_grid(radius, ic.m, grid_density)
    cell = 2.0 * radius / (grid_density - 1)

    def grid_max(fn, pts):
        best, best_p = -math.inf, pts[0]
        for p in pts:
            v = float(fn(p))
            if v > best:
                best, best_p = v, p
        return oracle_refine_max(fn, best_p.copy(), cell, radius)[0] * safety

    return dict(
        a1=grid_max(lambda y: np.linalg.norm(ic.g1.value(y)), ys),
        a2=grid_max(lambda x: np.linalg.norm(ic.g2.value(x)), xs),
        b1=grid_max(lambda y: np.linalg.norm(ic.g1.jacobian(y), 2), ys),
        b2=grid_max(lambda x: np.linalg.norm(ic.g2.jacobian(x), 2), xs),
        eta1=grid_max(candidate1.gamma, xs),
        eta2=grid_max(candidate2.gamma, ys),
        theta1=grid_max(candidate1.zeta, xs),
        theta2=grid_max(candidate2.zeta, ys),
    )


def oracle_invariant_level(w, field, level_range, box, n_levels, grid_density,
                           shell_width=0.05):
    """(level, radius, margin, shell_samples) of the first dissipating shell."""
    axes = [np.linspace(lo, hi, grid_density) for lo, hi in box]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    w_vals = np.array([w.value(p) for p in pts])
    norms = np.linalg.norm(pts, axis=1)
    cell = float(np.linalg.norm((box[:, 1] - box[:, 0]) / (grid_density - 1))) / 2.0
    for level in np.linspace(*level_range, n_levels):
        shell = (w_vals >= level) & (w_vals <= level * (1.0 + shell_width))
        if not shell.any():
            continue
        margin = float(np.max([w.gradient(p) @ field.rhs(0.0, p) for p in pts[shell]]))
        if margin < 0.0:
            inside = w_vals <= level
            radius = float(np.max(norms[inside])) + cell if inside.any() else cell
            return float(level), radius, margin, int(np.count_nonzero(shell))
    return None


# -- the FitzHugh-Nagumo certify path: batched reports bitwise equal the loops --


@functools.lru_cache(maxsize=None)
def fhn_table(case):
    params = (figure_params(case) if case in (1, 2, 3)
              else FhnParams(b=1.0, rho1=1.0, rho2=1.0, epsilon=0.9, r=2.1))
    return build_fc(params)


def assert_decay_equals_oracle(candidate, field, alpha, samples, tol):
    report = check_decay(candidate, field, alpha, samples, tol=tol)
    _, worst, worst_i = oracle_decay(candidate, field, alpha, samples, tol)
    assert report.worst_index == worst_i
    assert report.worst == worst or (math.isnan(report.worst) and math.isnan(worst))
    assert report.passed == (worst <= 0.0 and math.isfinite(worst))


@given(case=st.sampled_from([1, 2, 3, 4]),
       gains=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       radius=st.floats(0.5, 12.0),
       n_states=st.integers(min_value=1, max_value=40),
       alpha=st.floats(0.01, 2.0),
       tol=st.sampled_from([0.0, 1e-9, 1e-3]))
@settings(max_examples=30, deadline=None)
def test_fhn_checks_are_bitwise_the_row_loops(case, gains, radius, n_states, alpha, tol):
    table = fhn_table(case)
    v1, v2 = fc_candidate(table)
    ic = fhn_field(table.params).with_gains(*gains)
    composed, field = compose(v1, v2), assemble(ic)
    samples = DisplacementSamples.product_ball(radius, 2, n_states)
    if len(samples) == 0:
        return
    assert_decay_equals_oracle(composed, field, alpha, samples, tol)
    block_samples = DisplacementSamples.product_ball(radius, 1, n_states)
    for cand, block in ((v1, x_subsystem(table.params)), (v2, y_subsystem(table.params))):
        assert_decay_equals_oracle(cand, block, alpha, block_samples, tol)
        lower, upper = oracle_sandwich(cand, block_samples)
        report = check_sandwich(cand, block_samples, tol=tol)
        assert (report.worst_lower_index, report.worst_upper_index) == (
            first_min(lower), first_min(upper))
        assert report.lower_margin == lower.min() and report.upper_margin == upper.min()


@given(case=st.sampled_from([1, 2, 3, 4]),
       gains=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       radius=st.floats(0.5, 12.0),
       density=st.integers(min_value=3, max_value=41))
@settings(max_examples=10, deadline=None)
def test_fhn_constants_and_invariant_level_are_bitwise_the_loops(case, gains, radius,
                                                                 density):
    table = fhn_table(case)
    v1, v2 = fc_candidate(table)
    ic = fhn_field(table.params).with_gains(*gains)
    got = extract_constants(ic, v1, v2, radius, grid_density=density)
    want = oracle_extract_constants(ic, v1, v2, radius, density)
    assert {k: getattr(got, k) for k in want} == want

    p = table.params
    at_gains = FhnParams(b=p.b, rho1=gains[0], rho2=gains[1], epsilon=p.epsilon,
                         r=p.r, alpha=p.alpha)
    w, field = fhn_outer_lyapunov(at_gains), assemble(fhn_field(at_gains))
    box = np.array([[-8.0, 8.0]] * 2)
    want = oracle_invariant_level(w, field, (1.0, 40.0), box, 40, density)
    try:
        est = find_invariant_level(w, field, (1.0, 40.0), box, n_levels=40,
                                   grid_density=density)
    except RuntimeError:
        assert want is None
    else:
        assert (est.level, est.radius, est.margin, est.shell_samples) == want


# -- quadratic, linear and polynomial: within REL_BOUND of the terms --


def state_metric(z):
    """M(z) = diag(1 + z_i^2 / 10), with dM_ii/dz_i = z_i / 5."""
    d = np.shape(z)[-1]
    return (1.0 + 0.1 * z * z)[..., None] * np.eye(d)


def state_metric_grad(z):
    d = np.shape(z)[-1]
    eye = np.eye(d)
    return (0.2 * z)[..., None, None] * eye[:, :, None] * eye[:, None, :]


def candidate(d):
    """A quadratic candidate with an analytic state-dependent metric gradient."""
    return FinslerCandidate(d, state_metric, state_metric_grad, 1.0, 10.0)


@st.composite
def fields_with_magnitudes(draw):
    """A linear or polynomial field, with maps z -> sum of absolute terms of
    f(z) and of J(z)."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    if draw(st.booleans()):
        d = draw(st.integers(min_value=1, max_value=3))
        a = np.random.default_rng(seed).normal(size=(d, d))
        return linear_field(a), (lambda z: np.abs(z) @ np.abs(a).T,
                                 lambda z: np.broadcast_to(np.abs(a), z.shape + (d,)))
    pmap = draw(polynomial_maps())
    mag = magnitudes(pmap)
    return polynomial_field(pmap.components), (lambda z: mag(np.abs(z)),
                                               lambda z: mag.jacobian(np.abs(z)))


def rows_abs_dot(a, b):
    return np.sum(np.abs(a) * np.abs(b), axis=-1)


@given(field_mag=fields_with_magnitudes(),
       n_states=st.integers(min_value=1, max_value=24),
       alpha=st.floats(0.01, 2.0))
@settings(max_examples=30, deadline=None)
def test_candidate_checks_match_the_row_loops(field_mag, n_states, alpha):
    field, (f_mag, j_mag) = field_mag
    d = field.dim
    samples = DisplacementSamples.product_box([[-2.0, 2.0]] * d, n_states)
    zs = samples.zs
    cand = candidate(d)
    m, dm = np.abs(cand.metric(zs)), np.abs(cand.metric_grad(zs))
    report = check_decay(cand, field, alpha, samples)
    viol, worst, _ = oracle_decay(cand, field, alpha, samples, 1e-9)
    # the sum of absolute terms of Q's entries bounds how far a rounding of
    # them moves an eigenvalue
    scale = (2.0 * np.sum(m @ j_mag(zs), axis=(-2, -1))
             + np.sum(dm @ f_mag(zs)[:, None, :, None], axis=(-3, -2, -1))
             + alpha + 1e-9 * (1.0 + np.sum(m, axis=(-2, -1))))
    k = report.worst_index
    assert abs(report.worst - viol[k]) <= REL_BOUND * scale[k]
    assert viol[k] >= worst - REL_BOUND * (scale[k] + scale[np.argmax(viol)])

    lower, upper = oracle_sandwich(cand, samples)
    report = check_sandwich(cand, samples)
    scale = np.sum(m, axis=(-2, -1)) + 10.0
    for margin, index, oracle in ((report.lower_margin, report.worst_lower_index, lower),
                                  (report.upper_margin, report.worst_upper_index, upper)):
        assert abs(margin - oracle[index]) <= REL_BOUND * scale[index]
        assert oracle[index] <= oracle.min() + REL_BOUND * (scale[index] + scale.max())


@given(field_mag=fields_with_magnitudes(), density=st.integers(min_value=3, max_value=21))
@settings(max_examples=20, deadline=None)
def test_invariant_level_matches_the_row_loop(field_mag, density):
    field, (f_mag, _) = field_mag
    d = field.dim
    w = OuterLyapunov(np.ones(d))
    box = np.array([[-2.0, 2.0]] * d)
    want = oracle_invariant_level(w, field, (0.1, 2.0), box, 12, density)
    try:
        est = find_invariant_level(w, field, (0.1, 2.0), box, n_levels=12,
                                   grid_density=density)
    except RuntimeError:
        assert want is None
        return
    assert want is not None
    # the accepted level is the oracle's, unless a shell margin this close to
    # zero rounded to the other sign
    pts = np.stack([m.ravel() for m in np.meshgrid(
        *[np.linspace(-2.0, 2.0, density)] * d, indexing="ij")], axis=1)
    scale = float(np.max(rows_abs_dot(pts, f_mag(pts))))
    if (est.level, est.shell_samples) != (want[0], want[3]):
        assert min(abs(est.margin), abs(want[2])) <= REL_BOUND * scale
        return
    assert est.radius == want[1]
    assert abs(est.margin - want[2]) <= REL_BOUND * scale


def carrying(d, gamma, zeta):
    """A test candidate in d dimensions whose derived bounds are |gamma| and
    |zeta|, bit for bit: gamma sits at dM_00/dz_0, the rest of dM is 0, and
    M = zeta/2 times the identity.  M need not integrate to dM here: the
    sup-constants read only the two bounds."""
    def metric(z):
        return (0.5 * zeta(z))[..., None, None] * np.eye(d)

    def metric_grad(z):
        dm = np.zeros(np.shape(z)[:-1] + (d, d, d))
        dm[..., 0, 0, 0] = gamma(z)
        return dm

    return FinslerCandidate(d, metric, metric_grad, 1.0, 1.0)


def test_grid_maximum_ties_start_the_search_at_the_first_point():
    # on the grid -2, -1, 0, 1, 2 gamma ties at -1 and 1 (value 1); only the
    # right peak rises off the grid (to 2 at x = 1.25), and the pattern search
    # from the first of the tied points stays on the left peak
    def gamma(x):
        x = x[..., 0]
        return np.maximum(np.maximum(1.0 - (x + 1.0) ** 2, 2.0 - 16.0 * (x - 1.25) ** 2), 0.0)

    ic = fhn_field(figure_params(2)).with_gains(0.5, 0.5)
    cand = carrying(1, gamma, lambda z: np.ones(np.shape(z)[:-1]))
    got = extract_constants(ic, cand, cand, 2.0, grid_density=5)
    assert got.eta1 == 1.0 * 1.05
    want = oracle_extract_constants(ic, cand, cand, 2.0, 5)
    assert {k: getattr(got, k) for k in want} == want


# -- the batched pattern search on linear and polynomial interconnections --


def block_terms(draw, n_out, n_in):
    """A polynomial block of n_out components in n_in variables."""
    coef = st.floats(min_value=-2.0, max_value=2.0)
    term = st.tuples(coef, st.tuples(*[st.integers(min_value=0, max_value=3)] * n_in))
    return tuple(tuple(draw(st.lists(term, min_size=1, max_size=3))) for _ in range(n_out))


def peak_candidate(d, rng, radius):
    """A candidate whose gamma has an off-grid interior peak and a matrix
    product, so the search moves and batched calls can round otherwise than
    single ones; with the sums of absolute terms of gamma and zeta over the
    ball."""
    centre, w = rng.uniform(-0.5, 0.5, d), rng.normal(size=d)
    cand = carrying(d, lambda z: np.exp(-np.sum((z - centre) ** 2, axis=-1)) + 0.1 * (z @ w),
                    lambda z: 1.0 + np.sum(z * z, axis=-1))
    return cand, (1.0 + 0.1 * np.abs(w).sum() * radius, 1.0 + d * radius**2)


@st.composite
def generic_interconnections(draw):
    """A linear or polynomial interconnection of blocks of 1-3 dimensions,
    with a candidate for each block, a radius, a grid density, and per constant
    the sum of absolute terms of its function over the ball (a bound on it)."""
    n, m = (draw(st.integers(min_value=1, max_value=3)) for _ in range(2))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    radius = draw(st.floats(0.5, 3.0))
    if draw(st.booleans()):
        m1, m2 = rng.normal(size=(n, m)), rng.normal(size=(m, n))
        ic = Interconnection(f1=linear_field(-np.eye(n)), f2=linear_field(-np.eye(m)),
                             g1=linear_coupling(m1), g2=linear_coupling(m2),
                             rho1=0.5, rho2=0.5)
        b = np.abs(m1).sum(), np.abs(m2).sum()
        a = b[0] * radius, b[1] * radius
    else:
        g1, g2 = block_terms(draw, n, m), block_terms(draw, m, n)
        ic = polynomial_interconnection(block_terms(draw, n, n), block_terms(draw, m, m),
                                        g1, g2, rho1=0.5, rho2=0.5)
        mags = magnitudes(PolynomialMap(m, g1)), magnitudes(PolynomialMap(n, g2))
        corners = np.full(m, radius), np.full(n, radius)
        a = tuple(np.sum(f(c)) for f, c in zip(mags, corners))
        b = tuple(np.sum(f.jacobian(c)) for f, c in zip(mags, corners))
    cand1, (eta1, theta1) = peak_candidate(n, rng, radius)
    cand2, (eta2, theta2) = peak_candidate(m, rng, radius)
    scales = dict(a1=a[0], a2=a[1], b1=b[0], b2=b[1], eta1=eta1, eta2=eta2,
                  theta1=theta1, theta2=theta2)
    return (ic, cand1, cand2, radius, draw(st.integers(min_value=3, max_value=9)),
            {k: 1.05 * v for k, v in scales.items()})


def row_by_row(fn):
    """fn evaluated on each point of a batch on its own, as the oracle does."""
    return lambda z: np.array([fn(p) for p in z]) if np.ndim(z) > 1 else fn(z)


def row_by_row_case(ic, cand1, cand2):
    def coupling(g):
        return CouplingMap(g.in_dim, g.out_dim, row_by_row(g.value), row_by_row(g.jacobian))

    def candidate(c):
        return dataclasses.replace(c, metric=row_by_row(c.metric),
                                   metric_grad=row_by_row(c.metric_grad))

    return (dataclasses.replace(ic, g1=coupling(ic.g1), g2=coupling(ic.g2)),
            candidate(cand1), candidate(cand2))


@given(case=generic_interconnections())
@settings(max_examples=30, deadline=None)
def test_generic_constants_are_bitwise_the_loops_row_by_row(case):
    ic, cand1, cand2, radius, density, _ = case
    ic, cand1, cand2 = row_by_row_case(ic, cand1, cand2)
    got = extract_constants(ic, cand1, cand2, radius, grid_density=density)
    want = oracle_extract_constants(ic, cand1, cand2, radius, density)
    assert {k: getattr(got, k) for k in want} == want


# bound on |batched - one point at a time| relative to the sum of absolute
# terms of the constant's function over the ball: the batched matrix
# products round otherwise than the single ones.  Over 12 000 drawn
# constants the largest difference was 4.2e-16 of that sum, so 1e-14 leaves
# a margin of about 24 for more terms or an SVD of a perturbed Jacobian.
CONSTANT_REL_BOUND = 1e-14


@given(case=generic_interconnections())
@settings(max_examples=30, deadline=None)
def test_generic_constants_match_the_loops_within_rounding(case):
    ic, cand1, cand2, radius, density, scales = case
    got = extract_constants(ic, cand1, cand2, radius, grid_density=density)
    want = oracle_extract_constants(ic, cand1, cand2, radius, density)
    for name, value in want.items():
        assert abs(getattr(got, name) - value) <= CONSTANT_REL_BOUND * scales[name], name


def test_each_search_makes_one_call_and_one_per_move():
    # gamma peaks off the grid inside the ball, so its search moves several
    # times; every try up to the next move goes into one call
    ic = Interconnection(f1=linear_field(-np.eye(2)), f2=linear_field([[-1.0]]),
                         g1=linear_coupling(np.ones((2, 1))),
                         g2=linear_coupling(np.ones((1, 2))), rho1=0.5, rho2=0.5)
    cand1, _ = peak_candidate(2, np.random.default_rng(3), 2.0)
    calls = []

    def metric_grad(z):  # called by gamma only, once per call
        calls.append(len(z))
        return cand1.metric_grad(z)

    counted = dataclasses.replace(cand1, metric_grad=metric_grad)
    radius, density = 2.0, 7
    got = extract_constants(ic, counted, peak_candidate(1, np.random.default_rng(4), 2.0)[0],
                            radius, grid_density=density)
    grid = ball_grid(radius, 2, density)
    assert calls[0] == len(grid)
    vals = cand1.gamma(grid)
    best, moves = oracle_refine_max(cand1.gamma, grid[np.argmax(vals)],
                                    2.0 * radius / (density - 1), radius)
    assert moves >= 3
    assert got.eta1 == pytest.approx(best * 1.05, rel=CONSTANT_REL_BOUND)
    assert len(calls) - 1 <= 1 + moves


# -- edge states of the pattern search ------------------------------------

# name -> (fn on a point or a batch of points, start, scale, radius, the
# moves the search makes); each case drives the search into one edge state
PATTERN_EDGES = {
    # every sweep moves on its first try, so the 60-sweep cap ends the search
    "ramp_hits_sweep_cap": (lambda z: z[..., 0], [0.0], 1.0, 1e3, 60),
    # every sweep moves on its last try and the cap ends the search there,
    # with no tries left to evaluate
    "ramp_moves_on_last_try": (lambda z: -z[..., 0], [0.0], 1.0, 1e3, 60),
    # a start on the ball boundary: the tries off the ball are projected,
    # and the search climbs along the boundary to its maximum sqrt(1.25)
    "boundary_start_projected": (lambda z: z[..., 0] + 0.5 * z[..., 1], [1.0, 0.0], 0.1,
                                 1.0, 14),
    # each sweep moves on its last try (y - s) until the ball stops it; the
    # scale then halves down to the floor
    "last_try_then_floor": (lambda z: -z[..., 1], [0.0, 0.0], 0.25, 1.0, 4),
    # a -0.0 coordinate that the tries of the other one leave as it is, and
    # a function that tells it from +0.0
    "signed_zero_kept": (lambda z: z[..., 0] + np.copysign(1.0, z[..., 1]), [0.0, -0.0], 0.25,
                         1.0, 61),
    # nothing improves, so the scale halves from 1 to the floor in one call
    "flat_halves_to_floor": (lambda z: np.zeros(np.shape(z)[:-1]), [0.3, -0.2], 1.0,
                             1.0, 0),
}


def counted_search(fn, x, s, radius):
    """_refine_max from x at scale s: the maximum it returns, the moves it
    made (the calls with a value above the best so far, as it takes the
    first of them), and the number of tries in each of its calls."""
    calls = []

    def counted(z):
        vals = fn(z)
        calls.append(vals)
        return vals

    best = start = float(fn(x))
    got = _refine_max(counted, x, start, s, radius)
    moves = 0
    for vals in calls:
        up = np.flatnonzero(vals > best)
        if len(up):
            best, moves = float(vals[up[0]]), moves + 1
    assert got == best
    return got, moves, [len(vals) for vals in calls]


@pytest.mark.parametrize("case", PATTERN_EDGES)
def test_pattern_search_edge_states_match_the_loop(case):
    fn, start, s, radius, moves = PATTERN_EDGES[case]
    x = np.array(start)
    got, got_moves, sizes = counted_search(fn, x.copy(), s, radius)
    evaluated = []
    want, want_moves = oracle_refine_max(lambda p: evaluated.append(p) or fn(p), x.copy(), s,
                                         radius)
    assert (got, got_moves) == (want, want_moves)
    assert got_moves == moves
    # one call per move, and one more unless the last move ended the search
    assert len(sizes) == got_moves + (case != "ramp_moves_on_last_try")
    if not moves:  # the one call holds every try down to the floor
        assert sizes == [len(evaluated) - 1]
