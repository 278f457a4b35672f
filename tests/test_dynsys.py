import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ieskit.dynsys import (
    ADAPTIVE_EMBEDDED,
    FIXED_RK4,
    MAX_STEPS,
    MAX_STORED_VALUES,
    CouplingMap,
    DimensionMismatchError,
    IntegratorConfig,
    Interconnection,
    TimeVaryingField,
    assemble,
    fd_jacobian,
    flow_difference,
    flow_differences,
    integrate,
    integrate_with_displacement,
    linear_coupling,
    linear_field,
)
from ieskit.dynsys import _SCAN_BLOCK, _row_norms
from ieskit.fhn import FhnParams, fhn_field, figure_params
from ieskit.polynomials import polynomial_field, polynomial_interconnection


def central_difference_jacobian(rhs, t, z, h):
    """Independent second-order finite-difference oracle."""
    out_dim = len(rhs(t, z))
    out = np.empty((out_dim, len(z)))
    for i in range(len(z)):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        out[:, i] = (rhs(t, zp) - rhs(t, zm)) / (2 * h)
    return out


def expm_series(a, t, terms=60):
    """Truncated matrix-exponential series oracle."""
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms):
        term = term @ (a * t) / k
        out = out + term
    return out


def cubic_two_block():
    """Random-looking fixed cubic polynomial blocks, n = 2, m = 3."""

    def f1(t, x):
        x0, x1 = x[..., 0], x[..., 1]
        return np.stack([x0 - 0.3 * x1**3, -x1 + 0.2 * x0**2 * x1], axis=-1)

    def f2(t, y):
        y0, y1, y2 = y[..., 0], y[..., 1], y[..., 2]
        return np.stack(
            [
                -y0 + 0.1 * y1 * y2,
                0.4 * y0**3 - y1,
                -y2 + 0.25 * y0 * y1,
            ],
            axis=-1,
        )

    def g1(y):
        return np.stack([y[..., 0] * y[..., 1], y[..., 2] ** 3 - y[..., 0]], axis=-1)

    def g2(x):
        return np.stack([x[..., 0] ** 2, x[..., 1], x[..., 0] - x[..., 1] ** 3], axis=-1)

    field1 = TimeVaryingField(2, f1, fd_jacobian(f1, 2))
    field2 = TimeVaryingField(3, f2, fd_jacobian(f2, 3))
    dg1 = fd_jacobian(lambda t, v: g1(v), 3)
    dg2 = fd_jacobian(lambda t, v: g2(v), 2)
    c1 = CouplingMap(3, 2, g1, lambda y: dg1(0.0, y))
    c2 = CouplingMap(2, 3, g2, lambda x: dg2(0.0, x))
    return Interconnection(field1, field2, c1, c2, rho1=0.7, rho2=1.3)


class TestAssemble:
    def test_decoupling(self):
        ic = cubic_two_block().with_gains(0.0, 0.0)
        field = assemble(ic)
        z = np.array([0.4, -0.2, 1.0, 0.3, -0.5])
        expected = np.concatenate([ic.f1.rhs(0.0, z[:2]), ic.f2.rhs(0.0, z[2:])])
        np.testing.assert_allclose(field.rhs(0.0, z), expected, rtol=0, atol=0)
        jac = field.jacobian(0.0, z)
        assert np.all(jac[:2, 2:] == 0.0)
        assert np.all(jac[2:, :2] == 0.0)

    def test_fhn_unit_gains_matches_model(self):
        p = figure_params(1)
        field = assemble(fhn_field(p))
        x, y = 0.7, -0.4
        val = field.rhs(0.0, np.array([x, y]))
        assert p.c == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(
            val,
            [x - x**3 / 3 + 1.0 - y, (-0.1 * y + x) / 1.0],
            rtol=1e-13,
        )
        assert field.rhs(0.0, np.array([0.0, 0.0]))[0] == pytest.approx(1.0)

    def test_jacobian_matches_finite_difference_second_order(self):
        field = assemble(cubic_two_block())
        z = np.array([0.3, -0.6, 0.8, -0.1, 0.5])
        jac = field.jacobian(0.0, z)
        err_h = np.max(np.abs(jac - central_difference_jacobian(field.rhs, 0.0, z, 1e-3)))
        err_h2 = np.max(np.abs(jac - central_difference_jacobian(field.rhs, 0.0, z, 5e-4)))
        # block Jacobians come from 1e-6-step differences, so their own bias is
        # far below the 1e-3-step oracle error being ratio-tested here
        assert err_h / err_h2 == pytest.approx(4.0, abs=1.0)

    def test_dimension_mismatch_names_block(self):
        ic = cubic_two_block()
        bad_g1 = CouplingMap(2, 2, lambda y: y, linear_coupling(np.eye(2)).jacobian)
        with pytest.raises(DimensionMismatchError, match="g1"):
            assemble(Interconnection(ic.f1, ic.f2, bad_g1, ic.g2, 1.0, 1.0))
        bad_g2 = CouplingMap(2, 2, lambda x: x, linear_coupling(np.eye(2)).jacobian)
        with pytest.raises(DimensionMismatchError, match="g2"):
            assemble(Interconnection(ic.f1, ic.f2, ic.g1, bad_g2, 1.0, 1.0))


class TestIntegrate:
    def test_linear_decay_analytic(self):
        field = linear_field([[-0.1]])
        tr = integrate(field, 0.0, [1.0], IntegratorConfig(max_time=10.0, step=1e-3))
        assert abs(tr.states[-1, 0] - np.exp(-1.0)) < 1e-8 * np.exp(-1.0)

    def test_zero_field_constant(self):
        field = TimeVaryingField(2, lambda t, z: np.zeros(np.shape(z)),
                                 lambda t, z: np.zeros(np.shape(z) + (2,)))
        z0 = np.array([1.5, -2.5])
        tr = integrate(field, 0.0, z0, IntegratorConfig(max_time=3.0, step=0.1))
        assert np.all(tr.states == z0)

    def test_rk4_order(self):
        field = linear_field([[-0.1]])
        exact = np.exp(-1.0)
        errs = []
        for step in (0.5, 0.25):
            tr = integrate(field, 0.0, [1.0], IntegratorConfig(max_time=10.0, step=step))
            errs.append(abs(tr.states[-1, 0] - exact))
        assert 14.0 <= errs[0] / errs[1] <= 18.0

    def test_blowup_flagged_with_partial_trajectory(self):
        field = TimeVaryingField(1, lambda t, z: z**3, lambda t, z: 3 * z[..., None] ** 2)
        tr = integrate(field, 0.0, [3.0], IntegratorConfig(max_time=10.0, step=0.01))
        assert tr.blew_up
        assert tr.t_end < 10.0
        assert np.all(np.isfinite(tr.states))

    def test_adaptive_matches_fixed(self):
        p = figure_params(2)
        field = assemble(fhn_field(p))
        z0 = np.array([2.0, 0.0])
        fixed = integrate(field, 0.0, z0,
                          IntegratorConfig(max_time=20.0, step=1e-3))
        adaptive = integrate(field, 0.0, z0,
                             IntegratorConfig(max_time=20.0, method=ADAPTIVE_EMBEDDED,
                                              atol=1e-10, rtol=1e-10))
        np.testing.assert_allclose(adaptive.states[-1], fixed.states[-1], atol=1e-6)

    def test_determinism(self):
        field = assemble(fhn_field(figure_params(1)))
        cfg = IntegratorConfig(max_time=10.0, step=0.01)
        tr1 = integrate(field, 0.0, np.array([2.0, 0.0]), cfg)
        tr2 = integrate(field, 0.0, np.array([2.0, 0.0]), cfg)
        assert np.array_equal(tr1.states, tr2.states)
        assert np.array_equal(tr1.times, tr2.times)

    def test_dense_output_reproduces_nodes_exactly(self):
        field = assemble(fhn_field(figure_params(2)))
        tr = integrate(field, 0.0, np.array([2.0, 0.0]),
                       IntegratorConfig(max_time=5.0, step=0.05))
        probe = tr.times[[0, 7, 33, -1]]
        np.testing.assert_array_equal(tr.state_at(probe), tr.states[[0, 7, 33, -1]])

    def test_dense_output_between_nodes(self):
        field = linear_field([[-0.5]])
        tr = integrate(field, 0.0, [1.0], IntegratorConfig(max_time=4.0, step=0.05))
        ts = np.linspace(0.0, 4.0, 101)
        np.testing.assert_allclose(tr.state_at(ts)[:, 0], np.exp(-0.5 * ts), atol=1e-7)

    def test_single_state_row_zero_is_the_trajectory(self):
        field = assemble(fhn_field(figure_params(2)))
        tr = integrate(field, 0.0, [2.0, 0.0], IntegratorConfig(max_time=2.0, step=0.1))
        row = tr.row(0)
        assert np.array_equal(row.times, tr.times)
        assert np.array_equal(row.states, tr.states)
        assert np.array_equal(row.derivatives, tr.derivatives)
        assert row.blew_up is False

    @pytest.mark.parametrize("k", [1, -1, 5])
    def test_single_state_has_no_other_row(self, k):
        field = linear_field([[-1.0]])
        tr = integrate(field, 0.0, [1.0], IntegratorConfig(max_time=1.0, step=0.1))
        with pytest.raises(IndexError, match="row 0"):
            tr.row(k)

    def test_wrong_dimension_rejected(self):
        field = linear_field([[-1.0]])
        with pytest.raises(ValueError, match="shape"):
            integrate(field, 0.0, [1.0, 2.0], IntegratorConfig(max_time=1.0, step=0.01))


class TestDisplacement:
    def test_linear_displacement_matches_matrix_exponential(self):
        a = np.array([[-0.4, 1.1], [-0.8, -0.2]])
        field = linear_field(a)
        d0 = np.array([0.3, -1.2])
        tr = integrate_with_displacement(
            field, 0.0, np.array([1.0, 1.0]), d0,
            IntegratorConfig(max_time=3.0, step=1e-3),
        )
        np.testing.assert_array_equal(tr.states[0], [1.0, 1.0])
        np.testing.assert_array_equal(tr.displacements[0], d0)
        expected = expm_series(a, 3.0) @ d0
        np.testing.assert_allclose(tr.displacements[-1], expected, atol=1e-9)

    def test_zero_displacement_stays_zero(self):
        field = assemble(fhn_field(figure_params(2)))
        tr = integrate_with_displacement(
            field, 0.0, np.array([2.0, 0.0]), np.zeros(2),
            IntegratorConfig(max_time=5.0, step=0.01),
        )
        assert np.all(tr.displacements == 0.0)

    def test_fhn_x_subsystem_displacement_envelope(self, default_table):
        # along the isolated excitable block the weighted square of the
        # displacement decays at the exact rate, so |dx(t)| is dominated by
        # exp(-alpha t / 2) * sqrt(V(x0, 1) / floor)
        params = default_table.params
        from ieskit.fhn import x_subsystem

        field = x_subsystem(params)
        x0 = np.array([0.2])
        tr = integrate_with_displacement(
            field, 0.0, x0, np.array([1.0]),
            IntegratorConfig(max_time=8.0, step=1e-3),
        )
        v0 = float(default_table.fc(x0[0]))
        envelope = np.exp(-params.alpha * tr.times / 2.0) * np.sqrt(v0 / 1.0)
        assert np.all(np.abs(tr.displacements[:, 0]) <= envelope * (1 + 1e-6))

    def test_variational_consistency_defect_ratio(self, fig_pair):
        field = assemble(fhn_field(figure_params(2)))
        z0 = np.array([1.2, -0.3])
        v = np.array([0.6, 0.8])
        cfg = IntegratorConfig(max_time=5.0, step=1e-3)
        base = integrate_with_displacement(field, 0.0, z0, v, cfg)
        defects = []
        for h in (1e-3, 5e-4):
            shifted = integrate(field, 0.0, z0 + h * v, cfg)
            defect = np.linalg.norm(
                shifted.states[-1] - base.states[-1] - h * base.displacements[-1]
            )
            defects.append(defect)
        assert 3.5 <= defects[0] / defects[1] <= 4.5


    @pytest.mark.parametrize("z0, d0", [
        ([1.0, 2.0], [[1.0, 0.0]]),
        ([[1.0, 2.0]] * 3, [[1.0, 0.0]] * 2),
        ([1.0, 2.0, 3.0], [1.0, 0.0, 0.0]),
        ([[[1.0, 2.0]]], [[[1.0, 0.0]]]),
        (np.empty((0, 2)), np.empty((0, 2))),
        (1.0, 1.0),
    ])
    def test_unequal_or_wrong_shapes_refused(self, z0, d0):
        field = linear_field(-np.eye(2))
        with pytest.raises(ValueError, match=r"shape \(2,\) or both \(N, 2\)"):
            integrate_with_displacement(field, 0.0, z0, d0,
                                        IntegratorConfig(max_time=1.0, step=0.1))

    @pytest.mark.parametrize("method", [FIXED_RK4, ADAPTIVE_EMBEDDED])
    def test_batch_rows_stop_on_their_own(self, method):
        # dz/dt = z^3 - z: the row from 0.5 contracts, the row from 2 blows
        # up and stops, and its displacement stops with it
        cubic = TimeVaryingField(1, lambda t, z: z**3 - z,
                                 lambda t, z: (3.0 * z**2 - 1.0)[..., None])
        cfg = IntegratorConfig(max_time=5.0, method=method, step=0.01)
        tr = integrate_with_displacement(cubic, 0.0, [[0.5], [2.0]], [[1.0], [1.0]], cfg)
        assert tr.blew_up.tolist() == [False, True]
        calm, blown = tr.row(0), tr.row(1)
        assert calm.t_end == 5.0 and 0.0 < calm.displacements[-1, 0] < 0.02
        assert blown.t_end < 1.0
        assert len(blown.displacements) == len(blown.times) == tr.ends[1]


class TestFlowDifference:
    def test_identical_states_zero_series(self):
        field = assemble(fhn_field(figure_params(1)))
        series = flow_difference(field, 0.0, [2.0, 0.0], [2.0, 0.0],
                                 IntegratorConfig(max_time=5.0, step=0.01))
        assert np.all(series.values == 0.0)

    def test_fig2_contracts_below_threshold(self, fig_pair):
        field = assemble(fhn_field(figure_params(2)))
        series = flow_difference(field, 0.0, *fig_pair,
                                 IntegratorConfig(max_time=60.0, step=0.01))
        assert series.values[-1] < 1e-3 * series.values[0]

    def test_fig1_does_not_contract(self, fig_pair):
        field = assemble(fhn_field(figure_params(1)))
        series = flow_difference(field, 0.0, *fig_pair,
                                 IntegratorConfig(max_time=100.0, step=0.01))
        late = series.values[(series.times >= 80.0) & (series.times <= 100.0)]
        assert np.min(late) > 0.1


@given(step=st.sampled_from([0.2, 0.1, 0.05]),
       x0=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
@settings(max_examples=12, deadline=None)
def test_variational_consistency_property(step, x0):
    field = assemble(fhn_field(figure_params(3)))
    z0 = np.array([x0, 0.5])
    v = np.array([1.0, -0.5])
    cfg = IntegratorConfig(max_time=2.0, step=step / 10)
    base = integrate_with_displacement(field, 0.0, z0, v, cfg)
    defects = []
    for h in (1e-3, 5e-4):
        shifted = integrate(field, 0.0, z0 + h * v, cfg)
        defects.append(np.linalg.norm(
            shifted.states[-1] - base.states[-1] - h * base.displacements[-1]))
    if defects[1] > 1e-13:
        assert 3.0 <= defects[0] / defects[1] <= 5.0


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(max_time=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(max_time=1.0, step=0.9)
    with pytest.raises(ValueError):
        IntegratorConfig(max_time=1.0, method=ADAPTIVE_EMBEDDED, atol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(max_time=1.0, method="rk9000")


@pytest.mark.parametrize("kwargs, match", [
    (dict(max_time=np.nan), "max_time must be positive"),
    (dict(max_time=np.nan, method=ADAPTIVE_EMBEDDED), "max_time must be positive"),
    (dict(max_time=np.inf, method=ADAPTIVE_EMBEDDED), "max_time must be positive and finite"),
    (dict(max_time=1.0, step=np.nan), "fixed step must be positive"),
    (dict(max_time=1.0, method=ADAPTIVE_EMBEDDED, atol=np.nan), "tolerances"),
    (dict(max_time=1.0, method=ADAPTIVE_EMBEDDED, rtol=np.nan), "tolerances"),
])
def test_non_finite_settings_refused(kwargs, match):
    with pytest.raises(ValueError, match=match):
        IntegratorConfig(**kwargs)


@pytest.mark.parametrize("gains", [(np.nan, 0.0), (0.0, np.nan)])
def test_nan_gains_refused(gains):
    with pytest.raises(ValueError, match="coupling gains must be nonnegative"):
        cubic_two_block().with_gains(*gains)


@pytest.mark.parametrize("gains", [
    (np.inf, 0.0), (0.0, np.inf), (np.array([[1.0], [np.inf]]), 0.0),
    (0.0, np.array([[np.inf], [1.0]])),
])
def test_infinite_gains_refused(gains):
    with pytest.raises(ValueError, match="coupling gains must be finite"):
        cubic_two_block().with_gains(*gains)
    ic = cubic_two_block()
    with pytest.raises(ValueError, match="coupling gains must be finite"):
        Interconnection(ic.f1, ic.f2, ic.g1, ic.g2, *gains)


def test_fixed_step_count_bounded():
    with pytest.raises(ValueError, match="at most"):
        IntegratorConfig(max_time=1e12)
    with pytest.raises(ValueError, match="at most"):
        IntegratorConfig(max_time=1.0, step=0.5 / MAX_STEPS)
    assert IntegratorConfig(max_time=1.0, step=1.0 / MAX_STEPS).step == 1.0 / MAX_STEPS


def test_fixed_step_solve_too_large_to_store_refused():
    # 2^23 steps of 8 rows of dimension 2 store 16 (2^23 + 1) values per
    # array, 16 above MAX_STORED_VALUES; the rhs is never called
    def rhs(t, z):
        raise AssertionError("the solve started")

    field = TimeVaryingField(2, rhs, lambda t, z: np.zeros(z.shape + (2,)))
    config = IntegratorConfig(max_time=2.0**20, step=0.125)
    assert 16 * (2**23 + 1) == MAX_STORED_VALUES + 16
    with pytest.raises(ValueError, match=r"shape \(8388609, 8, 2\) would store 134217744 "
                                         r"values per array, above the limit of 134217728"):
        integrate(field, 0.0, np.zeros((8, 2)), config)
    # the variational field of 4 rows has dimension 4: the same count
    with pytest.raises(ValueError, match=r"shape \(8388609, 4, 4\)"):
        integrate_with_displacement(field, 0.0, np.zeros((4, 2)), np.ones((4, 2)), config)


def per_step_rk4(rhs, t0, z0, horizon, step):
    """Fixed-step RK4 that tests for non-finite values after every state and
    every derivative: the reference for the solver's scan per block of
    steps.  Returns times, states, derivatives, ends and blew-up flags, with
    each row's samples from its end on set to NaN, as ``integrate`` does."""
    n_steps = max(2, math.ceil(horizon / step - 1e-12))
    h = horizon / n_steps
    times = t0 + h * np.arange(n_steps + 1)
    times[-1] = t0 + horizon
    states = np.empty((n_steps + 1,) + z0.shape)
    derivs = np.empty_like(states)
    ends = np.full(len(z0), n_steps + 1)
    blew = np.zeros(len(z0), dtype=bool)

    def stop(a, end):
        bad = ~np.isfinite(a).all(axis=1) & ~blew
        ends[bad] = end
        blew[bad] = True
        return bad

    states[0] = z0
    with np.errstate(over="ignore", invalid="ignore"):
        derivs[0] = rhs(t0, z0)
        derivs[0, stop(derivs[0], 1)] = 0.0
        for i in range(0 if blew.all() else n_steps):
            t, y, k1 = times[i], states[i], derivs[i]
            k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(t + h, y + h * k3)
            states[i + 1] = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            stop(states[i + 1], i + 1)
            if blew.all():
                break
            derivs[i + 1] = rhs(times[i + 1], states[i + 1])
            derivs[i + 1, stop(derivs[i + 1], i + 2)] = 0.0
            if blew.all():
                break
    last = ends.max()
    after = np.arange(last)[:, None] >= ends
    states, derivs = states[:last], derivs[:last]
    states[after] = np.nan
    derivs[after] = np.nan
    return times[:last], states, derivs, ends, blew


def exp_rhs(t, z):
    """dx/dt = e^x, which blows up at t = e^-x(0), beside a calm dy/dt = -y."""
    return np.stack([np.exp(z[..., 0]), -z[..., 1]], axis=-1)


EXP_FIELD = TimeVaryingField(dim=2, rhs=exp_rhs, jacobian=fd_jacobian(exp_rhs, 2))
STEP = 2.0**-6  # exact, so that horizon k * STEP gives exactly k steps
SPECIAL = [
    [710.0, 1.0],     # derivative non-finite at sample 0
    [-np.inf, 1.0],   # z0 holds inf, its derivative is finite
    [0.0, np.inf],    # z0 holds inf, and so does its derivative
    [-50.0, 1.0],     # never stops
]


def stop_kinds(oracle):
    """Per row: stopped at a non-finite derivative whose state was finite,
    and stopped at a non-finite state."""
    _, states, derivs, ends, blew = oracle
    at = ends - 1, np.arange(len(ends))
    at_derivative = blew & (derivs[at] == 0.0).all(axis=1) & np.isfinite(states[at]).all(axis=1)
    return at_derivative, blew & ~at_derivative


def assert_same_as_per_step(z0, horizon):
    oracle = per_step_rk4(exp_rhs, 0.0, z0, horizon, STEP)
    tr = integrate(EXP_FIELD, 0.0, z0, IntegratorConfig(max_time=horizon, step=STEP))
    got = tr.times, tr.states, tr.derivatives, tr.ends, tr.blew_up
    for a, b in zip(got, oracle):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    return oracle


def test_block_scan_rows_stop_in_different_blocks():
    # blow-up times 0.2-12 put the stops in the first three blocks of 256
    x0 = -np.log(np.linspace(0.2, 12.0, 200))
    z0 = np.vstack([np.column_stack([x0, np.ones_like(x0)]), SPECIAL])
    oracle = assert_same_as_per_step(z0, 16.0)
    at_derivative, at_state = stop_kinds(oracle)
    ends, blew = oracle[3], oracle[4]
    assert ends[-4:].tolist() == [1, 1, 1, len(oracle[0])]
    assert blew[-4:].tolist() == [True, True, True, False]
    for kind in (at_derivative, at_state):
        assert len(set((ends[kind] - 1) // _SCAN_BLOCK)) >= 3


def test_block_scan_every_row_stops_in_first_block():
    x0 = -np.log([0.3, 1.0, 2.5])
    z0 = np.vstack([np.column_stack([x0, np.ones(3)]), SPECIAL[:3]])
    ends = assert_same_as_per_step(z0, 16.0)[3]
    assert ends.max() < _SCAN_BLOCK


def test_block_scan_derivative_non_finite_only_at_last_sample():
    x0 = -np.log(np.linspace(0.2, 3.0, 40))
    z0 = np.column_stack([x0, np.ones_like(x0)])
    oracle = per_step_rk4(exp_rhs, 0.0, z0, 4.0, STEP)
    at_derivative, _ = stop_kinds(oracle)
    assert at_derivative.any()
    # the first such row, up to the sample of its non-finite derivative
    k = int(oracle[3][at_derivative][0]) - 1
    _, states, derivs, ends, blew = assert_same_as_per_step(z0[at_derivative][:1], k * STEP)
    assert ends.tolist() == [k + 1] and blew.tolist() == [True]
    assert np.isfinite(states).all() and derivs[-1, 0].tolist() == [0.0, 0.0]


def standstill_rhs(t, z):
    """dz/dt = 0 for t < 2, then -(z - 2): the state repeats bit for bit
    over the first 128 steps of STEP, and moves after them."""
    return np.zeros_like(z) if t < 2.0 else -(z - 2.0)


def test_time_varying_standstill_is_stepped_through():
    field = TimeVaryingField(2, standstill_rhs, fd_jacobian(standstill_rhs, 2))
    assert not field.autonomous
    z0 = np.array([[0.0, 1.0], [-3.0, 5.0], [np.nan, 0.0]])
    oracle = per_step_rk4(standstill_rhs, 0.0, z0, 4.0, STEP)
    tr = integrate(field, 0.0, z0, IntegratorConfig(max_time=4.0, step=STEP))
    for a, b in zip((tr.times, tr.states, tr.derivatives, tr.ends, tr.blew_up), oracle):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert tr.states[:128, :2].tobytes() == np.broadcast_to(z0[:2], (128, 2, 2)).tobytes()
    assert np.abs(tr.states[-1, :2] - 2.0).max() < 0.7
    # declared autonomous, the same field is cut at the standstill
    cut = integrate(dataclasses.replace(field, autonomous=True), 0.0, z0,
                    IntegratorConfig(max_time=4.0, step=STEP))
    assert (cut.states[-1, :2] == z0[:2]).all()


def counted(field):
    """``field`` with its rhs calls counted in the returned one-item list."""
    calls = [0]
    rhs = field.rhs

    def counting(t, z):
        calls[0] += 1
        return rhs(t, z)

    return dataclasses.replace(field, rhs=counting), calls


FHN_SETS = (figure_params(3),
            FhnParams.from_c(c=1.0, b=1.0, rho1=0.5, rho2=1.0, epsilon=0.9),
            FhnParams.from_c(c=2.0, b=2.0, rho1=1.0, rho2=1.0, epsilon=0.5))
# dx/dt = 1 - x - x^3 + y/2, dy/dt = 1/2 - 2y + 3x/10: one stable
# equilibrium, off the origin, as a field and as two coupled blocks
POLYNOMIAL = (((1.0, (0, 0)), (-1.0, (1, 0)), (-1.0, (3, 0)), (0.5, (0, 1))),
              ((0.5, (0, 0)), (-2.0, (0, 1)), (0.3, (1, 0))))
POLYNOMIAL_BLOCKS = ((((1.0, (0,)), (-1.0, (1,)), (-1.0, (3,))),),
                     (((0.5, (0,)), (-2.0, (1,))),),
                     (((1.0, (1,)),),), (((1.0, (1,)),),))


def autonomous_field(kind: str, rows: int):
    if kind == "fhn":
        return assemble(fhn_field(figure_params(3)))
    if kind == "fhn_rows":
        return assemble(fhn_field([FHN_SETS[k % 3] for k in range(rows)]))
    if kind == "polynomial":
        return polynomial_field(POLYNOMIAL)
    if kind == "polynomial_blocks":
        return assemble(polynomial_interconnection(*POLYNOMIAL_BLOCKS, rho1=0.5, rho2=0.3))
    return linear_field([[-1.0, 10.0], [0.0, -1.0]])


def assert_stop_is_invisible(field, z0, config):
    """``field`` solves to the bytes of the same field declared not
    autonomous, which RK4 steps to the horizon; returns the rhs calls of
    the two solves."""
    assert field.autonomous
    full, full_calls = counted(dataclasses.replace(field, autonomous=False))
    field, calls = counted(field)
    got, want = integrate(field, 0.0, z0, config), integrate(full, 0.0, z0, config)
    for name in ("times", "states", "derivatives", "ends", "blew_up"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    return calls[0], full_calls[0]


KINDS = ["fhn", "fhn_rows", "polynomial", "polynomial_blocks", "linear"]


@given(kind=st.sampled_from(KINDS), rows=st.integers(1, 6), seed=st.integers(0, 2**16),
       special=st.sampled_from([None, np.nan, np.inf, -np.inf, 1e200]),
       horizon=st.sampled_from([1.0, 20.0, 60.0]))
@example(kind="fhn", rows=4, seed=0, special=None, horizon=60.0)
@example(kind="fhn_rows", rows=3, seed=1, special=np.nan, horizon=60.0)
@example(kind="polynomial", rows=5, seed=2, special=-np.inf, horizon=60.0)
@example(kind="polynomial_blocks", rows=2, seed=3, special=None, horizon=60.0)
@settings(max_examples=40, deadline=None)
def test_stop_at_a_repeat_keeps_every_byte(kind, rows, seed, special, horizon):
    # horizon 60 is past the bitwise convergence of the FHN and polynomial
    # batches; a row of NaN or inf, or one that overflows, stops at its
    # first non-finite value and is stepped on
    rng = np.random.default_rng(seed)
    z0 = rng.uniform(-3.0, 3.0, (rows, 2))
    if special is not None:
        z0[rng.integers(rows), rng.integers(2)] = special
    config = IntegratorConfig(max_time=horizon, step=0.05)
    calls, full_calls = assert_stop_is_invisible(autonomous_field(kind, rows), z0, config)
    assert calls <= full_calls


@pytest.mark.parametrize("kind", KINDS[:4])
def test_autonomous_batches_stop_once_they_repeat(kind):
    # every row converges to an equilibrium and lands on a fixed point of
    # the step map, and the NaN row repeats by its bits (NaN != NaN)
    z0 = np.random.default_rng(5).uniform(-3.0, 3.0, (6, 2))
    z0[2] = [np.nan, 1.0]
    calls, full_calls = assert_stop_is_invisible(
        autonomous_field(kind, 6), z0, IntegratorConfig(max_time=60.0, step=0.05))
    assert calls < full_calls


class BlockLog:
    """A block sink that keeps a copy of every block, and the rhs calls a
    counted field had made when each came."""

    def __init__(self, calls=None):
        self.blocks, self.calls_at, self._calls = [], [], calls

    def __call__(self, times, states):
        self.blocks.append((times.copy(), states.copy()))
        self.calls_at.append(None if self._calls is None else self._calls[0])

    def assert_joins_to(self, tr):
        """The blocks come in order and none is empty; joined, they end at
        len(tr.times) and give its times and, on the rows that did not blow
        up, its states, byte for byte."""
        assert self.blocks and all(len(t) == len(s) > 0 for t, s in self.blocks)
        times = np.concatenate([t for t, _ in self.blocks])
        states = np.concatenate([s for _, s in self.blocks])
        assert times.tobytes() == tr.times.tobytes()
        assert states.shape == tr.states.shape
        kept = ~np.asarray(tr.blew_up)
        assert states[:, kept].tobytes() == tr.states[:, kept].tobytes()


def solve_with_blocks(field, z0, horizon, step):
    field, calls = counted(field)
    log = BlockLog(calls)
    tr = integrate(field, 0.0, z0, IntegratorConfig(max_time=horizon, step=step,
                                                    block_sink=log))
    log.assert_joins_to(tr)
    return tr, log, calls[0]


def test_blocks_of_a_batch_that_repeat_stops():
    # the figure-3 pair converges bit for bit long before t = 100: the steps
    # stop there, and the last block is the filled rest of the path
    field = assemble(fhn_field(figure_params(3)))
    tr, log, calls = solve_with_blocks(field, [[2.0, 0.0], [-2.0, 1.0]], 100.0, 0.01)
    assert calls < 4 * 10_000 + 1
    assert len(log.blocks[-1][0]) > _SCAN_BLOCK
    # each full block comes when its steps are taken, not at the end; the
    # steps up to the repeat and the filled rest come last
    n = len(log.blocks)
    assert log.calls_at[:n - 2] == [4 * _SCAN_BLOCK * k + 1 for k in range(1, n - 1)]
    assert log.calls_at[-2:] == [calls, calls]


def test_blocks_of_rows_that_blow_up_inside_blocks():
    # blow-up times 0.2-12 put the stops inside the first three blocks of
    # 256; the last row never stops
    x0 = -np.log(np.linspace(0.2, 12.0, 50))
    z0 = np.vstack([np.column_stack([x0, np.ones_like(x0)]), SPECIAL])
    tr, log, _ = solve_with_blocks(EXP_FIELD, z0, 16.0, STEP)
    assert tr.blew_up[:-1].all() and not tr.blew_up[-1]
    assert len(set((tr.ends[:-4] - 1) // _SCAN_BLOCK)) >= 3
    # when every row stops, the blocks end at the last row's end
    tr, log, _ = solve_with_blocks(EXP_FIELD, z0[:-1], 16.0, STEP)
    assert tr.blew_up.all() and len(tr.times) == tr.ends.max() < 16.0 / STEP
    assert len(tr.times) > _SCAN_BLOCK


@pytest.mark.parametrize("steps", [2, _SCAN_BLOCK - 1, _SCAN_BLOCK, 2 * _SCAN_BLOCK + 57])
def test_blocks_of_a_horizon_that_is_no_multiple_of_the_scan(steps):
    field = TimeVaryingField(2, standstill_rhs, fd_jacobian(standstill_rhs, 2))
    z0 = np.array([[0.0, 1.0], [-3.0, 5.0]])
    tr, log, _ = solve_with_blocks(field, z0, steps * STEP, STEP)
    # sample 0 and the first block's steps, then one block's steps at a time
    ends = [*range(_SCAN_BLOCK + 1, steps + 1, _SCAN_BLOCK), steps + 1]
    assert [len(t) for t, _ in log.blocks] == np.diff([0, *ends]).tolist()


def test_blocks_of_a_single_state_are_shaped_as_its_states():
    tr, log, _ = solve_with_blocks(linear_field([[-1.0, 10.0], [0.0, -1.0]]),
                                   np.array([1.0, -2.0]), 8.0, 0.01)
    assert tr.states.shape == (801, 2)
    assert all(s.shape == (len(t), 2) for t, s in log.blocks)


def test_block_sink_needs_fixed_step_rk4():
    with pytest.raises(ValueError, match="block sink"):
        IntegratorConfig(max_time=1.0, method=ADAPTIVE_EMBEDDED, block_sink=BlockLog())
    # the sink is no part of a config's value
    assert IntegratorConfig(max_time=1.0, block_sink=BlockLog()) == IntegratorConfig(1.0)


def hermite_oracle(times, values, derivs, t):
    """Piecewise-cubic Hermite interpolation of one row, written out per
    call: the interval of each query, its cubic weights, and the stored
    sample at a query on a node."""
    tq = np.atleast_1d(np.asarray(t, dtype=float))
    if len(times) == 1:
        out = np.repeat(values[:1], len(tq), axis=0)
    else:
        idx = np.clip(np.searchsorted(times, tq, side="right") - 1, 0, len(times) - 2)
        t0 = times[idx]
        h = (times[idx + 1] - t0)[:, None]
        s = (tq - t0)[:, None] / h
        y0, y1 = values[idx], values[idx + 1]
        s2, s3 = s * s, s * s * s
        out = ((2 * s3 - 3 * s2 + 1) * y0 + (s3 - 2 * s2 + s) * (derivs[idx] * h)
               + (-2 * s3 + 3 * s2) * y1 + (s3 - s2) * (derivs[idx + 1] * h))
        exact = s[:, 0] == 0.0
        out[exact] = y0[exact]
        right = tq == times[idx + 1]
        out[right] = y1[right]
    return out[0] if np.ndim(t) == 0 else out


def cubic_x_rhs(t, z):
    """x' = x^3 blows up from |x| > 1, each row at its own time; y' = -y."""
    out = np.empty(z.shape)
    out[..., 0] = z[..., 0] ** 3
    out[..., 1] = -z[..., 1]
    return out


CUBIC_X = TimeVaryingField(2, cubic_x_rhs, fd_jacobian(cubic_x_rhs, 2))


@given(seed=st.integers(min_value=0, max_value=2**16),
       n_pairs=st.integers(min_value=1, max_value=6),
       scale=st.sampled_from([0.9, 2.0, 4.0]),
       method=st.sampled_from([FIXED_RK4, ADAPTIVE_EMBEDDED]))
@settings(max_examples=30, deadline=None)
def test_shared_basis_resampling_is_each_rows_own(seed, n_pairs, scale, method):
    # from scale 2 on, rows with |x| > 1 blow up at different times, so the
    # pairs end at different samples and group under different bases
    cfg = IntegratorConfig(max_time=1.0, method=method, step=0.01, atol=1e-9, rtol=1e-6)
    z = np.random.default_rng(seed).uniform(-scale, scale, (2 * n_pairs, 2))
    traj = integrate(CUBIC_X, 0.0, z, cfg)
    series = flow_differences(CUBIC_X, 0.0, z[:n_pairs], z[n_pairs:], cfg)
    for k, s in enumerate(series):
        r1, r2 = traj.row(k), traj.row(n_pairs + k)
        assert s.blew_up == (r1.blew_up or r2.blew_up)
        if method == FIXED_RK4 and not s.blew_up:
            assert s.times.tobytes() == traj.times.tobytes()
            continue
        t_end = min(r1.t_end, r2.t_end)
        grid = np.linspace(0.0, t_end, max(2, math.ceil(t_end / cfg.step)) + 1)
        assert s.times.tobytes() == grid.tobytes()
        with np.errstate(all="ignore"):
            at = [hermite_oracle(r.times, r.states, r.derivatives, grid) for r in (r1, r2)]
            assert s.values.tobytes() == np.linalg.norm(at[0] - at[1], axis=1).tobytes()
            for r, expected in zip((r1, r2), at):
                assert r.state_at(grid).tobytes() == expected.tobytes()
                t = float(grid[len(grid) // 3])
                assert r.state_at(t).tobytes() == hermite_oracle(
                    r.times, r.states, r.derivatives, t).tobytes()


@given(rows=st.integers(1, 500), d=st.integers(1, 9),
       special=st.sampled_from([0.0, 0.02, 0.3]), seed=st.integers(0, 2**16))
@settings(max_examples=200, deadline=None)
def test_row_norms_are_numpys_bitwise(rows, d, special, seed):
    # scales of 1e+-150 make squares overflow and underflow; d >= 8 is the
    # pairwise sum that the column sum would not give
    rng = np.random.default_rng(seed)
    diff = rng.standard_normal((rows, d)) * 10.0 ** rng.choice([-150, -3, 0, 3, 150], (rows, d))
    hit = rng.random(diff.shape) < special
    diff[hit] = rng.choice([np.nan, -np.nan, np.inf, -np.inf], np.count_nonzero(hit))
    with np.errstate(all="ignore"):
        assert _row_norms(diff).tobytes() == np.linalg.norm(diff, axis=1).tobytes()
