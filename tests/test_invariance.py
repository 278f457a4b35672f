import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ieskit.dynsys import IntegratorConfig, TimeVaryingField, assemble, integrate, linear_field
from ieskit.fhn import FhnParams, fhn_field, figure_params
from ieskit.invariance import (
    NoInvariantLevelError,
    OuterLyapunov,
    fhn_dissipation_level,
    fhn_outer_lyapunov,
    find_invariant_level,
    ultimate_bound_fhn,
    wdot,
    write_invariant_report,
)
from oracles import dissipation_chain, fhn_w_gradient, fhn_w_value, fhn_wdot


def half_norm_lyapunov(dim=2):
    return OuterLyapunov(np.ones(dim))


class TestWdot:
    def test_half_norm_on_linear_contraction(self):
        w = half_norm_lyapunov()
        field = linear_field(-np.eye(2))
        z = np.array([1.0, -2.0])
        assert wdot(w, field, z) == pytest.approx(-float(z @ z), rel=1e-14)

    def test_fhn_energy_matches_model_chain_head(self):
        p = figure_params(1)
        field = assemble(fhn_field(p))
        w = fhn_outer_lyapunov(p)
        rng = np.random.default_rng(2)
        for _ in range(50):
            x, y = rng.uniform(-4, 4, 2)
            got = wdot(w, field, np.array([x, y]))
            expected = x * (x - x**3 / 3 + p.c - p.rho1 * y) + y * (-p.b * y + p.rho2 * x)
            assert got == pytest.approx(expected, abs=1e-12 * (1 + abs(expected)))


# coordinates that include both zeros, both infinities, NaN and a value whose
# square overflows
_SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e200, -1e200])
_COORD = _SPECIAL | st.floats(allow_nan=False, allow_infinity=False)


class TestOuterLyapunov:
    @given(eps=st.floats(min_value=0.05, max_value=20.0),
           rows=st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_fhn_weights_are_bitwise_the_written_out_w(self, eps, rows):
        z = np.array(rows, dtype=float)
        w = OuterLyapunov(np.array([1.0, eps]))
        field = assemble(fhn_field(FhnParams(b=1.0, rho1=0.3, rho2=0.7, epsilon=eps, r=2.1)))
        with np.errstate(all="ignore"):
            for got, want in ((w.value(z), fhn_w_value(eps, z)),
                              (w.gradient(z), fhn_w_gradient(eps, z)),
                              (wdot(w, field, z), fhn_wdot(eps, field, z))):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            for row in z:  # a single state, without a batch axis
                assert w.value(row).tobytes() == fhn_w_value(eps, row).tobytes()

    @given(eps=st.floats(min_value=0.05, max_value=20.0),
           level=st.floats(min_value=1e-6, max_value=1e6))
    def test_radius_is_the_closed_form(self, eps, level):
        w = OuterLyapunov(np.array([1.0, eps]))
        assert w.radius(level) == math.sqrt(2 * level * max(1, 1 / eps))
        assert w.half_axes(level).tolist() == [math.sqrt(2 * level),
                                               math.sqrt(2 * level / eps)]

    def test_fhn_w_has_weights_one_and_epsilon(self):
        w = fhn_outer_lyapunov(figure_params(3))
        assert w.weights.tolist() == [1.0, 0.9] and w.dim == 2
        assert not w.weights.flags.writeable

    @pytest.mark.parametrize("weights", [[], [[1.0, 2.0]], 1.0, [1.0, 0.0], [1.0, -2.0],
                                         [math.nan, 1.0], [1.0, math.inf]])
    def test_bad_weights_refused(self, weights):
        with pytest.raises(ValueError, match="weights"):
            OuterLyapunov(weights)

    def test_box_of_another_dimension_refused(self):
        w = fhn_outer_lyapunov(figure_params(1))
        with pytest.raises(ValueError, match="box has dimension 3, W has dimension 2"):
            find_invariant_level(w, linear_field(-np.eye(3)), (0.5, 5.0), [[-4, 4]] * 3)


# (r, b, epsilon, alpha) of the four certify-sweep weight sets
SWEEP_SETS = ((2.1, 1.0, 0.9, 1.0), (2.1, 2.0, 0.5, 1.0),
              (1.8, 1.0, 0.9, 0.8), (2.5, 1.0, 0.9, 2.0))
CHAIN_SETS = {**{f"figure{k}": figure_params(k) for k in (1, 2, 3)},
              **{f"sweep{i}": FhnParams(b=b, rho1=1.0, rho2=1.0, epsilon=eps, r=r, alpha=a)
                 for i, (r, b, eps, a) in enumerate(SWEEP_SETS)}}


class TestDissipationChain:
    @given(b=st.floats(0.01, 20.0), eps=st.floats(0.01, 20.0), r=st.floats(1.25, 4.0),
           rho=st.floats(0.0, 10.0), x=st.floats(-50.0, 50.0), y=st.floats(-50.0, 50.0))
    @example(b=0.99999, eps=11.875, r=2.0, rho=0.0, x=0.0, y=1.0)
    @settings(max_examples=300, deadline=None)
    def test_gaps_are_their_closed_forms(self, b, eps, r, rho, x, y):
        p = FhnParams(b=b, rho1=rho, rho2=rho, epsilon=eps, r=r)
        c, kappa = p.c, min(0.125, b / eps)
        wd, s1, s2, s3 = dissipation_chain(p, x, y)
        # kappa is b/eps or 1/8; where it is b/eps the y term is 0 exactly,
        # though b - kappa*eps can round below it (to -1.1e-16 at b =
        # 0.99999, eps = 11.875); elsewhere b >= eps/8, so b - eps/8 >= 0
        y_term = 0.0 if kappa == b / eps else (b - kappa * eps) * y * y
        gaps = ((s1 - wd, (x - c) ** 2 / 2, 0.0),
                (s2 - s1, x**4 / 3 - 13 * x * x / 8 + 2, 5 / 256),
                (s3 - s2, (0.125 - kappa) * x * x + y_term, 0.0))
        # every term of the chain, in absolute value: the rounding scale
        size = (x * x + x**4 + abs(c * x) + 2 * rho * abs(x * y) + b * y * y + c * c + 2
                + kappa * (x * x + eps * y * y))
        for got, closed, floor in gaps:
            assert got == pytest.approx(closed, rel=0, abs=1e-12 * size)
            assert closed >= floor

    @pytest.mark.parametrize("name", sorted(CHAIN_SETS))
    def test_level_is_the_certify_expression(self, name):
        # bitwise the level the certify action's default radius was built on
        p = CHAIN_SETS[name]
        kappa = min(0.125, p.b / p.epsilon)
        assert fhn_dissipation_level(p) == (2.0 + p.c**2 / 2.0) / (2.0 * kappa)

    def test_origin_reduces_to_offset_chain(self):
        # at the origin the chain reads 0 <= c^2/2 <= 2 + c^2/2 <= 2 + c^2/2
        p = figure_params(1)
        wd, s1, s2, s3 = dissipation_chain(p, 0.0, 0.0)
        assert wd == 0.0
        assert s1 == pytest.approx(p.c**2 / 2)
        assert s2 == s3 == pytest.approx(2 + p.c**2 / 2)


class TestInvariantLevel:
    def test_linear_contraction_accepts_smallest_level(self):
        field = linear_field(-np.eye(2))
        w = half_norm_lyapunov()
        est = find_invariant_level(w, field, (0.5, 5.0), [[-4, 4]] * 2,
                                   n_levels=10, grid_density=61)
        assert est.level == 0.5
        assert est.margin < 0.0

    def test_fig1_level_within_ball_of_radius_six(self):
        p = figure_params(1)
        field = assemble(fhn_field(p))
        w = fhn_outer_lyapunov(p)
        est = find_invariant_level(w, field, (1.0, 20.0), [[-6.5, 6.5]] * 2,
                                   n_levels=40, grid_density=81)
        assert est.margin < 0.0
        assert est.radius <= 6.0

    def test_expanding_field_not_found(self):
        field = linear_field(np.eye(2))
        w = half_norm_lyapunov()
        with pytest.raises(NoInvariantLevelError):
            find_invariant_level(w, field, (0.5, 5.0), [[-4, 4]] * 2,
                                 n_levels=10, grid_density=41)

    def test_failure_carries_the_best_shell(self):
        # z' = z (s - 2)^2 with s = |z|^2: Wdot = s (s - 2)^2 >= 0, least near W = 1
        field = TimeVaryingField(
            2, lambda t, z: z * (np.sum(z * z, axis=-1, keepdims=True) - 2.0) ** 2,
            lambda t, z: np.zeros(np.shape(z) + (2,)))
        w = half_norm_lyapunov()
        levels = np.linspace(0.25, 4.0, 16)
        with pytest.raises(NoInvariantLevelError) as info:
            find_invariant_level(w, field, (0.25, 4.0), [[-3, 3]] * 2,
                                 n_levels=16, grid_density=61)
        axis = np.linspace(-3.0, 3.0, 61)
        pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        s = np.sum(pts * pts, axis=1)
        margins = {}
        for level in levels:
            shell = (0.5 * s >= level) & (0.5 * s <= level * 1.05)
            if shell.any():
                margins[float(level)] = float(np.max(s[shell] * (s[shell] - 2.0) ** 2))
        best = min(margins, key=margins.get)
        exc = info.value
        assert best == 1.0
        assert exc.best_level == best
        assert exc.best_margin == pytest.approx(margins[best], rel=1e-12)
        assert exc.best_margin > 0.0
        assert repr(exc.best_level) in str(exc) and repr(exc.best_margin) in str(exc)

    def test_failure_without_shell_samples_carries_none(self):
        with pytest.raises(NoInvariantLevelError, match="no shell had samples") as info:
            find_invariant_level(half_norm_lyapunov(), linear_field(np.eye(2)),
                                 (10.0, 20.0), [[-1, 1]] * 2, n_levels=5, grid_density=21)
        assert info.value.best_level is None and info.value.best_margin is None

    def test_trajectories_from_nearby_states_stay_inside(self):
        p = figure_params(2)
        field = assemble(fhn_field(p))
        w = fhn_outer_lyapunov(p)
        est = find_invariant_level(w, field, (5.0, 20.0), [[-7, 7]] * 2,
                                   n_levels=30, grid_density=81)
        cfg = IntegratorConfig(max_time=50.0, step=0.01)
        for z0 in (np.array([2.0, 0.0]), np.array([-2.0, 1.0])):
            assert w.value(z0) <= est.level
            tr = integrate(field, 0.0, z0, cfg)
            assert not tr.blew_up
            assert float(np.max(np.linalg.norm(tr.states, axis=1))) <= est.radius

    def test_boundary_shell_states_flow_inward(self):
        p = figure_params(1)
        field = assemble(fhn_field(p))
        w = fhn_outer_lyapunov(p)
        est = find_invariant_level(w, field, (5.0, 20.0), [[-7, 7]] * 2,
                                   n_levels=30, grid_density=81)
        rng = np.random.default_rng(0)
        cfg = IntegratorConfig(max_time=20.0, step=0.01)
        count = 0
        while count < 50:
            z0 = rng.uniform(-6.5, 6.5, 2)
            v = w.value(z0)
            if not (est.level * 0.9 <= v <= est.level):
                continue
            count += 1
            tr = integrate(field, 0.0, z0, cfg)
            values = np.array([w.value(z) for z in tr.states])
            assert np.max(values) <= est.level * (1.0 + est.shell_width)

    @pytest.mark.parametrize("density", [1, 0, -3])
    def test_degenerate_grid_refused(self, density):
        with pytest.raises(ValueError, match="grid_density must be at least 2"):
            find_invariant_level(half_norm_lyapunov(), linear_field(-np.eye(2)), (0.5, 5.0),
                                 [[-4, 4]] * 2, grid_density=density)

    @pytest.mark.parametrize("n_levels", [0, -1])
    def test_no_levels_refused(self, n_levels):
        with pytest.raises(ValueError, match="n_levels must be at least 1"):
            find_invariant_level(half_norm_lyapunov(), linear_field(-np.eye(2)), (0.5, 5.0),
                                 [[-4, 4]] * 2, n_levels=n_levels)

    def test_report_file(self, tmp_path):
        field = linear_field(-np.eye(2))
        est = find_invariant_level(half_norm_lyapunov(), field, (0.5, 5.0),
                                   [[-4, 4]] * 2, n_levels=5, grid_density=41)
        out = tmp_path / "inv.txt"
        write_invariant_report(est, out)
        text = out.read_text()
        assert "level = 0.5" in text
        assert "margin = " in text
        assert "grid_density = 41" in text

    def test_report_values_are_plain_numbers(self, tmp_path):
        p = figure_params(1)
        est = find_invariant_level(fhn_outer_lyapunov(p), assemble(fhn_field(p)),
                                   (1.0, 20.0), [[-6.5, 6.5]] * 2, grid_density=41)
        assert type(est.radius) is float
        out = tmp_path / "inv.txt"
        write_invariant_report(est, out)
        values = [line.split(" = ", 1)[1]
                  for line in out.read_text().splitlines()[1:]]
        assert len(values) == 6
        for value in values:
            float(value)


class TestComparisonEnvelope:
    @pytest.mark.parametrize("figure", [1, 3])
    def test_energy_dominated_along_trajectories(self, figure):
        # the last link of the dissipation chain, Wdot <= -2 kappa W + C,
        # integrated: W(t) <= W_inf + (W(0) - W_inf) exp(-2 kappa t)
        p = figure_params(figure)
        kappa = min(0.125, p.b / p.epsilon)
        w_inf = fhn_dissipation_level(p)
        field = assemble(fhn_field(p))
        w = fhn_outer_lyapunov(p)
        cfg = IntegratorConfig(max_time=40.0, step=0.01)
        for z0 in (np.array([4.0, -4.0]), np.array([0.5, 0.5])):
            tr = integrate(field, 0.0, z0, cfg)
            values = np.array([w.value(z) for z in tr.states])
            env = w_inf + (values[0] - w_inf) * np.exp(-2.0 * kappa * tr.times)
            assert np.all(values <= env * (1 + 1e-8) + 1e-9)


class TestUltimateBound:
    def test_direct_substitution(self):
        p = figure_params(3)
        ub = ultimate_bound_fhn(p, 0.1)
        assert ub.bound == pytest.approx(0.9 * 1.25 + 0.1)
        assert ub.entry_time is None

    def test_requires_b_above_epsilon(self):
        p = figure_params(2)  # b = 0.1 < epsilon = 1
        with pytest.raises(ValueError, match="b > epsilon"):
            ultimate_bound_fhn(p, 0.1)
        with pytest.raises(ValueError, match="M"):
            ultimate_bound_fhn(figure_params(3), -1.0)

    def test_entry_time_with_strong_recovery_decay(self):
        # with a faster recovery variable the printed bound holds and the
        # trajectory enters it at a finite time
        p = FhnParams.from_c(c=1.0, b=5.0, rho1=1.0, rho2=1.0, epsilon=0.9)
        field = assemble(fhn_field(p))
        tr = integrate(field, 0.0, np.array([3.0, 3.0]),
                       IntegratorConfig(max_time=40.0, step=0.01))
        ub = ultimate_bound_fhn(p, 0.1, tr)
        assert ub.entry_time is not None
        after = tr.times >= ub.entry_time
        assert np.all(p.epsilon * tr.states[after, 1] ** 2 <= ub.bound)

    def test_entry_time_decreases_with_larger_slack(self):
        p = FhnParams.from_c(c=1.0, b=5.0, rho1=1.0, rho2=1.0, epsilon=0.9)
        field = assemble(fhn_field(p))
        tr = integrate(field, 0.0, np.array([3.0, 3.0]),
                       IntegratorConfig(max_time=40.0, step=0.01))
        entries = [ultimate_bound_fhn(p, m, tr).entry_time for m in (0.1, 1.0, 5.0)]
        assert all(e is not None for e in entries)
        assert entries[0] >= entries[1] >= entries[2]

    def test_printed_bound_refuted_at_third_benchmark_set(self):
        # the model's own equilibrium at these parameters sits above the
        # printed bound, so no finite entry time exists; kept as a negative
        # regression documenting the refutation
        p = figure_params(3)
        field = assemble(fhn_field(p))
        tr = integrate(field, 0.0, np.array([3.0, 3.0]),
                       IntegratorConfig(max_time=120.0, step=0.01))
        ub = ultimate_bound_fhn(p, 0.1, tr)
        equilibrium_level = p.epsilon * tr.states[-1, 1] ** 2
        assert equilibrium_level > ub.bound
        assert ub.entry_time is None

    def test_settled_value_and_refutation_are_reported(self):
        # at the third benchmark set the trajectory from (3, 3) settles at the
        # equilibrium x = y = 3^(1/3), so eps * y^2 = 0.9 * 3^(2/3) = 1.8721
        # lies above the printed bound 1.225: the result says so itself
        p = figure_params(3)
        tr = integrate(assemble(fhn_field(p)), 0.0, np.array([3.0, 3.0]),
                       IntegratorConfig(max_time=120.0, step=0.01))
        ub = ultimate_bound_fhn(p, 0.1, tr)
        assert ub.settled == pytest.approx(1.8721, abs=1e-4)
        assert ub.settled == pytest.approx(0.9 * 3.0 ** (2.0 / 3.0), rel=1e-6)
        assert ub.refuted and ub.entry_time is None
        without = ultimate_bound_fhn(p, 0.1)
        assert without.settled is None and not without.refuted

    def test_batch_trajectory_refused_naming_row(self):
        # a batch has states (T, N, 2); the bound reads one trajectory
        p = FhnParams.from_c(c=1.0, b=5.0, rho1=1.0, rho2=1.0, epsilon=0.9)
        tr = integrate(assemble(fhn_field(p)), 0.0, np.array([[3.0, 3.0], [1.0, -1.0]]),
                       IntegratorConfig(max_time=4.0, step=0.01))
        with pytest.raises(ValueError, match=r"Trajectory\.row\(k\)"):
            ultimate_bound_fhn(p, 0.1, tr)
        assert ultimate_bound_fhn(p, 0.1, tr.row(1)).settled is not None

    def test_entered_bound_is_not_refuted(self):
        p = FhnParams.from_c(c=1.0, b=5.0, rho1=1.0, rho2=1.0, epsilon=0.9)
        tr = integrate(assemble(fhn_field(p)), 0.0, np.array([3.0, 3.0]),
                       IntegratorConfig(max_time=40.0, step=0.01))
        ub = ultimate_bound_fhn(p, 0.1, tr)
        assert not ub.refuted and ub.entry_time is not None
        assert ub.settled == p.epsilon * tr.states[-1, 1] ** 2 <= ub.bound
