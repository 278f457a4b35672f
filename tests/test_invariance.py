import numpy as np
import pytest

from ieskit.dynsys import IntegratorConfig, TimeVaryingField, assemble, integrate, linear_field
from ieskit.fhn import FhnParams, fhn_field, figure_params
from ieskit.invariance import (
    NoInvariantLevelError,
    OuterLyapunov,
    check_dissipation_chain_fhn,
    fhn_outer_lyapunov,
    find_invariant_level,
    ultimate_bound_fhn,
    wdot,
    write_invariant_report,
)


def half_norm_lyapunov(dim=2):
    return OuterLyapunov(
        value=lambda t, z: 0.5 * np.sum(z * z, axis=-1),
        gradient=lambda t, z: (np.asarray(z, dtype=float), 0.0),
        class_lower=lambda s: 0.5 * s * s,
        class_upper=lambda s: 0.5 * s * s,
    )


class TestWdot:
    def test_half_norm_on_linear_contraction(self):
        w = half_norm_lyapunov()
        field = linear_field(-np.eye(2))
        z = np.array([1.0, -2.0])
        assert wdot(w, field, 0.0, z) == pytest.approx(-float(z @ z), rel=1e-14)

    def test_fhn_energy_matches_model_chain_head(self):
        p = figure_params(1)
        field = assemble(fhn_field(p))
        w = fhn_outer_lyapunov(p)
        rng = np.random.default_rng(2)
        for _ in range(50):
            x, y = rng.uniform(-4, 4, 2)
            got = wdot(w, field, 0.0, np.array([x, y]))
            expected = x * (x - x**3 / 3 + p.c - p.rho1 * y) + y * (-p.b * y + p.rho2 * x)
            assert got == pytest.approx(expected, abs=1e-12 * (1 + abs(expected)))

    def test_zero_field_leaves_time_slot(self):
        w = OuterLyapunov(
            value=lambda t, z: t + 0.5 * np.sum(z * z, axis=-1),
            gradient=lambda t, z: (np.asarray(z, dtype=float), 1.0),
        )
        field = TimeVaryingField(2, lambda t, z: np.zeros(np.shape(z)),
                                 lambda t, z: np.zeros(np.shape(z) + (2,)))
        assert wdot(w, field, 0.0, np.array([3.0, 4.0])) == 1.0


class TestDissipationChain:
    @pytest.mark.parametrize("figure", [1, 2, 3])
    def test_benchmark_sets_pass_on_default_grid(self, figure):
        report = check_dissipation_chain_fhn(figure_params(figure))
        assert report.passed
        assert report.margin_young >= -1e-9
        assert report.margin_quartic >= -1e-9
        assert report.margin_comparison >= -1e-9

    def test_origin_reduces_to_offset_chain(self):
        # at the origin the chain reads 0 <= c^2/2 <= 2 + c^2/2 <= 2 + c^2/2
        p = figure_params(1)
        g = np.array([0.0])
        x = y = 0.0
        wd = x * (x - x**3 / 3 + p.c - p.rho1 * y) + y * (-p.b * y + p.rho2 * x)
        s1 = 1.5 * x * x - x**4 / 3 + p.c**2 / 2 - p.b * y * y
        s2 = -x * x / 8 - p.b * y * y + 2 + p.c**2 / 2
        assert wd == 0.0
        assert s1 == pytest.approx(p.c**2 / 2)
        assert s2 == pytest.approx(2 + p.c**2 / 2)

    def test_unequal_gains_rejected(self):
        p = FhnParams.from_c(c=1.0, b=0.1, rho1=1.0, rho2=0.5, epsilon=1.0)
        with pytest.raises(ValueError, match="rho1 = rho2"):
            check_dissipation_chain_fhn(p)

    def test_fig3_parameters_pass(self):
        report = check_dissipation_chain_fhn(figure_params(3), grid_radius=6.0)
        assert report.passed


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

    def test_trajectories_from_nearby_states_stay_inside(self):
        p = figure_params(2)
        field = assemble(fhn_field(p))
        w = fhn_outer_lyapunov(p)
        est = find_invariant_level(w, field, (5.0, 20.0), [[-7, 7]] * 2,
                                   n_levels=30, grid_density=81)
        cfg = IntegratorConfig(max_time=50.0, step=0.01)
        for z0 in (np.array([2.0, 0.0]), np.array([-2.0, 1.0])):
            assert w.value(0.0, z0) <= est.level
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
            v = w.value(0.0, z0)
            if not (est.level * 0.9 <= v <= est.level):
                continue
            count += 1
            tr = integrate(field, 0.0, z0, cfg)
            values = np.array([w.value(0.0, z) for z in tr.states])
            assert np.max(values) <= est.level * (1.0 + est.shell_width)

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
        w_inf = (2.0 + p.c**2 / 2.0) / (2.0 * kappa)
        field = assemble(fhn_field(p))
        w = fhn_outer_lyapunov(p)
        cfg = IntegratorConfig(max_time=40.0, step=0.01)
        for z0 in (np.array([4.0, -4.0]), np.array([0.5, 0.5])):
            tr = integrate(field, 0.0, z0, cfg)
            values = np.array([w.value(0.0, z) for z in tr.states])
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
