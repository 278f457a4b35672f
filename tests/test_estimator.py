import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ieskit.dynsys import IntegratorConfig, assemble, flow_difference, linear_field
from ieskit.estimator import (
    CONTRACTING,
    INCONCLUSIVE,
    NON_CONTRACTING,
    ensemble_ies,
    fit_envelope,
    MIN_SEPARATION,
    sample_pairs_ball,
    sample_pairs_box,
    sample_pairs_sublevel,
    wies_scan,
    write_distance_csv,
    write_summary_csv,
)
from ieskit.fhn import fhn_field, figure_params
from ieskit.invariance import OuterLyapunov


def synthetic_exponential(lam=2.0, t_end=10.0, n=401, d0=1.0):
    ts = np.linspace(0.0, t_end, n)
    return ts, d0 * np.exp(-lam * ts)


class TestFitEnvelope:
    def test_pure_exponential_recovered_exactly(self):
        ts, d = synthetic_exponential()
        fit = fit_envelope(ts, d)
        assert fit.lam == pytest.approx(2.0, rel=1e-9)
        assert fit.K == pytest.approx(1.0, rel=1e-9)
        assert fit.residual < 1e-10
        assert fit.verdict == CONTRACTING

    def test_zero_initial_distance_rejected(self):
        ts = np.linspace(0, 1, 10)
        with pytest.raises(ValueError, match="initial distance"):
            fit_envelope(ts, np.zeros(10))

    def test_non_finite_rejected(self):
        ts = np.linspace(0, 1, 10)
        d = np.ones(10)
        d[5] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            fit_envelope(ts, d)

    @pytest.mark.parametrize("skip", [np.nan, 1.0, 1.5, -3.0, -1e-300, np.inf])
    def test_transient_skip_outside_unit_interval_refused(self, skip):
        ts, d = synthetic_exponential()
        with pytest.raises(ValueError, match=r"transient_skip must lie in \[0, 1\)"):
            fit_envelope(ts, d, transient_skip=skip)

    @pytest.mark.parametrize("skip", [0.0, 0.5, 0.8])
    def test_transient_skip_inside_unit_interval_fits(self, skip):
        ts, d = synthetic_exponential()
        fit = fit_envelope(ts, d, transient_skip=skip)
        assert fit.window[0] >= skip * ts[-1]
        assert fit.lam == pytest.approx(2.0, rel=1e-9)

    def test_envelope_dominates_window_samples(self):
        # oscillating but decaying distance: the envelope with fitted K must
        # dominate every sample of the fitted window
        ts = np.linspace(0.0, 20.0, 2001)
        d = np.exp(-0.5 * ts) * (1.1 + np.cos(3.0 * ts))
        fit = fit_envelope(ts, d)
        mask = (ts >= fit.window[0]) & (ts <= fit.window[1])
        bound = fit.envelope(0.0, d[0], ts[mask])
        assert np.all(d[mask] <= bound * (1.0 + 1e-9))

    def test_fig2_pair_contracts(self, fig_pair):
        field = assemble(fhn_field(figure_params(2)))
        series = flow_difference(field, 0.0, *fig_pair,
                                 IntegratorConfig(max_time=100.0, step=0.01))
        fit = fit_envelope(series.times, series.values)
        assert fit.verdict == CONTRACTING
        assert fit.lam > 1e-3

    def test_fig1_pair_non_contracting(self, fig_pair):
        field = assemble(fhn_field(figure_params(1)))
        series = flow_difference(field, 0.0, *fig_pair,
                                 IntegratorConfig(max_time=100.0, step=0.01))
        fit = fit_envelope(series.times, series.values)
        assert fit.verdict == NON_CONTRACTING

    def test_floor_truncation_handles_fast_contraction(self, fig_pair):
        # the third benchmark run hits the integrator noise floor midway; the
        # fitted window must stop there instead of averaging flat noise
        field = assemble(fhn_field(figure_params(3)))
        series = flow_difference(field, 0.0, *fig_pair,
                                 IntegratorConfig(max_time=100.0, step=0.01))
        fit = fit_envelope(series.times, series.values)
        assert fit.verdict == CONTRACTING
        assert fit.window[1] < 50.0
        assert fit.lam == pytest.approx(1.12, abs=0.05)

    def test_flat_tail_below_the_late_floor_is_inconclusive(self):
        # the window holds a flat 0.01: no rate, and a late mean of 0.01 d(0)
        # below the late floor 0.05 d(0), so the fit neither accepts nor refutes
        ts = np.linspace(0.0, 10.0, 101)
        d = np.array([1.0] + [0.01] * 100)
        fit = fit_envelope(ts, d)
        assert abs(fit.lam) < 1e-12
        assert fit.verdict == INCONCLUSIVE


@given(scale=st.floats(1e-3, 1e3))
@settings(max_examples=40, deadline=None)
def test_scale_equivariance(scale):
    ts = np.linspace(0.0, 20.0, 801)
    d = np.exp(-0.7 * ts) * (1.05 + 0.5 * np.sin(2.0 * ts))
    base = fit_envelope(ts, d)
    scaled = fit_envelope(ts, scale * d)
    assert scaled.lam == pytest.approx(base.lam, rel=1e-9)
    assert scaled.K == pytest.approx(base.K, rel=1e-9)
    assert scaled.verdict == base.verdict


class TestSamplers:
    def test_pairs_deterministic_and_separated(self):
        a = sample_pairs_box([[-3, 3]] * 2, 10, seed=42)
        b = sample_pairs_box([[-3, 3]] * 2, 10, seed=42)
        for (x1, x2), (y1, y2) in zip(a, b):
            assert np.array_equal(x1, y1) and np.array_equal(x2, y2)
            assert np.linalg.norm(x1 - x2) >= 1e-6

    def test_ball_pairs_inside_radius(self):
        pairs = sample_pairs_ball(2.5, 3, 20, seed=1)
        for z1, z2 in pairs:
            assert np.linalg.norm(z1) <= 2.5
            assert np.linalg.norm(z2) <= 2.5

    # each of these used to loop forever: no pair can meet the separation
    @pytest.mark.parametrize("radius, dim, match", [
        (0.0, 2, "positive and finite"),
        (-1.0, 2, "positive and finite"),
        (np.nan, 2, "positive and finite"),
        (np.inf, 2, "positive and finite"),
        (4e-7, 2, "diameter"),
        (5e-7, 3, "diameter"),
        (1.0, 0, "dimension"),
    ])
    def test_ball_without_separated_pairs_refused(self, radius, dim, match):
        with pytest.raises(ValueError, match=match):
            sample_pairs_ball(radius, dim, 2, seed=0)

    @pytest.mark.parametrize("bounds, match", [
        ([[0.0, 0.0], [1.0, 1.0]], "diagonal"),
        ([[0.0, 3e-7], [0.0, 3e-7]], "diagonal"),
        ([[0.0, np.nan]], "finite"),
        ([[-np.inf, 1.0]], "finite"),
        ([[0.0, 1.0, 2.0]], "shape"),
    ])
    def test_box_without_separated_pairs_refused(self, bounds, match):
        with pytest.raises(ValueError, match=match):
            sample_pairs_box(bounds, 2, seed=0)

    @given(weights=st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=1, max_size=4),
           level=st.floats(min_value=1e-3, max_value=1e3),
           n_pairs=st.integers(min_value=0, max_value=30),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_sublevel_pairs_inside_separated_and_seeded(self, weights, level, n_pairs, seed):
        w = OuterLyapunov(weights)
        pairs = sample_pairs_sublevel(w, level, n_pairs, seed)
        assert len(pairs) == n_pairs
        for z1, z2 in pairs:
            assert z1.shape == z2.shape == (len(weights),)
            assert w.value(z1) <= level and w.value(z2) <= level
            assert np.linalg.norm(z1 - z2) >= MIN_SEPARATION
        again = sample_pairs_sublevel(w, level, n_pairs, seed)
        assert all(np.array_equal(a, c) and np.array_equal(b, d)
                   for (a, b), (c, d) in zip(pairs, again))

    def test_sublevel_pairs_reach_the_caps_beyond_the_ball_of_sqrt_2l(self):
        # W = (x^2 + 0.9 y^2)/2 at level 9 reaches |y| = sqrt(20), past the
        # box [-sqrt(18), sqrt(18)]^2 that the set was once sampled from
        w = OuterLyapunov([1.0, 0.9])
        ys = [abs(z[1]) for seed in range(10)
              for pair in sample_pairs_sublevel(w, 9.0, 20, seed) for z in pair]
        assert max(ys) > np.sqrt(18.0)

    @pytest.mark.parametrize("level, match", [
        (0.0, "positive and finite"),
        (-1.0, "positive and finite"),
        (np.nan, "positive and finite"),
        (np.inf, "positive and finite"),
        (1e308, "must be finite"),
        (1e-14, "the widest above 5e-07"),
    ])
    def test_sublevel_without_separated_pairs_refused(self, level, match):
        with pytest.raises(ValueError, match=match):
            sample_pairs_sublevel(OuterLyapunov([1.0, 0.5]), level, 2, seed=0)

    def test_box_with_room_for_one_flat_axis_still_samples(self):
        pairs = sample_pairs_box([[0.0, 0.0], [-1.0, 1.0]], 3, seed=0)
        assert len(pairs) == 3 and all(z1[0] == z2[0] == 0.0 for z1, z2 in pairs)


class TestEnsemble:
    def test_linear_contraction_rates(self):
        field = linear_field(-np.eye(2))
        pairs = sample_pairs_box([[-3, 3]] * 2, 20, seed=0)
        report = ensemble_ies(field, pairs, 12.0,
                              IntegratorConfig(max_time=12.0, step=0.01))
        assert report.passed
        assert report.min_lambda == pytest.approx(1.0, abs=0.02)
        assert report.max_gain == pytest.approx(1.0, abs=0.05)
        # quantitative link checked on the linear case only: lambda >= alpha/2
        assert report.min_lambda >= 0.5 - 0.01

    def test_fig3_box_ensemble_contracts(self):
        field = assemble(fhn_field(figure_params(3)))
        pairs = sample_pairs_box([[-3, 3]] * 2, 20, seed=3)
        report = ensemble_ies(field, pairs, 40.0,
                              IntegratorConfig(max_time=40.0, step=0.02))
        assert report.passed
        assert all(v == CONTRACTING for v in report.verdicts)

    def test_fig1_ensemble_fails(self):
        field = assemble(fhn_field(figure_params(1)))
        pairs = sample_pairs_box([[-3, 3]] * 2, 6, seed=5)
        report = ensemble_ies(field, pairs, 80.0,
                              IntegratorConfig(max_time=80.0, step=0.02))
        assert not report.passed
        assert NON_CONTRACTING in report.verdicts

    def test_blowup_marks_aggregate_inconclusive(self):
        from ieskit.dynsys import TimeVaryingField

        field = TimeVaryingField(1, lambda t, z: z**3, lambda t, z: 3 * z[..., None] ** 2)
        pairs = [(np.array([3.0]), np.array([3.5]))]
        report = ensemble_ies(field, pairs, 5.0,
                              IntegratorConfig(max_time=5.0, step=0.01))
        assert report.inconclusive
        assert not report.passed
        assert report.results[0].blew_up

    def test_summary_of_a_pair_that_blew_up_reads_nan(self, tmp_path):
        from ieskit.dynsys import TimeVaryingField

        field = TimeVaryingField(1, lambda t, z: z**3, lambda t, z: 3 * z[..., None] ** 2)
        pairs = [(np.array([3.0]), np.array([3.5])), (np.array([0.0]), np.array([0.1]))]
        report = ensemble_ies(field, pairs, 5.0, IntegratorConfig(max_time=5.0, step=0.01))
        write_summary_csv(tmp_path / "summary.csv", report.results)
        fit = report.results[1].fit
        assert (tmp_path / "summary.csv").read_text() == (
            f"pair_id,K,lambda,verdict\n0,nan,nan,{INCONCLUSIVE}\n"
            f"1,{fit.K!r},{fit.lam!r},{fit.verdict}\n")

    def test_inconclusive_fits_without_a_refutation_make_the_aggregate_inconclusive(self):
        # dz/dt = diag(-1, 0) z: a pair mostly apart in x decays at rate 1 down
        # to its fixed y-gap of 0.01, about 0.005 of d(0), which neither fits a
        # rate nor stays above the late floor, so it reads inconclusive; a pair
        # apart in y keeps its distance and reads non_contracting
        field = linear_field(np.diag([-1.0, 0.0]))
        cfg = IntegratorConfig(max_time=40.0, step=0.01)
        mostly_x = (np.array([1.0, 0.005]), np.array([-1.0, -0.005]))
        in_x = (np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        in_y = (np.array([0.0, 1.0]), np.array([0.0, -1.0]))
        only_x = ensemble_ies(field, [mostly_x, mostly_x], 40.0, cfg)
        assert only_x.verdicts == [INCONCLUSIVE, INCONCLUSIVE]
        assert only_x.inconclusive and not only_x.passed
        both = ensemble_ies(field, [mostly_x, in_y], 40.0, cfg)
        assert both.verdicts == [INCONCLUSIVE, NON_CONTRACTING]
        assert not both.inconclusive and not both.passed
        contracting = ensemble_ies(field, [in_x], 40.0, cfg)
        assert contracting.verdicts == [CONTRACTING]
        assert contracting.passed and not contracting.inconclusive

    def test_empty_ensemble_refused(self):
        # no pair is no evidence: it must not read as a refutation
        with pytest.raises(ValueError, match="at least one pair"):
            ensemble_ies(linear_field(-np.eye(2)), [], 5.0,
                         IntegratorConfig(max_time=5.0, step=0.05))

    @pytest.mark.parametrize("skip", [np.nan, 1.0, 1.5, -3.0])
    def test_transient_skip_refused_before_integrating(self, skip, monkeypatch):
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated before checking transient_skip")

        monkeypatch.setattr("ieskit.estimator.flow_differences", no_integration)
        pairs = sample_pairs_box([[-1, 1]] * 2, 2, seed=0)
        with pytest.raises(ValueError, match="transient_skip"):
            ensemble_ies(linear_field(-np.eye(2)), pairs, 5.0,
                         IntegratorConfig(max_time=5.0, step=0.05), transient_skip=skip)

    def test_csv_exports(self, tmp_path):
        field = linear_field(-np.eye(2))
        pairs = sample_pairs_box([[-1, 1]] * 2, 3, seed=0)
        report = ensemble_ies(field, pairs, 5.0,
                              IntegratorConfig(max_time=5.0, step=0.05))
        d_path = tmp_path / "distances.csv"
        s_path = tmp_path / "summary.csv"
        write_distance_csv(d_path, report.results)
        write_summary_csv(s_path, report.results)
        d_lines = d_path.read_text().splitlines()
        assert d_lines[0] == "pair_id,t,distance"
        assert d_lines[1].startswith("0,0.0,")
        s_lines = s_path.read_text().splitlines()
        assert s_lines[0] == "pair_id,K,lambda,verdict"
        assert len(s_lines) == 4
        assert all(line.endswith(CONTRACTING) for line in s_lines[1:])


class TestWiesScan:
    def test_linear_system_uniform_rate_across_radii(self):
        field = linear_field(-np.eye(2))
        report = wies_scan(field, [1.0, 3.0, 6.0], 5, 12.0,
                           IntegratorConfig(max_time=12.0, step=0.02), seed=0)
        assert report.lambda_floor == pytest.approx(1.0, abs=0.05)
        assert all(k == pytest.approx(1.0, abs=0.05) for k in report.gain_profile)

    def test_fig3_scan_has_positive_rate_floor(self):
        field = assemble(fhn_field(figure_params(3)))
        report = wies_scan(field, [1.0, 3.0, 6.0, 10.0], 4, 40.0,
                           IntegratorConfig(max_time=40.0, step=0.02), seed=0)
        assert report.lambda_floor > 0.0
        assert len(report.gain_profile) == 4

    def test_expanding_system_never_contracts(self):
        field = linear_field(0.3 * np.eye(2))
        report = wies_scan(field, [1.0, 2.0], 4, 10.0,
                           IntegratorConfig(max_time=10.0, step=0.02), seed=0)
        for radius_report in report.per_radius:
            assert all(v != CONTRACTING for v in radius_report.verdicts)

    @pytest.mark.parametrize("radii", [[0.0, 1.0], [-1.0, 1.0], [1.0, np.inf],
                                       [np.nan, 1.0], [1.0, np.nan]])
    def test_radii_must_be_positive_and_finite(self, radii, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking the radii")

        monkeypatch.setattr("ieskit.estimator.sample_pairs_ball", no_sampling)
        with pytest.raises(ValueError, match="radii must be positive and finite"):
            wies_scan(linear_field(-np.eye(2)), radii, 2, 5.0,
                      IntegratorConfig(max_time=5.0, step=0.05), seed=0)

    @pytest.mark.parametrize("pairs_per_radius", [0, -3])
    def test_radius_without_pairs_refused(self, pairs_per_radius):
        with pytest.raises(ValueError, match="pairs_per_radius must be at least 1"):
            wies_scan(linear_field(-np.eye(2)), [1.0, 2.0], pairs_per_radius, 5.0,
                      IntegratorConfig(max_time=5.0, step=0.05), seed=0)

    def test_radii_must_increase(self):
        field = linear_field(-np.eye(1))
        with pytest.raises(ValueError, match="increasing"):
            wies_scan(field, [2.0, 1.0], 2, 5.0,
                      IntegratorConfig(max_time=5.0, step=0.05), seed=0)
