import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ieskit.dynsys import assemble
from ieskit.fhn import (
    FhnParams,
    build_fc,
    check_weight_domain,
    fc_candidate,
    fhn_field,
    figure_params,
    write_fc_csv,
    x_subsystem,
)
from oracles import vdot


def special_points(table):
    """Signed zeros and infinities, NaN, +-s* with their neighbours, and
    fixed points inside, near both ends and in the middle."""
    s, inf = table.s_star, np.inf
    inside = [f * s for f in (-0.999, -0.99, -0.5, -0.1, 0.1, 0.5, 0.99, 0.999)]
    near = [np.nextafter(e, to).item() for e in (s, -s) for to in (-inf, inf)]
    return [0.0, -0.0, inf, -inf, np.nan, s, -s, *near, -1.0, 1.0, *inside]


def assert_scalar_query_is_array_query(table, x):
    """Every scalar query of the weight, as a Python float and as an
    np.float64, returns a Python float bitwise the one-element array
    query's value."""
    queries = {"fc": table.fc, "fc_prime": table.fc_prime, "ratio": table._ratio,
               "fc_pair.value": lambda v: table.fc_pair(v)[0],
               "fc_pair.slope": lambda v: table.fc_pair(v)[1]}
    for name, query in queries.items():
        want = query(np.array([x]))[0].tobytes()
        for arg in (float(x), np.float64(x)):
            got = query(arg)
            assert type(got) is float, (name, arg)
            assert np.float64(got).tobytes() == want, (name, arg)


def composite_gauss_legendre(fn, a, b, panels=512, order=10):
    """Independent quadrature oracle: composite Gauss-Legendre on uniform panels."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = mid[:, None] + half[:, None] * nodes[None, :]
    vals = fn(pts.ravel()).reshape(pts.shape)
    return float(np.sum(half * (vals @ weights)))


def log_slope(params):
    c, alpha, s = params.c, params.alpha, params.s_star

    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.where(
            np.abs(x) < s, (2 * x * x - 2 - alpha) / (x - x**3 / 3 + c), 0.0
        )

    return fn


class TestParams:
    def test_c_identity_and_alpha_range(self):
        p = FhnParams(b=1.0, rho1=1.0, rho2=1.0, epsilon=0.9, r=2.1, alpha=1.0)
        assert p.c == p.r**3 - p.r
        assert 0.0 < p.alpha < 2 * p.r**2 - 2
        assert p.s_star < p.r

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            FhnParams(b=1.0, rho1=1.0, rho2=1.0, epsilon=1.0, r=2.1, alpha=7.0)
        with pytest.raises(ValueError, match="alpha"):
            FhnParams(b=1.0, rho1=1.0, rho2=1.0, epsilon=1.0, r=2.1, alpha=0.0)

    def test_from_c_recovers_caption_values(self):
        p = FhnParams.from_c(c=1.0, b=0.1, rho1=1.0, rho2=1.0, epsilon=1.0)
        assert p.c == pytest.approx(1.0, abs=1e-14)
        assert p.r == pytest.approx(1.324717957244746, abs=1e-12)

    def test_invalid_scalars_rejected(self):
        with pytest.raises(ValueError):
            FhnParams(b=0.0, rho1=1.0, rho2=1.0, epsilon=1.0, r=2.1)
        with pytest.raises(ValueError):
            FhnParams(b=1.0, rho1=1.0, rho2=1.0, epsilon=0.0, r=2.1)
        with pytest.raises(ValueError):
            FhnParams(b=1.0, rho1=-0.5, rho2=1.0, epsilon=1.0, r=2.1)

    @pytest.mark.parametrize("name, value, match", [
        ("b", np.nan, "b must be positive"),
        ("epsilon", np.nan, "epsilon must be positive"),
        ("rho1", np.nan, "coupling gains"),
        ("rho2", np.nan, "coupling gains"),
        ("r", np.inf, "r must be finite"),
        ("rho1", np.inf, "coupling gains must be finite"),
        ("rho2", np.inf, "coupling gains must be finite"),
    ])
    def test_nan_and_infinite_scalars_rejected(self, name, value, match):
        kwargs = dict(b=1.0, rho1=1.0, rho2=1.0, epsilon=1.0, r=2.1)
        kwargs[name] = value
        with pytest.raises(ValueError, match=match):
            FhnParams(**kwargs)


class TestField:
    def test_value_at_origin_is_stimulus(self):
        p = figure_params(1)
        field = assemble(fhn_field(p))
        val = field.rhs(0.0, np.zeros(2))
        assert val[0] == pytest.approx(1.0, abs=1e-14)
        assert val[1] == 0.0

    def test_decoupled_blocks(self):
        p = FhnParams(b=0.5, rho1=0.0, rho2=0.0, epsilon=2.0, r=2.1)
        field = assemble(fhn_field(p))
        z = np.array([1.0, 2.0])
        val = field.rhs(0.0, z)
        assert val[0] == pytest.approx(1.0 - 1.0 / 3.0 + p.c)
        assert val[1] == pytest.approx(-0.5 * 2.0 / 2.0)

    def test_jacobian_closed_form_and_finite_difference(self):
        p = figure_params(3)
        field = assemble(fhn_field(p))
        x, y = 0.8, -0.6
        jac = field.jacobian(0.0, np.array([x, y]))
        expected = np.array(
            [[1 - x**2, -p.rho1], [p.rho2 / p.epsilon, -p.b / p.epsilon]]
        )
        np.testing.assert_allclose(jac, expected, rtol=1e-14)
        h = 1e-6
        fd = np.empty((2, 2))
        for i in range(2):
            zp = np.array([x, y])
            zm = zp.copy()
            zp[i] += h
            zm[i] -= h
            fd[:, i] = (field.rhs(0.0, zp) - field.rhs(0.0, zm)) / (2 * h)
        np.testing.assert_allclose(jac, fd, atol=1e-8)


class TestWeightTable:
    def test_slope_vanishes_at_band_edges(self, default_params):
        slope = log_slope(default_params)
        s = default_params.s_star
        assert slope(s) == 0.0
        assert slope(-s) == 0.0
        assert abs(slope(s * 0.9999999)) < 1e-4

    def test_dual_quadrature_agreement(self, default_params, default_table):
        s = default_params.s_star
        mu_oracle = -composite_gauss_legendre(log_slope(default_params), -s, s)
        assert abs(default_table.mu - mu_oracle) < 1e-8

    def test_plateaus_exact(self, default_table):
        s = default_table.s_star
        assert default_table.fc(s) == 1.0
        assert default_table.fc(s + 2.0) == 1.0
        assert default_table.fc(-s) == default_table.left_plateau
        assert default_table.fc(-s - 2.0) == default_table.left_plateau
        assert default_table.fc_prime(s) == 0.0
        assert default_table.fc_prime(-s - 1.0) == 0.0

    def test_bounds_and_monotonicity(self, default_table):
        xs = np.linspace(-6.0, 6.0, 2001)
        vals = default_table.fc(xs)
        assert np.all(vals >= 1.0 - 1e-12)
        assert np.all(vals <= default_table.left_plateau + 1e-12)
        assert np.all(np.diff(vals) <= 1e-12)
        ders = default_table.fc_prime(xs)
        assert np.all(ders <= 1e-12)
        assert np.all(ders >= -default_table.eta * (1 + 1e-9))

    def test_mu_positive_and_midpoint_interior(self, default_table):
        assert default_table.mu > 0.0
        mid = default_table.fc(0.0)
        assert 1.0 < mid < default_table.left_plateau

    def test_eta_attained_on_fine_grid(self, default_table):
        s = default_table.s_star
        xs = np.linspace(-s, s, 20001)
        grid_min = float(np.min(default_table.fc_prime(xs)))
        assert -default_table.eta <= grid_min + 1e-12
        assert abs(grid_min - (-default_table.eta)) < 1e-6

    def test_interpolation_matches_direct_quadrature(self, default_params, default_table):
        # off-grid fidelity oracle: fresh cumulative quadrature from s* to x
        slope = log_slope(default_params)
        s = default_params.s_star
        rng = np.random.default_rng(11)
        xs = rng.uniform(-s, s, size=100)
        for x in xs:
            direct = np.exp(composite_gauss_legendre(slope, s, float(x), panels=256))
            assert abs(float(default_table.fc(x)) - direct) < 1e-7

    def test_c1_matching_at_band_edges(self, default_table):
        # the weight meets its plateaus with zero slope
        s, table = default_table.s_star, default_table
        assert table.fc_prime(s) == 0.0
        assert table.fc_prime(-s) == 0.0
        assert abs((table.fc(-s + 1e-4) - table.fc(-s)) / 1e-4) < 5e-4

    def test_positivity_violation_rejected(self):
        # small stimulus: the cubic term dips non-positive inside the band
        # even though the exponent rate itself is admissible
        p = FhnParams.from_c(c=0.5, b=1.0, rho1=1.0, rho2=1.0, epsilon=1.0,
                             alpha=0.5)
        with pytest.raises(ValueError, match="positive"):
            build_fc(p)

    def test_scalar_weight_is_the_one_element_array_weight_bitwise(self, default_table):
        """A scalar query runs on a 0-d array, so its cube is still an array
        power: on a SIMD build that differs in the last bit from a Python or
        numpy-scalar ``**`` for some positive bases, and takes a scalar pow
        for negative ones, so both signs are checked.  A scalar cube would
        change about 5 in 1 000 positive points here.  Points out to 3 s*
        reach the plateaus."""
        s = default_table.s_star
        rng = np.random.default_rng(5)
        xs, wide = rng.uniform(0.0, s, 2000), rng.uniform(-3 * s, 3 * s, 500)
        for x in [*xs.tolist(), *(-xs).tolist(), *wide.tolist(),
                  *special_points(default_table)]:
            assert_scalar_query_is_array_query(default_table, x)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_scalar_queries_are_array_queries_bitwise(self, default_table, data):
        s = default_table.s_star
        x = data.draw(st.one_of(st.sampled_from(special_points(default_table)),
                                st.floats(-1.5 * s, 1.5 * s), st.floats()))
        assert_scalar_query_is_array_query(default_table, x)

    def test_clamp_is_bitwise_np_clip(self, default_table):
        s, table = default_table.s_star, default_table
        xs = np.concatenate([np.random.default_rng(2).uniform(-2 * s, 2 * s, 2000),
                             [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, s, -s,
                              np.nextafter(s, 0), np.nextafter(-s, 0), 5e-324, -5e-324]])
        inner = np.exp(table._log_weight(np.clip(xs, -s, s)))
        clipped = np.where(xs >= s, 1.0, np.where(xs <= -s, table.left_plateau, inner))
        assert table.fc(xs).tobytes() == clipped.tobytes()

    def test_csv_export_roundtrip(self, default_table, tmp_path):
        out = tmp_path / "table.csv"
        write_fc_csv(default_table, out)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# mu=")
        assert lines[1] == "x,f_c,f_c_prime"
        row = lines[2].split(",")
        assert float(row[0]) == pytest.approx(-default_table.s_star)
        assert float(row[1]) == pytest.approx(default_table.left_plateau)


class TestCandidates:
    def test_weighted_candidate_zero_at_zero_displacement(self, default_table):
        v1, _ = fc_candidate(default_table)
        for x in (-3.0, 0.0, 1.2):
            assert v1.value(np.array([x]), np.zeros(1)) == 0.0

    def test_exact_decay_interior_and_dissipation_exterior(self, default_table):
        params = default_table.params
        v1, _ = fc_candidate(default_table)
        field = x_subsystem(params)
        s = params.s_star
        rng = np.random.default_rng(5)
        interior = rng.uniform(-s * (1 - 1e-9), s * (1 - 1e-9), size=1000)
        for x in interior:
            z, dz = np.array([x]), np.array([1.0])
            val = v1.value(z, dz)
            resid = vdot(v1, field, 0.0, z, dz) + params.alpha * val
            assert abs(resid) <= 1e-8 * val
        exterior = np.concatenate([
            rng.uniform(s, 6.0, size=500), rng.uniform(-6.0, -s, size=500)
        ])
        for x in exterior:
            z, dz = np.array([x]), np.array([1.0])
            resid = vdot(v1, field, 0.0, z, dz) + params.alpha * v1.value(z, dz)
            assert resid <= 1e-9

    def test_recovery_candidate_rate(self):
        p = figure_params(3)
        table = build_fc(p)
        _, v2 = fc_candidate(table)
        from ieskit.fhn import y_subsystem

        field = y_subsystem(p)
        dy = np.array([2.0])
        got = vdot(v2, field, 0.0, np.array([1.0]), dy)
        assert got == pytest.approx(-(p.b / p.epsilon) * dy[0] ** 2, rel=1e-14)


@given(r=st.floats(1.01, 2.5), share=st.floats(0.01, 0.99))
@settings(max_examples=200, deadline=None)
def test_weight_domain_check_is_the_dense_probe(r, share):
    """The closed-form minimum of x - x^3/3 + c on [-s*, s*] refuses the
    parameters that a 4 097-point probe finds nonpositive, and only those,
    up to the probe's spacing."""
    p = FhnParams(b=1.0, rho1=1.0, rho2=1.0, epsilon=0.9, r=r,
                  alpha=share * (2 * r * r - 2))
    probe = np.linspace(-p.s_star, p.s_star, 4097)
    low = np.min(probe - probe**3 / 3.0 + p.c)
    if abs(low) < 1e-6:
        return
    if low > 0:
        check_weight_domain(p)
    else:
        with pytest.raises(ValueError, match="must be positive"):
            check_weight_domain(p)


@given(r=st.floats(1.3247, 3.0), share=st.floats(0.01, 0.99))
@settings(max_examples=10, deadline=None)
def test_weight_bounds_property(r, share):
    """On admitted (r, alpha): the slope of fc_pair is a central difference
    of fc, f_c is nonincreasing within rounding, -eta bounds f_c' and is
    reached by a grid minimum, and mu is the quadrature oracle's."""
    p = FhnParams(b=1.0, rho1=1.0, rho2=1.0, epsilon=0.9, r=r,
                  alpha=share * (2 * r * r - 2))
    try:
        check_weight_domain(p)
    except ValueError:
        assume(False)
    table, s = build_fc(p), p.s_star
    xs = np.linspace(-s, s, 10_001)
    vals, slope = table.fc_pair(xs)
    assert np.all(vals >= 1.0 - 1e-12)
    assert np.all(vals <= table.left_plateau * (1 + 1e-14))
    assert np.all(np.diff(vals) <= 1e-14 * vals[1:])

    h, inner = 1e-6, xs[50:-50]
    central = (table.fc(inner + h) - table.fc(inner - h)) / (2 * h)
    np.testing.assert_allclose(slope[50:-50], central, rtol=1e-6,
                               atol=1e-6 * table.eta)

    # the coarse grid's minimum, then a 10^4-point grid over its two cells
    k = int(np.argmin(slope))
    fine = np.linspace(xs[max(k - 1, 0)], xs[min(k + 1, len(xs) - 1)], 10_001)
    fine_min = float(np.min(table.fc_prime(fine)))
    assert -table.eta <= min(float(slope[k]), fine_min) + 1e-13 * table.eta
    assert fine_min + table.eta <= 1e-9 * max(1.0, table.eta)

    mu_oracle = -composite_gauss_legendre(log_slope(p), -s, s)
    assert abs(table.mu - mu_oracle) <= 1e-10
