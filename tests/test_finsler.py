import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ieskit.dynsys import TimeVaryingField, assemble, linear_field
from ieskit.finsler import (
    AssumptionTwoBounds,
    DisplacementSamples,
    FinslerCandidate,
    check_decay,
    check_sandwich,
    compose,
    vdot,
    verify_assumption2,
)
from ieskit.fhn import (
    assumption2_bounds,
    fc_candidate,
    fhn_field,
    figure_params,
    build_fc,
    x_subsystem,
    y_subsystem,
)
from ieskit.sampling import halton_sphere


def constant(value):
    """The map z -> value at every point of a batch z of shape (..., d)."""
    value = np.asarray(value, dtype=float)
    return lambda z: np.broadcast_to(value, np.shape(z)[:-1] + value.shape)


def half_norm_candidate(dim):
    return FinslerCandidate(
        dim,
        metric=constant(0.5 * np.eye(dim)),
        metric_grad=constant(np.zeros((dim, dim, dim))),
        c_lower=0.5,
        c_upper=0.5,
    )


def samples_on_box(dim, half_width, n_states=32, n_dirs=8):
    bounds = np.array([[-half_width, half_width]] * dim)
    return DisplacementSamples.product_box(bounds, n_states, n_dirs)


class TestVdot:
    def test_half_norm_on_linear_contraction(self):
        cand = half_norm_candidate(2)
        field = linear_field(-np.eye(2))
        dz = np.array([0.3, -0.4])
        got = vdot(cand, field, 0.0, np.array([1.0, 2.0]), dz)
        assert got == pytest.approx(-float(dz @ dz), rel=1e-12)

    def test_recovery_block_exact(self):
        p = figure_params(1)
        _, v2 = fc_candidate(build_fc(p))
        field = y_subsystem(p)
        dy = np.array([0.7])
        got = vdot(v2, field, 0.0, np.array([0.3]), dy)
        assert got == pytest.approx(-(p.b / p.epsilon) * dy[0] ** 2, rel=1e-14)

    def test_excitable_block_exact_decay_interior(self, default_table):
        params = default_table.params
        v1, _ = fc_candidate(default_table)
        field = x_subsystem(params)
        rng = np.random.default_rng(7)
        xs = rng.uniform(-params.s_star * 0.999, params.s_star * 0.999, size=200)
        for x in xs:
            z, dz = np.array([x]), np.array([1.0])
            vd = vdot(v1, field, 0.0, z, dz)
            val = v1.value(z, dz)
            assert abs(vd + params.alpha * val) <= 1e-9 * val


class TestSandwich:
    def test_plain_quadratic_passes(self):
        cand = FinslerCandidate(2, constant(2.0 * np.eye(2)),
                                constant(np.zeros((2, 2, 2))), 1.0, 3.0)
        report = check_sandwich(cand, samples_on_box(2, 1.0))
        assert report.passed
        assert report.lower_margin > 0
        assert report.upper_margin > 0

    def test_fhn_weight_candidate_passes_on_grid(self, default_table):
        v1, _ = fc_candidate(default_table)
        xs = np.linspace(-5.0, 5.0, 101).reshape(-1, 1)
        dirs = np.tile([[1.0]], (len(xs), 1))
        samples = DisplacementSamples.from_points(xs, dirs)
        report = check_sandwich(v1, samples)
        assert report.passed

    def test_deliberate_violation_fails(self):
        cand = FinslerCandidate(2, constant(np.eye(2)),
                                constant(np.zeros((2, 2, 2))), 2.0, 3.0)
        report = check_sandwich(cand, samples_on_box(2, 1.0))
        assert not report.passed
        assert report.lower_margin < 0
        assert "violated" in report.note

    def test_empty_set_rejected(self):
        cand = half_norm_candidate(1)
        empty = DisplacementSamples(np.empty((0, 1)), np.empty((0, 1)))
        with pytest.raises(ValueError, match="nonempty"):
            check_sandwich(cand, empty)


class TestDecay:
    def test_recovery_block_equality_at_zero_tolerance(self):
        p = figure_params(1)
        _, v2 = fc_candidate(build_fc(p))
        field = y_subsystem(p)
        samples = samples_on_box(1, 3.0)
        report = check_decay(v2, field, p.b / p.epsilon, samples, tol=0.0)
        assert report.passed
        assert report.worst <= 1e-14

    def test_nan_tolerance_fails_and_names_the_sample(self):
        p = figure_params(1)
        _, v2 = fc_candidate(build_fc(p))
        samples = samples_on_box(1, 3.0)
        assert check_decay(v2, y_subsystem(p), p.b / p.epsilon, samples).passed
        report = check_decay(v2, y_subsystem(p), p.b / p.epsilon, samples,
                             tol=float("nan"))
        assert not report.passed
        assert report.note == f"decay violated at sample {report.worst_index}"

    def test_excitable_block_decay(self, default_table):
        params = default_table.params
        v1, _ = fc_candidate(default_table)
        field = x_subsystem(params)
        samples = samples_on_box(1, 4.0, n_states=64, n_dirs=2)
        report = check_decay(v1, field, params.alpha, samples)
        assert report.passed

    def test_coupled_composite_fails_at_unit_gains(self):
        p = figure_params(1)
        table = build_fc(p)
        v1, v2 = fc_candidate(table)
        composite = compose(v1, v2)
        field = assemble(fhn_field(p))
        samples = samples_on_box(2, 3.0, n_states=100, n_dirs=12)
        report = check_decay(composite, field, 0.05, samples)
        assert not report.passed
        assert report.worst > 0

    def test_monotone_in_alpha(self, default_table):
        params = default_table.params
        v1, _ = fc_candidate(default_table)
        field = x_subsystem(params)
        samples = samples_on_box(1, 2.0)
        strong = check_decay(v1, field, params.alpha, samples)
        weak = check_decay(v1, field, params.alpha / 3.0, samples)
        assert strong.passed
        assert weak.passed
        assert weak.worst <= strong.worst


class TestAssumptionTwo:
    def test_half_norm_bounds(self):
        cand = half_norm_candidate(2)
        bounds = AssumptionTwoBounds(gamma=constant(0.0), zeta=constant(1.0))
        report = verify_assumption2(cand, bounds, samples_on_box(2, 2.0))
        assert report.passed

    def test_fhn_weight_bounds(self, default_table):
        v1, _ = fc_candidate(default_table)
        bounds1, _ = assumption2_bounds(default_table)
        s = default_table.s_star
        xs = np.linspace(-s, s, 257).reshape(-1, 1)
        dirs = halton_sphere(1, 4)
        zz = np.repeat(xs, len(dirs), axis=0)
        dd = np.tile(dirs, (len(xs), 1))
        report = verify_assumption2(
            v1, bounds1, DisplacementSamples.from_points(zz, dd)
        )
        assert report.passed
        eta = default_table.eta
        e_mu = default_table.left_plateau
        # the pointwise bounds are below the global constants
        assert all(abs(default_table.fc_prime(x)) <= eta * (1 + 1e-9) for x in xs[:, 0])
        assert all(2 * default_table.fc(x) <= 2 * e_mu * (1 + 1e-12) for x in xs[:, 0])

    def test_undersized_zeta_fails(self):
        cand = half_norm_candidate(2)
        bounds = AssumptionTwoBounds(gamma=constant(0.0), zeta=constant(0.25))
        report = verify_assumption2(cand, bounds, samples_on_box(2, 2.0))
        assert not report.passed
        assert report.disp_margin < 0


class TestCompose:
    def test_two_half_norms(self):
        a = half_norm_candidate(1)
        b = half_norm_candidate(1)
        c = compose(a, b)
        z = np.array([0.5, -0.5])
        dz = np.array([1.0, 2.0])
        assert c.value(z, dz) == pytest.approx(0.5 * (1.0 + 4.0))
        assert c.c_lower == 0.5 and c.c_upper == 0.5

    def test_fhn_constants(self, default_table):
        v1, v2 = fc_candidate(default_table)
        c = compose(v1, v2)
        assert c.c_lower == 0.5
        assert c.c_upper == pytest.approx(default_table.left_plateau)

    def test_gradients_concatenate(self, default_table):
        v1, v2 = fc_candidate(default_table)
        c = compose(v1, v2)
        z = np.array([0.2, 1.0])
        dz = np.array([0.5, -0.3])
        gs = c.grad_state(z, dz)
        np.testing.assert_allclose(gs[:1], v1.grad_state(z[:1], dz[:1]))
        np.testing.assert_allclose(gs[1:], v2.grad_state(z[1:], dz[1:]))


@given(
    x=st.floats(-2.0, 2.0),
    y=st.floats(-2.0, 2.0),
    dx=st.floats(-3.0, 3.0),
    dy=st.floats(-3.0, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_composition_additivity_exact(x, y, dx, dy, default_table):
    v1, v2 = fc_candidate(default_table)
    c = compose(v1, v2)
    z, dz = np.array([x, y]), np.array([dx, dy])
    total = c.value(z, dz)
    parts = v1.value(z[:1], dz[:1]) + v2.value(z[1:], dz[1:])
    assert total == parts


def batch(n, width):
    """An (n, 2) batch of finite floats in [-width, width]."""
    return arrays(np.float64, (n, 2), elements=st.floats(-width, width))


@given(states=st.integers(1, 12).flatmap(lambda n: st.tuples(batch(n, 4.0), batch(n, 3.0))))
@settings(max_examples=60, deadline=None)
def test_composite_is_bitwise_its_blocks_on_batches(states, default_table):
    # compose's block-diagonal metric gives, element for element and bit for
    # bit, the sum of the block values and the concatenated block gradients
    z, dz = states
    v1, v2 = fc_candidate(default_table)
    c = compose(v1, v2)
    x, dx, y, dy = z[:, :1], dz[:, :1], z[:, 1:], dz[:, 1:]
    want = {
        "value": v1.value(x, dx) + v2.value(y, dy),
        "grad_state": np.concatenate([v1.grad_state(x, dx), v2.grad_state(y, dy)], axis=-1),
        "grad_disp": np.concatenate([v1.grad_disp(x, dx), v2.grad_disp(y, dy)], axis=-1),
    }
    for name, parts in want.items():
        got = getattr(c, name)(z, dz)
        assert got.shape == parts.shape and got.tobytes() == parts.tobytes(), name


@given(
    x=st.floats(-4.0, 4.0),
    y=st.floats(-4.0, 4.0),
    dx=st.floats(-1.0, 1.0),
    dy=st.floats(-1.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_composition_preserves_sandwich(x, y, dx, dy, default_table):
    v1, v2 = fc_candidate(default_table)
    c = compose(v1, v2)
    z, dz = np.array([x, y]), np.array([dx, dy])
    q = float(dz @ dz)
    v = c.value(z, dz)
    assert c.c_lower * q - 1e-12 <= v <= c.c_upper * q + 1e-12


def test_quadratic_vdot_matches_generic():
    def metric(z):
        x, y = z[..., 0], z[..., 1]
        m = np.empty(np.shape(z)[:-1] + (2, 2))
        m[..., 0, 0] = 1.0 + 0.5 * np.sin(x) ** 2
        m[..., 0, 1] = m[..., 1, 0] = 0.1 * y
        m[..., 1, 1] = 2.0 + y**2
        return m

    def metric_grad(z):
        # [..., i, j, k] = dM_ij / dz_k
        x, y = z[..., 0], z[..., 1]
        dm = np.zeros(np.shape(z)[:-1] + (2, 2, 2))
        dm[..., 0, 0, 0] = np.sin(x) * np.cos(x)
        dm[..., 0, 1, 1] = 0.1
        dm[..., 1, 0, 1] = 0.1
        dm[..., 1, 1, 1] = 2.0 * y
        return dm

    cand = FinslerCandidate(2, metric, metric_grad, 0.5, 10.0)

    def rhs(t, z):
        x, y = z[..., 0], z[..., 1]
        return np.stack([-x + 0.3 * y**2, -2.0 * y + 0.1 * x], axis=-1)

    def jac(t, z):
        j = np.empty(np.shape(z) + (2,))
        j[..., 0, 0], j[..., 0, 1] = -1.0, 0.6 * z[..., 1]
        j[..., 1, 0], j[..., 1, 1] = 0.1, -2.0
        return j

    field = TimeVaryingField(2, rhs, jac)
    rng = np.random.default_rng(3)
    for _ in range(25):
        z = rng.uniform(-2, 2, 2)
        dz = rng.uniform(-2, 2, 2)
        a = vdot(cand, field, 0.0, z, dz)
        # dz^T (Mdot + M J + J^T M) dz, with Mdot_ij = sum_k dM_ij/dz_k f_k
        m, j = metric(z), jac(0.0, z)
        mdot = metric_grad(z) @ rhs(0.0, z)
        b = dz @ (mdot + m @ j + j.T @ m) @ dz
        assert a == pytest.approx(b, rel=1e-10, abs=1e-12)


def test_quadratic_homogeneity(default_table):
    v1, _ = fc_candidate(default_table)
    z = np.array([0.4])
    dz = np.array([1.3])
    assert v1.value(z, 2.5 * dz) == pytest.approx(2.5**2 * v1.value(z, dz), rel=1e-14)
    assert v1.value(z, np.zeros(1)) == 0.0
