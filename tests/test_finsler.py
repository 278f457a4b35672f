import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ieskit.dynsys import TimeVaryingField, assemble, linear_field
from ieskit.finsler import (
    DisplacementSamples,
    FinslerCandidate,
    check_decay,
    check_sandwich,
    compose,
)
from ieskit.fhn import (
    fc_candidate,
    fhn_field,
    figure_params,
    build_fc,
    x_subsystem,
    y_subsystem,
)
from ieskit.polynomials import polynomial_field
from oracles import grad_disp, grad_state, vdot


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


def samples_on_box(dim, half_width, n_states=32):
    bounds = np.array([[-half_width, half_width]] * dim)
    return DisplacementSamples.product_box(bounds, n_states)


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
        report = check_sandwich(v1, DisplacementSamples(xs))
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
        empty = DisplacementSamples(np.empty((0, 1)))
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
        samples = samples_on_box(1, 4.0, n_states=64)
        report = check_decay(v1, field, params.alpha, samples)
        assert report.passed

    def test_coupled_composite_fails_at_unit_gains(self):
        p = figure_params(1)
        table = build_fc(p)
        v1, v2 = fc_candidate(table)
        composite = compose(v1, v2)
        field = assemble(fhn_field(p))
        samples = samples_on_box(2, 3.0, n_states=100)
        report = check_decay(composite, field, 0.05, samples)
        assert not report.passed
        assert report.worst > 0

    def test_worst_direction_between_sampled_ones_is_found(self):
        # at figure-2 parameters and gains 0.01, sixteen sampled unit
        # directions per state all read -0.050; the top eigenvector of Q at
        # one of the same 83 states violates the decay inequality
        p = figure_params(2)
        composite = compose(*fc_candidate(build_fc(p)))
        field = assemble(fhn_field(p).with_gains(0.01, 0.01))
        samples = DisplacementSamples.product_ball(2.0, 2, 64)
        report = check_decay(composite, field, 0.05, samples)
        assert not report.passed and report.n_samples == len(samples) == 83
        assert report.worst == pytest.approx(0.0037, abs=1e-4)
        np.testing.assert_allclose(report.worst_z, [-1.219, 0.173], atol=1e-3)
        z, dz = report.worst_z, report.worst_dz
        at_worst = (vdot(composite, field, 0.0, z, dz) + 0.05
                    - 1e-9 * (1.0 + composite.value(z, dz)))
        assert at_worst == pytest.approx(report.worst, abs=1e-12)

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
        zs = samples_on_box(2, 2.0).zs
        assert cand.gamma(zs).tobytes() == np.zeros(len(zs)).tobytes()
        assert np.array_equal(cand.zeta(zs), np.ones(len(zs)))

    def test_fhn_weight_bounds(self, default_table):
        v1, v2 = fc_candidate(default_table)
        s = default_table.s_star
        xs = np.linspace(-1.5 * s, 1.5 * s, 257).reshape(-1, 1)
        gamma, zeta = v1.gamma(xs), v1.zeta(xs)
        # bit for bit |f_c'| and 2 f_c, the bounds of the excitable block
        assert gamma.tobytes() == np.abs(default_table.fc_prime(xs[:, 0])).tobytes()
        assert zeta.tobytes() == (2.0 * default_table.fc(xs[:, 0])).tobytes()
        # the pointwise bounds are below the global constants
        assert np.all(gamma <= default_table.eta * (1 + 1e-9))
        assert np.all(zeta <= 2 * default_table.left_plateau * (1 + 1e-12))
        # the recovery block's gamma is +0.0, never -0.0, and its zeta 1
        assert v2.gamma(xs).tobytes() == np.zeros(len(xs)).tobytes()
        assert np.array_equal(v2.zeta(xs), np.ones(len(xs)))


# relative slack of the derived-bound inequalities: for d <= 3 each side is
# a sum of at most about 13 rounded terms whose absolute values add up to at
# most the bound, so rounding moves it by at most about 13 ulps of the bound;
# 1e-13, about 450 ulps, leaves a factor of 30
BOUND_SLACK = 1e-13


@st.composite
def symmetric_metrics(draw):
    """M(z) = A + sum_k (z_k A_k + z_k^2 B_k), with random symmetric A, A_k
    and B_k in d = 1-3, so dM/dz_k = A_k + 2 z_k B_k; with 32 random (z, dz).
    The inequalities hold for any symmetric M, so M need not be definite."""
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def symmetric(n):
        a = rng.normal(size=(n, d, d)) * rng.uniform(0.1, 10.0)
        return a + np.swapaxes(a, -1, -2)

    a, lin, sq = symmetric(1)[0], symmetric(d), symmetric(d)

    def metric(z):
        return a + np.einsum("...k,kij->...ij", z, lin) + np.einsum("...k,kij->...ij", z * z, sq)

    def metric_grad(z):
        return np.einsum("kij->ijk", lin) + 2.0 * np.einsum("...k,kij->...ijk", z, sq)

    zs, dzs = rng.normal(size=(2, 32, d)) * rng.uniform(0.1, 4.0, size=(2, 1, 1))
    return FinslerCandidate(d, metric, metric_grad, 1.0, 1.0), zs, dzs


@given(case=symmetric_metrics())
@settings(max_examples=100, deadline=None)
def test_derived_bounds_hold_on_random_symmetric_metrics(case):
    cand, zs, dzs = case
    gamma, zeta = cand.gamma(zs), cand.zeta(zs)
    q = np.sum(dzs * dzs, axis=-1)
    assert gamma.shape == zeta.shape == (len(zs),)
    state = np.linalg.norm(grad_state(cand, zs, dzs), axis=-1)
    disp = np.linalg.norm(grad_disp(cand, zs, dzs), axis=-1)
    assert np.all(state <= gamma * q * (1.0 + BOUND_SLACK))
    assert np.all(disp <= zeta * np.sqrt(q) * (1.0 + BOUND_SLACK))
    if cand.dim == 1:  # bit for bit |M'| and 2 |M|
        assert gamma.tobytes() == np.abs(cand.metric_grad(zs)[:, 0, 0, 0]).tobytes()
        assert zeta.tobytes() == (2.0 * np.abs(cand.metric(zs)[:, 0, 0])).tobytes()


# relative slack of the exact checks against the per-direction forms: Q and
# each side are sums of at most about 40 rounded products for d <= 3, and
# eigh is backward stable, so each side is within a few hundred ulps of the
# sum of absolute terms; 1e-12, about 4500 ulps, leaves a factor of 10
EXACT_SLACK = 1e-12


@st.composite
def metrics_with_fields(draw):
    """A random symmetric metric as above, with a linear or a cubic
    polynomial field of its dimension and 32 random (z, dz)."""
    cand, zs, dzs = draw(symmetric_metrics())
    d = cand.dim
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return cand, linear_field(rng.normal(size=(d, d))), zs, dzs
    components = tuple(
        tuple((float(rng.normal()), tuple(int(e) for e in rng.integers(0, 4, d)))
              for _ in range(rng.integers(1, 5)))
        for _ in range(d))
    return cand, polynomial_field(components), zs, dzs


@given(case=metrics_with_fields(), alpha=st.floats(0.0, 2.0))
@settings(max_examples=100, deadline=None)
def test_exact_checks_bound_every_direction(case, alpha):
    cand, field, zs, dzs = case
    units = dzs / np.linalg.norm(dzs, axis=-1, keepdims=True)
    samples = DisplacementSamples(zs)
    m, dm = cand.metric(zs), cand.metric_grad(zs)
    jac, f = field.jacobian(0.0, zs), field.rhs(0.0, zs)
    # the sum of absolute terms of Q = M J + J^T M + sum_k dM/dz_k f_k, per state
    scale = (2.0 * np.sum(np.abs(m) @ np.abs(jac), axis=(-2, -1))
             + np.sum(np.abs(dm) @ np.abs(f)[:, None, :, None], axis=(-3, -2, -1)) + alpha)

    decay = check_decay(cand, field, alpha, samples, tol=0.0)
    sampled = vdot(cand, field, 0.0, zs, units) + alpha
    assert np.all(decay.worst >= sampled - EXACT_SLACK * scale)
    k, v = decay.worst_index, decay.worst_dz
    at_worst = vdot(cand, field, 0.0, zs[k], v) + alpha * (v @ v)
    assert abs(at_worst - decay.worst) <= EXACT_SLACK * scale[k]

    sandwich = check_sandwich(cand, samples)
    value = cand.value(zs, units)
    m_scale = EXACT_SLACK * (np.sum(np.abs(m), axis=(-2, -1)) + 1.0)
    assert np.all(sandwich.lower_margin <= value - cand.c_lower + m_scale)
    assert np.all(sandwich.upper_margin <= cand.c_upper - value + m_scale)

    if cand.dim == 1:  # bit for bit the check over the directions +1 and -1
        ones = np.ones_like(zs)
        both = np.concatenate([ones, -ones], axis=1).reshape(-1, 1)
        zz = np.repeat(zs, 2, axis=0)
        rows = (vdot(cand, field, 0.0, zz, both) + alpha
                - 1e-9 * (1.0 + np.abs(cand.value(zz, both))))
        report = check_decay(cand, field, alpha, samples)
        assert report.worst == rows.max() and report.worst_index == rows.argmax() // 2


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
        gs = grad_state(c, z, dz)
        np.testing.assert_allclose(gs[:1], grad_state(v1, z[:1], dz[:1]))
        np.testing.assert_allclose(gs[1:], grad_state(v2, z[1:], dz[1:]))


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
        "grad_state": np.concatenate([grad_state(v1, x, dx), grad_state(v2, y, dy)], axis=-1),
        "grad_disp": np.concatenate([grad_disp(v1, x, dx), grad_disp(v2, y, dy)], axis=-1),
    }
    got = {"value": c.value(z, dz), "grad_state": grad_state(c, z, dz),
           "grad_disp": grad_disp(c, z, dz)}
    for name, parts in want.items():
        assert got[name].shape == parts.shape and got[name].tobytes() == parts.tobytes(), name


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
