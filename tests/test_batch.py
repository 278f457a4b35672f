"""The batched state contract: fields take states of shape (..., d), and one
solver loop integrates a batch (N, d) with the same results row by row as
one state at a time."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ieskit.dynsys import (
    ADAPTIVE_EMBEDDED,
    IntegratorConfig,
    TimeVaryingField,
    assemble,
    integrate,
    linear_coupling,
    linear_field,
)
from ieskit.estimator import CONTRACTING, ensemble_ies
from ieskit.fhn import fhn_field, figure_params
from ieskit.polynomials import PolynomialMap, polynomial_field

# dz/dt = z^3 - z: rows starting inside (-1, 1) contract to 0, rows outside
# blow up in finite time
CUBIC = TimeVaryingField(1, lambda t, z: z**3 - z,
                         lambda t, z: np.array([[3.0 * z[0] ** 2 - 1.0]]))

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


@given(pmap=polynomial_maps(), n=st.integers(min_value=1, max_value=8),
       seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None)
def test_polynomial_rhs_batch_matches_points(pmap, n, seed):
    z = np.random.default_rng(seed).uniform(-3.0, 3.0, (n, pmap.in_dim))
    field = polynomial_field(pmap.components)
    single = np.array([field.rhs(0.0, v) for v in z])
    magnitudes = PolynomialMap(
        in_dim=pmap.in_dim,
        components=tuple(tuple((abs(c), e) for c, e in comp) for comp in pmap.components),
    )
    scale = magnitudes(np.abs(z))
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
        mixed = ensemble_ies(CUBIC, [GOOD_PAIR, BAD_PAIR], 5.0, cfg)
        alone = ensemble_ies(CUBIC, [GOOD_PAIR], 5.0, cfg)
        assert [r.blew_up for r in mixed.results] == [False, True]
        assert mixed.inconclusive and not mixed.passed
        good, ref = mixed.results[0].series, alone.results[0].series
        assert np.array_equal(good.times, ref.times)
        assert np.array_equal(good.values, ref.values)
        assert mixed.results[0].fit == alone.results[0].fit

    def test_dopri_good_pair_still_contracts(self):
        cfg = IntegratorConfig(max_time=5.0, method=ADAPTIVE_EMBEDDED,
                               atol=1e-9, rtol=1e-6)
        mixed = ensemble_ies(CUBIC, [GOOD_PAIR, BAD_PAIR], 5.0, cfg)
        assert [r.blew_up for r in mixed.results] == [False, True]
        assert mixed.results[0].fit.verdict == CONTRACTING
        assert mixed.results[0].series.times[-1] == 5.0


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 1), (3,), (0, 2)])
def test_batch_of_wrong_shape_rejected(shape):
    field = assemble(fhn_field(figure_params(1)))
    with pytest.raises(ValueError, match="shape"):
        integrate(field, 0.0, np.ones(shape), IntegratorConfig(max_time=1.0, step=0.01))
