"""FHN parameters as per-row columns: a field built from one parameter set per
state row gives, row by row, bitwise the derivatives, Jacobians and RK4
solves of each set's own field, both solvers take such a field to the end
after a row stops, and a column holding one invalid value is refused."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ieskit.cli import EXIT_BLOWUP, main
from ieskit.dynsys import ADAPTIVE_EMBEDDED, IntegratorConfig, assemble, integrate
from ieskit.fhn import FhnParams, fhn_field, figure_params


@st.composite
def fhn_params(draw):
    """A valid parameter set: a figure preset, or drawn values with zero
    gains among them."""
    if draw(st.booleans()):
        return figure_params(draw(st.sampled_from([1, 2, 3])))
    r = draw(st.floats(min_value=1.2, max_value=2.5))
    gain = st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=2.0)
    return FhnParams(
        b=draw(st.floats(min_value=0.05, max_value=3.0)),
        rho1=draw(gain),
        rho2=draw(gain),
        epsilon=draw(st.floats(min_value=0.2, max_value=2.0)),
        r=r,
        alpha=draw(st.floats(min_value=0.05, max_value=0.95)) * (2.0 * r * r - 2.0),
    )


# 1-4 parameter sets with 1-3 state rows each
SETS = st.lists(st.tuples(fhn_params(), st.integers(min_value=1, max_value=3)),
                min_size=1, max_size=4)


def per_row(sets):
    return [p for p, count in sets for _ in range(count)]


def blocks(sets):
    """(set, its slice of the rows) for every set."""
    start = 0
    for p, count in sets:
        yield p, slice(start, start + count)
        start += count


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@given(sets=SETS, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=40, deadline=None)
def test_rhs_and_jacobian_rows_are_each_sets_own(sets, seed):
    rows = per_row(sets)
    field = assemble(fhn_field(rows))
    z = np.random.default_rng(seed).uniform(-3.0, 3.0, (len(rows), 2))
    rhs, jac = field.rhs(0.5, z), field.jacobian(0.5, z)
    for p, rs in blocks(sets):
        own = assemble(fhn_field(p))
        assert_bitwise(rhs[rs], own.rhs(0.5, z[rs]))
        assert_bitwise(jac[rs], own.jacobian(0.5, z[rs]))


@given(sets=SETS, seed=st.integers(min_value=0, max_value=2**16),
       scale=st.sampled_from([3.0, 1e3]))
@settings(max_examples=25, deadline=None)
def test_rk4_rows_are_each_sets_own_solve(sets, seed, scale):
    # at scale 1e3 some rows blow up and stop while the others go on
    rows = per_row(sets)
    z = np.random.default_rng(seed).uniform(-scale, scale, (len(rows), 2))
    config = IntegratorConfig(max_time=1.0, step=0.05)
    batch = integrate(assemble(fhn_field(rows)), 0.0, z, config)
    for p, rs in blocks(sets):
        own = integrate(assemble(fhn_field(p)), 0.0, z[rs], config)
        for k, j in enumerate(range(rs.start, rs.stop)):
            mine, theirs = batch.row(j), own.row(k)
            assert_bitwise(mine.times, theirs.times)
            assert_bitwise(mine.states, theirs.states)
            assert_bitwise(mine.derivatives, theirs.derivatives)
            assert mine.blew_up == theirs.blew_up


@given(sets=SETS, row=st.integers(min_value=0, max_value=11),
       bad=st.sampled_from([-1.0, -1e-300]))
@settings(max_examples=25, deadline=None)
def test_a_column_with_one_negative_gain_is_refused(sets, row, bad):
    rows = per_row(sets)
    ic = fhn_field(rows)
    gains = np.array(ic.rho1, copy=True)
    gains[row % len(rows)] = bad
    with pytest.raises(ValueError, match="nonnegative"):
        dataclasses.replace(ic, rho1=gains)
    with pytest.raises(ValueError, match="nonnegative"):
        dataclasses.replace(ic, rho2=gains)


def test_no_parameter_sets_refused():
    with pytest.raises(ValueError, match="at least one"):
        fhn_field([])


PRESETS = [figure_params(fig) for fig in (1, 2, 3)]


@pytest.mark.parametrize("shape", [(2,), (2, 2), (4, 2), (1, 3, 2)])
def test_states_not_one_row_per_set_refused(shape):
    field = assemble(fhn_field(PRESETS))
    for fn in (field.rhs, field.jacobian):
        with pytest.raises(ValueError, match="batches of exactly 3 rows"):
            fn(0.0, np.ones(shape))


METHODS = [IntegratorConfig(max_time=1.0, step=0.05),
           IntegratorConfig(max_time=1.0, method=ADAPTIVE_EMBEDDED)]


@given(p=fhn_params(), row=st.integers(min_value=0, max_value=2),
       far=st.sampled_from([1e200, -1e200, 1e100, 1e10]),
       seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=20, deadline=None)
@pytest.mark.parametrize("config", METHODS, ids=["rk4", "dopri"])
def test_column_batch_with_a_stopped_row_is_the_plain_batch(config, p, row, far, seed):
    # both solvers keep the batch whole after a row overflows, so a field of
    # three equal parameter sets gives bitwise the batch of the plain field
    z = np.random.default_rng(seed).uniform(-3.0, 3.0, (3, 2))
    z[row, 0] = far
    columns = integrate(assemble(fhn_field([p, p, p])), 0.0, z, config)
    plain = integrate(assemble(fhn_field(p)), 0.0, z, config)
    assert columns.blew_up[row]
    for name in ("times", "states", "derivatives", "ends", "blew_up"):
        assert_bitwise(getattr(columns, name), getattr(plain, name))


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=10, deadline=None)
def test_adaptive_presets_go_on_after_a_row_stops(seed):
    # row 0 overflows at once; the two other presets reach the horizon and
    # agree with a fine fixed-step solve of their own field
    z = np.random.default_rng(seed).uniform(-3.0, 3.0, (3, 2))
    z[0] = [1e200, 0.0]
    config = IntegratorConfig(max_time=5.0, method=ADAPTIVE_EMBEDDED)
    batch = integrate(assemble(fhn_field(PRESETS)), 0.0, z, config)
    assert batch.blew_up.tolist() == [True, False, False]
    assert batch.t_end == 5.0
    fine = IntegratorConfig(max_time=5.0, step=1e-3)
    for k in (1, 2):
        tr = batch.row(k)
        assert tr.t_end == 5.0 and np.all(np.isfinite(tr.states))
        ref = integrate(assemble(fhn_field(PRESETS[k])), 0.0, z[k], fine)
        assert np.all(np.abs(tr.states - ref.state_at(tr.times)) <= 1e-4)


def test_figures_blowup_exits_with_blowup_code(tmp_path):
    # a far-out initial state overflows the fixed-step solve of every preset
    cfg = tmp_path / "figures.cfg"
    cfg.write_text("[scenario]\nsystem = fhn\naction = figures\n"
                   "initial = 1e10 0; -2 1\n")
    assert main(["figures", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_BLOWUP
    assert not (tmp_path / "o").exists()
