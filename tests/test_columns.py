"""FHN parameters as per-row columns: a field built from one parameter set per
state row gives, row by row, bitwise the derivatives, Jacobians and RK4
solves (also with their displacements) of each set's own field, both
solvers take such a field to the end after a row stops, and a column
holding one invalid value is refused.  The
whole-state rhs of an FHN field gives the derivatives of its block form, and
bit for bit those of the column-view expression under any sequence of batch
shapes and memory layouts."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ieskit.cli import EXIT_BLOWUP, main
from ieskit.dynsys import (
    ADAPTIVE_EMBEDDED,
    IntegratorConfig,
    TimeVaryingField,
    assemble,
    integrate,
    integrate_with_displacement,
    matvec,
)
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


# dz/dt = A z with A Hurwitz and non-normal, one product A z per row:
# ``linear_field`` takes z @ A.T as one BLAS product over the whole batch,
# whose rows are not bitwise those of a one-row product
NON_NORMAL_A = np.array([[-1.0, 10.0], [0.0, -1.0]])
NON_NORMAL = TimeVaryingField(
    2, lambda t, z: matvec(NON_NORMAL_A, z),
    lambda t, z: np.broadcast_to(NON_NORMAL_A, np.shape(z)[:-1] + (2, 2)).copy())


@st.composite
def variational_cases(draw):
    """(field of a batch, the field of each row's own solve): FHN at one
    set, FHN at one set per row, or the non-normal linear field."""
    kind = draw(st.sampled_from(["one set", "per-row sets", "non-normal"]))
    if kind == "per-row sets":
        rows = per_row(draw(SETS))
        return assemble(fhn_field(rows)), [assemble(fhn_field(p)) for p in rows]
    field = assemble(fhn_field(draw(fhn_params()))) if kind == "one set" else NON_NORMAL
    return field, [field] * draw(st.integers(min_value=1, max_value=6))


@given(case=variational_cases(), seed=st.integers(min_value=0, max_value=2**16),
       scale=st.sampled_from([3.0, 1e3]))
@settings(max_examples=30, deadline=None)
def test_rk4_variational_rows_are_their_single_solves(case, seed, scale):
    # at scale 1e3 some FHN rows blow up and stop while the others go on
    field, own = case
    rng = np.random.default_rng(seed)
    z = rng.uniform(-scale, scale, (len(own), 2))
    dz = rng.normal(size=(len(own), 2))
    config = IntegratorConfig(max_time=1.0, step=0.05)
    batch = integrate_with_displacement(field, 0.0, z, dz, config)
    for k, single_field in enumerate(own):
        mine = batch.row(k)
        single = integrate_with_displacement(single_field, 0.0, z[k], dz[k], config)
        for name in ("times", "states", "derivatives", "displacements"):
            assert_bitwise(getattr(mine, name), getattr(single, name))
        assert mine.blew_up == single.blew_up


@given(sets=SETS, row=st.integers(min_value=0, max_value=11),
       bad=st.sampled_from([-1.0, -1e-300, np.nan]))
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


@pytest.mark.parametrize("shape", [(2,), (2, 2), (4, 2), (1, 3, 2), (300, 2)])
def test_states_not_one_row_per_set_refused(shape):
    for ic in (fhn_field(PRESETS), fhn_field(PRESETS).with_gains(0.0, 0.0)):
        field = assemble(ic)
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


# any double, with the edge values of the rhs drawn often: signed zeros,
# cubes that overflow (|x| > 6e102), infinities and NaN
STATE_VALUES = st.sampled_from([0.0, -0.0, 7e102, -7e102, 1e300, np.inf, -np.inf, np.nan]) | \
    st.floats(min_value=-5.0, max_value=5.0) | st.floats()


def assert_same_values(a, b):
    """Bitwise equal, except that a NaN matches any NaN: negating a NaN
    flips its sign bit where a product keeps it, so rho1 * -y and
    -rho1 * y differ only there, and the sign of a NaN is no value."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    nan = np.isnan(a)
    assert (nan == np.isnan(b)).all()
    assert np.where(nan, np.nan, a).tobytes() == np.where(nan, np.nan, b).tobytes()


@st.composite
def fhn_interconnections(draw):
    """An FHN interconnection of one parameter set or of one set per row, as
    built, or with zero gains, or with gain columns that hold zeros; its
    parameters and rows; the batch shapes its rhs takes, followed (for a
    field of N rows) by shapes it refuses; and how many it takes."""
    if draw(st.booleans()):
        params = draw(fhn_params())
        rows = draw(st.sampled_from([1, 2, 5, 70]))
        shapes, refused = [(2,), (1, 2), (rows, 2), (3, rows, 2)], []
    else:
        params = per_row(draw(SETS))
        rows = len(params)
        shapes, refused = [(rows, 2)], [(2,), (rows + 1, 2), (1, rows, 2)]
    ic = fhn_field(params)
    gains = draw(st.sampled_from(["own", "zero", "columns"]))
    if gains == "zero":
        ic = ic.with_gains(0.0, 0.0)
    elif gains == "columns":
        column = arrays(np.float64, (rows, 1),
                        elements=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 2.0))
        ic = ic.with_gains(draw(column), draw(column))
        shapes, refused = [(rows, 2)], [(2,), (rows + 1, 2), (1, rows, 2)]
    return params, ic, rows, shapes + refused, len(shapes)


@given(values=arrays(np.float64, (8, 2), elements=STATE_VALUES),
       built=fhn_interconnections(), pick=st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_joint_rhs_is_the_block_form(values, built, pick):
    _, ic, _, shapes, taken = built
    z = np.resize(values, shapes[pick % taken])
    field = assemble(ic)
    block = assemble(dataclasses.replace(ic, joint_rhs=None))
    with np.errstate(all="ignore"):
        assert_same_values(field.rhs(0.5, z), block.rhs(0.5, z))
        assert_bitwise(field.jacobian(0.5, z), block.jacobian(0.5, z))


def side_by_side(a, b):
    return np.concatenate(np.broadcast_arrays(np.atleast_1d(a), np.atleast_1d(b)), axis=-1)


def column_view_rhs(params, rho1, rho2):
    """The reference FHN rhs: the block form's operations on column views of
    the state, each (2,) operand broadcast across rows, or (N, 2) for
    per-row sets and gain columns.  The whole-batch rhs must give its bits,
    NaN signs included."""
    def value(fn):
        return fn(params) if isinstance(params, FhnParams) else np.array([[fn(p)] for p in params])

    lin = side_by_side(1.0, -value(lambda p: p.b / p.epsilon))
    const = side_by_side(value(lambda p: p.c), -0.0)
    div = side_by_side(1.0, value(lambda p: p.epsilon))
    gain = side_by_side(-np.asarray(rho1, dtype=float), np.asarray(rho2, dtype=float))

    def rhs(z):
        out = z * lin
        out[..., :1] -= z[..., :1]**3.0 / 3.0
        out += const
        return out + gain * (z[..., ::-1] / div)

    return rhs


def refusal(rows, shape):
    return (f"a field of {rows} FHN parameter sets takes batches of exactly "
            f"{rows} rows, got states of shape {shape}")


def laid_out(values, shape, layout):
    """``values`` resized to ``shape``, as a C-ordered, Fortran-ordered, or
    strided array (columns three apart in a wider buffer)."""
    z = np.resize(values, shape)
    if layout == "F":
        return np.asfortranarray(z)
    if layout == "strided":
        wide = np.full(shape[:-1] + (4,), 7.0)
        wide[..., ::3] = z
        return wide[..., ::3]
    return z


# calls to make in a row: (which shape, which memory layout, how many times)
CALLS = st.lists(st.tuples(st.integers(0, 6), st.sampled_from(["C", "F", "strided"]),
                           st.integers(1, 3)), min_size=1, max_size=8)


@given(values=arrays(np.float64, (8, 2), elements=STATE_VALUES),
       case=fhn_interconnections(), calls=CALLS)
@settings(max_examples=150, deadline=None)
def test_joint_rhs_is_the_column_view_expression(values, case, calls):
    # repeated shapes take the tiled operands, one-off and alternating ones
    # the broadcast rows; both give the reference's bits
    params, ic, rows, shapes, taken = case
    rhs = assemble(ic).rhs
    reference = column_view_rhs(params, ic.rho1, ic.rho2)
    with np.errstate(all="ignore"):
        for k, (pick, layout, repeats) in enumerate(calls):
            shape = shapes[pick % len(shapes)]
            for r in range(repeats):
                z = laid_out(np.roll(values, k + r), shape, layout)
                if pick % len(shapes) < taken:
                    assert_bitwise(rhs(0.5, z), reference(z))
                else:
                    with pytest.raises(ValueError) as refused:
                        rhs(0.5, z)
                    assert str(refused.value) == refusal(rows, shape)


def test_joint_rhs_alternating_and_repeated_shapes():
    # the solvers' pattern (one shape many times) between one-off calls at
    # other shapes and layouts, on the values where the cube overflows
    p = figure_params(3)
    rhs = assemble(fhn_field(p)).rhs
    reference = column_view_rhs(p, p.rho1, p.rho2)
    values = np.random.default_rng(0).uniform(-4.0, 4.0, (64, 2))
    values[:8] = [[np.nan, -np.nan], [-np.nan, 1.0], [np.inf, -np.inf], [0.0, -0.0],
                  [5e102, -5e102], [-7e102, np.nan], [1e300, 0.0], [-0.0, np.inf]]
    sequence = [((64, 2), "C")] * 3 + [((2,), "C"), ((64, 2), "C"), ((64, 2), "F"),
                                       ((64, 2), "strided"), ((64, 2), "C"), ((5, 3, 2), "C"),
                                       ((5, 3, 2), "C"), ((5, 3, 2), "F"), ((1, 2), "C"),
                                       ((1, 2), "C"), ((64, 2), "C")]
    with np.errstate(all="ignore"):
        for k, (shape, layout) in enumerate(sequence):
            z = laid_out(np.roll(values, k), shape, layout)
            assert_bitwise(rhs(0.5, z), reference(z))
