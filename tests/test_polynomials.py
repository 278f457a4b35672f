"""The whole-state rhs of a polynomial interconnection gives bitwise the
derivatives of its block form, for any term lists, gains and states,
overflow included; and the monomial evaluator behind every polynomial call
gives bitwise the single-expression monomials it replaces."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ieskit.dynsys import assemble
from ieskit.polynomials import PolynomialMap, polynomial_interconnection


def expression_monomials(x, table):
    """The monomials x^e of the rows e of an exponent table of any leading
    shape, as one power and one product: the expression the evaluator
    replaces, kept as its oracle."""
    return np.prod(np.expand_dims(x, tuple(range(-table.ndim, -1))) ** table, axis=-1)


@st.composite
def block(draw, count, in_dim):
    """``count`` components in ``in_dim`` variables.  Exponents come from a
    small pool, so monomials repeat within and across blocks, and some
    coefficients are zero."""
    pool = draw(st.lists(st.tuples(*[st.integers(0, 3)] * in_dim), min_size=1, max_size=3))
    coef = st.sampled_from([0.0, 1.0, -1.0]) | st.floats(-3.0, 3.0)
    term = st.tuples(coef, st.sampled_from(pool))
    return tuple(tuple(draw(st.lists(term, max_size=4))) for _ in range(count))


@st.composite
def interconnection(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    gain = st.sampled_from([0.0, 0.5]) | st.floats(0.0, 2.0)
    return polynomial_interconnection(
        draw(block(n, n)), draw(block(m, m)), draw(block(n, m)), draw(block(m, n)),
        rho1=draw(gain), rho2=draw(gain))


@given(ic=interconnection(), rows=st.integers(0, 80),
       scale=st.sampled_from([1e-3, 1.0, 3.0, 1e3, 1e100, 1e200]),
       seed=st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_joint_rhs_is_the_block_form(ic, rows, scale, seed):
    # rows = 0 is one state of shape (d,); at scale 1e100 and up, cubes
    # overflow to inf and zero coefficients or gains make NaN
    joint = assemble(ic)
    blocks = assemble(dataclasses.replace(ic, joint_rhs=None))
    assert ic.joint_rhs is not None and joint.rhs is not blocks.rhs
    shape = (rows, joint.dim) if rows else (joint.dim,)
    z = scale * np.random.default_rng(seed).uniform(-1.0, 1.0, shape)
    with np.errstate(all="ignore"):
        a, b = joint.rhs(0.0, z), blocks.rhs(0.0, z)
    assert a.shape == b.shape == shape
    assert a.tobytes() == b.tobytes()


def test_lone_square_is_raised_as_the_block_form_raises_it():
    # numpy squares v**2 with a one-entry exponent matrix as v*v, which
    # differs in the last bit from its general power loop on about 3% of
    # points; the x-block below is one such square
    f1 = (((-1.0, (2,)),),)
    f2 = (((-1.0, (1,)), (1.0, (2,))),)
    g1 = (((1.0, (1,)),),)
    g2 = (((1.0, (2,)), (0.5, (1,))),)
    ic = polynomial_interconnection(f1, f2, g1, g2, rho1=0.5, rho2=0.5)
    z = np.random.default_rng(0).uniform(-3.0, 3.0, (400, 2))
    joint = assemble(ic).rhs(0.0, z)
    assert joint.tobytes() == assemble(dataclasses.replace(ic, joint_rhs=None)).rhs(0.0, z).tobytes()


@st.composite
def exponent_table(draw):
    """(K, d) exponents, d from 1 to 6: either any entries from 0 to 4, or
    entries 0 and 1 with exactly one entry from 2 to 4, the one power a
    broadcast exponent would raise through numpy's v*v fast path."""
    d, k = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        return np.array(draw(st.lists(st.lists(st.integers(0, 4), min_size=d, max_size=d),
                                      min_size=k, max_size=k)), dtype=int)
    table = np.array(draw(st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d),
                                   min_size=k, max_size=k)), dtype=int)
    table[draw(st.integers(0, k - 1)), draw(st.integers(0, d - 1))] = draw(st.integers(2, 4))
    return table


@given(table=exponent_table(), rows=st.none() | st.integers(0, 80),
       scale=st.sampled_from([1e-3, 1.0, 3.0, 1e3, 1e100, 1e200]),
       special=st.sampled_from([0.0, 0.05, 0.3]), seed=st.integers(0, 2**16))
@example(table=np.array([[2, 0], [1, 1]]), rows=80, scale=3.0, special=0.0, seed=0)
@settings(max_examples=300, deadline=None)
def test_monomials_are_the_expressions_bitwise(table, rows, scale, special, seed):
    # rows None is one point of shape (d,); a fraction ``special`` of the
    # entries is NaN, -NaN, inf or -inf, and at scale 1e100 and up powers
    # overflow
    d = table.shape[1]
    shape = (d,) if rows is None else (rows, d)
    rng = np.random.default_rng(seed)
    x = scale * rng.uniform(-1.0, 1.0, shape)
    hit = rng.random(shape) < special
    x[hit] = rng.choice([np.nan, -np.nan, np.inf, -np.inf], np.count_nonzero(hit))
    pmap = PolynomialMap(d, tuple(((1.0, tuple(row)),) for row in table.tolist()))
    lowered = np.maximum(table - np.eye(d, dtype=int)[:, None, :], 0)
    with np.errstate(all="ignore"):
        values, slopes = pmap._monomials(x), pmap._lowered(x)
        assert values.tobytes() == expression_monomials(x, table).tobytes()
        assert slopes.tobytes() == expression_monomials(x, lowered).tobytes()
        assert values.shape == shape[:-1] + (len(table),)
        assert slopes.shape == shape[:-1] + (d * len(table),)
        assert pmap(x).tobytes() == (values @ pmap.coefficients.T).tobytes()


@pytest.mark.parametrize("exponent", [1.5, 0.25, float("nan"), float("inf")])
def test_non_integer_exponents_refused(exponent):
    with pytest.raises(ValueError, match=r"term \(1\.0, \((nan|inf|[0-9.]+),\)\) has a non-integer"):
        PolynomialMap(1, (((1.0, (exponent,)),),))


def test_integral_float_exponents_are_their_integers():
    pmap = PolynomialMap(1, (((1.0, (2.0,)),),))
    assert pmap(np.array([3.0]))[0] == 9.0
    assert pmap.exponents.tolist() == [[2]]
