"""The whole-state rhs of a polynomial interconnection gives bitwise the
derivatives of its block form, for any term lists, gains and states,
overflow included."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ieskit.dynsys import assemble
from ieskit.polynomials import polynomial_interconnection


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
