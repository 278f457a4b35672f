"""The numpy Halton sequence against scipy's ``qmc.Halton``, bit for bit, the
Halton box builder against its former qmc-based body, and the radii the ball
samplers take."""

import numpy as np
import pytest
from scipy.stats import qmc

from ieskit.dynsys import IntegratorConfig, linear_field
from ieskit.estimator import sample_pairs_ball, wies_scan
from ieskit.finsler import DisplacementSamples
from ieskit.sampling import _halton, ball_grid, halton_box

DIMS = range(1, 25)  # the 24th prime is 89, past the 71 of d = 20
SIZES = (1, 2, 7, 64, 1000, 20000)


def qmc_points(d, n):
    sampler = qmc.Halton(d=d, scramble=False)
    sampler.fast_forward(1)
    return sampler.random(n)


def qmc_box(bounds, n):
    bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
    u = qmc_points(bounds.shape[0], n)
    return bounds[:, 0] + u * (bounds[:, 1] - bounds[:, 0])


@pytest.mark.parametrize("d", DIMS)
def test_halton_is_bitwise_qmc(d):
    for n in SIZES:
        ours, theirs = _halton(d, n), qmc_points(d, n)
        assert ours.shape == theirs.shape == (n, d)
        assert ours.tobytes() == theirs.tobytes(), (d, n)


@pytest.mark.parametrize("d", DIMS)
def test_halton_box_is_the_qmc_body(d):
    rng = np.random.default_rng(d)
    lo = rng.uniform(-10.0, 5.0, d)
    bounds = np.column_stack([lo, lo + rng.uniform(0.1, 20.0, d)])
    for n in SIZES:
        assert halton_box(bounds, n).tobytes() == qmc_box(bounds, n).tobytes(), (d, n)


def ball_samplers(dim):
    """The ball samplers as functions of the radius: the two state samplers at
    their certify sizes, and 8 seeded pairs as an (8, 2, dim) array."""
    return (lambda radius: ball_grid(radius, dim, 101),
            lambda radius: DisplacementSamples.product_ball(radius, dim, 64).zs,
            lambda radius: np.array(sample_pairs_ball(radius, dim, 8, 0)))


@pytest.mark.parametrize("dim", [1, 2])
def test_radius_whose_square_overflows_is_refused(dim):
    # |z|^2 of a state near the sphere would overflow and the state be dropped
    for sample in ball_samplers(dim):
        with pytest.raises(ValueError, match=r"radius 1e\+155 is too large: its square"):
            sample(1e155)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", [1, 2])
def test_largest_radius_keeps_every_state(dim):
    # just below sqrt(DBL_MAX) the ball keeps as many points as the unit ball,
    # and the points whose norms overflow are dropped without a warning
    for sample in ball_samplers(dim):
        assert len(sample(1.34e154)) == len(sample(1.0))


@pytest.mark.parametrize("dim", [1, 2])
def test_scan_refuses_a_radius_whose_square_overflows(dim):
    # every pair draw's norm would overflow and be rejected, without end
    with pytest.raises(ValueError, match=r"radius 1e\+200 is too large: its square"):
        wies_scan(linear_field(-np.eye(dim)), (1.0, 1e200), 1, 1.0,
                  IntegratorConfig(max_time=1.0, step=0.1))
