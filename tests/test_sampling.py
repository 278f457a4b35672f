"""The numpy Halton sequence against scipy's ``qmc.Halton``, bit for bit, the
Halton sample builders against their former qmc-based bodies, and the radii
the ball samplers take."""

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import qmc

from ieskit.finsler import DisplacementSamples
from ieskit.sampling import _halton, ball_grid, halton_box, halton_sphere

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


def qmc_sphere(dim, n):
    u = qmc_points(dim, n)
    g = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return g / norms


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


@pytest.mark.parametrize("d", range(2, 25))
def test_halton_sphere_is_the_qmc_body(d):
    for n in SIZES:
        assert halton_sphere(d, n).tobytes() == qmc_sphere(d, n).tobytes(), (d, n)


def ball_samplers(dim):
    """The two ball samplers at their certify sizes, as functions of the radius."""
    return (lambda radius: ball_grid(radius, dim, 101),
            lambda radius: DisplacementSamples.product_ball(radius, dim, 64, 16).zs)


@pytest.mark.parametrize("dim", [1, 2])
def test_radius_whose_square_overflows_is_refused(dim):
    # |z|^2 of a state near the sphere would overflow and the state be dropped
    for sample in ball_samplers(dim):
        with pytest.raises(ValueError, match=r"radius 1e\+155 is too large: its square"):
            sample(1e155)


@pytest.mark.parametrize("dim", [1, 2])
def test_largest_radius_keeps_every_state(dim):
    # just below sqrt(DBL_MAX) the ball keeps as many points as the unit ball
    for sample in ball_samplers(dim):
        assert len(sample(1.34e154)) == len(sample(1.0))
