"""Deterministic sample-set builders: Halton boxes, spheres, ball grids."""

from __future__ import annotations

import numpy as np

Array = np.ndarray


def _primes(count: int) -> list[int]:
    """The first ``count`` primes, from a sieve doubled until it holds them."""
    limit = 16
    while True:
        sieve = np.ones(limit, dtype=bool)
        sieve[:2] = False
        for p in range(2, int(limit ** 0.5) + 1):
            if sieve[p]:
                sieve[p * p::p] = False
        primes = np.flatnonzero(sieve)
        if len(primes) >= count:
            return [int(p) for p in primes[:count]]
        limit *= 2


def _halton(d: int, n: int) -> Array:
    """Points 1..n of the unscrambled Halton sequence in [0, 1)^d, shape (n, d).

    Each coordinate is the radical inverse of the point's index in the k-th
    prime base, summed one digit at a time in the order scipy's
    ``qmc.Halton(d, scramble=False)`` sums them, so the values are bitwise
    those of that sampler after ``fast_forward(1)``; like its output, the
    array is column-major.
    """
    out = np.zeros((d, n))
    for k, base in enumerate(_primes(d)):
        q = np.arange(1, n + 1)
        scale = 1.0 / base
        while q.any():
            out[k] += (q % base) * scale
            scale /= base
            q //= base
    return out.T


def halton_box(bounds, n: int) -> Array:
    """n low-discrepancy points in the box given by ``bounds`` (d rows of (lo, hi)).

    Unscrambled Halton, so the output is reproducible; the initial all-zero
    point of the raw sequence is skipped.
    """
    bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
    u = _halton(bounds.shape[0], n)
    return bounds[:, 0] + u * (bounds[:, 1] - bounds[:, 0])


def halton_sphere(dim: int, n: int) -> Array:
    """n quasi-random directions on the unit sphere in R^dim."""
    if dim == 1:
        signs = np.ones((n, 1))
        signs[1::2, 0] = -1.0
        return signs
    # scipy is imported where it is called: importing ieskit needs numpy only
    from scipy.special import ndtri

    u = _halton(dim, n)
    g = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return g / norms


def _check_radius(radius: float) -> None:
    """Refuse a radius <= 0, or one whose square overflows: the ball would lose states."""
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius!r}")
    if not np.isfinite(radius * radius):
        raise ValueError(f"radius {radius!r} is too large: its square is not finite")


def ball_grid(radius: float, dim: int, density: int) -> Array:
    """Uniform per-axis grid over [-R, R]^dim restricted to the ball |z| <= R.

    Axis endpoints are included, so in one dimension the extreme points +-R
    are always part of the grid.
    """
    _check_radius(radius)
    pts = box_grid([[-radius, radius]] * dim, density)
    return pts[np.linalg.norm(pts, axis=1) <= radius * (1 + 1e-12)]


def box_grid(bounds, density: int) -> Array:
    """Uniform per-axis grid over a box, endpoints included."""
    bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
    axes = [np.linspace(lo, hi, density) for lo, hi in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)
