"""Finsler Lyapunov candidates: evaluation and sampled inequality checks.

Candidates take points of shape (..., d) as the fields of ``ieskit.dynsys``
do, so each check calls them once on its whole sample set.  A candidate is
quadratic in the displacement, so the checks sample states only and take
the worst displacement at each state from an eigendecomposition.

Sampled checks can only refute an inequality, never prove it over a
continuum of states, so every report carries a "no violation found" note
rather than a claim of verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ieskit.dynsys import TimeVaryingField, matvec, rowdot
from ieskit.sampling import _check_radius, halton_box

Array = np.ndarray

NO_VIOLATION_NOTE = "no violation found on the sampled set (sampling refutes, it does not prove)"


@dataclass(frozen=True)
class FinslerCandidate:
    """Candidate V(z, dz) = dz^T M(z) dz, with c_lower |dz|^2 <= V <= c_upper |dz|^2
    on the working set.  For states of shape (..., dim), ``metric`` returns M of
    shape (..., dim, dim) and ``metric_grad`` dM_ij/dz_k at [..., i, j, k].
    ``value`` (shape (...)), ``grad_state`` and ``grad_disp`` (dz^T dM/dz_k dz
    and 2 M dz, shape (..., dim)) add products in index order, not by matrix
    products, so the zero blocks of a ``compose`` change nothing: bitwise, its
    value is the sum of its blocks' values and its gradients their concatenation.
    ``gamma`` and ``zeta`` (shape (...)) are its Assumption-2 bounds, in the
    matrix norm |A| = largest absolute row sum, which bounds the spectral norm
    of a symmetric matrix and equals it on a diagonal one.
    """

    dim: int
    metric: Callable[[Array], Array]
    metric_grad: Callable[[Array], Array]
    c_lower: float
    c_upper: float

    def __post_init__(self):
        if self.c_lower <= 0 or self.c_upper <= 0:
            raise ValueError("sandwich constants must be positive")
        if self.c_lower > self.c_upper:
            raise ValueError("c_lower must not exceed c_upper")

    def value(self, z: Array, dz: Array) -> Array:
        return _dot(dz, _dot(self.metric(z), dz[..., None, :]))

    def grad_state(self, z: Array, dz: Array) -> Array:
        dm, dzr = self.metric_grad(z), dz[..., None, :]
        return np.stack([_dot(dz, _dot(dm[..., k], dzr)) for k in range(dm.shape[-1])], axis=-1)

    def grad_disp(self, z: Array, dz: Array) -> Array:
        return 2.0 * _dot(self.metric(z), dz[..., None, :])

    def gamma(self, z: Array) -> Array:
        """|dV/dz| <= gamma(z) |dz|^2 for gamma the hypot over k of |dM/dz_k|,
        as |dz^T dM/dz_k dz| <= |dM/dz_k| |dz|^2.  In one dimension it is
        abs(M'(z)), bit for bit."""
        row_sums = np.abs(self.metric_grad(z)).sum(axis=-2)  # [..., i, k]
        return np.hypot.reduce(row_sums.max(axis=-2), axis=-1)

    def zeta(self, z: Array) -> Array:
        """|dV/d(dz)| = |2 M dz| <= zeta(z) |dz| for zeta = 2 |M(z)|.  In one
        dimension it is 2 abs(M(z)), bit for bit."""
        return 2.0 * np.abs(self.metric(z)).sum(axis=-1).max(axis=-1)


def _dot(a: Array, b: Array) -> Array:
    """sum_j a[..., j] b[..., j], added in index order to +0.0: a sum of
    zeros is then +0.0 whatever their signs, so the zero entries of a
    block-diagonal metric change no bit of a quadratic form."""
    out = 0.0 + a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        out += a[..., j] * b[..., j]
    return out


def compose(a: FinslerCandidate, b: FinslerCandidate) -> FinslerCandidate:
    """Direct sum on the product space: the block-diagonal metric of the two."""
    na, dim = a.dim, a.dim + b.dim

    def block_diagonal(fa, fb, order: int):
        def joined(z: Array) -> Array:
            out = np.zeros(np.shape(z)[:-1] + (dim,) * order)
            out[(...,) + (np.s_[:na],) * order] = fa(z[..., :na])
            out[(...,) + (np.s_[na:],) * order] = fb(z[..., na:])
            return out

        return joined

    return FinslerCandidate(
        dim=dim,
        metric=block_diagonal(a.metric, b.metric, 2),
        metric_grad=block_diagonal(a.metric_grad, b.metric_grad, 3),
        c_lower=min(a.c_lower, b.c_lower),
        c_upper=max(a.c_upper, b.c_upper),
    )


def vdot(
    candidate: FinslerCandidate,
    field: TimeVaryingField,
    t: float,
    z: Array,
    dz: Array,
) -> Array:
    """Lie derivative of V along the augmented (state, displacement) system,
    at states and displacements of shape (..., d), as (...): one direction
    at a time, where ``check_decay`` takes the worst one in closed form."""
    z = np.asarray(z, dtype=float)
    dz = np.asarray(dz, dtype=float)
    f = field.rhs(t, z)
    jdz = matvec(field.jacobian(t, z), dz)
    return rowdot(candidate.grad_state(z, dz), f) + rowdot(candidate.grad_disp(z, dz), jdz)


@dataclass(frozen=True)
class DisplacementSamples:
    """Sample states of shape (N, d); the checks take the worst displacement
    at each state in closed form."""

    zs: Array

    def __len__(self) -> int:
        return len(self.zs)

    @classmethod
    def product_box(cls, bounds, n_states: int) -> "DisplacementSamples":
        """Halton states in a box."""
        return cls(zs=halton_box(bounds, n_states))

    @classmethod
    def product_ball(cls, radius: float, dim: int, n_states: int) -> "DisplacementSamples":
        _check_radius(radius)
        bounds = np.array([[-radius, radius]] * dim)
        zs = cls.product_box(bounds, int(np.ceil(n_states * 1.6))).zs
        with np.errstate(over="ignore"):  # an inf norm is a state off the ball
            return cls(zs=zs[np.linalg.norm(zs, axis=1) <= radius])


def _eigh(a: Array) -> tuple[Array, Array]:
    """Ascending eigenvalues and unit eigenvectors of symmetric matrices of
    shape (..., d, d); a matrix with an entry that is not finite gets nan
    eigenvalues, whatever LAPACK would make of it."""
    bad = ~np.isfinite(a).all(axis=(-2, -1))
    w, v = np.linalg.eigh(np.where(bad[..., None, None], 0.0, a))
    w[bad] = np.nan
    return w, v


@dataclass(frozen=True)
class SandwichReport:
    passed: bool
    lower_margin: float
    upper_margin: float
    worst_lower_index: int
    worst_upper_index: int
    n_samples: int
    note: str = NO_VIOLATION_NOTE


def check_sandwich(
    candidate: FinslerCandidate, samples: DisplacementSamples, tol: float = 1e-9
) -> SandwichReport:
    """Margins of c_lower |dz|^2 <= V <= c_upper |dz|^2 over the sample
    states, exact in dz: lambda_min(M) - c_lower and c_upper - lambda_max(M).
    The first non-finite margin counts as the worst."""
    if len(samples) == 0:
        raise ValueError("sample set must be nonempty")
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite fails below
        w, _ = _eigh(candidate.metric(samples.zs))
        lower = w[..., 0] - candidate.c_lower
        upper = candidate.c_upper - w[..., -1]
    i, j = int(np.argmin(lower)), int(np.argmin(upper))
    passed = bool(lower[i] >= -tol and upper[j] >= -tol)
    note = NO_VIOLATION_NOTE if passed else (
        f"sandwich violated at sample {i if lower[i] < upper[j] else j}")
    return SandwichReport(passed, float(lower[i]), float(upper[j]), i, j, len(samples), note)


@dataclass(frozen=True)
class DecayReport:
    passed: bool
    worst: float
    worst_index: int
    worst_z: Array
    worst_dz: Array
    n_samples: int
    note: str = NO_VIOLATION_NOTE


def check_decay(
    candidate: FinslerCandidate,
    field: TimeVaryingField,
    alpha: float,
    samples: DisplacementSamples,
    tol: float = 1e-9,
) -> DecayReport:
    """Check Vdot <= -alpha |dz|^2 over the sample states, at t = 0, exactly
    in dz.

    Vdot = dz^T Q(z) dz with Q = M J + J^T M + sum_k dM/dz_k f_k, so the
    violation at a state is lambda_max(Q) + alpha - tol (1 + |v^T M v|), at
    the top unit eigenvector v, which the report gives as ``worst_dz``.  A
    negative worst value means every sampled state has margin.  The first
    non-finite violation counts as the worst, since it would never compare
    as one.
    """
    if len(samples) == 0:
        raise ValueError("sample set must be nonempty")
    zs = samples.zs
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite fails below
        m = candidate.metric(zs)
        mj = m @ field.jacobian(0.0, zs)
        mdot = matvec(candidate.metric_grad(zs), field.rhs(0.0, zs)[..., None, :])
        w, vecs = _eigh(mj + np.swapaxes(mj, -1, -2) + mdot)
        v = vecs[..., -1]
        violation = w[..., -1] + alpha - tol * (1.0 + np.abs(rowdot(v, matvec(m, v))))
    bad = ~np.isfinite(violation)
    worst_i = int(np.argmax(bad) if bad.any() else np.argmax(violation))
    worst = float(violation[worst_i])
    passed = bool(worst <= 0.0) and not bad.any()
    note = NO_VIOLATION_NOTE if passed else f"decay violated at sample {worst_i}"
    return DecayReport(
        passed=passed,
        worst=worst,
        worst_index=worst_i,
        worst_z=zs[worst_i].copy(),
        worst_dz=v[worst_i].copy(),
        n_samples=len(samples),
        note=note,
    )
