"""Finsler Lyapunov candidates: evaluation and sampled inequality checks.

Candidates and gradient bounds take points of shape (..., d) as the fields of
``ieskit.dynsys`` do, so each check calls them once on its whole sample set.

Grid checks can only refute an inequality, never prove it over a continuum,
so every report carries a "no violation found" note rather than a claim of
verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ieskit.dynsys import TimeVaryingField, matvec, rowdot
from ieskit.sampling import _check_radius, halton_box, halton_sphere

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
    at states and displacements of shape (..., d), as (...)."""
    z = np.asarray(z, dtype=float)
    dz = np.asarray(dz, dtype=float)
    f = field.rhs(t, z)
    jdz = matvec(field.jacobian(t, z), dz)
    return rowdot(candidate.grad_state(z, dz), f) + rowdot(candidate.grad_disp(z, dz), jdz)


@dataclass(frozen=True)
class DisplacementSamples:
    """Sample set of (z, dz) pairs used by the inequality checks."""

    zs: Array
    dzs: Array

    def __len__(self) -> int:
        return len(self.zs)

    @classmethod
    def from_points(cls, zs, dzs) -> "DisplacementSamples":
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        dzs = np.atleast_2d(np.asarray(dzs, dtype=float))
        if zs.shape != dzs.shape:
            raise ValueError("state and displacement samples must align")
        return cls(zs=zs, dzs=dzs)

    @classmethod
    def product_box(
        cls, bounds, n_states: int, n_directions: int
    ) -> "DisplacementSamples":
        """Halton states in a box crossed with unit-sphere displacement directions.

        Displacements are sampled on the unit sphere only: for quadratically
        homogeneous candidates radial sampling adds no information.
        """
        bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
        dim = bounds.shape[0]
        zs = halton_box(bounds, n_states)
        dirs = halton_sphere(dim, n_directions)
        zz = np.repeat(zs, n_directions, axis=0)
        dd = np.tile(dirs, (n_states, 1))
        return cls(zs=zz, dzs=dd)

    @classmethod
    def product_ball(
        cls, radius: float, dim: int, n_states: int, n_directions: int
    ) -> "DisplacementSamples":
        _check_radius(radius)
        bounds = np.array([[-radius, radius]] * dim)
        samples = cls.product_box(bounds, int(np.ceil(n_states * 1.6)), n_directions)
        keep = np.linalg.norm(samples.zs, axis=1) <= radius
        return cls(zs=samples.zs[keep], dzs=samples.dzs[keep])


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
    """Margins of c_lower |dz|^2 <= V <= c_upper |dz|^2 over the sample set."""
    if len(samples) == 0:
        raise ValueError("sample set must be nonempty")
    q = rowdot(samples.dzs, samples.dzs)
    if np.any(q == 0.0):
        raise ValueError("sandwich samples require nonzero displacement")
    v = candidate.value(samples.zs, samples.dzs)
    lower = v - candidate.c_lower * q
    upper = candidate.c_upper * q - v
    return _margin_report(SandwichReport, "sandwich", lower, upper, len(samples), tol)


def _margin_report(report_cls, what: str, first: Array, second: Array, n_samples: int,
                   tol: float):
    """Report of two margin arrays that must both stay >= -tol: each one's
    smallest value and its first index, in the field order that
    ``SandwichReport`` and ``GradientBoundReport`` share."""
    i = int(np.argmin(first))
    j = int(np.argmin(second))
    passed = bool(first[i] >= -tol and second[j] >= -tol)
    note = NO_VIOLATION_NOTE if passed else (
        f"{what} violated at sample {i if first[i] < second[j] else j}"
    )
    return report_cls(passed, float(first[i]), float(second[j]), i, j, n_samples, note)


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
    """Check Vdot <= -alpha |dz|^2 over the sample set, at t = 0.

    The violation is Vdot + alpha |dz|^2; a negative worst value means every
    sampled point has margin.  The first non-finite violation counts as the
    worst, since it would never compare as one.
    """
    if len(samples) == 0:
        raise ValueError("sample set must be nonempty")
    zs, dzs = samples.zs, samples.dzs
    v = candidate.value(zs, dzs)
    vd = vdot(candidate, field, 0.0, zs, dzs)
    violation = vd + alpha * rowdot(dzs, dzs) - tol * (1.0 + np.abs(v))
    bad = ~np.isfinite(violation)
    worst_i = int(np.argmax(bad) if bad.any() else np.argmax(violation))
    worst = float(violation[worst_i])
    passed = bool(worst <= 0.0) and not bad.any()
    note = NO_VIOLATION_NOTE if passed else f"decay violated at sample {worst_i}"
    return DecayReport(
        passed=passed,
        worst=float(worst),
        worst_index=worst_i,
        worst_z=samples.zs[worst_i].copy(),
        worst_dz=samples.dzs[worst_i].copy(),
        n_samples=len(samples),
        note=note,
    )


@dataclass(frozen=True)
class AssumptionTwoBounds:
    """Continuous bounds |dV/dz| <= gamma(z)|dz|^2 and |dV/d(dz)| <= zeta(z)|dz|;
    ``gamma`` and ``zeta`` map states of shape (..., d) to (...)."""

    gamma: Callable[[Array], Array]
    zeta: Callable[[Array], Array]


@dataclass(frozen=True)
class GradientBoundReport:
    passed: bool
    state_margin: float
    disp_margin: float
    worst_state_index: int
    worst_disp_index: int
    n_samples: int
    note: str = NO_VIOLATION_NOTE


def verify_assumption2(
    candidate: FinslerCandidate,
    bounds: AssumptionTwoBounds,
    samples: DisplacementSamples,
    tol: float = 1e-9,
) -> GradientBoundReport:
    """Check both gradient inequalities at every sample within tolerance."""
    if len(samples) == 0:
        raise ValueError("sample set must be nonempty")
    zs, dzs = samples.zs, samples.dzs
    q = rowdot(dzs, dzs)
    gs = candidate.grad_state(zs, dzs)
    gd = candidate.grad_disp(zs, dzs)
    state_m = bounds.gamma(zs) * q - np.sqrt(rowdot(gs, gs))
    disp_m = bounds.zeta(zs) * np.sqrt(q) - np.sqrt(rowdot(gd, gd))
    return _margin_report(GradientBoundReport, "gradient bound", state_m, disp_m,
                          len(samples), tol)
