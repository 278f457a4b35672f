"""Finsler Lyapunov candidates: evaluation and sampled inequality checks.

Candidates and gradient bounds take points of shape (..., d) as the fields of
``ieskit.dynsys`` do, so each check calls them once on its whole sample set.

Grid checks can only refute an inequality, never prove it over a continuum,
so every report carries a "no violation found" note rather than a claim of
verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ieskit.dynsys import TimeVaryingField, central_difference, matvec, rowdot
from ieskit.sampling import halton_box, halton_sphere

Array = np.ndarray

NO_VIOLATION_NOTE = "no violation found on the sampled set (sampling refutes, it does not prove)"


@dataclass(frozen=True)
class FinslerCandidate:
    """Candidate V(z, dz) with both partial gradients and sandwich constants.

    For z and dz of shape (..., dim), ``value`` returns V of shape (...), and
    ``grad_state`` and ``grad_disp`` return dV/dz and dV/d(dz) of shape
    (..., dim).  V must satisfy c_lower |dz|^2 <= V <= c_upper |dz|^2 on the
    working set.
    """

    dim: int
    value: Callable[[Array, Array], Array]
    grad_state: Callable[[Array, Array], Array]
    grad_disp: Callable[[Array, Array], Array]
    c_lower: float
    c_upper: float

    def __post_init__(self):
        if self.c_lower <= 0 or self.c_upper <= 0:
            raise ValueError("sandwich constants must be positive")
        if self.c_lower > self.c_upper:
            raise ValueError("c_lower must not exceed c_upper")


def generic_candidate(
    dim: int,
    value: Callable[[Array, Array], Array],
    c_lower: float,
    c_upper: float,
) -> FinslerCandidate:
    """Candidate from a value function alone; gradients by central differences."""

    def grad_state(z: Array, dz: Array) -> Array:
        return central_difference(lambda w: value(w, dz), z)

    def grad_disp(z: Array, dz: Array) -> Array:
        return central_difference(lambda w: value(z, w), dz)

    return FinslerCandidate(dim, value, grad_state, grad_disp, c_lower, c_upper)


def quadratic_candidate(
    dim: int,
    metric: Callable[[Array], Array],
    c_lower: float,
    c_upper: float,
    metric_grad: Optional[Callable[[Array], Array]] = None,
) -> FinslerCandidate:
    """Quadratic-form candidate V = dz^T M(z) dz.

    ``metric`` returns M of shape (..., dim, dim), and ``metric_grad`` the
    (..., dim, dim, dim) array whose [..., i, j, k] entry is dM_ij/dz_k; when
    omitted it is approximated by central differences of M.
    """

    def _dmetric(z: Array) -> Array:
        if metric_grad is not None:
            return np.asarray(metric_grad(z), dtype=float)
        return central_difference(metric, z)

    def value(z: Array, dz: Array) -> Array:
        return _quadform(metric(z), dz)

    def grad_state(z: Array, dz: Array) -> Array:
        dm = _dmetric(np.asarray(z, dtype=float))
        return _quadform(np.moveaxis(dm, -1, -3), np.asarray(dz)[..., None, :])

    def grad_disp(z: Array, dz: Array) -> Array:
        return 2.0 * matvec(np.asarray(metric(z)), dz)

    return FinslerCandidate(dim, value, grad_state, grad_disp, c_lower, c_upper)


def _quadform(m: Array, v: Array) -> Array:
    """v^T m v for (..., d, d) matrices and (..., d) vectors, as (...)."""
    return (v[..., None, :] @ m @ v[..., :, None])[..., 0, 0]


def compose(a: FinslerCandidate, b: FinslerCandidate) -> FinslerCandidate:
    """Direct sum on the product space: values add, gradients concatenate."""
    na = a.dim

    def value(z: Array, dz: Array) -> Array:
        return a.value(z[..., :na], dz[..., :na]) + b.value(z[..., na:], dz[..., na:])

    def joined(grad_a, grad_b):
        return lambda z, dz: np.concatenate(
            [grad_a(z[..., :na], dz[..., :na]), grad_b(z[..., na:], dz[..., na:])], axis=-1)

    return FinslerCandidate(
        dim=a.dim + b.dim,
        value=value,
        grad_state=joined(a.grad_state, b.grad_state),
        grad_disp=joined(a.grad_disp, b.grad_disp),
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
    i_lo = int(np.argmin(lower))
    i_up = int(np.argmin(upper))
    passed = lower[i_lo] >= -tol and upper[i_up] >= -tol
    note = NO_VIOLATION_NOTE if passed else (
        f"sandwich violated at sample {i_lo if lower[i_lo] < upper[i_up] else i_up}"
    )
    return SandwichReport(
        passed=passed,
        lower_margin=float(lower[i_lo]),
        upper_margin=float(upper[i_up]),
        worst_lower_index=i_lo,
        worst_upper_index=i_up,
        n_samples=len(samples),
        note=note,
    )


@dataclass(frozen=True)
class DecayReport:
    passed: bool
    worst: float
    worst_index: int
    worst_z: Array
    worst_dz: Array
    n_samples: int
    alpha: float
    comparator: str
    note: str = NO_VIOLATION_NOTE


def check_decay(
    candidate: FinslerCandidate,
    field: TimeVaryingField,
    alpha: float,
    samples: DisplacementSamples,
    tol: float = 1e-9,
    comparator: str = "candidate",
) -> DecayReport:
    """Check Vdot <= -alpha * V ("candidate") or Vdot <= -alpha |dz|^2
    ("squared_norm") over the sample set, at t = 0.

    The worst violation is Vdot plus the compared quantity; a negative worst
    value means every sampled point has margin.  The first non-finite
    violation counts as the worst, since it would never compare as one.
    """
    if len(samples) == 0:
        raise ValueError("sample set must be nonempty")
    if comparator not in ("candidate", "squared_norm"):
        raise ValueError(f"unknown comparator {comparator!r}")
    zs, dzs = samples.zs, samples.dzs
    v = candidate.value(zs, dzs)
    vd = vdot(candidate, field, 0.0, zs, dzs)
    compared = v if comparator == "candidate" else rowdot(dzs, dzs)
    violation = vd + alpha * compared - tol * (1.0 + np.abs(v))
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
        alpha=alpha,
        comparator=comparator,
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
    i_s = int(np.argmin(state_m))
    i_d = int(np.argmin(disp_m))
    passed = state_m[i_s] >= -tol and disp_m[i_d] >= -tol
    note = NO_VIOLATION_NOTE if passed else (
        f"gradient bound violated at sample {i_s if state_m[i_s] < disp_m[i_d] else i_d}"
    )
    return GradientBoundReport(
        passed=passed,
        state_margin=float(state_m[i_s]),
        disp_margin=float(disp_m[i_d]),
        worst_state_index=i_s,
        worst_disp_index=i_d,
        n_samples=len(samples),
        note=note,
    )
