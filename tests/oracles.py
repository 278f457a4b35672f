"""References for the tests.

Per-direction references: the Lie derivative of a Finsler candidate along one
displacement, and the two gradients it is made of.  The library's checks are
exact in the displacement, taking the worst one at each state from an
eigendecomposition, so the library has no per-direction derivative; the
checks are tested against these.

The FHN outer Lyapunov function W = (x^2 + eps y^2) / 2 written out: its
value, gradient and derivative along a field, which ``OuterLyapunov`` with
weights (1, eps) must match byte for byte; and the terms of its dissipation
chain, whose gaps ``invariance.fhn_dissipation_level`` states in closed
form."""

import numpy as np

from ieskit.dynsys import TimeVaryingField, matvec, rowdot
from ieskit.finsler import FinslerCandidate, _dot

Array = np.ndarray


def grad_state(candidate: FinslerCandidate, z: Array, dz: Array) -> Array:
    """dz^T dM/dz_k dz, shape (..., dim), added in index order, so that the
    zero blocks of a ``compose`` change nothing: bitwise, its gradient is the
    concatenation of its blocks'."""
    dm, dzr = candidate.metric_grad(z), dz[..., None, :]
    return np.stack([_dot(dz, _dot(dm[..., k], dzr)) for k in range(dm.shape[-1])], axis=-1)


def grad_disp(candidate: FinslerCandidate, z: Array, dz: Array) -> Array:
    """2 M dz, shape (..., dim), added in index order as ``grad_state`` is."""
    return 2.0 * _dot(candidate.metric(z), dz[..., None, :])


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
    return (rowdot(grad_state(candidate, z, dz), f)
            + rowdot(grad_disp(candidate, z, dz), jdz))


def fhn_w_value(eps: float, z: Array) -> Array:
    return 0.5 * (z[..., 0] * z[..., 0] + eps * z[..., 1] * z[..., 1])


def fhn_w_gradient(eps: float, z: Array) -> Array:
    return np.stack([z[..., 0], eps * z[..., 1]], axis=-1)


def fhn_wdot(eps: float, field: TimeVaryingField, z: Array) -> Array:
    """dW/dz . f(0, z), with the zero time derivative added first."""
    return 0.0 + rowdot(fhn_w_gradient(eps, z), field.rhs(0.0, z))


def dissipation_chain(params, x, y):
    """Wdot and the three bounds s1, s2, s3 of the FHN dissipation chain,
    Wdot <= s1 <= s2 <= s3 at equal gains, at the state (x, y)."""
    b, eps, c = params.b, params.epsilon, params.c
    wd = x * (x - x**3 / 3.0 + c - params.rho1 * y) + y * (-b * y + params.rho2 * x)
    s1 = 1.5 * x * x - x**4 / 3.0 + c * c / 2.0 - b * y * y
    s2 = -x * x / 8.0 - b * y * y + 2.0 + c * c / 2.0
    kappa = min(0.125, b / eps)
    w = 0.5 * (x * x + eps * y * y)
    s3 = -2.0 * kappa * w + 2.0 + c * c / 2.0
    return wd, s1, s2, s3
