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
form.

Fixed-step RK4 as the textbook writes it, with Python-float multipliers and
2 k, which ``integrate`` must match byte for byte."""

import math

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


def _first(bad: Array, start: int) -> Array:
    """Per column of ``bad`` (T, N), the first row from ``start`` on that
    holds True; T where there is none."""
    rows = np.arange(len(bad))[:, None]
    return np.where(bad & (rows >= start), rows, len(bad)).min(axis=0)


def rk4_reference(rhs, t0: float, z0: Array, horizon: float, step: float):
    """Fixed-step RK4 of the batch z0 (N, d), every row stepped to the
    horizon in n = max(2, ceil(horizon / step)) steps, with the step written
    y + h/6 (k1 + 2 k2 + 2 k3 + k4).  Returns the samples ``integrate``
    reports, ``(times, states, derivatives, ends, blew_up)``, and the raw
    states before any row is cut, which its block sink is handed.

    A row ends at its first state from sample 1 on, or its first derivative,
    that is not finite: it keeps the samples before the state, or up to the
    derivative, whose value it reads as 0, and holds NaN after them.  The
    path stops at the last row's end."""
    n = max(2, math.ceil(horizon / step - 1e-12))
    h = horizon / n
    half, sixth = 0.5 * h, h / 6.0
    times = t0 + h * np.arange(n + 1)
    times[-1] = t0 + horizon
    ts = times.tolist()
    states = np.empty((n + 1, *z0.shape))
    derivs = np.empty_like(states)
    states[0] = z0
    with np.errstate(over="ignore", invalid="ignore"):
        derivs[0] = rhs(t0, z0)
        for i in range(n):
            y, k1, t = states[i], derivs[i], ts[i]
            k2 = rhs(t + half, y + half * k1)
            k3 = rhs(t + half, y + half * k2)
            k4 = rhs(t + h, y + h * k3)
            states[i + 1] = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            derivs[i + 1] = rhs(ts[i + 1], states[i + 1])
    bad_state = _first(~np.isfinite(states).all(axis=2), 1)
    bad_deriv = _first(~np.isfinite(derivs).all(axis=2), 0)
    ends = np.minimum(bad_state, bad_deriv + 1)
    blew = np.minimum(bad_state, bad_deriv) <= n
    end = ends.max()
    raw = states[:end].copy()
    cut = np.nonzero(bad_deriv < bad_state)[0]
    derivs[bad_deriv[cut], cut] = 0.0
    after = np.arange(n + 1)[:, None] >= ends
    states[after] = np.nan
    derivs[after] = np.nan
    return times[:end], states[:end], derivs[:end], ends, blew, raw
