"""Vector fields, two-block interconnections, and trajectory integration.

Every callable takes points of shape ``(..., d)``, one point per row, and a
single point ``(d,)`` is the case without a batch axis: fields and couplings
return ``(..., d)`` values and ``(..., out, in)`` Jacobians.  The solvers
step a whole batch of states ``(N, d)`` in one loop.  The state and its
displacement (variational) dynamics are integrated jointly as one augmented
system, so the Jacobian is always evaluated on the exact integrator iterates
rather than on re-interpolated states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

Array = np.ndarray
RhsFn = Callable[[float, Array], Array]
JacFn = Callable[[float, Array], Array]

FIXED_RK4 = "fixed_rk4"
ADAPTIVE_EMBEDDED = "adaptive_embedded"

# Largest number of fixed steps one integration may take: every step stores a
# state and a derivative per row, so the horizon/step ratio bounds the memory.
MAX_STEPS = 10**7


class DimensionMismatchError(ValueError):
    """Block dimensions of an interconnection are inconsistent."""


@dataclass(frozen=True)
class TimeVaryingField:
    """A vector field f(t, z) together with its state Jacobian.

    For states z of shape (..., dim), one point per row, ``rhs`` returns
    dz/dt of shape (..., dim) and ``jacobian`` the matrices of partials in z,
    of shape (..., dim, dim).
    """

    dim: int
    rhs: RhsFn
    jacobian: JacFn

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"field dimension must be positive, got {self.dim}")


def rowdot(a: Array, b: Array) -> Array:
    """Dot products of matching rows of two (..., d) arrays, as (...); the
    stacked matmul rounds each row as the 1-D ``a @ b`` does, a sum need not."""
    return (np.asarray(a)[..., None, :] @ np.asarray(b)[..., :, None])[..., 0, 0]


def matvec(m: Array, v: Array) -> Array:
    """Products of (..., p, d) matrices with matching (..., d) vectors, as (..., p)."""
    return (m @ np.asarray(v)[..., None])[..., 0]


def central_difference(f: Callable[[Array], Array], x, rel_step: float = 1e-6) -> Array:
    """Central differences of ``f`` at points x of shape (..., d), one per
    coordinate, stacked on a new last axis: entry [..., i] is
    (f(x + h e_i) - f(x - h e_i)) / (2 h) with h = rel_step * (1 + |x_i|)."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.shape[-1]):
        h = rel_step * (1.0 + np.abs(x[..., i]))
        xp, xm = x.copy(), x.copy()
        xp[..., i] += h
        xm[..., i] -= h
        diff = np.asarray(f(xp)) - np.asarray(f(xm))
        cols.append(diff / (2.0 * h.reshape(h.shape + (1,) * (diff.ndim - h.ndim))))
    return np.stack(cols, axis=-1)


def fd_jacobian(rhs: RhsFn, dim: int, rel_step: float = 1e-6) -> JacFn:
    """Central-difference Jacobian of ``rhs`` with step rel_step*(1+|z_i|)."""

    def jac(t: float, z: Array) -> Array:
        return central_difference(lambda w: rhs(t, w), z, rel_step)

    return jac


def linear_field(a: Array) -> TimeVaryingField:
    """The field dz/dt = A z."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    dim = a.shape[0]
    if a.shape != (dim, dim):
        raise ValueError(f"A must be square, got shape {a.shape}")
    return TimeVaryingField(
        dim=dim,
        rhs=lambda t, z: z @ a.T,
        jacobian=lambda t, z: np.broadcast_to(a, np.shape(z)[:-1] + a.shape).copy(),
    )


@dataclass(frozen=True)
class CouplingMap:
    """Autonomous coupling g: R^in_dim -> R^out_dim with its Jacobian.

    For points of shape (..., in_dim), ``value`` returns (..., out_dim) and
    ``jacobian`` (..., out_dim, in_dim)."""

    in_dim: int
    out_dim: int
    value: Callable[[Array], Array]
    jacobian: Callable[[Array], Array]


def linear_coupling(matrix: Array) -> CouplingMap:
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    return CouplingMap(
        in_dim=m.shape[1],
        out_dim=m.shape[0],
        value=lambda v: v @ m.T,
        jacobian=lambda v: np.broadcast_to(m, np.shape(v)[:-1] + m.shape).copy(),
    )


@dataclass(frozen=True)
class Interconnection:
    """Two-block coupled system (f1(t,x) + rho1 g1(y), f2(t,y) + rho2 g2(x)).

    A gain is one number, or an (N, 1) column of one gain per state row for
    a field that takes batches of exactly N rows."""

    f1: TimeVaryingField
    f2: TimeVaryingField
    g1: CouplingMap
    g2: CouplingMap
    rho1: Union[float, Array]
    rho2: Union[float, Array]

    def __post_init__(self):
        if np.any(self.rho1 < 0) or np.any(self.rho2 < 0):
            raise ValueError("coupling gains must be nonnegative")

    @property
    def n(self) -> int:
        return self.f1.dim

    @property
    def m(self) -> int:
        return self.f2.dim

    def with_gains(self, rho1: float, rho2: float) -> "Interconnection":
        return Interconnection(self.f1, self.f2, self.g1, self.g2, rho1, rho2)


def _gain_block(rho, g: CouplingMap):
    """v -> rho * g.jacobian(v), the (..., out, in) coupling block of the
    assembled Jacobian, or None when every gain is zero.  A row whose gain
    in a column is zero gets +0.0, as the uncoupled block does."""
    rho = np.expand_dims(rho, -1)  # a gain column (N, 1) as (N, 1, 1)
    nonzero = rho != 0.0
    if not nonzero.any():
        return None
    if nonzero.all():
        return lambda v: rho * g.jacobian(v)
    return lambda v: np.where(nonzero, rho * g.jacobian(v), 0.0)


def assemble(ic: Interconnection) -> TimeVaryingField:
    """Assembled (n+m)-dimensional field with block-structured Jacobian."""
    n, m = ic.n, ic.m
    if ic.g1.in_dim != m or ic.g1.out_dim != n:
        raise DimensionMismatchError(
            f"coupling g1 must map R^{m} -> R^{n}, "
            f"got R^{ic.g1.in_dim} -> R^{ic.g1.out_dim}"
        )
    if ic.g2.in_dim != n or ic.g2.out_dim != m:
        raise DimensionMismatchError(
            f"coupling g2 must map R^{n} -> R^{m}, "
            f"got R^{ic.g2.in_dim} -> R^{ic.g2.out_dim}"
        )
    rho1, rho2 = ic.rho1, ic.rho2
    f1, f2, g1, g2 = ic.f1, ic.f2, ic.g1, ic.g2
    block1, block2 = _gain_block(rho1, g1), _gain_block(rho2, g2)

    def rhs(t: float, z: Array) -> Array:
        x, y = z[..., :n], z[..., n:]
        out = np.empty(z.shape)
        out[..., :n] = f1.rhs(t, x) + rho1 * g1.value(y)
        out[..., n:] = f2.rhs(t, y) + rho2 * g2.value(x)
        return out

    def jacobian(t: float, z: Array) -> Array:
        x, y = z[..., :n], z[..., n:]
        jac = np.zeros(z.shape + (n + m,))
        jac[..., :n, :n] = f1.jacobian(t, x)
        jac[..., n:, n:] = f2.jacobian(t, y)
        if block1 is not None:
            jac[..., :n, n:] = block1(y)
        if block2 is not None:
            jac[..., n:, :n] = block2(x)
        return jac

    return TimeVaryingField(dim=n + m, rhs=rhs, jacobian=jacobian)


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration settings.  ``max_time`` is the horizon measured from t0."""

    max_time: float
    method: str = FIXED_RK4
    step: float = 1e-2
    atol: float = 1e-9
    rtol: float = 1e-6

    def __post_init__(self):
        if self.max_time <= 0:
            raise ValueError("max_time must be positive")
        if self.method not in (FIXED_RK4, ADAPTIVE_EMBEDDED):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == FIXED_RK4:
            if self.step <= 0:
                raise ValueError("fixed step must be positive")
            if self.step > self.max_time / 2:
                raise ValueError("fixed step must divide the horizon into >= 2 steps")
            if self.max_time / self.step > MAX_STEPS:
                raise ValueError(f"fixed step must divide the horizon into at most "
                                 f"{MAX_STEPS} steps, got max_time/step = "
                                 f"{self.max_time / self.step:g}")
        else:
            if self.atol <= 0 or self.rtol <= 0:
                raise ValueError("adaptive tolerances must be strictly positive")


@dataclass
class Trajectory:
    """Sampled solution with optional displacement samples.

    ``derivatives`` holds the right-hand side at the sample nodes, which makes
    cubic Hermite interpolation between nodes free of extra field calls.
    Interpolation at the stored nodes reproduces the samples exactly.

    A batch integrated from states of shape (N, d) has states and
    derivatives of shape (T, N, d) on the shared ``times``; ``blew_up`` and
    ``ends`` are then per row.  Both solvers keep the batch whole after a row
    stops, but row k keeps only its samples before ``ends[k]`` and holds NaN
    from there on; ``row(k)`` cuts it out as a trajectory of its own.
    """

    t0: float
    times: Array
    states: Array
    derivatives: Array
    displacements: Optional[Array] = None
    blew_up: Union[bool, Array] = False
    ends: Optional[Array] = None

    @property
    def dim(self) -> int:
        return self.states.shape[-1]

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def row(self, k: int) -> "Trajectory":
        end = int(self.ends[k])
        return Trajectory(
            t0=self.t0, times=self.times[:end], states=self.states[:end, k],
            derivatives=self.derivatives[:end, k], blew_up=bool(self.blew_up[k]),
        )

    def state_at(self, t) -> Array:
        return _hermite_eval(self.times, self.states, self.derivatives, t)


def _hermite_eval(times: Array, values: Array, derivs: Array, t) -> Array:
    """Piecewise-cubic Hermite interpolation; exact at the sample nodes."""
    tq = np.atleast_1d(np.asarray(t, dtype=float))
    if len(times) == 1:
        out = np.repeat(values[:1], len(tq), axis=0)
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return out[0]
        return out
    idx = np.searchsorted(times, tq, side="right") - 1
    idx = np.clip(idx, 0, len(times) - 2)
    t0 = times[idx]
    h = (times[idx + 1] - t0).reshape((-1,) + (1,) * (values.ndim - 1))
    s = (tq - t0).reshape(h.shape) / h
    y0, y1 = values[idx], values[idx + 1]
    d0, d1 = derivs[idx] * h, derivs[idx + 1] * h
    s2, s3 = s * s, s * s * s
    out = (
        (2 * s3 - 3 * s2 + 1) * y0
        + (s3 - 2 * s2 + s) * d0
        + (-2 * s3 + 3 * s2) * y1
        + (s3 - s2) * d1
    )
    # exact reproduction of stored samples at the nodes
    exact = s.ravel() == 0.0
    if np.any(exact):
        out[exact] = y0[exact]
    right = tq == times[idx + 1]
    if np.any(right):
        out[right] = y1[right]
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return out[0]
    return out


def _bad_rows(a: Array, stopped: Array) -> Optional[Array]:
    """Mask of the rows of ``a`` not yet ``stopped`` that hold a non-finite
    value, None if there are none."""
    finite = np.isfinite(a)
    if finite.all():
        return None
    bad = ~finite.all(axis=1) & ~stopped
    return bad if bad.any() else None


def _stop(bad: Array, end: int, ends: Array, blew: Array) -> bool:
    """Stop the rows of ``bad``, all still going, at sample ``end``: they keep
    the samples before it.  Returns whether every row has now stopped."""
    ends[bad] = end
    blew[bad] = True
    return bool(blew.all())


def _rk4_path(rhs: RhsFn, t0: float, z0: Array, horizon: float, step: float):
    """Fixed-step RK4 of the batch z0 (N, d).  A row stops at its first
    non-finite state or derivative; the other rows go on."""
    n_steps = max(2, math.ceil(horizon / step - 1e-12))
    h = horizon / n_steps
    times = t0 + h * np.arange(n_steps + 1)
    times[-1] = t0 + horizon
    states = np.empty((n_steps + 1,) + z0.shape)
    derivs = np.empty_like(states)
    ends = np.full(len(z0), n_steps + 1)
    blew = np.zeros(len(z0), dtype=bool)
    states[0] = z0
    with np.errstate(over="ignore", invalid="ignore"):
        derivs[0] = rhs(t0, z0)
        bad = _bad_rows(derivs[0], blew)
        if bad is not None:
            derivs[0, bad] = 0.0
            _stop(bad, 1, ends, blew)
        for i in range(0 if blew.all() else n_steps):
            t, y, k1 = times[i], states[i], derivs[i]
            k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(t + h, y + h * k3)
            y_next = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            states[i + 1] = y_next
            bad = _bad_rows(y_next, blew)
            if bad is not None and _stop(bad, i + 1, ends, blew):
                break
            d_next = rhs(times[i + 1], y_next)
            derivs[i + 1] = d_next
            bad = _bad_rows(d_next, blew)
            if bad is not None:
                derivs[i + 1, bad] = 0.0
                if _stop(bad, i + 2, ends, blew):
                    break
    last = ends.max()
    return times[:last], states[:last], derivs[:last], ends, blew


# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def _combine(weights: Array, k: Array) -> Array:
    """sum_i weights[i] k[i] over the leading axis of the stage stack ``k``."""
    return (weights @ k.reshape(len(weights), -1)).reshape(k.shape[1:])


def _dopri_path(rhs: RhsFn, t0: float, z0: Array, horizon: float, atol: float, rtol: float):
    """Dormand-Prince 5(4) of the batch z0 (N, d) on one shared step size,
    set by the worst row error norm.  A row whose step cannot be made finite
    or accurate above the minimum step stops there; the other rows go on
    from the last step size accepted."""
    t_end = t0 + horizon
    max_step = horizon / 2.0
    min_step = 1e-14 * horizon
    ends = np.zeros(len(z0), dtype=int)
    blew = np.zeros(len(z0), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        f_cur = rhs(t0, z0)
        bad = _bad_rows(f_cur, blew)
        if bad is not None:
            f_cur = np.where(bad[:, None], 0.0, f_cur)
            _stop(bad, 1, ends, blew)
        ts, ys, fs = [t0], [z0], [f_cur]
        t, y = t0, z0
        h = h_accepted = min(max_step, horizon / 100.0)
        while not blew.all() and t < t_end - 1e-12 * horizon:
            h = min(h, t_end - t)
            k = np.empty((7,) + y.shape)
            k[0] = f_cur
            for i in range(1, 7):
                yi = y + h * _combine(_DP_A[i], k[:i])
                k[i] = rhs(t + _DP_C[i] * h, yi)
                bad = _bad_rows(k[i], blew)
                if bad is not None:
                    break
            else:
                y5 = y + h * _combine(_DP_B5, k)
                y4 = y + h * _combine(_DP_B4, k)
                bad = _bad_rows(y5, blew)
            if bad is None:
                scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
                row_err = np.sqrt(np.mean(((y5 - y4) / scale) ** 2, axis=1))
                row_err[blew] = 0.0  # stopped rows do not set the step
                err = float(row_err.max())
                if err <= 1.0:
                    t = t + h
                    y = y5
                    f_cur = k[6].copy()  # FSAL; the copy lets k go
                    ts.append(t)
                    ys.append(y)
                    fs.append(f_cur)
                    factor = 0.9 * (err + 1e-16) ** -0.2
                    h = h_accepted = min(max_step, h * min(5.0, max(0.2, factor)))
                    continue
                h = h * max(0.2, 0.9 * err**-0.25)
                bad = ~(row_err <= 1.0)  # NaN errors count as too large
            else:
                h *= 0.5
            if h < min_step:
                _stop(bad, len(ts), ends, blew)
                h = h_accepted
    ends[~blew] = len(ts)
    return np.array(ts), np.array(ys), np.array(fs), ends, blew


def _solve(rhs: RhsFn, t0: float, z0: Array, config: IntegratorConfig):
    """Integrate the batch z0 (N, d) as one whole batch: a row that stops is
    still stepped, on whatever values it holds, so that a field with per-row
    parameters always gets all N rows.  Row k keeps its samples before
    ``ends[k]`` and holds NaN from there on."""
    if config.method == FIXED_RK4:
        times, states, derivs, ends, blew = _rk4_path(rhs, t0, z0, config.max_time,
                                                      config.step)
    else:
        times, states, derivs, ends, blew = _dopri_path(rhs, t0, z0, config.max_time,
                                                        config.atol, config.rtol)
    if blew.any():
        after = np.arange(len(times))[:, None] >= ends  # (T, N): from each row's end on
        states[after] = np.nan
        derivs[after] = np.nan
    return times, states, derivs, ends, blew


def integrate(
    field: TimeVaryingField, t0: float, z0, config: IntegratorConfig
) -> Trajectory:
    """Integrate dz/dt = f(t, z) over [t0, t0 + max_time] from one state z0
    of shape (d,), or from a batch of shape (N, d) in one solver loop.

    On numerical blow-up (non-finite values) the partial trajectory is
    returned with ``blew_up`` set; in a batch, only the rows that blew up
    stop.
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.ndim not in (1, 2) or z0.shape[-1] != field.dim or not z0.size:
        raise ValueError(f"z0 must have shape ({field.dim},) or (N, {field.dim}) "
                         f"with N >= 1, got {z0.shape}")
    times, states, derivs, ends, blew = _solve(field.rhs, t0, z0.reshape(-1, field.dim),
                                               config)
    if z0.ndim == 1:
        return Trajectory(t0=t0, times=times, states=states[:, 0],
                          derivatives=derivs[:, 0], blew_up=bool(blew[0]))
    return Trajectory(t0=t0, times=times, states=states, derivatives=derivs,
                      blew_up=blew, ends=ends)


def integrate_with_displacement(
    field: TimeVaryingField, t0: float, z0, d0, config: IntegratorConfig
) -> Trajectory:
    """Jointly integrate the state and its displacement d(dz)/dt = J_f dz."""
    z0 = np.asarray(z0, dtype=float)
    d0 = np.asarray(d0, dtype=float)
    if z0.shape != (field.dim,) or d0.shape != (field.dim,):
        raise ValueError(
            f"z0 and d0 must have shape ({field.dim},), got {z0.shape} and {d0.shape}"
        )
    dim = field.dim

    def aug_rhs(t: float, u: Array) -> Array:
        z, dz = u[:, :dim], u[:, dim:]
        out = np.empty(u.shape)
        out[:, :dim] = field.rhs(t, z)
        out[:, dim:] = matvec(field.jacobian(t, z), dz)
        return out

    u0 = np.concatenate([z0, d0])[None]
    times, states, derivs, _, blew = _solve(aug_rhs, t0, u0, config)
    return Trajectory(
        t0=t0,
        times=times,
        states=states[:, 0, :dim],
        derivatives=derivs[:, 0, :dim],
        displacements=states[:, 0, dim:],
        blew_up=bool(blew[0]),
    )


@dataclass
class DistanceSeries:
    """Euclidean distance between two flows sampled on a shared time grid."""

    times: Array
    values: Array
    blew_up: bool = False


def distance_series(traj: Trajectory, i: int, j: int,
                    config: IntegratorConfig) -> DistanceSeries:
    """t -> |z_i(t) - z_j(t)| between rows i and j of a batched trajectory:
    on the solver grid for fixed-step RK4, else Hermite-resampled at spacing
    ``config.step`` up to the earlier end of the two rows."""
    tr1, tr2 = traj.row(i), traj.row(j)
    blew = tr1.blew_up or tr2.blew_up
    if config.method == FIXED_RK4 and not blew:
        dist = np.linalg.norm(tr1.states - tr2.states, axis=1)
        return DistanceSeries(times=tr1.times, values=dist, blew_up=False)
    t0 = traj.t0
    t_end = min(tr1.t_end, tr2.t_end)
    n = max(2, math.ceil((t_end - t0) / config.step))
    times = np.linspace(t0, t_end, n + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # a blown-up pair nears overflow
        dist = np.linalg.norm(tr1.state_at(times) - tr2.state_at(times), axis=1)
    return DistanceSeries(times=times, values=dist, blew_up=blew)


def flow_differences(
    field: TimeVaryingField, t0: float, z1s, z2s, config: IntegratorConfig
) -> list[DistanceSeries]:
    """Distance series t -> |phi(t, z1s[k]) - phi(t, z2s[k])| of every pair,
    with all 2N flows integrated as one batch."""
    z1s = np.asarray(z1s, dtype=float)
    z2s = np.asarray(z2s, dtype=float)
    if z1s.shape != z2s.shape:
        raise ValueError("z1 and z2 must have the same dimension")
    n = len(z1s)
    traj = integrate(field, t0, np.concatenate([z1s, z2s]), config)
    return [distance_series(traj, k, n + k, config) for k in range(n)]


def flow_difference(
    field: TimeVaryingField, t0: float, z1, z2, config: IntegratorConfig
) -> DistanceSeries:
    """Distance series t -> |phi(t, z1) - phi(t, z2)| on a shared grid."""
    return flow_differences(field, t0, [z1], [z2], config)[0]
