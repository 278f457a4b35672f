"""Vector fields, two-block interconnections, and trajectory integration.

Every callable takes points of shape ``(..., d)``, one point per row, and a
single point ``(d,)`` is the case without a batch axis: fields and couplings
return ``(..., d)`` values and ``(..., out, in)`` Jacobians.  An
interconnection may carry a whole-state rhs (``Interconnection.joint_rhs``)
that ``assemble`` uses in place of the block form.  The solvers step a whole
batch of states ``(N, d)`` in one loop; fixed-step RK4 looks for non-finite
values once per block of steps, not after every step.  On a field declared
``autonomous=True`` it also stops stepping once the whole batch repeats bit
for bit, and fills in the rest of the path, which is the same bytes the full
path would hold; the library's builders declare it, and a field a user
builds keeps the full path unless the user sets the flag.  The state and its
displacement (variational) dynamics are integrated jointly as one augmented
system, so the Jacobian is always evaluated on the exact integrator iterates
rather than on re-interpolated states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
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
# Most values (samples x rows x dimension) a fixed-step solve stores in its
# state array and again in its derivative array: 1 GiB each.  The six 2-D
# rows of the figures action stay below it even at MAX_STEPS.
MAX_STORED_VALUES = 2**27
FD_REL_STEP = 1e-6  # relative step h / (1 + |x_i|) of every central difference


class DimensionMismatchError(ValueError):
    """Block dimensions of an interconnection are inconsistent."""


@dataclass(frozen=True)
class TimeVaryingField:
    """A vector field f(t, z) together with its state Jacobian.

    For states z of shape (..., dim), one point per row, ``rhs`` returns
    dz/dt of shape (..., dim) and ``jacobian`` the matrices of partials in z,
    of shape (..., dim, dim).

    ``autonomous`` declares that ``rhs`` ignores t and is a deterministic
    function of the batch it gets.  Fixed-step RK4 then stops stepping once
    the batch repeats bit for bit (see ``integrate``).  It is off unless set:
    ``linear_field``, ``polynomial_field``, the FHN blocks, ``assemble`` of
    two autonomous blocks and the variational field of an autonomous field
    set it.
    """

    dim: int
    rhs: RhsFn
    jacobian: JacFn
    autonomous: bool = False

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


def fd_jacobian(rhs: RhsFn, dim: int) -> JacFn:
    """Central-difference Jacobian of ``rhs`` at states z of shape (..., dim):
    column i is (rhs(t, z + h e_i) - rhs(t, z - h e_i)) / (2 h) with
    h = FD_REL_STEP * (1 + |z_i|)."""

    def jac(t: float, z: Array) -> Array:
        z = np.asarray(z, dtype=float)
        cols = []
        for i in range(dim):
            h = FD_REL_STEP * (1.0 + np.abs(z[..., i]))
            zp, zm = z.copy(), z.copy()
            zp[..., i] += h
            zm[..., i] -= h
            cols.append((np.asarray(rhs(t, zp)) - np.asarray(rhs(t, zm))) / (2.0 * h[..., None]))
        return np.stack(cols, axis=-1)

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
        autonomous=True,
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
    a field that takes batches of exactly N rows.

    ``joint_rhs``, when set, maps the gains (rho1, rho2) to an rhs of the
    whole state that gives bitwise the block form's derivatives with fewer
    numpy calls; ``assemble`` then uses it, and the Jacobian keeps the
    block form."""

    f1: TimeVaryingField
    f2: TimeVaryingField
    g1: CouplingMap
    g2: CouplingMap
    rho1: Union[float, Array]
    rho2: Union[float, Array]
    joint_rhs: Optional[Callable[[Union[float, Array], Union[float, Array]], RhsFn]] = None

    def __post_init__(self):
        if not (np.all(self.rho1 >= 0) and np.all(self.rho2 >= 0)):
            raise ValueError("coupling gains must be nonnegative")
        if not (np.all(np.isfinite(self.rho1)) and np.all(np.isfinite(self.rho2))):
            raise ValueError("coupling gains must be finite")

    @property
    def n(self) -> int:
        return self.f1.dim

    @property
    def m(self) -> int:
        return self.f2.dim

    def with_gains(self, rho1: float, rho2: float) -> "Interconnection":
        return replace(self, rho1=rho1, rho2=rho2)


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
    """Assembled (n+m)-dimensional field with block-structured Jacobian;
    its rhs is ``ic.joint_rhs(rho1, rho2)`` when that is set.  It is
    autonomous when both blocks are, the couplings being autonomous."""
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

    if ic.joint_rhs is not None:
        rhs = ic.joint_rhs(rho1, rho2)
    else:
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

    return TimeVaryingField(dim=n + m, rhs=rhs, jacobian=jacobian,
                            autonomous=f1.autonomous and f2.autonomous)


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration settings.  ``max_time`` is the horizon measured from t0.

    ``block_sink``, when set, is called by fixed-step RK4 with each stretch
    of samples that has become final, as ``block_sink(times, states)``: the
    blocks come in order, end at the last sample of the trajectory, and
    joined give its ``times`` and, on every row that did not blow up, its
    ``states`` byte for byte.  It takes no part in comparisons; the adaptive
    method refuses it."""

    max_time: float
    method: str = FIXED_RK4
    step: float = 1e-2
    atol: float = 1e-9
    rtol: float = 1e-6
    block_sink: Optional[Callable[[Array, Array], None]] = dc_field(default=None,
                                                                     compare=False)

    def __post_init__(self):
        if not 0 < self.max_time < math.inf:
            raise ValueError(f"max_time must be positive and finite, got {self.max_time}")
        if self.method not in (FIXED_RK4, ADAPTIVE_EMBEDDED):
            raise ValueError(f"unknown method {self.method!r}")
        if self.block_sink is not None and self.method != FIXED_RK4:
            raise ValueError(f"a block sink needs method {FIXED_RK4!r}, got {self.method!r}")
        if self.method == FIXED_RK4:
            if not self.step > 0:
                raise ValueError("fixed step must be positive")
            if self.step > self.max_time / 2:
                raise ValueError(f"step must be at most horizon/2, got step "
                                 f"{self.step:g} and horizon {self.max_time:g}")
            if self.max_time / self.step > MAX_STEPS:
                raise ValueError(f"horizon/step must be at most {MAX_STEPS}, got "
                                 f"{self.max_time / self.step:g}")
        else:
            if not (self.atol > 0 and self.rtol > 0):
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
    def t_end(self) -> float:
        return float(self.times[-1])

    def row(self, k: int) -> "Trajectory":
        """Row k of a batch; a trajectory from one state (d,) is its own row 0."""
        if self.ends is None:
            if k != 0:
                raise IndexError(f"a single-state trajectory has only row 0, not {k}")
            return self
        end = int(self.ends[k])
        return Trajectory(
            t0=self.t0, times=self.times[:end], states=self.states[:end, k],
            derivatives=self.derivatives[:end, k],
            displacements=None if self.displacements is None else self.displacements[:end, k],
            blew_up=bool(self.blew_up[k]),
        )

    def state_at(self, t) -> Array:
        """Hermite interpolant at t; exact at the sample nodes."""
        basis = _HermiteBasis(self.times, t, (1,) * (self.states.ndim - 1))
        return basis.apply(self.states, self.derivatives)


class _HermiteBasis:
    """Piecewise-cubic Hermite interpolation at fixed query times ``t`` on
    the sample grid ``times``, built once and applied to any samples on that
    grid: per query its interval, the interval width and the four cubic
    weights, and the queries on a left or a right node, where the stored
    sample is returned exactly.  The weights are spread over ``shape``,
    which must broadcast to the shape of one sample: a whole sample shape
    makes every product elementwise, which is fastest on small samples,
    and ones keep the weights at one number per query."""

    def __init__(self, times: Array, t, shape: tuple[int, ...]):
        tq = np.atleast_1d(np.asarray(t, dtype=float))
        self.scalar = np.ndim(t) == 0
        if len(times) == 1:
            self.lo = np.zeros(len(tq), dtype=int)
            self.h = None
            return
        lo = np.clip(np.searchsorted(times, tq, side="right") - 1, 0, len(times) - 2)
        t0 = times[lo]
        self.lo, self.hi = lo, lo + 1
        h = times[self.hi] - t0
        s = (tq - t0) / h
        s2, s3 = s * s, s * s * s

        def spread(w: Array) -> Array:  # (Q,) -> (Q,) + shape
            return np.broadcast_to(w.reshape((-1,) + (1,) * len(shape)),
                                   (len(tq),) + shape).copy()

        self.h = spread(h)
        self.weights = [spread(w) for w in (2 * s3 - 3 * s2 + 1, s3 - 2 * s2 + s,
                                            -2 * s3 + 3 * s2, s3 - s2)]
        self.exact = np.flatnonzero(s == 0.0)
        self.right = np.flatnonzero(tq == times[self.hi])

    def apply(self, values: Array, derivs: Array) -> Array:
        """The interpolant of samples ``values`` with derivatives ``derivs``
        at the query times, as (Q,) + shape, or shape for a scalar t."""
        y0 = values.take(self.lo, axis=0)
        if self.h is not None:
            w0, w1, w2, w3 = self.weights
            y1 = values.take(self.hi, axis=0)
            out = (w0 * y0 + w1 * (derivs.take(self.lo, axis=0) * self.h)
                   + w2 * y1 + w3 * (derivs.take(self.hi, axis=0) * self.h))
            out[self.exact] = y0[self.exact]
            out[self.right] = y1[self.right]
            y0 = out
        return y0[0] if self.scalar else y0


def _bad_rows(a: Array, stopped: Array) -> Optional[Array]:
    """Mask of the rows of ``a`` not yet ``stopped`` that hold a non-finite
    value, None if there are none."""
    finite = np.isfinite(a)
    if finite.all():
        return None
    bad = ~finite.all(axis=1) & ~stopped
    return bad if bad.any() else None


def _first_bad(a: Array, start: int, first: Array) -> None:
    """Lower first[k] to ``start`` plus the index of the first sample of the
    block ``a`` (T, N, d) at which row k holds a non-finite value."""
    finite = np.isfinite(a)
    if finite.all():
        return
    bad = ~finite.all(axis=2)
    np.minimum(first, np.where(bad.any(axis=0), start + bad.argmax(axis=0), first),
               out=first)


# Fixed RK4 steps between two scans for non-finite values: one scan costs
# about as much as a step, and a batch whose rows have all stopped is stepped
# at most this many steps further.
_SCAN_BLOCK = 256
# Fixed RK4 steps between two tests of an autonomous batch for a repeat: a
# test costs about 0.3 us against 34-46 us for an FHN step of 6-48 rows, so
# the tests cost under 0.1% of the steps they span, and a batch that repeats
# is stepped at most this many steps further.
_REPEAT_STRIDE = 8


def rk4_shape(horizon: float, step: float, batch_shape) -> tuple[int, ...]:
    """Shape (n + 1, N, d) of the arrays fixed-step RK4 stores for a batch of
    shape (N, d) over ``horizon`` in n = max(2, ceil(horizon / step)) equal
    steps; above ``MAX_STORED_VALUES`` values it is refused with ValueError."""
    shape = (max(2, math.ceil(horizon / step - 1e-12)) + 1, *batch_shape)
    if math.prod(shape) > MAX_STORED_VALUES:
        raise ValueError(f"a fixed-step solve of shape {shape} would store "
                         f"{math.prod(shape)} values per array, above the limit of "
                         f"{MAX_STORED_VALUES}")
    return shape


def _rk4_path(rhs: RhsFn, t0: float, z0: Array, horizon: float, step: float,
              autonomous: bool, sink: Optional[Callable[[Array, Array], None]] = None):
    """Fixed-step RK4 of the batch z0 (N, d).  A row stops at its first
    non-finite state or derivative; the other rows go on.

    The steps run in blocks of ``_SCAN_BLOCK``, with one scan for non-finite
    values after each block.  This finds the stops a test after every step
    would find: a non-finite derivative at sample k makes the state at
    k + 1 non-finite, and whatever a row holds after its stop is dropped.

    For an ``autonomous`` rhs, every ``_REPEAT_STRIDE`` steps the newest
    state of the whole batch is compared bit for bit with the one before.
    On a match the batch is a fixed point of the step map: an RK4 step of an
    autonomous field is a function of the batch alone, so every later state
    and derivative repeats the last ones, and they are filled in without
    calling ``rhs``.  The samples are those of the full path, byte for
    byte.  ``integrate`` passes ``field.autonomous``, which a field a user
    builds leaves off unless the user sets it, so such a field is stepped
    to the horizon.

    ``sink``, when given, is handed ``(times, states)`` of each stretch of
    samples as it becomes final: after each scan, the samples up to the
    block's end while some row is still going, else up to the last row's
    end; once the loop ends, the rest, such as a filled repeat."""
    shape = rk4_shape(horizon, step, z0.shape)
    n_steps = shape[0] - 1
    h = horizon / n_steps
    half, sixth = 0.5 * h, h / 6.0
    last = n_steps + 1
    times = t0 + h * np.arange(last)
    times[-1] = t0 + horizon
    ts = times.tolist()
    states = np.empty(shape)
    derivs = np.empty_like(states)
    # per row, the first sample >= 1 with a non-finite state, and the first
    # sample with a non-finite derivative; ``last`` while there is none
    bad_state = np.full(len(z0), last)
    bad_deriv = np.full(len(z0), last)
    states[0] = z0
    sent = 0  # the samples handed to the sink

    def send(upto: int) -> None:
        nonlocal sent
        if sink is not None and upto > sent:
            sink(times[sent:upto], states[sent:upto])
            sent = upto

    with np.errstate(over="ignore", invalid="ignore"):
        derivs[0] = rhs(t0, z0)
        y, k1 = states[0], derivs[0]
        _first_bad(derivs[:1], 0, bad_deriv)
        done, steps = 0, n_steps  # the steps taken, and the steps to take
        while done < steps and not (np.minimum(bad_state, bad_deriv) < last).all():
            stop = min(done + _SCAN_BLOCK, steps)
            for i in range(done, stop):
                t = ts[i]
                k2 = rhs(t + half, y + half * k1)
                k3 = rhs(t + half, y + half * k2)
                k4 = rhs(t + h, y + h * k3)
                states[i + 1] = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                y = states[i + 1]
                derivs[i + 1] = rhs(ts[i + 1], y)
                k1 = derivs[i + 1]
                if (autonomous and (i + 1) % _REPEAT_STRIDE == 0
                        and y.tobytes() == states[i].tobytes()):
                    # the filled samples repeat sample i + 1, so the scan
                    # of the steps taken finds every stop among them
                    states[i + 2:] = y
                    derivs[i + 2:] = k1
                    stop = steps = i + 1
                    break
            _first_bad(states[done + 1:stop + 1], done + 1, bad_state)
            _first_bad(derivs[done + 1:stop + 1], done + 1, bad_deriv)
            done = stop
            send(min(done + 1, np.minimum(bad_state, bad_deriv + 1).max()))
    ends = np.minimum(bad_state, bad_deriv + 1)
    blew = np.minimum(bad_state, bad_deriv) < last
    cut = np.nonzero(bad_deriv < bad_state)[0]  # rows that stop at a derivative
    derivs[bad_deriv[cut], cut] = 0.0
    end = ends.max()
    send(end)
    return times[:end], states[:end], derivs[:end], ends, blew


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
            ends[bad], blew[bad] = 1, True
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
            if h < min_step:  # the rows of bad stop, keeping the samples so far
                ends[bad], blew[bad] = len(ts), True
                h = h_accepted
    ends[~blew] = len(ts)
    return np.array(ts), np.array(ys), np.array(fs), ends, blew


def integrate(
    field: TimeVaryingField, t0: float, z0, config: IntegratorConfig
) -> Trajectory:
    """Integrate dz/dt = f(t, z) over [t0, t0 + max_time] from one state z0
    of shape (d,), or from a batch of shape (N, d) in one solver loop.

    On numerical blow-up (non-finite values) the partial trajectory is
    returned with ``blew_up`` set.  A batch is stepped whole: a row that
    stops is still stepped, on whatever values it holds, so that a field
    with per-row parameters always gets all N rows; only the rows that blew
    up stop, and row k keeps its samples before ``ends[k]`` and holds NaN
    from there on.

    When ``field.autonomous`` is set, fixed-step RK4 compares the newest
    state of the whole batch with the one before, bit for bit, every
    ``_REPEAT_STRIDE`` steps, and on a match fills the remaining states and
    derivatives with the last ones instead of calling ``rhs``.  The outputs
    are those of the full path, byte for byte; only the rhs calls drop.  A
    field a user builds is not autonomous unless the user sets the flag, and
    keeps the full path; setting it on an rhs that reads t can cut the path
    short at a standstill.

    A fixed-step solve above ``MAX_STORED_VALUES`` values per array is
    refused with ``ValueError`` before any array is allocated (``rk4_shape``).
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.ndim not in (1, 2) or z0.shape[-1] != field.dim or not z0.size:
        raise ValueError(f"z0 must have shape ({field.dim},) or (N, {field.dim}) "
                         f"with N >= 1, got {z0.shape}")
    batch = z0.reshape(-1, field.dim)
    sink = config.block_sink
    if sink is not None and z0.ndim == 1:  # blocks shaped as the trajectory's states
        sink = lambda times, states: config.block_sink(times, states[:, 0])
    if config.method == FIXED_RK4:
        times, states, derivs, ends, blew = _rk4_path(field.rhs, t0, batch, config.max_time,
                                                      config.step, field.autonomous, sink)
    else:
        times, states, derivs, ends, blew = _dopri_path(field.rhs, t0, batch, config.max_time,
                                                        config.atol, config.rtol)
    if blew.any():
        after = np.arange(len(times))[:, None] >= ends  # (T, N): from each row's end on
        states[after] = np.nan
        derivs[after] = np.nan
    if z0.ndim == 1:
        return Trajectory(t0=t0, times=times, states=states[:, 0],
                          derivatives=derivs[:, 0], blew_up=bool(blew[0]))
    return Trajectory(t0=t0, times=times, states=states, derivatives=derivs,
                      blew_up=blew, ends=ends)


def integrate_with_displacement(
    field: TimeVaryingField, t0: float, z0, d0, config: IntegratorConfig
) -> Trajectory:
    """Integrate states z0 and their displacements d0, of one shape (d,) or
    (N, d), as one ``integrate`` call on the variational field of dimension
    2d: the state with dz/dt = f(t, z), and the displacement with
    d(dz)/dt = J_f(t, z) dz.  Its Jacobian is ``fd_jacobian`` of its rhs,
    which the solvers never call.  A row stops, as ``integrate`` stops it,
    at its first non-finite state or displacement value; ``displacements``
    holds the displacement samples, and ``row(k)`` keeps them."""
    z0 = np.asarray(z0, dtype=float)
    d0 = np.asarray(d0, dtype=float)
    dim = field.dim
    if z0.shape != d0.shape or z0.ndim not in (1, 2) or z0.shape[-1] != dim or not z0.size:
        raise ValueError(f"z0 and d0 must both have shape ({dim},) or both (N, {dim}) "
                         f"with N >= 1, got {z0.shape} and {d0.shape}")

    def rhs(t: float, u: Array) -> Array:
        z, dz = u[..., :dim], u[..., dim:]
        out = np.empty(u.shape)
        out[..., :dim] = field.rhs(t, z)
        out[..., dim:] = matvec(field.jacobian(t, z), dz)
        return out

    variational = TimeVaryingField(2 * dim, rhs, fd_jacobian(rhs, 2 * dim),
                                   autonomous=field.autonomous)
    tr = integrate(variational, t0, np.concatenate([z0, d0], axis=-1), config)
    return replace(tr, states=tr.states[..., :dim], derivatives=tr.derivatives[..., :dim],
                   displacements=tr.states[..., dim:])


@dataclass
class DistanceSeries:
    """Euclidean distance between two flows sampled on a shared time grid."""

    times: Array
    values: Array
    blew_up: bool = False


def _row_norms(diff: Array) -> Array:
    """np.linalg.norm(diff, axis=1) of a (Q, d) array, bit for bit.  Up to
    d = 7, ``add.reduce`` sums the squares of a row left to right, and the
    columns summed in that order give the same bits several times faster
    than a reduction over the short axis; from d = 8 on it sums pairwise, so
    the norm itself is taken."""
    if diff.shape[1] >= 8:
        return np.linalg.norm(diff, axis=1)
    squares = diff * diff
    total = squares[:, 0]
    for j in range(1, diff.shape[1]):
        total = total + squares[:, j]
    return np.sqrt(total)


def pair_distances(traj: Trajectory, pairs, config: IntegratorConfig) -> list[DistanceSeries]:
    """t -> |z_i(t) - z_j(t)| for every pair (i, j) of rows of a batched
    trajectory: on the solver grid for fixed-step RK4, else Hermite-resampled
    at spacing ``config.step`` up to the earlier end of the two rows.  The
    pairs that are resampled share one Hermite basis per resampling end."""
    rows = {k: traj.row(k) for pair in pairs for k in pair}
    series: list[Optional[DistanceSeries]] = [None] * len(pairs)
    resampled: dict[int, list[int]] = {}  # resampling end -> its pairs
    for p, (i, j) in enumerate(pairs):
        tr1, tr2 = rows[i], rows[j]
        if config.method == FIXED_RK4 and not (tr1.blew_up or tr2.blew_up):
            dist = _row_norms(tr1.states - tr2.states)
            series[p] = DistanceSeries(times=tr1.times, values=dist, blew_up=False)
        else:
            resampled.setdefault(min(len(tr1.times), len(tr2.times)), []).append(p)
    t0 = traj.t0
    for end, members in resampled.items():
        t_end = float(traj.times[end - 1])
        n = max(2, math.ceil((t_end - t0) / config.step))
        times = np.linspace(t0, t_end, n + 1)
        basis = _HermiteBasis(traj.times[:end], times, traj.states.shape[2:])
        for p in members:
            tr1, tr2 = (rows[k] for k in pairs[p])
            with np.errstate(over="ignore", invalid="ignore"):  # a blown-up pair nears overflow
                dist = _row_norms(basis.apply(tr1.states, tr1.derivatives)
                                  - basis.apply(tr2.states, tr2.derivatives))
            series[p] = DistanceSeries(times=times, values=dist,
                                       blew_up=tr1.blew_up or tr2.blew_up)
    return series


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
    return pair_distances(traj, [(k, n + k) for k in range(n)], config)


def flow_difference(
    field: TimeVaryingField, t0: float, z1, z2, config: IntegratorConfig
) -> DistanceSeries:
    """Distance series t -> |phi(t, z1) - phi(t, z2)| on a shared grid."""
    return flow_differences(field, t0, [z1], [z2], config)[0]
