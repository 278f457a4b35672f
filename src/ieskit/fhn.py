"""FitzHugh-Nagumo case study: model blocks, the constructive contraction
weight f_c with its derivative, the constants mu and eta, and the component
Finsler candidates."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence, Union

import numpy as np

from ieskit.dynsys import CouplingMap, Interconnection, TimeVaryingField
from ieskit.finsler import AssumptionTwoBounds, FinslerCandidate
from ieskit.io_utils import _cells, _csv_rows, atomic_write_text

Array = np.ndarray


@dataclass(frozen=True)
class FhnParams:
    """Model parameters dx/dt = x - x^3/3 + c - rho1*y, eps*dy/dt = -b*y + rho2*x.

    The constant term is tied to ``r`` by c = r^3 - r.  The exponent rate
    ``alpha`` of the contraction weight must lie in (0, 2 r^2 - 2), which
    guarantees s* = sqrt((2 + alpha)/2) < r.
    """

    b: float
    rho1: float
    rho2: float
    epsilon: float
    r: float
    alpha: float = 1.0

    def __post_init__(self):
        if not self.b > 0:
            raise ValueError("b must be positive")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not (self.rho1 >= 0 and self.rho2 >= 0):
            raise ValueError("coupling gains must be nonnegative")
        if not (math.isfinite(self.rho1) and math.isfinite(self.rho2)):
            raise ValueError(f"coupling gains must be finite, got {self.rho1}, {self.rho2}")
        if not math.isfinite(self.r):
            raise ValueError(f"r must be finite, got {self.r}")
        hi = 2.0 * self.r * self.r - 2.0
        if not (0.0 < self.alpha < hi):
            raise ValueError(
                f"alpha must lie in (0, 2 r^2 - 2) = (0, {hi}), got {self.alpha}"
            )

    @property
    def c(self) -> float:
        return self.r**3 - self.r

    @property
    def s_star(self) -> float:
        return math.sqrt((2.0 + self.alpha) / 2.0)

    @classmethod
    def from_c(
        cls,
        c: float,
        b: float,
        rho1: float,
        rho2: float,
        epsilon: float,
        alpha: float = 1.0,
    ) -> "FhnParams":
        """Build params from the constant term c, taking the largest real root
        of r^3 - r = c so that c = r^3 - r holds exactly as an identity of the
        stored root."""
        roots = np.roots([1.0, 0.0, -1.0, -c])
        real = roots[np.abs(roots.imag) < 1e-9].real
        if len(real) == 0:
            raise ValueError(f"no real r with r^3 - r = {c}")
        r = float(np.max(real))
        for _ in range(3):  # Newton polish to the last ulp
            r -= (r**3 - r - c) / (3.0 * r * r - 1.0)
        return cls(b=b, rho1=rho1, rho2=rho2, epsilon=epsilon, r=r, alpha=alpha)


def figure_params(figure: int) -> FhnParams:
    """Parameter presets of the three benchmark scenarios."""
    if figure == 1:
        return FhnParams.from_c(c=1.0, b=0.1, rho1=1.0, rho2=1.0, epsilon=1.0)
    if figure == 2:
        return FhnParams.from_c(c=1.0, b=0.1, rho1=0.1, rho2=0.1, epsilon=1.0)
    if figure == 3:
        return FhnParams.from_c(c=1.0, b=1.0, rho1=1.0, rho2=1.0, epsilon=0.9)
    raise ValueError(f"unknown figure {figure}")


# one parameter set, or one set per state row
ParamSets = Union[FhnParams, Sequence[FhnParams]]


def _per_row(params: ParamSets, value):
    """``value(p)`` of one parameter set ``p``, or the values of a sequence
    of sets, one per state row, as an (N, 1) column."""
    if isinstance(params, FhnParams):
        return value(params)
    if not len(params):
        raise ValueError("need at least one parameter set")
    return np.array([[value(p)] for p in params])


def _refuse(shape: tuple, z: Array) -> ValueError:
    return ValueError(
        f"a field of {shape[0]} FHN parameter sets takes batches of exactly "
        f"{shape[0]} rows, got states of shape {z.shape}")


def _fixed_batch(block: TimeVaryingField, column) -> TimeVaryingField:
    """``block`` itself for one parameter set.  For an (N, 1) column of
    per-row values, the block refusing any states but a batch of exactly N
    rows: fewer rows fail to broadcast against the column, and a single
    point would broadcast to the whole column without notice."""
    if np.ndim(column) == 0:
        return block
    shape = (len(column), block.dim)
    block_rhs, block_jacobian = block.rhs, block.jacobian

    def rhs(t: float, z: Array) -> Array:
        if z.shape != shape:
            raise _refuse(shape, z)
        return block_rhs(t, z)

    def jacobian(t: float, z: Array) -> Array:
        if z.shape != shape:
            raise _refuse(shape, z)
        return block_jacobian(t, z)

    return TimeVaryingField(dim=block.dim, rhs=rhs, jacobian=jacobian)


def x_subsystem(params: ParamSets) -> TimeVaryingField:
    """Isolated excitable block dx/dt = x - x^3/3 + c."""
    c = _per_row(params, lambda p: p.c)

    def rhs(t: float, x: Array) -> Array:
        return x - x**3 / 3.0 + c

    def jac(t: float, x: Array) -> Array:
        return (1.0 - x * x)[..., None]

    return _fixed_batch(TimeVaryingField(dim=1, rhs=rhs, jacobian=jac), c)


def y_subsystem(params: ParamSets) -> TimeVaryingField:
    """Isolated recovery block dy/dt = -(b/eps) y."""
    rate = _per_row(params, lambda p: p.b / p.epsilon)
    jac_entry = np.expand_dims(-rate, -1)

    def rhs(t: float, y: Array) -> Array:
        return -rate * y

    def jac(t: float, y: Array) -> Array:
        return np.full(y.shape + (1,), jac_entry)

    return _fixed_batch(TimeVaryingField(dim=1, rhs=rhs, jacobian=jac), rate)


def _pair(a, b) -> Array:
    """The values a and b side by side on a last axis of length 2: shape
    (2,) for two numbers, (N, 2) when either is an (N, 1) column."""
    return np.concatenate(np.broadcast_arrays(np.atleast_1d(a), np.atleast_1d(b)),
                          axis=-1)


def _joint_rhs(params: ParamSets):
    """rho1, rho2 -> the model's rhs on whole states (..., 2), in eight array
    operations on whole (..., 2) operands, with one temporary besides the
    result:

        out = z * [1, -b/eps] - z ** [3, 0] / [3, inf] + [c, -0.0]
        out += ((z / [eps, 1]) * [rho2, -rho1]) reversed on the last axis

    Row by row it makes the block form's IEEE operations in the block form's
    order: x * 1 = x and y / 1 = y, y + -0.0 = y, -rho1 * y is rho1 * -y,
    and x**3.0 runs the same power loop as x**3.  The second column of the
    cube term is y**0 / inf, which is +0.0 for every y, NaN and inf
    included, and y*a - +0.0 is y*a bit for bit.

    The six operand rows are stacked once.  Per-row sets make them (N, 2),
    the only batch shape the rhs takes.  One parameter set makes them (2,):
    the rhs tiles them to the batch's shape when it is called twice in a row
    at that shape on a C-contiguous batch, as the solvers do on every step,
    so that numpy runs each operation as one flat loop.  The tiled operands
    take 96 bytes per batch row and are held until the next call at another
    shape, or until the field is dropped.  A one-off call broadcasts the
    rows instead, which costs no copy for a shape that does not come back.
    So does a batch in another memory order: C-ordered operands would change
    numpy's loop layout for it, and with the layout which of two NaNs a sum
    returns."""
    lin = _pair(1.0, -_per_row(params, lambda p: p.b / p.epsilon))
    cube_power, cube_div = np.array([3.0, 0.0]), np.array([3.0, math.inf])
    const = _pair(_per_row(params, lambda p: p.c), -0.0)
    div = _pair(_per_row(params, lambda p: p.epsilon), 1.0)

    def joint(rho1, rho2):
        gain = _pair(np.asarray(rho2, dtype=float), -np.asarray(rho1, dtype=float))
        stacked = np.stack(np.broadcast_arrays(lin, cube_power, cube_div, const, div, gain))
        rows, shape = tuple(stacked), stacked.shape[1:]
        # (last batch shape, its operands), replaced whole, so that a call
        # never pairs one call's shape with another's operands
        memo = (None, rows)

        def rhs(t: float, z: Array) -> Array:
            nonlocal memo
            if len(shape) == 2:
                if z.shape != shape:
                    raise _refuse(shape, z)
                ops = rows
            else:
                last, ops = memo
                if z.shape != last or not z.flags.c_contiguous:
                    ops = rows
                elif ops is rows:
                    lead = z.shape[:-1]
                    ops = tuple(np.tile(stacked.reshape((6,) + (1,) * len(lead) + (2,)),
                                        (1,) + lead + (1,)))
                memo = (z.shape, ops)
            lin, cube_power, cube_div, const, div, gain = ops
            out = z * lin
            term = z**cube_power
            term /= cube_div
            out -= term
            out += const
            np.divide(z, div, out=term)
            term *= gain
            out += term[..., ::-1]
            return out

        return rhs

    return joint


def fhn_field(params: ParamSets) -> Interconnection:
    """The coupled model as a two-block interconnection.

    ``params`` is one FhnParams, or a sequence of them, one per state row:
    the blocks and gains then hold each parameter as an (N, 1) column, and
    the blocks raise ValueError on states that are not a batch of exactly
    those N rows.  Either way, each row's derivative and Jacobian are bitwise
    those of its own set's field.  ``integrate`` keeps every batch whole,
    also after some rows stop, so such a field integrates to the end.

    The 1/eps division of the recovery equation is folded into the y-block and
    its coupling, so the assembled field matches the model equations exactly.
    The interconnection carries a whole-state rhs (``joint_rhs``), which
    ``assemble`` uses: it gives bitwise the block form's derivatives in eight
    array operations, each on whole (..., 2) operands.  For one parameter set
    it tiles its operands to the batch's shape once the solver calls it twice
    in a row at that shape (96 bytes per row, held until the shape changes),
    and broadcasts them on a one-off call.
    """
    eps = _per_row(params, lambda p: p.epsilon)
    inv_eps = np.expand_dims(1.0 / eps, -1)
    g1 = CouplingMap(
        in_dim=1,
        out_dim=1,
        value=lambda y: -y,
        jacobian=lambda y: np.full(y.shape + (1,), -1.0),
    )
    g2 = CouplingMap(
        in_dim=1,
        out_dim=1,
        value=lambda x: x / eps,
        jacobian=lambda x: np.full(x.shape + (1,), inv_eps),
    )
    return Interconnection(
        f1=x_subsystem(params),
        f2=y_subsystem(params),
        g1=g1,
        g2=g2,
        rho1=_per_row(params, lambda p: p.rho1),
        rho2=_per_row(params, lambda p: p.rho2),
        joint_rhs=_joint_rhs(params),
    )


# Gauss-Legendre nodes per panel of the f_c table's cumulative quadrature
PANEL_ORDER = 15


def _weight_ratio(params: FhnParams):
    """The logarithmic slope (2x^2 - 2 - alpha) / (x - x^3/3 + c), zero off
    the interior interval |x| < s*.

    A Python-float or ``np.float64`` query is answered in float arithmetic,
    with the array path's operations in its order, so its value is bitwise
    that of the one-element array query.  The cube stays an array power
    there too (of a 0-d array): a Python or numpy-scalar ``**`` differs from
    it in the last bit for some bases on a SIMD build (1 054 of 20 000
    positive bases with numpy 2.4 on AVX-512), which would make a scalar
    f_c' differ from the batched one.  On such a build a negative base takes
    a scalar pow, about 40 times slower per element than a positive one."""
    c, alpha, s_star = params.c, params.alpha, params.s_star

    def ratio(x):
        if isinstance(x, float):
            x = float(x)
            if not abs(x) < s_star:
                return 0.0
            cube = float(np.asarray(x) ** 3)
            return (2.0 * x * x - 2.0 - alpha) / (x - cube / 3.0 + c)
        x = np.asarray(x, dtype=float)
        num = 2.0 * x * x - 2.0 - alpha
        den = x - x**3 / 3.0 + c
        out = np.where(np.abs(x) < s_star, num / den, 0.0)
        return out if out.ndim else float(out)

    return ratio


def check_weight_domain(params: FhnParams) -> None:
    """Refuse, with ValueError, parameters whose den(x) = x - x^3/3 + c is
    not positive on [-s*, s*], where the weight's slope divides by it.  den
    rises on [-1, 1] and falls outside, and s* = sqrt(1 + alpha/2) > 1, so
    its minimum there is the smaller of den(-1) and den(s*)."""
    c = params.c

    def den(x: float) -> float:
        return x - x**3 / 3.0 + c

    x = min(-1.0, params.s_star, key=den)
    if not den(x) > 0.0:
        raise ValueError("x - x^3/3 + c must be positive on [-s*, s*]; "
                         f"minimum {den(x):.3e} at x = {x:.4f}")


@dataclass(frozen=True, eq=False)
class FcTable:
    """Tabulated contraction weight on [-s*, s*] with attached plateaus.

    The weight equals 1 on the right plateau and exp(mu) on the left one,
    is nonincreasing, and its derivative lies in [-eta, 0].  Off-plateau
    queries clamp to the plateau values.
    """

    params: FhnParams
    mu: float
    eta: float
    grid: Array
    values: Array
    quadrature_error: float
    _spline: Callable = field(repr=False)
    _ratio: Callable = field(repr=False)

    @property
    def s_star(self) -> float:
        return self.params.s_star

    @property
    def left_plateau(self) -> float:
        return math.exp(self.mu)

    def fc(self, x):
        """The weight at x.  A Python-float or ``np.float64`` query is
        answered in float arithmetic, bitwise the one-element array query."""
        s = self.s_star
        if isinstance(x, float):
            if x >= s:
                return 1.0
            if x <= -s:
                return self.left_plateau
            return self._spline(x)  # the clamp leaves x, NaN included, as it is
        x = np.asarray(x, dtype=float)
        inner = np.minimum(np.maximum(x, -s), s)
        out = np.where(
            x >= s, 1.0, np.where(x <= -s, self.left_plateau, self._spline(inner))
        )
        return out if out.ndim else float(out)

    def fc_prime(self, x):
        v, d = self.fc_pair(x)
        return d

    def fc_pair(self, x):
        """Weight and derivative evaluated consistently: the derivative is the
        logarithmic slope times the same weight value."""
        v = self.fc(x)
        return v, self._ratio(x) * v


def _gauss_legendre_panels(fn, edges: Array, order: int) -> Array:
    """Per-panel Gauss-Legendre integrals of fn over consecutive edge pairs."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    pts = mid[:, None] + half[:, None] * nodes[None, :]
    vals = fn(pts.ravel()).reshape(pts.shape)
    return half * (vals @ weights)


def _cubic_hermite(x: Array, y: Array, dydx: Array) -> Callable:
    """The piecewise cubic Hermite interpolant of values y and slopes dydx
    at ascending knots x, extended by its end cubics.  It makes the
    floating-point operations of scipy's CubicHermiteSpline in their order,
    so its values are bitwise that spline's, NaN included.  A Python-float
    or ``np.float64`` query makes the same operations in float arithmetic on
    ``.item`` reads of one knot's coefficients, so it too is bitwise that
    spline's."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    c0, c1, c2, c3 = t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1]
    last = len(x) - 2

    def spline(p):
        if isinstance(p, float):
            k = min(max(int(x.searchsorted(p, side="right")) - 1, 0), last)
            z = float(p) - x.item(k)
            res = 0.0 + c3.item(k)
            res += c2.item(k) * z
            res += c1.item(k) * (z * z)
            res += c0.item(k) * ((z * z) * z)
            return res
        i = np.minimum(np.maximum(np.searchsorted(x, p, side="right") - 1, 0), last)
        z = p - x[i]
        res = 0.0 + c3[i]
        res += c2[i] * z
        res += c1[i] * (z * z)
        res += c0[i] * ((z * z) * z)
        return res

    return spline


def build_fc(params: FhnParams, table_size: int = 2048) -> FcTable:
    """Construct the contraction-weight table on ``table_size`` nodes.

    mu is computed by adaptive Gauss-Kronrod quadrature of the logarithmic
    slope over [-s*, s*]; the table itself comes from cumulative per-panel
    Gauss-Legendre quadrature from s* leftward on a Chebyshev-spaced grid and
    is anchored so that the left plateau value is exp(mu) exactly.
    """
    if table_size < 2:
        raise ValueError(f"table_size must be at least 2, got {table_size}")
    # scipy is imported where it is called: importing ieskit needs numpy only
    from scipy.integrate import quad

    check_weight_domain(params)
    s = params.s_star
    ratio = _weight_ratio(params)
    mu_quad, mu_err = quad(ratio, -s, s, epsabs=1e-12, epsrel=1e-13, limit=500)
    mu = -mu_quad

    j = np.arange(table_size)
    grid = -s * np.cos(np.pi * j / (table_size - 1))
    grid[0], grid[-1] = -s, s
    panel = _gauss_legendre_panels(ratio, grid, PANEL_ORDER)
    # F(x) = integral from s* down to x of the slope; cumulative from the right
    f_log = np.zeros(table_size)
    f_log[:-1] = -(np.cumsum(panel[::-1])[::-1])
    mu_panels = f_log[0]
    quadrature_error = abs(mu - mu_panels) + abs(mu_err)
    if quadrature_error > 1e-9:
        raise ArithmeticError(
            f"quadrature routes disagree: {quadrature_error:.3e} on mu"
        )
    # anchor the cumulative log-weight so the left plateau is exp(mu) exactly
    if mu_panels != 0.0:
        f_log = f_log * (mu / mu_panels)
    values = np.exp(f_log)
    values[-1] = 1.0
    derivs = ratio(grid) * values
    derivs[0] = 0.0
    derivs[-1] = 0.0
    table = FcTable(
        params=params,
        mu=mu,
        eta=0.0,
        grid=grid,
        values=values,
        quadrature_error=quadrature_error,
        _spline=_cubic_hermite(grid, values, derivs),
        _ratio=ratio,
    )
    return replace(table, eta=_refine_eta(table, derivs))


def _golden_min(fn, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Golden-section minimizer; returns the argmin."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc_, fd_ = fn(c), fn(d)
    while b - a > tol:
        if fc_ < fd_:
            b, d, fd_ = d, c, fc_
            c = b - invphi * (b - a)
            fc_ = fn(c)
        else:
            a, c, fc_ = c, d, fd_
            d = a + invphi * (b - a)
            fd_ = fn(d)
    return 0.5 * (a + b)


def _refine_eta(table: FcTable, node_derivs: Array) -> float:
    """eta = -min f_c': grid scan over the table nodes, then golden-section
    refinement around the coarse argmin.  The search runs on Python floats,
    so each of its f_c' queries takes the float path, bitwise the array
    path's value."""
    k = int(np.argmin(node_derivs))
    lo = table.grid.item(max(k - 1, 0))
    hi = table.grid.item(min(k + 1, len(table.grid) - 1))
    x_min = _golden_min(table.fc_prime, lo, hi)
    return -min(table.fc_prime(x_min), node_derivs.item(k))


def fc_candidate(table: FcTable) -> tuple[FinslerCandidate, FinslerCandidate]:
    """Component candidates: the metric f_c(x), with gradient f_c'(x) and sandwich
    constants 1 and exp(mu), of the excitable block, and 1/2 of the recovery block."""
    v1 = FinslerCandidate(
        dim=1,
        metric=lambda z: table.fc(z[..., :1])[..., None],
        metric_grad=lambda z: table.fc_prime(z[..., :1])[..., None, None],
        c_lower=1.0,
        c_upper=table.left_plateau,
    )
    v2 = FinslerCandidate(
        dim=1,
        metric=lambda z: np.full(np.shape(z)[:-1] + (1, 1), 0.5),
        metric_grad=lambda z: np.zeros(np.shape(z)[:-1] + (1, 1, 1)),
        c_lower=0.5,
        c_upper=0.5,
    )
    return v1, v2


def assumption2_bounds(table: FcTable) -> tuple[AssumptionTwoBounds, AssumptionTwoBounds]:
    """Gradient-bound functions for the two component candidates."""
    b1 = AssumptionTwoBounds(
        gamma=lambda z: np.abs(table.fc_prime(z[..., 0])),
        zeta=lambda z: 2.0 * table.fc(z[..., 0]),
    )
    b2 = AssumptionTwoBounds(gamma=lambda z: np.zeros(np.shape(z)[:-1]),
                             zeta=lambda z: np.ones(np.shape(z)[:-1]))
    return b1, b2


def write_fc_csv(table: FcTable, path) -> None:
    """Export (x, f_c, f_c_prime) rows with a mu/eta/s*/error header comment."""
    header = (f"# mu={table.mu!r} eta={table.eta!r} s_star={table.s_star!r} "
              f"quadrature_error={table.quadrature_error!r}\nx,f_c,f_c_prime\n")
    columns = [table.grid, *table.fc_pair(table.grid)]
    atomic_write_text(path, _csv_rows(map(_cells, columns), head=header))
