"""FitzHugh-Nagumo case study: model blocks, the constructive contraction
weight f_c with its derivative, the constants mu and eta, and the component
Finsler candidates."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline

from ieskit.dynsys import CouplingMap, Interconnection, TimeVaryingField
from ieskit.finsler import AssumptionTwoBounds, FinslerCandidate
from ieskit.io_utils import _csv_rows, atomic_write_text

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
        if self.b <= 0:
            raise ValueError("b must be positive")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.rho1 < 0 or self.rho2 < 0:
            raise ValueError("coupling gains must be nonnegative")
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


def _fixed_batch(block: TimeVaryingField, column) -> TimeVaryingField:
    """``block`` itself for one parameter set.  For an (N, 1) column of
    per-row values, the block refusing any states but a batch of exactly N
    rows: fewer rows fail to broadcast against the column, and a single
    point would broadcast to the whole column without notice."""
    if np.ndim(column) == 0:
        return block
    shape = (len(column), block.dim)
    block_rhs, block_jacobian = block.rhs, block.jacobian

    def refuse(z: Array) -> ValueError:
        return ValueError(
            f"a field of {shape[0]} FHN parameter sets takes batches of exactly "
            f"{shape[0]} rows, got states of shape {z.shape}")

    def rhs(t: float, z: Array) -> Array:
        if z.shape != shape:
            raise refuse(z)
        return block_rhs(t, z)

    def jacobian(t: float, z: Array) -> Array:
        if z.shape != shape:
            raise refuse(z)
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
    )


@dataclass(frozen=True)
class QuadratureConfig:
    mu_tol: float = 1e-10
    table_size: int = 2048
    panel_order: int = 15


def _weight_ratio(params: FhnParams):
    """The logarithmic slope (2x^2 - 2 - alpha) / (x - x^3/3 + c), zero off
    the interior interval |x| < s*."""
    c, alpha, s_star = params.c, params.alpha, params.s_star

    def ratio(x):
        x = np.asarray(x, dtype=float)
        num = 2.0 * x * x - 2.0 - alpha
        den = x - x**3 / 3.0 + c
        out = np.where(np.abs(x) < s_star, num / den, 0.0)
        return out if out.ndim else float(out)

    return ratio


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
    _spline: CubicHermiteSpline = field(repr=False)
    _ratio: object = field(repr=False, default=None)

    @property
    def s_star(self) -> float:
        return self.params.s_star

    @property
    def left_plateau(self) -> float:
        return math.exp(self.mu)

    def fc(self, x):
        x = np.asarray(x, dtype=float)
        s = self.s_star
        inner = np.clip(x, -s, s)
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


def build_fc(params: FhnParams, config: QuadratureConfig = QuadratureConfig()) -> FcTable:
    """Construct the contraction-weight table.

    mu is computed by adaptive Gauss-Kronrod quadrature of the logarithmic
    slope over [-s*, s*]; the table itself comes from cumulative per-panel
    Gauss-Legendre quadrature from s* leftward on a Chebyshev-spaced grid and
    is anchored so that the left plateau value is exp(mu) exactly.
    """
    s = params.s_star
    ratio = _weight_ratio(params)
    # the weight is defined only where the cubic term stays positive
    probe = np.linspace(-s, s, 4097)
    den = probe - probe**3 / 3.0 + params.c
    if np.min(den) <= 0.0:
        raise ValueError(
            "x - x^3/3 + c must be positive on [-s*, s*]; "
            f"minimum {np.min(den):.3e} at x = {probe[np.argmin(den)]:.4f}"
        )

    mu_quad, mu_err = quad(
        lambda x: ratio(x), -s, s,
        epsabs=min(config.mu_tol * 1e-2, 1e-12), epsrel=1e-13, limit=500,
    )
    mu = -mu_quad

    n = config.table_size
    j = np.arange(n)
    grid = -s * np.cos(np.pi * j / (n - 1))
    grid[0], grid[-1] = -s, s
    panel = _gauss_legendre_panels(ratio, grid, config.panel_order)
    # F(x) = integral from s* down to x of the slope; cumulative from the right
    f_log = np.zeros(n)
    f_log[:-1] = -(np.cumsum(panel[::-1])[::-1])
    mu_panels = f_log[0]
    quadrature_error = abs(mu - mu_panels) + abs(mu_err)
    if quadrature_error > max(config.mu_tol, 1e-9):
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
    spline = CubicHermiteSpline(grid, values, derivs)

    table = FcTable(
        params=params,
        mu=mu,
        eta=0.0,
        grid=grid,
        values=values,
        quadrature_error=quadrature_error,
        _spline=spline,
        _ratio=ratio,
    )
    eta = _refine_eta(table, derivs)
    object.__setattr__(table, "eta", eta)
    return table


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
    refinement around the coarse argmin."""
    k = int(np.argmin(node_derivs))
    lo = table.grid[max(k - 1, 0)]
    hi = table.grid[min(k + 1, len(table.grid) - 1)]
    x_min = _golden_min(lambda x: float(table.fc_prime(x)), lo, hi)
    return -min(float(table.fc_prime(x_min)), float(node_derivs[k]))


def fc_candidate(table: FcTable) -> tuple[FinslerCandidate, FinslerCandidate]:
    """Component candidates: f_c(x) dx^2 for the excitable block (sandwich
    constants 1 and exp(mu)) and dy^2 / 2 for the recovery block."""

    def value1(z: Array, dz: Array) -> Array:
        return (table.fc(z[..., :1]) * dz[..., :1] * dz[..., :1])[..., 0]

    def grad_state1(z: Array, dz: Array) -> Array:
        _, d = table.fc_pair(z[..., :1])
        return d * dz[..., :1] * dz[..., :1]

    def grad_disp1(z: Array, dz: Array) -> Array:
        return 2.0 * table.fc(z[..., :1]) * dz[..., :1]

    v1 = FinslerCandidate(
        dim=1,
        value=value1,
        grad_state=grad_state1,
        grad_disp=grad_disp1,
        c_lower=1.0,
        c_upper=table.left_plateau,
    )

    v2 = FinslerCandidate(
        dim=1,
        value=lambda z, dz: 0.5 * (dz[..., 0] * dz[..., 0]),
        grad_state=lambda z, dz: np.zeros(np.shape(z)),
        grad_disp=lambda z, dz: np.array(dz, dtype=float),
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
    lines = [
        f"# mu={table.mu!r} eta={table.eta!r} s_star={table.s_star!r} "
        f"quadrature_error={table.quadrature_error!r}",
        "x,f_c,f_c_prime",
    ]
    lines += _csv_rows(np.column_stack([table.grid, *table.fc_pair(table.grid)]))
    atomic_write_text(path, "\n".join(lines) + "\n")
