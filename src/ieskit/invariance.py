"""Forward-invariant sublevel sets and ultimate bounds from an outer
Lyapunov function, plus the dissipation chain of the FitzHugh-Nagumo model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ieskit.dynsys import TimeVaryingField, Trajectory, rowdot
from ieskit.fhn import FhnParams
from ieskit.io_utils import atomic_write_text
from ieskit.sampling import box_grid

Array = np.ndarray


class NoInvariantLevelError(RuntimeError):
    """No sublevel set in the searched range had a strictly dissipating shell."""


@dataclass(frozen=True)
class OuterLyapunov:
    """Outer Lyapunov candidate W(t, z) with gradient split into the state
    part and the time slot, plus optional comparison-function metadata.

    For states z of shape (..., d), ``value`` returns W of shape (...) and
    ``gradient`` the pair (dW/dz of shape (..., d), dW/dt broadcastable to
    (...)); the class bounds map norms of shape (...) to (...)."""

    value: Callable[[float, Array], Array]
    gradient: Callable[[float, Array], tuple[Array, Array]]
    class_lower: Optional[Callable[[Array], Array]] = None
    class_upper: Optional[Callable[[Array], Array]] = None


def wdot(w: OuterLyapunov, field: TimeVaryingField, t: float, z) -> Array:
    """Derivative of W along the field, dW/dt + dW/dz . f(t, z), at states of
    shape (..., d), as (...)."""
    z = np.asarray(z, dtype=float)
    grad_z, grad_t = w.gradient(t, z)
    return grad_t + rowdot(grad_z, field.rhs(t, z))


@dataclass(frozen=True)
class InvariantSetEstimate:
    """Accepted sublevel {W <= level}: enclosing ball radius, worst sampled
    Wdot on the boundary shell (negative margin means dissipation), and the
    sampling resolution the estimate was produced at."""

    level: float
    radius: float
    margin: float
    shell_width: float
    grid_density: int
    shell_samples: int


def find_invariant_level(
    w: OuterLyapunov,
    field: TimeVaryingField,
    level_range: tuple[float, float],
    box,
    n_levels: int = 40,
    grid_density: int = 81,
    shell_width: float = 0.05,
    t: float = 0.0,
) -> InvariantSetEstimate:
    """Smallest grid level whose sampled shell {L <= W <= L (1 + delta)} has
    strictly negative Wdot; the enclosing radius comes from the sampled
    sublevel set, inflated by half a grid-cell diagonal."""
    lo, hi = level_range
    if not (0 < lo < hi):
        raise ValueError("level range must satisfy 0 < lo < hi")
    box = np.atleast_2d(np.asarray(box, dtype=float))
    pts = box_grid(box, grid_density)
    w_vals = w.value(t, pts)
    norms = np.linalg.norm(pts, axis=1)
    if w.class_lower is not None and w.class_upper is not None:
        lo_ok = np.all(w.class_lower(norms) <= w_vals + 1e-12)
        hi_ok = np.all(w_vals <= w.class_upper(norms) + 1e-12)
        if not (lo_ok and hi_ok):
            raise ValueError("class bounds violated on the sampling grid")
    cell = float(np.linalg.norm((box[:, 1] - box[:, 0]) / (grid_density - 1))) / 2.0

    levels = np.linspace(lo, hi, n_levels)
    for level in levels:
        shell = (w_vals >= level) & (w_vals <= level * (1.0 + shell_width))
        n_shell = int(np.count_nonzero(shell))
        if n_shell == 0:
            continue
        margin = float(np.max(wdot(w, field, t, pts[shell])))
        if margin < 0.0:
            inside = w_vals <= level
            radius = float(np.max(norms[inside])) + cell if np.any(inside) else cell
            return InvariantSetEstimate(
                level=float(level),
                radius=radius,
                margin=margin,
                shell_width=shell_width,
                grid_density=grid_density,
                shell_samples=n_shell,
            )
    raise NoInvariantLevelError(
        f"no level in [{lo}, {hi}] has a dissipating shell at this resolution"
    )


def write_invariant_report(est: InvariantSetEstimate, path) -> None:
    lines = [
        "invariant sublevel-set estimate (sampled shell check; no violation found "
        "on the shell, which refutes rather than proves invariance off-grid)",
        f"level = {est.level!r}",
        f"radius = {est.radius!r}",
        f"margin = {est.margin!r}",
        f"shell_width = {est.shell_width!r}",
        f"grid_density = {est.grid_density}",
        f"shell_samples = {est.shell_samples}",
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")


def fhn_outer_lyapunov(params: FhnParams) -> OuterLyapunov:
    """W(x, y) = (x^2 + eps y^2) / 2 for the coupled model."""
    eps = params.epsilon

    def value(t: float, z: Array) -> Array:
        return 0.5 * (z[..., 0] * z[..., 0] + eps * z[..., 1] * z[..., 1])

    def gradient(t: float, z: Array) -> tuple[Array, float]:
        return np.stack([z[..., 0], eps * z[..., 1]], axis=-1), 0.0

    return OuterLyapunov(
        value=value,
        gradient=gradient,
        class_lower=lambda s: 0.5 * min(1.0, eps) * s * s,
        class_upper=lambda s: 0.5 * max(1.0, eps) * s * s,
    )


@dataclass(frozen=True)
class ChainReport:
    """Worst margins of the three printed dissipation inequalities on the grid
    (each margin is the sampled minimum of rhs - lhs; all must be >= -tol)."""

    passed: bool
    margin_young: float
    margin_quartic: float
    margin_comparison: float
    grid_radius: float
    grid_density: int
    tol: float


def check_dissipation_chain_fhn(
    params: FhnParams,
    grid_radius: float = 6.0,
    grid_density: int = 201,
    tol: float = 1e-9,
) -> ChainReport:
    """Grid check of the dissipation chain for W = (x^2 + eps y^2)/2 at equal
    gains:

        Wdot <= 3/2 x^2 - x^4/3 + c^2/2 - b y^2
             <= -x^2/8 - b y^2 + 2 + c^2/2
             <= -2 min(1/8, b/eps) W + 2 + c^2/2
    """
    if params.rho1 != params.rho2:
        raise ValueError("the chain is derived for rho1 = rho2")
    b, eps, c = params.b, params.epsilon, params.c
    rho = params.rho1
    g = np.linspace(-grid_radius, grid_radius, grid_density)
    x, y = np.meshgrid(g, g, indexing="ij")

    wd = x * (x - x**3 / 3.0 + c - rho * y) + y * (-b * y + rho * x)
    s1 = 1.5 * x * x - x**4 / 3.0 + c * c / 2.0 - b * y * y
    s2 = -x * x / 8.0 - b * y * y + 2.0 + c * c / 2.0
    kappa = min(0.125, b / eps)
    w = 0.5 * (x * x + eps * y * y)
    s3 = -2.0 * kappa * w + 2.0 + c * c / 2.0

    m1 = float(np.min(s1 - wd))
    m2 = float(np.min(s2 - s1))
    m3 = float(np.min(s3 - s2))
    return ChainReport(
        passed=(m1 >= -tol and m2 >= -tol and m3 >= -tol),
        margin_young=m1,
        margin_quartic=m2,
        margin_comparison=m3,
        grid_radius=grid_radius,
        grid_density=grid_density,
        tol=tol,
    )


@dataclass(frozen=True)
class UltimateBound:
    """Bound on eps * y^2 after the transient, and (when a trajectory was
    supplied) the first sampled time after which the bound holds for the
    remainder of the horizon."""

    bound: float
    entry_time: Optional[float] = None


def ultimate_bound_fhn(
    params: FhnParams, m_slack: float, trajectory: Optional[Trajectory] = None
) -> UltimateBound:
    """Ultimate bound eps y(t)^2 <= (eps/b)(1 + c^2/4) + M, valid for b > eps."""
    if params.b <= params.epsilon:
        raise ValueError("the ultimate bound requires b > epsilon")
    if m_slack <= 0:
        raise ValueError("M must be positive")
    eps, b, c = params.epsilon, params.b, params.c
    bound = (eps / b) * (1.0 + c * c / 4.0) + m_slack
    entry = None
    if trajectory is not None:
        y2 = eps * trajectory.states[:, 1] ** 2
        below = y2 <= bound
        if below[-1]:
            # last index after which the condition holds through the horizon
            above = np.nonzero(~below)[0]
            first = 0 if len(above) == 0 else above[-1] + 1
            entry = float(trajectory.times[first])
    return UltimateBound(bound=bound, entry_time=entry)
