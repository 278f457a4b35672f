"""Forward-invariant sublevel sets and ultimate bounds from an outer
Lyapunov function, plus the level of the FitzHugh-Nagumo dissipation chain."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ieskit.dynsys import TimeVaryingField, Trajectory, rowdot
from ieskit.fhn import FhnParams
from ieskit.io_utils import atomic_write_text
from ieskit.sampling import box_grid

Array = np.ndarray

# The most grid points (density^dim) and levels of a find_invariant_level search:
# at (16 dim + 24) peak bytes per point, 224 MiB in 2-D and 480 MiB in 6-D.
MAX_INVARIANT_POINTS = 2**22


class NoInvariantLevelError(RuntimeError):
    """No sublevel set in the searched range had a strictly dissipating shell.

    ``best_level`` is the searched level whose shell came closest, and
    ``best_margin`` its worst sampled Wdot (a NaN margin counts as the
    worst); both are None when no shell had samples."""

    def __init__(self, message: str, best_level: Optional[float] = None,
                 best_margin: Optional[float] = None):
        super().__init__(message)
        self.best_level = best_level
        self.best_margin = best_margin


@dataclass(frozen=True, eq=False)
class OuterLyapunov:
    """Outer Lyapunov function W(z) = 1/2 sum_k p_k z_k^2, a diagonal
    quadratic given by its ``weights`` p, one positive finite value per
    coordinate.  Its sublevel set {W <= L} is the ellipse with half-axes
    sqrt(2 L / p_k), which lies in the ball of radius sqrt(2 L max_k 1/p_k).

    For states z of shape (..., d), ``value`` returns W of shape (...) and
    ``gradient`` dW/dz = p z of shape (..., d)."""

    weights: Array

    def __post_init__(self):
        p = np.array(self.weights, dtype=float)
        if p.ndim != 1 or not p.size or not np.all(np.isfinite(p) & (p > 0.0)):
            raise ValueError(f"W weights must be a non-empty 1-D array of positive "
                             f"finite values, got {self.weights!r}")
        p.setflags(write=False)
        object.__setattr__(self, "weights", p)

    @property
    def dim(self) -> int:
        return len(self.weights)

    def value(self, z) -> Array:
        # summed in coordinate order, so weights (1, eps) give bitwise
        # 0.5 * (x * x + eps * y * y)
        z = np.asarray(z, dtype=float)
        total = self.weights[0] * z[..., 0] * z[..., 0]
        for k in range(1, self.dim):
            total = total + self.weights[k] * z[..., k] * z[..., k]
        return 0.5 * total

    def gradient(self, z) -> Array:
        return self.weights * np.asarray(z, dtype=float)

    def half_axes(self, level: float) -> Array:
        """Half-axes sqrt(2 L / p_k) of the sublevel set {W <= L}."""
        return np.sqrt(2.0 * level / self.weights)

    def radius(self, level: float) -> float:
        """Radius sqrt(2 L max_k 1/p_k) of the ball that holds {W <= L}."""
        return math.sqrt(2.0 * level * float(np.max(1.0 / self.weights)))


def wdot(w: OuterLyapunov, field: TimeVaryingField, z) -> Array:
    """Derivative dW/dz . f(0, z) of W along the field at t = 0, at states of
    shape (..., d), as (...).  A zero derivative reads +0.0."""
    z = np.asarray(z, dtype=float)
    return 0.0 + rowdot(w.gradient(z), field.rhs(0.0, z))


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


def check_box(w: OuterLyapunov, box) -> Array:
    """``box``, d rows of (lo, hi), as an array on whose grid W and |z| can
    be evaluated.  A box whose dimension is not W's, or whose widths, largest
    |z|^2 or largest W are not finite (they would overflow on the grid), is
    refused with ValueError."""
    box = np.atleast_2d(np.asarray(box, dtype=float))
    if len(box) != w.dim:
        raise ValueError(f"box has dimension {len(box)}, W has dimension {w.dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        widths = box[:, 1] - box[:, 0]
        corner = np.max(np.abs(box), axis=1)
        sizes = [*widths, corner @ corner, w.value(corner)]
    if not np.all(np.isfinite(sizes)):
        raise ValueError(f"box {box.tolist()} is too large: its widths, largest |z|^2 "
                         f"and largest W must be finite")
    return box


def check_wdot(w: OuterLyapunov, field: TimeVaryingField, box, level: float) -> None:
    """Refuse with ValueError a field along which Wdot is not finite at a
    corner of the part of ``box`` that the sublevel set {W <= level} spans,
    each axis clipped to the set's half-axis: there the field or W leaves
    the float range, and a search up to that level samples Wdot there.  The
    2^d corners are no more points than a grid of the box has."""
    box = np.atleast_2d(np.asarray(box, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        half = w.half_axes(level)
        bits = (np.arange(2**w.dim)[:, None] >> np.arange(w.dim)) & 1
        corners = np.where(bits, np.minimum(box[:, 1], half), np.maximum(box[:, 0], -half))
        values = wdot(w, field, corners)
    for corner, value in zip(corners, values):
        if not np.isfinite(value):
            raise ValueError(f"Wdot = {float(value)!r} at the corner {corner.tolist()} of "
                             f"the searched box: W's derivative along the field must be finite")


def check_shell(level_max: float, shell_width: float) -> None:
    """Refuse with ValueError a shell width whose top shell, up to
    level_max (1 + shell_width), has an upper edge that is not finite."""
    if not math.isfinite(float(level_max) * (1.0 + float(shell_width))):
        raise ValueError(f"the upper edge level_max * (1 + shell_width) = {level_max!r} "
                         f"* (1 + {shell_width!r}) of the top shell must be finite")


def find_invariant_level(
    w: OuterLyapunov,
    field: TimeVaryingField,
    level_range: tuple[float, float],
    box,
    n_levels: int = 40,
    grid_density: int = 81,
    shell_width: float = 0.05,
) -> InvariantSetEstimate:
    """Smallest grid level whose sampled shell {L <= W <= L (1 + delta)} has
    strictly negative Wdot at t = 0; the enclosing radius comes from the
    sampled sublevel set, inflated by half a grid-cell diagonal.  A box that
    ``check_box`` refuses, a shell width that ``check_shell`` refuses, fewer
    than 2 grid points per axis, fewer than 1 level, more than
    ``MAX_INVARIANT_POINTS`` grid points or levels, and a field that
    ``check_wdot`` refuses up to the top shell are refused with ValueError
    before any grid is built."""
    lo, hi = level_range
    if not (0 < lo < hi):
        raise ValueError("level range must satisfy 0 < lo < hi")
    if grid_density < 2:
        raise ValueError(f"grid_density must be at least 2, got {grid_density}")
    if n_levels < 1:
        raise ValueError(f"n_levels must be at least 1, got {n_levels}")
    check_shell(hi, shell_width)
    box = check_box(w, box)
    points = int(grid_density) ** w.dim
    if max(points, n_levels) > MAX_INVARIANT_POINTS:
        raise ValueError(f"{points} grid points in {w.dim}-D and {n_levels} levels: either "
                         f"is refused above the limit of {MAX_INVARIANT_POINTS}")
    check_wdot(w, field, box, hi * (1.0 + shell_width))
    pts = box_grid(box, grid_density)
    w_vals = w.value(pts)
    norms = np.linalg.norm(pts, axis=1)
    cell = float(np.linalg.norm((box[:, 1] - box[:, 0]) / (grid_density - 1))) / 2.0

    levels = np.linspace(lo, hi, n_levels)
    best_level = best_margin = None
    for level in levels:
        shell = (w_vals >= level) & (w_vals <= level * (1.0 + shell_width))
        n_shell = int(np.count_nonzero(shell))
        if n_shell == 0:
            continue
        margin = float(np.max(wdot(w, field, pts[shell])))
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
        if best_margin is None or margin < best_margin or math.isnan(best_margin):
            best_level, best_margin = float(level), margin
    best = ("no shell had samples" if best_level is None else
            f"best shell at level {best_level!r} has worst Wdot {best_margin!r}")
    raise NoInvariantLevelError(
        f"no level in [{lo}, {hi}] has a dissipating shell at this resolution; {best}",
        best_level, best_margin,
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
    return OuterLyapunov(np.array([1.0, params.epsilon]))


def fhn_dissipation_level(params: FhnParams) -> float:
    """Level (2 + c^2/2) / (2 kappa), kappa = min(1/8, b/eps), that the
    dissipation chain of W = (x^2 + eps y^2)/2 gives at equal gains:

        Wdot <= s1 = 3/2 x^2 - x^4/3 + c^2/2 - b y^2
             <= s2 = -x^2/8 - b y^2 + 2 + c^2/2
             <= s3 = -2 kappa W + 2 + c^2/2.

    With rho1 = rho2 the coupling terms of Wdot cancel, and each link is an
    identity whose gap is never negative: s1 - Wdot = (x - c)^2/2;
    s2 - s1 = x^4/3 - 13 x^2/8 + 2, at least 5/256 (at x^2 = 39/16); and
    s3 - s2 = (1/8 - kappa) x^2 + (b - kappa eps) y^2 >= 0.  So
    Wdot <= -2 kappa (W - level) - 5/256 < 0 wherever W >= level, and every
    sublevel set {W <= L} with L >= level is forward invariant.  The level
    ignores the gains; it is proven at rho1 = rho2 only, and unequal gains
    are not refused."""
    kappa = min(0.125, params.b / params.epsilon)
    c = params.c  # c * c reads inf past the largest double, where c**2 raises
    return (2.0 + c * c / 2.0) / (2.0 * kappa)


@dataclass(frozen=True)
class UltimateBound:
    """Bound on eps * y^2 after the transient, and (when a trajectory was
    supplied) the first sampled time after which the bound holds for the
    remainder of the horizon, the value eps * y^2 at the last sample
    (``settled``), and whether the trajectory ends above the bound, which
    refutes it (``refuted``)."""

    bound: float
    entry_time: Optional[float] = None
    settled: Optional[float] = None
    refuted: bool = False


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
    if trajectory is None:
        return UltimateBound(bound=bound)
    if trajectory.ends is not None:
        raise ValueError("the ultimate bound takes a single-state trajectory; "
                         "cut row k out of a batch with Trajectory.row(k)")
    y2 = eps * trajectory.states[:, 1] ** 2
    below = y2 <= bound
    entry = None
    if below[-1]:
        # last index after which the condition holds through the horizon
        above = np.nonzero(~below)[0]
        first = 0 if len(above) == 0 else above[-1] + 1
        entry = float(trajectory.times[first])
    return UltimateBound(bound=bound, entry_time=entry, settled=float(y2[-1]),
                         refuted=entry is None)
