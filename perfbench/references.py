"""Expected answers computed apart from ieskit, from the model equations with
numpy and scipy only.  Nothing here imports ieskit."""

from __future__ import annotations

import math
import re

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar

# Figure presets of the FHN case study: (c, b, epsilon, rho1, rho2).
FIGURE_PARAMS = {
    1: (1.0, 0.1, 1.0, 1.0, 1.0),
    2: (1.0, 0.1, 1.0, 0.1, 0.1),
    3: (1.0, 1.0, 0.9, 1.0, 1.0),
}
FIGURE_PAIR = (np.array([2.0, 0.0]), np.array([-2.0, 1.0]))
FIGURE_HORIZON = 100.0

# Safety factor ieskit documents for its sampled sup-constants.
SAFETY = 1.05


def fhn_rhs(c, b, eps, rho1, rho2):
    """dx/dt = x - x^3/3 + c - rho1 y,  eps dy/dt = -b y + rho2 x."""

    def rhs(t, z):
        x, y = z
        return [x - x**3 / 3.0 + c - rho1 * y, (-b * y + rho2 * x) / eps]

    return rhs


def fhn_max_re_eig(c, b, eps, rho1, rho2) -> float:
    """Largest real part of the Jacobian eigenvalues at the equilibrium (the
    cubic -x^3/3 + (1 - rho1 rho2 / b) x + c = 0 has one real root for every
    preset used here)."""
    roots = np.roots([-1.0 / 3.0, 0.0, 1.0 - rho1 * rho2 / b, c])
    real = roots[np.abs(roots.imag) < 1e-9].real
    if len(real) != 1:
        raise ValueError(f"expected one equilibrium, found {len(real)}")
    x = real[0]
    jac = np.array([[1.0 - x * x, -rho1], [rho2 / eps, -b / eps]])
    return float(np.max(np.linalg.eigvals(jac).real))


def figure_states(fig: int, times) -> tuple[np.ndarray, np.ndarray]:
    """DOP853 solves (rtol = atol = 1e-12) of both figure trajectories,
    sampled at ``times``."""
    rhs = fhn_rhs(*FIGURE_PARAMS[fig])
    out = []
    for z0 in FIGURE_PAIR:
        sol = solve_ivp(rhs, (0.0, FIGURE_HORIZON), z0, method="DOP853",
                        t_eval=times, rtol=1e-12, atol=1e-12)
        if not sol.success:
            raise RuntimeError(f"reference solve failed: {sol.message}")
        out.append(sol.y.T)
    return out[0], out[1]


def decay_rate(times, dist) -> float | None:
    """Least-squares decay rate of log d over the asymptotic window
    1e-10 d(0) <= d <= 1e-3 d(0): past the transient, above round-off.
    None when fewer than 50 samples fall in the window."""
    d0 = dist[0]
    window = (dist <= 1e-3 * d0) & (dist >= 1e-10 * d0)
    if np.count_nonzero(window) < 50:
        return None
    slope = np.polyfit(times[window], np.log(dist[window]), 1)[0]
    return -float(slope)


def non_contracting(dist) -> bool:
    """The distance over the last fifth of the horizon stays above 5% of d(0)."""
    n = max(1, len(dist) // 5)
    return float(np.mean(dist[-n:])) > 0.05 * dist[0]


# --- certificate constants -------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _log_slope(c, alpha):
    def slope(x):
        return (2.0 * x * x - 2.0 - alpha) / (x - x**3 / 3.0 + c)

    return slope


def _gl(fn, a, b, panels=64):
    """Composite Gauss-Legendre integral of fn over [a, b]."""
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    pts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    return float(np.sum(half * (fn(pts) @ _GL_WEIGHTS)))


def weight_constants(r, alpha) -> dict[str, float]:
    """mu and eta of the contraction weight from its closed-form log slope.

    The weight is f(x) = exp(-int_x^{s*} slope) on [-s*, s*], s* =
    sqrt((2 + alpha)/2), so mu = -int_{-s*}^{s*} slope and f' = slope * f;
    eta = max |f'| is refined from a 2001-point scan by a bounded scalar
    search.
    """
    c = r**3 - r
    s = math.sqrt((2.0 + alpha) / 2.0)
    slope = _log_slope(c, alpha)
    mu = -_gl(slope, -s, s)

    def neg_abs_deriv(x):
        return -abs(slope(x) * math.exp(-_gl(slope, x, s, panels=16)))

    grid = np.linspace(-s, s, 2001)
    vals = [neg_abs_deriv(x) for x in grid]
    k = int(np.argmin(vals))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    best = minimize_scalar(neg_abs_deriv, bounds=(lo, hi), method="bounded",
                           options={"xatol": 1e-12})
    eta = -min(float(best.fun), vals[k])
    return {"mu": mu, "eta": eta}


def expected_constants(r, b, eps, alpha, radius, w) -> dict[str, float]:
    """Closed forms of the certificate's sup-constants over the ball of
    radius R >= s*, times the safety factor: |g1| = |y|, |g2| = |x|/eps,
    |Dg1| = 1, |Dg2| = 1/eps, gamma1 = |f'|, zeta1 = 2 f <= 2 e^mu,
    gamma2 = 0, zeta2 = 1; ``w`` is ``weight_constants(r, alpha)``."""
    alpha1, alpha2 = alpha, b / eps
    rate = 0.5 * min(alpha1, alpha2)
    return {
        "a1": radius * SAFETY,
        "a2": radius / eps * SAFETY,
        "b1": SAFETY,
        "b2": SAFETY / eps,
        "eta1": w["eta"] * SAFETY,
        "eta2": 0.0,
        "theta1": 2.0 * math.exp(w["mu"]) * SAFETY,
        "theta2": SAFETY,
        "alpha1": alpha1,
        "alpha2": alpha2,
        "alpha": rate,
        "epsilon1": (alpha1 - rate) / 3.0,
        "epsilon2": (alpha1 - rate) / 3.0,
        "epsilon3": (alpha2 - rate) / 3.0,
        "epsilon4": (alpha2 - rate) / 3.0,
    }


def budget_from_record(rec: dict[str, float]) -> tuple[float, float]:
    """Gain budget from a record's constants and slacks:
    rho1 = min(2 e1 / (2 a1 eta1 + b1 theta1^2), 2 e4 / b1),
    rho2 = min(2 e3 / (2 a2 eta2 + b2 theta2^2), 2 e2 / b2)."""

    def ratio(num, den):
        return math.inf if den == 0.0 else num / den

    rho1 = min(ratio(2 * rec["epsilon1"],
                     2 * rec["a1"] * rec["eta1"] + rec["b1"] * rec["theta1"] ** 2),
               ratio(2 * rec["epsilon4"], rec["b1"]))
    rho2 = min(ratio(2 * rec["epsilon3"],
                     2 * rec["a2"] * rec["eta2"] + rec["b2"] * rec["theta2"] ** 2),
               ratio(2 * rec["epsilon2"], rec["b2"]))
    return rho1, rho2


# --- invariant sublevel set ------------------------------------------------

_WRAPPED = re.compile(r"(?:[\w.]+\()?([^()]*)\)?")


def parse_number(text: str) -> float:
    """A report value as a float; tolerates a wrapper such as
    ``np.float64(4.58)`` around the number."""
    return float(_WRAPPED.fullmatch(text.strip()).group(1))


def invariant_shells(r, b, eps, rho1, rho2, half, density, levels, shell_width):
    """For W = (x^2 + eps y^2)/2 on the box grid, yield (level, number of
    shell points, max Wdot on the shell, max |z| inside {W <= level}) per
    level, with Wdot taken from the closed-form field."""
    c = r**3 - r
    g = np.linspace(-half, half, density)
    x, y = (m.ravel() for m in np.meshgrid(g, g, indexing="ij"))
    w = 0.5 * (x * x + eps * y * y)
    wdot = x * (x - x**3 / 3.0 + c - rho1 * y) + y * (-b * y + rho2 * x)
    norms = np.hypot(x, y)
    for level in levels:
        shell = (w >= level) & (w <= level * (1.0 + shell_width))
        n = int(np.count_nonzero(shell))
        margin = float(np.max(wdot[shell])) if n else math.nan
        yield level, n, margin, float(np.max(norms[w <= level]))


# --- polynomial interconnection --------------------------------------------

def polynomial_jacobian(z):
    """Jacobian of the 4-D polynomial interconnection of scan_polynomial.cfg:
    x1' = -x1 + x2 - x1^3 + y2/2,  x2' = -x1 - x2 - x2^3 + y1/2,
    y1' = -2 y1 - y1^3 + x1/2,     y2' = -2 y2 - y2^3 - x2/2."""
    x1, x2, y1, y2 = z
    return np.array([
        [-1 - 3 * x1 * x1, 1.0, 0.0, 0.5],
        [-1.0, -1 - 3 * x2 * x2, 0.5, 0.0],
        [0.5, 0.0, -2 - 3 * y1 * y1, 0.0],
        [0.0, -0.5, 0.0, -2 - 3 * y2 * y2],
    ])


def polynomial_contraction_rate(seed: int = 0, n_samples: int = 2000) -> float:
    """Euclidean contraction rate of the polynomial system: minus the largest
    eigenvalue of the symmetric Jacobian.  The cubic terms only add a
    negative semidefinite diagonal, so the maximum over the state space is
    taken at the origin (-1.5 + sqrt(0.375)); random samples in the ball of
    radius 8 confirm that no point exceeds it."""
    def top(z):
        j = polynomial_jacobian(z)
        return float(np.max(np.linalg.eigvalsh(0.5 * (j + j.T))))

    at_origin = top(np.zeros(4))
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n_samples, 4))
    pts *= 8.0 * rng.uniform(size=(n_samples, 1)) / np.linalg.norm(pts, axis=1,
                                                                   keepdims=True)
    if max(top(p) for p in pts) > at_origin + 1e-12:
        raise ArithmeticError("sampled symmetric Jacobian exceeds its bound at 0")
    return -at_origin
