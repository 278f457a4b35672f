"""Gain budgets for two-block interconnections of contracting systems.

Takes the compact-set sup-constants from a system's closed forms where it
has them (``fhn.sup_constants``), and otherwise from sampled grids refined
by a pattern search; evaluates the explicit admissible-gain formulas, and
bundles everything into a certificate whose composite decay check is re-run
on the assembled field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ieskit import __version__
from ieskit.dynsys import Interconnection, TimeVaryingField, assemble, rowdot
from ieskit.finsler import (
    DecayReport,
    DisplacementSamples,
    FinslerCandidate,
    check_decay,
    compose,
)
from ieskit.io_utils import atomic_write_text
from ieskit.sampling import _check_radius, ball_grid

Array = np.ndarray


# The eight sup-constants, in record order.
CONSTANTS = ("a1", "a2", "b1", "b2", "eta1", "eta2", "theta1", "theta2")
# Every sup-constant is inflated by this factor, sampled or closed form; a
# certificate record names how its constants were obtained.
SAFETY = 1.05
PROVENANCE = "sampled, inflated"
CLOSED_FORM = "closed form, inflated"
# the first line of a certificate's text, per provenance
_BASIS = {PROVENANCE: "sampled maxima", CLOSED_FORM: "closed-form suprema"}
# Points per axis of the ball grid the constants are searched on.
GRID_DENSITY = 101
# Halton states per decay-check sample set (drawn from the box around the
# ball, so 103 stay in 1-D and 83 in 2-D); each check is exact in dz.
N_STATES = 64


class InfeasibleBudgetError(ValueError):
    """No admissible gain budget exists for the requested rates."""


class CertificationError(RuntimeError):
    """Certification refused; the message names the failing check."""


@dataclass(frozen=True)
class SupConstants:
    """Suprema over the ball of the given radius, inflated by the safety
    factor, and how they were obtained: ``PROVENANCE`` for the sampled
    search of ``extract_constants``, ``CLOSED_FORM`` for a system's closed
    forms."""

    radius: float
    a1: float
    a2: float
    b1: float
    b2: float
    eta1: float
    eta2: float
    theta1: float
    theta2: float
    provenance: str = PROVENANCE

    def __post_init__(self):
        for name in CONSTANTS:
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, "
                                 f"got {getattr(self, name)!r}")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.provenance not in _BASIS:
            raise ValueError(f"unknown provenance {self.provenance!r}")


def _row_norm(v: Array) -> Array:
    """Euclidean norm of each row, rounded as the 1-D np.linalg.norm of it."""
    return np.sqrt(rowdot(v, v))


def _refine_max(fn: Callable[[Array], Array], x: Array, best: float, s: float,
                radius: float) -> float:
    """The largest value of ``fn`` a deterministic pattern search finds in
    the ball of the given radius, from x where fn is ``best``, at scale s.

    It tracks the true supremum rather than the grid alignment (which would
    break monotonicity in the radius).  Sweep k tries x +- s e_i in turn,
    i = 0..d-1, each projected onto the ball, and moves to the first try
    above best; a sweep that moves nowhere halves s, down to a floor of
    1e-12 (1 + radius), for at most 60 sweeps; s must be positive.  Until a
    try improves, the tries to come are fixed, so they are built as one
    array and evaluated in one call, and the search goes on after the first
    one above best."""
    floor = 1e-12 * (1.0 + radius)
    d = len(x)
    # try t of a sweep adds +-scale to coordinate t // 2 and -0.0 to the
    # others: x + -0.0 is x for every x, -0.0 included, so each try is
    # bitwise x with one coordinate moved
    tries = np.arange(2 * d)
    unit = np.full((2 * d, d), -0.0)
    unit[tries, tries // 2] = [1.0, -1.0] * d
    sweep, first, improved = 0, 0, False
    while True:
        scales = []  # the scale of each sweep up to the end of the search
        scale, moved = s, improved
        for _ in range(sweep, 60):
            scales.append(scale)
            if not moved:
                scale *= 0.5
                if scale < floor:
                    break
            moved = False
        # the first sweep resumes after the try the search last moved to
        cands = x + (np.array(scales)[:, None, None] * unit).reshape(-1, d)[first:]
        if not len(cands):
            return best
        nrm = _row_norm(cands)
        out = nrm > radius
        cands[out] *= (radius / nrm[out])[:, None]
        vals = fn(cands)
        hit = vals > best
        row = int(hit.argmax())
        if not hit[row]:
            return best
        k, t = divmod(first + row, 2 * d)
        sweep, s, first = sweep + k, scales[k], t + 1
        x, best, improved = cands[row], float(vals[row]), True


def extract_constants(
    ic: Interconnection,
    candidate1: FinslerCandidate,
    candidate2: FinslerCandidate,
    radius: float,
    grid_density: int = GRID_DENSITY,
) -> SupConstants:
    """Sampled sup-constants over the balls |x| <= R and |y| <= R.

    a_i are coupling magnitudes, b_i coupling-Jacobian spectral norms, eta_i
    and theta_i the suprema of the candidates' Assumption-2 bounds ``gamma``
    and ``zeta``.  Each value is the maximum that a pattern search from the
    grid maximum finds, times the safety factor; a value that is not finite
    raises ValueError, and so does a ``grid_density`` below 2.
    """
    if grid_density < 2:
        raise ValueError(f"grid_density must be at least 2, got {grid_density}")
    grids = {dim: ball_grid(radius, dim, grid_density) for dim in {ic.n, ic.m}}
    xs, ys = grids[ic.n], grids[ic.m]

    cell = 2.0 * radius / (grid_density - 1)

    def grid_max(fn: Callable[[Array], Array], pts: Array, label: str) -> float:
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite is refused
            vals = fn(pts)
            bad = ~np.isfinite(vals)
            if bad.any():
                raise ValueError(f"non-finite value of {label} at {pts[np.argmax(bad)]}")
            # argmax takes the first of equal maxima, as a scan with a strict > would
            top = np.argmax(vals)
            return _refine_max(fn, pts[top], float(vals[top]), cell, radius)

    searches = {
        "a1": (lambda y: _row_norm(ic.g1.value(y)), ys, "g1"),
        "a2": (lambda x: _row_norm(ic.g2.value(x)), xs, "g2"),
        "b1": (lambda y: np.linalg.norm(ic.g1.jacobian(y), 2, (-2, -1)), ys, "Dg1"),
        "b2": (lambda x: np.linalg.norm(ic.g2.jacobian(x), 2, (-2, -1)), xs, "Dg2"),
        "eta1": (candidate1.gamma, xs, "gamma1"),
        "eta2": (candidate2.gamma, ys, "gamma2"),
        "theta1": (candidate1.zeta, xs, "zeta1"),
        "theta2": (candidate2.zeta, ys, "zeta2"),
    }
    return SupConstants(
        radius=radius, **{name: grid_max(*searches[name]) * SAFETY for name in CONSTANTS})


def default_epsilons(alpha1: float, alpha2: float, alpha: float) -> tuple[float, float, float, float]:
    """Symmetric slack split: e1 = e2 = (alpha1 - alpha)/3, e3 = e4 = (alpha2 - alpha)/3."""
    return ((alpha1 - alpha) / 3.0, (alpha1 - alpha) / 3.0,
            (alpha2 - alpha) / 3.0, (alpha2 - alpha) / 3.0)


def gain_budget(
    constants: SupConstants,
    alpha1: float,
    alpha2: float,
    alpha: float,
    epsilons: Optional[tuple[float, float, float, float]] = None,
) -> tuple[float, float]:
    """Admissible gain budget

        rho1_max = min(2 e1 / (2 a1 eta1 + b1 theta1^2), 2 e4 / b1)
        rho2_max = min(2 e3 / (2 a2 eta2 + b2 theta2^2), 2 e2 / b2)

    for any positive e1..e4 with e1 + e2 < alpha1 - alpha and
    e3 + e4 < alpha2 - alpha.  Zero denominators yield an infinite branch,
    and denominators past the float range a zero one.
    """
    if alpha <= 0:
        raise ValueError("target rate alpha must be positive")
    if alpha >= min(alpha1, alpha2):
        raise InfeasibleBudgetError(
            f"no budget exists: alpha = {alpha} must be below min(alpha1, alpha2) "
            f"= {min(alpha1, alpha2)}"
        )
    if epsilons is None:
        epsilons = default_epsilons(alpha1, alpha2, alpha)
    e1, e2, e3, e4 = epsilons
    if min(e1, e2, e3, e4) <= 0:
        raise InfeasibleBudgetError("epsilon slacks must be positive")
    if not (e1 + e2 < alpha1 - alpha and e3 + e4 < alpha2 - alpha):
        raise InfeasibleBudgetError(
            "epsilon slacks must satisfy e1+e2 < alpha1-alpha and e3+e4 < alpha2-alpha"
        )
    c = constants

    def ratio(num: float, den: float) -> float:
        return math.inf if den == 0.0 else num / den

    def square(x: float) -> float:
        try:
            return x**2
        except OverflowError:  # a Python float square raises past the range
            return math.inf

    rho1 = min(ratio(2.0 * e1, 2.0 * c.a1 * c.eta1 + c.b1 * square(c.theta1)),
               ratio(2.0 * e4, c.b1))
    rho2 = min(ratio(2.0 * e3, 2.0 * c.a2 * c.eta2 + c.b2 * square(c.theta2)),
               ratio(2.0 * e2, c.b2))
    return rho1, rho2


@dataclass(frozen=True)
class GainCertificate:
    """Constants, rates, slacks, gain budgets, and the attached decay report
    of the composite candidate on the assembled field at the budget gains."""

    constants: SupConstants
    alpha1: float
    alpha2: float
    alpha: float
    epsilons: tuple[float, float, float, float]
    rho1_max: float
    rho2_max: float
    decay_report: DecayReport

    def to_record(self) -> dict[str, str]:
        c = self.constants
        rec = {
            "tool_version": __version__,
            "radius": repr(c.radius),
            "safety": repr(SAFETY),
            "provenance": c.provenance,
        }
        rec.update((name, repr(getattr(c, name))) for name in CONSTANTS)
        rec.update(alpha1=repr(self.alpha1), alpha2=repr(self.alpha2), alpha=repr(self.alpha))
        rec.update((f"epsilon{i}", repr(e)) for i, e in enumerate(self.epsilons, 1))
        rec.update(rho1_max=repr(self.rho1_max), rho2_max=repr(self.rho2_max))
        rec["decay_check"] = "pass" if self.decay_report.passed else "fail"
        rec["decay_worst"] = repr(self.decay_report.worst)
        rec["decay_samples"] = str(self.decay_report.n_samples)
        return rec

    def to_text(self) -> str:
        rec = self.to_record()
        basis = _BASIS[self.constants.provenance]
        lines = [f"gain certificate (constants are {basis} times a safety factor)"]
        lines += [f"  {k} = {v}" for k, v in rec.items()]
        lines.append(f"  note: {self.decay_report.note}")
        return "\n".join(lines) + "\n"

    def record_text(self) -> str:
        """The record as ``key = value`` lines."""
        return "".join(f"{k} = {v}\n" for k, v in self.to_record().items())

    def write_record(self, path) -> None:
        atomic_write_text(path, self.record_text())

    def write_report(self, path) -> None:
        atomic_write_text(path, self.to_text())


def parse_certificate_record(path) -> dict[str, str]:
    """Re-parse a key = value certificate record."""
    out: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        if not _:
            raise ValueError(f"malformed record line: {raw!r}")
        out[key.strip()] = value.strip()
    return out


def certify(
    ic: Interconnection,
    candidate1: FinslerCandidate,
    candidate2: FinslerCandidate,
    radius: float,
    alpha1: float,
    alpha2: float,
    alpha: float,
    requested_gains: Optional[tuple[float, float]] = None,
    tol: float = 1e-9,
    sup_constants: Optional[Callable[[float], SupConstants]] = None,
) -> GainCertificate:
    """Full certification pipeline over the ball of the given radius.

    The component candidates are first checked against their decay rates in
    squared-displacement form; the budget is then computed from the
    sup-constants, and the composed candidate is re-checked on the assembled
    field at the budget gains.  ``sup_constants(radius)`` gives the
    constants, in closed form where the system has them; by default they
    are ``extract_constants``' sampled search.  Any failing check refuses
    certification, and so do a decay sample set with no state in the ball
    and a sampled value or sup-constant that is not finite (finite constants
    give a budget that is finite, or infinite on a zero denominator); a
    radius whose square is not finite is refused first.  Once the budget
    exists, a ``tol`` whose slack tol (1 + c_upper), over both candidates,
    is not below ``alpha`` is refused: it would pass a field with no decay.
    When ``requested_gains`` is given it must be finite, nonnegative and
    within the budget.
    """
    try:
        _check_radius(radius)
    except ValueError as exc:  # no ball of this radius can be sampled
        raise CertificationError(str(exc)) from None
    if requested_gains is not None and not all(
            math.isfinite(g) and g >= 0.0 for g in requested_gains):
        raise CertificationError(
            f"requested gains {tuple(requested_gains)} must be finite and nonnegative")
    samples: dict[int, DisplacementSamples] = {}  # one sample set per dimension

    def checked(label: str, candidate: FinslerCandidate, field: TimeVaryingField,
                rate: float) -> DecayReport:
        if field.dim not in samples:
            samples[field.dim] = DisplacementSamples.product_ball(radius, field.dim, N_STATES)
        if not len(samples[field.dim]):
            raise CertificationError(
                f"{label} decay check has no sample state in the ball of radius {radius!r}")
        report = check_decay(candidate, field, rate, samples[field.dim], tol=tol)
        if not report.passed:
            worst = f"{report.worst:.3e}" if math.isfinite(report.worst) else "non-finite"
            raise CertificationError(
                f"{label} decay check failed at z={report.worst_z}, "
                f"dz={report.worst_dz} (violation {worst})"
            )
        return report

    checked("first component", candidate1, ic.f1, alpha1)
    checked("second component", candidate2, ic.f2, alpha2)

    try:
        constants = (extract_constants(ic, candidate1, candidate2, radius)
                     if sup_constants is None else sup_constants(radius))
    except ValueError as exc:  # a sampled value or a sup-constant is not finite
        raise CertificationError(
            f"no finite sup-constants on the ball of radius {radius!r}: {exc}") from exc
    epsilons = default_epsilons(alpha1, alpha2, alpha)
    rho1_max, rho2_max = gain_budget(constants, alpha1, alpha2, alpha, epsilons)
    # a check passes at a state with lambda_max(Q) + rate <= tol (1 + |v^T M v|),
    # |v^T M v| <= c_upper: a slack of alpha (below both block rates) would pass
    # a composite that does not decay at all
    slack = tol * (1.0 + max(candidate1.c_upper, candidate2.c_upper))
    if slack >= alpha:
        raise CertificationError(
            f"tolerance {tol!r} leaves a slack of {slack:.3e} in the decay checks, "
            f"not below alpha = {alpha!r}: a field with no decay would pass them")

    if requested_gains is not None:
        r1, r2 = requested_gains
        if r1 > rho1_max or r2 > rho2_max:
            raise CertificationError(
                f"requested gains ({r1}, {r2}) exceed the admissible budget "
                f"({rho1_max:.6g}, {rho2_max:.6g})"
            )

    # an infinite budget (degenerate coupling) is exercised at a large finite gain
    gains = (min(rho1_max, 1e6), min(rho2_max, 1e6))
    report = checked("composite (budget gains)", compose(candidate1, candidate2),
                     assemble(ic.with_gains(*gains)), alpha)
    return GainCertificate(
        constants=constants,
        alpha1=alpha1,
        alpha2=alpha2,
        alpha=alpha,
        epsilons=epsilons,
        rho1_max=rho1_max,
        rho2_max=rho2_max,
        decay_report=report,
    )
