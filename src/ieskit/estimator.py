"""Empirical contraction envelopes fitted from trajectory-pair ensembles.

The fit is a least-squares line through log d(t) on the post-transient window;
samples that have already fallen to the integrator noise floor are excluded so
a strongly contracting run is not misread as flat noise.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from ieskit.dynsys import DistanceSeries, IntegratorConfig, TimeVaryingField, flow_differences
from ieskit.invariance import OuterLyapunov
from ieskit.io_utils import _cells, _csv_rows, atomic_write_text
from ieskit.sampling import _check_radius

Array = np.ndarray

CONTRACTING = "contracting"
NON_CONTRACTING = "non_contracting"
INCONCLUSIVE = "inconclusive"

LAMBDA_MIN = 1e-3  # least fitted rate of a contracting fit
RESIDUAL_MAX = 0.5  # largest log-residual of a contracting fit
LATE_FLOOR = 0.05  # a late-window mean above LATE_FLOOR * d(t0) is non-contracting
LATE_FRACTION = 0.2  # the late window's share of the samples
FLOOR_RATIO = 1e-10  # samples below FLOOR_RATIO * d(t0) leave the fit window
MIN_POINTS = 8  # a shorter post-transient window falls back to the whole series
MIN_SEPARATION = 1e-6  # least distance between the two points of a sampled pair


@dataclass(frozen=True)
class EnvelopeFit:
    """Envelope d(t) <= K exp(-lam (t - t0)) d(t0) fitted on ``window``."""

    K: float
    lam: float
    window: tuple[float, float]
    residual: float
    verdict: str

    def envelope(self, t0: float, d0: float, ts) -> Array:
        ts = np.asarray(ts, dtype=float)
        return self.K * d0 * np.exp(-self.lam * (ts - t0))


def _check_transient_skip(transient_skip: float) -> None:
    if not 0.0 <= transient_skip < 1.0:
        raise ValueError(f"transient_skip must lie in [0, 1), got {transient_skip}")


def fit_envelope(times, distances, transient_skip: float = 0.2) -> EnvelopeFit:
    """Fit the exponential envelope of a distance series.

    lam is minus the least-squares slope of log d on the post-transient
    window, which leaves out the first ``transient_skip`` share of the
    horizon; K is the smallest prefactor making the envelope dominate every
    sample in that window, clamped to at least 1.  A ``transient_skip``
    outside [0, 1), NaN included, raises ValueError.
    """
    _check_transient_skip(transient_skip)
    times = np.asarray(times, dtype=float)
    d = np.asarray(distances, dtype=float)
    if len(times) != len(d) or len(times) < 2:
        raise ValueError("times and distances must align with length >= 2")
    if not np.all(np.isfinite(d)):
        raise ValueError("distance series contains non-finite values")
    d0 = float(d[0])
    if d0 <= 0.0:
        raise ValueError("initial distance must be positive")
    t0, t_end = float(times[0]), float(times[-1])
    t_lo = t0 + transient_skip * (t_end - t0)

    floor = FLOOR_RATIO * d0
    window_mask = (times >= t_lo) & (d > floor)
    if np.count_nonzero(window_mask) < MIN_POINTS:
        window_mask = d > floor
    if np.count_nonzero(window_mask) < 2:
        return EnvelopeFit(K=1.0, lam=0.0, window=(t0, t0), residual=math.inf,
                           verdict=INCONCLUSIVE)

    tw = times[window_mask]
    logd = np.log(d[window_mask])
    slope, intercept = np.polyfit(tw, logd, 1)
    lam = -float(slope)
    fitted = slope * tw + intercept
    residual = float(np.sqrt(np.mean((logd - fitted) ** 2)))
    k = float(np.exp(np.max(logd + lam * (tw - t0) - math.log(d0))))
    k = max(k, 1.0)

    n_late = max(1, int(math.ceil(LATE_FRACTION * len(times))))
    late_mean = float(np.mean(d[-n_late:]))

    if lam > LAMBDA_MIN and residual < RESIDUAL_MAX:
        verdict = CONTRACTING
    elif late_mean > LATE_FLOOR * d0:
        verdict = NON_CONTRACTING
    else:
        verdict = INCONCLUSIVE
    return EnvelopeFit(
        K=k,
        lam=lam,
        window=(float(tw[0]), float(tw[-1])),
        residual=residual,
        verdict=verdict,
    )


def _sample_pairs(low, high, dim: int, n_pairs: int, seed: int, inside=lambda z: True):
    """n seeded pairs of points drawn uniformly from the box [low, high] in
    R^dim and redrawn until ``inside(z)`` holds; a pair is kept when its two
    points are at least MIN_SEPARATION apart.  Scalar bounds draw about three
    times faster than (dim,) arrays of them, with the same bits."""
    rng = np.random.default_rng(seed)
    points = filter(inside, (rng.uniform(low, high, size=dim) for _ in itertools.count()))
    pairs = []
    while len(pairs) < n_pairs:
        z1, z2 = next(points), next(points)
        if np.linalg.norm(z1 - z2) >= MIN_SEPARATION:
            pairs.append((z1, z2))
    return pairs


def box_bounds(bounds) -> Array:
    """``bounds`` as the (d, 2) array of a box that can hold a pair of points
    MIN_SEPARATION apart.  Bounds of another shape, non-finite bounds, and a
    box whose diagonal does not exceed MIN_SEPARATION are refused with
    ``ValueError``."""
    bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
    if bounds.ndim != 2 or bounds.shape[1] != 2 or not bounds.size:
        raise ValueError(f"box bounds must have shape (d, 2) with d >= 1, "
                         f"got {bounds.shape}")
    if not np.all(np.isfinite(bounds)):
        raise ValueError("box bounds must be finite")
    diagonal = float(np.linalg.norm(bounds[:, 1] - bounds[:, 0]))
    if not diagonal > MIN_SEPARATION:
        raise ValueError(f"box diagonal {diagonal:g} must exceed the pair "
                         f"separation {MIN_SEPARATION:g}")
    return bounds


def sample_pairs_box(bounds, n_pairs: int, seed: int):
    """n seeded random initial-condition pairs inside a box, separated by at
    least MIN_SEPARATION.  Bounds that ``box_bounds`` refuses are refused
    with its ``ValueError``."""
    bounds = box_bounds(bounds)
    return _sample_pairs(bounds[:, 0], bounds[:, 1], len(bounds), n_pairs, seed)


def sample_pairs_ball(radius: float, dim: int, n_pairs: int, seed: int):
    """n seeded random pairs with both endpoints inside the ball |z| <= radius,
    separated by at least MIN_SEPARATION.  A radius that is not positive and
    finite or whose square is not, or a ball whose diameter does not exceed
    MIN_SEPARATION, is refused with ``ValueError``: past sqrt(DBL_MAX) every
    draw's norm would overflow and be rejected, without end."""
    if dim < 1:
        raise ValueError(f"ball dimension must be positive, got {dim}")
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"ball radius must be positive and finite, got {radius}")
    _check_radius(radius)
    if not 2.0 * radius > MIN_SEPARATION:
        raise ValueError(f"ball diameter {2.0 * radius:g} must exceed the pair "
                         f"separation {MIN_SEPARATION:g}")
    with np.errstate(over="ignore"):  # an inf norm is a draw off the ball
        return _sample_pairs(-radius, radius, dim, n_pairs, seed,
                             inside=lambda z: np.linalg.norm(z) <= radius)


def sample_pairs_sublevel(w: OuterLyapunov, level: float, n_pairs: int, seed: int):
    """n seeded random pairs with both endpoints inside the sublevel set
    {W <= level}, drawn from the box of its half-axes and separated by at
    least MIN_SEPARATION.  A level that is not positive and finite, and a set
    whose half-axes are not finite or whose widest axis does not exceed
    MIN_SEPARATION / 2, are refused with ``ValueError``: no pair could be
    drawn from either."""
    if not (math.isfinite(level) and level > 0.0):
        raise ValueError(f"sublevel must be positive and finite, got {level}")
    axes = w.half_axes(level)
    if not (np.all(np.isfinite(axes)) and 2.0 * float(np.max(axes)) > MIN_SEPARATION):
        raise ValueError(f"sublevel set {level} has half-axes {axes}: they must be "
                         f"finite, and the widest above {MIN_SEPARATION / 2:g}")
    with np.errstate(over="ignore"):  # an inf value is a draw off the set
        return _sample_pairs(-axes, axes, w.dim, n_pairs, seed,
                             inside=lambda z: w.value(z) <= level)


@dataclass(frozen=True)
class PairResult:
    pair_id: int
    z1: Array
    z2: Array
    series: DistanceSeries
    fit: Optional[EnvelopeFit]
    blew_up: bool


@dataclass(frozen=True)
class EnsembleReport:
    """Per-pair fits plus the aggregate: pass iff every verdict is
    contracting.  The aggregate is inconclusive when a pair blew up, or when
    no fit says non_contracting and at least one says inconclusive; a
    non_contracting fit with no blow-up refutes."""

    results: tuple[PairResult, ...]
    min_lambda: float
    max_gain: float
    passed: bool
    inconclusive: bool

    @property
    def verdicts(self) -> list[str]:
        return [r.fit.verdict if r.fit is not None else INCONCLUSIVE
                for r in self.results]

    @property
    def blown_up(self) -> tuple[int, ...]:
        """The ``pair_id`` of every pair that blew up."""
        return tuple(r.pair_id for r in self.results if r.blew_up)


def _pair_results(
    field: TimeVaryingField,
    pairs: Iterable[tuple[Array, Array]],
    horizon: float,
    config: IntegratorConfig,
    transient_skip: float = 0.2,
) -> list[PairResult]:
    """Every pair's distance series and envelope fit, numbered from 0: the 2N
    flows are integrated as one batch, and a pair that blew up gets no fit.
    A ``transient_skip`` outside [0, 1) is refused before any integration."""
    _check_transient_skip(transient_skip)
    if abs(config.max_time - horizon) > 1e-12:
        config = dataclasses.replace(config, max_time=horizon)
    pairs = [(np.asarray(z1), np.asarray(z2)) for z1, z2 in pairs]
    if not pairs:
        raise ValueError("an ensemble needs at least one pair")
    all_series = flow_differences(field, 0.0, *zip(*pairs), config)
    results = []
    for i, ((z1, z2), series) in enumerate(zip(pairs, all_series)):
        fit = None if series.blew_up else fit_envelope(series.times, series.values,
                                                       transient_skip)
        results.append(PairResult(i, z1, z2, series, fit, series.blew_up))
    return results


def _aggregate(results: Sequence[PairResult]) -> EnsembleReport:
    fits = [r.fit for r in results if r.fit is not None]
    any_blowup = any(r.blew_up for r in results)
    min_lambda = min((f.lam for f in fits), default=math.nan)
    max_gain = max((f.K for f in fits), default=math.nan)
    verdicts = {f.verdict for f in fits}
    all_contracting = verdicts == {CONTRACTING}
    return EnsembleReport(
        results=tuple(results),
        min_lambda=min_lambda,
        max_gain=max_gain,
        passed=all_contracting and not any_blowup,
        inconclusive=any_blowup or (INCONCLUSIVE in verdicts
                                    and NON_CONTRACTING not in verdicts),
    )


def ensemble_ies(
    field: TimeVaryingField,
    pairs: Iterable[tuple[Array, Array]],
    horizon: float,
    config: IntegratorConfig,
    transient_skip: float = 0.2,
) -> EnsembleReport:
    """Fit the envelope of every pair's distance series; the 2N flows are
    integrated as one batch from t = 0, and a pair that blew up gets no fit.
    An empty ``pairs``, or a ``transient_skip`` outside [0, 1), is refused
    with ``ValueError``."""
    return _aggregate(_pair_results(field, pairs, horizon, config, transient_skip))


@dataclass(frozen=True)
class WiesEnsembleReport:
    """Per-radius envelope fits: ``lambda_floor`` is the infimum of the fitted
    rates and ``gain_profile`` the per-radius maximum prefactor, reported
    as-is (no monotone envelope is selected)."""

    radii: tuple[float, ...]
    per_radius: tuple[EnsembleReport, ...]
    lambda_floor: float
    gain_profile: tuple[float, ...]


def wies_scan(
    field: TimeVaryingField,
    radii: Sequence[float],
    pairs_per_radius: int,
    horizon: float,
    config: IntegratorConfig,
    seed: int = 0,
) -> WiesEnsembleReport:
    """Fit envelopes for pair ensembles sampled at increasing initial radii.

    Radius k gets ``sample_pairs_ball(radius, field.dim, pairs_per_radius,
    seed + k)``; the flows of all radii are integrated as one batch, and each
    radius's report is that of ``ensemble_ies`` on its own pairs, numbered
    from 0.  Under fixed-step RK4 the numbers are bitwise those of one
    ``ensemble_ies`` call per radius whenever a row's derivative does not
    depend on the other rows of the batch, as for the FHN, linear and
    polynomial fields.  Under the adaptive method all rows share one step
    size, set by the worst row of all radii, so the numbers differ from the
    per-radius calls within the solver tolerance.  Fits skip the default
    transient share.
    """
    if not pairs_per_radius >= 1:
        raise ValueError(f"pairs_per_radius must be at least 1, got {pairs_per_radius}")
    radii = [float(r) for r in radii]
    if not all(math.isfinite(r) and r > 0.0 for r in radii):
        raise ValueError(f"radii must be positive and finite, got {radii}")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    pairs = [pair for k, radius in enumerate(radii)
             for pair in sample_pairs_ball(radius, field.dim, pairs_per_radius, seed + k)]
    results = _pair_results(field, pairs, horizon, config)
    n = pairs_per_radius
    reports = [_aggregate([dataclasses.replace(r, pair_id=i)
                           for i, r in enumerate(results[k * n:(k + 1) * n])])
               for k in range(len(radii))]
    lambdas = [r.min_lambda for r in reports if not math.isnan(r.min_lambda)]
    return WiesEnsembleReport(
        radii=tuple(radii),
        per_radius=tuple(reports),
        lambda_floor=min(lambdas) if lambdas else math.nan,
        gain_profile=tuple(r.max_gain for r in reports),
    )


def write_distance_csv(path, results: Sequence[PairResult]) -> None:
    """CSV with columns (pair_id, t, distance), streamed pair by pair.  Each
    distinct times array is formatted once, keyed by its bytes: under a fixed
    step every pair shares one grid, while a row that stopped early or an
    adaptive grid has its own."""
    times: dict[bytes, list[str]] = {}

    def blocks():
        yield "pair_id,t,distance\n"
        for r in results:
            key = r.series.times.tobytes()
            if key not in times:
                times[key] = list(_cells(r.series.times))
            yield from _csv_rows([times[key], _cells(r.series.values)],
                                 prefix=f"{r.pair_id},")

    atomic_write_text(path, blocks())


def write_summary_csv(path, results: Sequence[PairResult]) -> None:
    """CSV with columns (pair_id, K, lambda, verdict); a pair that blew up
    has no fit and reads nan, nan, inconclusive."""
    fits = [r.fit for r in results]
    columns = [(str(r.pair_id) for r in results),
               _cells([f.K if f else math.nan for f in fits]),
               _cells([f.lam if f else math.nan for f in fits]),
               (f.verdict if f else INCONCLUSIVE for f in fits)]
    atomic_write_text(path, _csv_rows(columns, head="pair_id,K,lambda,verdict\n"))
