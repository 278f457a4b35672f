"""FitzHugh-Nagumo case study: model blocks, the constructive contraction
weight f_c with its derivative, the constants mu and eta, the component
Finsler candidates, and their certificate's sup-constants in closed form."""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from ieskit.dynsys import CouplingMap, Interconnection, TimeVaryingField
from ieskit.finsler import FinslerCandidate
from ieskit.io_utils import _cells, _csv_rows, atomic_write_text
from ieskit.smallgain import CLOSED_FORM, SAFETY, SupConstants

Array = np.ndarray


@dataclass(frozen=True)
class FhnParams:
    """Model parameters dx/dt = x - x^3/3 + c - rho1*y, eps*dy/dt = -b*y + rho2*x.

    The constant term is tied to ``r`` by c = r^3 - r, which must be a
    finite float.  The exponent rate ``alpha`` of the contraction weight must
    lie in (0, 2 r^2 - 2), which guarantees s* = sqrt((2 + alpha)/2) < r.
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
        try:
            self.c
        except OverflowError:  # a Python float cube raises past the range
            raise ValueError(f"c = r^3 - r must be finite, got r = {self.r!r}") from None
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
        try:
            for _ in range(3):  # Newton polish to the last ulp
                r -= (r**3 - r - c) / (3.0 * r * r - 1.0)
        except OverflowError:  # a Python float cube raises past the range
            raise ValueError(f"c = {c!r} leaves no r whose r^3 is a finite float") from None
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

    return TimeVaryingField(dim=block.dim, rhs=rhs, jacobian=jacobian,
                            autonomous=block.autonomous)


def x_subsystem(params: ParamSets) -> TimeVaryingField:
    """Isolated excitable block dx/dt = x - x^3/3 + c."""
    c = _per_row(params, lambda p: p.c)

    def rhs(t: float, x: Array) -> Array:
        return x - x**3 / 3.0 + c

    def jac(t: float, x: Array) -> Array:
        return (1.0 - x * x)[..., None]

    return _fixed_batch(TimeVaryingField(dim=1, rhs=rhs, jacobian=jac, autonomous=True), c)


def y_subsystem(params: ParamSets) -> TimeVaryingField:
    """Isolated recovery block dy/dt = -(b/eps) y."""
    rate = _per_row(params, lambda p: p.b / p.epsilon)
    jac_entry = np.expand_dims(-rate, -1)

    def rhs(t: float, y: Array) -> Array:
        return -rate * y

    def jac(t: float, y: Array) -> Array:
        return np.full(y.shape + (1,), jac_entry)

    return _fixed_batch(TimeVaryingField(dim=1, rhs=rhs, jacobian=jac, autonomous=True),
                        rate)


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


def _clamp_q(x: Array, s: float, c: float):
    """x clamped to [-s*, s*], and q = x - x^3/3 + c there.  The cube is
    ``np.power``, so a clamped scalar is cubed as a 0-d array is, bitwise
    the one-element array query; a numpy-scalar ``**`` differs from the
    array power in the last bit for some bases on a SIMD build."""
    inner = np.minimum(np.maximum(x, -s), s)
    return inner, inner - np.power(inner, 3) / 3.0 + c


def _weight_ratio(params: FhnParams):
    """The logarithmic slope (2x^2 - 2 - alpha) / (x - x^3/3 + c), zero off
    the interior interval |x| < s*.  It is evaluated on x clamped to
    [-s*, s*], so no value off the interval overflows; ``clamped``, when
    given, is ``_clamp_q`` of x.  A scalar query runs the array operations
    on a 0-d array, so its value is bitwise that of the one-element array
    query."""
    c, alpha, s = params.c, params.alpha, params.s_star

    def ratio(x, clamped=None):
        x = np.asarray(x, dtype=float)
        inner, q = _clamp_q(x, s, c) if clamped is None else clamped
        num = 2.0 * inner * inner - 2.0 - alpha
        out = np.where(np.abs(x) < s, num / q, 0.0)
        return out if out.ndim else float(out)

    return ratio


def _log_weight(params: FhnParams, dtype=np.float64):
    """log f_c(x) = -(integral from x to s* of the log slope), for x in
    [-s*, s*], in closed form; ``q``, when given, is q(x) below.

    With q(x) = x - x^3/3 + c, the slope is -2q'/q - alpha/q, so log f_c(x)
    = 2 log(q(s*)/q(x)) + alpha I(x), I(x) the integral of 1/q from x to s*.
    check_weight_domain's q(-1) > 0 means c > 2/3, so t^3 - 3t - 3c has one
    real root t0 > 2, and 3q(x) = (t0 - x)(u^2 + w^2) with u = x + t0/2 and
    w^2 = 3 t0^2/4 - 3 > 0; q > 0 on [-s*, s*] puts t0 above s*.  Partial
    fractions with A = 1/(3 t0^2 - 3) give

        I(x) = 3A log((t0 - x)/(t0 - s*)) - (3A/2) log((u^2 + w^2)/(u*^2 + w^2))
               - (9A t0/(2w)) (atan(u/w) - atan(u*/w)),   u* = s* + t0/2.

    Each ratio is taken as log1p of its excess over one and the arctan
    difference as one atan2, each formed from s* - x, so that no term
    cancels against another.  The terms free of x are taken once, with the
    operands and order they have inside the expression."""
    c, alpha, s = (dtype(v) for v in (params.c, params.alpha, params.s_star))
    t0 = 2.0 * np.cosh(np.arccosh(1.5 * c) / 3.0)
    for _ in range(2):  # Newton polish to the last ulp
        t0 -= (t0**3 - 3.0 * t0 - 3.0 * c) / (3.0 * t0 * t0 - 3.0)
    a = 1.0 / (3.0 * (t0 - 1.0) * (t0 + 1.0))
    w = np.sqrt(0.75 * (t0 - 2.0) * (t0 + 2.0))
    half_t0 = 0.5 * t0
    u_s = s + half_t0
    k1, k2, k3 = 3.0 * alpha * a, -1.5 * alpha * a, -4.5 * alpha * a * t0 / w
    s2, w2, neg_w = s * s, w * w, -w
    t0_gap, uw_s = t0 - s, u_s * u_s + w2

    def log_weight(x, q=None):
        x = np.asarray(x, dtype=dtype)
        gap = s - x
        if q is None:
            q = x - x**3 / 3.0 + c
        rise = gap * (1.0 - (s2 + s * x + x * x) / 3.0)  # q(s*) - q(x)
        u = x + half_t0
        return (2.0 * np.log1p(rise / q)
                + k1 * np.log1p(gap / t0_gap)
                + k2 * np.log1p(-gap * (x + s + t0) / uw_s)
                + k3 * np.arctan2(neg_w * gap, w2 + u * u_s))

    return log_weight


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


_LOG_MAX = math.log(sys.float_info.max)  # the largest mu whose exp(mu) is a float


@dataclass(frozen=True, eq=False)
class FcTable:
    """The contraction weight in closed form on [-s*, s*], with attached
    plateaus.

    The weight equals 1 on the right plateau and exp(mu) on the left one,
    is nonincreasing, and its derivative lies in [-eta, 0].  Off-plateau
    queries clamp to the plateau values.  A Python-float or ``np.float64``
    query returns a Python float, bitwise the one-element array query.
    ``critical_points`` are the points of [-s*, s*] where f_c' may be least
    (``build_fc``).
    """

    params: FhnParams
    mu: float
    eta: float
    critical_points: Array = field(repr=False)
    _log_weight: Callable = field(repr=False)
    _ratio: Callable = field(repr=False)

    @property
    def s_star(self) -> float:
        return self.params.s_star

    @property
    def left_plateau(self) -> float:
        return math.exp(self.mu)

    def fc(self, x):
        """The weight at x."""
        x = np.asarray(x, dtype=float)
        out = self._weight(x, _clamp_q(x, self.s_star, self.params.c))
        return out if out.ndim else float(out)

    def fc_prime(self, x):
        v, d = self.fc_pair(x)
        return d

    def fc_pair(self, x):
        """Weight and derivative evaluated consistently: the derivative is the
        logarithmic slope times the same weight value.  x is clamped, and q
        taken there, once for both."""
        x = np.asarray(x, dtype=float)
        clamped = _clamp_q(x, self.s_star, self.params.c)
        v = self._weight(x, clamped)
        d = self._ratio(x, clamped) * v
        return (v, d) if v.ndim else (float(v), float(d))

    def _weight(self, x: Array, clamped) -> Array:
        """The weight at x, given ``_clamp_q`` of x."""
        s = self.s_star
        inner = np.exp(self._log_weight(*clamped))
        return np.where(x >= s, 1.0, np.where(x <= -s, self.left_plateau, inner))


def build_fc(params: FhnParams) -> FcTable:
    """The contraction weight of ``params`` with its constants mu and eta.

    mu = log f_c(-s*) is evaluated in ``np.longdouble``, which on x86 carries
    11 more bits than a double, so it is rounded once.  eta = -min f_c': with
    the slope N/q, N = 2x^2 - 2 - alpha, f_c'' = (N'q - Nq' + N^2) f_c / q^2,
    so f_c' is least at a root of that quartic in (-s*, s*), and it is zero
    at +-s*.  Every root's real part, clamped to [-s*, s*], is a point of
    the interval, so trying them all, a complex pair's included, finds the
    least value without sorting the roots out.

    Parameters that ``check_weight_domain`` refuses, and a weight whose
    left plateau exp(mu) or eta is not finite, are refused with ValueError;
    the constants are evaluated with numpy's floating-point warnings off.
    """
    check_weight_domain(params)
    s = params.s_star
    with np.errstate(over="ignore", invalid="ignore"):
        log_weight, ratio = _log_weight(params), _weight_ratio(params)
        mu = float(_log_weight(params, np.longdouble)(-s))
        if not mu <= _LOG_MAX:
            raise ValueError(f"the weight's left plateau exp(mu) must be finite, "
                             f"got mu = {mu:.6g}")
        poly = np.polynomial.Polynomial
        n = poly([-2.0 - params.alpha, 0.0, 2.0])
        q = poly([params.c, 1.0, 0.0, -1.0 / 3.0])
        quartic = n.deriv() * q - n * q.deriv() + n * n
        if not np.all(np.isfinite(quartic.coef)):  # its roots need finite terms
            raise ValueError("the weight's slope bound eta must be finite, but the quartic "
                             "of its critical points has terms past the float range")
        xs = np.clip(quartic.roots().real, -s, s)
        eta = _least_slope(log_weight, ratio, xs)
    if not math.isfinite(eta):
        raise ValueError(f"the weight's slope bound eta must be finite, got {eta:.6g}")
    return FcTable(params=params, mu=mu, eta=eta, critical_points=xs,
                   _log_weight=log_weight, _ratio=ratio)


def _least_slope(log_weight, ratio, xs: Array) -> float:
    """-min f_c' over the points xs of [-s*, s*]."""
    return -float(np.min(ratio(xs) * np.exp(log_weight(xs))))


# eta1's outward step in ulps (sup_constants): ETA_ULPS, or ETA_EDGE_ULPS / q(-1)
# where that is more, q(-1) = c - 2/3 being the weight domain's margin
ETA_ULPS = 64
ETA_EDGE_ULPS = 20
_INF_BITS = struct.unpack("<q", struct.pack("<d", math.inf))[0]


def _ulps_up(x: float, n: int) -> float:
    """x >= 0 stepped n ulps toward +inf at once, as n calls of
    ``math.nextafter`` would step it (inf past the largest double): the
    doubles from +0 up to inf have consecutive bit patterns."""
    bits = struct.unpack("<q", struct.pack("<d", x + 0.0))[0] + n
    return struct.unpack("<d", struct.pack("<q", min(bits, _INF_BITS)))[0]


def sup_constants(table: FcTable, radius: float) -> SupConstants:
    """The sup-constants of ``fhn_field`` with the candidates of
    ``fc_candidate(table)`` over the ball of the given radius, in closed
    form, each times ``SAFETY`` as ``extract_constants`` takes it:

    - a1 = R and b1 = 1, since g1(y) = -y;
    - a2 = R/eps and b2 = 1/eps, since g2(x) = x/eps;
    - eta2 = 0 and theta2 = 1: the second metric is the constant 1/2;
    - theta1 = 2 f_c(-R), since f_c is nonincreasing; for R >= s* it is
      2 exp(mu), the left plateau;
    - eta1 = -min f_c' over [-R, R], taken as ``build_fc`` takes eta: over
      the critical points clipped to [-h, h] and the ends +-h, h = min(R,
      s*), then stepped outward by the larger of ``ETA_ULPS`` and
      ``ETA_EDGE_ULPS`` / (c - 2/3) ulps.  For R >= s* the ends add slope
      0, so before the step it is the table's eta bit for bit.

    The step covers the rounding of f_c' near its least value, which a
    sampled search can find above the critical point's value.  That
    rounding is relative, and it grows as the weight domain's margin
    q(-1) = c - 2/3 (check_weight_domain) shrinks: q = x - x^3/3 + c
    cancels near x = -1, and f_c' divides by q and exponentiates log f_c,
    which holds log q.  A dense scan around the critical point (8 001
    consecutive doubles, and 40 001 points at each of the spacings 5e-8
    and 5e-12) together with the pattern search of ``extract_constants``,
    on 3 600 random sets with c - 2/3 from 1e-5 to 5 and alpha at 0.1 % to
    99 % of 2 r^2 - 2, at radii above and below s*, found |f_c'| at most
    27 ulps above it for c >= 1, and at most 8.4 / (c - 2/3) ulps wherever
    that was more than 64; the step covers every set 1.8 times or more.
    For c >= 1 it is ``ETA_ULPS``.  A step in proportion to mu would not
    do: near the edge the same scan needs over 10 000 mu ulps.
    A constant that is not finite raises ValueError (``SupConstants``)."""
    eps, c = table.params.epsilon, table.params.c
    h = min(radius, table.s_star)
    eta1 = _least_slope(table._log_weight, table._ratio,
                        np.append(np.clip(table.critical_points, -h, h), (-h, h)))
    eta1 = _ulps_up(eta1, max(ETA_ULPS, math.ceil(ETA_EDGE_ULPS / (c - 2.0 / 3.0))))
    return SupConstants(
        radius=radius, a1=radius * SAFETY, a2=radius / eps * SAFETY,
        b1=SAFETY, b2=1.0 / eps * SAFETY, eta1=eta1 * SAFETY, eta2=0.0,
        theta1=2.0 * table.fc(-radius) * SAFETY, theta2=SAFETY,
        provenance=CLOSED_FORM)


def fc_candidate(table: FcTable) -> tuple[FinslerCandidate, FinslerCandidate]:
    """Component candidates: the metric f_c(x), with gradient f_c'(x) and sandwich
    constants 1 and exp(mu), of the excitable block, and 1/2 of the recovery block.
    Their Assumption-2 bounds are |f_c'(x)| and 2 f_c(x), and 0 and 1."""
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


def write_fc_csv(table: FcTable, path) -> None:
    """Export (x, f_c, f_c_prime) rows on 2 048 Chebyshev-spaced nodes of
    [-s*, s*], with a mu/eta/s* header comment."""
    s = table.s_star
    grid = -s * np.cos(np.pi * np.arange(2048) / 2047)
    grid[0], grid[-1] = -s, s
    header = (f"# mu={table.mu!r} eta={table.eta!r} s_star={s!r}\n"
              "x,f_c,f_c_prime\n")
    columns = [grid, *table.fc_pair(grid)]
    atomic_write_text(path, _csv_rows(map(_cells, columns), head=header))
