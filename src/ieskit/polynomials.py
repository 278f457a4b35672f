"""Multivariate polynomial maps given as coefficient/exponent term lists.

This is the desk-scale system format of the command line: each output
component is a list of terms ``(coefficient, exponents)``, and Jacobians are
formed analytically by exponent bookkeeping.  Every monomial table, the
value and Jacobian tables of a map and the whole-state table of a polynomial
interconnection, is evaluated by ``_Monomials``: one power per distinct
(coordinate, exponent >= 2) entry and a product of the other factors, bitwise
``np.prod(x[..., None, :] ** table, axis=-1)``.  That rests on one condition:
numpy's general power loop must see the exponents with a non-zero stride,
because an exponent broadcast across rows (stride 0) is squared as v*v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ieskit.dynsys import CouplingMap, Interconnection, TimeVaryingField

Array = np.ndarray

Term = tuple[float, tuple[int, ...]]
Component = tuple[Term, ...]


class _Monomials:
    """x -> np.prod(x[..., None, :] ** table, axis=-1) of one (M, d) exponent
    table, bit for bit, as (..., M).

    numpy's general power loop gives exactly 1.0 for exponent 0 and exactly
    v for exponent 1 (also for v NaN or inf), and multiplying by 1.0 is
    exact, so a monomial is the product of its factors of exponent 1 and up,
    taken in coordinate order by ``multiply.reduce`` as in the expression
    (which also keeps the sign of a NaN product as the expression's).  Each
    distinct (coordinate, exponent >= 2) entry is raised once, from an
    exponent array of the batch's own shape: an exponent that reaches the
    loop with stride 0 (a vector broadcast across rows) is squared as v*v,
    which rounds otherwise on about 3% of points.  A table of one entry
    keeps the expression, since numpy raises it through that fast path too."""

    def __init__(self, table: Array):
        table = np.asarray(table, dtype=int)
        self.lone = table if table.size == 1 else None
        self.dim = d = table.shape[1]
        powers = sorted({(j, e) for row in table.tolist() for j, e in enumerate(row) if e >= 2})
        self.coords = np.array([j for j, _ in powers], dtype=np.intp)
        self.exps = np.array([e for _, e in powers], dtype=float)
        # each factor is a column of the bank (x, the powers, 1.0); rows with
        # fewer factors than the widest are padded with the 1.0 column
        column = {p: d + k for k, p in enumerate(powers)}
        factors = [[j if e == 1 else column[j, e] for j, e in enumerate(row) if e]
                   for row in table.tolist()]
        width = max([1] + [len(f) for f in factors])
        self.factors = np.array([f + [d + len(powers)] * (width - len(f)) for f in factors],
                                dtype=np.intp).reshape(len(factors), width)

    def __call__(self, x: Array) -> Array:
        if self.lone is not None:
            return np.prod(x[..., None, :] ** self.lone, axis=-1)
        d = self.dim
        bank = np.empty(x.shape[:-1] + (d + len(self.exps) + 1,))
        bank[..., :d] = x
        bank[..., -1] = 1.0
        base = x.take(self.coords, -1)
        exps = np.empty(base.shape)
        exps[...] = self.exps
        np.power(base, exps, out=bank[..., d:-1])
        return np.prod(bank.take(self.factors, -1), axis=-1)


@dataclass(frozen=True)
class PolynomialMap:
    """R^in_dim -> R^out_dim map whose components are polynomial term lists.

    All terms share one exponent matrix ``exponents``, a row per term, and the
    matrix ``coefficients`` sums the term monomials into the output components."""

    in_dim: int
    components: tuple[Component, ...]

    def __post_init__(self):
        terms = [(i, coef, exps) for i, comp in enumerate(self.components)
                 for coef, exps in comp]
        for _, coef, exps in terms:
            if len(exps) != self.in_dim:
                raise ValueError(
                    f"term {coef} has {len(exps)} exponents, expected {self.in_dim}"
                )
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be nonnegative integers")
            if not all(float(e).is_integer() for e in exps):
                raise ValueError(f"term {(coef, exps)} has a non-integer exponent")
        coefficients = np.zeros((self.out_dim, len(terms)))
        for k, (i, coef, _) in enumerate(terms):
            coefficients[i, k] = coef
        object.__setattr__(self, "coefficients", coefficients)
        exponents = np.array([exps for *_, exps in terms], dtype=int).reshape(
            len(terms), self.in_dim)
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "_monomials", _Monomials(exponents))
        # d/dx_j of x^e is e_j x^(e - e_j); row j of ``lowered`` holds e - e_j
        # (clipped at 0 where e_j = 0 and the factor e_j vanishes anyway)
        lowered = np.maximum(exponents - np.eye(self.in_dim, dtype=int)[:, None, :], 0)
        object.__setattr__(self, "_lowered", _Monomials(
            lowered.reshape(self.in_dim * len(terms), self.in_dim)))

    @property
    def out_dim(self) -> int:
        return len(self.components)

    def __call__(self, x: Array) -> Array:
        """The map at points x of shape (..., in_dim), as (..., out_dim)."""
        x = np.asarray(x, dtype=float)
        return self._monomials(x) @ self.coefficients.T

    def jacobian(self, x: Array) -> Array:
        """The Jacobian at points x of shape (..., in_dim), as (..., out_dim, in_dim)."""
        x = np.asarray(x, dtype=float)
        monomials = self._lowered(x).reshape(x.shape[:-1] + (self.in_dim, len(self.exponents)))
        return self.coefficients @ np.swapaxes(self.exponents.T * monomials, -1, -2)


def parse_polynomial_component(text: str, in_dim: int) -> Component:
    """Parse 'coef e1 .. ed; coef e1 .. ed; ...' into a term list."""
    terms: list[Term] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split()
        if len(parts) != in_dim + 1:
            raise ValueError(
                f"term {chunk!r} needs a coefficient and {in_dim} exponents"
            )
        coef = float(parts[0])
        if not math.isfinite(coef):
            raise ValueError(f"term {chunk!r} has a coefficient that is not finite")
        exps = tuple(int(p) for p in parts[1:])
        if any(e < 0 for e in exps):
            raise ValueError(f"term {chunk!r} has a negative exponent")
        terms.append((coef, exps))
    return tuple(terms)


def polynomial_field(components: tuple[Component, ...]) -> TimeVaryingField:
    """Autonomous polynomial field; the number of components fixes the dimension."""
    return _field(PolynomialMap(in_dim=len(components), components=components))


def _field(pmap: PolynomialMap) -> TimeVaryingField:
    return TimeVaryingField(
        dim=pmap.out_dim,
        rhs=lambda t, z: pmap(z),
        jacobian=lambda t, z: pmap.jacobian(z),
        autonomous=True,
    )


def _coupling(pmap: PolynomialMap) -> CouplingMap:
    return CouplingMap(
        in_dim=pmap.in_dim,
        out_dim=pmap.out_dim,
        value=pmap.__call__,
        jacobian=pmap.jacobian,
    )


def polynomial_interconnection(
    f1: tuple[Component, ...],
    f2: tuple[Component, ...],
    g1: tuple[Component, ...],
    g2: tuple[Component, ...],
    rho1: float = 0.0,
    rho2: float = 0.0,
) -> Interconnection:
    """The interconnection of polynomial blocks: f1 with n components in x,
    f2 with m components in y, the coupling g1 in y and g2 in x.

    It carries a whole-state rhs (``joint_rhs``), which ``assemble`` uses.
    The four blocks' exponent rows, lifted into the whole state (x, y), are
    kept once each in one monomial table, which one ``_Monomials`` evaluates
    per call (one power per distinct coordinate and exponent >= 2, from an
    exponent array with a non-zero stride); each block then sums its own
    columns as the block form does.  The derivatives are bitwise the block
    form's: a lifted row only adds factors of exponent 0, which are exactly
    1.0, also for v NaN or inf.  A block of one term in one variable keeps
    its own map, because numpy raises to a lone exponent through a scalar
    fast path (v**2 is v*v) that can round otherwise than its general power
    loop."""
    n, m = len(f1), len(f2)
    maps = (PolynomialMap(n, f1), PolynomialMap(m, g1),
            PolynomialMap(m, f2), PolynomialMap(n, g2))
    return Interconnection(
        f1=_field(maps[0]), f2=_field(maps[2]),
        g1=_coupling(maps[1]), g2=_coupling(maps[3]),
        rho1=rho1, rho2=rho2, joint_rhs=_joint_rhs(n, m, maps),
    )


def _joint_rhs(n: int, m: int, maps: tuple[PolynomialMap, ...]):
    """rho1, rho2 -> the rhs on whole states (..., n + m) of the blocks
    ``maps`` = (f1, g1, f2, g2)."""
    inputs = (slice(0, n), slice(n, n + m), slice(n, n + m), slice(0, n))
    tabled = [k for k, pmap in enumerate(maps) if pmap.exponents.size != 1]
    lifted = []
    for k in tabled:
        rows = np.zeros((len(maps[k].exponents), n + m), dtype=int)
        rows[:, inputs[k]] = maps[k].exponents
        lifted.append(rows)
    table, inverse = np.unique(np.concatenate(lifted or [np.zeros((0, n + m), int)]),
                               axis=0, return_inverse=True)
    monomials = _Monomials(table)
    columns = dict(zip(tabled, np.split(inverse.ravel(),
                                        np.cumsum([len(r) for r in lifted])[:-1])))

    def block(k: int):
        """(monomial table values, z) -> the value of block k."""
        pmap = maps[k]
        if k not in columns:
            return lambda mono, z: pmap(z[..., inputs[k]])
        cols, coeffs = columns[k], pmap.coefficients.T
        # take, unlike mono[..., cols], gives the block's monomials in C
        # order, the layout whose matmul sums as the block form's does
        return lambda mono, z: mono.take(cols, -1) @ coeffs

    f1, g1, f2, g2 = (block(k) for k in range(4))

    def joint(rho1, rho2):
        def rhs(t: float, z: Array) -> Array:
            mono = monomials(z)
            out = np.empty(z.shape)
            out[..., :n] = f1(mono, z) + rho1 * g1(mono, z)
            out[..., n:] = f2(mono, z) + rho2 * g2(mono, z)
            return out

        return rhs

    return joint
