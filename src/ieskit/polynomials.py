"""Multivariate polynomial maps given as coefficient/exponent term lists.

This is the desk-scale system format of the command line: each output
component is a list of terms ``(coefficient, exponents)``, and Jacobians are
formed analytically by exponent bookkeeping.  A polynomial interconnection
evaluates the monomials of all four blocks from one table on the whole state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ieskit.dynsys import CouplingMap, Interconnection, TimeVaryingField

Array = np.ndarray

Term = tuple[float, tuple[int, ...]]
Component = tuple[Term, ...]


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
        coefficients = np.zeros((self.out_dim, len(terms)))
        for k, (i, coef, _) in enumerate(terms):
            coefficients[i, k] = coef
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "exponents", np.array(
            [exps for *_, exps in terms], dtype=int).reshape(len(terms), self.in_dim))

    @property
    def out_dim(self) -> int:
        return len(self.components)

    def __call__(self, x: Array) -> Array:
        """The map at points x of shape (..., in_dim), as (..., out_dim)."""
        x = np.asarray(x, dtype=float)
        monomials = np.prod(x[..., None, :] ** self.exponents, axis=-1)
        return monomials @ self.coefficients.T

    def jacobian(self, x: Array) -> Array:
        """The Jacobian at points x of shape (..., in_dim), as (..., out_dim, in_dim)."""
        x = np.asarray(x, dtype=float)
        # d/dx_j of x^e is e_j x^(e - e_j); row j of ``lowered`` holds e - e_j
        # (clipped at 0 where e_j = 0 and the factor e_j vanishes anyway)
        lowered = np.maximum(self.exponents - np.eye(self.in_dim, dtype=int)[:, None, :], 0)
        monomials = np.prod(x[..., None, None, :] ** lowered, axis=-1)
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
    kept once each in one monomial table, so a call makes one power and one
    product over the table; each block then sums its own columns as the
    block form does.  The derivatives are bitwise the block form's: a lifted
    row only adds factors v**0 = 1, also for v NaN or inf.  A block of one
    term in one variable keeps its own power, because numpy raises to a
    lone exponent through a scalar fast path (v**2 is v*v) that can round
    otherwise than its general power loop."""
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
            mono = np.prod(z[..., None, :] ** table, axis=-1)
            out = np.empty(z.shape)
            out[..., :n] = f1(mono, z) + rho1 * g1(mono, z)
            out[..., n:] = f2(mono, z) + rho2 * g2(mono, z)
            return out

        return rhs

    return joint
