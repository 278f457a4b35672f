"""Multivariate polynomial maps given as coefficient/exponent term lists.

This is the desk-scale system format of the command line: each output
component is a list of terms ``(coefficient, exponents)``, and Jacobians are
formed analytically by exponent bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ieskit.dynsys import CouplingMap, TimeVaryingField

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
    pmap = PolynomialMap(in_dim=len(components), components=components)
    return TimeVaryingField(
        dim=pmap.out_dim,
        rhs=lambda t, z: pmap(z),
        jacobian=lambda t, z: pmap.jacobian(z),
    )


def polynomial_coupling(in_dim: int, components: tuple[Component, ...]) -> CouplingMap:
    pmap = PolynomialMap(in_dim=in_dim, components=components)
    return CouplingMap(
        in_dim=in_dim,
        out_dim=pmap.out_dim,
        value=pmap.__call__,
        jacobian=pmap.jacobian,
    )
