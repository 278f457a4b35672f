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
    """R^in_dim -> R^out_dim map whose components are polynomial term lists."""

    in_dim: int
    components: tuple[Component, ...]

    def __post_init__(self):
        for comp in self.components:
            for coef, exps in comp:
                if len(exps) != self.in_dim:
                    raise ValueError(
                        f"term {coef} has {len(exps)} exponents, expected {self.in_dim}"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError("exponents must be nonnegative integers")

    @property
    def out_dim(self) -> int:
        return len(self.components)

    def __call__(self, x: Array) -> Array:
        """The map at points x of shape (..., in_dim), as (..., out_dim)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (self.out_dim,))
        for i, comp in enumerate(self.components):
            for coef, exps in comp:
                term = coef
                for j, e in enumerate(exps):
                    if e:
                        term = term * x[..., j] ** e
                out[..., i] += term
        return out

    def jacobian(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        jac = np.zeros((self.out_dim, self.in_dim))
        for i, comp in enumerate(self.components):
            for coef, exps in comp:
                for j, e in enumerate(exps):
                    if e == 0:
                        continue
                    term = coef * e
                    for k, (xv, ek) in enumerate(zip(x, exps)):
                        p = ek - 1 if k == j else ek
                        if p:
                            term *= xv**p
                    jac[i, j] += term
        return jac


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
