"""Numerical toolkit for incremental exponential stability of interconnections.

Integrates nonlinear systems together with their displacement dynamics,
evaluates Finsler Lyapunov candidates on sampled sets, computes admissible
coupling-gain budgets, locates compact forward-invariant sublevel sets, fits
empirical contraction envelopes, and reproduces the FitzHugh-Nagumo case
study end to end.
"""

__version__ = "0.1.0"

from ieskit.dynsys import (
    CouplingMap,
    IntegratorConfig,
    Interconnection,
    TimeVaryingField,
    Trajectory,
    assemble,
    flow_difference,
    flow_differences,
    integrate,
    integrate_with_displacement,
)
from ieskit.finsler import FinslerCandidate, check_decay, check_sandwich, compose

__all__ = [
    "CouplingMap",
    "FinslerCandidate",
    "IntegratorConfig",
    "Interconnection",
    "TimeVaryingField",
    "Trajectory",
    "assemble",
    "check_decay",
    "check_sandwich",
    "compose",
    "flow_difference",
    "flow_differences",
    "integrate",
    "integrate_with_displacement",
    "__version__",
]
