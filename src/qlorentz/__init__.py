"""Lorentz-invariant scalars of n-qubit states.

Density matrices conjugated by per-qubit SL(2,C) factors keep the spectrum
of the product of the state with its spin flip. This package computes those
spectral invariants (linear entropy, concurrence, linear n-partite mutual
information), realizes the SL(2,C) -> SO+(1,3) spin homomorphism, and
identifies the singlet correlation function with the Minkowski metric.

The names below are the README's Quick start; everything else is imported
from its module (``qlorentz.linalg``, ``qlorentz.lorentz``, ``qlorentz.states``,
``qlorentz.invariants``, ``qlorentz.correlation``, ``qlorentz.seeding``).
"""

from .errors import ContractError, PositivityError, SizeError
from .lorentz import boost_z, random_sl2c, spin_hom
from .states import apply_local, preset
from .invariants import concurrence, invariant_report
from .correlation import pauli_correlation_table

__version__ = "0.1.0"

__all__ = [
    "ContractError",
    "PositivityError",
    "SizeError",
    "boost_z",
    "random_sl2c",
    "spin_hom",
    "apply_local",
    "preset",
    "concurrence",
    "invariant_report",
    "pauli_correlation_table",
    "__version__",
]
