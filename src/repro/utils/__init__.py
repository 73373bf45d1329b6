"""Shared utilities used across the :mod:`repro` library.

The helpers here are intentionally small and dependency free (beyond numpy /
scipy) so that every other subpackage can import them without creating
circular dependencies.
"""

from repro.utils.rng import as_generator
from repro.utils.linalg import orthonormal_basis, is_full_column_rank
from repro.utils.units import DEFAULT_BASE_MVA

__all__ = [
    "as_generator",
    "orthonormal_basis",
    "is_full_column_rank",
    "DEFAULT_BASE_MVA",
]
