"""Per-unit conventions.

The library stores network quantities internally in the per-unit (p.u.)
system on a common MVA base, mirroring MATPOWER.  User-facing case data and
reported results use engineering units (MW, $/MWh) as in the paper's tables.
"""

from __future__ import annotations

#: Default system base power, in MVA, matching MATPOWER's convention.
DEFAULT_BASE_MVA: float = 100.0


__all__ = [
    "DEFAULT_BASE_MVA",
]
