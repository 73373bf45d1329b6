"""Environment diagnostics stamped into run reports.

Stored campaign results are only attributable if the environment that
produced them is on record: interpreter and library versions, the machine
shape, and the performance-relevant configuration (the sparse-backend
threshold, the BLAS builds numpy and scipy link and the thread-count
variables those read).  :func:`environment_info` collects all of it as a
flat, JSON-safe dict; the orchestrator stamps it into every
``telemetry.json`` and store manifest, and ``repro telemetry env`` prints
it.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Any

#: Environment variables that set the BLAS thread count, stamped as set
#: (or ``None``).  They take effect only if set before numpy loads.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment_info() -> dict[str, Any]:
    """A flat, JSON-safe description of the executing environment."""
    info: dict[str, Any] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "executable": sys.executable,
    }
    try:
        from repro import __version__

        info["repro"] = __version__
    except Exception:  # pragma: no cover - partial installs
        info["repro"] = None
    for module_name in ("numpy", "scipy"):
        try:
            module = __import__(module_name)
        except ImportError:  # pragma: no cover - baked into the image
            info[module_name] = info[f"{module_name}_blas"] = None
            continue
        info[module_name] = getattr(module, "__version__", None)
        # numpy and scipy may each link their own BLAS build, and the
        # thread count it runs at can move operated results.
        try:
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            info[f"{module_name}_blas"] = f"{blas['name']} {blas['version']}"
        except Exception:  # pragma: no cover - builds without the dict config
            info[f"{module_name}_blas"] = None
    for variable in _BLAS_THREAD_VARIABLES:
        info[variable] = os.environ.get(variable)
    try:
        from repro.grid.matrices import SPARSE_BUS_THRESHOLD

        info["sparse_bus_threshold"] = int(SPARSE_BUS_THRESHOLD)
    except Exception:  # pragma: no cover - partial installs
        info["sparse_bus_threshold"] = None
    try:
        from repro.estimation.backends import available_backends

        info["factorization_backends"] = ",".join(available_backends())
    except Exception:  # pragma: no cover - partial installs
        info["factorization_backends"] = None
    return info


def format_environment(info: dict[str, Any] | None = None) -> str:
    """Human-readable rendering of :func:`environment_info`."""
    info = environment_info() if info is None else info
    width = max(len(key) for key in info) if info else 0
    return "\n".join(f"{key:<{width}}  {info[key]}" for key in sorted(info))


__all__ = ["environment_info", "format_environment"]
