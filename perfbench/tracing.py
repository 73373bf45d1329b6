"""Per-layer self times recorded from the benchmark's side of the program boundary.

:class:`Tracer` wraps the entry points of each library layer (grid/H
assembly, OPF, SPA kernel, attack ensembles, factorization, BDD
evaluation) with a timing span, without changing the library: module-level
functions are replaced wherever a ``repro`` module holds a reference to
them, methods are replaced on their class, and :meth:`Tracer.uninstall`
puts every original back.

A layer's *self time* is its span's duration minus the time its child
spans cover, so the self times of one unit of work add up to the unit's
wall time; the ``engine`` pseudo-layer is the unit's own span, i.e. the
glue between layers.  Entry points that a later version of the library no
longer has are skipped, and their layer then reads zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable

#: Layer name → ``(module, attribute path)`` entry points.  Nested calls
#: within one layer (``reduced_measurement_matrix`` → ``measurement_matrix``)
#: count as a single entry into it.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "grid": (
        ("repro.grid.matrices", "measurement_matrix"),
        ("repro.grid.matrices", "measurement_matrix_sparse"),
        ("repro.grid.matrices", "reduced_measurement_matrix"),
        ("repro.grid.matrices", "reduced_measurement_matrix_sparse"),
    ),
    "opf": (
        ("repro.opf.dc_opf", "solve_dc_opf"),
        ("repro.opf.reactance_opf", "solve_reactance_opf"),
    ),
    "spa": (
        ("repro.mtd.subspace", "subspace_angle"),
        ("repro.mtd.subspace", "largest_principal_angle"),
        ("repro.mtd.subspace", "smallest_principal_angle"),
        ("repro.mtd.subspace", "principal_angles"),
    ),
    "attacks": (("repro.attacks.generator", "generate_attack_ensemble"),),
    "factorize": (("repro.estimation.linear_model", "LinearModel.__init__"),),
    "bdd": (
        ("repro.estimation.bdd", "BadDataDetector.detection_probabilities"),
        ("repro.estimation.bdd", "BadDataDetector.detection_probabilities_monte_carlo"),
        ("repro.estimation.bdd", "BadDataDetector.empirical_false_positive_rate"),
    ),
}

#: The span wrapped around each whole unit of work by the benchmark.
UNIT_LAYER = "engine"


class _Frame:
    __slots__ = ("layer", "child_s")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.child_s = 0.0


class Tracer:
    """Per-phase, per-layer self times and entry counts."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[_Frame] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer entry point that the library still has."""
        for layer, targets in LAYERS.items():
            for module_name, path in targets:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    continue
                wrapped = self._wrap(layer, original)
                if owner_name:
                    self._patch(owner, attr, original, wrapped)
                else:
                    # Functions are imported by name across the package, so
                    # every module-level reference is redirected.
                    for name, loaded in list(sys.modules.items()):
                        if loaded is None or not name.startswith("repro"):
                            continue
                        for key, value in list(vars(loaded).items()):
                            if value is original:
                                self._patch(loaded, key, original, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner: Any, attr: str, original: Any, wrapped: Any) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    # ------------------------------------------------------------------
    def _wrap(self, layer: str, function: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.run_span(layer, function, *args, **kwargs)

        return traced

    def run_span(self, layer: str, function: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call ``function`` inside a span of ``layer``."""
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None and parent.layer == layer:
            # Same-layer nesting is one entry: the outer span covers it.
            return function(*args, **kwargs)
        frame = _Frame(layer)
        stack.append(frame)
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            key = (self.phase, layer)
            self.self_s[key] += duration - frame.child_s
            self.calls[key] += 1
            if parent is not None:
                parent.child_s += duration

    def run_unit(self, phase: str, function: Callable[..., Any], *args: Any) -> Any:
        """Run one unit of work of ``phase`` under the root ``engine`` span."""
        self.phase = phase
        return self.run_span(UNIT_LAYER, function, *args)
