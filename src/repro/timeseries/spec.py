"""Declarative specifications for multi-day MTD operation (Figs. 10-11).

The paper's Section VII-C experiments simulate *hourly operation*: at each
hour the operator re-solves the no-MTD OPF for the current load, assumes
the attacker's knowledge of the measurement matrix is a few hours stale,
tunes the SPA threshold to the smallest value meeting the effectiveness
target, and pays the resulting cost premium.  An :class:`OperationSpec`
names that whole policy — load profile, horizon, attacker staleness,
threshold-tuning strategy and baseline carryover — as a frozen value
object that embeds into a :class:`~repro.engine.spec.ScenarioSpec` (field
``operation``), so daily-operation runs get the engine/campaign stack for
free: JSON round-trip, content hashing, result caching, process-pool
parallelism over hours, sharded stores and resumable campaigns.

The component specs are deliberately free of engine imports: this module is
a leaf the scenario spec layer builds on.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Mapping

from repro.exceptions import ConfigurationError
from repro.loads.profiles import available_shapes, multi_day_profile

#: Default SPA-threshold tuning grid (radians): 0.05, 0.10, ..., 0.45.
DEFAULT_GAMMA_GRID = tuple(round(0.05 * k, 2) for k in range(1, 10))


@dataclass(frozen=True)
class ProfileSpec:
    """A multi-day hourly load profile, declaratively.

    Attributes
    ----------
    shape:
        Registered day shape (see
        :func:`repro.loads.profiles.available_shapes`) repeated for every
        day when ``days`` is empty.
    n_days:
        Horizon length in days (ignored when ``days`` is given).
    days:
        Optional per-day shape names, e.g.
        ``("winter-weekday",) * 5 + ("winter-weekend",) * 2`` for one week.
    peak_load_mw, min_load_mw:
        Absolute total-load band of the horizon.  Set both to ``None`` for
        per-case normalisation via the fractions below.  Defaults match the
        paper's scaled IEEE 14-bus band (≈143-220 MW).
    peak_fraction, min_fraction:
        Band as fractions of the operated network's nominal total load;
        used only when the absolute band is ``None``.
    hours:
        Optional truncation: operate only the first ``hours`` hours of the
        horizon (quick budgets, tests, CI smoke runs).
    explicit_totals_mw:
        Escape hatch: explicit hourly totals (MW) overriding everything
        above, for operating an arbitrary load trace.
    """

    shape: str = "winter-weekday"
    n_days: int = 1
    days: tuple[str, ...] = ()
    peak_load_mw: float | None = 220.0
    min_load_mw: float | None = 143.0
    peak_fraction: float = 1.0
    min_fraction: float = 0.65
    hours: int | None = None
    explicit_totals_mw: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "days", tuple(str(d) for d in self.days))
        object.__setattr__(
            self, "explicit_totals_mw", tuple(float(v) for v in self.explicit_totals_mw)
        )
        if not self.explicit_totals_mw:
            for name in self.day_names():
                if name not in available_shapes():
                    raise ConfigurationError(
                        f"unknown profile shape {name!r}; "
                        f"available: {', '.join(available_shapes())}"
                    )
        if self.n_days < 1:
            raise ConfigurationError(f"n_days must be at least 1, got {self.n_days}")
        if (self.peak_load_mw is None) != (self.min_load_mw is None):
            raise ConfigurationError(
                "peak_load_mw and min_load_mw must both be set (absolute band) "
                "or both be None (per-case normalisation via the fractions)"
            )
        if self.peak_load_mw is not None:
            if self.peak_load_mw <= 0 or self.min_load_mw <= 0:
                raise ConfigurationError("load levels must be positive")
            if self.min_load_mw >= self.peak_load_mw:
                raise ConfigurationError(
                    f"min_load_mw ({self.min_load_mw}) must be below "
                    f"peak_load_mw ({self.peak_load_mw})"
                )
        else:
            if self.peak_fraction <= 0 or self.min_fraction <= 0:
                raise ConfigurationError("profile fractions must be positive")
            if self.min_fraction >= self.peak_fraction:
                raise ConfigurationError(
                    f"min_fraction ({self.min_fraction}) must be below "
                    f"peak_fraction ({self.peak_fraction})"
                )
        if self.hours is not None and self.hours < 1:
            raise ConfigurationError(f"hours must be at least 1, got {self.hours}")
        if self.n_hours() < 1:
            raise ConfigurationError("the profile must contain at least one hour")

    # ------------------------------------------------------------------
    def day_names(self) -> tuple[str, ...]:
        """The shape name of every day of the horizon, in order."""
        if self.days:
            return self.days
        return (str(self.shape).strip().lower(),) * self.n_days

    def n_hours(self) -> int:
        """Number of operated hours (after any ``hours`` truncation)."""
        if self.explicit_totals_mw:
            total = len(self.explicit_totals_mw)
        else:
            total = 24 * len(self.day_names())
        return total if self.hours is None else min(self.hours, total)

    def totals_mw(self, nominal_total_mw: float | None = None):
        """Hourly total loads (MW) over the horizon.

        ``nominal_total_mw`` is required only for per-case normalisation
        (absolute band unset).
        """
        import numpy as np

        if self.explicit_totals_mw:
            return np.array(self.explicit_totals_mw)[: self.n_hours()]
        if self.peak_load_mw is not None:
            low, high = float(self.min_load_mw), float(self.peak_load_mw)
        else:
            if nominal_total_mw is None or nominal_total_mw <= 0:
                raise ConfigurationError(
                    "per-case profile normalisation needs the network's "
                    "positive nominal total load"
                )
            low = nominal_total_mw * self.min_fraction
            high = nominal_total_mw * self.peak_fraction
        # One owner of the multi-day horizon semantics: loads.profiles.
        return multi_day_profile(
            self.day_names(), peak_load_mw=high, min_load_mw=low
        )[: self.n_hours()]


@dataclass(frozen=True)
class TuningSpec:
    """How the per-hour SPA threshold ``γ_th`` is selected.

    Both methods pick the smallest grid value whose design meets the
    effectiveness target ``η'(delta) ≥ eta_target``, falling back to the
    largest feasible grid value when the target is unreachable:

    * ``"scan"`` — the historical linear sweep: probe every grid value in
      ascending order until the target is met (one full MTD design plus one
      ensemble evaluation per probe).
    * ``"bisect"`` (default) — galloping bracket + bisection over the same
      grid: ``O(log K)`` probes instead of ``O(K)``.  Selects the same grid
      value as the scan whenever the achieved effectiveness is monotone in
      the threshold along the grid (it is for the paper's settings; the
      tests assert scan/bisect agreement on the Fig. 10 configuration).

    Attributes
    ----------
    method:
        ``"bisect"`` or ``"scan"``.
    gamma_grid:
        Ascending candidate thresholds (radians).
    delta:
        Detection-probability level the effectiveness is read at.
    eta_target:
        Required ``η'(delta)``.
    reuse_design_context:
        Share one :class:`~repro.mtd.design.DesignContext` across the
        hour's probes (default), computing the threshold-independent parts
        of the MTD design once per hour.  Reuse is bit-identical to
        recomputing; disabling it exists for benchmarks that time the
        historical per-probe cost.
    """

    method: str = "bisect"
    gamma_grid: tuple[float, ...] = DEFAULT_GAMMA_GRID
    delta: float = 0.9
    eta_target: float = 0.9
    reuse_design_context: bool = True

    def __post_init__(self) -> None:
        if self.method not in ("bisect", "scan"):
            raise ConfigurationError(
                f"tuning method must be 'bisect' or 'scan', got {self.method!r}"
            )
        grid = tuple(float(g) for g in self.gamma_grid)
        object.__setattr__(self, "gamma_grid", grid)
        if not grid:
            raise ConfigurationError("gamma_grid must contain at least one threshold")
        if any(not (0.0 <= g <= math.pi / 2) for g in grid):
            raise ConfigurationError("gamma_grid values must lie in [0, pi/2] radians")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigurationError("gamma_grid must be strictly ascending")
        if not (0.0 < self.delta <= 1.0):
            raise ConfigurationError(f"delta must be in (0, 1], got {self.delta}")
        if not (0.0 < self.eta_target <= 1.0):
            raise ConfigurationError(
                f"eta_target must be in (0, 1], got {self.eta_target}"
            )


@dataclass(frozen=True)
class OperationSpec:
    """The time-series operation policy of a scenario.

    Embedded in a :class:`~repro.engine.spec.ScenarioSpec` (field
    ``operation``), it turns the scenario into a multi-day hourly-operation
    experiment: trial ``t`` of the scenario is hour ``t`` of the horizon.
    The grid case, attack ensemble, detector and MTD design method come
    from the containing scenario spec; this component adds what is specific
    to operating over time.

    Attributes
    ----------
    profile:
        The load horizon (see :class:`ProfileSpec`).
    tuning:
        Per-hour SPA-threshold selection (see :class:`TuningSpec`).
    staleness_hours:
        How old the attacker's knowledge of the measurement matrix is; the
        paper uses one hour.  The first ``staleness_hours`` hours wrap
        around to the matching hour of the previous (assumed identical)
        day, i.e. the end of the horizon.
    carryover_tolerance:
        Reactance-OPF baselines keep the previous hour's D-FACTS settings
        unless re-optimising saves more than this relative amount (operator
        practice; what keeps consecutive no-MTD matrices nearly identical,
        as observed in Fig. 11).
    """

    profile: ProfileSpec = field(default_factory=ProfileSpec)
    tuning: TuningSpec = field(default_factory=TuningSpec)
    staleness_hours: int = 1
    carryover_tolerance: float = 5e-3

    def __post_init__(self) -> None:
        if self.staleness_hours < 1:
            raise ConfigurationError(
                f"staleness_hours must be at least 1, got {self.staleness_hours}"
            )
        if self.carryover_tolerance < 0:
            raise ConfigurationError(
                f"carryover_tolerance must be non-negative, got {self.carryover_tolerance}"
            )

    # ------------------------------------------------------------------
    def n_hours(self) -> int:
        """Horizon length in hours; the containing scenario's trial count."""
        return self.profile.n_hours()

    def to_dict(self) -> dict[str, Any]:
        """Plain-data representation (tuples become lists, JSON-safe)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OperationSpec":
        """Rebuild an operation spec from :meth:`to_dict` output."""
        if isinstance(data, OperationSpec):
            return data
        payload = dict(data)
        for name, component in (("profile", ProfileSpec), ("tuning", TuningSpec)):
            value = payload.get(name)
            if value is not None and not isinstance(value, component):
                known = {f.name for f in fields(component)}
                unknown = set(value) - known
                if unknown:
                    raise ConfigurationError(
                        f"unknown {component.__name__} fields: {sorted(unknown)}"
                    )
                payload[name] = component(**value)
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(f"unknown OperationSpec fields: {sorted(unknown)}")
        return cls(**payload)

    def content_hash(self) -> str:
        """SHA-256 over the operation policy (standalone identity).

        The containing scenario spec's content hash already covers this
        component; the standalone hash exists for callers that cache or
        compare operation policies directly.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


__all__ = [
    "DEFAULT_GAMMA_GRID",
    "ProfileSpec",
    "TuningSpec",
    "OperationSpec",
]
