"""Declarative scenario specifications.

A :class:`ScenarioSpec` names everything a Monte-Carlo experiment of the
paper depends on — grid case, operating baseline, attack model, MTD policy,
detector configuration and trial budget — as a frozen, hashable value
object.  Specs round-trip losslessly through ``dict``/JSON, and expose a
stable content hash (:meth:`ScenarioSpec.content_hash`) that identifies the
*result* of running them: two specs with the same hash produce bit-identical
trial outcomes, which is what the on-disk cache keys on.

Labelling fields (``name``, ``description``, ``tags``) are excluded from the
hash so that renaming a scenario does not invalidate cached results.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from typing import Any, Mapping, Sequence

from repro.exceptions import ConfigurationError
from repro.timeseries.spec import OperationSpec

#: Bumped whenever the trial semantics change in a way that invalidates
#: previously cached results (the version participates in the content hash).
#: Version 2: detection probabilities are evaluated with vectorised BLAS
#: kernels, which shifts results by floating-point rounding relative to the
#: version-1 per-attack loops.
SPEC_SCHEMA_VERSION = 2

#: Spec fields that label a scenario without affecting its outcome.
_LABEL_FIELDS = ("name", "description", "tags")

#: Keys of payloads stored by earlier versions (result caches, campaign
#: manifests and records) naming retired execution hints.  Neither entered
#: the content hash or a result, so they are dropped on load.
_RETIRED_KEYS = ("batch_size", "backend")


def _freeze(value: Any) -> Any:
    """Recursively convert lists to tuples so spec fields stay hashable."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
    return value


@dataclass(frozen=True)
class GridSpec:
    """Which network a scenario runs on and how it is dispatched.

    Attributes
    ----------
    case:
        Name in the case registry (:func:`repro.grid.cases.load_case`),
        e.g. ``"ieee14"`` or ``"synthetic57"`` — or a file-referenced
        MATPOWER case: names ending in ``.m`` resolve to an existing path
        or a bundled case file (``"case30.m"``), loaded through
        :mod:`repro.grid.matpower`, so any standard test case can back a
        scenario.  Note the content hash covers the case *name*, not the
        file bytes: after editing a referenced ``.m`` file, use a new file
        name (or clear the cache/store) so stale results are not replayed,
        and prefer absolute paths when campaigns may resume from another
        working directory.
    case_kwargs:
        Extra keyword arguments for the case factory, stored as a sorted
        tuple of ``(key, value)`` pairs so the spec stays hashable.
    load_scale:
        Multiplier applied to every nominal bus load (1.0 = nominal); used
        by the daily-operation scenarios to sweep the load profile.
    baseline:
        Operating-point solver: ``"dc-opf"`` (dispatch-only OPF) or
        ``"reactance-opf"`` (joint dispatch + D-FACTS OPF of paper eq. (1)).
    """

    case: str = "ieee14"
    case_kwargs: tuple[tuple[str, Any], ...] = ()
    load_scale: float = 1.0
    baseline: str = "dc-opf"

    def __post_init__(self) -> None:
        if self.baseline not in ("dc-opf", "reactance-opf"):
            raise ConfigurationError(
                f"baseline must be 'dc-opf' or 'reactance-opf', got {self.baseline!r}"
            )
        if self.load_scale <= 0:
            raise ConfigurationError(f"load_scale must be positive, got {self.load_scale}")
        object.__setattr__(self, "case_kwargs", _freeze(self.case_kwargs))

    def kwargs(self) -> dict[str, Any]:
        """The case factory keyword arguments as a plain dict."""
        return {k: v for k, v in self.case_kwargs}


@dataclass(frozen=True)
class AttackSpec:
    """The attacker model: a random stealthy-FDI ensemble.

    Attributes
    ----------
    n_attacks:
        Ensemble size (the paper uses 1000).
    ratio:
        Attack magnitude ``‖a‖₁/‖z‖₁`` (the paper uses ≈0.08).
    seed:
        Ensemble seed.  An integer pins the *same* ensemble for every trial
        (the paper's setup: trials vary the defense, not the attacks);
        ``None`` draws a fresh ensemble from each trial's private stream so
        the Monte-Carlo average is also over attack draws.
    """

    n_attacks: int = 200
    ratio: float = 0.08
    seed: int | None = 1

    def __post_init__(self) -> None:
        if self.n_attacks <= 0:
            raise ConfigurationError(f"n_attacks must be positive, got {self.n_attacks}")
        if self.ratio <= 0:
            raise ConfigurationError(f"ratio must be positive, got {self.ratio}")


@dataclass(frozen=True)
class DetectorSpec:
    """Measurement-noise and bad-data-detector configuration.

    Attributes
    ----------
    noise_sigma:
        Measurement noise standard deviation (p.u.).
    false_positive_rate:
        BDD false-positive rate ``α``.
    method:
        How per-attack detection probabilities are computed:
        ``"analytic"`` (noncentral-χ², fast) or ``"monte-carlo"`` (the
        paper's procedure — ``n_noise_trials`` noisy measurement draws per
        attack, drawn from the trial's private noise stream).
    n_noise_trials:
        Noise draws per attack for the Monte-Carlo method.
    """

    noise_sigma: float = 0.0015
    false_positive_rate: float = 5e-4
    method: str = "analytic"
    n_noise_trials: int = 1000

    def __post_init__(self) -> None:
        if self.noise_sigma <= 0:
            raise ConfigurationError(f"noise_sigma must be positive, got {self.noise_sigma}")
        if not (0.0 < self.false_positive_rate < 1.0):
            raise ConfigurationError(
                f"false_positive_rate must be in (0, 1), got {self.false_positive_rate}"
            )
        if self.method not in ("analytic", "monte-carlo"):
            raise ConfigurationError(
                f"method must be 'analytic' or 'monte-carlo', got {self.method!r}"
            )
        if self.n_noise_trials <= 0:
            raise ConfigurationError(
                f"n_noise_trials must be positive, got {self.n_noise_trials}"
            )


@dataclass(frozen=True)
class MTDSpec:
    """The defender's moving-target policy.

    Attributes
    ----------
    policy:
        ``"designed"`` — the paper's SPA-constrained design (eq. (4));
        ``"random"`` — the prior-work baseline drawing a random perturbation
        per trial; ``"none"`` — no perturbation (control).
    gamma_threshold:
        SPA target ``γ_th`` in radians for the designed policy.
    design_method:
        ``"joint"``, ``"two-stage"`` or ``"max-spa"``
        (see :func:`repro.mtd.design.design_mtd_perturbation`).
    max_relative_change:
        Per-line relative reactance bound of the random policy (paper: 0.02).
    perturb_all_dfacts:
        Random policy: perturb every D-FACTS line (paper setup) or a random
        non-empty subset per trial.
    include_cost:
        Also solve the post-perturbation OPF and record the MTD cost premium
        per trial (adds one OPF solve per trial).
    on_infeasible:
        What the designed policy does when the D-FACTS range cannot reach
        ``gamma_threshold``: ``"saturate"`` (default) falls back to the
        maximum-SPA perturbation — the natural endpoint of the paper's
        γ_th sweeps — while ``"raise"`` propagates the design error.
    """

    policy: str = "designed"
    gamma_threshold: float | None = 0.25
    design_method: str = "two-stage"
    max_relative_change: float = 0.02
    perturb_all_dfacts: bool = True
    include_cost: bool = False
    on_infeasible: str = "saturate"

    def __post_init__(self) -> None:
        if self.policy not in ("designed", "random", "none"):
            raise ConfigurationError(
                f"policy must be 'designed', 'random' or 'none', got {self.policy!r}"
            )
        if self.policy == "designed":
            if self.gamma_threshold is None:
                raise ConfigurationError("the designed policy requires gamma_threshold")
            if not (0.0 <= self.gamma_threshold <= math.pi / 2):
                raise ConfigurationError(
                    "gamma_threshold must lie in [0, pi/2] radians, "
                    f"got {self.gamma_threshold}"
                )
        if self.design_method not in ("joint", "two-stage", "max-spa"):
            raise ConfigurationError(
                "design_method must be 'joint', 'two-stage' or 'max-spa', "
                f"got {self.design_method!r}"
            )
        if self.on_infeasible not in ("saturate", "raise"):
            raise ConfigurationError(
                f"on_infeasible must be 'saturate' or 'raise', got {self.on_infeasible!r}"
            )
        if self.max_relative_change <= 0:
            raise ConfigurationError(
                f"max_relative_change must be positive, got {self.max_relative_change}"
            )


@dataclass(frozen=True)
class ContingencySpec:
    """An N-k contingency applied to the scenario's network.

    Outage lists are first-class sweep dimensions: ``expand_grid(base,
    {"contingency.branch_outages": [(0,), (1,), ...]})`` fans a base
    scenario out into one spec per contingency, each content-hashed like
    every other spec, so campaigns cache/resume per outage.

    Attributes
    ----------
    branch_outages:
        Branch indices taken out of service (sorted, deduplicated).  The
        branches keep their slots in the network — measurement dimensions
        and indexing are contingency-invariant — and an outage set that
        islands the grid is rejected at trial setup with
        :class:`~repro.exceptions.IslandingError` naming the branches.
    generator_outages:
        Generator indices taken out of service (dispatch range pinned to
        ``[0, 0]``; the unit keeps its slot).
    outage:
        Derived scalar label, e.g. ``"none"``, ``"b5"`` or ``"b3+g1"`` —
        the stable key for ``--group-by contingency.outage`` queries
        (group-by requires scalar leaves, not lists).  Not an input: it is
        recomputed from the outage lists.
    """

    branch_outages: tuple[int, ...] = ()
    generator_outages: tuple[int, ...] = ()
    outage: str = field(init=False, default="none")

    def __post_init__(self) -> None:
        branches = tuple(sorted({int(b) for b in _freeze(self.branch_outages)}))
        generators = tuple(sorted({int(g) for g in _freeze(self.generator_outages)}))
        if any(b < 0 for b in branches):
            raise ConfigurationError(
                f"branch_outages must be non-negative, got {list(branches)}"
            )
        if any(g < 0 for g in generators):
            raise ConfigurationError(
                f"generator_outages must be non-negative, got {list(generators)}"
            )
        object.__setattr__(self, "branch_outages", branches)
        object.__setattr__(self, "generator_outages", generators)
        label = "+".join(
            [f"b{k}" for k in branches] + [f"g{k}" for k in generators]
        )
        object.__setattr__(self, "outage", label or "none")

    @property
    def is_noop(self) -> bool:
        """Whether this contingency leaves the network unchanged."""
        return not self.branch_outages and not self.generator_outages


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, self-describing Monte-Carlo experiment.

    The spec is the unit of work of the scenario engine: expanding it yields
    ``n_trials`` independent trials whose random streams are spawned from
    ``base_seed``, so results do not depend on execution order or worker
    count.

    Attributes
    ----------
    name:
        Human-readable label (excluded from the content hash).
    grid, attack, detector, mtd:
        The component specifications.
    operation:
        Optional :class:`~repro.timeseries.spec.OperationSpec` turning the
        scenario into a time-series operation experiment (Figs. 10-11):
        trial ``t`` becomes hour ``t`` of the operated horizon, executed by
        :mod:`repro.timeseries.engine`.  When set, ``n_trials`` is pinned
        to the horizon length, the MTD policy must be ``"designed"`` (the
        per-hour tuning loop supersedes ``mtd.gamma_threshold``) and the
        detector method must be ``"analytic"``.
    contingency:
        Optional :class:`ContingencySpec` running the whole experiment on
        the post-contingency network: the listed outages are applied to
        the grid before the operating point, the attack ensemble and the
        detector are built.  Contingency trials additionally record the
        post-contingency BDD empirical false-alarm rate
        (``bdd_false_alarm_rate``).  Mutually exclusive with ``operation``.
    n_trials:
        Number of Monte-Carlo trials.
    base_seed:
        Root of the per-trial seed tree.
    deltas:
        Detection-probability thresholds at which ``η'(δ)`` is recorded.
    metric:
        The headline per-trial metric, e.g. ``"eta(0.9)"`` or ``"spa"``.
    description, tags:
        Free-form labels (excluded from the content hash).
    """

    name: str
    grid: GridSpec = field(default_factory=GridSpec)
    attack: AttackSpec = field(default_factory=AttackSpec)
    detector: DetectorSpec = field(default_factory=DetectorSpec)
    mtd: MTDSpec = field(default_factory=MTDSpec)
    operation: OperationSpec | None = None
    contingency: ContingencySpec | None = None
    n_trials: int = 1
    base_seed: int = 0
    deltas: tuple[float, ...] = (0.5, 0.8, 0.9, 0.95)
    metric: str = "eta(0.9)"
    description: str = ""
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must be a non-empty string")
        if self.operation is not None:
            if self.mtd.policy != "designed":
                raise ConfigurationError(
                    "operation scenarios tune a designed MTD per hour; "
                    f"mtd.policy must be 'designed', got {self.mtd.policy!r}"
                )
            if self.detector.method != "analytic":
                raise ConfigurationError(
                    "operation scenarios evaluate the per-hour ensemble "
                    "analytically; detector.method must be 'analytic'"
                )
            # One trial per operated hour: the horizon defines the count.
            object.__setattr__(self, "n_trials", self.operation.n_hours())
        if self.operation is not None and self.contingency is not None:
            raise ConfigurationError(
                "operation and contingency cannot be combined: time-series "
                "scenarios operate the nominal topology"
            )
        if self.n_trials <= 0:
            raise ConfigurationError(f"n_trials must be positive, got {self.n_trials}")
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))
        object.__setattr__(self, "tags", tuple(str(t) for t in self.tags))

    # ------------------------------------------------------------------
    # dict / JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-data representation (tuples become lists, JSON-safe).

        The ``operation`` and ``contingency`` keys are present only when
        the component is set, so plain Monte-Carlo specs keep their
        historical JSON shape (and content hash).
        """
        payload = asdict(self)
        if self.operation is None:
            payload.pop("operation", None)
        if self.contingency is None:
            payload.pop("contingency", None)
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (or parsed JSON)."""
        payload = {k: v for k, v in data.items() if k not in _RETIRED_KEYS}
        payload["grid"] = _component_from(GridSpec, payload.get("grid", {}))
        payload["attack"] = _component_from(AttackSpec, payload.get("attack", {}))
        payload["detector"] = _component_from(DetectorSpec, payload.get("detector", {}))
        payload["mtd"] = _component_from(MTDSpec, payload.get("mtd", {}))
        if payload.get("operation") is not None:
            payload["operation"] = OperationSpec.from_dict(payload["operation"])
        if payload.get("contingency") is not None:
            contingency = payload["contingency"]
            if isinstance(contingency, Mapping):
                # ``outage`` is a derived label, recomputed on construction.
                contingency = {k: v for k, v in contingency.items() if k != "outage"}
            payload["contingency"] = _component_from(ContingencySpec, contingency)
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(f"unknown ScenarioSpec fields: {sorted(unknown)}")
        return cls(**payload)

    def to_json(self, indent: int | None = None) -> str:
        """Serialise the spec to canonical (sorted-key) JSON text."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def content_hash(self) -> str:
        """SHA-256 over the execution-relevant content of the spec.

        Stable across processes and Python versions; labelling fields are
        excluded, so renaming a scenario keeps its cached results valid.
        """
        payload = self.to_dict()
        for excluded in _LABEL_FIELDS:
            payload.pop(excluded, None)
        payload["schema_version"] = SPEC_SCHEMA_VERSION
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def with_updates(
        self, updates: Mapping[str, Any] | None = None, **top_level: Any
    ) -> "ScenarioSpec":
        """Return a copy with dotted-path overrides applied.

        ``updates`` maps dotted paths into the nested components, e.g.
        ``{"mtd.gamma_threshold": 0.4, "grid.case": "ieee30"}``; paths
        descend through nested dataclasses to any depth
        (``"operation.profile.hours"``).  Keyword arguments override
        top-level fields (``name=...``, ``n_trials=...``).
        """
        spec = self
        for path, value in (updates or {}).items():
            spec = _replace_path(spec, path, path.split("."), value)
        if top_level:
            spec = replace(spec, **top_level)
        return spec


#: Optional spec components that dotted update paths may descend into even
#: when unset on the base spec: a path like ``contingency.branch_outages``
#: materialises a default component first, so contingency-less base specs
#: can be swept over outage dimensions directly.
_OPTIONAL_COMPONENTS: dict[str, Any] = {}


def _replace_path(obj: Any, full_path: str, parts: Sequence[str], value: Any) -> Any:
    """Rebuild ``obj`` with the dotted-path field replaced by ``value``."""
    if len(parts) == 1:
        return replace(obj, **{parts[0]: value})
    component = getattr(obj, parts[0], None)
    if component is None and parts[0] in _OPTIONAL_COMPONENTS:
        component = _OPTIONAL_COMPONENTS[parts[0]]()
    if not is_dataclass(component):
        raise ConfigurationError(
            f"unknown spec component {parts[0]!r} in update path {full_path!r}"
        )
    return replace(obj, **{parts[0]: _replace_path(component, full_path, parts[1:], value)})


_OPTIONAL_COMPONENTS["contingency"] = ContingencySpec


def _component_from(cls: type, data: Any) -> Any:
    """Build a component dataclass from a mapping or pass an instance through."""
    if isinstance(data, cls):
        return data
    if not isinstance(data, Mapping):
        raise ConfigurationError(f"expected a mapping for {cls.__name__}, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    payload = {k: _freeze(v) if isinstance(v, (list, tuple, dict)) else v for k, v in data.items()}
    return cls(**payload)


def expand_grid(
    base: ScenarioSpec,
    grid: Mapping[str, Sequence[Any]],
    name_format: str | None = None,
) -> list[ScenarioSpec]:
    """Expand a base spec into the cartesian product of parameter sweeps.

    Delegates to :func:`repro.campaign.plan.expand_sweep`, the campaign
    planner's canonical grid expansion (imported lazily to keep the
    spec → planner → spec edge acyclic at import time), so in-memory sweeps
    and persistent campaigns share one set of grid semantics.

    Parameters
    ----------
    base:
        The spec every point starts from.
    grid:
        Mapping of dotted parameter paths (as accepted by
        :meth:`ScenarioSpec.with_updates`) to the values to sweep.
    name_format:
        Optional ``str.format`` template receiving the *leaf* parameter
        names as keys (e.g. ``"{case}-g{gamma_threshold}"``); by default the
        points are named ``base.name[k=v,...]``.

    Returns
    -------
    list of ScenarioSpec
        One spec per grid point, in row-major order of the given axes.
    """
    from repro.campaign.plan import expand_sweep

    return expand_sweep(base, grid, name_format=name_format)


__all__ = [
    "SPEC_SCHEMA_VERSION",
    "GridSpec",
    "AttackSpec",
    "DetectorSpec",
    "MTDSpec",
    "ContingencySpec",
    "ScenarioSpec",
    "expand_grid",
]
