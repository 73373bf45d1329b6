"""Deterministic expansion of campaign definitions into sharded work plans.

This module owns the repository's *grid semantics*: :func:`expand_sweep` is
the single implementation of cartesian parameter-grid expansion, used both
by the campaign orchestrator and — through the delegating wrappers
:func:`repro.engine.spec.expand_grid` and
:meth:`repro.engine.runner.ScenarioEngine.run_sweep` — by every in-memory
sweep.  A :class:`CampaignPlan` is the expanded, content-hashed form of a
:class:`~repro.campaign.definition.CampaignDefinition`:

* ``points`` — every scenario of the campaign, in deterministic order
  (grid blocks row-major, then explicit points), with the definition's
  overrides applied;
* ``items`` — the deduplicated *work plan*: one entry per distinct spec
  content hash, in first-occurrence order (two grid blocks that overlap
  produce one unit of work, not two);
* ``shards`` — contiguous blocks of work items.  Sharding is a pure
  function of the plan, so the same plan hash always yields the same
  shard assignment — the invariant crash-safe resume relies on;
* ``plan_hash`` — SHA-256 over the ordered point hashes and the shard
  size, identifying the whole work plan.  Only *work* participates:
  relabelling a campaign (or its specs) keeps the plan hash stable, so
  annotation-only edits never invalidate a half-finished store.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.campaign.definition import CAMPAIGN_SCHEMA_VERSION, CampaignDefinition
from repro.engine.spec import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.results import ScenarioResult
    from repro.engine.runner import ScenarioEngine


def expand_sweep(
    base: ScenarioSpec,
    grid: Mapping[str, Sequence[Any]],
    name_format: str | None = None,
) -> list[ScenarioSpec]:
    """Expand a base spec into the cartesian product of parameter sweeps.

    The canonical grid expansion of the repository (moved here from
    ``repro.engine.spec`` so that in-memory sweeps and persistent campaigns
    share one implementation).

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
    paths = list(grid)
    points: list[ScenarioSpec] = [base]
    for path in paths:
        points = [
            point.with_updates({path: value})
            for point in points
            for value in grid[path]
        ]
    named = []
    for spec in points:
        leaf_values = {}
        for path in paths:
            obj: Any = spec
            for part in path.split("."):
                obj = getattr(obj, part)
            leaf_values[path.split(".")[-1]] = obj
        if name_format is not None:
            name = name_format.format(**leaf_values)
        else:
            suffix = ",".join(f"{k}={v}" for k, v in leaf_values.items())
            name = f"{base.name}[{suffix}]" if suffix else base.name
        named.append(spec.with_updates(name=name))
    return named


@dataclass(frozen=True)
class Shard:
    """A contiguous block of the work plan, executed as one unit."""

    index: int
    spec_hashes: tuple[str, ...]

    @property
    def n_points(self) -> int:
        return len(self.spec_hashes)


@dataclass(frozen=True)
class CampaignPlan:
    """The expanded, content-hashed, sharded form of a campaign definition."""

    definition: CampaignDefinition
    points: tuple[ScenarioSpec, ...]
    point_hashes: tuple[str, ...]
    items: dict[str, ScenarioSpec]
    shards: tuple[Shard, ...]
    shard_index: dict[str, int]
    plan_hash: str

    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        """Total scenario points (including duplicates across grid blocks)."""
        return len(self.points)

    @property
    def n_items(self) -> int:
        """Distinct units of work (deduplicated by spec content hash)."""
        return len(self.items)

    def spec_for(self, spec_hash: str) -> ScenarioSpec:
        """The scenario spec of one work item."""
        return self.items[spec_hash]

    def shard_of(self, spec_hash: str) -> int:
        """The shard a work item is assigned to."""
        return self.shard_index[spec_hash]

    # ------------------------------------------------------------------
    def run(
        self,
        engine: "ScenarioEngine",
        n_workers: int | None = None,
        use_cache: bool = True,
    ) -> "list[ScenarioResult]":
        """Execute every point in plan order on the given engine.

        This is the execution path of in-memory sweeps
        (:meth:`ScenarioEngine.run_sweep` delegates here); persistent,
        sharded execution is the orchestrator's
        :func:`repro.campaign.orchestrator.run_campaign`.
        """
        return engine.run_suite(self.points, n_workers=n_workers, use_cache=use_cache)


def assign_shards(spec_hashes: Sequence[str], shard_size: int) -> tuple[Shard, ...]:
    """Partition work items into contiguous shards of ``shard_size`` points.

    Contiguity is deliberate: grid expansion keeps points that share a grid
    case adjacent, so contiguous shards maximise the per-process
    network/baseline memoisation of :mod:`repro.engine.trial`.  The
    assignment is a pure function of the ordered hashes and the shard size —
    the same plan hash always produces the same shards.
    """
    return tuple(
        Shard(index=i, spec_hashes=tuple(spec_hashes[start : start + shard_size]))
        for i, start in enumerate(range(0, len(spec_hashes), shard_size))
    )


def plan_campaign(definition: CampaignDefinition) -> CampaignPlan:
    """Expand a definition into its deterministic, content-hashed work plan."""
    # Overrides win over grid values: an override of a swept path collapses
    # that axis to the override value *before* expansion, so the generated
    # point names report the value that actually runs; the remaining
    # overrides apply to every point, as they do to explicit points.
    overrides = dict(definition.overrides)
    points: list[ScenarioSpec] = []
    for grid_block in definition.grids:
        block = {
            path: (overrides[path],) if path in overrides and values else values
            for path, values in grid_block
        }
        base = definition.base
        rest = {k: v for k, v in overrides.items() if k not in block}
        if rest:
            base = base.with_updates(rest)
        points.extend(expand_sweep(base, block, name_format=definition.name_format))
    if definition.base is not None and not definition.grids:
        points.append(
            definition.base.with_updates(overrides) if overrides else definition.base
        )
    for point in definition.points:
        points.append(point.with_updates(overrides) if overrides else point)

    point_hashes = tuple(point.content_hash() for point in points)
    items: dict[str, ScenarioSpec] = {}
    for point, spec_hash in zip(points, point_hashes):
        items.setdefault(spec_hash, point)

    # Only execution-relevant content: the ordered point hashes (which
    # already encode grids, overrides and explicit points) and the shard
    # layout.  Definition labels and spec labels stay out, so relabelling
    # never orphans a store.
    payload = {
        "schema_version": CAMPAIGN_SCHEMA_VERSION,
        "points": list(point_hashes),
        "shard_size": definition.shard_size,
    }
    plan_hash = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()

    shards = assign_shards(tuple(items), definition.shard_size)
    return CampaignPlan(
        definition=definition,
        points=tuple(points),
        point_hashes=point_hashes,
        items=items,
        shards=shards,
        shard_index={h: s.index for s in shards for h in s.spec_hashes},
        plan_hash=plan_hash,
    )


def plan_sweep(
    base: ScenarioSpec,
    grid: Mapping[str, Sequence[Any]],
    name_format: str | None = None,
    shard_size: int | None = None,
) -> CampaignPlan:
    """Plan a one-grid campaign — the declarative form of ``run_sweep``.

    The returned plan's ``points`` are exactly what
    :func:`expand_sweep(base, grid, name_format)` yields, so running them
    in order is bit-identical to the historical in-memory sweep.
    """
    definition = CampaignDefinition(
        name=f"sweep-{base.name}",
        base=base,
        grids=(tuple((path, tuple(values)) for path, values in grid.items()),),
        name_format=name_format,
        **({} if shard_size is None else {"shard_size": shard_size}),
    )
    return plan_campaign(definition)


__all__ = [
    "Shard",
    "CampaignPlan",
    "assign_shards",
    "expand_sweep",
    "plan_campaign",
    "plan_sweep",
]
