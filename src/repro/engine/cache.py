"""On-disk result cache keyed by spec content hash.

Scenario results are pure functions of their spec (see
:mod:`repro.engine.trial`), so a completed run can be stored once and
replayed for free.  The cache is a directory of JSON files named by the
spec's :meth:`~repro.engine.spec.ScenarioSpec.content_hash`; entries are
self-describing (they embed the spec that produced them), human-readable,
and safe to copy between machines.

Writes are atomic (write to a temp file, then ``os.replace``) so a crashed
or concurrent run can never leave a truncated entry behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec
from repro.exceptions import ReproError
from repro.telemetry import metrics as _metrics
from repro.telemetry.config import _STATE as _TELEMETRY


class ResultCache:
    """A directory of cached :class:`ScenarioResult` records.

    Parameters
    ----------
    directory:
        Cache root; created (with parents) if missing.
    """

    def __init__(self, directory: str | Path) -> None:
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    @property
    def directory(self) -> Path:
        """Root directory the cache entries live in."""
        return self._directory

    def path_for(self, spec: ScenarioSpec) -> Path:
        """The file that does / would hold the result of ``spec``."""
        return self._directory / f"{spec.content_hash()}.json"

    # ------------------------------------------------------------------
    def get(self, spec: ScenarioSpec) -> ScenarioResult | None:
        """Return the cached result of ``spec``, or ``None`` on a miss.

        Unreadable or stale entries (hash collisions, schema drift) count as
        misses and are ignored rather than raised.
        """
        path = self.path_for(spec)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            self._record(hit=False)
            return None
        if not isinstance(payload, dict) or payload.get("spec_hash") != spec.content_hash():
            self._record(hit=False)
            return None
        try:
            result = ScenarioResult.from_dict(payload, from_cache=True)
        except (KeyError, TypeError, ValueError, ReproError):
            self._record(hit=False)
            return None
        self._record(hit=True)
        return result

    def _record(self, hit: bool) -> None:
        if hit:
            self.hits += 1
            if _TELEMETRY.enabled:
                _metrics.counter("cache.result_cache.hits")
        else:
            self.misses += 1
            if _TELEMETRY.enabled:
                _metrics.counter("cache.result_cache.misses")

    def put(self, spec: ScenarioSpec, result: ScenarioResult) -> Path:
        """Store ``result`` under the hash of ``spec`` (atomically).

        The entry is staged in a uniquely named temp file so concurrent
        writers of the same spec cannot interleave; last replace wins with
        both writers holding identical content.
        """
        path = self.path_for(spec)
        fd, tmp = tempfile.mkstemp(
            prefix=f".{spec.content_hash()[:16]}-", suffix=".tmp", dir=self._directory
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(result.to_dict(), handle, indent=1, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    # ------------------------------------------------------------------
    def __contains__(self, spec: ScenarioSpec) -> bool:
        return self.path_for(spec).exists()

    def __len__(self) -> int:
        # Sorted traversal: Path.glob enumerates in filesystem order, which
        # differs between machines — the motivating example of the
        # `unsorted-iteration` contract rule (`repro lint`).
        return len(sorted(self._directory.glob("*.json")))

    def clear(self) -> int:
        """Delete every entry; returns the number of files removed.

        Entries are removed in sorted name order so the deletion sequence
        (and any interleaving with concurrent readers) is deterministic
        across machines.
        """
        removed = 0
        for path in sorted(self._directory.glob("*.json")):
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def stats(self) -> dict[str, int]:
        """Hit/miss counters of this cache instance plus the entry count."""
        return {"hits": self.hits, "misses": self.misses, "entries": len(self)}


__all__ = ["ResultCache"]
