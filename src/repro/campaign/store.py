"""Persistent, crash-safe campaign result store.

A :class:`CampaignStore` is a directory holding everything a campaign has
produced::

    <store>/
    ├── campaign.json          # manifest: definition + plan hash
    └── segments/
        ├── segment-000001.ndjson   # append-only result records
        └── segment-000002.ndjson   # (one new segment per run/resume)

The **segments are the whole store**: each line is one completed scenario
(the :meth:`~repro.engine.results.ScenarioResult.to_dict` payload plus the
shard index), appended, flushed and fsynced as soon as the scenario
finishes, never rewritten.  An open store keeps an in-memory map from spec
hash to the (segment, byte offset, length) of its latest record, plus the
number of bytes of each segment it has indexed.  It scans the segments on
open and, before every read, indexes the bytes appended since, so one
instance sees what another appends.

Crash safety follows from the append-only lines:

* a record is durable once its line (with trailing newline) hits the
  segment;
* a torn final line (the process died mid-write) never becomes a complete
  record: it stays unindexed until its newline arrives, and its scenario
  re-executes on resume.  New runs append to a *fresh* segment, so a torn
  tail is never written after;
* a corrupt line in the middle of a segment is skipped and counted in
  ``skipped_lines``;
* a deleted segment's records are forgotten (a supported way to make its
  scenarios re-execute), and a segment cut short is re-indexed.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Iterator, Mapping

try:  # advisory single-writer locking (POSIX; absent on some platforms)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.engine.results import ScenarioResult
from repro.exceptions import ConfigurationError
from repro.telemetry import metrics as _metrics

#: Store layout names.
MANIFEST_NAME = "campaign.json"
SEGMENT_DIR = "segments"
SEGMENT_SUFFIX = ".ndjson"
LOCK_NAME = ".writer.lock"


def spec_field(spec: Mapping[str, Any], path: str) -> Any:
    """Look up a dotted path (``"mtd.gamma_threshold"``) in a spec dict."""
    obj: Any = spec
    for part in path.split("."):
        if not isinstance(obj, Mapping) or part not in obj:
            raise KeyError(path)
        obj = obj[part]
    return obj


class CampaignStore:
    """Append-only ndjson segments, read through an in-memory spec-hash map.

    Parameters
    ----------
    directory:
        Store root; created (with parents) if missing.  Opening an existing
        store scans its segments.
    create:
        Pass ``False`` to require an existing store — a directory holding a
        manifest or segments.  Read-only commands (``status``/``query``)
        use this so a mistyped path fails fast instead of scaffolding store
        files into an arbitrary (or nonexistent) directory.
    """

    def __init__(self, directory: str | Path, create: bool = True) -> None:
        self._directory = Path(directory)
        self._segment_dir = self._directory / SEGMENT_DIR
        if not create and not (
            self._segment_dir.is_dir() or (self._directory / MANIFEST_NAME).exists()
        ):
            raise ConfigurationError(f"no campaign store at {self._directory}")
        self._segment_dir.mkdir(parents=True, exist_ok=True)
        #: (name, handle) of this instance's segment, opened on first append.
        self._segment: tuple[str, BinaryIO] | None = None
        self._lock_handle = None  # held from first append until close
        #: spec hash → (segment, offset, length) of its latest record, in
        #: insertion order: a re-appended hash moves to the end.
        self._locations: dict[str, tuple[str, int, int]] = {}
        #: segment → bytes indexed so far (through its last complete line).
        self._indexed_bytes: dict[str, int] = {}
        self.skipped_lines = 0
        self._refresh()

    @property
    def directory(self) -> Path:
        """Root directory of the store."""
        return self._directory

    @property
    def progress_path(self) -> Path:
        """Where this store's live progress stream lives (may not exist)."""
        from repro.telemetry.progress import progress_path

        return progress_path(self._directory)

    # ------------------------------------------------------------------
    # in-memory index
    # ------------------------------------------------------------------
    def _segment_files(self) -> list[Path]:
        return sorted(self._segment_dir.glob(f"*{SEGMENT_SUFFIX}"))

    def _refresh(self) -> None:
        """Index the complete lines appended to the segments since the last
        refresh.

        A segment that is gone or shorter than its indexed bytes was changed
        behind the store's back, so the map is rebuilt from the segments on
        disk: a deleted segment's records are forgotten and a truncated
        segment's surviving records re-indexed.
        """
        sizes = {path.name: path.stat().st_size for path in self._segment_files()}
        if any(sizes.get(name, -1) < n for name, n in self._indexed_bytes.items()):
            self._locations.clear()
            self._indexed_bytes.clear()
            self.skipped_lines = 0
        for name, size in sizes.items():
            if size > self._indexed_bytes.get(name, 0):
                self._index_tail(name)

    def _index_tail(self, segment: str) -> None:
        """Index the complete records of ``segment`` past its indexed bytes."""
        offset = self._indexed_bytes.get(segment, 0)
        with (self._segment_dir / segment).open("rb") as handle:
            handle.seek(offset)
            for line in handle:
                if not line.endswith(b"\n"):
                    break  # torn tail: indexed once its newline arrives
                record = self._parse_record(line)
                if record is None:
                    self.skipped_lines += 1
                else:
                    self._locate(record["spec_hash"], segment, offset, len(line))
                offset += len(line)
        self._indexed_bytes[segment] = offset

    def _locate(self, spec_hash: str, segment: str, offset: int, length: int) -> None:
        self._locations.pop(spec_hash, None)
        self._locations[spec_hash] = (segment, offset, length)

    @staticmethod
    def _parse_record(line: bytes) -> dict[str, Any] | None:
        """Parse one segment line; ``None`` for corrupt/foreign content."""
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(record, dict) or "spec_hash" not in record:
            return None
        if "spec" not in record or "trials" not in record:
            return None
        return record

    # ------------------------------------------------------------------
    # appends
    # ------------------------------------------------------------------
    def _next_segment_name(self) -> str:
        numbers = [0]
        for path in self._segment_files():
            stem = path.name[: -len(SEGMENT_SUFFIX)]
            try:
                numbers.append(int(stem.rsplit("-", 1)[-1]))
            except ValueError:
                continue
        return f"segment-{max(numbers) + 1:06d}{SEGMENT_SUFFIX}"

    def _acquire_writer_lock(self) -> None:
        """Become the store's single writer (advisory ``flock``).

        Concurrent writers would race on segment numbering, so a second
        live writer is rejected outright; the lock dies with its process,
        so a ``kill -9`` never wedges the store.
        """
        if fcntl is None or self._lock_handle is not None:
            return
        handle = (self._directory / LOCK_NAME).open("w")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            handle.close()
            raise ConfigurationError(
                f"campaign store {self._directory} is being written by another "
                "process; wait for it to finish (the lock clears when it exits)"
            ) from None
        self._lock_handle = handle

    def _segment_for_append(self) -> tuple[str, BinaryIO]:
        """The store instance's private segment, opened on first append.

        Every store instance (hence every run/resume generation) writes a
        fresh segment, so old segments — including any torn tail a crash
        left behind — are never appended to.
        """
        if self._segment is None:
            self._acquire_writer_lock()
            # Index what earlier writers appended first, so this writer's
            # records follow theirs in insertion order.
            self._refresh()
            name = self._next_segment_name()
            self._segment = (name, (self._segment_dir / name).open("ab"))
        return self._segment

    def append(self, result: ScenarioResult, shard: int | None = None) -> str:
        """Persist one scenario result; returns its spec hash.

        The record is durable (flushed and fsynced) when this returns.
        """
        record = result.to_dict()
        record["shard"] = shard
        record["created_unix"] = time.time()
        line = (json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n").encode(
            "utf-8"
        )
        segment, handle = self._segment_for_append()
        offset = handle.tell()
        handle.write(line)
        handle.flush()
        os.fsync(handle.fileno())
        self._locate(record["spec_hash"], segment, offset, len(line))
        self._indexed_bytes[segment] = offset + len(line)
        _metrics.counter("store.appends")
        _metrics.counter("store.bytes_written", len(line))
        return record["spec_hash"]

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def __contains__(self, spec_hash: str) -> bool:
        self._refresh()
        return spec_hash in self._locations

    def __len__(self) -> int:
        self._refresh()
        return len(self._locations)

    def completed_hashes(self) -> set[str]:
        """Spec hashes of every stored scenario."""
        self._refresh()
        return set(self._locations)

    def _read(self, locations: Iterable[tuple[str, int, int]]) -> Iterator[dict[str, Any]]:
        """The records at ``locations``, one open handle per run of
        consecutive same-segment records."""
        for segment, run in groupby(locations, key=itemgetter(0)):
            with (self._segment_dir / segment).open("rb") as handle:
                for _, offset, length in run:
                    handle.seek(offset)
                    record = self._parse_record(handle.read(length))
                    if record is None:
                        raise ConfigurationError(
                            f"segment record at {segment}:{offset} is unreadable; "
                            "the segment was rewritten after it was indexed"
                        )
                    yield record

    def get(self, spec_hash: str) -> ScenarioResult | None:
        """Load the stored result of one scenario, or ``None`` if absent."""
        self._refresh()
        location = self._locations.get(spec_hash)
        if location is None:
            return None
        (record,) = self._read([location])
        return ScenarioResult.from_dict(record, from_cache=True)

    def records(self) -> Iterator[dict[str, Any]]:
        """Every stored record (raw dicts), in insertion order."""
        self._refresh()
        return self._read(list(self._locations.values()))

    def results(self) -> Iterator[ScenarioResult]:
        """Every stored :class:`ScenarioResult`, in insertion order."""
        for record in self.records():
            yield ScenarioResult.from_dict(record, from_cache=True)

    def stats(self) -> dict[str, int]:
        """Entry and segment counts, and the corrupt lines skipped."""
        return {
            "entries": len(self),
            "segments": len(self._segment_files()),
            "skipped_lines": self.skipped_lines,
        }

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self._directory / MANIFEST_NAME

    def read_manifest(self) -> dict[str, Any] | None:
        """The stored campaign manifest, or ``None`` for a fresh store."""
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        return manifest if isinstance(manifest, dict) else None

    def write_manifest(self, manifest: Mapping[str, Any]) -> None:
        """Atomically persist the campaign manifest."""
        fd, tmp = tempfile.mkstemp(prefix=".manifest-", suffix=".tmp", dir=self._directory)
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True)
            os.replace(tmp, self.manifest_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def release_writer(self) -> None:
        """Close the segment handle and release the writer lock.

        Called by the orchestrator when a run finishes so the store can be
        written again (by this process or another) without waiting for
        garbage collection; reads stay available, and a later append simply
        re-acquires the lock and opens a fresh segment.
        """
        if self._segment is not None:
            self._segment[1].close()
            self._segment = None
        if self._lock_handle is not None:
            self._lock_handle.close()  # closing the fd releases the flock
            self._lock_handle = None

    def close(self) -> None:
        """Close the segment handle and release the writer lock."""
        self.release_writer()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


__all__ = [
    "CampaignStore",
    "spec_field",
    "MANIFEST_NAME",
    "SEGMENT_DIR",
]
