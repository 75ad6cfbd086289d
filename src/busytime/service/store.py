"""Content-addressed result store: LRU memory tier over an optional disk tier.

Keys are the :func:`~busytime.service.canonical.request_fingerprint` hex
digests; values are *flat* reports solved on the *canonical* instance: a
:class:`~busytime.engine.report.SolveReport` whose schedule is
:class:`~busytime.core.schedule.ScheduleRows` (columns, no job, machine or
profile objects).  De-canonicalization back onto a caller's instance
happens above the store, in :class:`~busytime.service.SolveService`, which
maps the columns onto the caller's rows.

Two tiers:

* an in-memory LRU of ``capacity`` flat reports, shared by reference with
  the service's finished jobs (nothing mutates them).  :meth:`put` turns an
  engine report into that form once, so a memory hit on a fresh solve
  still carries the solve's ``timings`` and ``race``;
* optionally, a directory of ``<fingerprint>.json`` documents written from
  the flat report with :func:`busytime.io.solve_report_to_dict`
  (``include_timings=False``, so stored bytes are deterministic) as compact
  one-line JSON.  Memory evictions never delete the disk copy; a later get
  repopulates the LRU from disk.  A disk read parses the document into the
  flat form (:func:`busytime.io.solve_report_rows_from_dict`) and runs the
  :func:`~busytime.core.schedule.verify_schedule` oracle on the columns
  once: whoever can write the directory can write any schedule, so the
  entry is checked, not trusted.  Unreadable, version-incompatible or
  infeasible entries are treated as misses, never errors — the store is a
  cache, and the io-layer version check keeps a newer writer's documents
  from being half-read by an older reader.

The disk tier is **shard-partitioned**: entries live under a subdirectory
named by the first ``shard_depth`` hex characters of the fingerprint
(``directory/ab/<fingerprint>.json``), which is exactly the granularity the
cluster router shards traffic at (:mod:`busytime.service.cluster`), so one
worker's cache responsibility is a set of shard directories, not a scan of
the whole tier.  Pre-partitioning flat layouts are still readable (reads
fall back to ``directory/<fingerprint>.json``), and :meth:`warm` pre-loads
a set of shard prefixes into the memory tier — the cross-worker cache
warming step a router triggers when the routing table changes.

Unlike the memory tier, the disk tier used to grow without bound; it now
takes an optional ``max_disk_entries`` budget, enforced by evicting the
oldest-written entries (and counted in :meth:`stats`).  Writes stay safe
for multiple processes sharing one directory — each writer publishes via a
private temp file and an atomic rename — and the budget is enforced by each
writer against the directory's actual contents, so co-writers converge on
the cap instead of double-counting.

Beyond solve reports, the store also carries small free-form JSON
**documents** (:meth:`put_document` / :meth:`get_document`), keyed by
caller-chosen strings.  The session layer checkpoints its event-sourced
state through this API: documents live under a separate ``docs/``
namespace on disk (two-level sharded, atomic-rename published, exempt from
the report tier's ``max_disk_entries`` budget — a cache eviction must never
eat a session checkpoint) and, for memory-only stores, in a plain dict.
When a directory is configured, document reads always go to disk so that
several workers sharing the directory observe each other's latest writes —
exactly the property cluster failover handoff relies on.

All operations are thread-safe (one lock for the memory tier and counters;
disk I/O happens outside it so a slow disk never serializes memory hits).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..core.schedule import ProfileOracleMismatchError, verify_schedule
from ..engine.report import SolveReport
from ..io import _SUPPORTED_VERSIONS, solve_report_rows_from_dict, solve_report_to_dict

__all__ = ["ResultStore"]

_PathLike = Union[str, Path]

#: What a malformed entry can raise while its report is parsed and checked
#: (a wrongly typed field, a missing key, an infinite number where an
#: integer belongs, an infeasible schedule, a stated busy time its machines
#: do not have).
_DECODE_ERRORS = (
    ValueError, KeyError, TypeError, AttributeError, IndexError, OverflowError,
    ProfileOracleMismatchError,
)

#: Disk entries are written on one line: any ``indent`` makes ``json.dumps``
#: fall back from its C encoder (a 70 KB report took 6.2 ms indented and
#: 1.8-3.1 ms compact).  Readers all go through ``json.loads``, so entries
#: written indented by earlier versions still load.
_COMPACT = (",", ":")


class ResultStore:
    """Fingerprint-keyed cache of canonical solve reports, kept flat.

    Parameters
    ----------
    capacity:
        Maximum number of reports held in memory (least recently used
        evicted first).  Must be >= 1.
    directory:
        Optional on-disk tier; created if missing.  ``None`` keeps the
        store memory-only.
    max_disk_entries:
        Optional budget for the disk tier: after a write pushes the tier
        past this many entries, the oldest-written entries are evicted
        until the budget holds again.  ``None`` (the default) leaves the
        tier unbounded, as before.
    shard_depth:
        How many leading fingerprint hex characters name the disk shard
        subdirectory (default 2: 256 shards, matching the cluster router's
        shard space).  ``0`` writes the legacy flat layout; reads always
        understand both.
    """

    def __init__(
        self,
        capacity: int = 256,
        directory: Optional[_PathLike] = None,
        max_disk_entries: Optional[int] = None,
        shard_depth: int = 2,
    ):
        if capacity < 1:
            raise ValueError(f"store capacity must be >= 1, got {capacity}")
        if max_disk_entries is not None and max_disk_entries < 1:
            raise ValueError(
                f"max_disk_entries must be >= 1 (or None), got {max_disk_entries}"
            )
        if shard_depth < 0:
            raise ValueError(f"shard_depth must be >= 0, got {shard_depth}")
        self.capacity = capacity
        self.directory = Path(directory) if directory is not None else None
        self.max_disk_entries = max_disk_entries
        self.shard_depth = shard_depth
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        # Serializes disk-budget bookkeeping only: memory hits must never
        # wait behind another thread's disk scan.
        self._disk_lock = threading.Lock()
        self._memory: "OrderedDict[str, SolveReport]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._disk_hits = 0
        self._puts = 0
        self._disk_evictions = 0
        self._warmed = 0
        self._disk_count: Optional[int] = None  # lazily scanned
        # Free-form JSON documents (session checkpoints).  Only authoritative
        # when the store is memory-only; with a disk tier the docs/ namespace
        # is the source of truth (see get_document).
        self._documents: Dict[str, dict] = {}

    # -- lookup ---------------------------------------------------------------

    def get(self, fingerprint: str) -> Optional[SolveReport]:
        """The cached flat report for ``fingerprint``, or ``None`` on a miss."""
        with self._lock:
            report = self._memory.get(fingerprint)
            if report is not None:
                self._memory.move_to_end(fingerprint)
                self._hits += 1
                return report
        report = self._read_disk(fingerprint)
        with self._lock:
            if report is None:
                self._misses += 1
                return None
            self._hits += 1
            self._disk_hits += 1
            self._insert(fingerprint, report)
            return report

    def peek(self, fingerprint: str) -> Optional[SolveReport]:
        """Memory-tier-only re-check after a recorded :meth:`get` miss.

        The service uses this inside its own lock to close a submit/worker
        race window: the entry may have landed between its ``get`` and now.
        A successful peek therefore *re-scores* the caller's just-recorded
        miss as a hit (the request is served from the store after all), so
        ``hits + misses`` stays equal to the number of requests looked up.
        An empty peek changes nothing — the miss already stands.
        """
        with self._lock:
            report = self._memory.get(fingerprint)
            if report is not None:
                self._memory.move_to_end(fingerprint)
                self._hits += 1
                self._misses = max(0, self._misses - 1)
            return report

    def put(self, fingerprint: str, report: SolveReport) -> None:
        """Store a canonical report under its fingerprint (both tiers).

        The report is turned into its flat form once (a flat report is
        kept as is); the memory tier holds that form and the disk document
        is written from it.  The memory tier is updated first: a failing
        disk (full, unwritable directory) still raises — callers count
        those — but never costs the in-memory cache its entry.
        """
        report = report.flat()
        with self._lock:
            self._puts += 1
            self._insert(fingerprint, report)
        if self.directory is None:
            return
        doc = solve_report_to_dict(report, include_timings=False)
        path = self._disk_path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        existed = path.exists()
        # A private temp file per writer + atomic rename: concurrent
        # writers of the same fingerprint (two service processes sharing
        # one directory) each publish a complete document, last one wins.
        # The temp file lives in the destination shard directory so the
        # rename stays within one filesystem.
        handle, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{fingerprint}.", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w") as stream:
                stream.write(json.dumps(doc, separators=_COMPACT))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        if not existed:
            self._note_disk_write()

    def _insert(self, fingerprint: str, report: SolveReport) -> None:
        """Insert into the LRU (lock held), evicting the oldest past capacity."""
        self._memory[fingerprint] = report
        self._memory.move_to_end(fingerprint)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self._evictions += 1

    # -- the disk tier --------------------------------------------------------

    def _disk_path(self, fingerprint: str) -> Path:
        assert self.directory is not None
        if self.shard_depth and len(fingerprint) > self.shard_depth:
            return self.directory / fingerprint[: self.shard_depth] / f"{fingerprint}.json"
        return self.directory / f"{fingerprint}.json"

    def _read_disk(self, fingerprint: str) -> Optional[SolveReport]:
        if self.directory is None:
            return None
        path = self._disk_path(fingerprint)
        if not path.is_file():
            # Pre-partitioning layouts (and shard_depth=0 co-writers) put
            # the document directly under the root; honour them on reads.
            path = self.directory / f"{fingerprint}.json"
        # Missing, corrupt or version-incompatible entry: a miss, not an
        # error — the request simply re-solves and overwrites it.
        return self._load(path)

    @staticmethod
    def _load(path: Path) -> Optional[SolveReport]:
        """The checked flat report stored at ``path``, or ``None``.

        The one reader of disk entries (:meth:`get` and :meth:`warm` go
        through it): the document is parsed into columns and the oracle
        runs on them once.  ``None`` covers every entry that does not
        parse into a checked report: unreadable bytes, malformed JSON, a
        document of another format or an unknown version, wrongly typed
        fields, a schedule the oracle rejects.
        """
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        version = data.get("version", 1) if isinstance(data, dict) else None
        if (
            not isinstance(data, dict)
            or data.get("format") != "busytime-solve-report"
            or not isinstance(version, int)
            or isinstance(version, bool)
            or version not in _SUPPORTED_VERSIONS["busytime-solve-report"]
        ):
            return None
        try:
            report = solve_report_rows_from_dict(data)
            verify_schedule(report.schedule)
        except _DECODE_ERRORS:
            return None
        return report

    def _disk_entries(self) -> List[Tuple[float, Path]]:
        """Every disk entry as ``(mtime, path)`` (both layouts); unsorted."""
        assert self.directory is not None
        entries: List[Tuple[float, Path]] = []
        for path in self.directory.glob("*.json"):
            try:
                entries.append((path.stat().st_mtime, path))
            except OSError:
                continue  # concurrently evicted by a co-writer
        if self.shard_depth:
            for path in self.directory.glob("*/*.json"):
                try:
                    entries.append((path.stat().st_mtime, path))
                except OSError:
                    continue
        return entries

    def _note_disk_write(self) -> None:
        """Count one fresh disk entry and enforce the budget when set."""
        with self._disk_lock:
            if self._disk_count is None:
                self._disk_count = len(self._disk_entries())
            else:
                self._disk_count += 1
            if (
                self.max_disk_entries is None
                or self._disk_count <= self.max_disk_entries
            ):
                return
            # Over budget: evict oldest-written first.  The listing is
            # re-derived from the directory (not the counter) so several
            # processes sharing the tier converge on the cap instead of
            # trusting their private approximations.
            entries = sorted(self._disk_entries())
            excess = len(entries) - self.max_disk_entries
            for _, path in entries[:excess]:
                try:
                    os.unlink(path)
                    self._disk_evictions += 1
                except OSError:
                    continue  # already gone (a co-writer evicted it)
            self._disk_count = min(len(entries), self.max_disk_entries)

    def disk_entries(self) -> int:
        """Number of entries currently in the disk tier (0 when memory-only)."""
        if self.directory is None:
            return 0
        with self._disk_lock:
            self._disk_count = len(self._disk_entries())
            return self._disk_count

    def warm(self, prefixes: Iterable[str], limit: Optional[int] = None) -> int:
        """Pre-load disk entries for the given shard prefixes into memory.

        This is the cross-worker cache-warming step: when the cluster's
        routing table changes (a worker died or rejoined), the shards it
        owned re-route, and their new owner calls ``warm`` so the traffic
        that is about to arrive finds the memory tier hot instead of paying
        a validating disk read per request.

        Newest-written entries load first and at most ``limit`` (default:
        the memory capacity) load in total; fingerprints already resident
        are skipped without spending a read.  Returns the number of reports
        loaded.  Unreadable entries are skipped, as everywhere else.
        """
        if self.directory is None:
            return 0
        budget = self.capacity if limit is None else limit
        wanted: List[Tuple[float, Path]] = []
        for prefix in prefixes:
            shard_dir = self.directory / prefix[: self.shard_depth or None]
            if self.shard_depth and shard_dir.is_dir():
                for path in shard_dir.glob(f"{prefix}*.json"):
                    try:
                        wanted.append((path.stat().st_mtime, path))
                    except OSError:
                        continue
            # Legacy flat entries participate too.
            for path in self.directory.glob(f"{prefix}*.json"):
                try:
                    wanted.append((path.stat().st_mtime, path))
                except OSError:
                    continue
        wanted.sort(reverse=True)
        loaded = 0
        for _, path in wanted:
            if loaded >= budget:
                break
            fingerprint = path.stem
            with self._lock:
                if fingerprint in self._memory:
                    continue
            report = self._load(path)
            if report is None:
                continue
            with self._lock:
                if fingerprint not in self._memory:
                    self._insert(fingerprint, report)
                    self._warmed += 1
                    loaded += 1
        return loaded

    # -- free-form documents (session checkpoints) ----------------------------

    _DOC_KEY_OK = staticmethod(
        lambda key: bool(key) and all(c.isalnum() or c in "-_." for c in key)
    )

    def _document_path(self, key: str) -> Path:
        assert self.directory is not None
        # Always two-level sharded under docs/: never collides with either
        # report layout and never matches the report tier's eviction globs.
        return self.directory / "docs" / key[:2] / f"{key}.json"

    def put_document(self, key: str, document: dict) -> None:
        """Durably store a JSON document under ``key`` (atomic publication).

        With a disk tier the document is published via temp-file +
        ``os.replace`` so co-readers only ever see complete checkpoints;
        memory-only stores keep a private copy in-process.  Keys are
        restricted to ``[A-Za-z0-9._-]`` so they map safely onto file names.
        """
        if not self._DOC_KEY_OK(key):
            raise ValueError(f"invalid document key: {key!r}")
        if self.directory is None:
            with self._lock:
                self._documents[key] = json.loads(json.dumps(document))
            return
        path = self._document_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key}.", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w") as stream:
                stream.write(json.dumps(document, separators=_COMPACT))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def get_document(self, key: str) -> Optional[dict]:
        """The document stored under ``key``, or ``None``.

        Disk-tier stores read the directory every time — staleness is not
        acceptable for checkpoints shared across workers, unlike for the
        content-addressed (hence immutable) report cache.
        """
        if not self._DOC_KEY_OK(key):
            return None
        if self.directory is None:
            with self._lock:
                doc = self._documents.get(key)
            return json.loads(json.dumps(doc)) if doc is not None else None
        try:
            return json.loads(self._document_path(key).read_text())
        except (OSError, ValueError):
            return None

    def delete_document(self, key: str) -> None:
        """Forget the document under ``key`` (missing keys are a no-op)."""
        if not self._DOC_KEY_OK(key):
            return
        with self._lock:
            self._documents.pop(key, None)
        if self.directory is not None:
            try:
                os.unlink(self._document_path(key))
            except OSError:
                pass

    def list_documents(self, prefix: str = "") -> List[str]:
        """Keys of all stored documents, optionally filtered by prefix."""
        keys: set = set()
        with self._lock:
            keys.update(k for k in self._documents if k.startswith(prefix))
        if self.directory is not None:
            for path in (self.directory / "docs").glob("*/*.json"):
                if path.stem.startswith(prefix):
                    keys.add(path.stem)
        return sorted(keys)

    # -- introspection --------------------------------------------------------

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            if fingerprint in self._memory:
                return True
        if self.directory is None:
            return False
        return (
            self._disk_path(fingerprint).is_file()
            or (self.directory / f"{fingerprint}.json").is_file()
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def clear_memory(self) -> None:
        """Drop the memory tier (disk entries survive); stats are kept."""
        with self._lock:
            self._memory.clear()

    def stats(self) -> Dict[str, object]:
        """Hit/miss/eviction counters plus current occupancy."""
        # disk_entries is the count when known, None when the directory has
        # not been scanned yet (counting is deferred until a write or an
        # explicit disk_entries() call, so stats() stays cheap) and when
        # there is no disk tier at all.
        with self._disk_lock:
            disk_count = self._disk_count if self.directory else None
        with self._lock:
            total = self._hits + self._misses
            return {
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": (self._hits / total) if total else 0.0,
                "disk_hits": self._disk_hits,
                "evictions": self._evictions,
                "puts": self._puts,
                "size": len(self._memory),
                "capacity": self.capacity,
                "disk": str(self.directory) if self.directory else None,
                "disk_entries": disk_count,
                "disk_evictions": self._disk_evictions,
                "max_disk_entries": self.max_disk_entries,
                "warmed": self._warmed,
            }
