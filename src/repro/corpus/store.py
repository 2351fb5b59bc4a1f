"""Persistent, content-addressed trace corpus.

The paper's methodology is record-once / replay-many: Shade records each
application's operand stream once, then every MEMO-TABLE configuration
replays the same recording.  :class:`TraceCorpus` gives the repository
the same economics across *processes*: a trace is identified by a
:class:`TraceKey` -- (suite, application/kernel, input, scale) plus the
recorder version -- and stored on disk exactly once, so any number of
experiment runs (serial or a whole worker pool) replay it for the cost
of a gzip read.

Layout of a corpus directory::

    <root>/manifest.json          key metadata + integrity checksums
    <root>/objects/<dd>/<digest>.trc.gz   gzip'd binary trace, sharded by
                                  the first two digest hex chars
    <root>/locks/                 cooperative lock files

Objects are **sharded by content hash** into a 256-way prefix fan-out
(``objects/3f/<digest>.trc.gz``), which keeps directory listings bounded
when the experiment service floods the store with thousands of traces,
and gives a natural unit for placing shards on separate disks/hosts.
Each digest has exactly one object path.

Properties:

* **content-addressed** -- the object name is a SHA-256 digest of the
  key fields and the recorder version, so a recorder change can never
  silently serve stale traces;
* **verified** -- every load re-hashes the compressed object against the
  manifest checksum and decodes it as an ``RPROTRC3`` stream; a
  truncated or flipped file, or one in any other format, is dropped and
  the caller transparently re-records;
* **bounded** -- :meth:`TraceCorpus.gc` evicts least-recently-used
  objects (recency = object mtime, touched on every hit) until the
  store fits ``max_bytes``;
* **concurrent** -- writers serialize per entry through ``O_EXCL`` lock
  files (with stale-lock breaking), objects land via atomic rename, and
  the manifest is read-merge-written under its own lock, so a worker
  pool records each missing trace exactly once and never clobbers the
  manifest;
* **two-tier** -- a small in-process LRU of deserialized traces sits in
  front of the disk store, so replay loops inside one experiment stay
  as fast as the old per-process dict cache.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from ..errors import CorpusError, CorpusLockError, TraceFormatError
from ..fsutil import FileLock, atomic_write_json, mtime, mtime_age, touch
from ..isa.binfmt import read_column_blocks, write_column_trace
from ..isa.columns import ColumnBatch
from ..isa.trace import Trace

__all__ = [
    "RECORDER_VERSION",
    "TraceKey",
    "CorpusEntry",
    "CorpusStats",
    "TraceCorpus",
    "active_corpus",
    "set_active_corpus",
    "default_corpus_dir",
]

#: Bump when :class:`OperationRecorder` or any workload kernel changes
#: the events it emits -- digests include it, so stale corpora are
#: transparently re-recorded rather than silently replayed.
RECORDER_VERSION = 1

_MANIFEST_FORMAT = 1
_GZIP_LEVEL = 3

#: Hex chars of the digest used as the shard directory name (2 -> 256
#: subdirectories under ``objects/``).
_SHARD_WIDTH = 2


class TraceKey(NamedTuple):
    """Identity of one recorded trace.

    ``suite`` is ``"mm"``, ``"perfect"`` or ``"spec"``; ``variant`` is
    the input (catalogue image name for MM kernels, empty for the
    scientific suites whose apps have a single input).
    """

    suite: str
    name: str
    variant: str = ""
    scale: float = 1.0

    @property
    def digest(self) -> str:
        material = "\x1f".join(
            (self.suite, self.name, self.variant, repr(float(self.scale)),
             f"recorder-v{RECORDER_VERSION}")
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:32]

    def describe(self) -> str:
        inp = f"({self.variant})" if self.variant else ""
        return f"{self.suite}:{self.name}{inp}@{self.scale:g}"


@dataclass
class CorpusEntry:
    """Manifest record for one stored trace."""

    suite: str
    name: str
    variant: str
    scale: float
    checksum: str  # sha256 of the compressed object file
    events: int
    size: int  # compressed bytes on disk
    created: float

    @property
    def key(self) -> TraceKey:
        return TraceKey(self.suite, self.name, self.variant, self.scale)


@dataclass
class CorpusStats:
    """Per-process counters (the acceptance check for warm runs:
    ``recorded == 0`` means every trace came from the store)."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    recorded: int = 0
    corrupt_dropped: int = 0
    evicted: int = 0
    bytes_written: int = 0
    bytes_read: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)

    def add(self, other: Union["CorpusStats", Dict[str, int]]) -> "CorpusStats":
        data = other.as_dict() if isinstance(other, CorpusStats) else other
        for name, value in data.items():
            setattr(self, name, getattr(self, name) + value)
        return self

    def diff(self, earlier: "CorpusStats") -> Dict[str, int]:
        return {
            name: value - getattr(earlier, name)
            for name, value in self.as_dict().items()
        }


def default_corpus_dir() -> Path:
    """``$REPRO_CORPUS_DIR`` or ``~/.cache/repro/corpus``."""
    env = os.environ.get("REPRO_CORPUS_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "corpus"


class TraceCorpus:
    """A persistent store of recorded traces (see module docstring)."""

    def __init__(
        self,
        root: Union[str, Path],
        max_bytes: Optional[int] = None,
        memory_entries: int = 64,
        lock_timeout: float = 120.0,
    ) -> None:
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.locks_dir = self.root / "locks"
        self.manifest_path = self.root / "manifest.json"
        for directory in (self.root, self.objects_dir, self.locks_dir):
            directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.memory_entries = memory_entries
        self.lock_timeout = lock_timeout
        self.stats = CorpusStats()
        self._memory: "OrderedDict[str, Trace]" = OrderedDict()

    # -- serialization -----------------------------------------------------

    @staticmethod
    def _serialize(trace: Trace) -> bytes:
        # A column-backed trace serializes without ever materializing
        # event objects.
        raw = io.BytesIO()
        write_column_trace(trace, raw)
        # mtime=0 keeps the gzip container deterministic, so identical
        # traces always produce identical checksums.
        out = io.BytesIO()
        with gzip.GzipFile(
            fileobj=out, mode="wb", compresslevel=_GZIP_LEVEL, mtime=0
        ) as zipped:
            zipped.write(raw.getvalue())
        return out.getvalue()

    @staticmethod
    def _deserialize(blob: bytes) -> Trace:
        # Traces come back column-backed, so the simulators' fused
        # kernel path engages without an events round trip.
        with gzip.GzipFile(fileobj=io.BytesIO(blob), mode="rb") as zipped:
            payload = io.BytesIO(zipped.read())
        return Trace(columns=ColumnBatch.concat(read_column_blocks(payload)))

    @staticmethod
    def _checksum(blob: bytes) -> str:
        return hashlib.sha256(blob).hexdigest()

    # -- manifest ----------------------------------------------------------

    def _read_manifest(self) -> Dict[str, dict]:
        try:
            with self.manifest_path.open("r", encoding="utf-8") as stream:
                document = json.load(stream)
        except FileNotFoundError:
            return {}
        except (json.JSONDecodeError, OSError):
            # A torn manifest orphans its objects; they are re-recorded
            # (and the orphans collected by gc), never half-trusted.
            return {}
        if document.get("format") != _MANIFEST_FORMAT:
            return {}
        return document.get("entries", {})

    def _write_manifest(self, entries: Dict[str, dict]) -> None:
        document = {
            "format": _MANIFEST_FORMAT,
            "recorder_version": RECORDER_VERSION,
            "entries": entries,
        }
        atomic_write_json(self.manifest_path, document)

    def _update_manifest(
        self, mutate: Callable[[Dict[str, dict]], None]
    ) -> Dict[str, dict]:
        """Read-merge-write the manifest under the manifest lock."""
        with self._lock("manifest"):
            entries = self._read_manifest()
            mutate(entries)
            self._write_manifest(entries)
        return entries

    def _lock(self, name: str) -> FileLock:
        return FileLock(
            self.locks_dir / f"{name}.lock",
            timeout=self.lock_timeout,
            stale_after=600.0,
            error=CorpusLockError,
            poll=0.02,
        )

    def entries(self) -> List[CorpusEntry]:
        """Manifest contents, most recently used last."""
        loaded = []
        for digest, data in self._read_manifest().items():
            try:
                entry = CorpusEntry(**data)
            except TypeError:
                continue
            loaded.append((self._mtime(digest), entry))
        loaded.sort(key=lambda pair: pair[0])
        return [entry for _, entry in loaded]

    def _mtime(self, digest: str) -> float:
        stamp = mtime(self._object_path(digest))
        return 0.0 if stamp is None else stamp

    def _object_path(self, digest: str) -> Path:
        """The one on-disk location of a digest's object."""
        return self.objects_dir / digest[:_SHARD_WIDTH] / f"{digest}.trc.gz"

    def _unlink_object(self, digest: str) -> None:
        try:
            self._object_path(digest).unlink()
        except OSError:
            pass

    def _iter_objects(self) -> Dict[str, Path]:
        """Every stored object: digest -> path."""
        return {
            path.name[: -len(".trc.gz")]: path
            for path in self.objects_dir.glob(
                f"{'[0-9a-f]' * _SHARD_WIDTH}/*.trc.gz"
            )
        }

    def total_bytes(self) -> int:
        total = 0
        for path in self._iter_objects().values():
            try:
                total += path.stat().st_size
            except OSError:
                pass  # concurrently evicted between glob and stat
        return total

    def __len__(self) -> int:
        return len(self._read_manifest())

    # -- the two cache tiers ----------------------------------------------

    def _memory_get(self, digest: str) -> Optional[Trace]:
        trace = self._memory.get(digest)
        if trace is not None:
            self._memory.move_to_end(digest)
        return trace

    def _memory_put(self, digest: str, trace: Trace) -> None:
        self._memory[digest] = trace
        self._memory.move_to_end(digest)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    def clear_memory(self) -> None:
        self._memory.clear()

    def _drop(self, digest: str) -> None:
        """Remove a corrupt/evicted entry (object file + manifest row)."""
        self._memory.pop(digest, None)
        self._unlink_object(digest)
        self._update_manifest(lambda entries: entries.pop(digest, None))

    def get(self, key: TraceKey) -> Optional[Trace]:
        """Load ``key`` from memory or disk; None on miss.

        A checksum mismatch or undecodable object counts as a miss: the
        entry is dropped so the caller re-records a clean one.
        """
        digest = key.digest
        trace = self._memory_get(digest)
        if trace is not None:
            self.stats.memory_hits += 1
            return trace
        entry = self._read_manifest().get(digest)
        if entry is None:
            self.stats.misses += 1
            return None
        path = self._object_path(digest)
        try:
            blob = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            self._update_manifest(lambda entries: entries.pop(digest, None))
            return None
        if self._checksum(blob) != entry.get("checksum"):
            self.stats.corrupt_dropped += 1
            self.stats.misses += 1
            self._drop(digest)
            return None
        try:
            trace = self._deserialize(blob)
        except (TraceFormatError, OSError, EOFError):
            self.stats.corrupt_dropped += 1
            self.stats.misses += 1
            self._drop(digest)
            return None
        self.stats.disk_hits += 1
        self.stats.bytes_read += len(blob)
        # LRU recency for gc; a concurrent eviction is fine -- the blob
        # in hand is still good.
        touch(path)
        self._memory_put(digest, trace)
        return trace

    def put(self, key: TraceKey, trace: Trace) -> CorpusEntry:
        """Store ``trace`` under ``key`` (atomic, checksum recorded)."""
        digest = key.digest
        blob = self._serialize(trace)
        path = self._object_path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".tmp-{digest}-{os.getpid()}"
        tmp.write_bytes(blob)
        os.replace(tmp, path)
        entry = CorpusEntry(
            suite=key.suite,
            name=key.name,
            variant=key.variant,
            scale=float(key.scale),
            checksum=self._checksum(blob),
            events=len(trace),
            size=len(blob),
            created=time.time(),
        )
        self._update_manifest(
            lambda entries: entries.__setitem__(digest, asdict(entry))
        )
        self.stats.bytes_written += len(blob)
        self._memory_put(digest, trace)
        if self.max_bytes is not None:
            self.gc()
        return entry

    def get_or_record(
        self, key: TraceKey, record: Callable[[], Trace]
    ) -> Trace:
        """Two-tier lookup, recording (exactly once) on miss.

        The per-entry lock means that when a worker pool floods the
        store with the same missing key, one worker records while the
        rest block, re-check, and load the freshly stored object.
        """
        trace = self.get(key)
        if trace is not None:
            return trace
        with self._lock(key.digest):
            trace = self.get(key)  # someone may have recorded meanwhile
            if trace is not None:
                return trace
            trace = record()
            self.stats.recorded += 1
            self.put(key, trace)
        return trace

    # -- maintenance -------------------------------------------------------

    def verify(self) -> List[Tuple[CorpusEntry, bool, str]]:
        """Re-hash and re-parse every entry; (entry, ok, reason) rows."""
        report = []
        for entry in self.entries():
            try:
                blob = self._object_path(entry.key.digest).read_bytes()
            except OSError:
                report.append((entry, False, "object file missing"))
                continue
            if self._checksum(blob) != entry.checksum:
                report.append((entry, False, "checksum mismatch"))
                continue
            try:
                events = len(self._deserialize(blob))
            except (TraceFormatError, OSError, EOFError):
                report.append((entry, False, "undecodable object"))
                continue
            if events != entry.events:
                report.append(
                    (entry, False, f"{events} events, manifest says {entry.events}")
                )
                continue
            report.append((entry, True, "ok"))
        return report

    def gc(
        self,
        max_bytes: Optional[int] = None,
        orphan_grace: float = 60.0,
    ) -> List[CorpusEntry]:
        """Evict least-recently-used entries until the store fits.

        Also sweeps orphans: objects with no manifest row and manifest
        rows with no object.  Returns the evicted entries.

        ``orphan_grace`` protects objects younger than that many seconds
        from the orphan sweep: a concurrent :meth:`put` writes its
        object *before* its manifest row lands, so a zero-grace sweep
        could destroy a trace mid-store (the same race git's
        ``gc --prune=<age>`` exists for).
        """
        bound = self.max_bytes if max_bytes is None else max_bytes
        evicted: List[CorpusEntry] = []
        now = time.time()
        with self._lock("gc"):
            entries = self._read_manifest()
            known = set(entries)
            for digest, path in self._iter_objects().items():
                if digest in known:
                    continue
                age = mtime_age(path, now)
                if age is not None and age < orphan_grace:
                    continue  # likely a put() awaiting its manifest row
                try:
                    path.unlink()
                except OSError:
                    pass  # another process already removed it
            removed = {
                digest
                for digest in entries
                if not self._object_path(digest).exists()
            }
            if bound is not None:
                survivors = [d for d in entries if d not in removed]
                survivors.sort(key=self._mtime)
                sizes = {}
                for digest in survivors:
                    try:
                        sizes[digest] = self._object_path(digest).stat().st_size
                    except OSError:
                        sizes[digest] = 0
                total = sum(sizes.values())
                for digest in survivors:
                    if total <= bound:
                        break
                    total -= sizes[digest]
                    self._unlink_object(digest)
                    self._memory.pop(digest, None)
                    removed.add(digest)
                    evicted.append(CorpusEntry(**entries[digest]))
            if removed:
                self._update_manifest(
                    lambda rows: [rows.pop(digest, None) for digest in removed]
                )
        self.stats.evicted += len(evicted)
        return evicted


# -- process-wide active corpus -------------------------------------------
#
# The record_* helpers in repro.experiments.common consult this, so one
# assignment (or the REPRO_CORPUS_DIR environment variable) routes every
# experiment's traces through the persistent store.

_active: Optional[TraceCorpus] = None
_explicitly_set = False


def active_corpus() -> Optional[TraceCorpus]:
    """The process's corpus, or None.

    Unless :func:`set_active_corpus` was called, a corpus is opened
    lazily from ``$REPRO_CORPUS_DIR`` when that variable is set.
    """
    global _active
    if _active is None and not _explicitly_set:
        if os.environ.get("REPRO_CORPUS_DIR"):
            _active = TraceCorpus(default_corpus_dir())
    return _active


def set_active_corpus(  # conc: ok[CONC006] per-process config: each worker opens its own view, corpus_dir rides in via initializer/env
    corpus: Union[TraceCorpus, str, Path, None], **kwargs
) -> Optional[TraceCorpus]:
    """Install (or, with None, disable) the process-wide corpus."""
    global _active, _explicitly_set
    if isinstance(corpus, (str, Path)):
        corpus = TraceCorpus(corpus, **kwargs)
    _active = corpus
    _explicitly_set = True
    return _active
