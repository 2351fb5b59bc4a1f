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

    <root>/objects/<dd>/<digest>.trc.gz   one self-describing object per
                                  trace, sharded by the first two digest
                                  hex chars
    <root>/locks/                 cooperative lock files

Objects are **sharded by content hash** into a 256-way prefix fan-out
(``objects/3f/<digest>.trc.gz``), which keeps directory listings bounded
when the experiment service floods the store with thousands of traces,
and gives a natural unit for placing shards on separate disks/hosts.
Each digest has exactly one object path.

An object is a small header in front of the gzip'd ``RPROTRC3``
payload (all integers little-endian)::

    b"RPROOBJ1"                      magic
    <u16 n><n bytes utf-8>  x 3      suite, name, variant
    <f64 scale> <u64 events>
    <32 bytes>                       sha256 of the payload
    <payload>                        to the end of the file

Every header byte is checked: the key against the digest in the
object's path, the checksum against the payload and the event count
against the decoded trace.  Nothing is kept beside the objects, so
listing, verifying and collecting walk the shards.

Properties:

* **content-addressed** -- the object name is a SHA-256 digest of the
  key fields and the recorder version, so a recorder change can never
  silently serve stale traces;
* **verified** -- every load checks the whole header and decodes the
  payload as an ``RPROTRC3`` stream; a truncated or flipped file, one
  without a header, or one in any other format, is dropped and the
  caller transparently re-records;
* **bounded** -- :meth:`TraceCorpus.gc` evicts least-recently-used
  objects (recency = object mtime, touched on every hit) until the
  store fits ``max_bytes``;
* **concurrent** -- a :meth:`~TraceCorpus.put` is one tmp write plus an
  atomic rename, so readers see a whole object or none, and
  :meth:`~TraceCorpus.get_or_record` serializes recording per entry
  through ``O_EXCL`` lock files (with stale-lock breaking), so a worker
  pool records each missing trace exactly once.

The store keeps no traces in memory: :mod:`repro.experiments.common`
holds the one in-process LRU, in front of the store.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import os
import struct
import time
import zlib
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import (
    BinaryIO, Callable, Dict, List, NamedTuple, Optional, Tuple, Union,
)

from ..errors import CorpusLockError, TraceFormatError
from ..fsutil import FileLock, mtime_age, touch
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

_GZIP_LEVEL = 3

#: Hex chars of the digest used as the shard directory name (2 -> 256
#: subdirectories under ``objects/``).
_SHARD_WIDTH = 2

#: Seconds after which a lock file or a ``.tmp-*`` object file is taken
#: to belong to a process that died.
_STALE_AFTER = 600.0

_MAGIC = b"RPROOBJ1"
_LENGTH = struct.Struct("<H")
_TAIL = struct.Struct("<dQ32s")  # scale, events, payload sha256


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
    """One stored trace, as its object's header describes it."""

    suite: str
    name: str
    variant: str
    scale: float
    checksum: str  # sha256 of the gzip payload
    events: int
    size: int  # bytes on disk, header included

    @property
    def key(self) -> TraceKey:
        return TraceKey(self.suite, self.name, self.variant, self.scale)


@dataclass
class CorpusStats:
    """Per-process counters (the acceptance check for warm runs:
    ``recorded == 0`` means every trace came from the store)."""

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


def _encode_header(key: TraceKey, events: int, checksum: bytes) -> bytes:
    """The header of ``key``'s object (layout in the module docstring)."""
    parts = [_MAGIC]
    for text in (key.suite, key.name, key.variant):
        raw = text.encode("utf-8")
        parts += (_LENGTH.pack(len(raw)), raw)
    parts.append(_TAIL.pack(float(key.scale), events, checksum))
    return b"".join(parts)


def _read_header(
    stream: BinaryIO, digest: str, size: int
) -> Optional[CorpusEntry]:
    """The entry an object's header describes, leaving ``stream`` at the
    payload; None when the header is absent, cut short, undecodable or
    names a key whose digest is not ``digest``."""
    if stream.read(len(_MAGIC)) != _MAGIC:
        return None
    try:
        fields = []
        for _ in range(3):
            (length,) = _LENGTH.unpack(stream.read(_LENGTH.size))
            raw = stream.read(length)
            if len(raw) != length:
                return None
            fields.append(raw.decode("utf-8"))
        scale, events, checksum = _TAIL.unpack(stream.read(_TAIL.size))
    except (struct.error, UnicodeDecodeError):
        return None
    entry = CorpusEntry(*fields, scale, checksum.hex(), events, size)
    if entry.key.digest != digest:
        return None
    return entry


def _remove(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass  # another process removed it first


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
        lock_timeout: float = 120.0,
    ) -> None:
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.locks_dir = self.root / "locks"
        for directory in (self.root, self.objects_dir, self.locks_dir):
            directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.lock_timeout = lock_timeout
        self.stats = CorpusStats()

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

    def _load(
        self, digest: str, blob: bytes
    ) -> Tuple[Optional[CorpusEntry], Optional[Trace], Optional[str]]:
        """Check ``blob`` as the object of ``digest``: (entry, trace,
        None) when it is sound, else (entry, None, what is wrong), with
        entry None when the header cannot be read."""
        stream = io.BytesIO(blob)
        entry = _read_header(stream, digest, len(blob))
        if entry is None:
            return None, None, "unreadable header"
        payload = blob[stream.tell():]
        if hashlib.sha256(payload).hexdigest() != entry.checksum:
            return entry, None, "checksum mismatch"
        try:
            trace = self._deserialize(payload)
        except (TraceFormatError, OSError, EOFError, zlib.error):
            return entry, None, "undecodable object"
        if len(trace) != entry.events:
            return entry, None, f"{len(trace)} events, header says {entry.events}"
        return entry, trace, None

    # -- layout ------------------------------------------------------------

    def _lock(self, name: str) -> FileLock:
        return FileLock(
            self.locks_dir / f"{name}.lock",
            timeout=self.lock_timeout,
            stale_after=_STALE_AFTER,
            error=CorpusLockError,
            poll=0.02,
        )

    def _object_path(self, digest: str) -> Path:
        """The one on-disk location of a digest's object."""
        return self.objects_dir / digest[:_SHARD_WIDTH] / f"{digest}.trc.gz"

    def _iter_objects(self) -> Dict[str, Path]:
        """Every stored object: digest -> path."""
        return {
            path.name[: -len(".trc.gz")]: path
            for path in self.objects_dir.glob(
                f"{'[0-9a-f]' * _SHARD_WIDTH}/*.trc.gz"
            )
        }

    def _scan(self) -> List[Tuple[Path, Optional[CorpusEntry]]]:
        """Every object with the entry its header describes (None when
        the header cannot be read), least recently used first."""
        found = []
        for digest, path in self._iter_objects().items():
            try:
                with path.open("rb") as stream:
                    stat = os.fstat(stream.fileno())
                    entry = _read_header(stream, digest, stat.st_size)
            except OSError:
                continue  # removed by another process since the glob
            found.append((stat.st_mtime, digest, path, entry))
        found.sort(key=lambda row: row[:2])
        return [(path, entry) for _, _, path, entry in found]

    def entries(self) -> List[CorpusEntry]:
        """Every object whose header reads, most recently used last."""
        return [entry for _, entry in self._scan() if entry is not None]

    def unreadable(self) -> List[Path]:
        """Every object whose header cannot be read, least recently
        used first: :meth:`entries` leaves it out, :meth:`verify`
        flags it and :meth:`gc` removes it."""
        return [path for path, entry in self._scan() if entry is None]

    def total_bytes(self) -> int:
        total = 0
        for path in self._iter_objects().values():
            try:
                total += path.stat().st_size
            except OSError:
                pass  # concurrently evicted between glob and stat
        return total

    def __len__(self) -> int:
        return len(self.entries())

    # -- load and store ----------------------------------------------------

    def get(self, key: TraceKey) -> Optional[Trace]:
        """Load ``key`` from disk; None on miss.

        A damaged object (see :meth:`_load`) counts as a miss: it is
        removed so the caller re-records a clean one.
        """
        digest = key.digest
        path = self._object_path(digest)
        try:
            blob = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        _, trace, _ = self._load(digest, blob)
        if trace is None:
            self.stats.corrupt_dropped += 1
            self.stats.misses += 1
            _remove(path)
            return None
        self.stats.disk_hits += 1
        self.stats.bytes_read += len(blob)
        # LRU recency for gc; a concurrent eviction is fine -- the blob
        # in hand is still good.
        touch(path)
        return trace

    def put(self, key: TraceKey, trace: Trace) -> CorpusEntry:
        """Store ``trace`` under ``key``: one tmp write, one atomic rename."""
        digest = key.digest
        payload = self._serialize(trace)
        checksum = hashlib.sha256(payload)
        blob = _encode_header(key, len(trace), checksum.digest()) + payload
        path = self._object_path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".tmp-{digest}-{os.getpid()}"
        tmp.write_bytes(blob)
        os.replace(tmp, path)
        self.stats.bytes_written += len(blob)
        if self.max_bytes is not None:
            self.gc()
        return CorpusEntry(
            key.suite, key.name, key.variant, float(key.scale),
            checksum.hexdigest(), len(trace), len(blob),
        )

    def get_or_record(
        self, key: TraceKey, record: Callable[[], Trace]
    ) -> Trace:
        """Load ``key``, recording (exactly once) on miss.

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

    def verify(self) -> List[Tuple[str, Optional[CorpusEntry], Optional[str]]]:
        """Check every object in full, in digest order.

        Rows are ``(digest, entry, problem)``: ``problem`` is None for a
        sound object, and ``entry`` None when its header cannot be read.
        """
        report = []
        for digest, path in sorted(self._iter_objects().items()):
            try:
                blob = path.read_bytes()
            except OSError:
                continue  # removed by another process since the glob
            entry, _, problem = self._load(digest, blob)
            report.append((digest, entry, problem))
        return report

    def gc(
        self,
        max_bytes: Optional[int] = None,
        swept: Optional[List[Path]] = None,
    ) -> List[CorpusEntry]:
        """Sweep what cannot be served, then evict least-recently-used
        entries until the store fits ``max_bytes`` (default: the store's
        own bound; with neither, only sweep).  Returns the evicted
        entries.

        The sweep removes objects whose header cannot be read and
        ``.tmp-*`` files older than the stale age, left by a ``put``
        that died before its rename.  Only complete files ever reach an
        object path, so the sweep needs no grace window.  ``swept``,
        when given, receives the path of every file the sweep removed.
        """
        bound = self.max_bytes if max_bytes is None else max_bytes
        evicted: List[CorpusEntry] = []
        now = time.time()
        with self._lock("gc"):
            sweep = []
            pattern = f"{'[0-9a-f]' * _SHARD_WIDTH}/.tmp-*"
            for tmp in self.objects_dir.glob(pattern):
                age = mtime_age(tmp, now)
                if age is not None and age > _STALE_AFTER:
                    sweep.append(tmp)
            live = []
            for path, entry in self._scan():
                if entry is None:
                    sweep.append(path)
                else:
                    live.append((path, entry))
            doomed = list(sweep)
            if bound is not None:
                total = sum(entry.size for _, entry in live)
                for path, entry in live:
                    if total <= bound:
                        break
                    total -= entry.size
                    doomed.append(path)
                    evicted.append(entry)
            for path in doomed:
                _remove(path)
        self.stats.evicted += len(evicted)
        if swept is not None:
            swept.extend(sweep)
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
