"""Run state shared by the workloads: paths, failure tally, count guard."""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List


def source_hash(root: Path) -> str:
    """Digest of the program's and the benchmark's sources (keys the warm
    corpus and the stored counts, so neither outlives the code that
    produced it)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def child_env(root: Path) -> Dict[str, str]:
    """Environment of every process the benchmark starts: the checkout's
    sources first on the path, no inherited ``REPRO_*`` selection."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join((str(root / "src"), str(root)))
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Run:
    root: Path
    workload: str
    seed: int
    seconds: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    counts: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.cache_dir = self.root / ".bench_build" / "perfbench"
        self.workdir = self.cache_dir / f"run-{os.getpid()}"
        self.trace_dir = self.cache_dir / "traces"
        for directory in (self.workdir, self.trace_dir):
            directory.mkdir(parents=True, exist_ok=True)
        self.source_hash = source_hash(self.root)

    def fail(self, operations: int, message: str) -> None:
        self.failed += operations
        self.problems.append(message)
        print(f"perfbench: FAILED: {message}", file=sys.stderr)

    def guard_counts(self, kind: str, counts: Dict[str, Any]) -> None:
        """Counts of one kind must repeat exactly in every iteration."""
        first = self.counts.setdefault(kind, dict(counts))
        if first != counts:
            self.fail(1, f"{kind} counts changed between iterations: "
                         f"{first} != {counts}")

    def check_stored_counts(self) -> None:
        """Counts must also repeat across runs of one seed: the first run
        of a seed on this source tree stores them, later runs compare."""
        store = self.cache_dir / "counts" / (
            f"{self.workload}-{self.seed}-{self.source_hash}.json"
        )
        stored: Dict[str, Any] = {}
        if store.exists():
            stored = json.loads(store.read_text(encoding="utf-8"))
        for kind, counts in self.counts.items():
            if kind in stored and stored[kind] != counts:
                self.fail(1, f"{kind} counts differ from an earlier run of "
                             f"seed {self.seed}: {stored[kind]} != {counts}")
        if any(kind not in stored for kind in self.counts):
            store.parent.mkdir(parents=True, exist_ok=True)
            tmp = store.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps({**self.counts, **stored}), encoding="utf-8")
            os.replace(tmp, store)
