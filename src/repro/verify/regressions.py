"""The regression corpus: shrunk divergences that replay forever.

Every divergence the fuzzer finds is shrunk and written here as a pair
of files under ``tests/regressions/``:

* ``<name>.trc`` -- the minimized trace, raw v3 columnar bytes (the
  same binary format ``repro record``/``repro replay`` speak);
* ``<name>.json`` -- a sidecar describing the table configuration the
  divergence needs, plus a human-readable description of what broke.

``tests/test_regressions.py`` parametrizes over every sidecar in the
directory and re-runs the full differential check, so a bug caught once
stays caught.  The corpus is also seeded with hand-minimized cases for
the classic hazards (mantissa-tag collision, replacement tie-break,
trivial-operand short-circuit) so the replay harness is exercised even
before the fuzzer ever finds anything.
"""

from __future__ import annotations

import io
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from ..core.config import (
    MemoTableConfig,
    ReplacementKind,
    TagMode,
    TrivialPolicy,
)
from ..isa.binfmt import read_column_blocks, write_column_trace
from ..isa.columns import ColumnBatch
from ..isa.trace import Opcode, TraceEvent
from .differential import FuzzCase, canonicalize

__all__ = [
    "RegressionCase",
    "load_cases",
    "write_case",
    "seed_cases",
    "SEED_CASES",
]

_NAME_RE = re.compile(r"[^a-z0-9]+")


def _slug(text: str) -> str:
    return _NAME_RE.sub("-", text.lower()).strip("-") or "case"


@dataclass(frozen=True)
class RegressionCase:
    """One on-disk regression: a minimal trace plus its table config."""

    name: str
    description: str
    case: FuzzCase

    def __str__(self) -> str:  # pytest id
        return self.name


def _config_to_json(config: MemoTableConfig) -> dict:
    return {
        "entries": config.entries,
        "associativity": config.associativity,
        "tag_mode": config.tag_mode.value,
        "replacement": config.replacement.value,
        "seed": config.seed,
    }


def _config_from_json(data: dict) -> MemoTableConfig:
    return MemoTableConfig(
        entries=int(data["entries"]),
        associativity=int(data["associativity"]),
        tag_mode=TagMode(data["tag_mode"]),
        replacement=ReplacementKind(data["replacement"]),
        seed=int(data.get("seed", 0)),
    )


def write_case(
    directory: Path,
    case: FuzzCase,
    description: str,
    name: Optional[str] = None,
    source: str = "fuzz",
) -> Path:
    """Write one regression (trace + sidecar); returns the sidecar path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    base = _slug(name or case.label or "divergence")
    candidate = base
    n = 1
    while (directory / f"{candidate}.json").exists():
        n += 1
        candidate = f"{base}-{n}"
    trace_path = directory / f"{candidate}.trc"
    buffer = io.BytesIO()
    write_column_trace(ColumnBatch.from_events(case.events), buffer)
    trace_path.write_bytes(buffer.getvalue())
    sidecar = {
        "name": candidate,
        "description": description,
        "trace": trace_path.name,
        "events": len(case.events),
        "config": _config_to_json(case.config),
        "trivial_policy": case.trivial_policy.value,
        "infinite": case.infinite,
        "source": source,
    }
    sidecar_path = directory / f"{candidate}.json"
    sidecar_path.write_text(json.dumps(sidecar, indent=2) + "\n")
    return sidecar_path


def load_cases(directory: Path) -> List[RegressionCase]:
    """Load every regression under ``directory`` (sorted by name)."""
    directory = Path(directory)
    cases: List[RegressionCase] = []
    if not directory.is_dir():
        return cases
    for sidecar_path in sorted(directory.glob("*.json")):
        data = json.loads(sidecar_path.read_text())
        trace_path = directory / data["trace"]
        with trace_path.open("rb") as stream:
            batch = ColumnBatch.concat(read_column_blocks(stream))
        events = tuple(batch.to_events())
        cases.append(
            RegressionCase(
                name=data["name"],
                description=data.get("description", ""),
                case=FuzzCase(
                    events=events,
                    config=_config_from_json(data["config"]),
                    trivial_policy=TrivialPolicy(data["trivial_policy"]),
                    infinite=bool(data.get("infinite", False)),
                    label=data["name"],
                ),
            )
        )
    return cases


# ---------------------------------------------------------------------------
# Hand-minimized seed cases
# ---------------------------------------------------------------------------


def _seed_mantissa_collision() -> Tuple[str, str, FuzzCase]:
    # 1.5 * 2.0 and 3.0 * 4.0 share mantissa bit patterns (0x8000... and
    # 0x0/0x0): under MANTISSA tags the second multiply HITS the first
    # entry and must be fixed up by exponent rescaling, not returned raw.
    events = [
        TraceEvent(Opcode.FMUL, 1.5, 2.0, 3.0),
        TraceEvent(Opcode.FMUL, 3.0, 4.0, 12.0),
        TraceEvent(Opcode.FMUL, 0.75, 0.5, 0.375),
        TraceEvent(Opcode.FDIV, 6.0, 1.5, 4.0),
        TraceEvent(Opcode.FDIV, 3.0, 0.75, 4.0),
    ]
    config = MemoTableConfig(
        entries=8, associativity=2, tag_mode=TagMode.MANTISSA
    )
    return (
        "seed-mantissa-tag-collision",
        "Same-mantissa/different-exponent operands must hit under "
        "MANTISSA tags and be rescaled, bit-exactly, on all paths.",
        FuzzCase(
            events=canonicalize(events),
            config=config,
            label="seed-mantissa-tag-collision",
        ),
    )


def _seed_replacement_tiebreak() -> Tuple[str, str, FuzzCase]:
    # Four distinct pairs land in the same set of a 4-entry 2-way LRU
    # table, forcing evictions where both ways were inserted on
    # consecutive clocks; the victim choice (strict argmin, first way
    # wins ties) must match across oracle, scalar and fused paths.
    events = [
        TraceEvent(Opcode.FMUL, 3.0, 5.0, 15.0),
        TraceEvent(Opcode.FMUL, 7.0, 11.0, 77.0),
        TraceEvent(Opcode.FMUL, 13.0, 17.0, 221.0),
        TraceEvent(Opcode.FMUL, 3.0, 5.0, 15.0),
        TraceEvent(Opcode.FMUL, 19.0, 23.0, 437.0),
        TraceEvent(Opcode.FMUL, 7.0, 11.0, 77.0),
        TraceEvent(Opcode.FMUL, 13.0, 17.0, 221.0),
    ]
    config = MemoTableConfig(
        entries=4, associativity=2, replacement=ReplacementKind.LRU
    )
    return (
        "seed-replacement-tiebreak",
        "Eviction pressure in one set of a tiny LRU table: the victim "
        "scan's tie-break (lowest way index) must agree on all paths.",
        FuzzCase(
            events=canonicalize(events),
            config=config,
            label="seed-replacement-tiebreak",
        ),
    )


def _seed_trivial_shortcircuit() -> Tuple[str, str, FuzzCase]:
    # Trivial operands (x*0, x*1, 0/x, x/1, x/x) must short-circuit
    # under EXCLUDE -- never entering the table -- while the non-trivial
    # neighbours still memoize; includes the signed-zero multiply and
    # the a==0 division whose result is float 0.0 by definition.
    events = [
        TraceEvent(Opcode.FMUL, 2.5, 0.0, 0.0),
        TraceEvent(Opcode.FMUL, -0.0, 2.5, -0.0),
        TraceEvent(Opcode.FMUL, 2.5, 1.0, 2.5),
        TraceEvent(Opcode.FMUL, 2.5, 3.0, 7.5),
        TraceEvent(Opcode.FDIV, 0.0, 7.0, 0.0),
        TraceEvent(Opcode.FDIV, 7.0, 1.0, 7.0),
        TraceEvent(Opcode.FDIV, 7.0, 7.0, 1.0),
        TraceEvent(Opcode.FDIV, 7.0, 2.0, 3.5),
        TraceEvent(Opcode.FMUL, 2.5, 3.0, 7.5),
        TraceEvent(Opcode.IMUL, 6, 0, 0),
        TraceEvent(Opcode.IMUL, 6, 9, 54),
    ]
    config = MemoTableConfig(entries=8, associativity=4)
    return (
        "seed-trivial-shortcircuit",
        "Trivial operands under EXCLUDE must bypass the table on every "
        "path while interleaved non-trivial work still memoizes.",
        FuzzCase(
            events=canonicalize(events),
            config=config,
            label="seed-trivial-shortcircuit",
        ),
    )


def _seed_speculation_abort() -> Tuple[str, str, FuzzCase]:
    # A hot two-op loop (recurring pcs) that repeats the same two
    # operand pairs for several iterations, then changes one operand on
    # the final iteration: the fused kernel's shared pair ids must give
    # way to a fresh id mid-stream bit-exactly (stats, recency and the
    # new entry's insertion all land as the scalar protocol would).
    events = []
    for _ in range(5):
        events.append(TraceEvent(Opcode.FMUL, 2.5, 3.0, 7.5, pc=64))
        events.append(TraceEvent(Opcode.FDIV, 9.0, 2.0, 4.5, pc=68))
    events.append(TraceEvent(Opcode.FMUL, 2.5, 4.0, 10.0, pc=64))
    events.append(TraceEvent(Opcode.FDIV, 9.0, 2.0, 4.5, pc=68))
    config = MemoTableConfig(entries=8, associativity=2)
    return (
        "seed-speculation-abort",
        "A hot two-op loop whose last iteration changes an operand: "
        "the new pair must take a fresh pair id and a fresh entry "
        "between repeated ones, bit-exactly on every counter.",
        FuzzCase(
            events=canonicalize(events),
            config=config,
            label="seed-speculation-abort",
        ),
    )


#: name -> (description, case) for the hand-minimized seeds.
SEED_CASES = {
    name: (description, case)
    for name, description, case in (
        _seed_mantissa_collision(),
        _seed_replacement_tiebreak(),
        _seed_trivial_shortcircuit(),
        _seed_speculation_abort(),
    )
}


def seed_cases(directory: Path, overwrite: bool = False) -> List[Path]:
    """Materialize the built-in seed regressions into ``directory``."""
    directory = Path(directory)
    written = []
    for name, (description, case) in SEED_CASES.items():
        sidecar = directory / f"{name}.json"
        if sidecar.exists():
            if not overwrite:
                continue
            os.unlink(sidecar)
            trace = directory / f"{name}.trc"
            if trace.exists():
                os.unlink(trace)
        written.append(
            write_case(
                directory, case, description, name=name, source="hand-minimized"
            )
        )
    return written
