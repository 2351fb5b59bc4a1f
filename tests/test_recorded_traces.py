"""Recorded traces are pinned byte for byte.

Every number the experiments print is replayed from a recorded trace,
so a recorder or machine change that moves one operand, flag, PC or
dataflow edge must fail here, not in a table three layers later.  Each
case re-records one trace and compares the sha256 of its uncompressed
v3 payload (``write_column_trace``) with
``fixtures/recorded_trace_digests.json``.

The set covers every Khoros kernel on Muppet1 (plus vgauss with
``record_sites``), every Perfect and SPEC CFP95 app and the
transcendental workloads of ``ext-future-ops`` at scale 0.05, and every
bundled ISA program at n = 64.  Regenerate the fixture only when a
change is meant to move a recording:

    PYTHONPATH=src python tests/test_recorded_traces.py
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.analysis.static.memo import reference_machine
from repro.images import generate
from repro.isa.binfmt import write_column_trace
from repro.isa.programs import PROGRAMS
from repro.workloads.khoros import kernel_names, run_kernel
from repro.workloads.perfect import perfect_names, run_perfect
from repro.workloads.recorder import OperationRecorder
from repro.workloads.speccfp import run_speccfp, speccfp_names
from repro.workloads.transcendental import (
    log_compress,
    sine_synthesis,
    texture_rotation,
)

FIXTURE = Path(__file__).parent / "fixtures" / "recorded_trace_digests.json"
SCALE = 0.05
PROGRAM_N = 64


def _recorded(body: Callable, record_sites: bool = False) -> Callable:
    def record():
        recorder = OperationRecorder(record_sites=record_sites)
        body(recorder)
        return recorder.trace

    return record


def _machine(name: str) -> Callable:
    def record():
        machine = reference_machine(name, PROGRAM_N)
        machine.run()
        return machine.trace

    return record


def _cases() -> Dict[str, Callable]:
    cases: Dict[str, Callable] = {}
    muppet = generate("Muppet1", scale=SCALE)
    for kernel in kernel_names():
        cases[f"mm:{kernel}"] = _recorded(
            lambda r, k=kernel: run_kernel(k, r, muppet)
        )
    cases["mm:vgauss:sites"] = _recorded(
        lambda r: run_kernel("vgauss", r, muppet), record_sites=True
    )
    for app in perfect_names():
        cases[f"perfect:{app}"] = _recorded(
            lambda r, a=app: run_perfect(a, r, scale=SCALE)
        )
    for app in speccfp_names():
        cases[f"spec:{app}"] = _recorded(
            lambda r, a=app: run_speccfp(a, r, scale=SCALE)
        )
    for image_name in ("Muppet1", "fractal"):
        image = generate(image_name, scale=SCALE)
        cases[f"future:log_compress:{image_name}"] = _recorded(
            lambda r, img=image: log_compress(r, img)
        )
        cases[f"future:texture_rotation:{image_name}"] = _recorded(
            lambda r, img=image: texture_rotation(r, img)
        )
    cases["future:sine_synthesis"] = _recorded(
        lambda r: sine_synthesis(r, samples=max(128, int(2048 * SCALE)))
    )
    for program in PROGRAMS:
        cases[f"isa:{program}"] = _machine(program)
    return cases


CASES = _cases()


def _digest(trace) -> Dict[str, object]:
    payload = io.BytesIO()
    write_column_trace(trace, payload)
    return {
        "events": len(trace),
        "sha256": hashlib.sha256(payload.getvalue()).hexdigest(),
    }


@pytest.fixture(scope="module")
def pinned() -> Dict[str, Dict[str, object]]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_exactly_the_recorded_set(pinned):
    assert sorted(pinned) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_recording_is_byte_identical(name, pinned):
    assert _digest(CASES[name]()) == pinned[name]


if __name__ == "__main__":
    digests = {name: _digest(record()) for name, record in sorted(CASES.items())}
    FIXTURE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {FIXTURE}")
