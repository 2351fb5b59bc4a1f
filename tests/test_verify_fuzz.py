"""The fuzzer, the fault-injection smoke gate, and the shrinker.

Tier-1 keeps the budgets small (a clean mini-campaign plus a detection
run per fault); the nightly job runs the same machinery at 10k cases
via ``repro verify fuzz`` (see ``.github/workflows``).
"""

import dataclasses

import pytest

from repro.core import kernel
from repro.verify.differential import _bits, run_case
from repro.verify.faults import KERNEL_FAULTS, inject
from repro.verify.fuzz import TraceFuzzer, fuzz_run
from repro.verify.regressions import load_cases, write_case
from repro.verify.shrink import shrink_case

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


def _case_key(case):
    """A case's identity, bit-exact in every operand and result: ``==``
    is false for two equal NaN fields and true for 0.0 against -0.0."""
    events = tuple(
        (event.opcode, _bits(event.a), _bits(event.b), _bits(event.result),
         event.address, event.dst, event.srcs, event.pc)
        for event in case.events
    )
    return events, dataclasses.replace(case, events=())


def _first_cases(seed, count=10):
    fuzzer = TraceFuzzer(seed=seed)
    return [_case_key(fuzzer.next_case()) for _ in range(count)]


class TestFuzzerGeneration:
    def test_deterministic_for_a_seed(self):
        assert _first_cases(7) == _first_cases(7)
        assert _first_cases(7) != _first_cases(8)

    def test_events_always_serializable(self):
        fuzzer = TraceFuzzer(seed=3)
        for _ in range(50):
            case = fuzzer.next_case()
            for event in case.events:
                if isinstance(event.a, int):
                    assert INT64_MIN <= event.a <= INT64_MAX
                    assert INT64_MIN <= event.b <= INT64_MAX
                    assert INT64_MIN <= event.result <= INT64_MAX

    def test_coverage_corpus_grows(self):
        fuzzer = TraceFuzzer(seed=1)
        for _ in range(30):
            case = fuzzer.next_case()
            fuzzer.observe(case, run_case(case))
        assert len(fuzzer.seen_features) > 30
        assert fuzzer.corpus


class TestCleanCampaign:
    def test_mini_campaign_finds_nothing(self):
        report = fuzz_run(120, seed=2)
        assert report.ok, report.divergent[0].divergences
        assert report.cases == 120
        assert report.events > 0 and report.features > 0

    def test_campaign_is_reproducible(self):
        first = fuzz_run(40, seed=5)
        second = fuzz_run(40, seed=5)
        assert (first.cases, first.events, first.features) == (
            second.cases, second.events, second.features
        )


class TestFaultDetection:
    """Acceptance: every planted kernel bug is caught within budget."""

    @pytest.mark.parametrize("fault", sorted(KERNEL_FAULTS))
    def test_fault_detected_within_budget(self, fault):
        with inject(fault):
            report = fuzz_run(400, seed=0)
        assert report.divergent, f"fault {fault} escaped {report.cases} cases"

    def test_injection_restores_the_kernel(self):
        assert kernel._active_fault is None
        with inject("dropped_trivial_mask"):
            assert kernel._active_fault == "dropped_trivial_mask"
        assert kernel._active_fault is None
        with pytest.raises(ValueError, match="unknown fault"):
            with inject("not_a_fault"):
                pass


@pytest.mark.fuzz
def test_nightly_scale_clean_campaign():
    """The deep campaign (nightly only; tier-1 runs the mini version)."""
    report = fuzz_run(3000, seed=1)
    assert report.ok, report.divergent[0].divergences


class TestShrinking:
    def test_shrunk_case_is_smaller_and_still_diverges(self, tmp_path):
        with inject("dropped_trivial_mask"):
            report = fuzz_run(400, seed=0)
            case = report.divergent[0].case
            small = shrink_case(case)
            assert len(small.events) <= len(case.events)
            assert len(small.events) <= 4  # this fault needs ~1 event
            final = run_case(small)
            assert final.divergences, "shrinking lost the divergence"

            # The shrunk case round-trips through the regression corpus
            # and still detects the fault after reload.
            sidecar = write_case(
                tmp_path, small, "; ".join(final.divergences)
            )
            assert sidecar.exists()
            [loaded] = load_cases(tmp_path)
            assert run_case(loaded.case).divergences
        # ... and is clean once the fault is gone.
        assert run_case(loaded.case).ok
