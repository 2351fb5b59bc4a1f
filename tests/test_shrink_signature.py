"""Shrinking must reproduce the *original* divergence, not just any.

The classic ddmin failure mode: while minimizing a stats divergence,
some truncated trace happens to crash for an unrelated reason, ddmin
treats "still diverges" as success, and the reported "minimal" case
reproduces a different bug than the one found.  ``shrink_case`` now
keys acceptance on the divergence signature; the decoy test below fails
against the old any-divergence predicate.
"""

import pytest

from repro.verify import shrink as shrink_mod
from repro.verify.differential import CaseResult, run_case
from repro.verify.fuzz import TraceFuzzer
from repro.verify.shrink import divergence_signature, shrink_case


class TestDivergenceSignature:
    def test_report_kinds(self):
        sig = divergence_signature([
            "stats: fused != scalar for unit FP_MUL",
            "table contents: fused and scalar tables differ",
            "delivered value: event 3",
            "reuse bound: unit INT_MUL",
        ])
        assert sig == frozenset(
            {"stats", "table contents", "delivered value", "reuse bound"}
        )

    def test_crash_kinds_carry_path_and_exception(self):
        sig = divergence_signature([
            "crash: oracle raised ZeroDivisionError('division by zero')",
            "crash: fused kernel raised ValueError('bad column')",
        ])
        assert sig == frozenset({
            "crash:oracle:ZeroDivisionError",
            "crash:fused kernel:ValueError",
        })

    def test_distinct_exceptions_do_not_match(self):
        original = divergence_signature(
            ["crash: oracle raised ZeroDivisionError('x')"]
        )
        decoy = divergence_signature(
            ["crash: scalar path raised ValueError('decoy')"]
        )
        assert not (original & decoy)

    def test_empty_report_has_empty_signature(self):
        assert divergence_signature([]) == frozenset()


def _case_with_events(minimum):
    fuzzer = TraceFuzzer(seed=11)
    for _ in range(200):
        case = fuzzer.next_case()
        if len(case.events) >= minimum:
            return case
    raise AssertionError("fuzzer produced no case of the wanted size")


class TestDecoyRegression:
    """A decoy crash on small traces must not hijack the reduction."""

    THRESHOLD = 4

    def _install_decoy(self, monkeypatch):
        threshold = self.THRESHOLD

        def fake_run_case(case):
            if len(case.events) >= threshold:
                return CaseResult(
                    case=case,
                    divergences=["stats: fused != scalar for unit FP_MUL"],
                )
            return CaseResult(
                case=case,
                divergences=["crash: scalar path raised ValueError('decoy')"],
            )

        monkeypatch.setattr(shrink_mod, "run_case", fake_run_case)
        return fake_run_case

    def test_shrink_never_crosses_into_the_decoy(self, monkeypatch):
        fake = self._install_decoy(monkeypatch)
        case = _case_with_events(self.THRESHOLD * 4)
        small = shrink_case(case, result=fake(case))
        # Every trace below THRESHOLD "diverges" (the decoy crash), so
        # the old any-divergence predicate reduced straight to 1 event.
        assert len(small.events) >= self.THRESHOLD
        assert "stats" in divergence_signature(fake(small).divergences)

    def test_signature_recorded_when_result_not_given(self, monkeypatch):
        fake = self._install_decoy(monkeypatch)
        case = _case_with_events(self.THRESHOLD * 4)
        small = shrink_case(case)
        assert len(small.events) >= self.THRESHOLD


class TestRealShrinkStillWorks:
    def test_shrunk_case_reproduces_same_kind(self):
        from repro.verify.faults import inject

        # Find a genuine divergence under an injected fault, then check
        # the shrunk case diverges with an overlapping signature.
        from repro.verify.fuzz import fuzz_run

        with inject("lru_victim_off_by_one"):
            report = fuzz_run(300, seed=3, stop_after=1)
            assert report.divergent, "fault not detected; cannot test shrink"
            result = report.divergent[0]
            small = shrink_case(result.case, result=result)
            final = run_case(small)
        assert final.divergences
        assert divergence_signature(final.divergences) & divergence_signature(
            result.divergences
        )
