"""Property-based tests for the serve layer's protocol and job queue.

Two halves:

* ``normalize_spec`` / ``job_id_for`` laws -- canonicalization is
  idempotent, key order never changes a job's identity, defaults are
  made explicit, and malformed specs raise :class:`ServeProtocolError`
  rather than producing a spec that hashes.
* A hypothesis state machine driving a real on-disk :class:`JobQueue`
  through random submit/claim/heartbeat/complete/fail/cancel sequences
  while a naive reference model tracks what each job's state must be --
  including the stale-worker rules the PR 6 review tightened: a worker
  whose lease was taken away must not be able to complete, fail or
  heartbeat the job.
"""

import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.analysis.static.memo import reference_machine
from repro.isa.programs import (
    PROGRAM_STEP_BUDGET,
    PROGRAMS,
    SAMPLE_STEP_BUDGET,
    STEPS_PER_ELEMENT,
)
from repro.serve.protocol import (
    JobSpec,
    ServeProtocolError,
    job_id_for,
    normalize_spec,
)
from repro.serve.queue import JobQueue

# ---------------------------------------------------------------------------
# spec strategies


def _shuffled(mapping, order):
    keys = sorted(mapping)
    order.shuffle(keys)
    return {key: mapping[key] for key in keys}


fuzz_specs = st.fixed_dictionaries(
    {"type": st.just("fuzz")},
    optional={
        "budget": st.integers(min_value=1, max_value=5000),
        "seed": st.integers(min_value=0, max_value=2**31 - 1),
        "max_events": st.integers(min_value=48, max_value=4096),
        "delay": st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        "timeout": st.floats(min_value=0.1, max_value=600.0, allow_nan=False),
    },
)

program_specs = st.fixed_dictionaries(
    {
        "type": st.just("program"),
        "program": st.sampled_from(
            ["saxpy", "dot_product", "vector_normalize", "sobel_gx"]
        ),
    },
    optional={
        "n": st.integers(min_value=1, max_value=512),
        "entries": st.sampled_from([8, 16, 32, 64]),
        "ways": st.sampled_from([1, 2, 4]),
        "mantissa": st.booleans(),
    },
)

valid_specs = st.one_of(fuzz_specs, program_specs)


class TestNormalizeSpecLaws:
    @given(valid_specs)
    @settings(max_examples=60)
    def test_idempotent(self, spec):
        canonical = normalize_spec(spec)
        assert normalize_spec(canonical) == canonical

    @given(valid_specs, st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_key_order_never_changes_identity(self, spec, order):
        assert job_id_for(normalize_spec(spec)) == job_id_for(
            normalize_spec(_shuffled(spec, order))
        )

    @given(fuzz_specs)
    @settings(max_examples=40)
    def test_fuzz_defaults_are_explicit(self, spec):
        canonical = normalize_spec(spec)
        for key in ("budget", "seed", "max_events"):
            assert key in canonical

    @given(program_specs)
    @settings(max_examples=40)
    def test_program_defaults_are_explicit(self, spec):
        canonical = normalize_spec(spec)
        for key in ("n", "entries", "ways", "mantissa"):
            assert key in canonical

    @given(valid_specs)
    @settings(max_examples=40)
    def test_job_id_is_16_hex_chars(self, spec):
        job_id = job_id_for(normalize_spec(spec))
        assert len(job_id) == 16
        int(job_id, 16)  # hex or ValueError

    @given(valid_specs)
    @settings(max_examples=40)
    def test_jobspec_wrapper_agrees(self, spec):
        job = JobSpec(dict(spec))
        assert job.spec == normalize_spec(spec)
        assert job.id == job_id_for(job.spec)

    @given(valid_specs, st.text(min_size=1, max_size=12))
    @settings(max_examples=40)
    def test_unknown_field_rejected(self, spec, key):
        assume(key not in ("type", "delay", "timeout", "budget", "seed",
                           "max_events", "program", "n", "entries", "ways",
                           "mantissa", "experiment", "kwargs"))
        bad = dict(spec)
        bad[key] = 1
        with pytest.raises(ServeProtocolError):
            normalize_spec(bad)

    @given(st.text(max_size=12))
    @settings(max_examples=40)
    def test_unknown_type_rejected(self, kind):
        assume(kind not in ("experiment", "program", "fuzz"))
        with pytest.raises(ServeProtocolError):
            normalize_spec({"type": kind})

    @given(st.one_of(st.none(), st.integers(), st.lists(st.integers()),
                     st.text()))
    @settings(max_examples=20)
    def test_non_dict_spec_rejected(self, not_a_dict):
        with pytest.raises(ServeProtocolError):
            normalize_spec(not_a_dict)

    @given(st.integers(min_value=0, max_value=47))
    @settings(max_examples=20)
    def test_fuzz_max_events_floor(self, cap):
        with pytest.raises(ServeProtocolError):
            normalize_spec({"type": "fuzz", "max_events": cap})


class TestNumericFields:
    """Every numeric field is finite, integer fields are integral, and
    ``delay >= 0``, ``timeout > 0`` and ``n`` within its job type's step
    budget; anything else is a :class:`ServeProtocolError` (HTTP 400),
    never an ``OverflowError``, a truncation or a job that cannot end."""

    NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])

    @given(
        field=st.sampled_from(["n", "entries", "ways"]),
        value=st.one_of(
            NON_FINITE,
            st.floats(allow_nan=False, allow_infinity=False).filter(
                lambda v: not v.is_integer()
            ),
        ),
    )
    @settings(max_examples=60)
    def test_program_integer_fields_rejected(self, field, value):
        with pytest.raises(ServeProtocolError):
            normalize_spec(
                {"type": "program", "program": "saxpy", field: value}
            )

    @given(st.integers(min_value=1, max_value=512))
    @settings(max_examples=20)
    def test_integral_float_is_the_integer(self, n):
        as_float = normalize_spec(
            {"type": "program", "program": "saxpy", "n": float(n)}
        )
        as_int = normalize_spec({"type": "program", "program": "saxpy", "n": n})
        assert as_float == as_int
        assert job_id_for(as_float) == job_id_for(as_int)

    @given(
        field=st.sampled_from(["delay", "timeout"]),
        value=st.one_of(
            NON_FINITE,
            st.floats(max_value=-1e-9, allow_nan=False, allow_infinity=False),
            st.integers(min_value=2**1024, max_value=2**1100),
        ),
    )
    @settings(max_examples=60)
    def test_durations_rejected(self, field, value):
        with pytest.raises(ServeProtocolError):
            normalize_spec({"type": "fuzz", field: value})

    def test_zero_timeout_rejected_zero_delay_dropped(self):
        with pytest.raises(ServeProtocolError):
            normalize_spec({"type": "fuzz", "timeout": 0})
        assert "delay" not in normalize_spec({"type": "fuzz", "delay": 0})

    @pytest.mark.parametrize(
        "kind, budget",
        [("program", PROGRAM_STEP_BUDGET), ("sample", SAMPLE_STEP_BUDGET)],
    )
    def test_n_ceiling_is_the_step_budget(self, kind, budget):
        """The ceiling is the budget over the program's steps-per-element
        floor: a larger ``n`` could not finish within the budget."""
        for name in sorted(PROGRAMS):
            ceiling = budget // STEPS_PER_ELEMENT[name]
            spec = {"type": kind, "program": name, "n": ceiling}
            assert normalize_spec(spec)["n"] == ceiling
            for n in (ceiling + 1, budget, 2**1100):
                with pytest.raises(
                    ServeProtocolError, match=f"'n' must be <= {ceiling}$"
                ):
                    normalize_spec(dict(spec, n=n))

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    @given(n=st.integers(min_value=1, max_value=400))
    @settings(max_examples=15, deadline=None)
    def test_every_program_takes_a_step_per_element(self, name, n):
        """What makes the ceiling sound: a job with ``n`` past its step
        budget over the program's floor can only end in 'step budget
        exhausted'."""
        steps = reference_machine(name, n).run(max_steps=10**7)
        assert steps >= STEPS_PER_ELEMENT[name] * n


# ---------------------------------------------------------------------------
# the queue state machine


WORKERS = ("w0", "w1")


class QueueMachine(RuleBasedStateMachine):
    """Random walks over a real on-disk queue vs. a naive state model.

    The model tracks, per job: the expected state, the worker holding
    the lease (if any), and how many attempts have been consumed.  A
    long lease TTL keeps the walk deterministic (no reaping mid-walk);
    stale-worker transitions are exercised by remembering which worker
    *used to* hold a lease after a cancel/complete and asserting its
    late complete/fail/heartbeat calls are rejected.
    """

    jobs = Bundle("jobs")

    def __init__(self):
        super().__init__()
        import tempfile

        self._dir = tempfile.TemporaryDirectory()
        self.queue = JobQueue(
            self._dir.name, lease_ttl=3600.0, max_attempts=2,
            retry_backoff=0.0,
        )
        # job_id -> {"state", "worker", "attempts", "cancel_requested"}
        self.model = {}
        self._seed = 0

    def teardown(self):
        self._dir.cleanup()

    def _fresh_spec(self):
        self._seed += 1
        return {"type": "fuzz", "seed": self._seed, "budget": 1}

    @rule(target=jobs)
    def submit(self):
        record, created = self.queue.submit(self._fresh_spec())
        expected_new = record.id not in self.model or (
            self.model[record.id]["state"] in ("failed", "cancelled")
        )
        assert created == expected_new
        self.model[record.id] = {
            "state": "queued", "worker": "", "attempts": 0,
            "cancel_requested": False,
        }
        return record.id

    @rule(job_id=jobs)
    def resubmit_duplicate(self, job_id):
        entry = self.model[job_id]
        record, created = self.queue.submit(self.queue.get(job_id).spec)
        if entry["state"] in ("failed", "cancelled"):
            # Revival: same identity, fresh attempt budget.
            assert created
            entry.update(
                state="queued", worker="", attempts=0,
                cancel_requested=False,
            )
        else:
            assert not created
            assert record.state == entry["state"]

    @rule(worker=st.sampled_from(WORKERS))
    def claim(self, worker):
        claimable = {
            job_id for job_id, entry in self.model.items()
            if entry["state"] == "queued" and not entry["cancel_requested"]
        }
        doomed = {
            job_id for job_id, entry in self.model.items()
            if entry["state"] == "queued" and entry["cancel_requested"]
        }
        record = self.queue.claim(worker)
        if record is None:
            assert not claimable
            # The scan consumed every pending marker, honouring the
            # cancel request on each doomed job it passed over.
            for job_id in doomed:
                self.model[job_id].update(state="cancelled", worker="")
            return
        assert record.id in claimable
        entry = self.model[record.id]
        entry.update(state="leased", worker=worker)
        entry["attempts"] += 1
        assert record.worker == worker
        assert record.attempts == entry["attempts"]
        # Doomed jobs whose markers sorted before the claimed one were
        # cancelled during the scan; later ones were not reached.  Sync
        # the model from the only authority on marker order: the disk.
        for job_id in doomed:
            actual = self.queue.get(job_id).state
            assert actual in ("queued", "cancelled")
            self.model[job_id]["state"] = actual

    @rule(job_id=jobs, worker=st.sampled_from(WORKERS))
    def heartbeat(self, job_id, worker):
        entry = self.model[job_id]
        ok = self.queue.heartbeat(job_id, worker)
        assert ok == (
            entry["state"] == "leased" and entry["worker"] == worker
        )

    @rule(job_id=jobs, worker=st.sampled_from(WORKERS))
    def complete(self, job_id, worker):
        entry = self.model[job_id]
        ok = self.queue.complete(job_id, worker, {"answer": 42})
        if entry["state"] == "leased" and entry["worker"] == worker:
            assert ok
            entry.update(state="done", worker="")
        else:
            # Stale or wrong worker: rejected, nothing changes.
            assert not ok

    @rule(job_id=jobs, worker=st.sampled_from(WORKERS))
    def fail(self, job_id, worker):
        entry = self.model[job_id]
        state = self.queue.fail(job_id, worker, "boom")
        if entry["state"] == "leased" and entry["worker"] == worker:
            if entry["attempts"] < self.queue.max_attempts:
                assert state == "queued"
                entry.update(state="queued", worker="")
            else:
                assert state == "failed"
                entry.update(state="failed", worker="")
        else:
            assert state is None

    @rule(job_id=jobs)
    def cancel(self, job_id):
        entry = self.model[job_id]
        state = self.queue.cancel(job_id)
        if entry["state"] == "queued":
            assert state == "cancelled"
            entry.update(state="cancelled", worker="")
        elif entry["state"] == "leased":
            # Honoured by the worker at its next checkpoint; the record
            # stays leased with the flag set.
            assert state == "leased"
            entry["cancel_requested"] = True
            assert self.queue.get(job_id).cancel_requested
        else:
            assert state == entry["state"]

    @invariant()
    def records_match_model(self):
        for job_id, entry in self.model.items():
            record = self.queue.get(job_id)
            assert record is not None
            assert record.state == entry["state"], job_id
            assert record.worker == entry["worker"], job_id
            assert record.attempts <= self.queue.max_attempts

    @invariant()
    def leases_have_workers_and_markers(self):
        for job_id, entry in self.model.items():
            if entry["state"] == "leased":
                assert entry["worker"] in WORKERS
                assert self.queue._lease_marker(job_id).exists()

    @invariant()
    def results_exist_iff_done(self):
        for job_id, entry in self.model.items():
            result = self.queue.result(job_id)
            if entry["state"] == "done":
                assert result == {"answer": 42}
            elif entry["state"] in ("queued", "cancelled"):
                # A requeued job may retain a prior attempt's result
                # only after a done->queued transition, which the state
                # machine never produces (done is terminal here).
                assert result is None or entry["attempts"] > 0

    @invariant()
    def counts_agree(self):
        tally = {}
        for entry in self.model.values():
            tally[entry["state"]] = tally.get(entry["state"], 0) + 1
        assert self.queue.counts() == tally


TestQueueStateMachine = QueueMachine.TestCase
TestQueueStateMachine.settings = settings(
    max_examples=20,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
