"""The ``serve`` workload: a closed loop against ``repro serve --workers 1``.

Each round starts a fresh server with an empty queue and no corpus, then
two caller threads each submit the next job of a seeded stream only
after ``ServeClient.wait`` returned their previous one.  A round is a
fixed number of jobs, and three rounds make a cycle that runs every
bundled program's sample job twice; cycles repeat while the run's
seconds allow.  Every job must end ``done`` on its first attempt, and a
seeded job of each type is re-run in-process with ``run_job`` and
compared with the served result: program and experiment jobs every
round, a sample job once a cycle.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import run_job

from . import stats
from .env import Run, child_env
from .tracer import Tracer, unattributed

#: Jobs per round; a cycle of three rounds holds 180 jobs, so the p90
#: has 18 beyond it.
ROUND_JOBS = 60
CYCLE_ROUNDS = 3
CALLERS = 2

#: Every bundled ISA program.
PROGRAMS = (
    "saxpy", "dot_product", "vector_normalize", "gamma_lut", "sobel_gx",
    "memo_showcase",
)
#: Jobs of each type in every round.  The repository keeps no record of
#: real service traffic, so this mix is synthetic.  It stands for an
#: interactive session: mostly cheap per-program memo statistics, a
#: sampled hit-ratio estimate of every bundled program twice a cycle,
#: and a small experiment per round.  The sizes follow documented ones
#: (see ``job_stream``); the proportions fit a cycle into a 40 s run and
#: put the p90 inside the group of sample jobs (README.md).
ROUND_MIX = {"program": 55, "sample": 4, "experiment": 1}
#: Workload size of the sample jobs (see ``job_stream``).
SAMPLE_N = 8192

#: Per-layer metrics of a traced serve run, with units.
SERVE_LAYER_UNITS: Dict[str, str] = {
    "serve.submit_s": "s",
    "serve.queue_wait_s": "s",
    "serve.exec_s.program": "s",
    "serve.exec_s.sample": "s",
    "serve.exec_s.experiment": "s",
    "serve.exec_cpu_ratio": "ratio",
    "serve.notify_s": "s",
    "serve.polls_per_job": "polls/job",
    "serve.requeues": "count",
}

SETUP_LIMIT = 60.0
WAIT_LIMIT = 120.0


def job_stream(seed: int) -> Iterator[Dict[str, Any]]:
    """Seeded, endless stream of job specs.

    Consecutive blocks of ``ROUND_JOBS`` are rounds in the ``ROUND_MIX``
    proportions, with no spec twice in a round (a round is one queue, so
    none deduplicates).  Round ``r`` of every cycle samples the programs
    ``PROGRAMS[2r:2r + 2]`` twice each.  The sample jobs and the
    experiment job take fixed, evenly spaced slots (the experiment in the
    middle) and the program jobs fill the rest in seeded order, so every
    cycle and every seed run the same heavy jobs in the same order: the
    worker's peak memory depends on that order.

    - ``program`` jobs vary ``n`` (8-71), ``ways`` and ``mantissa`` as
      the repository's service load test (``benchmarks/bench_serve.py``)
      does, around the service default ``n`` of 64: milliseconds each.
    - ``sample`` jobs take the service's default phase plan at ``n`` =
      ``SAMPLE_N``, with sampling seed 0 the first time a round samples a
      program and 1 the second.  The plan simulates 16
      phases x 4 samples x (250 + 500 warm-up) = 48,000 events;
      ``SAMPLE_N`` is the smallest power of two at which every
      program's trace holds them (82k-247k events), and sampling then
      touches fewer events than a full run.  The service default of
      16384 would double the cycle's sampling time past the run length.
    - ``experiment`` jobs are ``figure4`` at scale 0.05, the scale of
      the ``cold`` and ``warm`` workloads.

    The heavy jobs, and so their work, are the same for every seed: the
    seed varies the program jobs and their order.
    """
    rng = random.Random(seed)

    def draw(program: str) -> Dict[str, Any]:
        return {
            "type": "program", "program": program, "n": rng.randrange(8, 72),
            "ways": rng.choice((2, 4)), "mantissa": rng.random() < 0.5,
        }

    per_round = len(PROGRAMS) // CYCLE_ROUNDS
    while True:
        for round_index in range(CYCLE_ROUNDS):
            programs = rng.sample(PROGRAMS, len(PROGRAMS))
            block, seen = [], set()
            for i in range(ROUND_MIX["program"]):
                spec = draw(programs[i % len(programs)])
                while json.dumps(spec, sort_keys=True) in seen:
                    spec = draw(programs[i % len(programs)])
                seen.add(json.dumps(spec, sort_keys=True))
                block.append(spec)
            rng.shuffle(block)
            sampled = PROGRAMS[round_index * per_round:(round_index + 1) * per_round]
            samples = [
                {"type": "sample", "program": sampled[i % per_round], "n": SAMPLE_N,
                 "seed": i // per_round}
                for i in range(ROUND_MIX["sample"])
            ]
            experiments = [
                {"type": "experiment", "experiment": "figure4", "kwargs": {"scale": 0.05}}
                for _ in range(ROUND_MIX["experiment"])
            ]
            half = len(samples) // 2
            heavy = samples[:half] + experiments + samples[half:]
            stride = ROUND_JOBS // len(heavy)
            for i, spec in enumerate(heavy):
                block.insert(i * stride + stride // 2, spec)
            yield from block


def _peak_rss_mb(pids: List[int]) -> float:
    """Largest ``VmHWM`` (peak resident set) among ``pids``, in MiB."""
    peak = 0.0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text(encoding="utf-8")
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peak = max(peak, int(line.split()[1]) / 1024.0)
    return peak


def _children(pid: int) -> List[int]:
    try:
        text = Path(f"/proc/{pid}/task/{pid}/children").read_text(encoding="utf-8")
    except OSError:
        return []
    return [int(token) for token in text.split()]


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def _stop_server(proc: subprocess.Popen, client: Optional[ServeClient]) -> None:
    """Stop the server (gracefully when it answers) and wait until it and
    its worker have ended, killing what does not end."""
    workers = _children(proc.pid)
    try:
        if client is None:
            raise ServeError("no endpoint")
        client.stop()
    except ServeError:
        proc.terminate()
    try:
        proc.wait(timeout=15.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    for pid in workers:
        deadline = time.monotonic() + 10.0
        while _alive(pid) and time.monotonic() < deadline:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                break
            time.sleep(0.05)


class CountingClient(ServeClient):
    """Counts ``job`` polls (the calls ``wait`` makes)."""

    polls = 0

    def job(self, job_id: str) -> Dict[str, Any]:
        self.polls += 1
        return super().job(job_id)


class _Round:
    """One server lifetime: setup, closed loop, checks, shutdown."""

    def __init__(self, run: Run, index: int, specs: List[Dict[str, Any]],
                 tracer: Optional[Tracer]) -> None:
        self.run = run
        self.index = index
        self.specs = specs
        self.tracer = tracer
        self.outcomes: List[Dict[str, Any]] = []
        self.errors: List[str] = []
        self._next = 0
        self._lock = threading.Lock()

    def _wait_healthy(self, proc: subprocess.Popen, queue_dir: Path):
        deadline = time.perf_counter() + SETUP_LIMIT
        endpoint = queue_dir / "server.json"
        client = None
        while time.perf_counter() < deadline and proc.poll() is None:
            if client is None and endpoint.exists():
                try:
                    document = json.loads(endpoint.read_text(encoding="utf-8"))
                    client = CountingClient(f"http://{document['host']}:{document['port']}")
                except (OSError, ValueError, KeyError):
                    client = None
            if client is not None:
                try:
                    if client.healthz().get("workers") == 1:
                        return client
                except ServeError:
                    pass
            time.sleep(0.005)
        raise RuntimeError(f"server of round {self.index} did not come up")

    def _caller(self, url: str) -> None:
        client = CountingClient(url)
        while True:
            with self._lock:
                if self._next >= len(self.specs):
                    return
                spec = self.specs[self._next]
                self._next += 1
            try:
                t0 = time.perf_counter()
                submitted = client.submit(spec)
                t1 = time.perf_counter()
                polls = client.polls
                record = client.wait(submitted["id"], timeout=WAIT_LIMIT)
                t2 = time.perf_counter()
            except ServeError as exc:
                with self._lock:
                    self.errors.append(f"{spec}: {exc}")
                continue
            with self._lock:
                self.outcomes.append({
                    "spec": spec, "id": submitted["id"], "t0": t0, "t1": t1,
                    "t2": t2, "polls": client.polls - polls, "record": record,
                })

    def execute(self) -> Dict[str, Any]:
        run = self.run
        queue_dir = run.workdir / f"serve-{self.index}" / "queue"
        queue_dir.parent.mkdir(parents=True, exist_ok=True)
        log = (queue_dir.parent / "server.log").open("wb")
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--workers", "1",
             "--port", "0", "--queue-dir", str(queue_dir)],
            cwd=run.root, env=child_env(run.root),
            stdout=log, stderr=subprocess.STDOUT,
        )
        client = None
        try:
            client = self._wait_healthy(proc, queue_dir)
            setup = time.perf_counter() - started
            workers = _children(proc.pid)
            url = f"http://{client.host}:{client.port}"
            epoch_offset = time.time() - time.perf_counter()
            callers = [
                threading.Thread(target=self._caller, args=(url,))
                for _ in range(CALLERS)
            ]
            loop_start = time.perf_counter()
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join()
            loop_end = time.perf_counter()
            peak = _peak_rss_mb([proc.pid] + workers)
            checked = self._served_results(client)
        finally:
            _stop_server(proc, client)
            log.close()
        if self.tracer is not None:
            self._spans(epoch_offset)
        self._check(checked)
        return {
            "setup": setup, "wall": loop_end - loop_start, "peak_rss_mb": peak,
            "loop": (loop_start, loop_end),
        }

    def done(self) -> List[Dict[str, Any]]:
        return [o for o in self.outcomes if o["record"].get("state") == "done"]

    def _served_results(self, client) -> List[Dict[str, Any]]:
        """Served result documents of one seeded job of each type; a
        sample job (seconds to re-run) only in one round of each cycle,
        chosen by the seed."""
        rng = random.Random(self.run.seed * 1009 + self.index)
        kinds = ["program", "experiment"]
        if self.index % CYCLE_ROUNDS == self.run.seed % CYCLE_ROUNDS:
            kinds.append("sample")
        chosen = []
        for kind in kinds:
            candidates = sorted(
                (o for o in self.done() if o["spec"]["type"] == kind),
                key=lambda o: o["id"],
            )
            if candidates:
                chosen.append(rng.choice(candidates))
        return [dict(o, served=client.result(o["id"])) for o in chosen]

    def _check(self, checked: List[Dict[str, Any]]) -> None:
        run = self.run
        lost = len(self.specs) - len(self.outcomes)
        if lost:
            run.fail(lost, f"round {self.index}: {lost} jobs errored: {self.errors[:3]}")
        for outcome in self.outcomes:
            record = outcome["record"]
            if (record.get("state"), record.get("attempts"), record.get("requeues")) != ("done", 1, 0):
                run.fail(1, f"job {outcome['id']} ended {record.get('state')} "
                            f"after {record.get('attempts')} attempt(s): {record.get('error')}")
        for outcome in checked:
            try:
                rerun = run_job(dict(outcome["spec"]))
            except Exception:  # noqa: BLE001 -- a failed re-run fails its job
                run.fail(1, f"job {outcome['id']} ({outcome['spec']}): the "
                            f"in-process re-run raised {traceback.format_exc()}")
                continue
            if rerun != outcome["served"]:
                run.fail(1, f"job {outcome['id']} ({outcome['spec']}): served "
                            "result differs from the in-process re-run")

    def _spans(self, epoch_offset: float) -> None:
        """Caller spans joined with worker spans rebuilt from job records."""
        tracer = self.tracer
        for outcome in self.done():
            record, job = outcome["record"], outcome["id"]
            root = tracer.add("serve.job", outcome["t0"], outcome["t2"], None, job)
            tracer.add("serve.submit", outcome["t0"], outcome["t1"], root, job)
            tracer.add("serve.wait", outcome["t1"], outcome["t2"], root, job)
            queued = record["submitted"] - epoch_offset
            claimed = queued + record["queue_latency"]
            tracer.add("serve.queue", queued, claimed, root, job)
            tracer.add(f"serve.exec.{record['spec']['type']}", claimed,
                       claimed + record["wall"], root, job)


def serve_layers(outcomes: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer serve metrics from caller timings and job records."""
    def p50(values: List[float]) -> float:
        return stats.median(values) if values else 0.0

    records = [o["record"] for o in outcomes]
    metrics = {
        "serve.submit_s": p50([o["t1"] - o["t0"] for o in outcomes]),
        "serve.queue_wait_s": p50([r["queue_latency"] for r in records]),
    }
    for kind in ROUND_MIX:
        metrics[f"serve.exec_s.{kind}"] = p50(
            [r["wall"] for r in records if r["spec"]["type"] == kind]
        )
    wall = sum(r["wall"] for r in records)
    metrics["serve.exec_cpu_ratio"] = sum(r["cpu"] for r in records) / wall if wall else 0.0
    metrics["serve.notify_s"] = p50([
        (o["t2"] - o["t0"]) - o["record"]["queue_latency"] - o["record"]["wall"]
        for o in outcomes
    ])
    metrics["serve.polls_per_job"] = (
        sum(o["polls"] for o in outcomes) / len(outcomes) if outcomes else 0.0
    )
    metrics["serve.requeues"] = sum(r.get("requeues", 0) for r in records)
    return metrics


def run_serve(run: Run) -> Dict[str, Any]:
    stream = job_stream(run.seed)
    tracer = Tracer() if run.trace else None
    rounds: List[Dict[str, Any]] = []
    done: List[Dict[str, Any]] = []
    unattributed_s: List[float] = []
    begin = time.perf_counter()
    while True:
        index = len(rounds)
        specs = [next(stream) for _ in range(ROUND_JOBS)]
        current = _Round(run, index, specs, tracer)
        run.attempted += len(specs)
        try:
            summary = current.execute()
        except Exception:  # noqa: BLE001 -- the round's jobs count as failed
            run.fail(len(specs), f"round {index}: {traceback.format_exc()}")
            break
        rounds.append(summary)
        done.extend(current.done())
        if tracer is not None:
            unattributed_s.append(unattributed(tracer.spans, *summary["loop"]))
        cycles = len(rounds) / CYCLE_ROUNDS
        if cycles == int(cycles):
            elapsed = time.perf_counter() - begin
            if elapsed + elapsed / cycles > run.seconds:
                break
    if not done:
        return {}
    if tracer is not None:
        metrics = serve_layers(done)
        # Spans are built after each round from timestamps the callers
        # take in every run, so tracing adds no work to the timed loop.
        metrics["trace.overhead_s"] = 0.0
        metrics["trace.unattributed_s"] = stats.median(unattributed_s)
        tracer.dump(run.trace_dir / f"serve-seed{run.seed}-{os.getpid()}.json")
        return metrics
    latencies = [o["t2"] - o["t0"] for o in done]
    if stats.tail_count(len(latencies), 90) < stats.MIN_TAIL:
        run.fail(0, f"only {len(latencies)} jobs: too few for a p90")
    walls = [r["wall"] for r in rounds]
    return {
        "setup_s": stats.median([r["setup"] for r in rounds]),
        "wall_s": stats.median([
            sum(walls[i:i + CYCLE_ROUNDS]) for i in range(0, len(walls), CYCLE_ROUNDS)
        ]),
        # Every cycle runs the same heavy jobs in the same slots, so the
        # same job sets the run's peak in every run.
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
        "jobs_per_s": len(done) / sum(walls),
        "latency_p50_s": stats.quantile(latencies, 50),
        "latency_p90_s": stats.quantile(latencies, 90),
    }
