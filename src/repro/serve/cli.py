"""Service subcommands: ``repro serve|submit|jobs|result``.

::

    repro serve [--host H] [--port P] [--workers N] [--queue-dir DIR]
                [--corpus-dir DIR] [--lease-ttl S]
        Run the experiment service: HTTP front end, lease reaper and a
        supervised worker pool draining the durable job queue.

    repro submit EXPERIMENT [--scale S] [--wait] ...
    repro submit --program NAME [--n N] [--entries E] [--ways W] [--mantissa]
    repro submit --fuzz [--budget B] [--seed S] [--max-events M]
        Submit one job (idempotent: the id is the content hash of the
        spec).  ``--wait`` polls to completion and renders the result.

    repro jobs [--state S]       List jobs on the service.
    repro result ID              Fetch and render a result document.

All client commands take ``--url`` (default: the endpoint advertised in
``<queue-dir>/server.json``, else ``http://127.0.0.1:8642``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from .. import cliargs
from .client import ServeClient, ServeError
from .queue import default_queue_dir

__all__ = ["main_serve", "main_submit", "main_jobs", "main_result"]


def _default_url(queue_dir: Optional[str]) -> str:
    from .server import endpoint_for

    root = queue_dir or str(default_queue_dir())
    endpoint = endpoint_for(root)
    if endpoint:
        return f"http://{endpoint['host']}:{endpoint['port']}"
    return "http://127.0.0.1:8642"


def _add_client_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--url", default=None,
        help="service URL (default: <queue-dir>/server.json or "
             "http://127.0.0.1:8642)",
    )
    parser.add_argument(
        "--queue-dir", default=None,
        help="queue directory used to discover the service endpoint "
             "(default: $REPRO_QUEUE_DIR or ~/.cache/repro/queue)",
    )


def _client(args) -> ServeClient:
    return ServeClient(args.url or _default_url(args.queue_dir))


def render_result_document(document: Dict[str, Any]) -> str:
    """Human rendering of a job result (any job type)."""
    kind = document.get("type")
    if kind == "experiment":
        from ..experiments.base import ExperimentResult

        data = document.get("result", {})
        result = ExperimentResult(
            experiment=data.get("experiment", "?"),
            title=data.get("title", ""),
            headers=list(data.get("headers", [])),
            rows=[list(row) for row in data.get("rows", [])],
            notes=data.get("notes", ""),
        )
        return result.render()
    if kind == "program":
        from ..analysis.tables import format_ratio, format_table

        rows = [
            [name, stats["counters"].get("operations", 0),
             format_ratio(stats["hit_ratio"]), stats["cycles_saved"]]
            for name, stats in document.get("units", {}).items()
        ]
        return format_table(
            ["unit", "operations", "hit ratio", "cycles saved"], rows,
            title=(
                f"program {document.get('program')} (n={document.get('n')}): "
                f"{document.get('instructions')} instructions"
            ),
        )
    if kind == "fuzz":
        lines = [
            f"fuzz campaign: {document.get('cases')} cases, "
            f"{document.get('events')} events, "
            f"{document.get('features')} coverage features, "
            f"{len(document.get('divergent', []))} divergent"
        ]
        for entry in document.get("divergent", []):
            lines.append(f"  DIVERGENCE in {entry.get('case')}:")
            for line in entry.get("divergences", []):
                lines.append(f"    - {line}")
        return "\n".join(lines)
    return json.dumps(document, indent=2, sort_keys=True)


# -- repro serve -----------------------------------------------------------

def main_serve(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the sharded experiment service (HTTP + workers).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8642,
        help="listen port (0 = ephemeral; advertised in server.json)",
    )
    parser.add_argument(
        "--workers", type=int, default=max(1, os.cpu_count() or 1),
        help="worker processes (default: one per core)",
    )
    parser.add_argument(
        "--queue-dir", default=None,
        help="durable queue directory (default: $REPRO_QUEUE_DIR or "
             "~/.cache/repro/queue)",
    )
    parser.add_argument(
        "--corpus-dir", default=None,
        help="sharded trace corpus for experiment jobs (workers share it)",
    )
    parser.add_argument(
        "--lease-ttl", type=float, default=30.0,
        help="seconds a claimed job may go without a heartbeat",
    )
    parser.add_argument(
        "--reap-interval", type=float, default=1.0,
        help="seconds between lease sweeps / worker supervision",
    )
    args = parser.parse_args(argv)
    from .server import ServeService

    service = ServeService(
        queue_dir=args.queue_dir or str(default_queue_dir()),
        host=args.host,
        port=args.port,
        workers=args.workers,
        corpus_dir=args.corpus_dir,
        lease_ttl=args.lease_ttl,
        reap_interval=args.reap_interval,
    )
    print(
        f"repro serve: queue={service.queue.root} workers={args.workers} "
        f"lease_ttl={args.lease_ttl:g}s", flush=True,
    )
    return service.run()


# -- repro submit ----------------------------------------------------------

def _build_spec(args) -> Dict[str, Any]:
    modes = sum(1 for flag in (args.experiment, args.program, args.fuzz) if flag)
    if modes != 1:
        raise ServeError(
            "choose exactly one of: EXPERIMENT, --program NAME, --fuzz"
        )
    spec: Dict[str, Any]
    if args.experiment:
        kwargs: Dict[str, Any] = {}
        if args.scale is not None:
            kwargs["scale"] = args.scale
        spec = {"type": "experiment", "experiment": args.experiment,
                "kwargs": kwargs}
    elif args.program:
        spec = {"type": "program", "program": args.program, "n": args.n,
                "entries": args.entries, "ways": args.ways,
                "mantissa": args.mantissa}
    else:
        spec = {"type": "fuzz", "budget": args.budget, "seed": args.seed,
                "max_events": args.max_events}
    if args.timeout is not None:
        spec["timeout"] = args.timeout
    if getattr(args, "backend", None) is not None:
        spec["backend"] = args.backend
    return spec


def main_submit(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro submit",
        description="Submit a job to a running repro serve instance.",
    )
    parser.add_argument(
        "experiment", nargs="?", default=None,
        help="experiment id (table7, figure3, ...) for an experiment job",
    )
    parser.add_argument("--scale", type=cliargs.scale, default=None,
                        help="experiment workload scale")
    parser.add_argument("--program", default=None,
                        help="bundled ISA program for a program job")
    parser.add_argument("--n", type=cliargs.positive_int, default=64,
                        help="program problem size")
    parser.add_argument("--entries", type=cliargs.positive_int, default=32)
    parser.add_argument("--ways", type=cliargs.positive_int, default=4)
    parser.add_argument("--mantissa", action="store_true")
    parser.add_argument("--fuzz", action="store_true",
                        help="submit a differential fuzz campaign")
    parser.add_argument("--budget", type=cliargs.positive_int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-events", type=cliargs.positive_int,
                        default=96)
    parser.add_argument("--timeout", type=cliargs.seconds, default=None,
                        help="per-job execution timeout in seconds")
    parser.add_argument("--backend", default=None,
                        help="execution backend the worker scopes around "
                             "this job (scalar | fused; default fused)")
    parser.add_argument("--wait", action="store_true",
                        help="poll to completion and render the result")
    parser.add_argument("--wait-timeout", type=float, default=600.0)
    parser.add_argument("--json", action="store_true",
                        help="print raw JSON instead of rendered output")
    _add_client_args(parser)
    args = parser.parse_args(argv)
    client = _client(args)
    try:
        spec = _build_spec(args)
        submitted = client.submit(spec)
    except ServeError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    job_id = submitted["id"]
    created = "submitted" if submitted.get("created") else "already queued"
    print(f"{job_id} {created} ({submitted.get('describe')}, "
          f"state={submitted.get('state')})")
    if not args.wait:
        return 0
    try:
        record = client.wait(job_id, timeout=args.wait_timeout)
    except ServeError as exc:
        print(f"wait failed: {exc}", file=sys.stderr)
        return 1
    if record["state"] != "done":
        print(f"job {job_id} {record['state']}: {record.get('error', '')}",
              file=sys.stderr)
        return 1
    document = client.result(job_id)
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(render_result_document(document))
    return 0


# -- repro jobs ------------------------------------------------------------

def main_jobs(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro jobs", description="List jobs on the service.",
    )
    parser.add_argument("--state", default=None,
                        help="filter: queued|leased|done|failed|cancelled")
    parser.add_argument("--json", action="store_true")
    _add_client_args(parser)
    args = parser.parse_args(argv)
    client = _client(args)
    try:
        rows = client.jobs(state=args.state)
    except ServeError as exc:
        print(f"jobs failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    from ..analysis.tables import format_table

    table = [
        [row["id"], row["describe"], row["state"], row["attempts"],
         row["requeues"], row["worker"] or "-"]
        for row in rows
    ]
    print(format_table(
        ["id", "job", "state", "attempts", "requeues", "worker"],
        table, title=f"{len(rows)} job(s)",
    ))
    return 0


# -- repro result ----------------------------------------------------------

def main_result(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro result", description="Fetch one job's result.",
    )
    parser.add_argument("id", help="job id (from repro submit / repro jobs)")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--wait", action="store_true",
                        help="poll until the job settles first")
    parser.add_argument("--wait-timeout", type=float, default=600.0)
    _add_client_args(parser)
    args = parser.parse_args(argv)
    client = _client(args)
    try:
        if args.wait:
            record = client.wait(args.id, timeout=args.wait_timeout)
        else:
            record = client.job(args.id)
        if record["state"] != "done":
            print(
                f"job {args.id} is {record['state']}"
                + (f": {record['error']}" if record.get("error") else ""),
                file=sys.stderr,
            )
            return 1
        document = client.result(args.id)
    except ServeError as exc:
        print(f"result failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(render_result_document(document))
    return 0
