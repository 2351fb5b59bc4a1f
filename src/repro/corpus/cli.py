"""Corpus maintenance subcommands (``repro corpus ...``).

::

    repro corpus record [EXPERIMENT ...] [--scale S] [--jobs N]
        Pre-record every trace the named experiments (default: all)
        will replay, fanning misses out across a worker pool.

    repro corpus ls        List stored traces (LRU order, oldest first)
                           and count the unreadable objects left out.
    repro corpus verify    Check every object's header and payload; exit 1
                           on damage.
    repro corpus gc        Remove unreadable objects and stale tmp files,
                           naming each; with --max-mb, evict
                           least-recently-used traces to that bound.

All subcommands take ``--dir PATH`` (default: ``$REPRO_CORPUS_DIR`` or
``~/.cache/repro/corpus``).  The store shards objects into two-hex-digit
prefix subdirectories (``objects/ab/<digest>.trc.gz``), one path per
digest, and each object carries a header naming its trace, so the
objects are the whole store.  ``ls`` skips an object whose header cannot
be read (one in a retired layout, or damaged), ``verify`` names it by
digest, and ``gc`` removes it; the next experiment run re-records it.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path
from typing import List, Optional

from .. import cliargs
from ..analysis.tables import format_table
from .engine import prefetch_traces, trace_plan
from .store import TraceCorpus, default_corpus_dir

__all__ = ["main"]


def _add_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dir",
        default=None,
        help="corpus directory (default: $REPRO_CORPUS_DIR or ~/.cache/repro/corpus)",
    )


def _corpus(args, **kwargs) -> TraceCorpus:
    return TraceCorpus(args.dir or default_corpus_dir(), **kwargs)


def _fmt_size(size: int) -> str:
    if size >= 1 << 20:
        return f"{size / (1 << 20):.1f}M"
    if size >= 1 << 10:
        return f"{size / (1 << 10):.1f}K"
    return f"{size}B"


def _summary(corpus: TraceCorpus, entries) -> str:
    """``N traces, SIZE`` over the readable ``entries`` alone, plus how
    many unreadable objects were left out of both."""
    text = (
        f"{corpus.root}: {len(entries)} traces, "
        f"{_fmt_size(sum(entry.size for entry in entries))}"
    )
    skipped = len(corpus.unreadable())
    if skipped:
        text += (
            f"; {skipped} unreadable object(s) skipped "
            "(`repro corpus gc` removes them)"
        )
    return text


def _cmd_record(args) -> int:
    from ..experiments import experiment_names

    known = list(experiment_names())
    unknown = [name for name in args.experiments if name not in known]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"choose from: {', '.join(known)}"
        )
        return 2
    names = args.experiments or known
    plan = trace_plan(names, scale=args.scale)
    if not plan:
        print("nothing to record: the selected experiments keep no traces")
        return 0
    corpus = _corpus(args)
    started = time.perf_counter()
    stats = prefetch_traces(plan, jobs=args.jobs, corpus_dir=str(corpus.root))
    elapsed = time.perf_counter() - started
    print(
        f"{len(plan)} traces planned for {len(names)} experiment(s): "
        f"{stats.recorded} recorded, "
        f"{stats.disk_hits} already cached "
        f"[{elapsed:.1f}s, jobs={args.jobs}]"
    )
    print(f"corpus {_summary(corpus, corpus.entries())}")
    return 0


def _cmd_ls(args) -> int:
    corpus = _corpus(args)
    entries = corpus.entries()
    rows = [
        [
            entry.key.digest[:12],
            entry.suite,
            entry.name,
            entry.variant or "-",
            f"{entry.scale:g}",
            entry.events,
            _fmt_size(entry.size),
        ]
        for entry in entries
    ]
    print(
        format_table(
            ["digest", "suite", "app", "input", "scale", "events", "size"],
            rows,
            title=_summary(corpus, entries),
        )
    )
    return 0


def _cmd_verify(args) -> int:
    report = _corpus(args).verify()
    bad = [digest for digest, _, problem in report if problem]
    for digest, entry, problem in report:
        marker = "BAD " if problem else "ok  "
        what = entry.key.describe() if entry is not None else "?"
        print(f"{marker} {digest[:12]}  {what:40} {problem or 'ok'}")
    print(f"{len(report) - len(bad)}/{len(report)} entries verified clean")
    return 1 if bad else 0


def _cmd_gc(args) -> int:
    corpus = _corpus(args)
    before = corpus.total_bytes()
    max_bytes = int(args.max_mb * (1 << 20)) if args.max_mb is not None else None
    swept: List[Path] = []
    evicted = corpus.gc(max_bytes, swept=swept)
    tmp_files = [path for path in swept if path.name.startswith(".tmp-")]
    unreadable = [path for path in swept if not path.name.startswith(".tmp-")]
    for path in unreadable:
        print(f"removed unreadable object {path.name[:12]}")
    for path in tmp_files:
        print(f"removed stale tmp file {path.name}")
    for entry in evicted:
        print(f"evicted {entry.key.describe()} ({_fmt_size(entry.size)})")
    print(
        f"{len(evicted)} evicted, {len(unreadable)} unreadable object(s) "
        f"and {len(tmp_files)} stale tmp file(s) removed; "
        f"{_fmt_size(before)} -> {_fmt_size(corpus.total_bytes())}"
        + (f" (bound {_fmt_size(max_bytes)})" if max_bytes is not None else "")
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro corpus",
        description="Maintain the persistent trace corpus store.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    record = commands.add_parser(
        "record", help="pre-record the traces an experiment selection needs"
    )
    record.add_argument(
        "experiments", nargs="*",
        help="experiment ids (default: every registered experiment)",
    )
    record.add_argument("--scale", type=cliargs.scale, default=None)
    record.add_argument("--jobs", type=int, default=1)
    _add_dir(record)
    record.set_defaults(func=_cmd_record)

    ls = commands.add_parser("ls", help="list stored traces")
    _add_dir(ls)
    ls.set_defaults(func=_cmd_ls)

    verify = commands.add_parser("verify", help="check every entry's integrity")
    _add_dir(verify)
    verify.set_defaults(func=_cmd_verify)

    gc = commands.add_parser(
        "gc", help="remove unreadable objects; evict LRU traces to a bound"
    )
    gc.add_argument(
        "--max-mb", type=cliargs.size_mib, default=None,
        help="size bound in MiB (default: no bound, only sweep "
        "unreadable objects and stale tmp files)",
    )
    _add_dir(gc)
    gc.set_defaults(func=_cmd_gc)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)
