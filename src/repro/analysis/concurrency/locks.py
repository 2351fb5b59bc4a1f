"""Lock discipline: CONC001 (guarded calls) and CONC002 (lock order).

**CONC001 (lock-guarded-call)** infers, per module, which mutation
helpers the code itself treats as lock-protected, then flags the call
sites that break the inferred discipline.  A *mutation function* is one
whose own blocks call a write-effect primitive (``write_bytes``,
``unlink``, ``os.replace``, ...) or, transitively, another local
mutation function.  A call site is *guarded* when a lock is held at its
block, or when the calling function is itself provably always entered
under a lock (a greatest-fixpoint over call sites).  The discipline is
inferred conservatively: a helper is considered lock-protected only
when a strict majority -- and at least two -- of its sites are guarded,
so helpers that lock *internally* (majority of sites unguarded) and
1-vs-1 ambiguous helpers never produce noise.  This is exactly the
shape of the PR 4 store bug: ``_write_manifest`` guarded everywhere
except one forgotten site.  The corpus store keeps no manifest any
more, so that bug now lives only as the CONC001 regression fixture
``tests/fixtures/concurrency/fixture_store_race.py``.

**CONC002 (lock-order)** extracts a token per acquisition (see
:func:`..index.lock_token`), computes each function's may-acquire set
interprocedurally, records an ordering edge ``outer -> inner`` for
every acquisition (or call that may acquire) performed while a lock is
held, and reports cycles in the resulting digraph.  A self-cycle on a
*constant* token is a self-deadlock (the repo's ``FileLock`` is not
reentrant); dynamic tokens (``"<job_id>"``) are exempt from self-cycles
because two dynamic instances may be different locks.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .index import FunctionInfo, ModuleInfo, callee_name, calls_in, own_nodes
from .model import Finding

__all__ = ["check_lock_guards", "check_lock_order", "WRITE_EFFECT"]

#: Callee bare names whose invocation mutates shared on-disk state.
WRITE_EFFECT = frozenset({
    "write", "write_text", "write_bytes", "dump",
    "replace", "rename", "unlink", "link", "rmdir",
    "utime", "touch", "atomic_write_json",
})

#: Minimum guarded sites before a helper's discipline is trusted.
_MIN_GUARDED = 2


def _call_sites(
    module: ModuleInfo,
) -> List[Tuple[FunctionInfo, int, ast.Call, FunctionInfo]]:
    """All locally-resolved call sites: (caller, block, call, target)."""
    sites = []
    for caller in module.functions:
        for block in caller.cfg.blocks:
            for node in own_nodes(block):
                for call in calls_in(node):
                    target = module.resolve_call(call, caller)
                    if target is not None:
                        sites.append((caller, block.index, call, target))
    return sites


def _mutation_functions(
    module: ModuleInfo,
    sites: Sequence[Tuple[FunctionInfo, int, ast.Call, FunctionInfo]],
) -> Set[str]:
    """Qualnames of functions that (transitively) mutate shared state."""
    mutating: Set[str] = set()
    for function in module.functions:
        for call in function.body_calls():
            name = callee_name(call.func)
            if name in WRITE_EFFECT:
                mutating.add(function.qualname)
                break
    changed = True
    while changed:
        changed = False
        for caller, _, _, target in sites:
            if (
                target.qualname in mutating
                and caller.qualname not in mutating
            ):
                mutating.add(caller.qualname)
                changed = True
    return mutating


def _under_lock(
    module: ModuleInfo,
    sites: Sequence[Tuple[FunctionInfo, int, ast.Call, FunctionInfo]],
) -> Set[str]:
    """Functions whose *every* call site runs with a lock held.

    Greatest fixpoint: start from every called function and evict any
    with a site that is neither directly guarded nor inside a function
    still assumed under-lock.  Functions never called locally (public
    entry points) are not under-lock.
    """
    sites_of: Dict[str, List[Tuple[FunctionInfo, int]]] = {}
    for caller, block_index, _, target in sites:
        sites_of.setdefault(target.qualname, []).append((caller, block_index))
    assumed = set(sites_of)
    changed = True
    while changed:
        changed = False
        for qualname, call_sites in sites_of.items():
            if qualname not in assumed:
                continue
            for caller, block_index in call_sites:
                held = caller.cfg.blocks[block_index].held
                if not held and caller.qualname not in assumed:
                    assumed.discard(qualname)
                    changed = True
                    break
    return assumed


def check_lock_guards(modules: Sequence[ModuleInfo]) -> List[Finding]:
    findings: List[Finding] = []
    for module in modules:
        sites = _call_sites(module)
        mutating = _mutation_functions(module, sites)
        under_lock = _under_lock(module, sites)

        def guarded(caller: FunctionInfo, block_index: int) -> bool:
            if caller.cfg.blocks[block_index].held:
                return True
            return caller.qualname in under_lock

        by_target: Dict[str, List[Tuple[FunctionInfo, int, ast.Call]]] = {}
        for caller, block_index, call, target in sites:
            if target.qualname in mutating:
                by_target.setdefault(target.qualname, []).append(
                    (caller, block_index, call)
                )
        for target_qualname, target_sites in by_target.items():
            unguarded = [
                site for site in target_sites if not guarded(site[0], site[1])
            ]
            guarded_count = len(target_sites) - len(unguarded)
            if guarded_count < _MIN_GUARDED or guarded_count <= len(unguarded):
                continue
            for caller, _, call in unguarded:
                findings.append(Finding(
                    check="CONC001",
                    path=module.rel,
                    line=call.lineno,
                    col=call.col_offset,
                    function=caller.qualname,
                    message=(
                        f"call to {target_qualname}() without a lock; "
                        f"{guarded_count} of {len(target_sites)} sites "
                        "hold one, so this mutation helper is "
                        "lock-protected by convention"
                    ),
                ))
    return findings


def _acquire_sets(
    module: ModuleInfo,
    sites: Sequence[Tuple[FunctionInfo, int, ast.Call, FunctionInfo]],
) -> Dict[str, Set[str]]:
    """May-acquire token sets per function, transitively closed."""
    acquires: Dict[str, Set[str]] = {}
    callees: Dict[str, Set[str]] = {}
    for function in module.functions:
        direct: Set[str] = set()
        for block in function.cfg.blocks:
            direct.update(block.acquires)
        acquires[function.qualname] = direct
        callees[function.qualname] = set()
    for caller, _, _, target in sites:
        callees[caller.qualname].add(target.qualname)
    changed = True
    while changed:
        changed = False
        for qualname, callee_names in callees.items():
            for callee in callee_names:
                extra = acquires.get(callee, set()) - acquires[qualname]
                if extra:
                    acquires[qualname].update(extra)
                    changed = True
    return acquires


def check_lock_order(modules: Sequence[ModuleInfo]) -> List[Finding]:
    findings: List[Finding] = []
    for module in modules:
        sites = _call_sites(module)
        acquires = _acquire_sets(module, sites)
        #: ordering edge (outer, inner) -> example (line, function).
        edges: Dict[Tuple[str, str], Tuple[int, str]] = {}

        def record(outer: str, inner: str, line: int, function: str) -> None:
            if outer == inner and outer.startswith("<"):
                return  # two dynamic instances may be different locks
            edges.setdefault((outer, inner), (line, function))

        for function in module.functions:
            for block in function.cfg.blocks:
                for inner in block.acquires:
                    for outer in block.held:
                        record(outer, inner, block.line, function.qualname)
                for position, inner in enumerate(block.acquires):
                    for outer in block.acquires[:position]:
                        record(outer, inner, block.line, function.qualname)
        for caller, block_index, call, target in sites:
            block = caller.cfg.blocks[block_index]
            for outer in block.held:
                for inner in acquires.get(target.qualname, set()):
                    record(outer, inner, call.lineno, caller.qualname)

        graph: Dict[str, Set[str]] = {}
        for outer, inner in edges:
            graph.setdefault(outer, set()).add(inner)

        def reaches(start: str, goal: str) -> bool:
            stack, seen = [start], set()
            while stack:
                token = stack.pop()
                if token == goal:
                    return True
                if token in seen:
                    continue
                seen.add(token)
                stack.extend(graph.get(token, ()))
            return False

        reported: Set[Tuple[str, ...]] = set()
        for (outer, inner), (line, function) in sorted(edges.items()):
            if outer == inner:
                cycle = True  # non-reentrant lock re-acquired
            else:
                cycle = reaches(inner, outer)
            key = tuple(sorted((outer, inner)))
            if not cycle or key in reported:
                continue
            reported.add(key)
            if outer == inner:
                message = (
                    f"lock {outer!r} acquired while already held "
                    "(FileLock is not reentrant: self-deadlock)"
                )
            else:
                message = (
                    f"lock {inner!r} acquired while holding {outer!r}, but "
                    "the opposite nesting also exists (deadlock cycle)"
                )
            findings.append(Finding(
                check="CONC002",
                path=module.rel,
                line=line,
                col=0,
                function=function,
                message=message,
            ))
    return findings
