"""Custom AST lint rules for repo invariants.

Each rule declares the path scopes it guards (posix path fragments) and
walks a parsed module.  Rules are deliberately narrow: they encode
*this* repository's determinism and soundness invariants, not general
style -- ruff handles style.

=========  ==============================================================
rule       invariant
=========  ==============================================================
REPRO001   workload kernels draw randomness only from seeded generators
REPRO002   deterministic paths never read the wall clock
REPRO003   MEMO-TABLE keying/hashing never compares float literals with
           ``==``/``!=`` (bit patterns are the keys, cf. ieee754)
REPRO004   fork-pool callbacks do not mutate module-level state (worker
           processes would each mutate their own copy; results must
           flow through return values)
REPRO005   the interpreter handles every Opcode; the latency model
           prices every Operation
REPRO006   per-record MEMO-TABLE probe loops live only in
           ``repro.core.kernel`` (every other layer routes batches
           through ``repro.core.backend.dispatch``)
REPRO007   no mutable default arguments anywhere in the package (a
           shared default dict/list is cross-call -- and under a fork
           pool, cross-copy -- hidden state)
REPRO008   durable JSON/state files are published atomically (tmp write
           + ``os.replace``), never ``open(path, "w")`` in place
REPRO009   only ``repro.core`` imports ``repro.core.kernel``; every
           other layer goes through the execution-backend facade
           (``repro.core.backend``)
=========  ==============================================================
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = [
    "LintViolation",
    "LintRule",
    "UnseededRandomRule",
    "WallClockRule",
    "FloatEqualityRule",
    "PoolCallbackMutationRule",
    "OpcodeExhaustivenessRule",
    "PerRecordProbeLoopRule",
    "MutableDefaultRule",
    "NonAtomicWriteRule",
    "KernelImportRule",
    "ALL_RULES",
    "default_target",
    "lint_source",
    "lint_paths",
    "violations_to_json",
]


@dataclass(frozen=True)
class LintViolation:
    """One finding: where, which rule, and why it matters."""

    rule: str
    name: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.name}] {self.message}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "name": self.name,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class LintRule:
    """Base class: id, name and path scopes plus a ``check`` hook."""

    id = "REPRO000"
    name = "base"
    description = ""
    #: Posix path fragments the rule applies to; empty = every file.
    scopes: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        posix = path.replace("\\", "/")
        return not self.scopes or any(scope in posix for scope in self.scopes)

    def check(self, tree: ast.Module, path: str) -> List[LintViolation]:
        raise NotImplementedError

    def violation(self, node: ast.AST, path: str, message: str) -> LintViolation:
        return LintViolation(
            rule=self.id,
            name=self.name,
            path=path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def _dotted_name(node: ast.AST) -> Optional[str]:
    """Best-effort dotted name of an expression (``np.random.rand``)."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


# -- REPRO001: unseeded RNG ------------------------------------------------

#: Functions of the stdlib ``random`` module-level (global, unseeded) API.
_GLOBAL_RANDOM_FNS = {
    "random", "randint", "uniform", "randrange", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "vonmisesvariate", "seed", "getrandbits",
}


class UnseededRandomRule(LintRule):
    """Workload kernels must draw randomness from seeded generators only.

    Recorded traces are content-addressed by (suite, app, input, scale);
    an unseeded draw makes the same key map to different value streams,
    silently corrupting corpus replay equivalence.
    """

    id = "REPRO001"
    name = "unseeded-rng"
    description = "unseeded RNG in a deterministic workload kernel"
    scopes = ("repro/workloads/", "repro/images/", "repro/isa/",
              "repro/core/", "repro/corpus/")

    def check(self, tree: ast.Module, path: str) -> List[LintViolation]:
        findings: List[LintViolation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            if dotted is None:
                continue
            if dotted in ("np.random.default_rng", "numpy.random.default_rng",
                          "default_rng"):
                if not node.args and not node.keywords:
                    findings.append(self.violation(
                        node, path,
                        "default_rng() without a seed is "
                        "nondeterministic; pass an explicit seed",
                    ))
                continue
            if dotted in ("random.Random", "np.random.RandomState",
                          "numpy.random.RandomState"):
                if not node.args and not node.keywords:
                    findings.append(self.violation(
                        node, path,
                        f"{dotted}() without a seed is nondeterministic",
                    ))
                continue
            root, _, leaf = dotted.rpartition(".")
            if root in ("np.random", "numpy.random") and leaf != "default_rng":
                findings.append(self.violation(
                    node, path,
                    f"{dotted}() uses numpy's global RNG; use "
                    "np.random.default_rng(seed)",
                ))
            elif root == "random" and leaf in _GLOBAL_RANDOM_FNS:
                findings.append(self.violation(
                    node, path,
                    f"{dotted}() uses the process-global RNG; use "
                    "random.Random(seed)",
                ))
        return findings


# -- REPRO002: wall clock --------------------------------------------------

_WALL_CLOCK_CALLS = {
    "time.time": "time.perf_counter() for intervals, or drop the timestamp",
    "time.time_ns": "time.perf_counter_ns()",
    "time.ctime": "a constant label",
    "datetime.now": "a constant label",
    "datetime.utcnow": "a constant label",
    "datetime.datetime.now": "a constant label",
    "datetime.datetime.utcnow": "a constant label",
}


class WallClockRule(LintRule):
    """Deterministic paths must not read the wall clock.

    Interval timing belongs to ``time.perf_counter`` (monotonic) and
    CPU accounting to ``time.process_time``; wall-clock reads make runs
    unreproducible, break trace-identity assumptions, and (in the
    metrics layer) make durations jump when NTP steps the clock.  The
    rule covers the whole package; the sanctioned exceptions are the
    corpus store's lock-staleness/archive timestamps
    (``repro/corpus/store.py``), the serve queue's durable job records
    (``repro/serve/queue.py``), and the shared filesystem primitives
    both are built on (``repro/fsutil.py``), whose submit/lease/lock
    timestamps must survive process restarts and be comparable across
    processes -- which per-process monotonic clocks are not.  None sits
    on a simulation path.
    """

    id = "REPRO002"
    name = "wall-clock"
    description = "wall-clock read on a deterministic path"
    scopes = ("repro/",)

    #: The only modules allowed to read the wall clock.
    _EXEMPT = (
        "repro/corpus/store.py",
        "repro/serve/queue.py",
        "repro/fsutil.py",
    )

    def applies_to(self, path: str) -> bool:
        posix = path.replace("\\", "/")
        if any(exempt in posix for exempt in self._EXEMPT):
            return False
        return super().applies_to(posix)

    def check(self, tree: ast.Module, path: str) -> List[LintViolation]:
        findings: List[LintViolation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            if dotted in _WALL_CLOCK_CALLS:
                findings.append(self.violation(
                    node, path,
                    f"{dotted}() reads the wall clock; use "
                    f"{_WALL_CLOCK_CALLS[dotted]}",
                ))
        return findings


# -- REPRO003: float equality in keying paths ------------------------------

class FloatEqualityRule(LintRule):
    """MEMO-TABLE keying compares bit patterns, never float values.

    ``0.0 == -0.0`` and ``nan != nan`` make value comparison unsound as
    a tag match: two bit-distinct operand pairs must occupy two entries
    (the paper's tags are operand *bits*).  Keying/hashing modules must
    compare via ``float64_to_bits``.
    """

    id = "REPRO003"
    name = "float-eq-keying"
    description = "float literal compared with ==/!= in a keying path"
    scopes = ("repro/core/tags.py", "repro/core/indexing.py",
              "repro/core/memo_table.py", "repro/core/bank.py",
              "repro/corpus/store.py")

    def check(self, tree: ast.Module, path: str) -> List[LintViolation]:
        findings: List[LintViolation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            has_eq = any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
            )
            if not has_eq:
                continue
            for operand in operands:
                if (
                    isinstance(operand, ast.Constant)
                    and isinstance(operand.value, float)
                ):
                    findings.append(self.violation(
                        node, path,
                        "float value equality in a keying/hashing path; "
                        "compare bit patterns (float64_to_bits) instead",
                    ))
                    break
        return findings


# -- REPRO004: pool callbacks mutating shared state ------------------------

class PoolCallbackMutationRule(LintRule):
    """Fork-pool callbacks must not mutate module-level state.

    Under ``fork`` each worker mutates its own copy-on-write page and
    the parent never sees it; under ``spawn`` the module is re-imported.
    Either way the mutation silently diverges across processes, so
    results must travel through return values (the engine merges them).
    """

    id = "REPRO004"
    name = "pool-callback-mutation"
    description = "fork-pool callback mutates module-level state"
    scopes = ("repro/corpus/", "repro/experiments/")

    _POOL_METHODS = {"map", "imap", "imap_unordered", "map_async",
                     "apply", "apply_async", "starmap"}

    def check(self, tree: ast.Module, path: str) -> List[LintViolation]:
        module_names = self._module_level_names(tree)
        callbacks = self._pool_callbacks(tree)
        if not callbacks:
            return []
        functions = {
            node.name: node
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        findings: List[LintViolation] = []
        for name in sorted(callbacks):
            function = functions.get(name)
            if function is None:
                continue
            findings.extend(
                self._check_callback(function, module_names, path)
            )
        return findings

    @staticmethod
    def _module_level_names(tree: ast.Module) -> Set[str]:
        names: Set[str] = set()
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    names.add(node.target.id)
        return names

    def _pool_callbacks(self, tree: ast.Module) -> Set[str]:
        """Names of functions handed to a worker pool."""
        callbacks: Set[str] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self._POOL_METHODS
                and node.args
                and isinstance(node.args[0], ast.Name)
            ):
                callbacks.add(node.args[0].id)
            for keyword in node.keywords:
                if (
                    keyword.arg == "initializer"
                    and isinstance(keyword.value, ast.Name)
                ):
                    callbacks.add(keyword.value.id)
        return callbacks

    def _check_callback(
        self,
        function: ast.AST,
        module_names: Set[str],
        path: str,
    ) -> List[LintViolation]:
        findings: List[LintViolation] = []
        mutators = {"append", "extend", "update", "add", "insert", "pop",
                    "clear", "setdefault", "remove"}
        for node in ast.walk(function):
            if isinstance(node, ast.Global):
                findings.append(self.violation(
                    node, path,
                    f"pool callback declares `global {', '.join(node.names)}`;"
                    " return the value instead of mutating shared state",
                ))
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    base = target
                    while isinstance(base, (ast.Subscript, ast.Attribute)):
                        base = base.value
                    if (
                        isinstance(base, ast.Name)
                        and base.id in module_names
                        and base is not target
                    ):
                        findings.append(self.violation(
                            node, path,
                            f"pool callback writes through module-level "
                            f"name {base.id!r}; workers cannot share it",
                        ))
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in mutators
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in module_names
                ):
                    findings.append(self.violation(
                        node, path,
                        f"pool callback mutates module-level "
                        f"{node.func.value.id!r} via .{node.func.attr}(); "
                        "workers cannot share it",
                    ))
        return findings


# -- REPRO005: opcode/latency table exhaustiveness -------------------------

class OpcodeExhaustivenessRule(LintRule):
    """Every opcode must be executable and every operation priced.

    ``machine.py`` must reference every :class:`Opcode` member (an
    unreferenced member is an instruction class the interpreter cannot
    emit or execute); ``latency.py`` must reference every
    :class:`Operation` member (an unpriced operation silently costs the
    default latency).
    """

    id = "REPRO005"
    name = "opcode-exhaustiveness"
    description = "opcode/operation table is not exhaustive"
    scopes = ("repro/isa/machine.py", "repro/arch/latency.py")

    def __init__(
        self,
        opcode_members: Optional[Sequence[str]] = None,
        operation_members: Optional[Sequence[str]] = None,
    ) -> None:
        self._opcode_members = (
            tuple(opcode_members) if opcode_members is not None else None
        )
        self._operation_members = (
            tuple(operation_members) if operation_members is not None else None
        )

    def check(self, tree: ast.Module, path: str) -> List[LintViolation]:
        posix = path.replace("\\", "/")
        if posix.endswith("machine.py"):
            enum_name = "Opcode"
            members = self._opcode_members
            if members is None:
                members = _enum_members(
                    Path(path).parent / "opcodes.py", "Opcode"
                )
            what = "interpreter"
        else:
            enum_name = "Operation"
            members = self._operation_members
            if members is None:
                members = _enum_members(
                    Path(path).parent.parent / "core" / "operations.py",
                    "Operation",
                )
            what = "latency model"
        if not members:
            return []  # enum source unavailable: nothing to assert
        referenced = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == enum_name
        }
        missing = [member for member in members if member not in referenced]
        if not missing:
            return []
        return [self.violation(
            tree, path,
            f"{what} never references {enum_name} member(s): "
            f"{', '.join(missing)}",
        )]


def _enum_members(path: Path, class_name: str) -> Tuple[str, ...]:
    """Parse ``class <name>(...)`` member names out of an enum module."""
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except (OSError, SyntaxError):
        return ()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            members = []
            for statement in node.body:
                if isinstance(statement, ast.Assign):
                    for target in statement.targets:
                        if (
                            isinstance(target, ast.Name)
                            and target.id.isupper()
                        ):
                            members.append(target.id)
            return tuple(members)
    return ()


# -- REPRO006: per-record probe loops outside the kernel -------------------

class PerRecordProbeLoopRule(LintRule):
    """Per-record MEMO-TABLE probe loops belong to ``repro.core.kernel``.

    The kernel module is the single place allowed to probe units or
    tables one record at a time; a ``for``/``while`` loop calling
    ``.execute()`` or ``.lookup()`` anywhere else re-creates the scalar
    inner loop the columnar refactor deleted, silently bypassing the
    fused path (and the fused-vs-scalar parity CI asserts).
    Models that need per-event outcomes (the hazard model, the sampling
    estimator's residency model, ext-dual-issue's table port) take the
    kernel's outcome column from
    :func:`repro.core.backend.probe_outcomes`;
    :func:`repro.core.kernel.probe_one` remains only for the
    differential harness's scalar leg.
    """

    id = "REPRO006"
    name = "per-record-probe-loop"
    description = "per-record probe loop outside repro.core.kernel"
    scopes = ("repro/",)

    #: The only module allowed to carry the scalar probe loop.
    _EXEMPT = ("repro/core/kernel.py",)
    _PROBE_METHODS = ("execute", "lookup")
    _LOOPS = (
        ast.For, ast.AsyncFor, ast.While,
        ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
    )

    def applies_to(self, path: str) -> bool:
        posix = path.replace("\\", "/")
        if any(exempt in posix for exempt in self._EXEMPT):
            return False
        return super().applies_to(posix)

    def check(self, tree: ast.Module, path: str) -> List[LintViolation]:
        findings: List[LintViolation] = []
        seen: Set[Tuple[int, int]] = set()
        for node in ast.walk(tree):
            if not isinstance(node, self._LOOPS):
                continue
            for inner in ast.walk(node):
                if not (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and inner.func.attr in self._PROBE_METHODS
                ):
                    continue
                where = (inner.lineno, inner.col_offset)
                if where in seen:  # nested loops walk the same call twice
                    continue
                seen.add(where)
                findings.append(self.violation(
                    inner, path,
                    f"per-record `.{inner.func.attr}()` probe inside a "
                    "loop; route the batch through repro.core.kernel "
                    "(backend.dispatch, or backend.probe_outcomes for "
                    "models that need per-event outcomes)",
                ))
        return findings


# -- REPRO007: mutable default arguments -----------------------------------

class MutableDefaultRule(LintRule):
    """No mutable default arguments anywhere in the package.

    A default ``{}``/``[]``/``set()`` is evaluated once and shared by
    every call -- hidden cross-call state that additionally diverges
    per-process under the fork pool (each worker mutates its own copy).
    Every layer of this repo passes results through return values; a
    mutable default is the one loophole the other rules cannot see.
    """

    id = "REPRO007"
    name = "mutable-default"
    description = "mutable default argument"
    scopes = ("repro/",)

    _MUTABLE_CALLS = {"list", "dict", "set", "OrderedDict", "defaultdict",
                      "Counter", "deque"}

    def check(self, tree: ast.Module, path: str) -> List[LintViolation]:
        findings: List[LintViolation] = []
        for node in ast.walk(tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults)
            defaults.extend(d for d in node.args.kw_defaults if d is not None)
            for default in defaults:
                if self._is_mutable(default):
                    label = getattr(node, "name", "<lambda>")
                    findings.append(self.violation(
                        default, path,
                        f"{label}() takes a mutable default argument; "
                        "default to None and allocate inside the body",
                    ))
        return findings

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            dotted = _dotted_name(node.func)
            leaf = dotted.rpartition(".")[2] if dotted else None
            return leaf in self._MUTABLE_CALLS
        return False


# -- REPRO008: non-atomic durable writes -----------------------------------

class NonAtomicWriteRule(LintRule):
    """Durable state files are published via tmp write + ``os.replace``.

    Corpus objects, job records and result documents are read by
    concurrent processes; an in-place ``open(path, "w")`` exposes a
    torn file to every reader between truncate and close (the exact
    shape of the PR 4 manifest race).  Writers must stage into a
    tmp-named sibling and ``os.replace`` it into place --
    :func:`repro.fsutil.atomic_write_json` is the shared helper.

    Scoped to the durable-state layers (``repro/serve/``,
    ``repro/corpus/``); sanctioned exemptions (none today) use the same
    mechanism as REPRO002's wall-clock list.
    """

    id = "REPRO008"
    name = "non-atomic-write"
    description = "non-atomic write to a durable path"
    scopes = ("repro/serve/", "repro/corpus/")

    #: Modules sanctioned to write durable files in place (none today;
    #: the REPRO002-style escape hatch for layers that prove they are
    #: single-writer).
    _EXEMPT: Tuple[str, ...] = ()

    _WRITE_MODES = {"w", "wb", "w+", "wb+", "wt"}

    def applies_to(self, path: str) -> bool:
        posix = path.replace("\\", "/")
        if any(exempt in posix for exempt in self._EXEMPT):
            return False
        return super().applies_to(posix)

    def check(self, tree: ast.Module, path: str) -> List[LintViolation]:
        findings: List[LintViolation] = []
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            has_replace = any(
                isinstance(node, ast.Call)
                and _dotted_name(node.func) in ("os.replace", "os.rename")
                for node in ast.walk(scope)
            )
            if has_replace:
                continue  # the function publishes atomically
            tmp_names = self._tmp_names(scope)
            for node in ast.walk(scope):
                target = self._written_path(node)
                if target is None:
                    continue
                if self._is_tmp(target, tmp_names):
                    continue  # staged write; some caller replaces it
                findings.append(self.violation(
                    node, path,
                    "in-place write to a durable path; stage into a "
                    "tmp sibling and os.replace it "
                    "(repro.fsutil.atomic_write_json)",
                ))
        return findings

    def _written_path(self, node: ast.AST) -> Optional[ast.AST]:
        """The path expression a call writes to, or None."""
        if not isinstance(node, ast.Call):
            return None
        dotted = _dotted_name(node.func)
        if dotted == "open" and node.args:
            mode = self._mode_of(node)
            if mode in self._WRITE_MODES:
                return node.args[0]
            return None
        if isinstance(node.func, ast.Attribute):
            if node.func.attr == "open":
                mode = self._mode_of(node)
                if mode in self._WRITE_MODES:
                    return node.func.value
                return None
            if node.func.attr in ("write_text", "write_bytes"):
                return node.func.value
        return None

    @staticmethod
    def _mode_of(call: ast.Call) -> Optional[str]:
        candidates = [arg for arg in call.args[1:]]
        candidates.extend(
            kw.value for kw in call.keywords if kw.arg == "mode"
        )
        for candidate in candidates:
            if isinstance(candidate, ast.Constant) and isinstance(
                candidate.value, str
            ):
                return candidate.value
        return None

    @staticmethod
    def _tmp_names(scope: ast.AST) -> Set[str]:
        """Names assigned from expressions that smell like tmp paths."""
        names: Set[str] = set()
        for node in ast.walk(scope):
            if not isinstance(node, ast.Assign):
                continue
            if "tmp" in _strings_of(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    @staticmethod
    def _is_tmp(target: ast.AST, tmp_names: Set[str]) -> bool:
        if isinstance(target, ast.Name) and target.id in tmp_names:
            return True
        return "tmp" in _strings_of(target)


def _strings_of(node: ast.AST) -> str:
    """Every string literal under ``node``, concatenated (tmp sniffing)."""
    parts: List[str] = []
    for child in ast.walk(node):
        if isinstance(child, ast.Constant) and isinstance(child.value, str):
            parts.append(child.value)
    return "\x00".join(parts)


# -- REPRO009: kernel imports outside repro.core ---------------------------

class KernelImportRule(LintRule):
    """Only ``repro.core`` may import the kernel module directly.

    Every other layer selects an execution path through the backend
    facade (:mod:`repro.core.backend`), which re-exports the kernel
    helpers front-ends legitimately need (``as_batch``,
    ``probe_outcomes`` and its outcome codes, ``probe_one``, the
    fault-injection seam).
    A direct kernel import bypasses backend selection -- the module
    would keep running the fused path no matter what ``--backend``,
    ``REPRO_BACKEND`` or a serve job spec asked for, and its runs would
    escape the per-backend metrics attribution.
    """

    id = "REPRO009"
    name = "kernel-import"
    description = "repro.core.kernel imported outside repro.core"
    scopes = ("repro/",)

    #: The kernel's own package is the one sanctioned importer.
    _EXEMPT = ("repro/core/",)

    def applies_to(self, path: str) -> bool:
        posix = path.replace("\\", "/")
        if any(exempt in posix for exempt in self._EXEMPT):
            return False
        return super().applies_to(posix)

    def check(self, tree: ast.Module, path: str) -> List[LintViolation]:
        findings: List[LintViolation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if (
                        alias.name == "repro.core.kernel"
                        or alias.name.endswith(".core.kernel")
                    ):
                        findings.append(self._finding(node, path))
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                # `from repro.core.kernel import x` / `from ..core.kernel
                # import x` (relative spellings drop the leading dots).
                if module == "repro.core.kernel" or module.endswith(
                    "core.kernel"
                ):
                    findings.append(self._finding(node, path))
                    continue
                # `from repro.core import kernel` / `from ..core import
                # kernel` -- binding the module through its package.
                from_core = (
                    module in ("repro.core", "core")
                    or module.endswith(".core")
                )
                if from_core and any(
                    alias.name == "kernel" for alias in node.names
                ):
                    findings.append(self._finding(node, path))
        return findings

    def _finding(self, node: ast.AST, path: str) -> LintViolation:
        return self.violation(
            node, path,
            "direct repro.core.kernel import outside repro.core; go "
            "through the execution-backend facade "
            "(repro.core.backend dispatches and re-exports the "
            "sanctioned kernel helpers)",
        )


#: Factory producing one fresh instance of every rule.
def ALL_RULES() -> List[LintRule]:
    return [
        UnseededRandomRule(),
        WallClockRule(),
        FloatEqualityRule(),
        PoolCallbackMutationRule(),
        OpcodeExhaustivenessRule(),
        PerRecordProbeLoopRule(),
        MutableDefaultRule(),
        NonAtomicWriteRule(),
        KernelImportRule(),
    ]


def default_target() -> Path:
    """The installed ``repro`` package root (what CI lints)."""
    return Path(__file__).resolve().parent.parent.parent


def lint_source(
    source: str,
    path: str,
    rules: Optional[Sequence[LintRule]] = None,
) -> List[LintViolation]:
    """Lint one module given as text (the unit-test entry point)."""
    tree = ast.parse(source)
    findings: List[LintViolation] = []
    for rule in (rules if rules is not None else ALL_RULES()):
        if rule.applies_to(path):
            findings.extend(rule.check(tree, path))
    return findings


def lint_paths(
    paths: Sequence[Path],
    rules: Optional[Sequence[LintRule]] = None,
) -> List[LintViolation]:
    """Lint ``.py`` files (recursing into directories)."""
    active = list(rules) if rules is not None else ALL_RULES()
    files: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    findings: List[LintViolation] = []
    for file in files:
        try:
            source = file.read_text(encoding="utf-8")
        except OSError:
            continue
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            findings.append(LintViolation(
                rule="REPRO999",
                name="syntax-error",
                path=str(file),
                line=exc.lineno or 0,
                col=exc.offset or 0,
                message=f"cannot parse: {exc.msg}",
            ))
            continue
        posix = str(file.as_posix())
        for rule in active:
            if rule.applies_to(posix):
                findings.extend(rule.check(tree, posix))
    return findings


def violations_to_json(findings: Sequence[LintViolation]) -> str:
    return json.dumps(
        {
            "violations": [finding.to_dict() for finding in findings],
            "count": len(findings),
        },
        indent=2,
    )
