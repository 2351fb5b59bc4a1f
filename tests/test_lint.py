"""Tests for the repo-invariant linter (``repro lint``).

Each rule gets (a) a seeded violation it must catch and (b) a clean
counterpart it must accept, exercised through :func:`lint_source` with
virtual paths that land inside the rule's scope.  The capstone test
runs the full rule set over the real source tree and requires zero
findings -- the same gate CI runs.
"""

from pathlib import Path

from repro.analysis.lint import (
    ALL_RULES,
    FloatEqualityRule,
    KernelImportRule,
    MutableDefaultRule,
    NonAtomicWriteRule,
    OpcodeExhaustivenessRule,
    PerRecordProbeLoopRule,
    PoolCallbackMutationRule,
    UnseededRandomRule,
    WallClockRule,
    default_target,
    lint_paths,
    lint_source,
)

KERNEL = "src/repro/workloads/khoros.py"
ENGINE = "src/repro/corpus/engine.py"
TAGS = "src/repro/core/tags.py"
MACHINE = "src/repro/isa/machine.py"


def _findings(source, path, rule):
    return lint_source(source, path, rules=[rule])


class TestUnseededRandomRule:
    def test_catches_unseeded_default_rng(self):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        found = _findings(source, KERNEL, UnseededRandomRule())
        assert len(found) == 1
        assert found[0].rule == "REPRO001"
        assert "seed" in found[0].message

    def test_catches_numpy_global_rng(self):
        source = "import numpy as np\nx = np.random.rand(4)\n"
        found = _findings(source, KERNEL, UnseededRandomRule())
        assert len(found) == 1

    def test_catches_stdlib_global_random(self):
        source = "import random\nvalue = random.random()\n"
        found = _findings(source, KERNEL, UnseededRandomRule())
        assert len(found) == 1

    def test_catches_unseeded_random_instance(self):
        source = "import random\nrng = random.Random()\n"
        assert len(_findings(source, KERNEL, UnseededRandomRule())) == 1

    def test_accepts_seeded_generators(self):
        source = (
            "import numpy as np\nimport random\n"
            "rng = np.random.default_rng(1234)\n"
            "other = random.Random(99)\n"
        )
        assert _findings(source, KERNEL, UnseededRandomRule()) == []

    def test_out_of_scope_path_ignored(self):
        source = "import random\nvalue = random.random()\n"
        assert _findings(source, "docs/conf.py", UnseededRandomRule()) == []


class TestWallClockRule:
    def test_catches_time_time(self):
        source = "import time\nstarted = time.time()\n"
        found = _findings(source, ENGINE, WallClockRule())
        assert len(found) == 1
        assert found[0].rule == "REPRO002"
        assert "perf_counter" in found[0].message

    def test_catches_datetime_now(self):
        source = "import datetime\nstamp = datetime.datetime.now()\n"
        assert len(_findings(source, ENGINE, WallClockRule())) == 1

    def test_accepts_perf_counter(self):
        source = "import time\nstarted = time.perf_counter()\n"
        assert _findings(source, ENGINE, WallClockRule()) == []

    def test_corpus_store_is_out_of_scope(self):
        # Lock staleness in the store legitimately reads the wall clock.
        source = "import time\nage = time.time()\n"
        path = "src/repro/corpus/store.py"
        assert _findings(source, path, WallClockRule()) == []


class TestFloatEqualityRule:
    def test_catches_float_literal_eq(self):
        source = "def trivial(a):\n    return a == 1.0\n"
        found = _findings(source, TAGS, FloatEqualityRule())
        assert len(found) == 1
        assert found[0].rule == "REPRO003"
        assert "bit patterns" in found[0].message

    def test_catches_not_eq(self):
        source = "def check(x):\n    return x != 0.0\n"
        assert len(_findings(source, TAGS, FloatEqualityRule())) == 1

    def test_accepts_bit_comparison(self):
        source = (
            "def tag_match(a, b):\n"
            "    return float64_to_bits(a) == float64_to_bits(b)\n"
        )
        assert _findings(source, TAGS, FloatEqualityRule()) == []

    def test_accepts_int_literal_eq(self):
        source = "def is_zero(n):\n    return n == 0\n"
        assert _findings(source, TAGS, FloatEqualityRule()) == []


class TestPoolCallbackMutationRule:
    def test_catches_global_statement(self):
        source = (
            "RESULTS = []\n"
            "def worker(item):\n"
            "    global RESULTS\n"
            "    RESULTS = RESULTS + [item]\n"
            "def run(pool, items):\n"
            "    return pool.map(worker, items)\n"
        )
        found = _findings(source, ENGINE, PoolCallbackMutationRule())
        assert any(f.rule == "REPRO004" and "global" in f.message
                   for f in found)

    def test_catches_append_on_module_state(self):
        source = (
            "RESULTS = []\n"
            "def worker(item):\n"
            "    RESULTS.append(item)\n"
            "    return item\n"
            "def run(pool, items):\n"
            "    return pool.imap_unordered(worker, items)\n"
        )
        found = _findings(source, ENGINE, PoolCallbackMutationRule())
        assert len(found) == 1
        assert ".append" in found[0].message

    def test_catches_subscript_write(self):
        source = (
            "CACHE = {}\n"
            "def worker(item):\n"
            "    CACHE[item] = 1\n"
            "    return item\n"
            "def run(pool, items):\n"
            "    return pool.map(worker, items)\n"
        )
        found = _findings(source, ENGINE, PoolCallbackMutationRule())
        assert len(found) == 1

    def test_accepts_pure_callback(self):
        source = (
            "LOOKUP = {1: 'a'}\n"
            "def worker(item):\n"
            "    local = []\n"
            "    local.append(LOOKUP.get(item))\n"
            "    return local\n"
            "def run(pool, items):\n"
            "    return pool.map(worker, items)\n"
        )
        assert _findings(source, ENGINE, PoolCallbackMutationRule()) == []

    def test_non_callback_mutation_allowed(self):
        # Only functions handed to a pool are constrained.
        source = (
            "STATE = []\n"
            "def setup():\n"
            "    STATE.append(1)\n"
        )
        assert _findings(source, ENGINE, PoolCallbackMutationRule()) == []


class TestOpcodeExhaustivenessRule:
    def _rule(self):
        return OpcodeExhaustivenessRule(
            opcode_members=("FMUL", "FDIV"),
            operation_members=("FP_MUL", "FP_DIV"),
        )

    def test_catches_unhandled_opcode(self):
        source = "def run(op):\n    return op is Opcode.FMUL\n"
        found = _findings(source, MACHINE, self._rule())
        assert len(found) == 1
        assert found[0].rule == "REPRO005"
        assert "FDIV" in found[0].message

    def test_accepts_exhaustive_interpreter(self):
        source = (
            "TABLE = {Opcode.FMUL: 1, Opcode.FDIV: 2}\n"
        )
        assert _findings(source, MACHINE, self._rule()) == []

    def test_catches_unpriced_operation(self):
        source = "LATENCY = {Operation.FP_MUL: 3}\n"
        path = "src/repro/arch/latency.py"
        found = _findings(source, path, self._rule())
        assert len(found) == 1
        assert "FP_DIV" in found[0].message


class TestPerRecordProbeLoopRule:
    def test_catches_execute_in_for_loop(self):
        source = (
            "def run(events, unit):\n"
            "    for event in events:\n"
            "        unit.execute(event.a, event.b)\n"
        )
        found = _findings(
            source, "src/repro/simulator/custom.py", PerRecordProbeLoopRule()
        )
        assert len(found) == 1
        assert found[0].rule == "REPRO006"
        assert "kernel" in found[0].message

    def test_catches_lookup_in_while_loop(self):
        source = (
            "def drain(table, queue):\n"
            "    while queue:\n"
            "        a, b = queue.pop()\n"
            "        table.lookup(a, b)\n"
        )
        found = _findings(
            source, "src/repro/corpus/engine.py", PerRecordProbeLoopRule()
        )
        assert len(found) == 1

    def test_catches_probe_in_comprehension(self):
        source = "def run(unit, pairs):\n    return [unit.execute(a, b) for a, b in pairs]\n"
        found = _findings(
            source, "src/repro/simulator/custom.py", PerRecordProbeLoopRule()
        )
        assert len(found) == 1

    def test_nested_loops_report_once(self):
        source = (
            "def run(unit, rows):\n"
            "    for row in rows:\n"
            "        for a, b in row:\n"
            "            unit.execute(a, b)\n"
        )
        found = _findings(
            source, "src/repro/simulator/custom.py", PerRecordProbeLoopRule()
        )
        assert len(found) == 1

    def test_kernel_module_is_exempt(self):
        source = (
            "def probe(unit, pairs):\n"
            "    for a, b in pairs:\n"
            "        unit.execute(a, b)\n"
        )
        assert _findings(
            source, "src/repro/core/kernel.py", PerRecordProbeLoopRule()
        ) == []

    def test_single_probe_outside_loop_allowed(self):
        source = "def one(unit, a, b):\n    return unit.execute(a, b)\n"
        assert _findings(
            source, "src/repro/simulator/hazard.py", PerRecordProbeLoopRule()
        ) == []


class TestMutableDefaultRule:
    def test_catches_literal_dict_default(self):
        source = "def f(a, cache={}):\n    return cache\n"
        found = _findings(source, ENGINE, MutableDefaultRule())
        assert len(found) == 1
        assert found[0].rule == "REPRO007"
        assert "mutable default" in found[0].message

    def test_catches_list_and_set_literals(self):
        source = "def f(a=[], b=set()):\n    return a, b\n"
        assert len(_findings(source, ENGINE, MutableDefaultRule())) == 2

    def test_catches_keyword_only_default(self):
        source = "def f(*, acc=[]):\n    return acc\n"
        assert len(_findings(source, ENGINE, MutableDefaultRule())) == 1

    def test_catches_collection_constructor_calls(self):
        source = (
            "from collections import defaultdict\n"
            "def f(index=defaultdict(list)):\n    return index\n"
        )
        assert len(_findings(source, ENGINE, MutableDefaultRule())) == 1

    def test_accepts_none_sentinel(self):
        source = (
            "def f(a, cache=None):\n"
            "    if cache is None:\n"
            "        cache = {}\n"
            "    return cache\n"
        )
        assert _findings(source, ENGINE, MutableDefaultRule()) == []

    def test_accepts_immutable_defaults(self):
        source = "def f(a=(), b='x', c=0, d=frozenset()):\n    return a\n"
        assert _findings(source, ENGINE, MutableDefaultRule()) == []


class TestNonAtomicWriteRule:
    QUEUE = "src/repro/serve/queue.py"

    def test_catches_in_place_write_text(self):
        source = (
            "def save(path, payload):\n"
            "    path.write_text(payload)\n"
        )
        found = _findings(source, self.QUEUE, NonAtomicWriteRule())
        assert len(found) == 1
        assert found[0].rule == "REPRO008"
        assert "os.replace" in found[0].message

    def test_catches_in_place_open_w(self):
        source = (
            "def save(path, payload):\n"
            "    with open(path, 'w') as handle:\n"
            "        handle.write(payload)\n"
        )
        assert len(_findings(source, self.QUEUE, NonAtomicWriteRule())) == 1

    def test_accepts_tmp_stage_plus_replace(self):
        source = (
            "import os\n"
            "def save(path, payload):\n"
            "    tmp = path.with_name('.stage.tmp')\n"
            "    tmp.write_text(payload)\n"
            "    os.replace(tmp, path)\n"
        )
        assert _findings(source, self.QUEUE, NonAtomicWriteRule()) == []

    def test_accepts_read_mode_open(self):
        source = (
            "def load(path):\n"
            "    with open(path) as handle:\n"
            "        return handle.read()\n"
        )
        assert _findings(source, self.QUEUE, NonAtomicWriteRule()) == []

    def test_out_of_scope_layer_ignored(self):
        source = (
            "def save(path, payload):\n"
            "    path.write_text(payload)\n"
        )
        assert _findings(source, KERNEL, NonAtomicWriteRule()) == []


class TestKernelImportRule:
    SHADE = "src/repro/simulator/shade.py"
    BACKEND = "src/repro/core/backend.py"

    def test_catches_from_package_import_kernel(self):
        source = "from ..core import kernel\n"
        found = _findings(source, self.SHADE, KernelImportRule())
        assert len(found) == 1
        assert found[0].rule == "REPRO009"
        assert "repro.core.backend" in found[0].message

    def test_catches_absolute_from_import(self):
        source = "from repro.core.kernel import probe_batch\n"
        assert len(_findings(source, self.SHADE, KernelImportRule())) == 1

    def test_catches_relative_submodule_from_import(self):
        source = "from ..core.kernel import probe_one\n"
        assert len(_findings(source, self.SHADE, KernelImportRule())) == 1

    def test_catches_plain_import(self):
        source = "import repro.core.kernel\n"
        assert len(_findings(source, self.SHADE, KernelImportRule())) == 1

    def test_core_package_is_exempt(self):
        source = "from . import kernel\nfrom .kernel import probe_batch\n"
        assert _findings(source, self.BACKEND, KernelImportRule()) == []

    def test_backend_facade_import_allowed(self):
        source = (
            "from ..core import backend as execution\n"
            "from ..core.backend import dispatch\n"
        )
        assert _findings(source, self.SHADE, KernelImportRule()) == []

    def test_other_core_modules_allowed(self):
        source = (
            "from ..core import bank\n"
            "from ..core.config import MemoTableConfig\n"
        )
        assert _findings(source, self.SHADE, KernelImportRule()) == []


class TestFullRepoGate:
    def test_rule_set_has_at_least_four_rules(self):
        assert len(ALL_RULES()) >= 4

    def test_repo_lints_clean(self):
        findings = lint_paths([default_target()])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_default_target_is_package_root(self):
        target = default_target()
        assert target.name == "repro"
        assert (target / "cli.py").exists()

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        findings = lint_paths([bad])
        assert len(findings) == 1
        assert findings[0].rule == "REPRO999"

    def test_violations_render_with_location(self):
        source = "import time\nstarted = time.time()\n"
        found = _findings(source, ENGINE, WallClockRule())
        rendered = found[0].render()
        assert ENGINE in rendered and ":2:" in rendered


class TestCliEntryPoint:
    def test_lint_command_clean_on_repo(self, capsys):
        from repro.analysis.cli import main_lint

        assert main_lint([]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_command_flags_violation(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "workloads" / "kernel.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nvalue = random.random()\n")
        from repro.analysis.cli import main_lint

        assert main_lint([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "REPRO001" in out

    def test_lint_json_output(self, tmp_path, capsys):
        report = tmp_path / "lint.json"
        from repro.analysis.cli import main_lint

        assert main_lint(["--json", str(report)]) == 0
        import json

        data = json.loads(report.read_text())
        assert data["count"] == 0

    def test_rule_listing(self, capsys):
        from repro.analysis.cli import main_lint

        assert main_lint(["--list"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REPRO001", "REPRO002", "REPRO003", "REPRO004",
                        "REPRO005"):
            assert rule_id in out


def test_default_target_tracks_this_checkout():
    # The linter's default target must be the same tree the tests import.
    import repro

    assert default_target() == Path(repro.__file__).resolve().parent
