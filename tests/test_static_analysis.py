"""Tests for the static dataflow analyzer (``repro analyze``).

Covers the individual passes (CFG shape, constant propagation, range
analysis with widening, local value numbering), the memo-opportunity
classification of every bundled program, and the headline invariant:
for every program the static bounds bracket the hit ratio an
infinite-capacity memo table measures dynamically,

    static lower <= measured <= static upper.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.static import (
    REFERENCE_N,
    SiteClass,
    analyze_program,
    analyze_source,
    build_cfg,
    check_program,
    constant_propagation,
    local_value_numbers,
    reaching_definitions,
    reference_machine,
    value_ranges,
)
from repro.analysis.static.memo import measure_infinite_hit_ratio
from repro.analysis.static.passes import BOTTOM, _const_key
from repro.isa.machine import BINARY_OPS, FP_UNARY_OPS, Machine, assemble
from repro.isa.programs import PROGRAMS


def _showcase_cfg():
    return build_cfg(assemble(PROGRAMS["memo_showcase"]))


def _instr_index(cfg, mnemonic, operands=None):
    for block in cfg.blocks:
        for index, ins in block:
            if ins.mnemonic == mnemonic and (
                operands is None or tuple(ins.operands) == tuple(operands)
            ):
                return index
    raise AssertionError(f"no {mnemonic} {operands} in program")


class TestControlFlowGraph:
    def test_showcase_shape(self):
        cfg = _showcase_cfg()
        # prologue, loop header, loop body, epilogue
        assert len(cfg.blocks) == 4
        assert cfg.reverse_postorder()[0] == 0

    def test_loop_depths_mark_the_loop(self):
        cfg = _showcase_cfg()
        depths = cfg.loop_depths()
        assert depths[0] == 0  # prologue
        assert depths[1] >= 1 and depths[2] >= 1  # header + body
        assert depths[len(cfg.blocks) - 1] == 0  # epilogue

    def test_straightline_program_single_block(self):
        cfg = build_cfg(assemble("fset 2.0, %f1\nfmul %f1, %f1, %f2\nhalt\n"))
        assert len(cfg.blocks) == 1
        assert cfg.blocks[0].successors == []

    def test_every_instruction_in_exactly_one_block(self):
        for name, source in PROGRAMS.items():
            program = assemble(source)
            cfg = build_cfg(program)
            indices = sorted(
                index for block in cfg.blocks for index, _ in block
            )
            assert indices == list(range(len(program.instructions))), name


class TestConstantPropagation:
    def test_fset_constants_reach_the_loop_body(self):
        cfg = _showcase_cfg()
        consts = constant_propagation(cfg)
        site = _instr_index(cfg, "fmul", ("%f8", "%f9", "%f4"))
        assert consts[site].get("f8") == 3.0
        assert consts[site].get("f9") == 7.0

    def test_loaded_values_are_unknown(self):
        cfg = _showcase_cfg()
        consts = constant_propagation(cfg)
        site = _instr_index(cfg, "fmul", ("%f2", "%f2", "%f5"))
        assert consts[site].get("f2") is BOTTOM

    def test_entry_registers_not_assumed_zero(self):
        # Harnesses seed %r1 (and more) before run(); assuming the reset
        # value would misclassify data-dependent sites as trivial.
        cfg = _showcase_cfg()
        consts = constant_propagation(cfg)
        assert consts[0].get("r1") is BOTTOM

    def test_r0_is_hardwired_zero(self):
        cfg = build_cfg(assemble("add %r0, 0, %r2\nhalt\n"))
        consts = constant_propagation(cfg)
        assert consts[0].get("r0") == 0

    def test_constant_folding_through_arithmetic(self):
        cfg = build_cfg(assemble(
            "set 6, %r2\nadd %r2, 4, %r3\nsmul %r2, %r3, %r4\nhalt\n"
        ))
        consts = constant_propagation(cfg)
        halt = _instr_index(cfg, "halt")
        assert consts[halt].get("r4") == 60


#: Operands: zeros, ones, shift and int64 edges, signed zeros,
#: infinities, NaN and the odd drawn value.
_INTS = st.one_of(
    st.sampled_from([0, 1, -1, 2, 63, 64, 65, -(2 ** 63), 2 ** 63 - 1]),
    st.integers(-(2 ** 63), 2 ** 63 - 1),
)
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, float("inf"), float("-inf"),
                     float("nan")]),
    st.floats(width=64),
)


class TestFoldMatchesMachine:
    """Constant propagation folds through the machine's decode tables,
    so the constant it proves for a destination register is, bit for
    bit, what the machine leaves there."""

    @pytest.mark.parametrize("mnemonic", sorted(BINARY_OPS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_binary(self, mnemonic, data):
        if BINARY_OPS[mnemonic][2]:
            a, b = data.draw(_FLOATS), data.draw(_FLOATS)
            source = (f"fset {a!r}, %f1\nfset {b!r}, %f2\n"
                      f"{mnemonic} %f1, %f2, %f3\nhalt\n")
        else:
            a, b = data.draw(_INTS), data.draw(_INTS)
            source = (f"set {a}, %r1\nset {b}, %r2\n"
                      f"{mnemonic} %r1, %r2, %r3\nhalt\n")
        self._assert_fold_matches(source, is_float=BINARY_OPS[mnemonic][2])

    @pytest.mark.parametrize("mnemonic", sorted(FP_UNARY_OPS))
    @given(a=_FLOATS)
    @settings(max_examples=40, deadline=None)
    def test_unary(self, mnemonic, a):
        self._assert_fold_matches(
            f"fset {a!r}, %f1\n{mnemonic} %f1, %f3\nhalt\n", is_float=True
        )

    @staticmethod
    def _assert_fold_matches(source, is_float):
        program = assemble(source)
        machine = Machine(program)
        machine.run()
        assert machine.halted
        halt = len(program.instructions) - 1
        folded = constant_propagation(build_cfg(program))[halt]
        register, registers = (
            ("f3", machine.fp_regs) if is_float else ("r3", machine.int_regs)
        )
        assert _const_key(folded.get(register)) == _const_key(registers[3])


class TestValueRanges:
    def test_and_mask_bounds_register(self):
        cfg = _showcase_cfg()
        ranges = value_ranges(cfg)
        site = _instr_index(cfg, "smul", ("%r5", "%r6", "%r7"))
        r5 = ranges[site]["r5"]
        r6 = ranges[site]["r6"]
        assert r5.finite and (r5.lo, r5.hi) == (0, 7)
        assert r6.finite and (r6.lo, r6.hi) == (0, 3)
        assert r5.cardinality * r6.cardinality == 32

    def test_loop_counter_widens_instead_of_diverging(self):
        # The induction variable grows every iteration; the analysis
        # must still reach a fixed point (by widening to +inf).
        cfg = _showcase_cfg()
        ranges = value_ranges(cfg)
        site = _instr_index(cfg, "fmul", ("%f2", "%f1", "%f3"))
        assert not ranges[site]["r2"].finite


class TestValueNumbering:
    def test_redundant_pair_shares_value_numbers(self):
        cfg = _showcase_cfg()
        vn = local_value_numbers(cfg)
        first = _instr_index(cfg, "fmul", ("%f2", "%f2", "%f5"))
        second = _instr_index(cfg, "fmul", ("%f2", "%f2", "%f6"))
        assert vn.operand_vns[first] == vn.operand_vns[second]

    def test_distinct_loads_get_distinct_numbers(self):
        cfg = build_cfg(assemble(
            "ld [%r3 + 0], %f2\nfmul %f2, %f2, %f4\n"
            "ld [%r3 + 8], %f2\nfmul %f2, %f2, %f5\nhalt\n"
        ))
        vn = local_value_numbers(cfg)
        sites = [
            index
            for block in cfg.blocks
            for index, ins in block
            if ins.mnemonic == "fmul"
        ]
        assert vn.operand_vns[sites[0]] != vn.operand_vns[sites[1]]


class TestReachingDefinitions:
    def test_prologue_defs_reach_loop_body(self):
        cfg = _showcase_cfg()
        reaching = reaching_definitions(cfg)
        site = _instr_index(cfg, "fmul", ("%f8", "%f9", "%f4"))
        fset_f8 = _instr_index(cfg, "fset", ("3.0", "%f8"))
        assert ("f8", fset_f8) in reaching[site]

    def test_redefinition_kills_previous(self):
        cfg = build_cfg(assemble(
            "set 1, %r2\nset 2, %r2\nadd %r2, 0, %r3\nhalt\n"
        ))
        reaching = reaching_definitions(cfg)
        halt = _instr_index(cfg, "halt")
        defs_of_r2 = {d for d in reaching[halt] if d[0] == "r2"}
        assert defs_of_r2 == {("r2", 1)}


class TestMemoClassification:
    def test_showcase_covers_every_class(self):
        analysis = analyze_source("memo_showcase", PROGRAMS["memo_showcase"])
        observed = {site.classification for site in analysis.sites}
        assert observed == set(SiteClass)

    def test_showcase_site_details(self):
        analysis = analyze_source("memo_showcase", PROGRAMS["memo_showcase"])
        by_class = {
            site.classification: site for site in analysis.sites
        }
        trivial = by_class[SiteClass.TRIVIAL]
        assert trivial.mnemonic == "fmul" and 1 in trivial.operand_consts
        constant = by_class[SiteClass.CONSTANT]
        assert sorted(constant.operand_consts) == [3.0, 7.0]
        bounded = by_class[SiteClass.RANGE_BOUNDED]
        assert bounded.mnemonic == "smul" and bounded.pair_space == 32

    def test_saxpy_multiplier_not_trivial(self):
        # a = 2.5: one constant operand but not 0/1, so no shortcut.
        analysis = analyze_source("saxpy", PROGRAMS["saxpy"])
        (site,) = analysis.sites
        assert site.classification is SiteClass.UNKNOWN
        assert 2.5 in site.operand_consts

    def test_explicit_trivial_forms(self):
        analysis = analyze_program("t", assemble(
            "fset 0.0, %f1\nld [%r3 + 0], %f2\n"
            "fmul %f1, %f2, %f3\n"      # x * 0.0
            "fdiv %f2, %f1, %f4\nhalt\n"  # x / 0.0: NOT trivial
        ))
        classes = [site.classification for site in analysis.sites]
        assert classes[0] is SiteClass.TRIVIAL
        assert classes[1] is not SiteClass.TRIVIAL

    def test_every_program_analyzes(self):
        for name, source in PROGRAMS.items():
            analysis = analyze_source(name, source)
            assert analysis.sites, f"{name} has no multiply/divide sites?"
            assert 0.0 <= analysis.predictable_fraction <= 1.0

    def test_to_dict_is_json_ready(self):
        import json

        analysis = analyze_source("saxpy", PROGRAMS["saxpy"])
        json.dumps(analysis.to_dict())  # must not raise


class TestStaticBoundsBracketDynamic:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_bounds_bracket_measured_hit_ratio(self, name):
        result = check_program(name)
        assert result.ok, (
            f"{name}: lower {result.bounds.lower:.4f} <= measured "
            f"{result.measured:.4f} <= upper {result.bounds.upper:.4f} "
            "violated"
        )

    @pytest.mark.parametrize("n", [8, 48, 96])
    def test_bracketing_holds_across_trip_counts(self, n):
        result = check_program("memo_showcase", n=n)
        assert result.ok

    def test_showcase_lower_bound_is_informative(self):
        # Proven hits (redundant + constant + range-bounded sites) must
        # produce a nontrivial lower bound, not just 0.
        result = check_program("memo_showcase")
        assert result.bounds.lower > 0.3

    def test_upper_bound_counts_compulsory_misses(self):
        # An infinite table still misses each distinct pair once, so the
        # static upper bound must stay below 1.0 for any executed site.
        result = check_program("saxpy")
        assert result.bounds.upper < 1.0

    def test_measured_agrees_with_reference_machine(self):
        machine = reference_machine("memo_showcase", n=REFERENCE_N)
        machine.run(max_steps=2_000_000)
        counts, hits, total = measure_infinite_hit_ratio(machine)
        result = check_program("memo_showcase")
        assert result.measured == pytest.approx(hits / total)
        assert result.total_ops == total
        assert sum(counts.values()) == total


class TestAnalyzeCli:
    def test_analyze_all_programs(self, capsys):
        from repro.analysis.cli import main_analyze

        assert main_analyze([]) == 0
        out = capsys.readouterr().out
        for name in PROGRAMS:
            assert name in out

    def test_analyze_check_passes(self, capsys):
        from repro.analysis.cli import main_analyze

        assert main_analyze(["memo_showcase", "--check"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_analyze_unknown_program_rejected(self, capsys):
        from repro.analysis.cli import main_analyze

        assert main_analyze(["not_a_program"]) == 2

    def test_analyze_json_report(self, tmp_path):
        import json

        from repro.analysis.cli import main_analyze

        report = tmp_path / "analysis.json"
        assert main_analyze(
            ["memo_showcase", "--check", "--json", str(report)]
        ) == 0
        data = json.loads(report.read_text())
        assert data["programs"][0]["program"] == "memo_showcase"
        assert data["checks"][0]["ok"] is True
