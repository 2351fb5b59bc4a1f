"""Tests for the command line interface."""

import pytest

from repro import trace_cli
from repro.analysis import static
from repro.analysis.static import memo
from repro.cli import main
from repro.isa.machine import MachineError
from repro.isa.programs import (
    PROGRAM_STEP_BUDGET,
    SAMPLE_STEP_BUDGET,
    n_ceiling,
)
from repro.trace_cli import main as trace_main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table7" in out and "figure3" in out

    def test_run_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Pentium Pro" in out
        assert "[table1 in" in out

    def test_scale_flag_parsed(self, capsys):
        assert main(["table1", "--scale", "0.5"]) == 0

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["table99"])

    def test_json_to_stdout(self, capsys):
        assert main(["table1", "--json", "-"]) == 0
        out = capsys.readouterr().out
        import json
        payload = json.loads(out[out.index("{"):])
        assert payload["experiment"] == "table1"
        assert payload["headers"] == ["processor", "multiplication", "division"]

    def test_json_to_file(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        assert main(["table1", "--json", str(target)]) == 0
        import json
        payload = json.loads(target.read_text())
        assert len(payload["rows"]) == 6
        assert "div_to_mul_ratio" in payload["extras"]


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize(
    "entry, argv",
    [
        (main, ["figure4"]),
        (main, ["submit", "figure4"]),
        (main, ["corpus", "record", "figure4"]),
        (trace_main, ["record", "vgauss", "mandrill", "out.trc"]),
    ],
    ids=["repro", "submit", "corpus-record", "repro-trace-record"],
)
def test_bad_scale_is_a_usage_error(entry, argv, value, capsys):
    # Rejected while parsing: nothing runs, nothing is contacted.
    with pytest.raises(SystemExit) as exc:
        entry(argv + [f"--scale={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --scale" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "abc", "1e303"])
def test_bad_gc_bound_is_a_usage_error(value, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["corpus", "gc", "--dir", str(tmp_path), f"--max-mb={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "argument --max-mb" in err
    assert "Traceback" not in err


def test_zero_gc_bound_accepted(tmp_path, capsys):
    assert main(["corpus", "gc", "--dir", str(tmp_path), "--max-mb=0"]) == 0
    assert "(bound 0B)" in capsys.readouterr().out


_BAD_SIZES = ["0", "-5", "abc", "nan", "inf"]

_SIZE_OPTIONS = [
    ("stats", ["stats", "--program", "saxpy", "-n"], "argument -n"),
    ("sample", ["sample", "--program", "saxpy", "--n"], "argument --n"),
    ("submit-n", ["submit", "--program", "saxpy", "--n"], "argument --n"),
    ("submit-entries", ["submit", "--program", "saxpy", "--entries"],
     "argument --entries"),
    ("submit-ways", ["submit", "--program", "saxpy", "--ways"],
     "argument --ways"),
    ("submit-budget", ["submit", "--fuzz", "--budget"], "argument --budget"),
    ("submit-max-events", ["submit", "--fuzz", "--max-events"],
     "argument --max-events"),
    ("submit-timeout", ["submit", "--program", "saxpy", "--timeout"],
     "argument --timeout"),
    ("analyze", ["analyze", "saxpy", "--check", "--n"], "argument --n"),
]

#: An ``n`` one past the step-budget ceiling of a program each command
#: would run (``analyze --check`` with no program runs all six, and
#: memo_showcase has the lowest ceiling).
_OVER_CEILING = [
    ("stats", ["stats", "--program", "saxpy", "-n"],
     n_ceiling("saxpy", PROGRAM_STEP_BUDGET)),
    ("sample", ["sample", "--program", "saxpy", "--n"],
     n_ceiling("saxpy", SAMPLE_STEP_BUDGET)),
    ("analyze", ["analyze", "saxpy", "--check", "--n"],
     n_ceiling("saxpy", PROGRAM_STEP_BUDGET)),
    ("analyze-all", ["analyze", "--check", "--n"],
     n_ceiling("memo_showcase", PROGRAM_STEP_BUDGET)),
]


@pytest.fixture
def machines_built(monkeypatch):
    """Every reference machine a command asks for (none is built)."""
    built = []

    def record(name, n=0):
        built.append((name, n))
        raise AssertionError("a reference machine was built")

    monkeypatch.setattr(memo, "reference_machine", record)
    monkeypatch.setattr(trace_cli, "reference_machine", record)
    return built


@pytest.mark.parametrize(
    "argv, option, value",
    [
        pytest.param(argv, option, value, id=f"{name}-{value}")
        for value in _BAD_SIZES
        for name, argv, option in _SIZE_OPTIONS
    ] + [
        pytest.param(argv, f"ceiling of {ceiling} for", str(ceiling + 1),
                     id=f"{name}-over-ceiling")
        for name, argv, ceiling in _OVER_CEILING
    ],
)
def test_bad_problem_size_is_a_usage_error(
    argv, option, value, capsys, machines_built
):
    # A malformed size fails while parsing; a size past the ceiling
    # gets one line naming it.  Either way nothing is built.
    if option.startswith("argument"):
        with pytest.raises(SystemExit) as exc:
            main(argv + [value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
    else:
        assert main(argv + [value]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
    assert option in err
    assert "Traceback" not in err
    assert machines_built == []


@pytest.mark.parametrize(
    "value",
    _BAD_SIZES + [pytest.param(
        str(n_ceiling("saxpy", PROGRAM_STEP_BUDGET) + 1), id="over-ceiling"
    )],
)
def test_trace_asm_bad_problem_size_is_a_usage_error(
    value, tmp_path, capsys, machines_built
):
    target = tmp_path / "out.trc"
    argv = ["asm", "saxpy", str(target), "--n", value]
    if value in _BAD_SIZES:
        with pytest.raises(SystemExit) as exc:
            trace_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "argument --n" in err
    else:
        assert trace_main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        ceiling = n_ceiling("saxpy", PROGRAM_STEP_BUDGET)
        assert f"ceiling of {ceiling} for" in err
    assert "Traceback" not in err
    assert not target.exists()
    assert machines_built == []


def test_analyze_reports_a_check_error_on_one_line(monkeypatch, capsys):
    def exhausted(name, n=0, max_steps=0):
        raise MachineError("step budget exhausted (2000000)")

    monkeypatch.setattr(static, "check_program", exhausted)
    assert main(["analyze", "saxpy", "--check"]) == 2
    err = capsys.readouterr().err
    assert err == "step budget exhausted (2000000)\n"


def test_stats_unknown_program_is_one_line(capsys):
    assert main(["stats", "--program", "nope"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unknown program 'nope'" in err
