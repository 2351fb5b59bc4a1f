"""Tests for the command line interface."""

import pytest

from repro.cli import main
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


@pytest.mark.parametrize("value", ["0", "-5", "abc", "nan", "inf"])
@pytest.mark.parametrize(
    "argv, option",
    [
        (["stats", "--program", "saxpy", "-n"], "argument -n"),
        (["sample", "--program", "saxpy", "--n"], "argument --n"),
        (["submit", "--program", "saxpy", "--n"], "argument --n"),
        (["submit", "--program", "saxpy", "--entries"], "argument --entries"),
        (["submit", "--program", "saxpy", "--ways"], "argument --ways"),
        (["submit", "--fuzz", "--budget"], "argument --budget"),
        (["submit", "--fuzz", "--max-events"], "argument --max-events"),
        (["submit", "--program", "saxpy", "--timeout"], "argument --timeout"),
        (["analyze", "saxpy", "--check", "--n"], "argument --n"),
    ],
    ids=[
        "stats", "sample", "submit-n", "submit-entries", "submit-ways",
        "submit-budget", "submit-max-events", "submit-timeout", "analyze",
    ],
)
def test_bad_problem_size_is_a_usage_error(argv, option, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + [value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert option in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-5", "abc", "nan", "inf"])
def test_trace_asm_bad_problem_size_is_a_usage_error(value, tmp_path, capsys):
    target = tmp_path / "out.trc"
    with pytest.raises(SystemExit) as exc:
        trace_main(["asm", "saxpy", str(target), "--n", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "argument --n" in err
    assert "Traceback" not in err
    assert not target.exists()


def test_stats_unknown_program_is_one_line(capsys):
    assert main(["stats", "--program", "nope"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unknown program 'nope'" in err
