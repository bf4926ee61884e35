import csv
import importlib.util
import io
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_verification.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_verification", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_sweep_covers_every_beta(capsys):
    code = load_script().main(["--m-max", "5", "--format", "csv"])
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0
    assert rows[0][:3] == ["query", "m", "beta"]
    assert sum(row[0] == "query" for row in rows) == 1
    assert sorted((int(r[1]), int(r[2])) for r in rows[1:]) == [
        (m, beta) for m in range(1, 6) for beta in range(1, m + 1)
    ]
    assert all(r[5] == "pass" for r in rows[1:])


@pytest.mark.parametrize("argv, message", [
    (["--beta", "0"], "--beta values must be at least 1"),
    (["--beta", "2", "-1", "--m-max", "4"], "--beta values must be at least 1"),
    (["--m-max", "11"], "exceeds the enumeration guard 10"),
    (["--m-max", "12", "--guard", "11"], "exceeds the enumeration guard 11"),
    (["--m-max", "0"], "no query in range"),
    (["--beta", "5", "--m-max", "3"], "no query in range"),
    (["--m-min", "9", "--m-max", "3"], "no query in range"),
])
def test_bad_ranges_exit_2_before_any_report(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        load_script().main(argv + ["--format", "csv"])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert captured.out == ""
    assert message in captured.err


def test_guard_raised_with_m_max_is_accepted():
    args = load_script().parse_args(["--m-max", "11", "--guard", "11", "--beta", "11"])
    assert (args.m_max, args.guard, args.beta) == (11, 11, [11])
