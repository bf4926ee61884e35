import csv
import importlib.util
import io
from pathlib import Path

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
