import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "anomaly_experiment.py"


def load_script():
    spec = importlib.util.spec_from_file_location("anomaly_experiment", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_scenario_reports_one_row_per_machine(capsys):
    assert load_script().main(["--scenario", "default", "--duration", "24"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines if re.match(r"\s*m\d+ ", line)]
    assert [row[0] for row in rows] == ["m1", "m2", "m3", "m4"]
    for row in rows:
        true, flagged, hit, recall = int(row[5]), int(row[6]), int(row[7]), float(row[8])
        assert true > 0 and 0 <= hit <= min(true, flagged)
        assert recall == round(hit / true, 3)
    hits = sum(int(row[7]) for row in rows)
    total = sum(int(row[5]) for row in rows)
    assert lines[-1] == f"failure-block recall {hits}/{total}"
