import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

from test_golden import GOLDEN

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "demo_pipeline.py"


def test_demo_writes_numeric_csvs_and_the_golden_timeline(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("signal.csv", "peaks.csv"):
        with open(tmp_path / name, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows, name
        for row in rows:
            assert len(row) == len(header), (name, row)
            for field in row:
                float(field)  # a numpy repr such as np.float64(0.1) raises here
    timeline = (tmp_path / "timeline.csv").read_bytes()
    assert (
        hashlib.sha256(timeline).hexdigest()
        == GOLDEN["default-seed42-m1"]["timeline.csv"]
    )
