"""tools/peak_rss.py, the cold-run meter: one line per run with seconds,
peak RSS, bytes per state and the sha256 of the run's output."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

from nctoggles.ncpartition import catalan
from nctoggles.words import row_word

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "peak_rss.py"

LINE = re.compile(
    r"(?P<command>\S+(?: \S+)*) +(?P<seconds>\d+\.\d\d) s +(?P<mb>\d+\.\d) MB"
    r" +(?P<per_state>\d+\.\d) B/state  (?P<digest>[0-9a-f]{64})"
)


def test_each_run_prints_its_peak_per_state_beside_its_hash():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "3"], capture_output=True, text=True, check=True
    ).stdout
    rows = [LINE.fullmatch(line) for line in out.splitlines()]
    assert all(rows) and [row["command"] for row in rows] == [
        "orbits 3 --sizes-only", "homomesy 3 --stat alpha",
    ]
    # The MB column is rounded to 0.1 MB, the B/state column to 0.1 B.
    for row in rows:
        per_state = float(row["mb"]) * 2**20 / catalan(3)
        assert abs(float(row["per_state"]) - per_state) <= 0.05 * 2**20 / catalan(3) + 0.05
    argv = ["orbits", "3", "--sizes-only", "--word", row_word(3).to_text(), "--format", "json",
            "--max-n", "3"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cold = subprocess.run(
        [sys.executable, "-m", "nctoggles.cli", *argv], capture_output=True, env=env, check=True
    ).stdout
    assert rows[0]["digest"] == hashlib.sha256(cold).hexdigest()
