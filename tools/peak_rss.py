"""Seconds, peak RSS and output hash of cold CLI runs on the row word.

Usage: ``python tools/peak_rss.py N [N ...]``

For each n, runs ``orbits N --sizes-only --format json`` and
``homomesy N --stat alpha --format json`` on the row word of NC(n), each in
a fresh interpreter on ``src/`` beside this script's parent, with the
enumeration ceiling raised to n.  Each run is measured by its own
intermediate interpreter, which waits for it and reads the peak RSS from
``RUSAGE_CHILDREN``, so one run's peak never carries into the next.  Prints
one line per run: the command, its seconds, its peak RSS in MB (Linux
reports kilobytes), that peak in bytes per state of NC(n) (catalan(n)
states) and the sha256 of its stdout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Run in the intermediate interpreter: argv[1:] is the measured command.
MEASURE = """
import hashlib, json, resource, subprocess, sys, time
start = time.perf_counter()
done = subprocess.run(sys.argv[1:], stdout=subprocess.PIPE, check=True)
seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps([seconds, peak / 1024, hashlib.sha256(done.stdout).hexdigest()]))
"""


def measure(argv: list[str], env: dict) -> tuple[float, float, str]:
    """``(seconds, peak RSS in MB, stdout sha256)`` of one cold CLI run."""
    cli = [sys.executable, "-m", "nctoggles.cli", *argv]
    done = subprocess.run(
        [sys.executable, "-c", MEASURE, *cli], stdout=subprocess.PIPE, env=env,
        check=True, text=True,
    )
    seconds, peak, digest = json.loads(done.stdout)
    return seconds, peak, digest


def main(argv: list[str]) -> int:
    if not argv or not all(arg.isdigit() for arg in argv):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from nctoggles.ncpartition import catalan
    from nctoggles.words import row_word

    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for n in map(int, argv):
        word = row_word(n).to_text()
        for command in (
            ["orbits", str(n), "--sizes-only"],
            ["homomesy", str(n), "--stat", "alpha"],
        ):
            full = [*command, "--word", word, "--format", "json", "--max-n", str(n)]
            seconds, peak, digest = measure(full, env)
            per_state = peak * 2**20 / catalan(n)
            print(
                f"{' '.join(command):<24} {seconds:7.2f} s {peak:8.1f} MB "
                f"{per_state:10.1f} B/state  {digest}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
