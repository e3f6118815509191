"""tools/code_lines.py, the per-module count of code lines: docstrings,
comments and blank lines are not code."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

MODULE = '''"""A module docstring
over two lines."""

# A comment-only line.
import sys


def f(x):
    """A function docstring."""
    # Another comment.
    y = (x +
         1)  # a trailing comment

    return y
'''


def rows(*argv):
    out = subprocess.run(
        [sys.executable, str(SCRIPT), *argv], capture_output=True, text=True, check=True
    ).stdout
    return dict(line.rsplit(maxsplit=1) for line in out.splitlines())


def test_a_tiny_package_counts_only_its_code_lines(tmp_path):
    # import, def, the two lines of the assignment and return: 5.
    (tmp_path / "mod.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n\n', encoding="utf-8")
    assert rows(str(tmp_path)) == {"empty.py": "0", "mod.py": "5", "total": "5"}


def test_the_package_total_is_the_sum_of_its_modules():
    counts = {name: int(count.replace(",", "")) for name, count in rows().items()}
    total = counts.pop("total")
    assert len(counts) > 1 and total == sum(counts.values())
