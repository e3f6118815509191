"""Count code lines per module of the nctoggles package, and in total.

A code line is a non-blank line that holds at least one token other than a
comment, outside every docstring (module, class or function).  Tokens come
from ``tokenize``; docstring spans from ``ast``.

Usage: ``python tools/code_lines.py [PACKAGE_DIR]`` (default
``src/nctoggles`` beside this script's parent).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(
                n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip
            )
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "nctoggles"
    counts = {
        path.name: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(root.glob("*.py"))
    }
    width = max(map(len, counts), default=5)
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:>5,}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
