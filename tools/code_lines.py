"""Print the code lines of each module of a package and their total.

A line counts when a token other than a comment, a newline, an indent or a
dedent starts on it or spans it, and that token is not part of a module,
class or function docstring. Blank lines, comment lines and docstrings count
0; a line of a multi-line expression or string counts once.

    python3 tools/code_lines.py              # src/dpevent
    python3 tools/code_lines.py path/to/pkg  # every *.py under it, sorted
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_spans(tree: ast.Module) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions of each module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines of one module's source text."""
    docstrings = _docstring_spans(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIPPED:
            continue
        if any(start <= tok.start and tok.end <= end for start, end in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count_package(root: Path) -> dict[str, int]:
    """Code lines of every *.py under root, keyed by its path relative to root."""
    return {path.relative_to(root).as_posix(): code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(root.rglob("*.py"))}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "dpevent"
    counts = count_package(root)
    width = max(map(len, counts), default=0)
    for name, count in counts.items():
        print(f"{name:<{width}} {count:>5}")
    print(f"{'total':<{width}} {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
