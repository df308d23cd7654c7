"""Print the code lines of each ``src/rankqda`` module and their total.

A code line is a source line that holds part of a token other than a
comment, a docstring or layout (newlines, indents and dedents), so blank
lines, comment lines and docstrings are left out. A docstring is the
string a module, class or function body starts with, as :mod:`ast`
reads it. A line that a multi-line string or bracket spans counts once.

    python3 tools/code_lines.py              # the package next to this script
    python3 tools/code_lines.py base/src/rankqda

Prints one ``module lines`` line per module, in name order, then
``total lines``.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """Line numbers taken by the docstrings of the module and its classes and functions."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in Python ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "rankqda"
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    if not counts:
        print(f"no Python modules in {package}", file=sys.stderr)
        return 1
    for name, count in counts.items():
        print(f"{name} {count}")
    print(f"total {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
