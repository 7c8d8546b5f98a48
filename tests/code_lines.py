"""Print each module's code lines: lines of `src/dgfm`, less docstrings, comments and blanks.

Run by hand, outside the test suite:

    python tests/code_lines.py [FILE ...]

It counts the files given, or every module of the package. A line counts
when it holds a token of code: not a comment, and not part of a module,
class or function docstring. ``wc -l`` counts every line, so a change that
only shortens docstrings lowers it but not this count.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dgfm"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of lines of ``source`` that hold code."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if token.type not in NOT_CODE:
            lines.update(line for line in range(token.start[0], token.end[0] + 1)
                         if line not in docs)
    return len(lines)


def main(paths):
    paths = [Path(p) for p in paths] or sorted(PACKAGE.glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
