"""Count the code lines of a Python package: lines that hold a token other
than a comment, and that are not part of a docstring.

    python tools/code_lines.py [directory ...]    (default: src/pdmdirac)

Prints each file's count and the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    with path.open("rb") as f:
        lines = {row for tok in tokenize.tokenize(f.readline) if tok.type not in _SKIP
                 for row in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(path.read_bytes())):
        body = node.body if isinstance(node, _SCOPES) else []
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines -= set(range(body[0].lineno, body[0].end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> None:
    total = 0
    for directory in argv or ["src/pdmdirac"]:
        for path in sorted(Path(directory).rglob("*.py")):
            n = code_lines(path)
            total += n
            print(f"{n:6d}  {path}")
    print(f"{total:6d}  code lines in all")


if __name__ == "__main__":
    main(sys.argv[1:])
