#!/usr/bin/env python3
"""Code-line counts per module, for tracking the size of ``src/repro``.

A *code line* is a physical line that holds part of a Python token other
than a comment: blank lines, comment-only lines and the lines of
docstrings (the string literal that opens a module, class or function
body) are left out.  A statement spanning several lines counts each of
its lines.  *Raw lines* are newline characters, as ``wc -l`` counts
them.  Stdlib only.

Prints one row per module (code lines, raw lines, path) and a total::

    python tools/sloc.py                      # every module of src/repro
    python tools/sloc.py src/repro/sim        # one package
    python tools/sloc.py src/repro/sim/bt_sim.py src/repro/sim/brent.py
    python tools/sloc.py --json src/repro     # machine-readable
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import sys
import tokenize
from pathlib import Path

#: token types that never make a line a code line
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """``(code lines, raw lines)`` of one module's source."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source))), source.count("\n")


def modules(paths: list[Path]) -> list[Path]:
    """The ``.py`` files named by ``paths`` (directories recursively)."""
    found: list[Path] = []
    for path in paths:
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths", nargs="*", type=Path, default=[Path("src/repro")],
        help="modules or packages to count (default: src/repro)",
    )
    parser.add_argument("--json", action="store_true", help="print JSON")
    args = parser.parse_args(argv)
    rows = [
        (str(path), *count(path.read_text(encoding="utf-8")))
        for path in modules(args.paths)
    ]
    total_code = sum(code for _, code, _ in rows)
    total_raw = sum(raw for _, _, raw in rows)
    if args.json:
        print(json.dumps({
            "modules": {path: {"code": code, "raw": raw}
                        for path, code, raw in rows},
            "total": {"modules": len(rows), "code": total_code,
                      "raw": total_raw},
        }, indent=2))
        return 0
    for path, code, raw in rows:
        print(f"{code:7d} {raw:7d}  {path}")
    print(f"{total_code:7d} {total_raw:7d}  total ({len(rows)} modules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
