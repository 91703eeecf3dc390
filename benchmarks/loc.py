"""Net code lines of ``src/repro`` against a base revision, with
docstrings and comments counted apart — the figure a simplicity change
reports.

    python -m benchmarks.loc --base REV

(``make loc BASE=REV``.) For every Python file under ``src/repro`` at
REV (read with ``git show``) or in the working tree, prints its code
lines and its docstring/comment lines on both sides, then the totals
and the net change of each. A line is *code* when it holds any token
that is neither a comment nor part of a docstring (``x = 1  # note`` is
code); it is *doc* when it holds only docstring text or a comment. A
docstring is any statement that is a bare string literal: the module,
class and function docstrings, and the attribute strings Sphinx reads.
Blank lines count as neither.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/repro"

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def count(source: str) -> tuple[int, int]:
    """``(code lines, docstring/comment lines)`` of one module's text."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    code: set[int] = set()
    doc: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        first, last = token.start[0], token.end[0]
        if token.type == tokenize.COMMENT:
            doc.add(first)
        elif token.type == tokenize.STRING and first in docstrings:
            doc.update(range(first, last + 1))
        elif token.type not in _LAYOUT:
            code.update(range(first, last + 1))
    return len(code), len(doc - code)


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO_ROOT, check=True, capture_output=True, text=True
    ).stdout


def base_counts(rev: str) -> dict[str, tuple[int, int]]:
    """``path -> count(...)`` for every module under the package at ``rev``."""
    paths = _git("ls-tree", "-r", "--name-only", rev, "--", PACKAGE).split()
    return {
        path: count(_git("show", f"{rev}:{path}"))
        for path in paths
        if path.endswith(".py")
    }


def tree_counts() -> dict[str, tuple[int, int]]:
    """``path -> count(...)`` for every module under the package here."""
    return {
        path.relative_to(REPO_ROOT).as_posix(): count(path.read_text())
        for path in sorted((REPO_ROOT / PACKAGE).rglob("*.py"))
    }


def report(base: dict, tree: dict, out=sys.stdout) -> tuple[int, int]:
    """Print one row per module and the totals; return the net
    ``(code, doc)`` change from ``base`` to ``tree``."""
    row = "{:<44} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7}"
    print(row.format("file", "base code", "base doc", "code", "doc", "Δcode", "Δdoc"), file=out)
    totals = [0, 0, 0, 0]
    for path in sorted(set(base) | set(tree)):
        b_code, b_doc = base.get(path, (0, 0))
        t_code, t_doc = tree.get(path, (0, 0))
        for i, value in enumerate((b_code, b_doc, t_code, t_doc)):
            totals[i] += value
        name = path[len(PACKAGE) + 1 :] if path.startswith(PACKAGE) else path
        print(
            row.format(
                name, b_code, b_doc, t_code, t_doc,
                f"{t_code - b_code:+d}", f"{t_doc - b_doc:+d}",
            ),
            file=out,
        )
    b_code, b_doc, t_code, t_doc = totals
    net = (t_code - b_code, t_doc - b_doc)
    print(
        row.format("total", b_code, b_doc, t_code, t_doc, f"{net[0]:+d}", f"{net[1]:+d}"),
        file=out,
    )
    return net


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    args = parser.parse_args(argv)
    code, doc = report(base_counts(args.base), tree_counts())
    print(f"net: {code:+d} code lines, {doc:+d} docstring/comment lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
