"""Count the lines of ``src/fimnar``, module by module.

For each module it prints two counts: the file's lines (what ``wc -l``
reads) and its code lines. Code lines leave out module, class and
function docstrings, comments and blank lines; a line that holds any
other token counts, and so does every line of a string that spans
several lines. The last row gives the totals. With ``--parent DIR`` it
also prints the counts of ``DIR/src/fimnar`` and the change from them;
a module that exists in one tree only counts 0 lines in the other.

Usage:
    python scripts/code_lines.py
    python scripts/code_lines.py --parent /path/to/other/checkout
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "fimnar"
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """``(lines, code lines)`` of one Python source file."""
    text = path.read_text()
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - _docstring_lines(ast.parse(text)))


def count_tree(root: Path) -> dict[str, tuple[int, int]]:
    """Counts per module of ``root/src/fimnar``, plus a ``total`` row."""
    counts = {p.name: count(p) for p in sorted((root / PACKAGE).glob("*.py"))}
    counts["total"] = tuple(sum(c[i] for c in counts.values()) for i in (0, 1))
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="another checkout to compare against")
    args = parser.parse_args()
    here = count_tree(REPO)
    if args.parent is None:
        print(f"{'module':<16}{'lines':>8}{'code':>8}")
        for name, (lines, code) in here.items():
            print(f"{name:<16}{lines:>8}{code:>8}")
        return 0
    there = count_tree(args.parent)
    print(f"{'module':<16}{'lines':>8}{'parent':>8}{'diff':>7}{'code':>8}{'parent':>8}{'diff':>7}")
    names = sorted((set(here) | set(there)) - {"total"}) + ["total"]
    for name in names:
        mine, theirs = here.get(name, (0, 0)), there.get(name, (0, 0))
        cells = "".join(
            f"{mine[i]:>8}{theirs[i]:>8}{mine[i] - theirs[i]:>+7}" for i in (0, 1)
        )
        print(f"{name:<16}{cells}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
