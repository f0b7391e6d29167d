"""Count the logical lines of the lmss package, module by module.

    python scripts/loc.py [SRC_DIR]

A logical line is a physical line that holds a code token: blank lines,
comment-only lines and docstrings (the string that opens a module, class
or function body) are not counted, and a statement spread over several
lines counts each line that holds one of its tokens. Prints one line per
module of SRC_DIR (default: src/lmss next to this script) and the total.
"""

import argparse
import ast
import io
import pathlib
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(source: str) -> set:
    """The physical lines of every docstring in ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def logical_lines(source: str) -> int:
    code = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(source))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("src", nargs="?", type=pathlib.Path,
                   default=pathlib.Path(__file__).resolve().parent.parent / "src" / "lmss")
    args = p.parse_args(argv)
    total = 0
    for path in sorted(args.src.glob("*.py")):
        count = logical_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:24} {count:5}")
    print(f"{'total':24} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
