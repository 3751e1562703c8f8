#!/usr/bin/env python3
"""Count the code lines of the Python modules in a directory.

    python3 tools/code_lines.py             # src/vlfjscc
    python3 tools/code_lines.py path/to/pkg

A code line is a physical line holding at least one token that is not a
comment, and that is not part of a docstring (the leading string
statement of a module, class or function, found with ``ast``).  Blank
lines and comment-only lines do not count; every physical line of a
statement that spans several lines does.  Prints one line per module,
sorted by name, then the total.
"""

import argparse
import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def count_directory(path: str) -> dict:
    """{module file name: code lines} for the .py files of one directory."""
    counts = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(".py"):
            with open(os.path.join(path, name), encoding="utf-8") as fh:
                counts[name] = code_lines(fh.read())
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", nargs="?",
                        default=os.path.join(ROOT, "src", "vlfjscc"))
    args = parser.parse_args(argv)
    if not os.path.isdir(args.path):
        parser.error(f"not a directory: {args.path}")
    counts = count_directory(args.path)
    width = max((len(name) for name in counts), default=5)
    for name, n in counts.items():
        print(f"{name:<{width}} {n:>6}")
    print(f"{'total':<{width}} {sum(counts.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
