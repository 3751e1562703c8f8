"""``tools/code_lines.py`` counts code lines: no docstring, comment or
blank line counts, and every physical line of a statement does.  The tool
is loaded by path.
"""

import importlib.util
from pathlib import Path

CODE_LINES = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

MODULE = '''\
"""A module docstring
over two lines."""

import math  # a trailing comment keeps its line


# A comment line.
def area(r):
    """One-line docstring."""
    total = math.pi * (r
                       ** 2)
    return total


class Shape:
    """Class docstring."""

    sides = ("""not a docstring,
an assigned string""")
'''


def load_code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", CODE_LINES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_of_a_synthetic_module(tmp_path, capsys):
    code_lines = load_code_lines()
    # import, def, the two lines of the total, return, class, and the two
    # lines of the assigned string.
    assert code_lines.code_lines(MODULE) == 8
    (tmp_path / "shapes.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n',
                                       encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.count_directory(str(tmp_path)) == {"empty.py": 0,
                                                         "shapes.py": 8}
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out] == [["empty.py", "0"],
                                              ["shapes.py", "8"],
                                              ["total", "8"]]
