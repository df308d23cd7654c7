import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

_SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line

# a comment line


class Shape:
    """Class docstring."""

    SIDES = (
        3,
        4,
    )

    def area(self, r):
        """Function docstring."""
        label = """a multi-line
string that is not a docstring"""
        return math.pi * r * r, label
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    # import, class, SIDES over 4 lines, def, the 2-line string and return
    assert code_lines.code_lines(_SOURCE) == 10


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(_SOURCE)
    (tmp_path / "a.py").write_text('"""Only a docstring."""\nx = 1\n')
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a 1\nb 10\ntotal 11\n"
