import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_blank_comment_and_docstring_lines_are_not_counted(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text('''"""Module docstring,
over two lines."""

# a comment
import math  # a trailing comment


class Record:
    """Class docstring."""

    def area(self, r):
        """Function
        docstring."""
        text = """a string that is
not a docstring"""
        return math.pi * r * r, text
''')
    # import, class, def, the two lines of the assignment, and the return
    assert code_lines.code_lines(source) == 6


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text('"""Doc."""\nz = 3\n')
    code_lines.main([str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["2", "1", "3"]
    assert lines[-1].endswith("code lines in all")
