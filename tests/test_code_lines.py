import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_module_counts_add_up_to_the_total(code_lines, capsys):
    assert code_lines.main([]) == 0
    rows = [line.rsplit(None, 1) for line in capsys.readouterr().out.splitlines()]
    *modules, (label, total) = rows
    assert label == "total"
    assert "cli.py" in dict(modules)
    assert sum(int(count) for _, count in modules) == int(total) > 0


def test_docstrings_comments_and_blanks_count_zero(code_lines):
    assert code_lines.code_lines('"""Module docstring,\n\non three lines."""\n\n# a comment\n') == 0
    source = '''"""Module."""

import os  # counted


class A:
    """Class docstring."""

    def f(self):
        """Function docstring
        on two lines."""
        x = """a string
        that is not a docstring"""
        return (x,
                os)
'''
    # import, class, def, the two lines of x and the two of the return
    assert code_lines.code_lines(source) == 7
