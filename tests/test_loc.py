"""``benchmarks/loc.py``: code lines and docstring/comment lines counted
apart, the figure a simplicity change reports."""

from __future__ import annotations

import io
import textwrap

from benchmarks.loc import count, report

FIXTURE = textwrap.dedent(
    '''\
    """Module docstring,
    two lines."""

    import os  # a trailing comment leaves the line code

    # A comment on its own line.
    #: An attribute comment.
    LIMIT = 3
    """Attribute docstring."""


    class Thing:
        """One-line class docstring."""

        def method(self):
            """Method docstring
            over three
            lines."""
            text = """a multi-line
            string that is code"""
            return text  # comment
    '''
)


def test_count_splits_code_from_docstrings_and_comments():
    # Code: import, LIMIT, class, def, the two lines of ``text``, return.
    # Doc: 2 module docstring lines, 2 comment lines, 1 attribute
    # docstring, 1 class docstring, 3 method docstring lines.
    assert count(FIXTURE) == (7, 9)


def test_blank_lines_count_as_neither():
    assert count("\n\nx = 1\n\n") == (1, 0)


def test_report_totals_and_net_change():
    base = {"src/repro/a.py": (10, 4), "src/repro/gone.py": (3, 1)}
    tree = {"src/repro/a.py": (8, 5), "src/repro/new.py": (2, 0)}
    out = io.StringIO()
    assert report(base, tree, out) == (-3, 0)
    lines = out.getvalue().splitlines()
    assert [line.split()[0] for line in lines[1:]] == ["a.py", "gone.py", "new.py", "total"]
    assert lines[-1].split() == ["total", "13", "5", "10", "5", "-3", "+0"]
