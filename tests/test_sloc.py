"""``tools/sloc.py``: code lines leave out docstrings, comments and blanks.

The ROADMAP tracks the size of ``src/repro`` in code lines, so the
counter must not move when a docstring or comment grows, and must count
every line of a multi-line statement.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "sloc.py"

_spec = importlib.util.spec_from_file_location("sloc", TOOL)
sloc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sloc)

#: 7 code lines (marked ``# code``) among docstrings, comments, blank
#: lines and a string statement that is not a docstring
FIXTURE = '''\
"""Module docstring,
over two lines."""

# a comment
import os  # code, with a trailing comment


class Thing:  # code
    """Class docstring."""

    #: an attribute comment
    size = 3  # code

    def method(self):  # code
        """Method docstring
        on two lines.
        """
        return (  # code
            os.sep  # code
        )  # code
'''


def test_fixture_counts_code_lines_only():
    assert sloc.count(FIXTURE) == (7, FIXTURE.count("\n"))


def test_docstrings_and_comments_do_not_count():
    bigger = FIXTURE.replace(
        '"""Class docstring."""',
        '"""Class docstring,\n    now much longer.\n    """\n    # and more\n',
    )
    assert sloc.count(bigger)[0] == sloc.count(FIXTURE)[0]
    assert sloc.count(bigger)[1] > sloc.count(FIXTURE)[1]


def test_a_non_docstring_string_statement_is_code():
    source = 'def f():\n    x = 1\n    "not a docstring"\n    return x\n'
    assert sloc.count(source)[0] == 4


def test_command_line_totals(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# c\n")
    out = subprocess.run(
        [sys.executable, str(TOOL), "--json", str(tmp_path / "pkg")],
        capture_output=True, text=True, check=True,
    ).stdout
    total = json.loads(out)["total"]
    assert total == {
        "modules": 2, "code": 8, "raw": FIXTURE.count("\n") + 3,
    }
