"""Documentation health: every local markdown link must resolve.

Wires ``tools/check_links.py`` (also run standalone by the CI docs job)
into the tier-1 suite so a renamed file or heading breaks the build,
not the reader.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECKER = ROOT / "tools" / "check_links.py"

DOC_FILES = sorted(
    str(p.relative_to(ROOT))
    for p in [ROOT / "README.md", ROOT / "DESIGN.md", *ROOT.glob("docs/*.md")]
)


def test_doc_inventory_present():
    """The pages the README/ISSUE contract promises all exist."""
    for name in ("README.md", "DESIGN.md", "docs/architecture.md",
                 "docs/glossary.md", "docs/MODELS.md", "docs/TUTORIAL.md"):
        assert (ROOT / name).is_file(), f"missing documentation page {name}"


def test_markdown_links_resolve():
    proc = subprocess.run(
        [sys.executable, str(CHECKER), *DOC_FILES],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, (
        f"broken documentation links:\n{proc.stderr}"
    )


def test_checker_detects_breakage(tmp_path):
    """Guard against the checker silently matching nothing."""
    page = tmp_path / "page.md"
    page.write_text("# Page\n\n[gone](missing.md) [bad](#no-such)\n")
    proc = subprocess.run(
        [sys.executable, str(CHECKER), str(page)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "missing.md" in proc.stderr
    assert "no-such" in proc.stderr


@pytest.mark.parametrize("page", ["docs/architecture.md", "docs/glossary.md"])
def test_paper_map_names_real_modules(page):
    """Module paths cited in the paper-to-code docs must exist."""
    import re

    text = (ROOT / page).read_text(encoding="utf-8")
    cited = set(re.findall(r"(src/repro/[\w/]+\.py)", text))
    assert cited, f"{page} cites no modules — regex or docs drifted"
    for path in sorted(cited):
        mod = ROOT / path
        pkg = mod.with_suffix("")
        assert mod.is_file() or (pkg / "__init__.py").is_file(), (
            f"{page} cites {path}, which does not exist"
        )


def documented_commands() -> list[tuple[str, str]]:
    """Every ``python -m repro ...`` line inside a fenced code block of
    README.md and docs/*.md, as ``(page:line, command)``."""
    found = []
    for page in [ROOT / "README.md", *sorted(ROOT.glob("docs/*.md"))]:
        in_code = False
        for n, line in enumerate(page.read_text().splitlines(), 1):
            text = line.strip()
            if text.startswith("```"):
                in_code = not in_code
            elif in_code and text.startswith("python -m repro"):
                found.append((f"{page.relative_to(ROOT)}:{n}", text))
    return found


def parse_error(command: str) -> str | None:
    """What the CLI's argument parser says about ``command`` (parse
    only, nothing runs); ``None`` when it parses."""
    import contextlib
    import io
    import shlex

    from repro.cli import build_parser

    argv = shlex.split(command, comments=True)[3:]  # after python -m repro
    if argv and argv[-1] == "&":
        argv.pop()
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code:  # --version exits 0 after printing
            return err.getvalue()
    return None


def test_documented_commands_parse():
    """A stale flag in a documented command fails the build."""
    failures = [
        f"{where}: {command!r}\n{error}"
        for where, command in documented_commands()
        if (error := parse_error(command)) is not None
    ]
    assert not failures, "documented commands that do not parse:\n" + (
        "\n".join(failures)
    )


def test_command_check_sees_the_docs_and_rejects_a_stale_flag():
    pages = {where.split(":")[0] for where, _ in documented_commands()}
    assert {"README.md", "docs/dag.md", "docs/TUTORIAL.md"} <= pages
    assert parse_error("python -m repro run sort --v 16") is None
    assert "--trace" in parse_error("python -m repro run sort --trace off")
