"""What a fresh CLI process imports.

Every `lifter` command is a new process, and the environment may keep no
bytecode, so each module imported is also compiled on every run.  These
tests pin which standard modules starting the CLI leaves out; they count
modules, they do not time anything.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import lifter
from lifter.ingest import bundled_corpus_dir

SRC = Path(lifter.__file__).resolve().parent.parent

# Code generation (dataclasses pulls in inspect, ast, dis and tokenize) and
# modules only `extract` uses.
NOT_AT_START = ("dataclasses", "inspect", "ast", "dis", "tokenize", "csv")


def loaded_after(code: str, *flags: str) -> set[str]:
    """The modules a fresh interpreter holds after running code."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code + "\nimport sys; print(' '.join(sys.modules))"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return set(proc.stdout.split())


def added_by(code: str, *flags: str) -> set[str]:
    """The modules running code loads beyond what interpreter start does."""
    return loaded_after(code, *flags) - loaded_after("pass", *flags)


def test_importing_the_cli_generates_no_code():
    added = added_by("import lifter.cli")
    assert "lifter.cli" in added
    assert [m for m in NOT_AT_START if m in added] == []


def test_without_site_hooks_the_cli_needs_neither_typing_nor_tempfile():
    # Site hooks of an installation may import these two themselves.
    added = added_by("import lifter.cli", "-S")
    assert [m for m in (*NOT_AT_START, "typing", "tempfile") if m in added] == []


def test_extract_loads_csv(tmp_path):
    code = (
        "from lifter.cli import main\n"
        f"assert main(['extract', '--corpus', {str(bundled_corpus_dir())!r},"
        f" '--out', {str(tmp_path / 'out.csv')!r}]) == 0"
    )
    assert "csv" in added_by(code)
    assert (tmp_path / "out.csv").read_text(encoding="utf-8").startswith("case_id,args_id,")
