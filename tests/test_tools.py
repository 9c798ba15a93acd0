"""The digest tool that compares CLI outputs between two checkouts."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"
_spec = importlib.util.spec_from_file_location("cli_digest", _PATH)
cli_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digest)


def test_cli_digest_runs_74_commands():
    runs = cli_digest._commands()
    assert len(runs) == 74 and len({tuple(r) for r in runs}) == 74


def test_cli_digest_does_not_depend_on_the_temporary_directory():
    # sweep --format csv prints the path of the file it wrote
    argv = ["sweep", "--format", "csv"]
    assert cli_digest._digest(argv) == cli_digest._digest(argv)
    assert cli_digest._digest(argv) != cli_digest._digest(["sweep", "--format", "json"])
