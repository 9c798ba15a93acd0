"""The digest tools that compare CLI outputs and orbits between two checkouts."""

from __future__ import annotations

import contextlib
import importlib.util
import io
from pathlib import Path


def _load(name: str):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cli_digest, orbit_digest = _load("cli_digest"), _load("orbit_digest")


def test_cli_digest_runs_74_commands():
    runs = cli_digest._commands()
    assert len(runs) == 74 and len({tuple(r) for r in runs}) == 74


def test_cli_digest_does_not_depend_on_the_temporary_directory():
    # sweep --format csv prints the path of the file it wrote
    argv = ["sweep", "--format", "csv"]
    assert cli_digest._digest(argv) == cli_digest._digest(argv)
    assert cli_digest._digest(argv) != cli_digest._digest(["sweep", "--format", "json"])


def _orbit_digest_output() -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        orbit_digest.main()
    return out.getvalue().splitlines()


def test_orbit_digest_prints_24_distinct_lines_the_same_each_time():
    lines = _orbit_digest_output()
    assert len(lines) == 24 and len(set(lines)) == 24
    assert len({line.split()[-1] for line in lines}) == 24
    assert _orbit_digest_output() == lines
