"""Importing loclab and running its commands loads no scipy module.

Importing ``scipy.integrate`` or ``scipy.optimize`` is most of the start-up
time of a command, so scipy is loaded only where it is still used, on first
use.  The one command that does load it is ``dirichlet`` at a level (any
``--phi-boundary`` but ``at-phi0`` on a spiral): its crossing brackets and
their polish read ``Orbit.interpolant``, scipy's ``OdeSolution``, which the benchmark's
tracer counts (ROADMAP item 1).  The density verdict loads it too, through
``geometry.quad``, but no command runs that.  Nor does ``import loclab`` load
``numpy.polynomial``: the densities build their Gauss-Legendre nodes on
first use.

Each case runs in a fresh interpreter, because this test process has loaded
scipy long before.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
_PROBE = """
import contextlib, io, json, sys
{body}
print(json.dumps({{"code": code, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "numpy.polynomial": "numpy.polynomial" in sys.modules}}))
"""


def _run(body: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", _PROBE.format(body=body)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loclab_loads_no_scipy():
    assert _run("import loclab\ncode = 0")["scipy"] == []


def test_import_loclab_loads_no_numpy_polynomial():
    assert _run("import loclab\ncode = 0")["numpy.polynomial"] is False


_TRIPLE = ["--n", "3", "--p", "2", "--k", "4"]  # a spiral (TypeII)


@pytest.mark.parametrize("argv", [
    ["classify", *_TRIPLE],
    ["portrait", *_TRIPLE],
    ["profile", *_TRIPLE],
    ["barriers", *_TRIPLE],
    ["verify-hopf"],
    ["sweep"],
    ["sweep", "--format", "csv"],
    ["dirichlet", "--phi-boundary", "at-phi0", *_TRIPLE],
], ids=["classify", "portrait", "profile", "barriers", "verify-hopf", "sweep-json",
        "sweep-csv", "dirichlet-at-phi0"])
def test_command_loads_no_scipy(argv, tmp_path):
    body = ("import loclab.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = loclab.cli.main({argv + ['--no-timestamp', '--out', str(tmp_path)]!r})")
    got = _run(body)
    assert got["code"] == 0
    assert got["scipy"] == []
