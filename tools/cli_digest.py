"""One digest line per CLI run, to diff the outputs of two checkouts.

Runs 74 ``loclab`` commands in this process, each with ``--no-timestamp`` and
its own fresh temporary ``--out`` directory: classify, portrait, profile,
barriers, verify-hopf, and dirichlet at ``at-phi0`` and at 0.5 on the 8 sweep
triples; profile and barriers at TIGHT (rtol = atol = 1e-13); and sweep as
JSON and as CSV.  For each run it prints the command and the sha256 of its
exit code, stdout, stderr and written files, after replacing the temporary
directory by ``<out>``.  Run from the repository root of each checkout, with
no arguments, and compare the two outputs:

    python3 tools/cli_digest.py > digest.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from loclab import cli  # noqa: E402

TIGHT = ["--abs-tol", "1e-13", "--rel-tol", "1e-13"]


def _commands() -> list[list[str]]:
    runs = []
    for n, p, k in cli.SWEEP_DEFAULT:
        triple = ["--n", str(n), "--p", str(p), "--k", str(k)]
        runs += [[cmd, *triple] for cmd in
                 ("classify", "portrait", "profile", "barriers", "verify-hopf")]
        runs += [["dirichlet", *triple, "--phi-boundary", level] for level in ("at-phi0", "0.5")]
        runs += [[cmd, *triple, *TIGHT] for cmd in ("profile", "barriers")]
    return runs + [["sweep", "--format", "json"], ["sweep", "--format", "csv"]]


def _digest(argv: list[str]) -> str:
    """sha256 of one run's exit code, stdout, stderr and written files."""
    with tempfile.TemporaryDirectory() as out:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, "--no-timestamp", "--out", out])
        sha = hashlib.sha256(f"exit {code}\n".encode())
        for name, text in (("stdout", stdout.getvalue()), ("stderr", stderr.getvalue())):
            data = text.replace(out, "<out>").encode()
            sha.update(f"{name} {len(data)}\n".encode() + data)
        for path in sorted(Path(out).rglob("*")):
            if path.is_file():
                data = path.read_bytes().replace(out.encode(), b"<out>")
                sha.update(f"file {path.relative_to(out).as_posix()} {len(data)}\n".encode()
                           + data)
        return sha.hexdigest()


def main() -> None:
    for argv in _commands():
        print(" ".join(["loclab", *argv]), _digest(argv), flush=True)


if __name__ == "__main__":
    main()
