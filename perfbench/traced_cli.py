"""Traced CLI operation: one fresh process that times ``import loclab``,
installs the span wrappers and calls ``loclab.cli.main(argv)``.

    python3 perfbench/traced_cli.py RESULT_JSON OP_ID CLI_ARGS...

Writes the exit status, captured stdout, spans and counters to RESULT_JSON
and exits with the command's status.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import tracing


def main() -> int:
    result_path, op, argv = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
    rec = tracing.Recorder()
    rec.op = op
    rec.open("import")
    import loclab.cli
    rec.close()
    tracing.install(rec)
    out_dir = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        try:
            code = loclab.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
    text = stdout.getvalue()
    written = sum(p.stat().st_size for p in out_dir.iterdir()) if out_dir else 0
    rec.counters[("cli.main", "output_bytes")] += len(text.encode()) + written
    result_path.write_text(json.dumps({
        "exit": code,
        "stdout": text,
        "spans": rec.spans,
        "counters": [[list(k), v] for k, v in rec.counters.items()],
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
