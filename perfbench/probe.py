"""Fresh-process set-up probes; each prints one JSON line.

    python3 perfbench/probe.py import
        time of ``import loclab`` and the number of modules it loads
        (run with ``-X importtime`` for the per-package breakdown)
    python3 perfbench/probe.py setup WORKLOAD SEED
        set-up time of a warm workload: import, input generation, warm-up
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> int:
    if sys.argv[1] == "import":
        before = len(sys.modules)
        t0 = time.perf_counter()
        import loclab  # noqa: F401
        seconds = time.perf_counter() - t0
        print(json.dumps({"import_s": seconds, "modules": len(sys.modules) - before}))
        return 0
    import workloads

    name, seed = sys.argv[2], int(sys.argv[3])
    t0 = time.perf_counter()
    workloads.WORKLOADS[name](seed, Path(".")).setup()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
