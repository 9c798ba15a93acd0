"""CPU-speed calibration, so timings from a host whose speed drifts compare.

On a shared 2-vCPU virtual machine the speed of the same code drifts by up
to 2x over seconds to minutes (other tenants on the host), which swamps the
run-to-run differences the benchmark must resolve.  So a fixed calibration
probe is timed before the first and after every timed interval of a run, and
each interval is rescaled to *reference seconds*, the time it would take
where the probe takes its reference time, using the median of the readings
around it.  Two probes, matched to what they calibrate:

- ``kernel_seconds``: in-process interpreted float arithmetic, small numpy
  calls and small SVDs, like loclab's own scalar paths (warm operations);
- ``fresh_process_seconds``: a fresh interpreter importing numpy and the
  stdlib modules the CLI uses, like a cold command (CLI operations, set-up
  and import probes).

Neither uses loclab code, so a change to the program cannot move them.  Raw
seconds are printed alongside.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import numpy as np

REF_KERNEL_S = 2.0e-3
REF_FRESH_PROCESS_S = 0.17
_FRESH_IMPORTS = "import numpy, json, csv, argparse, fractions, dataclasses"
_A = np.arange(12.0).reshape(3, 4)
_C = np.linspace(0.1, 1.0, 8)


def _f(t: float, s: float) -> float:
    return s * (1.0 + t * t) / (2.0 + s * t)


def kernel() -> float:
    x = 0.0
    for i in range(1500):
        x += _f(i * 1e-3, 0.5)
    for k in range(60):
        v = np.array([x * 1e-12, k * 1.0, 1.0, 2.0])
        np.polyval(_C, k * 0.01)
        np.linalg.svd(_A + v[0], compute_uv=False)
    d = {i: (i, str(i)) for i in range(300)}
    return x + len(d) + math.pi


def kernel_seconds() -> float:
    """Median of five timed kernel runs."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def fresh_process_seconds(env: dict) -> float:
    """Wall time of one fresh interpreter that imports numpy and stdlib."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", _FRESH_IMPORTS], check=True, env=env,
                   timeout=60)
    return time.perf_counter() - t0


class Calibration:
    """Readings of one probe around a sequence of timed intervals.

    Take a reading (``sample``) right after every timed interval; interval
    ``i`` then lies between readings ``i`` and ``i + 1``.
    """

    def __init__(self, probe, reference_s: float) -> None:
        self.probe = probe
        self.reference_s = reference_s
        self.readings = [probe()]

    def sample(self) -> None:
        self.readings.append(self.probe())

    def factor(self, i: int | None = None) -> float:
        """Reference seconds per raw second for interval ``i``: the median
        of the two readings on each side of it (all readings when None)."""
        window = self.readings if i is None else self.readings[max(0, i - 1): i + 3]
        return self.reference_s / statistics.median(window)

    def rescaled(self, raw: list[float]) -> list[float]:
        return [t * self.factor(i) for i, t in enumerate(raw)]


def in_process() -> Calibration:
    return Calibration(kernel_seconds, REF_KERNEL_S)


def fresh_process(env: dict) -> Calibration:
    return Calibration(lambda: fresh_process_seconds(env), REF_FRESH_PROCESS_S)
