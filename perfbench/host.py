"""The host a run measured on: its fingerprint and its current speed.

Shared hosts change speed by tens of percent within a minute as neighbours
come and go.  :class:`HostSpeed` times a fixed probe, benchmark code that no
change to the program can touch, mixing what serving does (small float64
matmuls, an int64 sort, dict updates in Python).  Dividing a measured time
by the probe's slowdown against :data:`PROBE_REFERENCE_S` expresses it at
the reference host speed.
"""

from __future__ import annotations

import os
import platform
import statistics
import time

import numpy as np

#: Probe duration on the reference host (2-vCPU Xeon, numpy 2.4, one BLAS
#: thread); only ratios to it are ever used.
PROBE_REFERENCE_S = 0.0025


class HostSpeed:
    """Times the probe on demand; a factor > 1 means a slower host."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._inputs = rng.random((512, 64)), rng.random((64, 64)), \
            rng.integers(0, 1 << 40, 8_192)
        self.samples: list[float] = []

    def _probe(self) -> float:
        rows, weights, keys = self._inputs
        start = time.perf_counter()
        np.maximum(rows @ weights, 0.0) @ weights
        np.unique(keys)
        tally: dict[int, int] = {}
        for value in range(1_500):
            tally[value & 127] = tally.get(value & 127, 0) + value
        return time.perf_counter() - start

    def take(self, repeats: int) -> int:
        """Probe ``repeats`` times; return the position of the first probe."""
        self.samples.extend(self._probe() for _ in range(repeats))
        return len(self.samples) - repeats

    def around(self, position: int, window: int) -> float:
        """The host's slowdown at ``position``: median of ``window`` probes.

        One probe is a few milliseconds, so a single one catches a passing
        stall as often as the host's speed; the median of the probes taken
        around a moment follows the speed and drops the stalls.
        """
        start = max(0, position - window // 2)
        return statistics.median(self.samples[start:start + window]) \
            / PROBE_REFERENCE_S


def fingerprint(blas_threads: int) -> dict:
    """nproc, CPU model, Python, numpy, BLAS vendor and pinned thread count."""
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads}
