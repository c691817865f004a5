"""Benchmark-owned reference kernel for host-speed control.

The kernel does a fixed amount of work shaped like covgame's own mix: an
interpreter-bound loop of dict and float bookkeeping (round exchange and
election) and small-array NumPy calls (the scalar maximizer's 601-point
pre-scan). Its time moves with the host's speed, not with covgame's code, so
``wall * REF_NOMINAL_S / ref`` removes host drift from a wall time measured
next to it.

Large-array passes are left out on purpose: interleaved with covgame's
solves, their time tracked the solves' time worse than the two parts above,
and their speed depends on the caches and heap the solves leave behind.
"""
from __future__ import annotations

import math
import time

import numpy as np

# Nominal kernel time, seconds: about its time on the 2-vCPU Intel Xeon host
# the benchmark was built on, where run medians ranged from 0.009 to
# 0.015 s. Scaled metrics read as if measured on a host where the kernel
# takes exactly this long; multiply by ``ref / REF_NOMINAL_S`` to undo.
REF_NOMINAL_S = 0.0150

_PROBES = 601


class ReferenceKernel:
    """Fixed work; :meth:`run` returns its wall seconds."""

    def __init__(self) -> None:
        self._thetas = np.linspace(-0.26, 0.26, _PROBES)

    def run(self) -> float:
        start = time.perf_counter()
        weights = {k: float(k) for k in range(64)}
        best = 0.0
        for i in range(45_000):
            k = i & 63
            value = weights[k] * 0.999 + 1.0
            if value > best:
                best = value
            weights[k] = value
        for j in range(400):
            fs = np.cos(self._thetas * j) - 0.2 * self._thetas * self._thetas
            best += float(fs[int(np.argmax(fs))])
        elapsed = time.perf_counter() - start
        if not math.isfinite(best):
            raise RuntimeError("reference kernel produced an impossible result")
        return elapsed
