"""How fast the shared host runs, and timings rescaled to a reference host.

The benchmark's host is shared with other tenants, and its speed swings by up
to 3x for seconds at a time.  `probe()` times a fixed piece of work that does
not touch `pcbs`: a loop of float math and dict stores (interpreter speed),
then arrays of uniforms bucketed by binary search (array speed), in chunks
small enough that the probe adds nothing to the process's peak memory.
`Timing.measure()` times one call and probes the host right before it, right
after it, and every INTERVAL_S during it from a SIGALRM handler, so that a
long call is judged by the speed over its whole span.  The probes' own
time is kept out of the call's time.  `Timing.scale` turns the call's time
into the time it would have taken on a host that runs the probe in
REFERENCE_S.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.033     # about the probe's wall time on a quiet 2-vCPU x86_64 VM
INTERVAL_S = 0.5        # probe period inside a call
_LOOP_STEPS = 60_000
_CHUNKS, _CHUNK_SIZE = 10, 15_000      # 120 kB arrays stay below malloc's mmap threshold
_TABLE = np.linspace(0.0, 1.0, 2500)


def probe() -> float:
    """Wall time of the fixed probe work, in seconds."""
    start = time.perf_counter()
    acc, sink = 0.0, {}
    for i in range(_LOOP_STEPS):
        x = i * 1e-4
        acc += math.sin(x) * math.cos(x) - math.sqrt(x + 1.0)
        sink[i & 1023] = acc
    rng = np.random.default_rng(7)
    for _ in range(_CHUNKS):
        idx = np.searchsorted(_TABLE, rng.random(_CHUNK_SIZE))
        np.where(idx > 1000, idx // 50, idx % 50)
    return time.perf_counter() - start


class Timing:
    """Wall and CPU time of one call, without the probes run inside it."""

    def __init__(self, probe_before: float):
        self.wall_s = self.cpu_s = 0.0
        self.probes = [probe_before]      # before, during..., after
        self._paused = [0.0, 0.0]         # wall and CPU time of the probes inside

    @property
    def scale(self) -> float:
        """Reference host time per second of this host's time during the call."""
        return REFERENCE_S / statistics.fmean(self.probes)

    def _probe_inside(self) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.probes.append(probe())
        self._paused[0] += time.perf_counter() - wall0
        self._paused[1] += time.process_time() - cpu0

    @contextlib.contextmanager
    def measure(self, sample: bool = True):
        """Time the with-block; with `sample`, probe every INTERVAL_S inside it."""
        cpu0, wall0 = time.process_time(), time.perf_counter()
        if sample:
            signal.signal(signal.SIGALRM, lambda signum, frame: self._probe_inside())
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, signal.SIG_IGN)   # drops an alarm still pending
            wall1, cpu1 = time.perf_counter(), time.process_time()
            self.wall_s = wall1 - wall0 - self._paused[0]
            self.cpu_s = cpu1 - cpu0 - self._paused[1]
            self.probes.append(probe())
