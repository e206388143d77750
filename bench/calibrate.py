"""Host-speed calibration: rescale wall time to the host's uncontended speed.

On a shared host the core a run gets alternates between an uncontended and a
contended speed.  On a shared 2-core Intel Xeon host at 2.1 GHz the two are
about 1.75x apart and switch every second or so, which moved the wall time of a
whole 25-second pass by up to 38% between runs of identical work.  While a pass
runs, a SIGALRM timer times a fixed kernel of Python arithmetic and complex
numpy arrays, the same kind of work zswkb does, every ``INTERVAL_S``.
Every stretch of the pass between two samples is scaled by ``REF_KERNEL_S``
over the kernel time measured at its ends.  The result is the wall time the
pass would have taken at the uncontended speed; the samples themselves are left
out of it.
"""
from __future__ import annotations

import math
import signal
import time

import numpy as np

# the kernels' times on an uncontended core of that host; they only
# set the scale of the corrected seconds
REF_KERNEL_S = 7.45e-4
REF_INTERPRETER_S = 1.32e-3
INTERVAL_S = 0.05

_STAGES = np.ones((6, 256), dtype=complex) * (1.0 + 0.1j)
_WEIGHTS = np.linspace(0.1, 0.2, 6)


def kernel_seconds() -> float:
    """Time one fixed kernel: 40 lockstep updates of a 128-row complex state.

    Each update mirrors one stage of zswkb's batched integrator: a scalar
    potential value from ``math``, a stage combination by matrix product, the
    2x2 right-hand side and a per-row renormalisation.  Of the kernels tried,
    this one tracked the contention every workload sees most closely.
    """
    t0 = time.perf_counter()
    y = np.ones(256, dtype=complex)
    for i in range(40):
        e = math.exp(-(i * 1e-3) ** 2)
        y2 = (y + (1e-3 * _WEIGHTS) @ _STAGES).reshape(128, 2)
        rhs = y2[:, ::-1] * complex(1.5 - e, 0.01 * e) + y2 * 0.3j
        y = (y2 / np.linalg.norm(y2, axis=1)[:, None] + 1e-6 * rhs).reshape(-1)
    return time.perf_counter() - t0


def interpreter_seconds() -> float:
    """Time a fixed pure-Python loop, the kind of work importing modules does.

    Set-up is timed in a fresh process, too short for the sampler; the probe
    brackets it with this kernel and divides by the mean of the two.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += (i * 7) % 13
    return time.perf_counter() - t0


class Sampler:
    """Times the kernel every INTERVAL_S while active; ``corrected`` rescales an interval."""

    def __init__(self):
        self.samples = []       # (start, kernel seconds)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append((start, kernel_seconds()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def corrected(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1 at the uncontended speed, without the samples' own time."""
        inside = [(s, k) for s, k in self.samples if t0 <= s and s + k <= t1]
        total = 0.0
        prev_end, prev_k = t0, inside[0][1]
        for start, k in inside:
            total += (start - prev_end) * REF_KERNEL_S / (0.5 * (prev_k + k))
            prev_end, prev_k = start + k, k
        return total + (t1 - prev_end) * REF_KERNEL_S / prev_k
