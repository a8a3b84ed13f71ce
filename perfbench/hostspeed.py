"""Host-speed calibration: rescale measured times to a reference host speed.

The benchmark runs on shared hosts whose single-core speed drifts by 20 %
or more over tens of seconds, in CPU time as much as in wall time.  A short
fixed kernel, made only of numpy, scipy and plain Python and nothing from
kreinlab, runs after every timed call.  Its duration tracks the host's speed
at that moment, so a call that took `t` seconds is reported as
`t * REFERENCE_S[kind] / c`, where `c` is the median of the kernel runs
nearest the call: the time it would take on a host where the kernel takes
`REFERENCE_S[kind]`.  The median, not a single run, because a lone kernel
run sometimes takes two or three times as long (right after a child process
exits, for one).  A change to kreinlab changes `t` and leaves the kernel
alone, so it shows in full.

Host drift does not slow every kind of code alike, so there are four
kernels, each made of the operations that dominate the calls it rescales:

- "lapack": dense complex LAPACK calls (the extensions algebra);
- "mixed": float formatting and string work in the interpreter, then the
  "lapack" kernel (report serialization next to the extensions algebra);
- "vector": FFTs and element-wise transcendental functions on long arrays,
  then a tridiagonal eigensolve (the quasi-basis families);
- "spawn": a child interpreter that imports a few stdlib modules and exits
  (CLI child processes and set-up probes, which are dominated by start-up
  and imports, and may run on another CPU than the parent).
"""
from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np
from scipy.linalg import eigh_tridiagonal

# Median kernel times on the 2-CPU container the benchmark was tuned on
# (Python 3.11.7, numpy 2.4.6, scipy 1.17.1, OpenBLAS 0.3.31 with 1 thread).
# Constants: changing one rescales every time reported with its kernel.
REFERENCE_S = {"lapack": 0.007, "mixed": 0.015, "vector": 0.021, "spawn": 0.08}
# Kernel runs taken on each side of a call.  Host speed drifts in phases of
# 10 s or more; six runs span 1-6 s around an op.
WINDOW = 3

_rng = np.random.default_rng(20261017)
_A = _rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96))
_H = _A + _A.conj().T
_SHIFTED = _H + 20.0 * np.eye(96)
_FLOATS = _rng.standard_normal(6000).tolist()
_X = np.linspace(-20.0, 20.0, 8192)
_U = _rng.standard_normal((12, 8192)) + 0j
_DIAG = 2.0 + _X[:3000] ** 2 / 50.0
_OFF = -np.ones(2999)


def _lapack() -> None:
    for _ in range(2):
        np.linalg.eigh(_H)
        np.linalg.solve(_SHIFTED, _A)


def _mixed() -> None:
    text = ",".join([repr(v * 1.5) for v in _FLOATS])
    sum(len(s) for s in text.split(","))
    _lapack()


def _vector() -> None:
    spectrum = np.fft.fft(_U * np.exp(-0.5 * _X ** 2), axis=1)
    weighted = np.exp(0.3 * np.tanh(_X)) * np.abs(np.fft.ifft(spectrum, axis=1))
    float(np.sum(weighted * weighted))
    eigh_tridiagonal(_DIAG, _OFF, select="i", select_range=(0, 9))


def _spawn() -> None:
    subprocess.run([sys.executable, "-c", "import argparse, decimal, json"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


KERNELS = {"lapack": _lapack, "mixed": _mixed, "vector": _vector, "spawn": _spawn}


def kernel(kind: str) -> float:
    """Seconds taken by one run of the named kernel."""
    start = time.perf_counter()
    KERNELS[kind]()
    return time.perf_counter() - start


class Rescaler:
    """Times calls and runs the kernel `after` times after each one."""

    def __init__(self, kind: str, after: int = 1):
        self.kind = kind
        self.after = after
        kernel(kind)  # the first run pays for lazy library set-up
        self.samples = [kernel(kind) for _ in range(WINDOW)]
        self.calls: list[tuple[float, int]] = []  # (seconds, first sample after)

    def time(self, fn, *args, **kwargs):
        """fn(*args, **kwargs), timed; the time is kept even if fn raises."""
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.calls.append((time.perf_counter() - start, len(self.samples)))
            self.samples.extend(kernel(self.kind) for _ in range(self.after))

    def factors(self) -> list[float]:
        """Per timed call: the reference time over the median of the WINDOW
        kernel runs on either side of it."""
        ref = REFERENCE_S[self.kind]
        return [ref / statistics.median(self.samples[max(0, i - WINDOW):i + WINDOW])
                for _, i in self.calls]

    def rescaled(self) -> list[float]:
        """Per timed call: its seconds at reference host speed."""
        return [t * f for (t, _), f in zip(self.calls, self.factors())]

    def raw(self) -> list[float]:
        """Per timed call: its wall-clock seconds."""
        return [t for t, _ in self.calls]
