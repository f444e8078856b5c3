"""Speed probe: scales interpreter-bound op times to a reference machine speed.

The reference host is a shared 2-core VM. Between runs its speed for
interpreted Python swings by 15-25% (p50 of one ``spectrum`` seed over five
runs), while the LAPACK eigensolver that dominates ``spectrum-verify`` and
``acceptance`` moves by about 4%. For the interpreter-bound workloads in
``SCALED_WORKLOADS`` a short fixed probe, independent of biheun, is timed
before every op, and the op's time is scaled by
``PROBE_REF_S / median(last PROBE_WINDOW probes)``; that cut the spread of
``spectrum`` p50 across seeds from about 25% to 4-8%. Scaling the
LAPACK-bound workloads the same way widened theirs (``spectrum-verify`` p50:
4% unscaled, 15% scaled), so they report wall time.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import eigh_tridiagonal

# Median probe time on the reference host: 2-core x86-64 VM, Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1, BLAS pinned to one thread.
PROBE_REF_S = 1.7e-3
SCALED_WORKLOADS = ("spectrum", "wavefunction")
PROBE_WINDOW = 7

_DIAG = np.linspace(1.0, 2.0, 400)
_OFF = np.full(399, -1.0)
_POLY = np.linspace(0.0, 1.0, 48)


def probe() -> float:
    """Seconds for a fixed mix of interpreter, small-numpy and LAPACK work."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(600):
        acc += i * 0.5
    for _ in range(12):
        np.polyval(_POLY, 0.3)
    eigh_tridiagonal(_DIAG, _OFF, select="i", select_range=(0, 2))
    return time.perf_counter() - t0


def scale(seconds: float, recent_probes: list[float]) -> float:
    """``seconds`` at reference speed, from the probes taken up to the op."""
    return seconds * PROBE_REF_S / float(np.median(recent_probes[-PROBE_WINDOW:]))


def probe_median() -> float:
    """Median of nine probes after two warm-up probes."""
    return float(np.median([probe() for _ in range(11)][2:]))
