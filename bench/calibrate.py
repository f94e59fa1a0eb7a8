"""A fixed piece of reference work, timed beside every measurement.

The benchmark's host is a few cores of a shared machine whose speed drifts
(by a quarter and more, over seconds to minutes) with its neighbours' load.
run.py times this kernel in its own process before every run and set-up it
starts, and scales the measured times by the kernel's median time; that
ratio does not move when the whole host slows down.

The kernel does the two kinds of work tomolab does: many small numpy calls
driven from the interpreter (the per-record simulators) and large
vectorised special-function and reduction passes (the Hellinger quadrature).
It depends only on numpy and scipy, never on tomolab, so no change to the
program moves it.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import gammaln

SMALL_CALLS = 4000
ARRAY_LEN = 200_000
REPEATS = 3


def _small(rng):
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    b = a @ a.conj().T
    acc = 0.0
    for i in range(SMALL_CALLS):
        acc += float(np.trace(a @ b).real)
        p = np.abs(a[i % 16]) ** 2
        acc += float(rng.multinomial(64, p / p.sum())[0])
    return acc


def _arrays(rng):
    counts = rng.integers(0, 256, size=(ARRAY_LEN, 4)).astype(float)
    log_theta = np.log(np.array([0.1, 0.2, 0.3, 0.4]))
    log_pmf = gammaln(257.0) - gammaln(counts + 1.0).sum(axis=-1) + counts @ log_theta
    diff = counts[:, :3] - 64.0
    quad = np.einsum("nd,de,ne->n", diff, np.eye(3) / 40.0, diff)
    return float(np.sum((np.exp(np.minimum(0.5 * log_pmf, 0.0)) - np.exp(-0.25 * quad)) ** 2))


def kernel_s() -> float:
    """Seconds the reference work takes now: the median of REPEATS timings,
    so that a momentary stall of the host does not count (about 0.08 s on a
    2 GHz Xeon core)."""
    times = []
    for _ in range(REPEATS):
        rng = np.random.default_rng(20130204)
        start = time.perf_counter()
        _small(rng)
        _arrays(rng)
        times.append(time.perf_counter() - start)
    return sorted(times)[REPEATS // 2]


if __name__ == "__main__":
    for _ in range(5):
        print(f"{kernel_s():.4f}")
