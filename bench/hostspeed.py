"""Host speed, measured by fixed reference kernels interleaved with the workload.

On a shared host, outside load slows every call by up to 1.9x in
stretches that last from seconds to minutes, so the raw wall time of a
run depends on when it ran. The benchmark therefore runs four fixed
kernels, which use only Python and numpy and none of the package, every
``INTERVAL_S`` seconds between timed calls. A probe's speed factor for
a kind of call is the mean, over the kernels of that kind, of the
kernel's time divided by its nominal time. Each timed call of the
bounded timings is divided by the mean factor of the probes taken
within ``SLACK_S`` of it, which gives seconds at the host's nominal
speed.
"""

import time

import numpy as np

# Seconds between probes; one probe takes about 25 ms at nominal speed.
INTERVAL_S = 0.25
# Probes this close to a call count for it. A call has no probe inside
# it, and the host changes state within seconds, so the few probes
# around a call judge it.
SLACK_S = 1.0

_A = np.random.default_rng(0).standard_normal((20000, 50))
_M = np.random.default_rng(1).standard_normal((3, 10))
_V = np.random.default_rng(2).standard_normal(10)


def _python():
    s = 0
    for i in range(40000):
        s += i * i % 7
    return s


def _small_numpy():
    for _ in range(3000):
        np.dot(_M, _V).sum()


_SORTED = np.sort(_A, axis=0)
_QUERIES = np.random.default_rng(3).standard_normal((24, 50))


def _searches():
    for q in _QUERIES:
        for j, value in enumerate(q):
            np.searchsorted(_SORTED[:, j], value)


def _large_numpy():
    np.sort(_A[:, :20], axis=0)
    return _A @ _A[:50].T


# (kernel, nominal seconds): about the 5th percentile of several hundred
# probes on a 2-vCPU Intel Xeon virtual machine (numpy 2.4, one BLAS thread).
NOMINAL_S = {_python: 2.82e-3, _small_numpy: 5.72e-3, _large_numpy: 9.15e-3,
             _searches: 3.45e-3}

# The kernels each kind of call is scaled by. The slow state slows small
# numpy calls more (about 1.8x) than pure Python and large-array work
# (1.3-1.4x), so single-row calls and bulk calls each get the kernels
# that tracked them best: bench/README.md has the comparison.
KINDS = {
    "bulk": (_python, _large_numpy, _searches),
    "call": (_small_numpy, _searches),
}


class HostSpeed:
    """Probe times and speed factors of one run (1.0 is nominal, 1.5 is slower)."""

    def __init__(self):
        self.times: list[float] = []
        self.factors: dict[str, list[float]] = {kind: [] for kind in KINDS}
        self._last = -float("inf")
        for kernel in NOMINAL_S:  # first-call costs stay out of the probes
            kernel()

    def probe(self) -> None:
        ratios = {}
        for kernel, nominal in NOMINAL_S.items():
            t0 = time.perf_counter()
            kernel()
            ratios[kernel] = (time.perf_counter() - t0) / nominal
        self._last = time.perf_counter()
        self.times.append(self._last)
        for kind, kernels in KINDS.items():
            self.factors[kind].append(sum(ratios[k] for k in kernels) / len(kernels))

    def maybe_probe(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.probe()

    def factors_around(self, kind: str, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """For each span, the mean ``kind`` factor of the probes within ``SLACK_S`` of it.

        A span with no probe that close gets the mean of all probes.
        """
        times = np.asarray(self.times)
        sums = np.concatenate(([0.0], np.cumsum(self.factors[kind])))
        lo = np.searchsorted(times, starts - SLACK_S, side="left")
        hi = np.searchsorted(times, ends + SLACK_S, side="right")
        overall = sums[-1] / len(times)
        near = (sums[hi] - sums[lo]) / np.maximum(hi - lo, 1)
        return np.where(hi > lo, near, overall)
