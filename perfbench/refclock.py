"""Seconds normalised to the momentary speed of the CPU the round runs on.

On a host whose cores are shared with other tenants, the speed of one
core drifts by +-20 % over seconds, and the two cores of a small guest
drift independently, so raw wall time of the same work spreads by
10-40 % between runs.  A round therefore runs a fixed reference kernel
(300 short scalar series, ~4.5 ms) from a SIGALRM handler every
``INTERVAL_S``, on the same core as the work, and converts raw
``perf_counter`` time into reference seconds:

    ref_seconds(a, b) = integral over [a, b] of REF_KERNEL_S / kernel_s(t) dt,

where ``kernel_s(t)`` is the kernel time interpolated between samples
and the handler's own time counts as zero.  A reference second is a
second of the run on a core where the kernel takes ``REF_KERNEL_S``, its
median time on the development machine (2 shared vCPUs, Python 3.11).
Work slows down in reference seconds only if it needs more of the core,
not if the core slows down.  Raw seconds stay in the benchmark record.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

import numpy as np

REF_KERNEL_S = 0.0045
INTERVAL_S = 0.2
# one sample scatters by ~10 % around the core's speed, with little
# correlation to the next one, so the speed is a moving mean of 5 samples
SMOOTH = 5


@dataclass(frozen=True)
class _Args:
    a: float
    b: float
    z: float

    def __post_init__(self) -> None:
        if self.z < 0.0:
            raise ValueError("z must be >= 0")


def _series(args: _Args) -> float:
    term = total = 1.0
    k = 0
    while k < 60:
        term *= (args.a + k) * args.z / ((args.b + k) * (k + 1.0))
        total += term
        k += 1
        if abs(term) <= 1e-16 * abs(total) and k >= args.z:
            break
    return total


def kernel() -> float:
    """Seconds taken by the fixed reference work, now, on this core.

    The work has the shape of the program's hot path (a validated argument
    object per call, then a short scalar series), so that contention
    slows it as much as it slows the program; it shares no code with the
    program, so a faster program does not make it faster.
    """
    t0 = time.perf_counter()
    for i in range(300):
        _series(_Args(0.3 + 1e-3 * i, 2.0 + 1e-3 * i, 6.0))
    return time.perf_counter() - t0


def speed_factor(samples: int = 3) -> float:
    """REF_KERNEL_S over the mean of a few kernel samples taken now."""
    return REF_KERNEL_S * samples / sum(kernel() for _ in range(samples))


class RefClock:
    """Samples the kernel while active; maps raw times to reference seconds.

    Use as a context manager around the timed part; afterwards
    :meth:`ref` converts raw ``time.perf_counter()`` stamps taken inside
    it (scalars or arrays) to a cumulative reference-seconds scale.
    """

    def __init__(self) -> None:
        self._samples: list[tuple[float, float, float]] = []  # start, end, kernel_s
        self._knots = self._values = None

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        k = kernel()
        self._samples.append((start, time.perf_counter(), k))

    def __enter__(self) -> "RefClock":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        self._build()

    def _build(self) -> None:
        """Knots of the cumulative reference time: flat over each sample,
        rate REF_KERNEL_S / (smoothed kernel time) between samples."""
        starts, ends, k = (np.array(c) for c in zip(*self._samples))
        half = SMOOTH // 2
        padded = np.pad(k, half, mode="edge")
        smooth = np.convolve(padded, np.ones(SMOOTH) / SMOOTH, mode="valid")
        rate = REF_KERNEL_S / (0.5 * (smooth[1:] + smooth[:-1]))
        gained = np.concatenate([[0.0], np.cumsum((starts[1:] - ends[:-1]) * rate)])
        self._knots = np.column_stack([starts, ends]).ravel()
        self._values = np.repeat(gained, 2)

    def ref(self, t):
        """Reference seconds elapsed from the first sample to raw time t."""
        return np.interp(t, self._knots, self._values)

    def raw_kernel_s(self) -> list[float]:
        return [k for _, _, k in self._samples]
