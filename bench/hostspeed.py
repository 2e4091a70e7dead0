"""Host speed, measured between operations, and times at a reference speed.

This benchmark runs on a shared host whose speed for the same code changes
while it runs: a fixed 1 ms kernel timed back to back for a minute took
1.0 ms most of the time and 1.4-1.5 ms in bursts of one to four seconds, and
whole ten-run sets of the same code moved by a quarter to a third between
hours. Wall-clock medians then measure the neighbours as much as aqakit.

So a fixed calibration kernel (``kernel``: small matrix-vector products,
short real FFTs, dict and string work and a 256 KiB copy, the kinds of work
aqakit does) runs between operations, never inside a timed span. Each tick
gives the host's speed at that moment: REF_TICK_S over the median duration
of the ticks within WINDOW_S of it, raised to the workload's exponent;
between ticks it is the nearest earlier tick's. A span's reference time is
the integral of that speed over the span: what the span would have taken on
a host that runs the kernel in REF_TICK_S. A faster or slower program moves
reference times as it moves wall times; a burst of contention slows the
ticks around it as well and cancels out.

The exponent is how strongly a workload's time follows the kernel's under
contention. It is 1 unless a workload sets another: ``answer_decode``,
whose time goes mostly to BLAS calls on 150-190-row matrices, slows less
than the kernel's interpreter-bound mix (see the workload's comment).
"""

from __future__ import annotations

import time

import numpy as np

REF_TICK_S = 1.0e-3     # the kernel's time on this sandbox in a quiet period
WINDOW_S = 0.5

_clock = time.perf_counter
_rng = np.random.default_rng(20230517)
_MAT = _rng.standard_normal((64, 64))
_FRAME = _rng.standard_normal(400)
_BUF = _rng.standard_normal(32768)
_WORDS = tuple(f"token{k}" for k in range(48))


def kernel(rounds: int = 40) -> float:
    s = 0.0
    for k in range(rounds):
        s += float((_MAT @ _MAT[:, k % 64]).sum())
        s += float(np.abs(np.fft.rfft(_FRAME)).sum())
        d = {w: len(w) + k for w in _WORDS}
        s += sum(d.values()) + len(" ".join(_WORDS).split())
    return s + float(_BUF.copy().sum())


class HostSpeed:
    """Ticks of the calibration kernel and the reference-time conversion.

    ``spent`` is the total time spent in ticks, so that a caller that ticks
    inside an operation can take it out of the operation's time. A disabled
    instance does nothing and converts wall time one to one.
    """

    def __init__(self, enabled: bool = True, exponent: float = 1.0) -> None:
        self.enabled = enabled
        self.exponent = exponent
        self.mids: list[float] = []
        self.durs: list[float] = []
        self.spent = 0.0
        self._profile: tuple | None = None

    def tick(self, n: int = 1) -> None:
        if not self.enabled:
            return
        t_in = _clock()
        for _ in range(n):
            t0 = _clock()
            kernel()
            t1 = _clock()
            self.mids.append(0.5 * (t0 + t1))
            self.durs.append(t1 - t0)
        self.spent += _clock() - t_in
        self._profile = None

    def speeds(self) -> np.ndarray:
        """Speed at each tick: REF_TICK_S over the median tick duration
        within WINDOW_S of it, to the power ``exponent``."""
        mids, durs = np.asarray(self.mids), np.asarray(self.durs)
        lo = np.searchsorted(mids, mids - WINDOW_S, side="left")
        hi = np.searchsorted(mids, mids + WINDOW_S, side="right")
        return np.array([(REF_TICK_S / np.median(durs[a:b])) ** self.exponent
                         for a, b in zip(lo, hi)])

    def reference_s(self, t0, t1) -> np.ndarray:
        """Reference durations of the spans [t0, t1] (arrays of clock
        readings): the integral of the host speed over each span."""
        t0, t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
        if not self.enabled:
            return t1 - t0
        if not self.mids:
            raise RuntimeError("no calibration ticks")
        if self._profile is None:
            mids, speed = np.asarray(self.mids), self.speeds()
            # integral of the speed from the first tick to each tick
            cum = np.concatenate([[0.0], np.cumsum(speed[:-1] * np.diff(mids))])
            self._profile = (mids, speed, cum)
        mids, speed, cum = self._profile

        def integral(t):
            i = np.clip(np.searchsorted(mids, t, side="right") - 1, 0, None)
            return cum[i] + speed[i] * (t - mids[i])

        return integral(t1) - integral(t0)
