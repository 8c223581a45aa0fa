"""Host-speed correction for the end-to-end times.

A shared 2-vCPU Xeon VM alternates between a fast and a slow state, up to
2x apart, with phases from under a second to about a minute; CPU time swings
with wall time, so the slowdown is not preemption. Every run would
otherwise carry the phase it happened to land in.

A fixed calibration loop of small numpy calls and Python arithmetic, the
same mix as the coding path, slows down with the host in the same way. It
lives in this directory, so a change to nlic cannot speed it up. Each wall
interval is rescaled by ``REFERENCE_S / calibration time`` measured at its
two ends, which gives seconds at the host's fast state.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

import numpy as np

from spans import SIDES

CALIBRATION_LOOPS = 1000
# calibrate()'s fastest steady reading on a 2-vCPU Xeon VM with numpy 2.4.
REFERENCE_S = 0.0045
# Longest stretch of coding between two calibrations.
INTERVAL_S = 0.25

_DATA = np.random.default_rng(0).random(256)


def calibrate() -> float:
    """Seconds the fixed calibration loop takes now."""
    start = perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += int(np.argmax(np.cumsum(_DATA) > 100.0)) + (i * 7) % 13
    return perf_counter() - start


def corrected(wall: float, cal_before: float, cal_after: float) -> float:
    """Wall seconds rescaled to the host's fast state."""
    return wall * REFERENCE_S * 2.0 / (cal_before + cal_after)


class HostClock:
    """Stands in for a tracer in untraced passes and times each side of an
    image in host-speed-corrected seconds.

    Every span the codec opens is a checkpoint: once ``interval`` seconds of
    coding have passed since the last calibration, it calibrates again. The
    calibrations' own time is kept out of both figures. After a side ends,
    ``seconds[side]`` holds its corrected time and ``wall[side]`` its plain
    wall time.
    """

    _null = contextlib.nullcontext()

    def __init__(self, calibrate=calibrate, interval: float = INTERVAL_S):
        self._calibrate = calibrate
        self._interval = interval
        self.seconds: dict[str, float] = {}
        self.wall: dict[str, float] = {}
        self._side = ""

    def span(self, name: str):
        if name in SIDES:
            return self._timed_side(name)
        if self._side and perf_counter() - self._mark >= self._interval:
            self._checkpoint()
        return self._null

    def _checkpoint(self) -> None:
        raw = perf_counter() - self._mark
        cal = self._calibrate()
        self.wall[self._side] += raw
        self.seconds[self._side] += corrected(raw, self._cal, cal)
        self._cal = cal
        self._mark = perf_counter()

    @contextlib.contextmanager
    def _timed_side(self, side: str):
        self._side = side
        self.seconds[side] = self.wall[side] = 0.0
        self._cal = self._calibrate()
        self._mark = perf_counter()
        try:
            yield
        finally:
            self._checkpoint()
            self._side = ""
