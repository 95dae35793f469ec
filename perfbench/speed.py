"""Host speed, sampled along a run by a fixed reference loop.

The benchmark's host shares its CPUs with other machines' work, which
slows everything it runs by up to 2x, within a second and for minutes at
a time.  Pure-Python code slows alike: over 100-chunk windows, the time of
:func:`reference_loop` and that of forwarding packets through the gateway
moved together (log-log slope 0.93-0.98, correlation 0.95).  So a
:class:`SpeedTrack` runs the loop at checkpoints between pieces of the
gateway's work, about every ``SAMPLE_EVERY_S``, keeps a clock that stops
while the loop runs, and scales each stretch between two checkpoints to
the nominal host speed.
"""

from __future__ import annotations

import struct
import time
from statistics import median
from typing import Union

import numpy as np

_clock = time.perf_counter

#: Passes of :func:`reference_loop` per sample.
REFERENCE_PASSES = 3000
#: Seconds :func:`reference_loop` takes when nothing slows the host: a
#: fixed constant (a low sample on a 2-vCPU Xeon VM), so adjusted times
#: read as seconds at that speed.
REFERENCE_NOMINAL_S = 0.00175
#: Seconds of gateway work (on the track's clock) between two samples.
SAMPLE_EVERY_S = 0.02

_FRAME = bytes(range(64))
_UNPACK = struct.Struct("!HHIIBBH").unpack_from


class _Record:
    __slots__ = ("key", "size")

    def __init__(self, key: int, size: int) -> None:
        self.key = key
        self.size = size


def reference_loop(passes: int = REFERENCE_PASSES) -> float:
    """Seconds of a fixed pure-Python loop that runs no gateway code.

    It unpacks header bytes, builds small objects and looks keys up in a
    dict, the kind of work the gateway's packet path does.
    """
    start = _clock()
    table: dict[int, _Record] = {}
    for index in range(passes):
        src, dst, seq, ack, _, flags, window = _UNPACK(_FRAME, index % 40)
        record = _Record(src ^ dst ^ index, window + flags)
        table[record.key & 1023] = record
        if (seq + ack) & 1:
            table.get(index & 1023)
    return _clock() - start


Times = Union[float, np.ndarray]


class SpeedTrack:
    """A clock that leaves out reference samples, and host speed along it.

    :meth:`checkpoint` runs :func:`reference_loop` (``samples`` times,
    keeping the median) while :meth:`now` stands still.  :meth:`adjusted`
    converts an interval of :meth:`now` into seconds at the nominal host
    speed: every stretch between two checkpoints is scaled by
    :data:`REFERENCE_NOMINAL_S` over the mean reference time at its ends.
    Intervals must lie between the first and the last checkpoint.  A
    disabled track (a traced iteration) never samples and adjusts nothing.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.paused = 0.0
        self.times: list[float] = []
        self.reference_s: list[float] = []

    def now(self) -> float:
        return _clock() - self.paused

    def checkpoint(self, samples: int = 1) -> None:
        if not self.enabled:
            return
        began = _clock()
        self.times.append(began - self.paused)
        self.reference_s.append(median(reference_loop() for _ in range(samples)))
        self.paused += _clock() - began

    def tick(self) -> None:
        """Sample if ``SAMPLE_EVERY_S`` has passed since the last sample."""
        if self.enabled and (not self.times or self.now() - self.times[-1] >= SAMPLE_EVERY_S):
            self.checkpoint()

    def adjusted(self, starts: Times, ends: Times) -> Times:
        if not self.enabled:
            return np.subtract(ends, starts)
        times = np.array(self.times)
        reference = np.array(self.reference_s)
        factors = REFERENCE_NOMINAL_S / ((reference[:-1] + reference[1:]) / 2)
        cumulative = np.concatenate([[0.0], np.cumsum(np.diff(times) * factors)])
        return np.interp(ends, times, cumulative) - np.interp(starts, times, cumulative)

    def slowdown(self) -> float:
        """Median reference time over the nominal one (1.0: an idle host)."""
        return median(self.reference_s) / REFERENCE_NOMINAL_S
