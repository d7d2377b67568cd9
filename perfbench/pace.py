"""Times scaled to a fixed machine pace.

A shared host's speed drifts, by up to 2x for tens of seconds, which no
statistic within one run removes.  A pace probe, a fixed computation of
the reference (reference.core_verdict: pure Python, no corecuts code),
runs just before and just after each timed call, and the call's time
is scaled by NOMINAL_PACE_S over the mean of the two probes.  Scaled
times are seconds on a machine where the probe takes NOMINAL_PACE_S: a
change to corecuts moves them as it moves the raw times, while a change
in the machine's speed moves the probe as well.  On a 2-core shared
Xeon host this cut the ten-seed spread of the solver times from 0.2-0.5
of their median to about 0.1; means or medians over wider windows of
probes were no steadier.
"""

from __future__ import annotations

import time

from reference import core_verdict

#: the probe: core_verdict of this point (a few ms)
PACE_POINT = (0, 1, 1, 2)
#: probe time the scaled seconds refer to (about the probe's time on an
#: idle core of a 2.0 GHz Xeon)
NOMINAL_PACE_S = 0.003


class Pace:
    """Scales the time of a call that has just ended: probes the pace
    after the call and divides by the mean of this probe and the one
    before the call (the previous call's closing probe)."""

    def __init__(self) -> None:
        self.last = self.probe()

    @staticmethod
    def probe() -> float:
        t0 = time.perf_counter()
        core_verdict(PACE_POINT)
        return time.perf_counter() - t0

    def scaled(self, seconds: float) -> float:
        now = self.probe()
        pace = (self.last + now) / 2
        self.last = now
        return seconds * NOMINAL_PACE_S / pace
