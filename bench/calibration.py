"""Host-speed calibration: wall time in reference seconds.

The host's speed drifts by up to 2x, in phases from well under a second to
tens of seconds (README.md, "Reference seconds").  ``calibrate`` reads the
current speed, and ``Clock`` scales each phase of a request by the readings
taken just before and just after it.
"""

import gc
from fractions import Fraction
from time import perf_counter

# One reference second is the time in which the calibration loop of
# CAL_ITERATIONS steps takes REF_CAL_S.
CAL_ITERATIONS = 800
REF_CAL_S = 0.005


def calibrate() -> float:
    """The host's speed right now, for the kind of work pqh does: the wall
    time of a fixed loop of ``Fraction`` arithmetic.

    The garbage collector is off during the loop, so the program's heap
    cannot change the reading.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        s = Fraction(0)
        for i in range(1, CAL_ITERATIONS):
            s += Fraction(i % 97, i % 13 + 1) * Fraction(3, 7)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def calibrate_median() -> float:
    """The median of three readings, for a phase bracketed by one reading
    at each end: the median ignores a spike that hits one loop."""
    return sorted(calibrate() for _ in range(3))[1]


def to_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time, run between readings ``before`` and
    ``after``, in reference seconds."""
    return seconds * 2 * REF_CAL_S / (before + after)


class Clock:
    """Times requests in wall and reference seconds, one phase at a time.

    ``split`` ends a phase: it reads the host's speed, scales the phase by
    the mean of that reading and the one before it, and starts the next
    phase.  The readings themselves are not timed.
    """

    def __init__(self):
        self.reading = calibrate()
        self.start()

    def start(self):
        self.wall = self.ref = 0.0
        self.t0 = perf_counter()

    def split(self):
        seconds = perf_counter() - self.t0
        reading = calibrate()
        self.wall += seconds
        self.ref += to_reference(seconds, self.reading, reading)
        self.reading = reading
        self.t0 = perf_counter()
