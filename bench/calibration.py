"""The machine's current speed, from a fixed stdlib loop that never touches polydc.

The host's speed drifts with the load of its other tenants, by up to 2x for
seconds to minutes at a time.  Every timing the benchmark reports is divided
by the speed measured next to it, so that it reads as seconds on the
reference machine.
"""

import statistics
import time
from fractions import Fraction

#: Seconds the loop takes at the reference speed: one 2.1 GHz Xeon vCPU of a
#: quiet host, Python 3.11 (the fastest 5% of samples).
CALIBRATION_REF_S = 0.0016
CALIBRATION_STEPS = 400
#: Loops per sample: one loop can be caught by a burst of another tenant.
SAMPLE_LOOPS = 5


def calibrate() -> float:
    """Seconds taken by a fixed stdlib Fraction loop of about 1.6 ms."""
    t0 = time.perf_counter()
    value = Fraction(0)
    for i in range(CALIBRATION_STEPS):
        value += Fraction(i % 7 + 1, i % 11 + 2) * Fraction(1, i % 5 + 3)
    return time.perf_counter() - t0


def sample() -> float:
    """The median of SAMPLE_LOOPS calibration loops run back to back."""
    return statistics.median(calibrate() for _ in range(SAMPLE_LOOPS))


def slowdown(*seconds: float) -> float:
    """How many times slower than the reference the loop ran, on average."""
    return statistics.mean(seconds) / CALIBRATION_REF_S
