"""Host-speed calibration: times reported at a fixed reference core speed.

Other tenants of the host slow its cores by up to 2x for tens of seconds
at a time (CPU time slows with wall time, so it is not time slicing), and
every raw time moves with them. A fixed pure-Python loop, which never
calls tpim, is timed next to each measurement, and the measurement is
scaled to the speed at which that loop takes CAL_REF_S. A change to tpim
moves only the raw time, so it shows in full.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

# Time of calibration_loop() on a quiet core of the reference box (2 vCPU,
# Python 3.11); normalised times are seconds at that speed.
CAL_REF_S = 0.015
CAL_ITERATIONS = 3000
SAMPLE_EVERY_S = 0.2  # inside an operation, time a short calibration loop this often
SAMPLE_ITERATIONS = 500


def normalise(raw_s: float, per_iteration_s: float) -> float:
    """raw_s at the reference speed, given the loop's time per iteration."""
    return raw_s * CAL_REF_S / (CAL_ITERATIONS * per_iteration_s)


def _cal_step(a, b, c, d, e):
    return (a * 0.5 + b, b - c * 0.25, c + d / 3.0, d * e, e - a)


def calibration_loop(iterations: int = CAL_ITERATIONS) -> float:
    """Seconds per iteration of a fixed pure-Python job shaped like tpim's
    hot code: float arithmetic through function calls, then repr and join."""
    start = time.perf_counter()
    x = (0.1, 0.2, 0.3, 0.4, 0.5)
    rows = []
    for _ in range(iterations):
        x = _cal_step(*x)
        x = (x[0] % 7.0, x[1] % 7.0, x[2] % 7.0, x[3] % 7.0, x[4] % 7.0)
        rows.append(",".join(repr(v) for v in x))
    "\n".join(rows)
    return (time.perf_counter() - start) / iterations


class SpeedGauge:
    """Speed factors for intervals measured one after another in this process.

    The calibration loop is timed before and after each interval, and every
    SAMPLE_EVERY_S inside a block run under sampling(); the factor
    normalises by the mean loop time per iteration. Samples taken inside a
    block are recorded in `pauses`, so callers can leave them out.
    """

    def __init__(self):
        self._before = calibration_loop()
        self._samples: list[float] = []
        # (start_ns, end_ns) of every in-operation sample, in time order.
        self.pauses: list[tuple[int, int]] = []

    def _sample(self, signum, frame):
        start = time.perf_counter_ns()
        self._samples.append(calibration_loop(SAMPLE_ITERATIONS))
        self.pauses.append((start, time.perf_counter_ns()))

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self) -> float:
        """Factor for the interval since the previous call (or creation)."""
        after = calibration_loop()
        per_iteration = statistics.mean([self._before, *self._samples, after])
        self._before, self._samples = after, []
        return normalise(1.0, per_iteration)
