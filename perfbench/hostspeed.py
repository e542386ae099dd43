"""Host speed: a fixed loop of the benchmark's own, timed while a workload runs.

This benchmark runs on a few cores of a shared host whose speed changes
by 30% or more for seconds at a time, as neighbours load the caches and
cores it shares.  A CPU-bound pure-Python request slows with it, and so
does a fixed loop that owns no tiltlab code.  While a HostSpeed is
active, a SIGALRM handler runs that loop every PERIOD_S of wall time and
records how long it took.  ``scaled`` turns a request's wall time into
reference seconds: the wall time minus the handler's own time, times the
host's mean speed during the request.  The speed at one alarm is
REFERENCE_S over that loop's time, and the alarms fall at even steps of
wall time, so the mean speed weighs every step alike and a loop that the
scheduler stalled moves it little.  A reference second is a second on a
host where the loop takes REFERENCE_S, about its median on the 2-core VM
this benchmark was tuned on.

The loop shares no code with tiltlab, so a change to tiltlab moves the
request times and leaves the loop times alone.

    with HostSpeed() as speed:
        mark = speed.mark()
        t0 = perf_counter()
        request()
        seconds = speed.scaled(perf_counter() - t0, mark)
"""

import signal
import statistics
from time import perf_counter

REFERENCE_S = 4e-4
PERIOD_S = 0.02
LOOP_ROUNDS = 1500
WARM_UP = 5
SETTLE = 5


def _loop():
    """Integer arithmetic, list and dict access, now and then a big integer."""
    counts = {}
    acc = 0
    xs = list(range(64))
    big = 3**200
    for i in range(LOOP_ROUNDS):
        k = i & 63
        acc = (acc + xs[k] * i) % 1000003
        counts[k] = counts.get(k, 0) + 1
        if k == 0:
            big = (big * 7 + i) % 5**300
    return acc, big


class HostSpeed:
    def __init__(self):
        self.loop_s = []  # every loop time, in order
        self.spent_s = 0.0  # total time spent in the handler
        self._previous = None

    def sample(self):
        t0 = perf_counter()
        _loop()
        dt = perf_counter() - t0
        self.loop_s.append(dt)
        self.spent_s += perf_counter() - t0

    def _on_alarm(self, signum, frame):
        self.sample()

    def settle(self):
        """Run the loop WARM_UP times untimed, then SETTLE times timed."""
        for _ in range(WARM_UP):
            _loop()
        for _ in range(SETTLE):
            self.sample()

    def __enter__(self):
        self.settle()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self):
        """Where the loop record stands; pass it to scaled()."""
        return len(self.loop_s), self.spent_s

    def scaled(self, elapsed, mark):
        """Reference seconds for `elapsed` wall seconds measured since `mark`.

        The loop times of the interval, and the last one before it, give
        the host's speed; short intervals that no alarm fell into still
        have that one.
        """
        n0, spent0 = mark
        own = elapsed - (self.spent_s - spent0)
        return own * _mean_speed(self.loop_s[max(0, n0 - 1):])

    def scaled_by_all(self, elapsed):
        """Reference seconds for `elapsed` wall seconds in which no alarm
        ran, such as a short step between two settle() calls."""
        return elapsed * _mean_speed(self.loop_s)

    def speed(self):
        """The host's mean speed over every loop: above 1 means a fast host."""
        return _mean_speed(self.loop_s)


def _mean_speed(loop_s):
    return statistics.fmean(REFERENCE_S / dt for dt in loop_s)
