"""Machine speed, sampled while the benchmark measures.

On the 2-core shared host the benchmark was built on, a fixed pure-Python
loop ran at two speeds about 1.7x apart, each lasting from under a second to
minutes, so raw host times of whole runs spread by 40% from run to run. The
benchmark therefore reports host seconds scaled to a reference speed.

While a ``Speedometer`` is active, a timer signal interrupts the program
every ``SAMPLE_EVERY_S`` and times ``calibration_s``, a fixed task that uses
no ``escrowsim`` code but the simulator's own kinds of work. Between
two samples the program is taken to run at the mean of their speeds, and
time spent sampling counts for nothing. ``reference_s(start, end)`` is then
the time from ``start`` to ``end`` at the speed where ``calibration_s``
takes ``REFERENCE_CALIBRATION_S``. A change to ``escrowsim`` moves the
measured intervals and not the calibration, so it shows in full.

The handler runs in the main thread between bytecodes, so the benchmark
stays single-threaded.
"""

from __future__ import annotations

import bisect
import gc
import json
import math
import random
import signal
import time
from dataclasses import dataclass
from fractions import Fraction

SAMPLE_EVERY_S = 0.02
# calibration_s() at the faster of the two speeds of the host above
REFERENCE_CALIBRATION_S = 0.00033


@dataclass(frozen=True)
class _Tick:
    height: int
    timestamp: int


class _Record:
    def __init__(self, i: int) -> None:
        self.settled = i % 3 == 0
        self.funded_at = i
        self.wakeup_at = 7 * i


_CALIBRATION_DOC = {
    "final_balances": {name: str(10**20 + i) for i, name in enumerate(("alice", "bob", "carol"))},
    "contracts": [
        {
            "address": f"sc-{i}",
            "state": "settled",
            "terms": {"price_wei": str(7 * 10**17 + i), "lock_time_seconds": 3600},
            "settlement": {"charge_wei": str(10**17 * i), "payouts": {"bob": str(10**17 * i)}},
        }
        for i in range(4)
    ],
    "step_log": list(range(1, 17)),
}
_CALIBRATION_TEXT = json.dumps(_CALIBRATION_DOC)
_RECORDS = [_Record(i) for i in range(300)]


def calibration_s() -> float:
    """Seconds for a fixed task that uses no ``escrowsim`` code.

    It mixes the simulator's kinds of work: frozen dataclass instances and
    seeded ``randint`` draws (block production), the pure-Python ``json``
    encoder and the ``json`` parser (reports, scenarios), attribute scans
    over many objects and ``Fraction`` sums (the oracle). The least of two
    tries is kept, so that one interruption does not read as a change of
    speed.
    """
    enabled = gc.isenabled()
    gc.disable()  # collecting the simulator's garbage is the simulator's cost
    try:
        tries = []
        for _ in range(2):
            start = time.perf_counter()
            rng = random.Random(5)
            tick = _Tick(0, 0)
            for _ in range(200):
                tick = _Tick(tick.height + 1, tick.timestamp + rng.randint(5, 25))
            json.dumps(_CALIBRATION_DOC, indent=2)
            json.loads(_CALIBRATION_TEXT)
            due = [r for r in _RECORDS if not r.settled and r.wakeup_at > 500]
            total = Fraction(len(due))
            for i in range(1, 20):
                total += Fraction(i, 7)
            math.floor(total)
            tries.append(time.perf_counter() - start)
        return min(tries)
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Context manager that samples machine speed and converts clock intervals.

    Inside the ``with`` block, times are taken with ``time.perf_counter``;
    after it, ``reference_s`` and ``raw_s`` convert any interval inside the
    block. Both leave out the time spent sampling.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # start, end, calibration
        self._sampling = False
        self._knots: list[float] = []
        self._reference: list[float] = []
        self._raw: list[float] = []

    def __enter__(self) -> Speedometer:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        self._build()

    def _sample(self, *_signal) -> None:
        if self._sampling:  # a signal that arrived while sampling
            return
        self._sampling = True
        start = time.perf_counter()
        seconds = calibration_s()
        self.samples.append((start, time.perf_counter(), seconds))
        self._sampling = False

    def _build(self) -> None:
        """Cumulative reference and raw seconds at each sample's start and end."""
        reference = raw = 0.0
        previous = None
        for start, end, seconds in self.samples:
            if previous is not None:
                gap = start - previous[1]
                reference += gap * REFERENCE_CALIBRATION_S * 2 / (previous[2] + seconds)
                raw += gap
            self._knots += [start, end]
            self._reference += [reference, reference]
            self._raw += [raw, raw]
            previous = (start, end, seconds)

    def _at(self, cumulative: list[float], when: float) -> float:
        knots = self._knots
        i = bisect.bisect_right(knots, when)
        if i == 0:
            return cumulative[0]
        if i == len(knots):
            return cumulative[-1]
        left, right = knots[i - 1], knots[i]
        share = (when - left) / (right - left) if right > left else 0.0
        return cumulative[i - 1] + (cumulative[i] - cumulative[i - 1]) * share

    def reference_s(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end``, at reference speed."""
        return self._at(self._reference, end) - self._at(self._reference, start)

    def raw_s(self, start: float, end: float) -> float:
        """Host seconds from ``start`` to ``end``, without sampling time."""
        return self._at(self._raw, end) - self._at(self._raw, start)
