"""A speed probe that runs beside the timed code, so that times from a
host whose speed drifts land on one scale.

The two-vCPU virtual machine this benchmark was built on runs the same
interpreter work 40-70 % slower in some seconds than in others, and
each vCPU drifts on its own.  Raw medians of whole runs taken minutes
apart spread by 30-50 %, far past any useful bound.  So a round pins
itself to one CPU and runs this probe in a second thread: every
``PERIOD_S`` it times one fixed ``chunk()`` of interpreter work, run
warm: small objects, calls, tuples and a tuple-keyed dict, the mix the
package's own inner loops make.  Of the chunks tried (this mix, an
integer loop, random reads over a 4 MB buffer) the mix tracked the
package best, with a slowdown of the same share as the call's.  A span of the round is reported
in reference seconds: its wall time multiplied by the mean, over the
probe samples taken inside it, of ``REFERENCE_S`` over the chunk's
duration.  Work the package adds or removes still moves that figure in
proportion; a slower or faster host moves the chunk by the same share
and cancels out.

By its duty cycle (two passes of about 70 µs every 20 ms) the probe
takes about 1 % of the call's CPU.  Over 25 trio and 8 sweep
rounds in a noisy hour, the rounds' raw wall times varied by 15 % and
25 % (coefficient of variation), their reference seconds by 4 %.
"""

from __future__ import annotations

import threading
import time

PERIOD_S = 0.02
# The warm chunk's duration on the reference host: about its median
# beside a call on the 2-vCPU machine the baseline was measured on, so
# that reference seconds read close to wall seconds there.
REFERENCE_S = 7.5e-5


class _Node:
    __slots__ = ("key", "pair")

    def __init__(self, key, pair) -> None:
        self.key = key
        self.pair = pair


def _combine(a: int, b: int) -> tuple[int, int]:
    return a + b, a ^ b


def chunk() -> int:
    """One fixed piece of interpreter work."""
    total = 0
    made = []
    for i in range(120):
        node = _Node(i, (i, i + 1))
        pair = _combine(node.key, node.pair[1])
        made.append(pair)
        total += pair[0]
    table = {pair: i for i, pair in enumerate(made)}
    return total + len(table)


class Probe:
    """Samples ``(start, duration)`` of ``chunk()`` every ``PERIOD_S``,
    in ``time.monotonic`` seconds, from ``start()`` until ``stop()``."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        # The first pass brings the chunk back into cache after the call
        # evicted it; only the second, warm pass is timed, so the call's
        # own cache footprint barely moves the sample.
        chunk()
        began = time.monotonic()
        chunk()
        self.samples.append((began, time.monotonic() - began))

    def _loop(self) -> None:
        while not self._stopped.wait(PERIOD_S):
            self._sample()

    def start(self) -> None:
        self._sample()
        self._thread.start()

    def stop(self) -> None:
        self._stopped.set()
        self._thread.join()

    def reference_s(self, begin: float, end: float) -> float:
        """The span ``begin``..``end`` in reference seconds.  With no
        sample inside it, the last sample before ``end`` stands in
        (``start()`` takes one at once, so there is always one)."""
        samples = list(self.samples)
        inside = [d for t, d in samples if begin <= t <= end]
        if not inside:
            inside = [d for t, d in samples if t <= end][-1:]
        speed = sum(REFERENCE_S / d for d in inside) / len(inside)
        return (end - begin) * speed
