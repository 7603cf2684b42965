"""A fixed unit of plain-Python work that measures how fast the CPU is right now.

On a shared host the speed of plain Python drifts by a third or more for
minutes at a time, with the load of other tenants.  Wall times from
different minutes are then not comparable.  The benchmark times this
gauge between its ops and reports every time scaled to a fixed gauge
speed: ``scaled = wall * REF_S / gauge``, where ``gauge`` is the mean
of the gauge readings taken within a few seconds of the op.  Drift that slows the gauge and the op
alike cancels out.

The work mixes what gonal does: small-int arithmetic, Fractions, dicts
keyed by tuples, list building, string formatting and a JSON round trip.
It uses the standard library only and never imports gonal, so a change
to the program cannot change the gauge.
"""

import json
from fractions import Fraction
from time import perf_counter

# Close to the gauge's median time on a 2-vCPU Xeon at 2.1 GHz under
# CPython 3.11, so scaled times read close to wall seconds there.  It is a
# fixed constant: changing it rescales every time metric.
REF_S = 0.05
# Readings this close to an item, before or after, set the speed it ran at.
# The host's speed flips within a second, so single readings next to a
# short op are a poor guide; a few seconds of them are a good one.
WINDOW_S = 2.0


def _work() -> int:
    rows = [{"k": k, "h0": 3 * k - 7, "agree": k % 2 == 0, "name": "row%d" % k} for k in range(5000)]
    back = json.loads(json.dumps(rows))
    index = {(r["k"], r["h0"]): r["name"].upper() for r in back}
    acc = Fraction(0)
    for k in range(1, 250):
        acc += Fraction(k, k + 1)
    s = 0
    for i in range(350_000):
        s += i * i % 7
    return len(index) + acc.denominator % 7 + s


class Gauge:
    """Gauge readings taken between the timed items of one run."""

    def __init__(self) -> None:
        self.readings: list[tuple[float, float]] = []  # (midpoint, seconds)

    def read(self) -> None:
        t0 = perf_counter()
        _work()
        t1 = perf_counter()
        self.readings.append(((t0 + t1) / 2, t1 - t0))

    def scale(self, wall: float, start: float, end: float) -> float:
        """``wall``, timed from ``start`` to ``end``, at the reference speed.

        The speed is the mean of the readings within ``WINDOW_S`` of the
        item, which always include the two taken right before and after
        it.  A mean, because an item's wall time adds up the machine's
        slowness over its whole span."""
        near = [g for t, g in self.readings if start - WINDOW_S <= t <= end + WINDOW_S]
        return wall * REF_S / (sum(near) / len(near))

    def seconds(self) -> list[float]:
        return [g for _, g in self.readings]
