"""A minimal discrete-event simulation engine.

The paper's evaluation ran on DeterLab/PlanetLab/Emulab testbeds; this
engine replays the protocol's message timeline at those scales without the
hardware.  Events are (time, callback) pairs on a heap; determinism is
guaranteed by a monotonically increasing sequence number that breaks ties,
so two runs with the same seed produce identical schedules.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from collections.abc import Callable


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class Simulator:
    """Event loop with a virtual clock."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[_Event] = []
        self._seq = itertools.count()
        self._processed = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> _Event:
        """Run ``callback`` at ``now + delay``; returns a cancellable handle."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        event = _Event(self.now + delay, next(self._seq), callback)
        heapq.heappush(self._heap, event)
        return event

    def cancel(self, event: _Event) -> None:
        """Prevent a scheduled event from firing."""
        event.cancelled = True

    def run(self, until: float | None = None) -> int:
        """Drain the event heap; returns the number of events processed.

        Args:
            until: stop once the clock would pass this time (events at
                exactly ``until`` still run).
        """
        processed = 0
        while self._heap:
            event = self._heap[0]
            if until is not None and event.time > until:
                break
            heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.now = event.time
            event.callback()
            processed += 1
        if until is not None and (not self._heap or self._heap[0].time > until):
            self.now = max(self.now, until)
        self._processed += processed
        return processed

    @property
    def pending(self) -> int:
        """Events still queued (including cancelled tombstones)."""
        return sum(1 for e in self._heap if not e.cancelled)
