"""Closed- and open-loop request generators.

A closed loop models one client that waits for each reply before sending the
next request; an open loop models independent users arriving on a fixed
schedule, so a stall delays every request due behind it.  Open-loop latency
is measured from each request's *due* time, and the generator reports how
late it started each request, which tells a slow server apart from a slow
generator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List

#: The open loop sleeps until this long before a due time, then spins, so
#: sleep overshoot lands in ``late`` rather than in the server's latency.
SPIN_SECONDS = 0.002


@dataclass
class LoopResult:
    latencies: List[float] = field(default_factory=list)
    #: Open loop only: how long after it could have been sent each request
    #: was sent, i.e. after its due time or the previous reply, whichever is
    #: later.  Nonzero values are the generator's own overshoot.
    late: List[float] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def throughput(self) -> float:
        return len(self.latencies) / self.elapsed if self.elapsed > 0 else 0.0


def closed_loop(request: Callable[[int], None], seconds: float,
                clock: Callable[[], float] = time.perf_counter) -> LoopResult:
    """Issue ``request(i)`` back to back until ``seconds`` have elapsed."""
    result = LoopResult()
    start = clock()
    index = 0
    while True:
        sent = clock()
        if sent - start >= seconds:
            break
        request(index)
        result.latencies.append(clock() - sent)
        index += 1
    result.elapsed = clock() - start
    return result


def open_loop(request: Callable[[int], None], rate: float, count: int,
              clock: Callable[[], float] = time.perf_counter,
              sleep: Callable[[float], None] = time.sleep) -> LoopResult:
    """Issue ``count`` requests due at ``start + i / rate``.

    A request whose due time has passed is sent at once; its latency still
    counts from its due time, so queueing behind a slow request shows.
    """
    result = LoopResult()
    interval = 1.0 / rate
    start = clock()
    previous_done = start
    for index in range(count):
        due = start + index * interval
        remaining = due - clock()
        if remaining > SPIN_SECONDS:
            sleep(remaining - SPIN_SECONDS)
        while clock() < due:
            pass
        sent = clock()
        request(index)
        done = clock()
        result.late.append(sent - max(due, previous_done))
        result.latencies.append(done - due)
        previous_done = done
    result.elapsed = clock() - start
    return result
