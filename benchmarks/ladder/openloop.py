"""Open-loop load generation: a schedule drawn up front, latency from the
moment each request was *due*.

A closed loop sends its next request only when the previous one
returns, so a system that stalls simply receives less load and the
stall vanishes from the numbers (coordinated omission).  Here the send
times are fixed before the run starts; a request the generator could not
send on time — because the system, which shares its thread, was stalled —
is still timed from when it should have gone out, so the stall is
charged to every request that was due during it.  How late the
generator itself ran is reported beside the latencies.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, Iterable, List, Sequence, Tuple


def poisson_schedule(rng: random.Random, rate: float, duration: float) -> List[float]:
    """Arrival offsets (seconds from the start) of a Poisson process of
    ``rate`` per second over ``duration`` seconds."""
    offsets: List[float] = []
    at = rng.expovariate(rate)
    while at < duration:
        offsets.append(at)
        at += rng.expovariate(rate)
    return offsets


class OpenLoopResult:
    def __init__(self) -> None:
        self.latency_s: Dict[int, float] = {}  # request index -> from due time
        self.lag_s: List[float] = []           # actual send - due, per request
        self.wall_s = 0.0

    def unfinished(self, n: int) -> List[int]:
        return [i for i in range(n) if i not in self.latency_s]


def run_open_loop(
    schedule: Sequence[float],
    submit: Callable[[int], None],
    pump: Callable[[float], Iterable[Tuple[int, float]]],
    *,
    drain_s: float = 30.0,
    clock: Callable[[], float] = time.monotonic,
) -> OpenLoopResult:
    """Send request ``i`` when ``schedule[i]`` is due; collect completions.

    ``submit(i)`` hands request ``i`` to the system.  ``pump(gap)`` lets
    the system work for at most ``gap`` seconds (the time until the next
    request is due) and returns ``(index, completed_at)`` pairs on the
    same clock.  After the last send the loop keeps pumping for at most
    ``drain_s`` seconds; requests still missing then stay unfinished.
    """
    result = OpenLoopResult()
    n = len(schedule)
    origin = clock()
    sent = 0
    drain_until = None
    while len(result.latency_s) < n:
        now = clock()
        while sent < n and origin + schedule[sent] <= now:
            submit(sent)
            result.lag_s.append(now - (origin + schedule[sent]))
            sent += 1
            now = clock()
        if sent < n:
            gap = origin + schedule[sent] - now
        else:
            if drain_until is None:
                drain_until = now + drain_s
            gap = drain_until - now
            if gap <= 0:
                break
        for index, completed_at in pump(gap):
            result.latency_s[index] = completed_at - (origin + schedule[index])
    result.wall_s = clock() - origin
    return result
