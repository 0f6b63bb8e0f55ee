"""A fixed, stdlib-only reference loop that measures host speed.

On a shared host the speed of one CPU can drift by 2x within a minute,
and the drift moves every host-time metric with it. The benchmark times
this loop between the simulation repetitions and also reports the
repetitions' host time in units of the loop's time. That ratio follows
the simulator's own cost and not the host's current speed.

The loop does what a discrete-event simulator does on the host: heap
pushes and pops of timestamped entries, generator resumption, dict
updates and small allocations. It imports nothing from ``repro``, so no
change to the simulator can change its cost.
"""

from __future__ import annotations

import heapq
import time

#: Events the loop dispatches; about 0.3-0.6 s on a 2-CPU x86 VM.
EVENTS = 300_000
PROCESSES = 256


def _process(index: int, ledger: dict):
    """A simulated process: yields delays, books what it is sent."""
    delay = 1.0 + (index % 7) * 0.125
    while True:
        now = yield delay
        ledger[index] = ledger.get(index, 0.0) + now
        delay = 0.5 + ((index * 31 + int(now)) % 13) * 0.0625


def _loop() -> float:
    ledger: dict[int, float] = {}
    procs = [_process(i, ledger) for i in range(PROCESSES)]
    heap = [(next(p), i, p) for i, p in enumerate(procs)]
    heapq.heapify(heap)
    seq = PROCESSES
    for _ in range(EVENTS):
        now, _seq, proc = heapq.heappop(heap)
        heapq.heappush(heap, (now + proc.send(now), seq, proc))
        seq += 1
    return sum(ledger.values())


def reference_seconds() -> float:
    """Host seconds one pass of the reference loop takes right now."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start
