"""Open- and closed-loop load generation with per-phase outcome accounting.

All load comes from one process: open-loop arrivals are asyncio tasks on
one event loop, fired on a seeded Poisson schedule; closed-loop callers
are a fixed number of tasks that each send their next request when the
previous one completes.  Open-loop latency is timed from each request's
*due* time, so a stall also charges the requests that queued behind it;
how late the generator itself fired is kept separately
(``late_seconds``) to mark runs where the generator, not the program,
fell behind.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, Iterator, List, Optional, Sequence

#: The serving budget the repository's benches use (seconds).
LATENCY_LIMIT_S = 0.25
#: Latency a failed or refused request enters the percentiles with: it
#: missed the limit and has no finite answer time.
MISS_S = 1000.0
#: A run whose generator fired its p99 arrival later than the latency
#: limit is invalid: it no longer offered the workload's rate.  Lateness
#: below that is expected in-process, where the serving worker's kernel
#: calls hold the interpreter lock the generator's event loop needs.
MAX_LATE_S = LATENCY_LIMIT_S

#: Outcome labels a request callable returns.
OK, FAILED, REFUSED = "ok", "failed", "refused"


@dataclass
class Phase:
    """Outcomes and latencies of one measured phase, per request kind."""

    name: str
    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    refused: int = 0
    #: request kind -> latency seconds; misses enter with ``MISS_S``
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: request kind -> successful requests
    completed: Dict[str, int] = field(default_factory=dict)
    #: open loop only: send time minus due time, seconds
    late_seconds: List[float] = field(default_factory=list)
    elapsed: float = 0.0

    def record(self, outcome: str, latency: float, kind: str) -> None:
        self.attempted += 1
        if outcome == OK:
            self.succeeded += 1
            self.completed[kind] = self.completed.get(kind, 0) + 1
        elif outcome == REFUSED:
            self.refused += 1
        else:
            self.failed += 1
        value = latency if outcome == OK else MISS_S
        self.samples.setdefault(kind, []).append(value)

    def latencies(self, kind: str) -> List[float]:
        return self.samples.get(kind, [])

    def counts(self) -> dict:
        return {
            "attempted": self.attempted,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "refused": self.refused,
        }


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile *q* (0..100) of *values*."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def arrival_times(rate: float, seconds: float, seed: int) -> List[float]:
    """``round(rate * seconds)`` seeded Poisson arrival offsets at *rate*
    per second (a fixed count, so every run has the same sample size)."""
    rng = random.Random(seed)
    offsets: List[float] = []
    at = 0.0
    for _ in range(round(rate * seconds)):
        at += rng.expovariate(rate)
        offsets.append(at)
    return offsets


Send = Callable[[int], Awaitable[str]]
KindOf = Callable[[int], str]


def _reads(index: int) -> str:
    return "read"


async def open_loop(
    phase: Phase, offsets: Sequence[float], send: Send, kind_of: KindOf = _reads
) -> None:
    """Fire ``send(i)`` at ``start + offsets[i]`` regardless of completions."""
    loop = asyncio.get_running_loop()
    tasks = set()

    async def fire(index: int, due: float) -> None:
        try:
            outcome = await send(index)
        except Exception:  # noqa: BLE001 - every failure is counted, not raised
            outcome = FAILED
        phase.record(outcome, loop.time() - due, kind_of(index))

    start = loop.time()
    for index, offset in enumerate(offsets):
        due = start + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.late_seconds.append(max(0.0, loop.time() - due))
        task = loop.create_task(fire(index, due))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
    while tasks:
        await asyncio.gather(*list(tasks))
    phase.elapsed = loop.time() - start


async def closed_loop(
    phase: Phase,
    callers: int,
    indices: Iterator[int],
    send: Send,
    kind_of: KindOf = _reads,
) -> None:
    """*callers* tasks each send back to back until *indices* runs out.

    The loop runs a fixed amount of work, not a fixed time, so every run
    of a seed serves the same requests (writes and rebuilds included)."""
    loop = asyncio.get_running_loop()
    start = loop.time()

    async def caller() -> None:
        for index in indices:
            sent = loop.time()
            try:
                outcome = await send(index)
            except Exception:  # noqa: BLE001 - every failure is counted, not raised
                outcome = FAILED
            phase.record(outcome, loop.time() - sent, kind_of(index))

    await asyncio.gather(*[caller() for _ in range(callers)])
    phase.elapsed = loop.time() - start


def sync_closed_loop(phase: Phase, indices: Iterator[int], call: Callable[[int], str]) -> None:
    """One synchronous caller in a closed loop over *indices*."""
    start = time.perf_counter()
    now = start
    for index in indices:
        try:
            outcome = call(index)
        except Exception:  # noqa: BLE001 - every failure is counted, not raised
            outcome = FAILED
        finished = time.perf_counter()
        phase.record(outcome, finished - now, "read")
        now = finished
    phase.elapsed = now - start


def late_p99_ms(phase: Phase) -> Optional[float]:
    """How late the open loop fired its p99 arrival, ms (None: no open loop)."""
    return percentile(phase.late_seconds, 99) * 1e3 if phase.late_seconds else None
