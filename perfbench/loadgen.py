"""Load generator for the ``http-serve`` workload.

One asyncio loop holds a fixed number of keep-alive HTTP/1.1
connections to the server.  The loop busy-polls (:func:`_spin`) so the
generator's own wake-ups stay out of the latencies it measures, and
while it polls it samples how much CPU time the host has stolen from
this machine (:class:`StealClock`).

* :func:`open_loop` sends on a schedule regardless of replies (the
  traffic of independent users).  A request that is due while every
  connection is busy waits in the client queue; its latency is timed
  from when it was due, so a stall is charged to every request it
  delays.  ``late_ms`` is how late the generator itself handed each
  request to the queue.
* :func:`closed_loop` has each connection send its next request as soon
  as the previous reply arrives, for a fixed time: the saturation
  throughput over that many connections.
"""

from __future__ import annotations

import asyncio
import json
import time
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np


@dataclass
class Reply:
    body: int          # index of the request body sent
    due: float         # perf_counter time the request was due
    sent: float
    done: float
    late: float        # generator lag: queue hand-off minus due time
    status: int
    payload: dict

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


def poisson_schedule(rng: np.random.Generator, rate: float, count: int):
    """Offsets of ``count`` Poisson arrivals at ``rate``/s, conditioned on
    the count: sorted uniform draws over ``count / rate`` seconds."""
    return np.sort(rng.uniform(0.0, count / rate, size=count))


STEAL_SAMPLE_S = 0.01


def steal_ticks() -> int:
    """Clock ticks the host has stolen from this machine's CPUs since
    boot (``steal`` in ``/proc/stat``); 0 where there is no such count."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if len(fields) > 8 else 0


def least_stolen(values, stolen) -> list:
    """The ``values`` (one per window) whose ``stolen`` ticks are at most
    those of the least-stolen quarter: every value, where the host
    steals nothing.

    A CPU the host takes away stalls every request it holds, so on a
    shared host the steal, not the server, would set the tail.  A
    quarter keeps enough windows for a median.
    """
    cut = sorted(stolen)[len(stolen) // 4]
    return [v for v, s in zip(values, stolen) if s <= cut]


class StealClock:
    """Samples of :func:`steal_ticks`, taken by the polling loop about
    every ``STEAL_SAMPLE_S`` while it generates load."""

    def __init__(self):
        self.times: list[float] = []
        self.ticks: list[int] = []

    def sample(self) -> None:
        self.times.append(time.perf_counter())
        self.ticks.append(steal_ticks())

    def stolen(self, start: float, end: float) -> int:
        """Ticks stolen between the last samples taken by ``start`` and
        by ``end`` (perf_counter times)."""
        if not self.times:
            return 0
        first = max(0, bisect_right(self.times, start) - 1)
        last = max(0, bisect_right(self.times, end) - 1)
        return self.ticks[last] - self.ticks[first]


class _Connection:
    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def post(self, path: str, body: bytes) -> tuple[int, bytes]:
        head = (
            f"POST {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        self.writer.write(head + body)
        await self.writer.drain()
        preamble = await self.reader.readuntil(b"\r\n\r\n")
        lines = preamble.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        payload = await self.reader.readexactly(length) if length else b""
        return status, payload

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def _spin(clock: StealClock) -> None:
    """Keep the event loop polling instead of blocking in ``epoll``, and
    sample ``clock``.

    An idle vCPU halts, and waking it costs a trip through the host's
    scheduler that varies with the host's load; a generator that blocks
    between requests would charge that to every latency it measures.
    """
    next_sample = 0.0
    while True:
        now = time.perf_counter()
        if now >= next_sample:
            clock.sample()
            next_sample = now + STEAL_SAMPLE_S
        await asyncio.sleep(0)


async def _send(conn: _Connection, bodies, item, late) -> Reply:
    body_index, due = item
    sent = time.perf_counter()
    status, raw = await conn.post("/search", bodies[body_index])
    done = time.perf_counter()
    try:
        payload = json.loads(raw) if raw else {}
    except ValueError:
        payload = {}
    return Reply(body_index, due, sent, done, late, status, payload)


async def _open_loop(host, port, bodies, order, offsets, connections,
                     clock):
    conns = [_Connection(host, port) for _ in range(connections)]
    await asyncio.gather(*(c.open() for c in conns))
    queue: asyncio.Queue = asyncio.Queue()
    replies: list[Reply] = []

    async def worker(conn):
        while True:
            item = await queue.get()
            if item is None:
                return
            (body_index, due), late = item
            replies.append(await _send(conn, bodies, (body_index, due), late))

    workers = [asyncio.ensure_future(worker(c)) for c in conns]
    spinner = asyncio.ensure_future(_spin(clock))
    try:
        start = time.perf_counter() + 0.05
        for body_index, offset in zip(order, offsets):
            due = start + float(offset)
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait(((int(body_index), due), time.perf_counter() - due))
        for _ in conns:
            queue.put_nowait(None)
        await asyncio.gather(*workers)
    finally:
        for w in workers:
            w.cancel()
        spinner.cancel()
        await asyncio.gather(*(c.close() for c in conns))
    replies.sort(key=lambda r: r.due)
    return replies


def open_loop(host, port, bodies, order, offsets, connections,
              clock: StealClock) -> list[Reply]:
    """Send ``bodies[order[i]]`` at ``offsets[i]`` seconds from now over
    ``connections`` keep-alive connections, sampling ``clock``; replies
    sorted by due time."""
    return asyncio.run(
        _open_loop(host, port, bodies, order, offsets, connections, clock)
    )


async def _closed_loop(host, port, bodies, order, seconds, connections,
                       clock):
    conns = [_Connection(host, port) for _ in range(connections)]
    await asyncio.gather(*(c.open() for c in conns))
    replies: list[Reply] = []
    cursor = [0]
    stop_at = time.perf_counter() + seconds

    async def worker(conn):
        while time.perf_counter() < stop_at:
            body_index = int(order[cursor[0] % len(order)])
            cursor[0] += 1
            replies.append(
                await _send(conn, bodies, (body_index, time.perf_counter()), 0.0)
            )

    spinner = asyncio.ensure_future(_spin(clock))
    try:
        await asyncio.gather(*(worker(c) for c in conns))
    finally:
        spinner.cancel()
        await asyncio.gather(*(c.close() for c in conns))
    return replies


def closed_loop(host, port, bodies, order, seconds, connections,
                clock: StealClock) -> list[Reply]:
    """Back-to-back requests on every connection for ``seconds``,
    sampling ``clock``."""
    return asyncio.run(
        _closed_loop(host, port, bodies, order, seconds, connections, clock)
    )
