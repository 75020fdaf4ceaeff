"""JSONL-over-TCP clients: an open-loop sender and a closed-loop caller.

Both talk to the server's newline-delimited JSON protocol, where responses
come back matched by ``id`` and possibly out of order.

``python -m perfbench.clients --port P --connections C --drain-s D`` is the
open-loop load generator as a process of its own: it reads one JSON list of
``[due_s, payload]`` from stdin, sends it to the server on ``127.0.0.1:P``
and prints the ``open_loop`` results, with the host-speed probes it took
while idle, as one JSON line.  Running it apart from the server keeps the
generator's own JSON work and its waits for the interpreter lock out of
the latencies it measures.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from perfbench import hostspeed

#: The shortest wait before a send in which ``open_loop`` calls ``idle``.
IDLE_GAP_S = 0.008


class JsonlConn:
    """One connection; each sent payload gets a future for its response."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.pending: Dict[object, asyncio.Future] = {}
        self.reader_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def open(cls, host: str, port: int) -> "JsonlConn":
        reader, writer = await asyncio.open_connection(host, port, limit=1 << 24)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            received = time.perf_counter()
            response = json.loads(line)
            future = self.pending.pop(response.get("id"), None)
            if future is not None and not future.done():
                future.set_result((response, received))
        for future in self.pending.values():
            if not future.done():
                future.set_exception(ConnectionError("connection closed before the response"))

    def send(self, payload: dict) -> "asyncio.Future":
        """Write one request without waiting for the socket to drain."""
        future = asyncio.get_running_loop().create_future()
        self.pending[payload["id"]] = future
        self.writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        return future

    async def call(self, payload: dict) -> Tuple[dict, float, float]:
        """Send and wait: ``(response, sent_at, received_at)``."""
        sent = time.perf_counter()
        response, received = await self.send(payload)
        return response, sent, received

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self.reader_task.cancel()
        await asyncio.gather(self.reader_task, return_exceptions=True)


async def open_loop(conns: Sequence[JsonlConn], schedule: Sequence[Tuple[float, dict]],
                    drain_s: float, on_send: Optional[Callable[[dict], None]] = None,
                    idle: Optional[Callable[[], None]] = None) -> List[dict]:
    """Send each payload at its due time (seconds from now), never waiting for replies.

    Latency is measured from the *due* time, so a stall that delays later
    sends is charged to those requests too; ``lag_s`` records how late each
    send went out.  Requests unanswered ``drain_s`` after the last send
    count with ``response=None`` at the time the wait gave up.  ``idle`` is
    called before a wait of at least ``IDLE_GAP_S`` with no reply pending,
    when it can delay no send and no receive.
    """
    start = time.perf_counter()
    sent: List[Tuple[float, float, asyncio.Future]] = []
    for i, (due, payload) in enumerate(schedule):
        delay = start + due - time.perf_counter()
        if idle is not None and delay >= IDLE_GAP_S:
            pending = [f for c in conns for f in c.pending.values()]
            if pending:
                await asyncio.wait(pending, timeout=delay - IDLE_GAP_S)
            if not any(c.pending for c in conns) and start + due - time.perf_counter() >= IDLE_GAP_S:
                idle()
            delay = start + due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        if on_send is not None:
            on_send(payload)
        sent_at = time.perf_counter()
        sent.append((start + due, sent_at, conns[i % len(conns)].send(payload)))
    futures = [f for _, _, f in sent]
    if futures:
        await asyncio.wait(futures, timeout=drain_s)
    gave_up = time.perf_counter()
    out = []
    for due_at, sent_at, future in sent:
        response, received = None, gave_up
        if future.done() and not future.cancelled() and future.exception() is None:
            response, received = future.result()
        elif not future.done():
            future.cancel()
        out.append({"due": due_at, "sent": sent_at, "received": received,
                    "latency_s": received - due_at, "lag_s": sent_at - due_at,
                    "response": response})
    return out


async def _remote(port: int, connections: int, schedule: Sequence[Tuple[float, dict]],
                  drain_s: float, idle: Callable[[], None]) -> List[dict]:
    conns = [await JsonlConn.open("127.0.0.1", port) for _ in range(connections)]
    try:
        return await open_loop(conns, schedule, drain_s, idle=idle)
    finally:
        for conn in conns:
            await conn.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Open-loop load generator (schedule on stdin).")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--connections", type=int, required=True)
    parser.add_argument("--drain-s", type=float, required=True)
    args = parser.parse_args(argv)
    schedule = [(float(due), payload) for due, payload in json.loads(sys.stdin.readline())]
    probes: List[float] = []
    results = asyncio.run(_remote(args.port, args.connections, schedule, args.drain_s,
                                  idle=lambda: probes.append(hostspeed.probe())))
    sys.stdout.write(json.dumps({"results": results, "probes_s": probes}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
