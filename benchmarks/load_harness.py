"""Open-loop load harness: drive an in-process server past its capacity.

The harness starts a real :class:`~repro.engine.server.InferenceService`
behind the real TCP front-end, measures its sustained capacity with a short
closed-loop probe, then offers a multiple of that rate (2x by default) with
Poisson arrivals via :mod:`repro.engine.loadgen`.  What must hold at
overload is the hardening contract:

* the server stays up and keeps answering (``op: stats`` still works),
* every offered request gets exactly one response — zero client hangs,
* every rejection is structured (``overloaded`` / ``deadline_exceeded`` /
  ``quota_exceeded``), never a silent drop or an unhandled exception,
* the kernel/session caches stay within their configured capacity.

``run_overload_harness`` returns everything the caller needs to assert on;
``benchmarks/test_load_harness.py`` is the pytest entry point that records
p50/p90/p99-under-load and the shed rate into ``BENCH_results.json``.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.engine.loadgen import (
    LoadConfig,
    LoadReport,
    build_payload,
    run_load,
    run_session_verify,
)
from repro.engine.server import InferenceService, serve_tcp


@dataclass
class HarnessOutcome:
    """One overload run: the loadgen report plus server-side evidence."""

    report: LoadReport
    capacity_rps: float
    offered_rps: float
    counters: Dict[str, object]
    kernel_cache_len: int
    session_cache_len: int
    kernel_cache_cap: int
    session_cache_cap: int


async def _estimate_capacity(
    service: InferenceService, config: LoadConfig, probe_s: float = 1.0, burst: int = 8
) -> float:
    """Closed-loop probe of *sustained* capacity, wave collection included.

    Submits ``burst`` concurrent requests per round (so dispatch waves fill
    the same way they do under real traffic) until ``probe_s`` elapses;
    offered rates derived from this number genuinely exceed what the server
    can serve, sequential-path headroom included.
    """
    completed = 0
    started = time.monotonic()
    while time.monotonic() - started < probe_s:
        responses = await asyncio.gather(
            *[service.submit(build_payload(config, completed + i)) for i in range(burst)]
        )
        for response in responses:
            assert response.get("ok"), f"capacity probe failed: {response}"
        completed += burst
    return completed / (time.monotonic() - started)


def run_overload_harness(
    duration_s: float = 3.0,
    rate_multiplier: float = 2.0,
    particles: int = 4000,
    max_queue: int = 16,
    max_batch: int = 8,
    deadline_ms: Optional[float] = 500.0,
    cache_cap: int = 8,
) -> HarnessOutcome:
    """Start a server, probe its capacity, drive ``rate_multiplier``x that."""
    from repro.engine.backend import kernel_cache_len, set_kernel_cache_capacity
    from repro.engine.session import session_cache_len, set_session_cache_capacity

    set_kernel_cache_capacity(cache_cap)
    set_session_cache_capacity(cache_cap)

    async def go() -> HarnessOutcome:
        service = InferenceService(
            workers=1,
            batch_window_s=0.002,
            max_queue=max_queue,
            max_batch=max_batch,
        )
        await service.start()
        server = await serve_tcp(service, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        probe_config = LoadConfig(port=port, particles=particles)
        try:
            capacity = await _estimate_capacity(service, probe_config, burst=max_batch)
            offered = max(10.0, rate_multiplier * capacity)
            config = LoadConfig(
                port=port,
                rate=offered,
                duration_s=duration_s,
                deadline_ms=deadline_ms,
                tenants=2,
                particles=particles,
            )
            report = await run_load(config)
            counters = service.counters.snapshot()
            return HarnessOutcome(
                report=report,
                capacity_rps=capacity,
                offered_rps=offered,
                counters=counters,
                kernel_cache_len=kernel_cache_len(),
                session_cache_len=session_cache_len(),
                kernel_cache_cap=cache_cap,
                session_cache_cap=cache_cap,
            )
        finally:
            server.close()
            await server.wait_closed()
            await service.stop()

    return asyncio.run(go())


@dataclass
class StreamingOutcome:
    """One streaming run plus the restart-recovery verdict."""

    report: LoadReport
    #: ``run_session_verify`` result from a *fresh* service pointed at the
    #: same checkpoint directory: ``{"checked", "recovered", "failed"}``.
    verify: Dict[str, object]
    session_stats: Dict[str, object]


def run_streaming_harness(
    checkpoint_dir: str,
    duration_s: float = 3.0,
    rate: float = 30.0,
    particles: int = 500,
    sessions: int = 3,
    pushes: int = 4,
) -> StreamingOutcome:
    """Streaming load against a real server, then prove restart recovery.

    Phase one starts a service with ``checkpoint_dir``, drives open-loop
    ``session.open/push/query`` cycles over the growable ``stream_rw``
    family, and stops the service (which checkpoints every live session).
    Phase two starts a *brand-new* service on the same directory and
    re-queries every session the load run opened — each must restore from
    its checkpoint (exact replay from seed + journal) and answer ``ok``.
    """

    async def go() -> StreamingOutcome:
        service = InferenceService(workers=1, checkpoint_dir=checkpoint_dir)
        await service.start()
        server = await serve_tcp(service, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            config = LoadConfig(
                port=port,
                rate=rate,
                duration_s=duration_s,
                deadline_ms=None,
                tenants=2,
                particles=particles,
                models=("stream_rw",),
                streaming=True,
                sessions=sessions,
                pushes=pushes,
            )
            report = await run_load(config)
            session_stats = service.sessions.stats()
        finally:
            server.close()
            await server.wait_closed()
            await service.stop()

        # Phase two: a fresh service, same checkpoint directory — every
        # recorded session must come back via restore-on-miss.
        service2 = InferenceService(workers=1, checkpoint_dir=checkpoint_dir)
        await service2.start()
        server2 = await serve_tcp(service2, "127.0.0.1", 0)
        port2 = server2.sockets[0].getsockname()[1]
        try:
            verify = await run_session_verify("127.0.0.1", port2, report.sessions)
        finally:
            server2.close()
            await server2.wait_closed()
            await service2.stop()
        return StreamingOutcome(report=report, verify=verify, session_stats=session_stats)

    return asyncio.run(go())
