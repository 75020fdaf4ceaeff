"""Batch-inference serving, end to end, in one process.

Starts the async inference service, exposes it over the JSONL TCP protocol
on an ephemeral port, submits a burst of concurrent sharded requests for
the same model/guide session, and prints the responses plus the server's
throughput counters.

Run with::

    PYTHONPATH=src python examples/serve_client.py
"""

import asyncio
import json

from repro.engine.server import InferenceService, serve_tcp
from repro.models import get_benchmark


async def main() -> None:
    bench = get_benchmark("weight")
    service = InferenceService(workers=2, batch_window_s=0.005)
    await service.start()
    server = await serve_tcp(service, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    print(f"server listening on 127.0.0.1:{port}")

    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    for seed in range(4):
        request = {
            "id": f"req-{seed}",
            "model": bench.model_source,
            "guide": bench.guide_source,
            "engine": "is",
            "sites": [0],
            "params": {
                "num_particles": 5_000,
                "seed": seed,
                "obs_values": list(bench.obs_values),
                "guide_args": [8.5, 0.0],
                "shards": 4,
            },
        }
        writer.write((json.dumps(request) + "\n").encode())
    writer.write(b'{"op": "stats", "id": "stats"}\n')
    await writer.drain()

    for _ in range(5):
        response = json.loads(await reader.readline())
        if "counters" in response:
            counters = response["counters"]
            print(
                f"[{response['id']}] {counters['requests_total']} requests "
                f"over {counters['waves_total']} dispatch waves"
            )
        else:
            mean = response["posterior_means"]["0"]
            latency_ms = response["server"]["latency_s"] * 1e3
            print(
                f"[{response['id']}] ok={response['ok']} "
                f"posterior mean {mean:.4f} (exact: 9.14), {latency_ms:.1f}ms"
            )

    writer.close()
    server.close()
    await server.wait_closed()
    await service.stop()


if __name__ == "__main__":
    asyncio.run(main())
