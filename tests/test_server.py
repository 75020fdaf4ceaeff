"""The async inference service: concurrent requests, counters, TCP protocol."""

import asyncio
import gc
import json
import weakref

import pytest

from repro.engine import ProgramSession
from repro.engine.server import InferenceService, ServerCounters, serve_tcp
from repro.models import get_benchmark

BENCH = get_benchmark("weight")


def _payload(seed=0, request_id=None, particles=400, **overrides):
    payload = {
        "id": request_id,
        "model": BENCH.model_source,
        "guide": BENCH.guide_source,
        "engine": "is",
        "sites": [0],
        "params": {
            "num_particles": particles,
            "seed": seed,
            "obs_values": list(BENCH.obs_values),
            "guide_args": [8.5, 0.0],
            "shards": 4,
        },
    }
    payload.update(overrides)
    return payload


async def _with_service(coro, workers=1, batch_window_s=0.005):
    service = InferenceService(workers=workers, batch_window_s=batch_window_s)
    await service.start()
    try:
        return await coro(service)
    finally:
        await service.stop()


class TestSubmit:
    def test_single_request_round_trip(self):
        async def go(service):
            return await service.submit(_payload(request_id="r1"))

        response = asyncio.run(_with_service(go))
        assert response["ok"] and response["id"] == "r1"
        assert response["engine"] == "is"
        assert response["posterior_means"]["0"] == pytest.approx(9.14, abs=0.2)
        assert response["log_evidence"] is not None
        assert response["server"]["run_s"] >= 0.0

    @staticmethod
    def _assert_concurrent_matches_solo(workers, shards):
        """Concurrent same-session requests sharing a wave return exactly
        what the same requests return submitted alone."""

        def payload(seed, request_id=None):
            request = _payload(seed=seed, request_id=request_id)
            request["params"]["shards"] = shards
            return request

        async def concurrent(service):
            responses = await asyncio.gather(
                *[service.submit(payload(s, request_id=f"r{s}")) for s in range(3)]
            )
            return responses, service.counters.waves_total

        async def solo(service):
            return [await service.submit(payload(s)) for s in range(3)]

        (together, waves) = asyncio.run(_with_service(concurrent, workers=workers))
        alone = asyncio.run(_with_service(solo, workers=workers, batch_window_s=0.0))
        assert waves < len(together)  # the burst really shared a wave
        for got, want in zip(together, alone):
            assert got["ok"] and want["ok"]
            assert got["posterior_means"] == want["posterior_means"]
            assert got["log_evidence"] == want["log_evidence"]

    def test_concurrent_requests_match_solo_runs(self):
        self._assert_concurrent_matches_solo(workers=1, shards=1)

    def test_concurrent_sharded_requests_match_solo_runs_on_the_pool(self):
        self._assert_concurrent_matches_solo(workers=2, shards=2)

    def test_mixed_engines_in_one_batch(self):
        async def go(service):
            return await asyncio.gather(
                service.submit(_payload(engine="is")),
                service.submit(_payload(engine="smc")),
            )

        is_resp, smc_resp = asyncio.run(_with_service(go))
        assert is_resp["ok"] and smc_resp["ok"]
        assert smc_resp["posterior_means"]["0"] == pytest.approx(
            is_resp["posterior_means"]["0"], abs=0.3
        )


class TestValidation:
    def test_parse_error_is_reported_not_raised(self):
        async def go(service):
            return await service.submit(_payload(model="not a program"))

        response = asyncio.run(_with_service(go))
        assert not response["ok"] and "error" in response

    def test_unknown_engine_rejected(self):
        async def go(service):
            return await service.submit(_payload(engine="quantum"))

        response = asyncio.run(_with_service(go))
        assert not response["ok"] and "unknown engine" in response["error"]

    def test_unknown_request_fields_rejected(self):
        async def go(service):
            bad = _payload()
            bad["params"]["particules"] = 7
            return await service.submit(bad)

        response = asyncio.run(_with_service(go))
        assert not response["ok"] and "particules" in response["error"]

    def test_uncertified_pair_refused_without_force(self):
        model = """
        proc M() consume latent provide obs {
          v <- sample.recv{latent}(Normal(0.0, 1.0));
          _ <- sample.send{obs}(Normal(v, 1.0));
          return(v)
        }
        """
        guide = """
        proc G() provide latent {
          v <- sample.send{latent}(Unif);
          return(v)
        }
        """
        # Sanity: this pair really is uncertified (Unif cannot cover Normal).
        assert not ProgramSession.from_sources(model, guide).certified

        async def go(service):
            refused = await service.submit(
                {"model": model, "guide": guide, "params": {"num_particles": 10}}
            )
            forced = await service.submit(
                {"model": model, "guide": guide, "force": True,
                 "params": {"num_particles": 10, "seed": 0}}
            )
            return refused, forced

        refused, forced = asyncio.run(_with_service(go))
        assert not refused["ok"] and "not certified" in refused["error"]
        # Forced runs execute (they may still fail statistically downstream,
        # but this pair overlaps enough to produce weights).
        assert forced["ok"]


class TestCounters:
    def test_counters_track_requests_and_coalescing(self):
        async def go(service):
            await asyncio.gather(
                *[service.submit(_payload(seed=s)) for s in range(3)]
            )
            await service.submit(_payload(model="broken source"))
            return service.counters.snapshot()

        snap = asyncio.run(_with_service(go))
        assert snap["requests_total"] == 4
        assert snap["failures_total"] == 1
        assert snap["particles_total"] == 3 * 400
        assert 1 <= snap["waves_total"] <= 4
        assert snap["latency_s_max"] >= snap["queue_wait_s_mean"]
        assert snap["requests_per_s"] > 0

    def test_counters_snapshot_is_json_serialisable(self):
        json.dumps(ServerCounters().snapshot())


class TestTCP:
    def test_jsonl_round_trip_and_stats(self):
        async def go(service):
            server = await serve_tcp(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write((json.dumps(_payload(request_id="a")) + "\n").encode())
            writer.write((json.dumps(_payload(seed=1, request_id="b")) + "\n").encode())
            writer.write(b'{"op": "stats", "id": "stats"}\n')
            writer.write(b'not json\n')
            writer.write(b'{"op": "warp", "id": "w"}\n')
            await writer.drain()
            responses = [json.loads(await reader.readline()) for _ in range(5)]
            writer.close()
            server.close()
            await server.wait_closed()
            return {r.get("id"): r for r in responses}

        by_id = asyncio.run(_with_service(go))
        assert by_id["a"]["ok"] and by_id["b"]["ok"]
        assert by_id["a"]["posterior_means"]["0"] != by_id["b"]["posterior_means"]["0"]
        # Responses stream back out of order; stats may answer before the
        # inference requests land, so only its shape is guaranteed.
        assert by_id["stats"]["ok"] and "requests_total" in by_id["stats"]["counters"]
        assert not by_id[None]["ok"] and "bad JSON" in by_id[None]["error"]
        assert not by_id["w"]["ok"] and "unknown op" in by_id["w"]["error"]


    def test_connection_holds_only_unfinished_line_tasks(self, monkeypatch):
        """Finished per-line tasks are released as they complete, so a
        long-lived connection holds only the requests still in flight."""
        from repro.engine import server as server_mod

        line_tasks = []
        create_task = asyncio.create_task

        def recording_create_task(coro, **kwargs):
            task = create_task(coro, **kwargs)
            if getattr(coro, "__name__", "") == "handle_line":
                line_tasks.append(weakref.ref(task))
            return task

        monkeypatch.setattr(server_mod.asyncio, "create_task", recording_create_task)

        async def go(service):
            server = await serve_tcp(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            for i in range(8):
                request = _payload(seed=i, request_id=f"n{i}", particles=50)
                writer.write((json.dumps(request) + "\n").encode())
            await writer.drain()
            responses = [json.loads(await reader.readline()) for _ in range(8)]
            for _ in range(3):  # let the done callbacks run
                await asyncio.sleep(0)
            gc.collect()
            # The connection is still open: anything still referenced is
            # held by its handler.
            held = [ref() for ref in line_tasks if ref() is not None]
            writer.close()
            server.close()
            await server.wait_closed()
            return responses, len(line_tasks), held

        responses, spawned, held = asyncio.run(_with_service(go))
        assert all(r["ok"] for r in responses)
        assert spawned == 8
        assert all(not task.done() for task in held)


def test_serve_subcommand_registered():
    """The CLI exposes the server with its shard controls."""
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["serve", "--port", "0", "--workers", "2", "--batch-window-ms", "1"]
    )
    assert args.workers == 2 and args.port == 0


class TestResilience:
    """Regression tests for failure modes found in review."""

    def test_bad_param_type_fails_one_request_not_the_dispatcher(self):
        """A request whose params blow up inside the engine must come back
        as ok:false — and the dispatcher must keep serving afterwards."""

        async def go(service):
            bad = _payload()
            bad["params"]["num_particles"] = "ten"  # passes intake, fails in-engine
            first = await service.submit(bad)
            second = await service.submit(_payload())  # dispatcher must survive
            return first, second

        first, second = asyncio.run(_with_service(go))
        assert not first["ok"] and "error" in first
        assert second["ok"]

    def test_concurrent_zero_weight_requests_fail_like_solo_runs(self):
        """Concurrent sharded requests hit the same all-weights-zero guard as
        a solo vectorized_importance run."""
        model = """
        proc M() consume latent provide obs {
          v <- sample.recv{latent}(Beta(2.0, 2.0));
          _ <- sample.send{obs}(Normal(v, 1.0));
          return(v)
        }
        """
        guide = """
        proc G() provide latent {
          v <- sample.send{latent}(Normal(5.0, 0.1));
          return(v)
        }
        """

        def payload(seed):
            return {
                "id": f"z{seed}", "model": model, "guide": guide,
                "engine": "is", "force": True,
                "params": {"num_particles": 200, "seed": seed,
                           "obs_values": [0.5], "shards": 4},
            }

        async def concurrent(service):
            return await asyncio.gather(
                service.submit(payload(0)), service.submit(payload(1))
            )

        async def solo(service):
            return [await service.submit(payload(0))]

        together = asyncio.run(_with_service(concurrent))
        alone = asyncio.run(_with_service(solo, batch_window_s=0.0))
        assert not alone[0]["ok"] and "weights are zero" in alone[0]["error"]
        for response in together:
            assert not response["ok"] and "weights are zero" in response["error"]

    def test_half_close_client_still_receives_responses(self):
        """write -> EOF -> read is the canonical JSONL batch client; queued
        requests must be answered, not cancelled, after the read side sees
        EOF."""

        async def go(service):
            server = await serve_tcp(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write((json.dumps(_payload(seed=0, request_id="h0")) + "\n").encode())
            writer.write((json.dumps(_payload(seed=1, request_id="h1")) + "\n").encode())
            await writer.drain()
            writer.write_eof()  # half-close: no more requests
            lines = []
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=30)
                if not line:
                    break
                lines.append(json.loads(line))
            writer.close()
            server.close()
            await server.wait_closed()
            return lines

        responses = asyncio.run(_with_service(go))
        assert {r["id"] for r in responses} == {"h0", "h1"}
        assert all(r["ok"] for r in responses)
