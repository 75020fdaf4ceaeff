"""Tests of the benchmark itself: inputs, output checks, span arithmetic, open loop."""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import checks, hostspeed
from perfbench.clients import JsonlConn, open_loop
from perfbench.tracing import (Tracer, _patch, layer_metrics, self_times, unattributed_share,
                               union_length)
from perfbench.workloads import WORKLOADS, generate_ops, load_snapshot

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_generation_is_deterministic_per_seed(workload):
    first = generate_ops(workload, 3, ROOT, 2.0)
    assert first == generate_ops(workload, 3, ROOT, 2.0)
    assert first != generate_ops(workload, 4, ROOT, 2.0)
    assert all(len(seq) > 0 for seq in first)


def test_cold_pairs_never_repeat_a_pair_and_cross_the_cliff():
    ops = generate_ops("cold_pairs", 5, ROOT, 2.0)[0]
    pairs = [(op["model"], op["guide"]) for op in ops]
    assert len(set(pairs)) == len(pairs)
    sizes = [int(op["label"].split("/")[1]) for op in ops if op["kind"] == "hmm_chain"]
    assert min(sizes) < 64 < max(sizes)


def test_stream_sessions_include_lengths_past_64():
    sequences = generate_ops("stream_sessions", 5, ROOT, 2.0)
    lengths = [s["length"] for seq in sequences for s in seq if s["kind"] == "grow"]
    assert min(lengths) <= 64 < max(lengths)
    # Every block has the same number of sessions on each side of the cliff.
    for seq in sequences:
        for unit in {s["unit"] for s in seq}:
            block = [s["length"] for s in seq if s["unit"] == unit and s["kind"] == "grow"]
            assert sum(n > 64 for n in block) == sum(n <= 64 for n in block)


def test_serve_small_sends_the_same_requests_for_every_seed():
    def mix(seed):
        ops = generate_ops("serve_small", seed, ROOT, 10.0)[0]
        return sorted((op["engine"], op["pair"], op["backend"]) for op in ops), ops

    (first, ops_a), (second, ops_b) = mix(1), mix(2)
    assert first == second and len(first) == 300
    engines = [engine for engine, _, _ in first]
    assert (engines.count("is"), engines.count("smc"), engines.count("svi")) == (180, 90, 30)
    # Only the order, the arrival times and the particle offsets move.
    assert [op["due_s"] for op in ops_a] != [op["due_s"] for op in ops_b]
    assert all(0.0 <= op["due_s"] < 10.0 for op in ops_a)


def test_host_factor_scales_to_the_nominal_probe_time():
    nominal_s = hostspeed.NOMINAL_PROBE_US * 1e-6
    assert hostspeed.factor([nominal_s] * 3) == pytest.approx(1.0)
    # A host that runs the probe twice as slowly halves the reported times.
    assert hostspeed.factor([2 * nominal_s, 2 * nominal_s, 9.0]) == pytest.approx(0.5)
    assert hostspeed.probe() > 0.0


def test_posterior_check_fires_on_a_wrong_mean():
    entry = load_snapshot(ROOT)["weight"]
    exact = {site: value for site, value in entry["golden"].items()}
    assert checks.check_posterior(entry, exact, 100) is None
    shifted = {site: value + 1.0 for site, value in exact.items()}
    assert checks.check_posterior(entry, shifted, 100) is not None
    assert checks.check_posterior(entry, {"0": float("nan")}, 100) is not None


def test_posterior_tolerance_scales_with_particles():
    assert checks.golden_tolerance(0.1, 4000) == pytest.approx(0.1)
    assert checks.golden_tolerance(0.1, 1000) == pytest.approx(0.2)


def test_verdict_check_fires_on_a_wrong_verdict():
    assert checks.check_verdict(True, True) is None
    assert checks.check_verdict(False, False) is None
    assert checks.check_verdict(False, True) is not None
    assert checks.check_verdict(True, False) is not None


def test_svi_bitwise_check_fires_on_a_different_fit():
    def result(elbos, mean):
        return SimpleNamespace(raw=SimpleNamespace(elbo_history=elbos), posterior_mean=lambda site: mean)

    base = result([-3.0, -2.5], 9.15)
    assert checks.check_bitwise("svi", base, result([-3.0, -2.5], 9.15), 1) is None
    assert checks.check_bitwise("svi", base, result([-3.0, -2.4], 9.15), 1) is not None
    assert checks.check_bitwise("svi", base, result([-3.0, -2.5], 9.16), 1) is not None


def test_stream_check_fires_on_a_different_query():
    assert checks.check_stream({"0": 0.25}, 0.25) is None
    assert checks.check_stream({"0": 0.25}, 0.25 + 1e-12) is not None
    assert checks.check_stream({"0": None}, 0.25) is not None


def test_bitwise_check_fires_on_a_perturbed_population():
    from repro.engine.session import ProgramSession

    entry = load_snapshot(ROOT)["coin"]
    session = ProgramSession.from_sources(entry["model_source"], entry["guide_source"])
    for engine in ("is", "smc"):
        runs = [session.infer(engine, num_particles=64, obs_values=tuple(entry["obs_values"]),
                              seed=11, backend=backend) for backend in ("interp", "compiled")]
        assert checks.check_bitwise(engine, runs[0], runs[1], 1) is None
        raw = runs[1].raw
        perturbed = np.array(raw.log_weights, copy=True)
        perturbed[3] += 1e-9
        if engine == "is":
            fake = SimpleNamespace(raw=SimpleNamespace(log_weights=perturbed, run=raw.run))
        else:
            fake = SimpleNamespace(raw=SimpleNamespace(
                log_weights=perturbed, resample_steps=raw.resample_steps, site_values=raw.site_values))
        assert checks.check_bitwise(engine, runs[0], fake, 1) is not None


def _span(name, start, end, parent=None, op=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "op": op, "attrs": {}}


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert union_length([(0, 10), (2, 3)]) == pytest.approx(10.0)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 5.0, parent=0),   # overlaps a: covered 1..5
        _span("c", 8.0, 12.0, parent=0),  # clipped to 8..10
        _span("d", 2.5, 3.0, parent=2),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0 - 0.5)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(0.5)


def test_unattributed_share_counts_op_time_outside_spans():
    ops = [{"id": 1, "start": 0.0, "end": 10.0}, {"id": 2, "start": 10.0, "end": 20.0}]
    spans = [_span("x", 1.0, 4.0, op=1), _span("y", 3.0, 6.0, op=1), _span("z", 9.0, 30.0, op=2)]
    # op 1: 5 of 10 covered; op 2: 10 of 10 covered (clipped to the op).
    assert unattributed_share(spans, ops) == pytest.approx(5.0 / 20.0)


def test_a_missing_entry_point_is_reported_not_fatal():
    tracer = Tracer()
    assert not _patch(tracer, "engine.smc", "repro.engine.smc", "no_such_entry", lambda fn: fn)
    assert not _patch(tracer, "engine.gone", "repro.no_such_module", "smc", lambda fn: fn)
    assert "no_such_entry" in tracer.missing["engine.smc"]
    assert "no_such_module" in tracer.missing["engine.gone"]


def test_layer_metrics_cover_every_declared_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # run.py computes these two from the timed and the traced run together.
    names = {m["name"] for m in spec["per_layer"]} - {"bench.tracing_overhead", "bench.host_probe_us"}
    ops = [{"id": 0, "start": 0.0, "end": 1.0, "sites": 2}]
    metrics = layer_metrics([_span("smc", 0.1, 0.5, op=0)], ops, {}, 95)
    assert names <= set(metrics)
    assert metrics["engine.smc.self_ms_per_op"] == pytest.approx(400.0)


def test_a_rejected_pair_known_to_certify_is_a_wrong_verdict():
    ops = [{"id": i, "start": float(i), "end": i + 1.0} for i in range(3)]
    spans = [_span("check_model_guide_pair", 0.1, 0.2, op=0),
             _span("check_model_guide_pair", 1.1, 1.2, op=1),
             _span("check_model_guide_pair", 1.3, 1.4, op=1),
             _span("check_model_guide_pair", 2.1, 2.2, op=2)]
    spans[1]["attrs"]["error"] = spans[2]["attrs"]["error"] = spans[3]["attrs"]["error"] = True
    # Ops 1 and 2 were rejected; op 1 twice, which is still one wrong verdict.
    assert layer_metrics(spans, ops, {"pairs_certify": True}, 95)["core.typecheck.wrong_verdicts"] == 2.0
    # Without that knowledge only the run's own verdict count is reported.
    assert layer_metrics(spans, ops, {"wrong_verdicts": 5}, 95)["core.typecheck.wrong_verdicts"] == 5.0


def test_open_loop_latency_is_measured_from_due_time():
    stall_s = 0.3

    async def scenario():
        stalled = []

        async def handle(reader, writer):
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not stalled:
                    # Block the whole event loop, the sender included.
                    stalled.append(True)
                    time.sleep(stall_s)
                request = json.loads(line)
                writer.write(json.dumps({"id": request["id"], "ok": True}).encode() + b"\n")
                await writer.drain()
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        conn = await JsonlConn.open("127.0.0.1", port)
        schedule = [(0.0, {"id": 0}), (0.05, {"id": 1}), (0.10, {"id": 2})]
        results = await open_loop([conn], schedule, drain_s=5.0)
        await conn.close()
        server.close()
        await server.wait_closed()
        return results

    results = asyncio.run(scenario())
    assert all(r["response"] is not None for r in results)
    # Requests due during the stall were sent late; their latency still
    # counts from the due time, so it covers the rest of the stall.
    for r, due in zip(results, (0.0, 0.05, 0.10)):
        assert r["latency_s"] >= stall_s - due - 0.02
        assert r["latency_s"] >= r["received"] - r["sent"]
    assert results[2]["lag_s"] >= stall_s - 0.10 - 0.02


def test_open_loop_calls_idle_only_with_no_reply_pending():
    async def scenario():
        async def handle(reader, writer):
            while True:
                line = await reader.readline()
                if not line:
                    break
                await asyncio.sleep(0.05)
                request = json.loads(line)
                writer.write(json.dumps({"id": request["id"], "ok": True}).encode() + b"\n")
                await writer.drain()
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        conn = await JsonlConn.open("127.0.0.1", port)
        calls = []
        schedule = [(0.0, {"id": 0}), (0.5, {"id": 1})]
        results = await open_loop([conn], schedule, drain_s=5.0,
                                  idle=lambda: calls.append((time.perf_counter(), len(conn.pending))))
        await conn.close()
        server.close()
        await server.wait_closed()
        return results, calls

    results, calls = asyncio.run(scenario())
    # One idle call, in the gap before the second send, once the first reply is in.
    assert [pending for _, pending in calls] == [0]
    assert results[0]["received"] <= calls[0][0] <= results[1]["sent"]
