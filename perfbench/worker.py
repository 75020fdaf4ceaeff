"""One workload run in a fresh process: set up, measure, check, report.

Run as ``python -m perfbench.worker --workload W --seed N --mode M``:

``setup``   set up and stop before the first op (a set-up time sample);
``timed``   set up, then run ops for ``--seconds`` with no wrappers;
``traced``  set up, install the span wrappers, then replay exactly the op
            prefix a timed run measured (``--limits``, one count per client).

The last stdout line is one JSON object with the raw op records; the
parent (``perfbench/run.py``) turns them into metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import importlib
import json
import math
import os
import re
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from perfbench import checks, hostspeed
from perfbench.tracing import Tracer, install, layer_metrics
from perfbench.workloads import generate_ops, load_config, load_snapshot, units_for

SHED_CODES = ("overloaded", "quota_exceeded", "deadline_exceeded", "shutting_down")
#: Host-speed probes a set-up-only run takes once it is set up.
SETUP_PROBES = 50


class Context:
    """What one run knows: its inputs, its mode, and what it measured."""

    def __init__(self, args, root: Path):
        self.args = args
        self.root = root
        self.workload = args.workload
        self.cfg = load_config()[args.workload]
        self.snapshot = load_snapshot(root)
        self.limits: Optional[List[int]] = json.loads(args.limits) if args.limits else None
        self.tracer: Optional[Tracer] = Tracer() if args.mode == "traced" else None
        self.ready_at: Optional[float] = None
        self.records: List[dict] = []
        self.extra: Dict[str, object] = {}
        #: Host-speed probes taken between ops (``perfbench/hostspeed.py``).
        self.probes_s: List[float] = []
        self.units = units_for(self.cfg, args.seconds)
        gen_started = time.perf_counter()
        self.sequences = generate_ops(args.workload, args.seed, root, args.seconds)
        self.gen_s = time.perf_counter() - gen_started
        #: Ops each client started: the prefix a traced replay repeats.
        self.taken = [0] * len(self.sequences)

    def ready(self) -> bool:
        """Mark the end of set-up; False when this run only times set-up."""
        self.ready_at = time.monotonic()
        if self.args.mode == "setup":
            self.probes_s += [hostspeed.probe() for _ in range(SETUP_PROBES)]
            return False
        if self.tracer is not None:
            install(self.tracer)
        return True

    def probe(self) -> None:
        """One host-speed probe, between ops."""
        self.probes_s.append(hostspeed.probe())

    def take(self, client: int, index: int, op: dict, started: float) -> bool:
        """Whether a client may start its ``index``-th op now.

        Closed loops run a fixed number of whole units (a pass over every
        shape, or a block of the mix), sized from ``--seconds`` and the
        workload's nominal unit time, so every run measures the same op mix.
        A run that has already taken twice its time starts no further unit.
        """
        if self.limits is not None:
            go = index < self.limits[client]
        elif op["unit"] >= self.units:
            go = False
        else:
            first_of_unit = index == 0 or op["unit"] != self.sequences[client][index - 1]["unit"]
            go = not first_of_unit or time.perf_counter() - started < 2 * self.args.seconds
        self.taken[client] += go
        return go


def pin_to_cpus(count: int) -> None:
    """Keep this process, every thread it has and every thread it starts, on ``count`` CPUs.

    A workload whose server threads hand the interpreter lock back and forth
    runs on one CPU: on a shared host whose other vCPU the hypervisor has
    taken away for a while, each hand-off across vCPUs waits for it to
    return, and the run slows by far more than the CPU time it lost.
    """
    cpus = set(sorted(os.sched_getaffinity(0))[:count])
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except ProcessLookupError:
            pass


def _record(op_id, start: float, end: float, error: Optional[str] = None, wrong: Optional[str] = None,
            **fields) -> dict:
    rec = {"id": op_id, "start": start, "end": end, "latency_s": end - start,
           "error": error, "wrong": wrong, "ok": error is None and wrong is None}
    rec.update(fields)
    return rec


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live children, in MB."""

    def hwm_kb(pid) -> int:
        try:
            text = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            return 0
        match = re.search(r"^VmHWM:\s+(\d+)", text, re.M)
        return int(match.group(1)) if match else 0

    total = hwm_kb("self")
    for task in Path("/proc/self/task").glob("*/children"):
        for pid in task.read_text().split():
            total += hwm_kb(pid)
    if total == 0:
        import resource

        total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return total / 1024.0


def _obs_series() -> int:
    from repro.obs import REGISTRY

    return sum(len(family["samples"]) for family in REGISTRY.snapshot().values())


def _guide_param_names(guide_source: str, entry: str) -> List[str]:
    match = re.search(rf"proc\s+{re.escape(entry)}\s*\(([^)]*)\)", guide_source)
    if not match or not match.group(1).strip():
        return []
    return [p.split(":")[0].strip() for p in match.group(1).split(",")]


# ---------------------------------------------------------------------------
# serve_small: open loop over loopback TCP
# ---------------------------------------------------------------------------


def _serve_payload(op: dict, cfg: dict, snapshot: Dict[str, dict]) -> dict:
    entry = snapshot[op["pair"]]
    params = {"num_particles": op["particles"], "seed": op["seed"], "obs_values": op["obs_values"],
              "backend": op["backend"], "guide_args": op["guide_args"]}
    if op["engine"] == "svi":
        names = _guide_param_names(op["guide"], op["guide_entry"])
        if names:
            params["guide_params"] = dict(zip(names, params.pop("guide_args")))
            params["num_steps"] = cfg["svi_num_steps"]
    return {"id": op["id"], "model": op["model"], "guide": op["guide"],
            "model_entry": op["model_entry"], "guide_entry": op["guide_entry"],
            "engine": op["engine"], "sites": checks.golden_sites(entry), "tenant": op["tenant"],
            "deadline_ms": cfg["deadline_ms"], "params": params}


async def _start_server(checkpoint_dir: Optional[str] = None):
    from repro.engine.server import InferenceService, serve_tcp

    service = InferenceService(workers=1, checkpoint_dir=checkpoint_dir)
    await service.start()
    server = await serve_tcp(service, "127.0.0.1", 0)
    return service, server, server.sockets[0].getsockname()[1]


async def _stop_server(service, server, conns) -> None:
    for conn in conns:
        await conn.close()
    server.close()
    await server.wait_closed()
    await service.stop()


async def _open_loop_process(root: Path, port: int, cfg: dict, schedule: List[tuple]) -> dict:
    """Run the open loop from a load-generator process of its own.

    Returns its ``results`` and the host-speed ``probes_s`` it took.  Its
    clock is the same monotonic clock as this process's, so its due, sent
    and received times line up with the server's spans.
    """
    proc = await asyncio.create_subprocess_exec(
        sys.executable, "-m", "perfbench.clients", "--port", str(port),
        "--connections", str(cfg["connections"]), "--drain-s", str(cfg["drain_s"]),
        stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE, stderr=asyncio.subprocess.PIPE,
        cwd=root)
    try:
        out, err = await proc.communicate(json.dumps(schedule).encode("utf-8") + b"\n")
    finally:
        if proc.returncode is None:
            proc.kill()
            await proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"load generator failed ({proc.returncode}):\n{err.decode()[-4000:]}")
    return json.loads(out.decode("utf-8").splitlines()[-1])


def _wave_mark(service) -> tuple:
    snap = service.counters.snapshot()
    return snap["requests_total"], snap["waves_total"]


async def run_serve_small(ctx: Context) -> None:
    from perfbench.clients import JsonlConn

    cfg, snapshot = ctx.cfg, ctx.snapshot
    service, server, port = await _start_server()
    conns = [await JsonlConn.open("127.0.0.1", port) for _ in range(cfg["connections"])]
    try:
        warm = []
        for pair in cfg["pairs"]:
            for engine in cfg["engine_weights"]:
                if engine == "svi" and pair not in cfg["svi_pairs"]:
                    continue
                for backend in cfg["backends"]:
                    op = {"id": f"warm-{len(warm)}", "pair": pair, "engine": engine, "backend": backend,
                          "particles": 100, "tenant": "warmup", "seed": 2_100_000_000 + len(warm)}
                    op.update({k: snapshot[pair][k] for k in ("model_entry", "guide_entry")})
                    op.update(model=snapshot[pair]["model_source"], guide=snapshot[pair]["guide_source"],
                              obs_values=snapshot[pair]["obs_values"],
                              guide_args=snapshot[pair]["guide_args"])
                    warm.append(conns[len(warm) % len(conns)].send(_serve_payload(op, cfg, snapshot)))
        for response, _ in await asyncio.gather(*warm):
            if not response.get("ok"):
                raise RuntimeError(f"warm-up request failed: {response}")
        if not ctx.ready():
            return
        ops = ctx.sequences[0]
        if ctx.limits is not None:
            ops = ops[: ctx.limits[0]]
        ctx.taken[0] = len(ops)
        if ctx.tracer is not None:
            ctx.tracer.op_keys.update({("seed", op["seed"]): op["id"] for op in ops})
        mark = _wave_mark(service)
        generated = await _open_loop_process(
            ctx.root, port, cfg, [(op["due_s"], _serve_payload(op, cfg, snapshot)) for op in ops])
        results = generated["results"]
        ctx.probes_s += generated["probes_s"]
        ctx.extra["peak_rss_mb"] = peak_rss_mb()
        requests, waves = (a - b for a, b in zip(_wave_mark(service), mark))
        ctx.extra["wave_size_mean"] = requests / waves if waves else 0.0
        ctx.extra["obs_series"] = _obs_series()
    finally:
        await _stop_server(service, server, conns)
    server_rows, lags, shed = [], [], 0
    for op, res in zip(ops, results):
        response = res["response"]
        error = wrong = None
        if response is None:
            error = "unanswered"
        elif not response.get("ok"):
            error = f"{response.get('code')}: {response.get('error')}"
            shed += response.get("code") in SHED_CODES
        else:
            wrong = checks.check_posterior(snapshot[op["pair"]], response["posterior_means"],
                                           op["particles"])
            timing = response["server"]
            server_rows.append({"queue_wait_s": timing["queue_wait_s"], "run_s": timing["run_s"],
                                "latency_s": timing["latency_s"],
                                "client_s": res["received"] - res["sent"]})
        lags.append(res["lag_s"])
        ctx.records.append(_record(op["id"], res["due"], res["received"], error, wrong,
                                   particles=op["particles"], sites=op["sites"],
                                   shape=f"{op['pair']}/{op['engine']}/{op['backend']}"))
    ctx.extra.update(server=server_rows, lags=lags, shed=shed)


# ---------------------------------------------------------------------------
# particles_large: direct session.infer calls
# ---------------------------------------------------------------------------


def _infer_kwargs(op: dict) -> dict:
    kwargs = dict(num_particles=op["particles"], obs_values=tuple(op["obs_values"]), seed=op["seed"],
                  backend=op["backend"], shards=op["shards"], workers=op["workers"],
                  guide_args=tuple(op["guide_args"]))
    if op["engine"] == "svi":
        names = _guide_param_names(op["guide"], op["guide_entry"])
        kwargs["guide_params"] = dict(zip(names, kwargs.pop("guide_args")))
        kwargs["num_steps"] = op["num_steps"]
    return kwargs


def run_particles_large(ctx: Context) -> None:
    from repro.engine.session import ProgramSession
    from repro.engine.shard import shutdown_pool

    cfg, snapshot = ctx.cfg, ctx.snapshot
    sessions = {}
    for name in dict.fromkeys(op["pair"] for op in ctx.sequences[0]):
        entry = snapshot[name]
        sessions[name] = ProgramSession.from_sources(
            entry["model_source"], entry["guide_source"],
            model_entry=entry["model_entry"], guide_entry=entry["guide_entry"])
    try:
        warm_ops = {(op["pair"], op["engine"], op["backend"], op["shards"]): op
                    for op in ctx.sequences[0]}
        for (name, engine, _, _), op in warm_ops.items():
            sessions[name].infer(engine, **dict(_infer_kwargs(op), num_particles=1000, seed=1))
        if not ctx.ready():
            return
        started = time.perf_counter()
        previous = None
        for index, op in enumerate(ctx.sequences[0]):
            if not ctx.take(0, index, op, started):
                break
            if ctx.tracer is not None:
                ctx.tracer.set_current_op(op["id"])
            error = wrong = None
            result = None
            t0 = time.perf_counter()
            try:
                result = sessions[op["pair"]].infer(op["engine"], **_infer_kwargs(op))
            except Exception as exc:  # noqa: BLE001 - a failed op is recorded, not fatal
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if result is not None:
                entry = snapshot[op["pair"]]
                means = {str(s): _safe_mean(result, s) for s in checks.golden_sites(entry)}
                wrong = checks.check_posterior(entry, means, op["particles"])
                if wrong is None and previous and previous[0] == _twin(op) and previous[1] is not None:
                    wrong = checks.check_bitwise(op["engine"], previous[1], result,
                                                 op["guide"].count("sample."))
            previous = (_twin(op), result) if op["backend"] == "interp" else None
            ctx.records.append(_record(op["id"], t0, t1, error, wrong, particles=op["particles"],
                                       sites=op["sites"], shape=op["shape"]))
            ctx.probe()
        ctx.extra["peak_rss_mb"] = peak_rss_mb()
        ctx.extra["obs_series"] = _obs_series()
    finally:
        shutdown_pool()


def _twin(op: dict) -> tuple:
    """What an interp op and its compiled twin share."""
    return op["pair"], op["engine"], op["particles"], op["shards"], op["seed"]


def _safe_mean(result, site: int) -> Optional[float]:
    try:
        return float(result.posterior_mean(site))
    except Exception:  # noqa: BLE001 - a missing site is reported by the check
        return None


# ---------------------------------------------------------------------------
# cold_pairs: never-seen pairs, verdict then one compiled IS run
# ---------------------------------------------------------------------------


def _cold_op(op: dict, from_sources):
    """``(error, wrong, certified)`` for one cold pair."""
    try:
        session = from_sources(op["model"], op["guide"])
        certified = session.certified
    except Exception as exc:  # noqa: BLE001 - a raised verdict is an outcome
        if op["certify"]:
            return f"{type(exc).__name__}: {exc}", None, None
        return None, None, False
    wrong = checks.check_verdict(op["certify"], certified)
    if wrong or not certified:
        return None, wrong, certified
    try:
        result = session.infer("is", num_particles=op["particles"], backend="compiled",
                               obs_values=tuple(op["obs_values"]), seed=op["seed"])
    except Exception as exc:  # noqa: BLE001
        return f"{type(exc).__name__}: {exc}", None, certified
    if not math.isfinite(result.log_evidence()):
        return None, "non-finite log evidence", certified
    return None, None, certified


def run_cold_pairs(ctx: Context) -> None:
    from repro.engine.session import ProgramSession
    from repro.fuzz.generator import generate, synthesize_family
    from repro.fuzz.oracles import default_obs_values

    # Warm the lazy imports (codegen, engines) on pairs outside the measured set.
    for case in (generate(2_140_000_000), synthesize_family("hmm_chain", 3)):
        _cold_op({"model": case.model_source, "guide": case.guide_source, "certify": True,
                  "particles": ctx.cfg["particles"], "obs_values": list(default_obs_values(case)),
                  "seed": 1}, ProgramSession.from_sources)
    if not ctx.ready():
        return
    started = time.perf_counter()
    wrong_verdicts = 0
    for index, op in enumerate(ctx.sequences[0]):
        if not ctx.take(0, index, op, started):
            break
        if ctx.tracer is not None:
            ctx.tracer.set_current_op(op["id"])
        t0 = time.perf_counter()
        error, wrong, certified = _cold_op(op, ProgramSession.from_sources)
        t1 = time.perf_counter()
        wrong_verdicts += certified is None or bool(certified) != op["certify"]
        ran = bool(certified) and error is None and wrong is None
        ctx.records.append(_record(op["id"], t0, t1, error, wrong,
                                   particles=op["particles"] if ran else 0, sites=op["sites"],
                                   shape=op["kind"], label=op["label"]))
        ctx.probe()
    ctx.extra.update(peak_rss_mb=peak_rss_mb(), obs_series=_obs_series(),
                     wrong_verdicts=wrong_verdicts)


# ---------------------------------------------------------------------------
# stream_sessions: two closed-loop clients over loopback TCP
# ---------------------------------------------------------------------------


def _session_requests(session: dict, client: int, cfg: dict) -> List[dict]:
    """The open / push... / query / close payloads of one session."""
    common = {"session_id": session["id"], "tenant": f"tenant-{client}"}
    opened = {"op": "session.open", "benchmark": session["benchmark"],
              "params": {"num_particles": cfg["particles"], "seed": session["seed"],
                         "backend": cfg["backend"]}}
    if session["kind"] == "grow":
        opened["grow"] = True
    requests = [opened] + [{"op": "session.push", "values": v} for v in session["pushes"]]
    requests += [{"op": "session.query", "sites": [0]}, {"op": "session.close"}]
    return [dict(common, id=f"{session['id']}-{i}", **r) for i, r in enumerate(requests)]


async def _stream_client(ctx: Context, conn, client: int, started: float, out: List[tuple]) -> None:
    for index, session in enumerate(ctx.sequences[client]):
        if not ctx.take(client, index, session, started):
            break
        if ctx.tracer is not None:
            ctx.tracer.op_keys[("session", session["id"])] = session["id"]
        replies = []
        for payload in _session_requests(session, client, ctx.cfg):
            if ctx.tracer is not None:
                ctx.tracer.op_keys[("payload", payload["id"])] = session["id"]
            replies.append((payload,) + await conn.call(payload))
        out.append((session, replies))
        ctx.probe()


def _oneshot_mean(session: dict, cfg: dict, snapshot: Dict[str, dict]) -> float:
    from repro.engine.session import ProgramSession
    from repro.models import STREAMING_FAMILIES

    journal = [v for values in session["pushes"] for v in values]
    if session["kind"] == "grow":
        model, guide = STREAMING_FAMILIES[session["benchmark"]](len(journal))
        guide_args: tuple = ()
    else:
        entry = snapshot[session["benchmark"]]
        model, guide = entry["model_source"], entry["guide_source"]
        guide_args = tuple(entry["guide_args"])
    result = ProgramSession.from_sources(model, guide).infer(
        "smc", num_particles=cfg["particles"], obs_values=journal, seed=session["seed"],
        backend=cfg["backend"], guide_args=guide_args)
    return float(result.posterior_mean(0))


async def run_stream_sessions(ctx: Context) -> None:
    from perfbench.clients import JsonlConn

    cfg = ctx.cfg
    tmp_root = ctx.root / ".perfbench" / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    checkpoint_dir = tempfile.mkdtemp(prefix="checkpoints-", dir=tmp_root)
    service, server, port = await _start_server(checkpoint_dir)
    conns = [await JsonlConn.open("127.0.0.1", port) for _ in range(cfg["clients"])]
    out: List[tuple] = []
    try:
        fixed = ctx.snapshot[cfg["fixed_models"][0]]
        warm = [{"id": "warm-fixed", "kind": "fixed", "benchmark": cfg["fixed_models"][0], "seed": 7,
                 "pushes": [[v] for v in fixed["obs_values"]]},
                {"id": "warm-grow", "kind": "grow", "benchmark": cfg["grow_family"], "seed": 7,
                 "pushes": [[0.1], [0.2], [0.3]]}]
        for session in warm:
            for payload in _session_requests(session, 0, cfg):
                response, _, _ = await conns[0].call(payload)
                if not response.get("ok"):
                    raise RuntimeError(f"warm-up session op failed: {response}")
        if not ctx.ready():
            return
        mark = _wave_mark(service)
        started = time.perf_counter()
        await asyncio.gather(*(_stream_client(ctx, conns[c], c, started, out)
                               for c in range(cfg["clients"])))
        ctx.extra["peak_rss_mb"] = peak_rss_mb()
        requests, waves = (a - b for a, b in zip(_wave_mark(service), mark))
        ctx.extra["wave_size_mean"] = requests / waves if waves else 0.0
        ctx.extra["obs_series"] = _obs_series()
    finally:
        await _stop_server(service, server, conns)
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    server_rows: List[dict] = []
    push_t: Dict[str, List[int]] = {}
    for session, replies in out:
        error = wrong = None
        steps = 0
        for payload, response, sent, received in replies:
            if payload["op"] == "session.push":
                steps += len(payload["values"])
                push_t.setdefault(session["id"], []).append(steps)
            if not response.get("ok"):
                error = error or f"{payload['op']} {response.get('code')}: {response.get('error')}"
                continue
            timing = response["server"]
            server_rows.append({"queue_wait_s": timing["queue_wait_s"], "run_s": timing["run_s"],
                                "latency_s": timing["latency_s"], "client_s": received - sent})
            if payload["op"] == "session.query" and error is None:
                wrong = checks.check_stream(response["posterior_means"],
                                            _oneshot_mean(session, cfg, ctx.snapshot))
        ctx.records.append(_record(session["id"], replies[0][2], replies[-1][3], error, wrong,
                                   particles=session["particles"] * len(session["pushes"]),
                                   sites=session["sites"], shape=session["shape"],
                                   length=session["length"]))
    # stream_rw certifies at every length, as do the library pairs.
    ctx.extra.update(server=server_rows, push_t=push_t, pairs_certify=True)


RUNNERS = {
    "serve_small": run_serve_small,
    "particles_large": run_particles_large,
    "cold_pairs": run_cold_pairs,
    "stream_sessions": run_stream_sessions,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--limits", default=None, help="JSON list: ops per client to replay")
    args = parser.parse_args(argv)
    root = Path.cwd()
    cpus = load_config()[args.workload].get("cpus")
    if cpus:
        pin_to_cpus(cpus)
    # Import the package before generating inputs: imports are set-up cost,
    # input generation is not.
    importlib.import_module("repro.engine")
    ctx = Context(args, root)
    runner = RUNNERS[args.workload]
    if asyncio.iscoroutinefunction(runner):
        asyncio.run(runner(ctx))
    else:
        runner(ctx)
    out = {"ready_at": ctx.ready_at, "gen_s": ctx.gen_s, "taken": ctx.taken, "records": ctx.records,
           "probes_s": ctx.probes_s,
           "extra": {k: v for k, v in ctx.extra.items() if k not in ("server", "lags", "push_t")}}
    if ctx.tracer is not None:
        out["layers"] = layer_metrics(ctx.tracer.spans, ctx.records, ctx.extra,
                                      ctx.cfg["tail_percentile"])
        out["missing"] = ctx.tracer.missing
        spans_dir = root / ".perfbench" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        path = spans_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}.json"
        path.write_text(json.dumps({"spans": ctx.tracer.spans, "missing": ctx.tracer.missing}))
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
