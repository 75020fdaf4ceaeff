"""The repo benchmark: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a checkout.  Each run starts fresh worker processes
(``perfbench/worker.py``) against the checkout's ``src/`` tree:

* ``--trace 0``: two set-up-only processes, then one timed process; prints
  every end-to-end metric (set-up time is the median of the three).
* ``--trace 1``: one timed process, then a traced process replaying exactly
  the ops the timed one measured; prints every per-layer metric.

Times and rates are scaled to a nominal host speed by the host-speed probes
each worker takes between ops (``perfbench/hostspeed.py``); the readable
report gives the factor, so the raw figures can be recovered.

``--workload all`` runs all four workloads in turn, the two
``BENCHMARK.json`` lists first.  A readable report goes to stdout first; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import hostspeed  # noqa: E402
from perfbench.tracing import percentile  # noqa: E402
from perfbench.workloads import SNAPSHOT_RELPATH, WORKLOADS, load_config  # noqa: E402

BENCHMARK_FILE = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
SETUP_SAMPLES = 3
#: Every workload's processes together must finish within this many seconds.
RUN_BUDGET_S = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def _spec() -> dict:
    return json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))


def metric_units(kind: str) -> Dict[str, str]:
    """Metric name -> unit, from ``BENCHMARK.json`` (``end_to_end`` or ``per_layer``)."""
    return {m["name"]: m["unit"] for m in _spec()[kind]}


def all_workloads() -> tuple:
    """Every workload, the ones ``BENCHMARK.json`` lists first."""
    listed = tuple(w["name"] for w in _spec()["workloads"])
    return listed + tuple(w for w in WORKLOADS if w not in listed)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_worker(root: Path, workload: str, seed: int, seconds: float, mode: str, deadline: float,
               limits=None) -> dict:
    """One fresh worker process; returns its report plus ``setup_s``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    if limits is not None:
        cmd += ["--limits", json.dumps(limits)]
    spawned = time.monotonic()
    # A session of its own, so a timeout can stop the worker together with
    # its load generator and shard pool.
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        _kill_group(proc.pid)
        proc.communicate()
        raise BenchmarkError(f"{workload} {mode} worker timed out") from exc
    _kill_group(proc.pid)  # anything the worker left behind
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} {mode} worker failed ({proc.returncode}):\n{stderr[-4000:]}")
    report = json.loads(lines[-1])
    report["host_factor"] = hostspeed.factor(report["probes_s"])
    report["setup_s"] = (report["ready_at"] - spawned - report["gen_s"]) * report["host_factor"]
    return report


def _geomean(values: List[float]) -> float:
    values = [v for v in values if v > 0]
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


def end_to_end(report: dict, setup_samples: List[float], tail_percentile: float,
               open_loop: bool) -> Dict[str, float]:
    """The end-to-end metrics of one timed run, scaled to the nominal host speed.

    An open loop's throughput is set by its schedule, not by the host, so it
    is not scaled.
    """
    records = report["records"]
    factor = report["host_factor"]
    if not records:
        raise BenchmarkError("the run attempted no ops")
    ok = [r for r in records if r["ok"]]
    wall = max(r["end"] for r in records) - min(r["start"] for r in records)
    latencies = [r["latency_s"] * 1e3 for r in records]
    # Per shape: particles over op time, both summed over the shape's ops.
    shapes: Dict[str, List[float]] = {}
    for r in ok:
        if r["particles"] > 0:
            totals = shapes.setdefault(r["shape"], [0.0, 0.0])
            totals[0] += r["particles"]
            totals[1] += r["latency_s"]
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(ok) / wall / (1.0 if open_loop else factor),
        "latency_p50_ms": percentile(latencies, 50) * factor,
        "latency_tail_ms": percentile(latencies, tail_percentile) * factor,
        "peak_rss_mb": report["extra"]["peak_rss_mb"],
        "particle_rate_geomean": _geomean([n / t for n, t in shapes.values()]) / factor,
    }


def verdict_sites_per_s(report: dict) -> float:
    """Sample sites of the ops that passed their check, per second, scaled like the rates."""
    records = report["records"]
    wall = max(r["end"] for r in records) - min(r["start"] for r in records)
    return sum(r["sites"] for r in records if r["ok"]) / wall / report["host_factor"]


def counts(report: dict) -> Dict[str, int]:
    """Attempted / failed / wrong / errored / shed op counts of one run."""
    records = report["records"]
    wrong = sum(1 for r in records if r["wrong"])
    errored = sum(1 for r in records if r["error"])
    return {"attempted": len(records), "failed": sum(1 for r in records if not r["ok"]),
            "wrong": wrong, "errored": errored, "shed": int(report["extra"].get("shed", 0)),
            "checked": len(records) - errored}


def run_one(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns counts, metrics and a readable report."""
    cfg = load_config()[workload]
    tail = cfg["tail_percentile"]
    deadline = time.monotonic() + RUN_BUDGET_S
    if not trace:
        setups = [run_worker(root, workload, seed, seconds, "setup", deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        timed = run_worker(root, workload, seed, seconds, "timed", deadline)
        metrics = end_to_end(timed, setups + [timed["setup_s"]], tail, cfg["loop"] == "open")
        units = metric_units("end_to_end")
        c = counts(timed)
        lines = [f"{workload}: seed {seed}, {seconds:g} s, tail = p{tail:g}, times x "
                 f"{timed['host_factor']:.4f} and rates / it for the host's speed "
                 f"({len(timed['probes_s'])} probes)"]
        lines += [f"  {name:<24} {metrics[name]:>14.4f} {units[name]}" for name in units]
        lines.append(f"  {'error_rate':<24} {c['failed'] / c['attempted']:>14.4f} fraction "
                     f"({c['failed']} of {c['attempted']} ops: {c['errored']} errored, "
                     f"{c['shed']} shed, {c['wrong']} wrong of {c['checked']} checked)")
        lines.append(f"  {'verdict_sites_per_s':<24} {verdict_sites_per_s(timed):>14.4f} sites/s "
                     f"(not in BENCHMARK.json; the headline of cold_pairs)")
        return {"counts": c, "metrics": metrics, "units": units, "lines": lines}
    timed = run_worker(root, workload, seed, seconds, "timed", deadline)
    traced = run_worker(root, workload, seed, seconds, "traced", deadline, limits=timed["taken"])
    metrics = dict(traced["layers"])
    metrics["bench.host_probe_us"] = statistics.median(timed["probes_s"] + traced["probes_s"]) * 1e6
    base = {r["id"]: r["latency_s"] for r in timed["records"]}
    paired = [(base[r["id"]], r["latency_s"]) for r in traced["records"] if r["id"] in base]
    untraced_s = sum(a for a, _ in paired)
    metrics["bench.tracing_overhead"] = (sum(b for _, b in paired) / untraced_s - 1.0) if untraced_s else 0.0
    units = metric_units("per_layer")
    missing = {}
    for name in units:
        for layer, reason in traced["missing"].items():
            if name.startswith(layer):
                missing[name] = reason
    c_timed, c = counts(timed), counts(traced)
    c["wrong"] += c_timed["wrong"]
    lines = [f"{workload} (traced): seed {seed}, {len(traced['records'])} ops replayed"]
    for name in units:
        note = f"  MISSING: {missing[name]}" if name in missing else ""
        lines.append(f"  {name:<44} {metrics.get(name, 0.0):>14.4f} {units[name]}{note}")
    return {"counts": c, "metrics": metrics, "units": units, "lines": lines, "missing": missing}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="The repo benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    for needed in (root / "src" / "repro" / "__init__.py", root / SNAPSHOT_RELPATH):
        if not needed.is_file():
            print(f"perfbench: {needed} not found; run from the root of a repro checkout",
                  file=sys.stderr)
            return 2
    workloads = all_workloads() if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_one(root, workload, args.seed, args.seconds, bool(args.trace))
            print("\n".join(results[workload]["lines"]), flush=True)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for workload, res in results.items():
        for name, value in res["metrics"].items():
            if name not in res["units"]:
                continue
            key = name if len(results) == 1 else f"{workload}.{name}"
            metrics[key] = {"value": value, "unit": res["units"][name]}
            if name in res.get("missing", {}):
                metrics[key]["missing"] = res["missing"][name]
    summary = {
        "correct": all(res["counts"]["wrong"] == 0 for res in results.values()),
        "attempted": sum(res["counts"]["attempted"] for res in results.values()),
        "failed": sum(res["counts"]["failed"] for res in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
