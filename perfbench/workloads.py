"""Seeded op sequences for the four workloads.

Every generator is a pure function of ``(seed, config)``: the same seed gives
the same ops, byte for byte, and the package under test only ever sees the
generated inputs.  Ops are plain JSON-ready dicts so a worker process can
replay exactly the prefix another process measured.
"""

from __future__ import annotations

import itertools
import json
import re
from pathlib import Path
from typing import Dict, List

import numpy as np

CONFIG_PATH = Path(__file__).with_name("workloads.json")
SNAPSHOT_RELPATH = Path("bench") / "snapshots" / "v1.json"
WORKLOADS = ("serve_small", "particles_large", "cold_pairs", "stream_sessions")

_SAMPLE = re.compile(r"\bsample\.")
_MESSAGE = re.compile(r"\.(?:send|recv)\{")


def load_config() -> Dict[str, dict]:
    """The per-workload constants (rates, shapes, tail percentiles)."""
    return json.loads(CONFIG_PATH.read_text(encoding="utf-8"))


def load_snapshot(root: Path) -> Dict[str, dict]:
    """The golden snapshot's model entries, read from a checkout."""
    return json.loads((Path(root) / SNAPSHOT_RELPATH).read_text(encoding="utf-8"))["models"]


def sample_sites(*sources: str) -> int:
    """Static size of a pair: ``sample`` statements in its sources."""
    return sum(len(_SAMPLE.findall(src)) for src in sources)


def messages(*sources: str) -> int:
    """Static protocol size of a pair: channel sends and receives in its sources."""
    return sum(len(_MESSAGE.findall(src)) for src in sources)


def _request_seed(seed: int, index: int) -> int:
    # Unique per op within a run, so traced server spans can be matched back
    # to the op through the request's seed.
    return (seed % 2000) * 1_000_000 + index


def _pair_fields(entry: dict) -> dict:
    return {
        "model": entry["model_source"],
        "guide": entry["guide_source"],
        "model_entry": entry["model_entry"],
        "guide_entry": entry["guide_entry"],
        "obs_values": list(entry["obs_values"]),
        "guide_args": list(entry["guide_args"]),
        "sites": sample_sites(entry["model_source"], entry["guide_source"]),
    }


def _largest_remainder(total: int, weights: Dict[str, float]) -> Dict[str, int]:
    """Split ``total`` into whole counts in proportion to ``weights``."""
    scale = total / sum(weights.values())
    counts = {k: int(w * scale) for k, w in weights.items()}
    by_remainder = sorted(weights, key=lambda k: counts[k] - weights[k] * scale)
    for k in by_remainder[: total - sum(counts.values())]:
        counts[k] += 1
    return counts


def serve_small(seed: int, cfg: dict, snapshot: Dict[str, dict], horizon_s: float) -> List[dict]:
    """Poisson arrivals over ``horizon_s`` seconds of the golden-pair request mix.

    The run holds ``rate * horizon_s`` requests, due at the sorted uniform
    times a Poisson process has given that count.  The mix is stratified so
    every seed sends the same requests in a different order: engines in their
    weighted shares, pairs and backends in turn within each engine, and
    particle counts log-spread over the range by a golden-ratio sequence from
    a seeded start, within each (engine, pair, backend) cell.
    """
    rng = np.random.default_rng([0x5E12, seed])
    total = max(1, round(cfg["offered_rate_per_s"] * horizon_s))
    lo, hi = np.log(cfg["particles"][0]), np.log(cfg["particles"][1])
    start = float(rng.random())
    mix: List[tuple] = []
    for engine, count in _largest_remainder(total, cfg["engine_weights"]).items():
        pairs = cfg["svi_pairs"] if engine == "svi" else cfg["pairs"]
        cells = list(itertools.product(pairs, cfg["backends"]))
        for k in range(count):
            name, backend = cells[k % len(cells)]
            frac = (start + (k // len(cells)) * 0.6180339887498949) % 1.0
            mix.append((engine, name, backend, int(round(float(np.exp(lo + frac * (hi - lo)))))))
    dues = np.sort(rng.uniform(0.0, horizon_s, total))
    ops: List[dict] = []
    for index, i in enumerate(rng.permutation(total)):
        engine, name, backend, particles = mix[int(i)]
        op = {
            "id": index,
            "pair": name,
            "engine": engine,
            "backend": backend,
            "particles": particles,
            "tenant": f"tenant-{int(rng.integers(cfg['tenants'])):03d}",
            "seed": _request_seed(seed, index),
            "due_s": float(dues[index]),
        }
        op.update(_pair_fields(snapshot[name]))
        ops.append(op)
    return ops


def particles_shapes(cfg: dict) -> List[dict]:
    """The op shapes of one ``particles_large`` pass, in their fixed order.

    Interp/compiled legs of one shape are adjacent so each pair runs with the
    same seed and can be compared bitwise.
    """
    shapes = []
    for model, engine, particles in itertools.product(cfg["models"], cfg["engines"], cfg["particles"]):
        for backend in cfg["backends"]:
            shapes.append({"pair": model, "engine": engine, "particles": particles,
                           "backend": backend, "shards": 1, "workers": 1})
    # A few SVI fits at the small size, so the SVI layer runs here too.
    svi = cfg["svi_legs"]
    for model, backend in itertools.product(svi["models"], cfg["backends"]):
        shapes.append({"pair": model, "engine": "svi", "particles": svi["particles"],
                       "num_steps": svi["num_steps"], "backend": backend, "shards": 1, "workers": 1})
    legs = cfg["sharded_legs"]
    sharded = [{"pair": model, "engine": engine, "particles": particles}
               for model, engine, particles in itertools.product(legs["models"], cfg["engines"],
                                                                 cfg["particles"])]
    # One sharded leg on the recursive model, where compiled falls back to
    # the interpreter.  It also makes the shape count odd, so with an odd
    # number of passes the median op is one shape's middle sample rather
    # than a point between two shapes whose times may differ by a third.
    sharded.append(legs["fallback_leg"])
    for leg in sharded:
        shapes.append(dict(leg, backend=legs["backend"], shards=legs["shards"], workers=legs["workers"]))
    return shapes


def particles_large(seed: int, cfg: dict, snapshot: Dict[str, dict], passes: int) -> List[dict]:
    """``passes`` repetitions of every shape; the seed only moves the RNG streams.

    Each shape draws its ops' RNG seeds from one fixed pool of
    ``max(passes, 3)`` seeds, and the run's seed sets which pass takes which.  The recursive and
    branching models do more or less work with the RNG stream; with the pool
    every run does the same work, and the median op no longer moves with
    which streams a seed happened to draw.
    """
    rng = np.random.default_rng([0x9A27, seed])
    ops: List[dict] = []
    shapes = particles_shapes(cfg)
    order = {s: rng.permutation(max(passes, 3)) for s in range(len(shapes))}
    for p in range(passes):
        for s, shape in enumerate(shapes):
            # Both backends of one shape share a seed; sharded legs get their own.
            group = s - s % 2 if shape["shards"] == 1 else s
            pool_index = int(order[group][p])
            op = dict(shape, id=len(ops), unit=p, seed=_request_seed(0, pool_index * 1000 + group))
            op["shape"] = "{pair}/{engine}/{particles}/{backend}/shards={shards}".format(**shape)
            op.update(_pair_fields(snapshot[shape["pair"]]))
            ops.append(op)
    return ops


def _spread_sizes(rng: np.random.Generator, lo: int, hi: int, strata: int, blocks: int) -> List[List[int]]:
    """One distinct size per equal slice of ``[lo, hi]`` for each block.

    Positions within the slices follow a golden-ratio sequence from a seeded
    start, so any run's blocks cover every slice evenly whatever the seed.
    """
    edges = [int(np.ceil(e)) for e in np.linspace(lo, hi + 1, strata + 1)]
    start = float(rng.random())
    used: set = set()
    out = []
    for b in range(blocks):
        frac = (start + b * 0.6180339887498949) % 1.0
        row = []
        for a, e in zip(edges[:-1], edges[1:]):
            n = a + int(frac * (e - a))
            while n in used:
                n = a + (n + 1 - a) % (e - a)
            used.add(n)
            row.append(n)
        out.append(row)
    return out


def cold_pairs(seed: int, cfg: dict, blocks: int) -> List[dict]:
    """Blocks of never-seen pairs: fuzz pairs, their mutants, and ``hmm_chain/N``.

    Each block takes one ``hmm_chain`` size from every equal slice of the size
    range, so every block carries the same share of sizes past the 64-message
    cliff.  Sizes are not reused within a run, so no pair repeats.
    """
    from repro.fuzz.generator import generate, synthesize_family
    from repro.fuzz.mutations import applicable_mutants
    from repro.fuzz.oracles import default_obs_values

    rng = np.random.default_rng([0xC01D, seed])
    block = cfg["block"]
    lo, hi = cfg["hmm_chain_sizes"]
    strata = block["hmm_chain"]
    blocks = min(blocks, (hi - lo + 1) // strata)
    fuzz_seeds = itertools.count((seed % 20000) * 100_000)
    sizes = _spread_sizes(rng, lo, hi, strata, blocks)
    ops: List[dict] = []

    def add(unit: int, kind: str, model: str, guide: str, certify: bool, obs=(), label: str = "") -> None:
        ops.append({
            "id": len(ops), "unit": unit, "kind": kind, "label": label, "model": model, "guide": guide,
            "certify": certify, "obs_values": [v if isinstance(v, (bool, int)) else float(v) for v in obs],
            "sites": sample_sites(model, guide), "messages": messages(model, guide),
            "seed": _request_seed(seed, len(ops)), "particles": cfg["particles"],
        })

    for unit in range(blocks):
        group: List[tuple] = []
        for _ in range(block["fuzz"]):
            case = generate(next(fuzz_seeds))
            group.append(("fuzz", case.model_source, case.guide_source, True,
                          default_obs_values(case), f"fuzz/{case.seed}"))
        made = 0
        while made < block["mutant"]:
            mutants = applicable_mutants(generate(next(fuzz_seeds)))
            if not mutants:
                continue
            m = mutants[int(rng.integers(len(mutants)))]
            group.append(("mutant", m.model_source, m.guide_source, False, (),
                          f"mutant/{m.name}/{m.seed}"))
            made += 1
        for size in sizes[unit]:
            case = synthesize_family("hmm_chain", size)
            group.append(("hmm_chain", case.model_source, case.guide_source, True,
                          default_obs_values(case), f"hmm_chain/{size}"))
        for i in rng.permutation(len(group)):
            add(unit, *group[int(i)][:4], obs=group[int(i)][4], label=group[int(i)][5])
    return ops


def stream_sessions(seed: int, cfg: dict, snapshot: Dict[str, dict], client: int,
                    blocks: int) -> List[dict]:
    """One client's sessions; each session is one op.

    Every block holds one growable session per base length, each shifted by
    the block's offset, plus one session per fixed model.  Offsets follow a
    golden-ratio sequence from a seeded start, so every run's blocks spread
    evenly over the offsets whatever the seed.  The offset never moves a
    length across the 64-message cliff, so every block has the same mix of
    sessions that complete and sessions that fail.  A
    growable session of length ``L`` pushes its first ``L - live_pushes``
    observations as one backlog batch, then ``live_pushes`` single
    observations.
    """
    from repro.models import STREAMING_FAMILIES

    rng = np.random.default_rng([0x57EA, seed, client])
    sessions: List[dict] = []
    start = float(rng.random())
    for unit in range(blocks):
        shift = int(((start + unit * 0.6180339887498949) % 1.0) * (cfg["length_shift"] + 1))
        specs = [("grow", base, base + shift) for base in cfg["grow_lengths"]]
        specs += [("fixed", name, None) for name in cfg["fixed_models"]]
        for i in rng.permutation(len(specs)):
            kind, base, length = specs[int(i)]
            if kind == "grow":
                walk = np.cumsum(rng.normal(0.0, 1.0, length)) + rng.normal(0.0, 0.5, length)
                values = [round(float(v), 4) for v in walk]
                backlog = length - cfg["live_pushes"]
                pushes = [values[:backlog]] + [[v] for v in values[backlog:]]
                sources = STREAMING_FAMILIES[cfg["grow_family"]](length)
                benchmark = cfg["grow_family"]
            else:
                entry = snapshot[base]
                pushes = [[float(v)] for v in entry["obs_values"]]
                sources = (entry["model_source"], entry["guide_source"])
                benchmark = base
            sessions.append({
                "id": f"c{client}-{len(sessions)}", "unit": unit, "kind": kind,
                "benchmark": benchmark, "shape": kind,
                "seed": _request_seed(seed, client * 100_000 + len(sessions)),
                "pushes": pushes, "length": sum(len(v) for v in pushes),
                "sites": sample_sites(*sources), "particles": cfg["particles"],
            })
    return sessions


def units_for(cfg: dict, seconds: float) -> int:
    """Whole units a closed-loop run measures: ``seconds`` at the nominal unit time."""
    return max(1, round(seconds / cfg.get("unit_seconds", seconds)))


def generate_ops(workload: str, seed: int, root: Path, seconds: float) -> List[List[dict]]:
    """Every client's op sequence for one run of about ``seconds``.

    Closed loops get exactly the whole units the run measures; the open loop
    gets every arrival due within ``seconds``.
    """
    cfg = load_config()[workload]
    units = units_for(cfg, seconds)
    if workload == "serve_small":
        return [serve_small(seed, cfg, load_snapshot(root), seconds)]
    if workload == "particles_large":
        return [particles_large(seed, cfg, load_snapshot(root), passes=units)]
    if workload == "cold_pairs":
        return [cold_pairs(seed, cfg, blocks=units)]
    if workload == "stream_sessions":
        snapshot = load_snapshot(root)
        return [stream_sessions(seed, cfg, snapshot, c, blocks=units) for c in range(cfg["clients"])]
    raise ValueError(f"unknown workload {workload!r}")
