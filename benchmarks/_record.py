"""The pytest harnesses' side of the ``BENCH_results.json`` artifact.

Every benchmark harness funnels its measurements through :func:`record`, so
one run of ``pytest benchmarks`` leaves behind a single JSON artifact that CI
uploads (see the ``fast-benchmarks`` job in ``.github/workflows/ci.yml``).
The document itself — its schema-3 layout, the lossless migration of
schema-1/2 artifacts, reading and writing — belongs to
:mod:`repro.bench.results`, the one writer the CLI paths share.  This module
adds only the harness pieces: the per-process :func:`run_id`, :func:`record`,
:func:`reset_results`, and the :func:`best_of` timer.

Entries are grouped into **per-run lists**: each pytest session (or any
other harness process) appends its measurements to its own run record, so
two harness sessions writing one artifact in the same CI run never clobber
each other.  ``wall_time_s`` is the best-of-N wall time of the measured
configuration; ``speedup`` (optional) is relative to the named
``baseline``.  The output path defaults to ``BENCH_results.json`` in the
current directory and can be redirected with ``REPRO_BENCH_RESULTS``.
:func:`reset_results` (called once per session by the autouse fixture in
``benchmarks/conftest.py``) starts a fresh run record and prunes old runs
beyond :data:`repro.bench.results.MAX_RUNS`, so local re-runs do not grow
the file forever while runs within one CI workflow all survive.
"""

from __future__ import annotations

import os
import time
from typing import Optional

from repro.bench.results import MAX_RUNS, load_results, write_results

#: The current process's run identifier; lazily assigned so importing this
#: module never touches the filesystem.
_RUN_ID: Optional[str] = None


def run_id() -> str:
    """This process's run identifier (stable for the process lifetime)."""
    global _RUN_ID
    if _RUN_ID is None:
        _RUN_ID = f"{os.getpid()}-{int(time.time())}"
    return _RUN_ID


def _current_run(data: dict) -> dict:
    for run in data["runs"]:
        if run.get("run") == run_id():
            return run
    run = {
        "run": run_id(),
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "entries": [],
    }
    data["runs"].append(run)
    return run


def reset_results() -> None:
    """Start this process's run record afresh (called once per session).

    Other runs' records are preserved; only runs beyond ``MAX_RUNS`` are
    pruned, oldest first.
    """
    data = load_results()
    runs = [run for run in data["runs"] if run.get("run") != run_id()]
    data["runs"] = runs[-(MAX_RUNS - 1):] if MAX_RUNS > 1 else []
    _current_run(data)
    write_results(data)


def record(
    suite: str,
    model: str,
    engine: str,
    wall_time_s: float,
    backend: str = "interp",
    particles: Optional[int] = None,
    speedup: Optional[float] = None,
    baseline: Optional[str] = None,
    **extra,
) -> None:
    """Append one measurement to this process's run in the artifact.

    ``suite`` names the harness (usually the benchmark file's topic),
    ``model``/``engine``/``backend``/``particles`` identify the measured
    configuration, and ``speedup`` relates it to ``baseline`` when the
    harness measured a comparison.  Extra keyword fields land under
    ``extra`` untouched — use them for harness-specific detail (group
    counts, tolerance margins, server counters, paper-reported numbers).
    Entries sharing a key never overwrite each other: measurements
    accumulate within the run's list.
    """
    data = load_results()
    entry = {
        "suite": suite,
        "model": model,
        "engine": engine,
        "backend": backend,
        "particles": particles,
        "wall_time_s": float(wall_time_s),
    }
    if speedup is not None:
        entry["speedup"] = float(speedup)
    if baseline is not None:
        entry["baseline"] = baseline
    if extra:
        entry["extra"] = extra
    _current_run(data)["entries"].append(entry)
    write_results(data)


def best_of(repeats: int, thunk):
    """Best-of-N wall time helper shared by the harnesses.

    Returns ``(best_seconds, last_result)``.
    """
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = thunk()
        best = min(best, time.perf_counter() - start)
    return best, result
