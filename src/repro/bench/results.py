"""Schema-3 ``BENCH_results.json``: the one reader, writer and migrator.

Every writer of the artifact goes through this module: the CLI paths
(``repro bench evaluate`` recording scaling curves, ``repro loadgen
--record`` appending a load entry) and the pytest harnesses'
``benchmarks/_record.py``, which adds only per-session run bookkeeping on
top.  They all speak one document:

.. code-block:: json

    {"schema": 3, "created_at": "...",
     "runs":   [{"run": "...", "started_at": "...", "entries": [...]}],
     "curves": {"<tag>": {"generated_at": "...", "curves": [...], ...}}}

Schema 3 adds the top-level ``curves`` map — one slot per evaluate tag,
holding that run's accuracy-vs-wall-time scaling curves — next to schema 2's
per-run entry lists.  Migration is lossless in both directions of history:
a schema-1 flat entry list becomes one legacy run, a schema-2 document keeps
its runs untouched and gains an empty ``curves`` map.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Optional

SCHEMA_VERSION = 3

#: Retention caps (oldest pruned first).
MAX_RUNS = 8
MAX_CURVE_SETS = 8


def results_path(path: Optional[str] = None) -> Path:
    """Where the artifact lives (``REPRO_BENCH_RESULTS`` overrides)."""
    if path is not None:
        return Path(path)
    return Path(os.environ.get("REPRO_BENCH_RESULTS", "BENCH_results.json"))


def fresh_document() -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "runs": [],
        "curves": {},
    }


def migrate(data: object) -> dict:
    """Bring any prior-schema document (or junk) to schema 3, losslessly."""
    if not isinstance(data, dict):
        return fresh_document()
    if data.get("schema") == SCHEMA_VERSION:
        data.setdefault("runs", [])
        data.setdefault("curves", {})
        return data
    if data.get("schema") == 2 and isinstance(data.get("runs"), list):
        document = fresh_document()
        document["created_at"] = data.get("created_at", document["created_at"])
        document["runs"] = data["runs"]
        return document
    if data.get("schema") == 1 and isinstance(data.get("entries"), list):
        document = fresh_document()
        document["runs"].append(
            {
                "run": "legacy-schema-1",
                "started_at": data.get("created_at"),
                "entries": data["entries"],
            }
        )
        return document
    return fresh_document()


def load_results(path: Optional[str] = None) -> dict:
    resolved = results_path(path)
    if not resolved.exists():
        return fresh_document()
    try:
        data = json.loads(resolved.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return fresh_document()
    return migrate(data)


def write_results(data: dict, path: Optional[str] = None) -> Path:
    resolved = results_path(path)
    resolved.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return resolved


def append_run_entry(entry: dict, run_name: str, path: Optional[str] = None) -> Path:
    """Append one measurement as its own run record (the loadgen path)."""
    data = load_results(path)
    data["runs"].append(
        {
            "run": run_name,
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "entries": [entry],
        }
    )
    del data["runs"][:-MAX_RUNS]
    return write_results(data, path)


def record_curves(tag: str, payload: dict, path: Optional[str] = None) -> Path:
    """Store one evaluate run's curve set under its tag (bounded history)."""
    data = load_results(path)
    curves = data.setdefault("curves", {})
    curves[tag] = payload
    while len(curves) > MAX_CURVE_SETS:
        # Dict order is insertion order; evict the oldest tag that is not
        # the one just written.
        oldest = next(key for key in curves if key != tag)
        del curves[oldest]
    return write_results(data, path)
