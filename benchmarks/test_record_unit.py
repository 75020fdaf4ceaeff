"""Unit tests for the per-run benchmark artifact (`_record`).

The schema-1 regression these pin: two harness sessions writing the same
artifact path in one CI run used to clobber each other (`reset_results`
deleted the whole file), and entries sharing a suite/model key could only be
told apart by ordering.  Schema 2 keeps one entry list per run.  The
migration suite at the bottom pins the one migrator
(`repro.bench.results`) that both the harness and the CLI write through.
"""

import json

import pytest

import _record
from repro.bench import results as bench_results


def _runs():
    return bench_results.load_results()["runs"]


def _current_run_entries():
    """The entries recorded under the current run id so far."""
    for run in _runs():
        if run.get("run") == _record.run_id():
            return list(run["entries"])
    return []


def _all_entries():
    """Every entry across all retained runs, in file order."""
    return [entry for run in _runs() for entry in run["entries"]]


@pytest.fixture()
def artifact(tmp_path, monkeypatch):
    """Point the recorder at a scratch artifact with a controllable run id."""
    path = tmp_path / "BENCH_results.json"
    monkeypatch.setenv("REPRO_BENCH_RESULTS", str(path))

    def set_run(run_id):
        monkeypatch.setattr(_record, "_RUN_ID", run_id)

    return path, set_run


def test_entries_accumulate_within_a_run(artifact):
    path, set_run = artifact
    set_run("run-a")
    _record.reset_results()
    _record.record(suite="s", model="m", engine="is", wall_time_s=0.1)
    _record.record(suite="s", model="m", engine="is", wall_time_s=0.2)

    entries = _current_run_entries()
    assert [e["wall_time_s"] for e in entries] == [0.1, 0.2]


def test_two_sessions_sharing_a_key_both_survive(artifact):
    """The regression: a second session no longer overwrites the first."""
    path, set_run = artifact
    set_run("run-a")
    _record.reset_results()
    _record.record(suite="shared", model="m", engine="is", wall_time_s=0.1)

    set_run("run-b")  # a second pytest session in the same CI workflow
    _record.reset_results()
    _record.record(suite="shared", model="m", engine="is", wall_time_s=0.9)

    data = json.loads(path.read_text())
    assert data["schema"] == bench_results.SCHEMA_VERSION
    assert [run["run"] for run in data["runs"]] == ["run-a", "run-b"]
    assert [e["wall_time_s"] for e in _all_entries()] == [0.1, 0.9]


def test_reset_restarts_only_the_current_run(artifact):
    path, set_run = artifact
    set_run("run-a")
    _record.reset_results()
    _record.record(suite="s", model="m", engine="is", wall_time_s=0.1)

    set_run("run-b")
    _record.reset_results()
    _record.record(suite="s", model="m", engine="is", wall_time_s=0.2)

    set_run("run-a")  # e.g. a pytest re-run within the same process
    _record.reset_results()
    assert _current_run_entries() == []
    assert [e["wall_time_s"] for e in _all_entries()] == [0.2]


def test_old_runs_are_pruned_beyond_the_cap(artifact):
    path, set_run = artifact
    for i in range(bench_results.MAX_RUNS + 3):
        set_run(f"run-{i}")
        _record.reset_results()
        _record.record(suite="s", model="m", engine="is", wall_time_s=float(i))
    data = json.loads(path.read_text())
    assert len(data["runs"]) == bench_results.MAX_RUNS
    assert data["runs"][-1]["run"] == f"run-{bench_results.MAX_RUNS + 2}"


def test_corrupt_artifact_is_replaced_not_fatal(artifact):
    path, set_run = artifact
    path.write_text("{ not json")
    set_run("run-a")
    _record.record(suite="s", model="m", engine="is", wall_time_s=0.1)
    assert len(_all_entries()) == 1


# ---------------------------------------------------------------------------
# Migration suite: schema 1, 2 and 3 artifacts all come out as schema 3,
# losslessly, through the one migrator in ``repro.bench.results``.
# ---------------------------------------------------------------------------


def test_schema_1_artifacts_migrate_without_losing_entries(artifact):
    path, set_run = artifact
    path.write_text(json.dumps({
        "schema": 1,
        "created_at": "2026-01-01T00:00:00",
        "entries": [{"suite": "old", "model": "m", "engine": "is",
                     "backend": "interp", "particles": 10, "wall_time_s": 1.0}],
    }))
    set_run("run-new")
    _record.record(suite="new", model="m", engine="is", wall_time_s=0.5)

    data = json.loads(path.read_text())
    assert data["schema"] == bench_results.SCHEMA_VERSION
    assert [run["run"] for run in data["runs"]] == ["legacy-schema-1", "run-new"]
    assert [e["suite"] for e in _all_entries()] == ["old", "new"]



def _random_entry(rng):
    """One schema-2 entry with randomized shape (optional fields, extras)."""
    entry = {
        "suite": rng.choice(["load", "compiled_backend", "fig2", "söndra-suite"]),
        "model": f"model-{rng.randrange(100)}",
        "engine": rng.choice(["is", "smc", "svi", "mh"]),
        "backend": rng.choice(["interp", "compiled"]),
        "particles": rng.choice([None, rng.randrange(1, 100000)]),
        "wall_time_s": rng.random() * 10,
    }
    if rng.random() < 0.5:
        entry["speedup"] = rng.random() * 5
        entry["baseline"] = "interp"
    if rng.random() < 0.5:
        entry["extra"] = {
            "groups": rng.randrange(10),
            "nested": {"p50_ms": rng.random(), "flags": [True, False, None]},
        }
    return entry


def _random_schema2_document(rng):
    return {
        "schema": 2,
        "created_at": "2026-0{}-01T00:00:00".format(rng.randrange(1, 10)),
        "runs": [
            {
                "run": f"session-{i}-{rng.randrange(10**6)}",
                "started_at": None if rng.random() < 0.2 else "2026-01-01T00:00:00",
                "entries": [_random_entry(rng) for _ in range(rng.randrange(0, 6))],
            }
            for i in range(rng.randrange(0, bench_results.MAX_RUNS))
        ],
    }


def test_schema_2_migration_round_trips_arbitrary_runs(artifact):
    """Property: for any schema-2 document, migrating to schema 3 preserves
    every prior session's run record byte-identically and only adds the
    ``curves`` map; appending a new entry afterwards clobbers nothing."""
    import copy
    import random

    path, set_run = artifact
    for seed in range(25):
        rng = random.Random(seed)
        document = _random_schema2_document(rng)
        original_runs = copy.deepcopy(document["runs"])
        path.write_text(json.dumps(document))

        set_run(f"migration-run-{seed}")
        _record.record(suite="post", model="m", engine="is", wall_time_s=0.1)

        data = json.loads(path.read_text())
        assert data["schema"] == bench_results.SCHEMA_VERSION
        assert data["curves"] == {}
        assert data["created_at"] == document["created_at"]
        # Every prior session survives untouched; the new run is appended.
        assert data["runs"][:-1] == original_runs
        assert data["runs"][-1]["run"] == f"migration-run-{seed}"
        assert [e["suite"] for e in data["runs"][-1]["entries"]] == ["post"]

        # The CLI's curve writer goes through the same document: runs stay.
        bench_results.record_curves(f"bench:v1:seed={seed}", {"passed": True})
        data = json.loads(path.read_text())
        assert data["runs"][:-1] == original_runs
        assert list(data["curves"]) == [f"bench:v1:seed={seed}"]


def test_schema_3_load_is_idempotent_and_preserves_curves(artifact):
    """Recorded curve sets survive harness writes (reset and record)."""
    path, set_run = artifact
    curves = {"bench:v1:seed=0": {"passed": True, "curves": [{"key": "weight/is"}]}}
    path.write_text(json.dumps({
        "schema": 3,
        "created_at": "2026-01-01T00:00:00",
        "runs": [{"run": "older", "started_at": None, "entries": []}],
        "curves": curves,
    }))
    set_run("run-a")
    _record.reset_results()
    _record.record(suite="s", model="m", engine="is", wall_time_s=0.1)

    data = json.loads(path.read_text())
    assert data["schema"] == bench_results.SCHEMA_VERSION
    assert data["curves"] == curves
    assert [run["run"] for run in data["runs"]] == ["older", "run-a"]
