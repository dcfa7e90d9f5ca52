"""CLI entry point tests (python -m repro)."""

import pytest

from repro.__main__ import main


def test_demo_runs(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "ChoosePlan" in out
    assert "RENAMED" in out


def test_tpcw_runs(capsys):
    assert main(["tpcw"]) == 0
    out = capsys.readouterr().out
    assert "cache work" in out
    assert "backend work" in out


def test_metrics_emits_json_snapshot(capsys):
    import json

    assert main(["metrics"]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert snapshot["backend"]["metrics"]["counters"]
    assert snapshot["caches"][0]["server"] == "cache1"
    assert set(snapshot["replication"]["subscribers"]) == {"cache1"}
    for values in snapshot["replication"]["subscribers"].values():
        assert "lag_seconds" in values


def test_analyze_self_runs_clean(capsys):
    assert main(["analyze", "--self"]) == 0
    out = capsys.readouterr().out
    assert "self: 0 diagnostic(s)" in out
    assert "analyze: clean" in out


def test_analyze_workload_runs_clean(capsys):
    assert main(["analyze", "--workload"]) == 0
    out = capsys.readouterr().out
    assert "workload: 0 diagnostic(s)" in out
    assert "analyze: clean" in out


def test_analyze_workload_fails_on_a_procedure_the_engine_rejects(capsys, monkeypatch):
    from repro.analysis import cli

    build = cli._build_corpus

    def seeded():
        backend, cache, config = build()
        backend.execute(
            "CREATE PROCEDURE seededBad AS BEGIN SELECT i_title FROM item WHERE i_id = @nope END",
            database="tpcw",
        )
        return backend, cache, config

    monkeypatch.setattr(cli, "_build_corpus", seeded)
    assert main(["analyze", "--workload"]) == 1
    out = capsys.readouterr().out
    assert "must declare the scalar variable @nope at procedure seededBad" in out
    assert "workload: 1 diagnostic(s)" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])
