"""Self-tests of the harness (not part of tier-1):

    PYTHONPATH=src python -m pytest benchmarks/harness -q

They check the measuring instrument, not the system: order statistics,
calibration arithmetic, span accounting, determinism of the seeded inputs,
and the guards of ``--out`` and ``compare``.
"""

from __future__ import annotations

import json
import random
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.harness import calib, cli, compare, spans  # noqa: E402
from benchmarks.harness.loop import CHUNK, combine, timed_loop  # noqa: E402
from benchmarks.harness.stats import MIN_BEYOND, percentile, spread  # noqa: E402

# -- order statistics ---------------------------------------------------------


def test_percentile_refuses_a_thin_tail():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90  # exactly MIN_BEYOND samples beyond it
    with pytest.raises(ValueError, match="beyond"):
        percentile(samples, 91)
    with pytest.raises(ValueError, match="beyond"):
        percentile(list(range(MIN_BEYOND)), 50)


def test_spread_is_interquartile_range_over_median():
    assert spread([10.0]) == 0.0
    assert spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


# -- calibration --------------------------------------------------------------


class _Machine:
    """A synthetic clock on a machine whose speed changes over time:
    work costing ``cost`` seconds takes ``cost * slowdown(op index)``."""

    def __init__(self, slowdown):
        self.now = 0.0
        self.slowdown = slowdown
        self.position = 0

    def clock(self) -> float:
        return self.now

    def run_op(self, index: int) -> None:
        self.position = index
        self.now += 0.001 * (1 + index % 3) * self.slowdown(index)

    def tick(self) -> None:
        self.now += 0.0005 * self.slowdown(self.position)

    def slice_ms(self) -> float:
        seconds = calib.CALIB_REF_MS / 1000.0 * self.slowdown(self.position)
        self.now += seconds
        return seconds * 1000.0


def _run(machine: _Machine, count: int = 4 * CHUNK):
    return timed_loop(
        machine.run_op, count, machine.tick, 10, clock=machine.clock, slice_ms=machine.slice_ms
    )


def test_calibration_cancels_a_slowed_machine():
    steady = _run(_Machine(lambda index: 1.0))
    # Twice as slow throughout, and three times as slow for the second half.
    halved = _run(_Machine(lambda index: 2.0))
    stepped = _run(_Machine(lambda index: 1.0 if index < 2 * CHUNK else 3.0))
    assert halved.raw_seconds == pytest.approx(2 * steady.raw_seconds)
    assert halved.seconds == pytest.approx(steady.seconds)
    assert halved.latencies == pytest.approx(steady.latencies)
    # The step lands on a chunk boundary; only the slice that straddles it
    # (first op of the slow half sets its speed) is scaled by a mixed factor.
    assert stepped.chunk_seconds[0] == pytest.approx(steady.chunk_seconds[0])
    assert stepped.chunk_seconds[-1] == pytest.approx(steady.chunk_seconds[-1])
    assert stepped.latencies[-CHUNK:] == pytest.approx(steady.latencies[-CHUNK:])
    # With a steady reference machine, calibrated equals raw.
    assert steady.seconds == pytest.approx(steady.raw_seconds)


def test_loop_counts_failures_and_keeps_timing():
    def run_op(index: int) -> None:
        if index == 7:
            raise RuntimeError("boom")

    result = timed_loop(run_op, CHUNK, lambda: None, 10)
    assert result.failures == [(7, "RuntimeError: boom")]
    assert len(result.latencies) == CHUNK


def test_combine_is_the_per_element_median():
    assert combine([[1.0, 9.0], [2.0, 1.0], [3.0, 5.0]]) == [2.0, 5.0]


# -- spans ----------------------------------------------------------------------


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_children_including_a_server_thread_child():
    clock = _FakeClock()
    recorder = spans.SpanRecorder(clock=clock)

    def span(layer: str, before: float, inner=None, after: float = 0.0) -> None:
        opened = recorder.open_span()
        clock.now += before
        if inner is not None:
            inner()
        clock.now += after
        recorder.close_span(opened, layer)

    def on_server_thread() -> None:
        # The wire server's worker: no open span of its own, so its root
        # span must attach to the client's innermost open span (net).
        worker = threading.Thread(
            target=lambda: span("mtcache", 2.0, lambda: span("distributed", 5.0), 1.0)
        )
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    recorder.trace_id = 41
    span(spans.APP_LAYER, 1.0, lambda: span("net", 3.0, on_server_thread, 4.0), 0.5)
    span("replication", 7.0)  # a tick: parentless, like the op's root span

    result = spans.budget(recorder.spans)
    assert result.self_seconds == pytest.approx(
        {
            spans.APP_LAYER: 1.5,
            "net": 7.0,
            "mtcache": 3.0,
            "distributed": 5.0,
            "replication": 7.0,
        }
    )
    assert result.root_seconds == pytest.approx(16.5 + 7.0)
    assert sum(result.self_seconds.values()) == pytest.approx(result.root_seconds)
    assert (result.mtcache_statements, result.local_statements) == (1, 0)
    assert {trace for trace, *_ in recorder.spans} == {41}
    parents = {layer: parent for _, span_id, parent, layer, *_ in recorder.spans}
    ids = {layer: span_id for _, span_id, _, layer, *_ in recorder.spans}
    assert parents["mtcache"] == ids["net"]
    assert parents[spans.APP_LAYER] is None


def test_a_statement_with_no_remote_call_counts_as_local():
    clock = _FakeClock()
    recorder = spans.SpanRecorder(clock=clock)
    for went_remote in (False, True, False):
        outer = recorder.open_span()
        if went_remote:
            recorder.close_span(recorder.open_span(), "distributed")
        recorder.close_span(outer, "mtcache")
    result = spans.budget(recorder.spans)
    assert (result.mtcache_statements, result.local_statements) == (3, 2)


def test_entry_point_table_rejects_a_missing_method():
    missing = spans.EntryPoint(
        "client.pool", "repro.client.pool", "ConnectionPool", "no_such_method", spans.ALL
    )
    recorder = spans.SpanRecorder()
    with pytest.raises(spans.EntryPointError, match="no_such_method"):
        recorder.install([spans.ENTRY_POINTS[0], missing])
    # A failed install leaves nothing wrapped behind.
    from repro.client.connection import Cursor

    assert not hasattr(Cursor.execute, "__wrapped__")


def test_entry_point_table_rejects_zero_calls_where_calls_are_expected():
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        from repro.client.connection import Cursor

        assert hasattr(Cursor.execute, "__wrapped__")
        with pytest.raises(spans.EntryPointError, match="zero calls on shop_tcp"):
            recorder.check_expected("shop_tcp")
    finally:
        recorder.uninstall()
    assert not hasattr(Cursor.execute, "__wrapped__")


def test_every_workload_is_named_in_the_table_the_spec_and_the_sizes():
    from benchmarks.harness.workloads import WORKLOADS

    spec_names = [workload["name"] for workload in cli.load_spec()["workloads"]]
    assert sorted(spec_names) == sorted(WORKLOADS) == sorted(cli.OPS) == sorted(spans.ALL)


# -- determinism of the seeded inputs ---------------------------------------------


def _transcript(seed: int):
    """The statements the first operations of ``order_inproc`` issue."""
    from benchmarks.harness.workloads import WORKLOADS

    rig = WORKLOADS["order_inproc"]("order_inproc", seed, 120)
    statements = []
    original = rig.app._exec

    def recording(procedure, **params):
        statements.append((procedure, tuple(sorted(params.items()))))
        return original(procedure, **params)

    rig.app._exec = recording
    try:
        for index in range(120):
            rig.run(index)
    finally:
        rig.close()
    return rig.schedule, statements


def test_same_seed_same_operation_stream_other_seed_another():
    schedule_a, statements_a = _transcript(11)
    schedule_b, statements_b = _transcript(11)
    schedule_c, statements_c = _transcript(12)
    assert schedule_a == schedule_b and statements_a == statements_b
    assert statements_a, "the stream must actually issue statements"
    assert schedule_a != schedule_c and statements_a != statements_c
    # Stratified: the composition is the mix's, whatever the seed.
    assert sorted(schedule_a) == sorted(schedule_c)


def test_same_seed_same_row_counts():
    request = {"workload": "adhoc_partial", "seed": 3, "ops": 400, "traced": True}
    first, second = cli.run_child(request), cli.run_child(request)
    other = cli.run_child({**request, "seed": 4})
    for result in (first, second, other):
        assert result["failed"] == 0, result["problems"]
    for field, name in (("metrics", "backend_rows_per_op"), ("layers", "exec.rows_per_op")):
        assert first[field][name] == second[field][name]
        assert first[field][name] > 0
    assert first["writes"] == second["writes"] != other["writes"]


def test_stratified_keeps_the_mix_exact():
    from benchmarks.harness.workloads import stratified

    names = stratified({"a": 50.0, "b": 30.0, "c": 20.5}, 1000, random.Random(1))
    assert len(names) == 1000
    assert {name: names.count(name) for name in "abc"} == {"a": 498, "b": 298, "c": 204}


# -- --out and compare ---------------------------------------------------------------


def _report(mode: str, ops_s: float, spread_value: float = 0.01, fail_rate: float = 0.0):
    spec = cli.load_spec()
    end_to_end = {
        metric["name"]: {"value": 10.0, "unit": metric["unit"], "spread": 0.01}
        for metric in spec["end_to_end"]
    }
    end_to_end["ops_s"] = {"value": ops_s, "unit": "ops/cal-s", "spread": spread_value}
    end_to_end["fail_rate"] = {"value": fail_rate, "unit": "failed/attempted", "spread": 0.0}
    return {"mode": mode, "workloads": {"browse_inproc": {"end_to_end": end_to_end}}}


def test_out_refuses_to_replace_a_full_result_with_a_quick_one(tmp_path):
    path = tmp_path / "result.json"
    cli.write_report(_report("full", 100.0), path)
    with pytest.raises(cli.HarnessError, match="full result"):
        cli.write_report(_report("quick", 100.0), path)
    assert json.loads(path.read_text())["mode"] == "full"
    cli.write_report(_report("full", 101.0), path)  # full over full is fine
    quick = tmp_path / "quick.json"
    cli.write_report(_report("quick", 100.0), quick)
    cli.write_report(_report("quick", 100.0), quick)


def _statuses(before, after):
    rows = compare.compare(before, after, cli.load_spec())
    return {row["metric"]: row["status"] for row in rows}


def test_compare_judges_by_the_bound_and_by_direction():
    bound = next(m["bound"] for m in cli.load_spec()["end_to_end"] if m["name"] == "ops_s")
    inside, outside = 100.0 * (1 - bound / 2), 100.0 * (1 - bound * 1.5)
    baseline = _report("full", 100.0)
    assert _statuses(baseline, _report("full", inside))["ops_s"] == "ok"
    assert _statuses(baseline, _report("full", outside))["ops_s"] == "regressed"
    assert _statuses(baseline, _report("full", 150.0))["ops_s"] == "ok"  # higher is better
    noisy = _report("full", outside, spread_value=bound * 2)
    assert _statuses(baseline, noisy)["ops_s"] == "unresolved"
    assert _statuses(baseline, _report("full", 100.0, fail_rate=0.001))["fail_rate"] == "regressed"


def test_compare_refuses_to_mix_modes_and_exits_nonzero_on_a_regression(tmp_path, capsys):
    with pytest.raises(ValueError, match="quick"):
        compare.compare(_report("full", 100.0), _report("quick", 100.0), cli.load_spec())
    paths = []
    for index, report in enumerate((_report("full", 100.0), _report("full", 50.0))):
        paths.append(tmp_path / f"{index}.json")
        paths[-1].write_text(json.dumps(report))
    assert cli.main(["compare", str(paths[0]), str(paths[1])]) == 1
    assert cli.main(["compare", str(paths[0]), str(paths[0])]) == 0
    quick = tmp_path / "quick.json"
    quick.write_text(json.dumps(_report("quick", 100.0)))
    assert cli.main(["compare", str(paths[0]), str(quick)]) == 2
    assert "1 regressed" in capsys.readouterr().out
