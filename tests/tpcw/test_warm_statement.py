"""What one warm ``EXEC`` through a cache counts, and the spans it opens.

A procedure body runs in the ``EXEC`` statement's own execution context,
yet every count the harness derives its per-operation figures from must
read as if each body statement ran on its own: the ``EXEC`` and each body
statement are statements executed, each body ``SELECT`` reads its plan
from its slot (one plan-cache hit), the text is one parse-cache hit, and
the work counters see exactly the rows and seeks the plans touched.
"""

import pytest

from repro.obs import global_collector
from repro.tpcw import TPCWConfig, build_backend, enable_caching

GET_RELATED = "EXEC getRelated @i_id = @i_id"


@pytest.fixture(scope="module")
def cache():
    config = TPCWConfig(num_items=100, num_ebs=2, seed=7)
    backend, _ = build_backend(config)
    _, (cache,) = enable_caching(backend, ["cache1"], config)
    for i_id in (1, 2, 3):
        cache.execute(GET_RELATED, {"i_id": i_id})
    return cache


def counts(server):
    stats = server.statement_cache_stats()
    work = server.total_work
    return {
        "statements": server.statements_executed,
        "parse_hits": stats["parse_cache"]["hits"],
        "parse_misses": stats["parse_cache"]["misses"],
        "plan_hits": stats["plan_cache"]["hits"],
        "plan_misses": stats["plan_cache"]["misses"],
        "rows_processed": work.rows_processed,
        "rows_returned": work.rows_returned,
        "index_seeks": work.index_seeks,
        "work_parse_hits": work.parse_cache_hits,
        "binds": server.metrics.counter("engine.statement_binds").value,
    }


@pytest.mark.parametrize("i_id", [5, 17, 42])
def test_a_warm_exec_counts_the_call_and_its_body(cache, i_id):
    before = counts(cache.server)
    result = cache.execute(GET_RELATED, {"i_id": i_id})
    after = counts(cache.server)
    assert result.rows == [(i_id + 1, f"img/thumb{i_id + 1}.gif")]
    assert {name: after[name] - before[name] for name in after} == {
        "statements": 2,  # the EXEC and its one SELECT
        "parse_hits": 1,
        "parse_misses": 0,
        "plan_hits": 1,  # one per body SELECT
        "plan_misses": 0,
        # Exactly the plan's work: two index seeks, four row touches.
        "rows_processed": 4,
        "rows_returned": 1,
        "index_seeks": 2,
        "work_parse_hits": 1,
        "binds": 0,
    }


def test_a_traced_exec_records_batch_statement_procedure_statement(cache):
    server = cache.server
    global_collector().clear()
    with server.tracer.span("request") as root:
        cache.execute(GET_RELATED, {"i_id": 9})
    spans = sorted(global_collector().spans(), key=lambda span: span.span_id)
    assert [(span.name, span.attributes) for span in spans] == [
        ("request", {}),
        ("batch", {"sql": GET_RELATED}),
        ("statement", {"statement": "Execute"}),
        ("procedure", {"procedure": "getRelated"}),
        ("statement", {"statement": "Select"}),
    ]
    assert {span.trace_id for span in spans} == {root.trace_id}
    for parent, child in zip(spans, spans[1:]):
        assert child.parent_id == parent.span_id


def test_an_untraced_exec_records_no_span(cache):
    global_collector().clear()
    cache.execute(GET_RELATED, {"i_id": 9})
    assert len(global_collector()) == 0
