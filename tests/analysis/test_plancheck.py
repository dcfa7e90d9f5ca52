"""Plan-invariant verifier: clean plans verify, checked execution wires up."""

from __future__ import annotations

import pytest

from repro.analysis import check_plan, verify_plan
from repro.engine import Server
from repro.errors import AnalysisError
from repro.exec.operators import RemoteQueryOp, SeqScanOp, UnionAllOp
from repro.sql import parse_statements


def _plan(server, database, sql):
    """A fresh (uncached) plan, safe for tests to mutate."""
    statement = parse_statements(sql)[0]
    return server.optimizer_for(database).plan_select(statement)


def test_clean_local_plan_verifies(backend):
    database = backend.database("shop")
    planned = _plan(backend, database, "SELECT cid, cname FROM customer WHERE cid = 7")
    assert verify_plan(planned, database=database) == []


def test_clean_join_plan_verifies(backend):
    database = backend.database("shop")
    planned = _plan(
        backend,
        database,
        "SELECT c.cname, o.total FROM customer c JOIN orders o ON c.cid = o.o_cid "
        "WHERE c.segment = 'gold'",
    )
    assert verify_plan(planned, database=database) == []


def test_clean_aggregate_plan_verifies(backend):
    database = backend.database("shop")
    planned = _plan(
        backend,
        database,
        "SELECT segment, COUNT(*) AS n FROM customer GROUP BY segment ORDER BY n DESC",
    )
    assert verify_plan(planned, database=database) == []


def test_choose_plan_verifies_clean(cache):
    database = cache.database
    planned = _plan(
        cache.server, database, "SELECT cid, cname FROM customer WHERE cid <= @cid"
    )
    assert any(
        isinstance(op, UnionAllOp) and op.choose_plan for op in planned.root.walk()
    ), "expected a dynamic ChoosePlan for the parameterized query"
    assert verify_plan(planned, database=database, params={"cid": 50}) == []


def test_remote_query_plan_verifies_clean(cache):
    database = cache.database
    # Orders is not cached: the whole statement ships to the backend.
    planned = _plan(cache.server, database, "SELECT oid, total FROM orders WHERE oid = 3")
    assert any(isinstance(op, RemoteQueryOp) for op in planned.root.walk())
    assert verify_plan(planned, database=database) == []


def test_unbound_required_parameter_reported(backend):
    database = backend.database("shop")
    planned = _plan(backend, database, "SELECT cid FROM customer WHERE cid = @cid")
    assert planned.required_parameters == frozenset({"cid"})
    diagnostics = verify_plan(planned, database=database, params={})
    assert [d.rule for d in diagnostics] == ["plan-params"]
    # With the binding supplied there is nothing to report.
    assert verify_plan(planned, database=database, params={"cid": 1}) == []


def test_check_plan_raises_analysis_error(backend):
    database = backend.database("shop")
    bad = SeqScanOp(database.catalog.tables["customer"].schema, "no_such_table")
    with pytest.raises(AnalysisError) as excinfo:
        check_plan(bad, database=database)
    assert excinfo.value.rule == "catalog"


def test_servers_default_checked_from_environment(monkeypatch):
    monkeypatch.setenv("REPRO_CHECKED_PLANS", "0")
    assert Server("plain").checked_plans is False
    monkeypatch.setenv("REPRO_CHECKED_PLANS", "1")
    assert Server("checked").checked_plans is True
    # Explicit argument wins over the environment.
    assert Server("forced-off", checked_plans=False).checked_plans is False


def test_cache_servers_always_checked(cache):
    assert cache.server.checked_plans is True


def test_checked_execution_counts_verified_plans(cache):
    before = cache.server.metrics.counter("analysis.plans_checked").value
    cache.execute("SELECT cid FROM Cust1000 WHERE cid = 12")
    after = cache.server.metrics.counter("analysis.plans_checked").value
    assert after > before
