"""Every seeded SQL defect is caught by the engine itself: each case runs
on a cache server and on the backend it shadows, and the engine raises
(the workload pass of ``analyze`` reports exactly what it raises). The
clean corpus and the generated scripts bind, plan and execute cleanly.
``ENGINE_ERRORS`` maps each former lint rule id to the class the engine
raises for it.
"""

from __future__ import annotations

import pytest

from repro import Server
from repro.analysis.cli import check_workload
from repro.errors import BindError, CatalogError, ExecutionError, ParseError, TypeCheckError
from repro.mtcache.scripts import generate_shadow_script
from repro.tpcw.config import TPCWConfig
from repro.tpcw.setup import CACHED_VIEW_DDL, DATABASE_NAME, build_backend, enable_caching

ENGINE_ERRORS = {
    "unknown-table": BindError,
    "unknown-column": BindError,
    "ambiguous-column": BindError,
    # Inside a procedure body, at its first EXEC; a top-level @name is a
    # client parameter.
    "undeclared-parameter": BindError,
    "insert-arity": ExecutionError,
    # Comparisons and arithmetic when the statement is planned or its DML
    # compiled; an INSERT/UPDATE value when it is coerced to its column.
    "type-mismatch": TypeCheckError,
    # Names the non-updatable cached view.
    "dml-target": BindError,
    "exec-args": BindError,
    "unknown-object": CatalogError,
    "parse": ParseError,
}


@pytest.fixture(scope="module")
def tpcw():
    backend, config = build_backend(TPCWConfig(num_items=20, num_ebs=4))
    deployment, caches = enable_caching(backend, ["cache1"], config)
    deployment.sync()
    return backend, caches[0]


# -- The clean corpus binds, plans and executes ------------------------------


def test_tpcw_backend_procedures_lint_clean(tpcw):
    backend, _ = tpcw
    assert check_workload(backend, backend.databases[DATABASE_NAME]) == []


def test_tpcw_cache_procedures_lint_clean(tpcw):
    _, cache = tpcw
    assert check_workload(cache.server, cache.database) == []


def test_cached_view_ddl_lints_clean(tpcw):
    _, cache = tpcw
    fresh = cache.deployment.add_cache_server("cache_ddl")
    for ddl in CACHED_VIEW_DDL:
        fresh.execute(ddl)
    assert {name.lower() for name in fresh.subscriptions} == {
        name.lower() for name in cache.subscriptions
    }


def test_generated_deployment_scripts_lint_clean(tpcw):
    """The shadow script runs against an initially empty shadow database
    (grants are copied with the permission table, not scripted)."""
    backend, _ = tpcw
    catalog = backend.databases[DATABASE_NAME].catalog
    scratch = Server("scratch")
    scratch.create_database(DATABASE_NAME)
    scratch.execute(generate_shadow_script(catalog))
    shadow = scratch.database(DATABASE_NAME).catalog
    assert set(shadow.tables) == set(catalog.tables)
    assert set(shadow.indexes) == set(catalog.indexes)


def test_shop_fixture_lints_clean(cache):
    backend = cache.deployment.backend
    backend.execute(
        "CREATE PROCEDURE segmentOf @cid INT AS "
        "BEGIN SELECT segment FROM customer WHERE cid = @cid END",
        database="shop",
    )
    cache.copy_procedure("segmentOf")
    assert check_workload(backend, backend.database("shop")) == []
    assert check_workload(cache.server, cache.database) == []


# -- Seeded defects: the engine raises, on the cache and on the backend ------


def _raises(cache, rule, *statements, targets=("cache", "backend")):
    """Run ``statements`` in order on each target; the last must raise
    the class ``rule`` maps to. Returns the raised errors."""
    backend = cache.deployment.backend
    run = {
        "cache": cache.execute,
        "backend": lambda sql: backend.execute(sql, database="shop"),
    }
    raised = []
    for target in targets:
        for sql in statements[:-1]:
            run[target](sql)
        with pytest.raises(ENGINE_ERRORS[rule]) as error:
            run[target](statements[-1])
        raised.append(error.value)
    return raised


def _runs(cache, *statements):
    for sql in statements:
        cache.execute(sql)
        cache.deployment.backend.execute(sql, database="shop")


def test_unknown_table(cache):
    _raises(cache, "unknown-table", "SELECT x FROM no_such_table")


def test_unknown_column(cache):
    _raises(cache, "unknown-column", "SELECT no_such_column FROM customer")


def test_unknown_qualified_column(cache):
    _raises(cache, "unknown-column", "SELECT c.nope FROM customer c")


def test_one_unknown_table_does_not_cascade(cache):
    """An unknown table is reported as the table, not as its columns."""
    for error in _raises(cache, "unknown-table", "SELECT a, b, c FROM no_such_table WHERE d = 1"):
        assert "no_such_table" in str(error)


def test_ambiguous_column(cache):
    _raises(
        cache,
        "ambiguous-column",
        "SELECT cid FROM customer c JOIN Cust1000 k ON c.cid = k.cid",
        targets=("cache",),
    )


def test_order_by_may_use_select_alias(cache):
    _runs(cache, "SELECT segment, COUNT(*) AS n FROM customer GROUP BY segment ORDER BY n DESC")


def test_undeclared_parameter(cache):
    for error in _raises(
        cache,
        "undeclared-parameter",
        "CREATE PROCEDURE pu AS BEGIN SELECT cid FROM customer WHERE cid = @nope END",
        "EXEC pu",
    ):
        assert "@nope" in str(error)


def test_declared_parameters_accepted(cache):
    _runs(
        cache,
        """
        CREATE PROCEDURE p1 @cid INT AS
        BEGIN
            DECLARE @limit INT = 10
            SELECT cname FROM customer WHERE cid = @cid AND cid < @limit
        END
        """,
        "EXEC p1 @cid = 3",
    )


def test_insert_arity(cache):
    _raises(cache, "insert-arity", "INSERT INTO customer (cid, cname) VALUES (1, 'a', 'extra')")


def test_insert_select_arity(cache):
    _raises(cache, "insert-arity", "INSERT INTO customer (cid, cname) SELECT cid FROM customer")


def test_insert_unknown_column(cache):
    _raises(cache, "unknown-column", "INSERT INTO customer (cid, nope) VALUES (1, 'a')")


def test_insert_type_mismatch(cache):
    _raises(cache, "type-mismatch", "INSERT INTO customer (cid, cname) VALUES ('text', 'a')")


def test_comparison_type_mismatch(cache):
    _raises(cache, "type-mismatch", "SELECT cid FROM customer WHERE cname > 5")


def test_numeric_widening_is_not_a_mismatch(cache):
    _runs(cache, "SELECT cid FROM customer WHERE cid < 10.5")


def test_update_against_cached_article(cache):
    (error,) = _raises(
        cache, "dml-target", "UPDATE Cust1000 SET cname = 'x' WHERE cid = 1", targets=("cache",)
    )
    assert "non-updatable cached view 'Cust1000'" in str(error)


def test_delete_against_cached_article(cache):
    _raises(cache, "dml-target", "DELETE FROM Cust1000 WHERE cid = 1", targets=("cache",))


def test_update_unknown_column(cache):
    _raises(cache, "unknown-column", "UPDATE customer SET nope = 'x' WHERE cid = 1")


def test_update_type_mismatch(cache):
    _raises(cache, "type-mismatch", "UPDATE customer SET cid = 'text' WHERE cid = 1")


def test_exec_unknown_argument(cache):
    for error in _raises(
        cache,
        "exec-args",
        "CREATE PROCEDURE p2 @cid INT AS BEGIN SELECT cname FROM customer WHERE cid = @cid END",
        "EXEC p2 @nope = 1",
    ):
        assert "@nope" in str(error)


def test_exec_missing_required_argument(cache):
    _raises(
        cache,
        "exec-args",
        "CREATE PROCEDURE p3 @cid INT AS BEGIN SELECT cname FROM customer WHERE cid = @cid END",
        "EXEC p3",
    )


def test_exec_with_default_is_clean(cache):
    _runs(
        cache,
        "CREATE PROCEDURE p4 @cid INT = 1 AS BEGIN SELECT cname FROM customer WHERE cid = @cid END",
        "EXEC p4",
    )


def test_grant_on_unknown_object(cache):
    _raises(cache, "unknown-object", "GRANT SELECT ON no_such_object TO app")


def test_create_index_on_unknown_table(cache):
    _raises(cache, "unknown-object", "CREATE INDEX ix_x ON no_such_table (a)")


def test_create_index_on_unknown_column(cache):
    _raises(cache, "unknown-column", "CREATE INDEX ix_x ON customer (nope)")


def test_subqueries_are_bound(cache):
    _raises(
        cache,
        "unknown-column",
        "SELECT cname FROM customer WHERE cid IN (SELECT nope FROM orders)",
    )


def test_derived_table_columns_resolve(cache):
    _runs(
        cache,
        "SELECT t.n FROM (SELECT segment, COUNT(*) AS n FROM customer GROUP BY segment) t",
    )


def test_overlay_create_table_then_index(cache):
    """DDL earlier in a batch satisfies later statements of it."""
    _runs(
        cache,
        """
        CREATE TABLE t_new (a INT PRIMARY KEY, b VARCHAR(10));
        CREATE INDEX ix_t_new_b ON t_new (b);
        INSERT INTO t_new (a, b) VALUES (1, 'x')
        """,
    )


def test_unparsable_script_reports_parse(cache):
    _raises(cache, "parse", "SELEC cid FORM customer")
