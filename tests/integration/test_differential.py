"""Differential testing: optimizer plans vs. the naive reference evaluator.

The optimizer is free to pick any plan — index seeks, hash or index-lookup
joins, aggregate rewrites, cached views, dynamic plans, full pushdown —
but its results must always equal brute-force evaluation. Hypothesis
generates structured queries over the shop schema and checks:

1. backend execution == reference evaluation;
2. cache-server execution == reference evaluation (after replication
   sync), i.e. the transparency invariant under every generated query.

Each query runs twice per tier: as text — the literal-lifted template and
its dynamic plan — and as ``execute_statement(parse(text))``, the unlifted
statement and its static plan. Both must equal the reference, and the
binding each tier holds for the text must equal a fresh derivation.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, HealthCheck
from hypothesis import strategies as st

from repro import MTCacheDeployment
from repro.exec.reference import evaluate_select
from repro.sql import parse

from tests.conftest import assert_bound_as_fresh, make_shop_backend

# ---------------------------------------------------------------------------
# Environment (built once; queries are read-only)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def env():
    backend = make_shop_backend(customers=80, orders=160)
    deployment = MTCacheDeployment(backend, "shop")
    cache = deployment.add_cache_server("diff_cache")
    cache.create_cached_view(
        "CREATE CACHED VIEW dv_cust AS "
        "SELECT cid, cname, segment FROM customer WHERE cid <= 60"
    )
    cache.create_cached_view(
        "CREATE CACHED VIEW dv_orders AS SELECT oid, o_cid, total FROM orders"
    )
    deployment.sync()
    return backend, cache


# ---------------------------------------------------------------------------
# Query generator
# ---------------------------------------------------------------------------

CUSTOMER_COLUMNS = ["cid", "cname", "segment"]
ORDER_COLUMNS = ["oid", "o_cid", "total", "status"]

comparisons = st.sampled_from(["=", "<", "<=", ">", ">=", "<>"])


@st.composite
def predicates(draw, alias, columns_numeric, columns_text):
    kind = draw(st.integers(0, 4))
    if kind == 0:
        column = draw(st.sampled_from(columns_numeric))
        op = draw(comparisons)
        value = draw(st.integers(1, 200))
        return f"{alias}.{column} {op} {value}"
    if kind == 1:
        column = draw(st.sampled_from(columns_numeric))
        low = draw(st.integers(1, 100))
        high = low + draw(st.integers(0, 100))
        return f"{alias}.{column} BETWEEN {low} AND {high}"
    if kind == 2:
        column = draw(st.sampled_from(columns_text))
        value = draw(st.sampled_from(["'gold'", "'base'", "'OPEN'", "'cust7'"]))
        return f"{alias}.{column} = {value}"
    if kind == 3:
        column = draw(st.sampled_from(columns_numeric))
        values = draw(st.lists(st.integers(1, 120), min_size=1, max_size=4))
        return f"{alias}.{column} IN ({', '.join(map(str, values))})"
    column = draw(st.sampled_from(columns_text))
    return f"{alias}.{column} LIKE '%{draw(st.sampled_from(['1', '5', 'gold', 'cust']))}%'"


@st.composite
def single_table_queries(draw):
    projection = draw(
        st.sampled_from(
            [
                "cid, cname",
                "cid, segment",
                "cname, segment, cid",
                "cid",
            ]
        )
    )
    where = ""
    if draw(st.booleans()):
        conjuncts = draw(
            st.lists(
                predicates("customer", ["cid"], ["cname", "segment"]),
                min_size=1,
                max_size=3,
            )
        )
        where = " WHERE " + " AND ".join(conjuncts)
    order = ""
    if draw(st.booleans()):
        order = " ORDER BY cid" + (" DESC" if draw(st.booleans()) else "")
    top = ""
    if order and draw(st.booleans()):
        top = f"TOP {draw(st.integers(1, 30))} "
    distinct = "DISTINCT " if draw(st.booleans()) and not top else ""
    return f"SELECT {top}{distinct}{projection} FROM customer{where}{order}"


@st.composite
def join_queries(draw):
    conjuncts = [
        draw(predicates("c", ["cid"], ["segment"])),
    ]
    if draw(st.booleans()):
        conjuncts.append(draw(predicates("o", ["oid", "o_cid"], ["status"])))
    where = " WHERE " + " AND ".join(conjuncts)
    order = " ORDER BY c.cid, o.oid"
    return (
        "SELECT c.cid, c.segment, o.oid, o.total FROM customer c "
        "JOIN orders o ON o.o_cid = c.cid" + where + order
    )


@st.composite
def derived_table_queries(draw):
    inner_where = ""
    if draw(st.booleans()):
        inner_where = f" WHERE cid <= {draw(st.integers(1, 90))}"
    outer_where = ""
    if draw(st.booleans()):
        op = draw(comparisons)
        outer_where = f" WHERE d.cid {op} {draw(st.integers(1, 90))}"
    aggregate = draw(st.booleans())
    projection = "COUNT(*)" if aggregate else "d.cid, d.segment"
    order = "" if aggregate else " ORDER BY d.cid"
    return (
        f"SELECT {projection} FROM "
        f"(SELECT cid, segment FROM customer{inner_where}) AS d"
        f"{outer_where}{order}"
    )


@st.composite
def aggregate_queries(draw):
    group_column = draw(st.sampled_from(["segment", "cname"]))
    aggregate = draw(
        st.sampled_from(
            ["COUNT(*)", "SUM(cid)", "MIN(cid)", "MAX(cid)", "AVG(cid)", "COUNT(DISTINCT segment)"]
        )
    )
    having = ""
    if draw(st.booleans()):
        having = f" HAVING COUNT(*) > {draw(st.integers(0, 5))}"
    where = ""
    if draw(st.booleans()):
        where = f" WHERE cid <= {draw(st.integers(1, 150))}"
    return (
        f"SELECT {group_column}, {aggregate} AS agg FROM customer{where} "
        f"GROUP BY {group_column}{having} ORDER BY {group_column}"
    )


def normalize(rows, ordered):
    if ordered:
        return list(rows)
    return Counter(rows)


def check(env, sql):
    backend, cache = env
    statement = parse(sql)
    ordered = bool(statement.order_by)
    shop = backend.database("shop")
    _, expected = evaluate_select(shop, statement)
    for rows in (
        backend.execute(sql, database="shop").rows,
        backend.execute_statement(statement, database=shop).rows,
        cache.execute(sql).rows,
        cache.server.execute_statement(statement, database=cache.database).rows,
    ):
        assert normalize(rows, ordered) == normalize(expected, ordered), sql
    # The bindings those executions ran under are what a fresh derivation
    # gives: lock plan and named objects, on both tiers.
    assert assert_bound_as_fresh(backend, shop, sql) == 1
    assert assert_bound_as_fresh(cache.server, cache.database, sql) == 1


SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@SETTINGS
@given(sql=single_table_queries())
def test_property_single_table(env, sql):
    check(env, sql)


@SETTINGS
@given(sql=join_queries())
def test_property_joins(env, sql):
    check(env, sql)


@SETTINGS
@given(sql=aggregate_queries())
def test_property_aggregates(env, sql):
    check(env, sql)


@SETTINGS
@given(sql=derived_table_queries())
def test_property_derived_tables(env, sql):
    check(env, sql)


@SETTINGS
@given(value=st.one_of(st.none(), st.integers(-10, 250)))
def test_property_dynamic_plan_parameter_sweep(env, value):
    """Every parameter value must produce identical results on the cache
    (which uses a dynamic plan over dv_cust) and the backend."""
    backend, cache = env
    sql = "SELECT cid, cname, segment FROM customer WHERE cid <= @v ORDER BY cid"
    backend_rows = backend.execute(sql, params={"v": value}, database="shop").rows
    cache_rows = cache.execute(sql, params={"v": value}).rows
    assert cache_rows == backend_rows


FIXED_CASES = [
    # Hand-picked regressions / tricky shapes.
    "SELECT COUNT(*) FROM customer WHERE cid IN (SELECT o_cid FROM orders WHERE total > 100)",
    "SELECT c.segment, COUNT(*) AS n FROM customer c GROUP BY c.segment ORDER BY n DESC, c.segment",
    "SELECT TOP 7 cid FROM customer WHERE segment = 'gold' ORDER BY cid DESC",
    "SELECT DISTINCT segment FROM customer WHERE cid BETWEEN 3 AND 70",
    "SELECT cname FROM customer WHERE cname LIKE 'cust1_'",
    "SELECT o.status, SUM(o.total) AS t FROM orders o GROUP BY o.status HAVING SUM(o.total) > 10 ORDER BY o.status",
    "SELECT c.cid, o.total FROM customer c LEFT JOIN orders o ON c.cid = o.oid ORDER BY c.cid, o.total",
    "SELECT COUNT(*) FROM (SELECT cid FROM customer WHERE segment = 'gold') AS g",
    # Outer predicate over a derived table (regression: the planner once
    # dropped conjuncts pushed onto derived leaves).
    "SELECT COUNT(*) FROM (SELECT cid FROM customer WHERE segment = 'gold') AS g WHERE g.cid <= 30",
    "SELECT d.cid FROM (SELECT cid, segment FROM customer) AS d WHERE d.segment = 'gold' AND d.cid <= 20 ORDER BY d.cid",
    "SELECT CASE WHEN cid < 10 THEN 'low' ELSE 'high' END AS bucket, COUNT(*) AS n "
    "FROM customer GROUP BY CASE WHEN cid < 10 THEN 'low' ELSE 'high' END ORDER BY bucket",
    "SELECT MAX(cid) FROM customer",
    "SELECT MIN(total), MAX(total), COUNT(*) FROM orders WHERE status = 'OPEN'",
]


@pytest.mark.parametrize("sql", FIXED_CASES)
def test_fixed_differential_cases(env, sql):
    check(env, sql)
