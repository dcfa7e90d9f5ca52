"""A cached view does not re-check what its own predicate guarantees.

Every row a view stores satisfies the view's constant predicate, so when
the view answers a leaf, a constant query conjunct that predicate implies
is not evaluated again per row (a shard's slice conjunct is the case that
matters: ``i_id BETWEEN lo AND hi`` over a view sliced on exactly that).
Parameterized conjuncts, constants the view does not imply, and the
remote/base branch of a ChoosePlan keep their filters.
"""

from __future__ import annotations

import pytest

from repro import MTCacheDeployment
from repro.analysis.plancheck import verify_plan
from repro.exec.expressions import evaluate
from repro.exec.operators import FilterOp, RemoteQueryOp
from repro.sharding import ShardedDeployment
from repro.sharding.routing import decide
from repro.sql import AS_WRITTEN, parse
from repro.tpcw import TPCWConfig

from tests.conftest import make_shop_backend


class _Context:
    def __init__(self, params):
        self.params = params

    def param(self, name):
        return self.params.get(name)


def _row_filters(planned):
    return [
        op for op in planned.root.walk() if isinstance(op, FilterOp) and op.predicate is not None
    ]


def _passes(filter_op, params=None, **values) -> bool:
    """Does the filter keep a row with these column values?"""
    row = [None] * len(filter_op.schema)
    for name, value in values.items():
        row[filter_op.schema.resolve(name)] = value
    return evaluate(filter_op.predicate, _Context(params or {}), tuple(row)) is True


@pytest.fixture(scope="module")
def shop():
    backend = make_shop_backend()
    deployment = MTCacheDeployment(backend, "shop")
    cache = deployment.add_cache_server("cache1")
    cache.create_cached_view(
        "CREATE CACHED VIEW CustLow AS SELECT cid, cname, caddress FROM customer "
        "WHERE cid <= 100"
    )
    cache.create_cached_view(
        "CREATE CACHED VIEW GoldCust AS SELECT cid, cname, segment FROM customer "
        "WHERE segment = 'gold'"
    )
    return backend, deployment, cache


def _same_answer(backend, cache, sql, params=None):
    expected = backend.execute(sql, params, database="shop").rows
    assert sorted(cache.execute(sql, params).rows) == sorted(expected)


def test_a_shards_slice_statement_keeps_no_key_filter():
    sharded = ShardedDeployment(config=TPCWConfig(num_items=60, num_ebs=2, seed=7), shards=2)
    catalog = sharded.deployment.backend_database.catalog
    route = decide(parse("EXEC doTitleSearch @title = @title"), sharded.policy, catalog)
    assert route.scatter is not None
    for name, shard in sharded.shards.items():
        low, high = sharded.partitioner.slice(name)
        planned = shard.plan(route.scatter.shard_sql(low, high))
        assert not verify_plan(planned, shard.database)
        assert not any(isinstance(op, RemoteQueryOp) for op in planned.root.walk())
        (title_filter,) = _row_filters(planned)
        # Only the LIKE is left: a key far outside the slice passes, a
        # title the pattern rejects does not.
        params = {"title": "%RIVER%"}
        assert _passes(title_filter, params, i_id=high + 1000, i_title="A RIVER")
        assert _passes(title_filter, params, i_id=low - 1000, i_title="RIVER")
        assert not _passes(title_filter, params, i_id=low, i_title="A STONE")


def test_implied_constants_are_dropped_and_others_kept(shop):
    backend, _, cache = shop
    # cid <= 100 is the view's own predicate; the LIKE is all that is left.
    sql = "SELECT cid, cname FROM customer WHERE cid <= 100 AND cname LIKE 'cust1%'"
    (only,) = _row_filters(cache.plan(sql))
    assert _passes(only, cid=500, cname="cust1x")
    # cid <= 50 is narrower than the view: the view does not imply it.
    sql = "SELECT cid, cname FROM customer WHERE cid <= 50 AND cid <= 100"
    (narrower,) = _row_filters(cache.plan(sql))
    assert not _passes(narrower, cid=75)
    assert _passes(narrower, cid=50)
    for text in (
        "SELECT cid, cname FROM customer WHERE cid <= 100 AND cname LIKE 'cust1%'",
        "SELECT cid, cname FROM customer WHERE cid <= 50 AND cid <= 100",
        "SELECT cid, cname FROM customer WHERE cid BETWEEN 1 AND 100",
    ):
        assert not verify_plan(cache.plan(text), cache.database)
        _same_answer(backend, cache, AS_WRITTEN + text)


def test_parameterized_conjuncts_and_the_base_branch_keep_their_filters(shop):
    backend, _, cache = shop
    sql = "SELECT cid, cname FROM customer WHERE cid <= @cid"
    planned = cache.plan(sql)
    assert planned.is_dynamic
    assert not verify_plan(planned, cache.database)
    (view_filter,) = _row_filters(planned)
    assert not _passes(view_filter, {"cid": 40}, cid=41)
    assert _passes(view_filter, {"cid": 40}, cid=40)
    (remote,) = [op for op in planned.root.walk() if isinstance(op, RemoteQueryOp)]
    assert "cid <= @cid" in remote.sql_text
    for cid in (40, 100, 150):
        _same_answer(backend, cache, sql, {"cid": cid})


def test_a_row_updated_out_of_the_view_range_leaves_the_view(shop):
    """The invariant the rule rests on: after an UPDATE moves a row out of
    (or into) a predicated view and the tier syncs, the view holds exactly
    the rows its predicate selects, so the unfiltered scan is the answer."""
    backend, deployment, cache = shop
    text = "SELECT cid, cname FROM customer WHERE segment = 'gold'"
    sql = AS_WRITTEN + text
    (gold,) = _row_filters(cache.plan(text + " AND cid > 0"))
    assert _passes(gold, segment="base", cid=1)  # segment = 'gold' is not re-checked
    _same_answer(backend, cache, sql)
    backend.execute("UPDATE customer SET segment = 'base' WHERE cid IN (3, 6, 9)", database="shop")
    backend.execute("UPDATE customer SET segment = 'gold' WHERE cid IN (1, 2)", database="shop")
    deployment.sync()
    rows = cache.execute(sql).rows
    assert {3, 6, 9}.isdisjoint(cid for cid, _ in rows)
    assert {1, 2} <= {cid for cid, _ in rows}
    _same_answer(backend, cache, sql)
