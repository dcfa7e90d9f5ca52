"""The row estimate of a leaf: an ANALYZE of an empty table is no
statistics, and a leaf holds at least the rows its storage holds now or its
analyzed rows — the 1000-row default without statistics. A cart-style
table analyzed while empty, or compiled while nearly empty, must still be
sought by its key once it fills."""

import pytest

from repro import MTCacheDeployment, Server
from repro.exec.operators import IndexSeekOp, RemoteQueryOp, SeqScanOp
from repro.sql import parse

CART_LINE = (
    "CREATE TABLE cart_line (cart INT NOT NULL, item INT NOT NULL, qty INT, "
    "PRIMARY KEY (cart, item))"
)
#: 40 carts of 5 lines.
LINES = [(cart, item, cart + item) for cart in range(1, 41) for item in range(1, 6)]

BY_KEY = "SELECT qty FROM cart_line WHERE cart = @c AND item = @i"
BY_CART = "SELECT item, qty FROM cart_line WHERE cart = @c"
BY_QTY = "SELECT item FROM cart_line WHERE qty = @q"


def cart_backend(analyze_empty: bool = True) -> Server:
    """``cart_line`` ANALYZEd while empty (optionally), then filled."""
    server = Server("backend")
    server.create_database("shop")
    server.execute(CART_LINE, database="shop")
    database = server.database("shop")
    if analyze_empty:
        database.analyze_all()
    database.bulk_load("cart_line", LINES)
    return server


def plan(server, database, sql):
    return server.plan_select(parse(sql), database, cache_key=sql)


def ops_in(planned, op_type):
    return [node for node in planned.root.walk() if isinstance(node, op_type)]


class TestEmptyAnalyzeIsNoStatistics:
    def test_stats_for_hides_a_zero_row_analyze(self):
        database = cart_backend().database("shop")
        assert database.statistics["cart_line"].row_count == 0
        assert database.stats_for("cart_line") is None

    @pytest.mark.parametrize("sql", [BY_KEY, BY_CART], ids=["pk", "pk-prefix"])
    def test_filled_table_seeks_its_primary_key(self, sql):
        server = cart_backend()
        planned = plan(server, server.database("shop"), sql)
        assert ops_in(planned, IndexSeekOp)
        assert not ops_in(planned, SeqScanOp)


class TestCachedPlanOfANearlyEmptyTable:
    def test_plan_compiled_at_one_row_seeks_after_the_table_fills(self):
        server = Server("backend")
        server.create_database("shop")
        server.execute(CART_LINE, database="shop")
        database = server.database("shop")
        database.bulk_load("cart_line", LINES[:1])
        first = server.execute(BY_CART, params={"c": 1}, database="shop")
        assert len(first.rows) == 1

        database.bulk_load("cart_line", LINES[1:])
        calls = 10
        before = server.total_work.rows_processed
        for cart in range(1, calls + 1):
            rows = server.execute(BY_CART, params={"c": cart}, database="shop").rows
            assert len(rows) == 5
        # A few operators each touch the cart's 5 lines; one scan alone
        # would touch all 200.
        per_call = (server.total_work.rows_processed - before) / calls
        assert per_call < len(LINES) / 4, per_call

        roots = [planned.root for _, planned in server._plan_cache.values()]
        assert roots
        assert not [node for root in roots for node in root.walk() if isinstance(node, SeqScanOp)]


class TestAdoptedEmptyStatistics:
    def test_a_cache_adopts_no_statistics_for_a_table_analyzed_empty(self):
        deployment = MTCacheDeployment(cart_backend(), "shop")
        cache = deployment.add_cache_server("cache1")
        assert "cart_line" not in cache.database.statistics
        deployment.refresh_statistics()
        assert "cart_line" not in cache.database.statistics

    def test_remote_leaf_is_costed_like_a_table_without_statistics(self):
        """The backend access of a remote leaf over an empty-analyzed table
        is estimated as over a never-analyzed one: a key seek of the
        default-sized table, not a free scan of an empty one."""
        analyzed = MTCacheDeployment(cart_backend(), "shop").add_cache_server("cache1")
        never = MTCacheDeployment(
            cart_backend(analyze_empty=False), "shop"
        ).add_cache_server("cache1")
        keyed = analyzed.plan(BY_CART)
        assert ops_in(keyed, RemoteQueryOp)
        twin = never.plan(BY_CART)
        assert keyed.estimated_rows == twin.estimated_rows > 0
        assert keyed.estimated_cost == twin.estimated_cost
        assert keyed.estimated_cost < analyzed.plan(BY_QTY).estimated_cost

    def test_view_leaf_analyzed_empty_seeks_once_replication_fills_it(self):
        """A cached view snapshotted empty has no statistics; a plan
        compiled while replication had delivered one row still seeks the
        view after the other 199 arrive."""
        backend = Server("backend")
        backend.create_database("shop")
        backend.execute(CART_LINE, database="shop")
        backend.database("shop").analyze_all()
        deployment = MTCacheDeployment(backend, "shop")
        cache = deployment.add_cache_server("cache1")
        cache.create_cached_view("CREATE CACHED VIEW cv_cart AS SELECT * FROM cart_line")
        assert cache.database.statistics["cv_cart"].row_count == 0

        def deliver(lines):
            for cart, item, qty in lines:
                backend.execute(
                    "INSERT INTO cart_line (cart, item, qty) VALUES (@c, @i, @q)",
                    params={"c": cart, "i": item, "q": qty},
                    database="shop",
                )
            deployment.sync()

        deliver(LINES[:1])
        assert len(cache.execute(BY_CART, params={"c": 1}).rows) == 1
        deliver(LINES[1:])
        assert len(cache.database.storage_table("cv_cart")) == len(LINES)
        assert len(cache.execute(BY_CART, params={"c": 2}).rows) == 5

        (planned,) = [
            planned
            for _, planned in cache.server._plan_cache.values()
            if planned.schema.names == ["item", "qty"]
        ]
        assert not planned.uses_remote
        seeks = ops_in(planned, IndexSeekOp)
        assert seeks and seeks[0].table_name == "cv_cart"
        assert not ops_in(planned, SeqScanOp)
