"""Replication pipeline tests: articles, log reader, distributor, apply."""

import pytest

from repro import MTCacheDeployment

from tests.conftest import make_shop_backend


@pytest.fixture
def env():
    backend = make_shop_backend(customers=50, orders=100)
    deployment = MTCacheDeployment(backend, "shop")
    cache = deployment.add_cache_server("cache1")
    cache.create_cached_view(
        "CREATE CACHED VIEW vcust AS "
        "SELECT cid, cname, segment FROM customer WHERE cid <= 30"
    )
    return backend, deployment, cache


def view_rows(cache, sql="SELECT cid, cname, segment FROM vcust ORDER BY cid"):
    return cache.execute(sql).rows


class TestSnapshot:
    def test_initial_population(self, env):
        backend, deployment, cache = env
        rows = view_rows(cache)
        assert len(rows) == 30
        assert rows[0] == (1, "cust1", "base")

    def test_projection_applied(self, env):
        _, _, cache = env
        schema = cache.execute("SELECT * FROM vcust").schema
        assert schema.names == ["cid", "cname", "segment"]


class TestChangePropagation:
    def test_insert_outside_article_ignored(self, env):
        backend, deployment, cache = env
        backend.execute(
            "INSERT INTO customer VALUES (300, 'outside', 'a', 'gold')", database="shop"
        )
        deployment.sync()
        # Row 300 is outside the article predicate: view unchanged.
        assert len(view_rows(cache)) == 30

    def test_insert_matching_row_arrives(self, env):
        backend, deployment, cache = env
        backend.execute("DELETE FROM orders WHERE o_cid = 13", database="shop")
        backend.execute("DELETE FROM customer WHERE cid = 13", database="shop")
        deployment.sync()
        assert len(view_rows(cache)) == 29
        backend.execute(
            "INSERT INTO customer VALUES (13, 'back', 'a', 'base')", database="shop"
        )
        deployment.sync()
        rows = view_rows(cache)
        assert len(rows) == 30
        assert (13, "back", "base") in rows

    def test_update_inside_article(self, env):
        backend, deployment, cache = env
        backend.execute(
            "UPDATE customer SET cname = 'renamed' WHERE cid = 5", database="shop"
        )
        deployment.sync()
        assert (5, "renamed", "base") in view_rows(cache)

    def test_update_moving_row_out_of_article(self, env):
        """Key-range update: the subscriber must DELETE the row."""
        backend, deployment, cache = env
        backend.execute("DELETE FROM orders WHERE o_cid = 8", database="shop")
        backend.execute("UPDATE customer SET cid = 500 WHERE cid = 8", database="shop")
        deployment.sync()
        rows = view_rows(cache)
        assert len(rows) == 29
        assert all(row[0] != 8 for row in rows)

    def test_update_moving_row_into_article(self, env):
        backend, deployment, cache = env
        # Free up slot 30 inside the article, then move row 45 into it.
        backend.execute("DELETE FROM customer WHERE cid = 30", database="shop")
        deployment.sync()
        assert len(view_rows(cache)) == 29
        backend.execute("UPDATE customer SET cid = 30 WHERE cid = 45", database="shop")
        deployment.sync()
        rows = view_rows(cache)
        assert len(rows) == 30
        assert (30, "cust45", "gold") in rows  # 45 % 3 == 0 -> gold

    def test_delete_inside_article(self, env):
        backend, deployment, cache = env
        backend.execute("DELETE FROM orders WHERE o_cid = 3", database="shop")
        backend.execute("DELETE FROM customer WHERE cid = 3", database="shop")
        deployment.sync()
        assert len(view_rows(cache)) == 29

    def test_rolled_back_changes_never_propagate(self, env):
        backend, deployment, cache = env
        from repro.engine import Session

        session = Session()
        backend.execute("BEGIN TRANSACTION", session=session, database="shop")
        backend.execute(
            "UPDATE customer SET cname = 'phantom' WHERE cid = 2",
            session=session,
            database="shop",
        )
        backend.execute("ROLLBACK", session=session, database="shop")
        deployment.sync()
        assert (2, "cust2", "base") in view_rows(cache)

    def test_open_transaction_not_propagated_until_commit(self, env):
        backend, deployment, cache = env
        import threading

        from repro.engine import Session

        session = Session()
        backend.execute("BEGIN TRANSACTION", session=session, database="shop")
        backend.execute(
            "UPDATE customer SET cname = 'pending' WHERE cid = 2",
            session=session,
            database="shop",
        )
        deployment.sync()
        # Read the cache from its own thread: the writer holds the
        # backend latch for the transaction's span, and a single thread
        # must not nest a second database's latch under it (the lock
        # witness flags it). A cache reader is a separate client anyway.
        mid_transaction: list = []
        reader = threading.Thread(target=lambda: mid_transaction.append(view_rows(cache)))
        reader.start()
        reader.join()
        assert (2, "cust2", "base") in mid_transaction[0]
        backend.execute("COMMIT", session=session, database="shop")
        deployment.sync()
        assert (2, "pending", "base") in view_rows(cache)

    def test_transactional_batching_is_atomic_per_commit(self, env):
        backend, deployment, cache = env
        from repro.engine import Session

        session = Session()
        backend.execute("BEGIN TRANSACTION", session=session, database="shop")
        for cid in (10, 11, 12):
            backend.execute(
                f"UPDATE customer SET segment = 'vip' WHERE cid = {cid}",
                session=session,
                database="shop",
            )
        backend.execute("COMMIT", session=session, database="shop")
        deployment.sync()
        vips = [row for row in view_rows(cache) if row[2] == "vip"]
        assert len(vips) == 3


class TestSharedArticles:
    def test_identical_views_share_one_article(self, env):
        backend, deployment, cache = env
        cache2 = deployment.add_cache_server("cache2")
        cache2.create_cached_view(
            "CREATE CACHED VIEW vcust AS "
            "SELECT cid, cname, segment FROM customer WHERE cid <= 30"
        )
        assert len(deployment.publication.articles) == 1
        assert [list(c.subscriptions) for c in (cache, cache2)] == [["vcust"], ["vcust"]]
        assert cache.subscriptions["vcust"].article is cache2.subscriptions["vcust"].article

    def test_second_subscriber_receives_changes(self, env):
        backend, deployment, cache = env
        cache2 = deployment.add_cache_server("cache2")
        cache2.create_cached_view(
            "CREATE CACHED VIEW vcust AS "
            "SELECT cid, cname, segment FROM customer WHERE cid <= 30"
        )
        backend.execute(
            "UPDATE customer SET cname = 'both' WHERE cid = 4", database="shop"
        )
        deployment.sync()
        assert (4, "both", "base") in view_rows(cache)
        assert (4, "both", "base") in view_rows(cache2)


class TestDistributionDatabase:
    def test_cleanup_purges_consumed(self, env):
        backend, deployment, cache = env
        backend.execute(
            "UPDATE customer SET cname = 'tmp' WHERE cid = 6", database="shop"
        )
        deployment.sync()
        assert len(deployment.distributor.distribution_db) == 0

    def test_unconsumed_commands_retained(self, env):
        backend, deployment, cache = env
        backend.execute(
            "UPDATE customer SET cname = 'tmp' WHERE cid = 6", database="shop"
        )
        deployment.log_reader.poll()
        assert len(deployment.distributor.distribution_db) == 1


class TestOverheadCounters:
    def test_log_reader_counters(self, env):
        backend, deployment, cache = env
        before = deployment.log_reader.commands_produced
        backend.execute(
            "UPDATE customer SET cname = 'c' WHERE cid = 7", database="shop"
        )
        deployment.sync()
        assert deployment.log_reader.commands_produced == before + 1

    def test_disabled_log_reader_produces_nothing(self, env):
        backend, deployment, cache = env
        deployment.set_log_reader_enabled(False)
        backend.execute(
            "UPDATE customer SET cname = 'c' WHERE cid = 7", database="shop"
        )
        deployment.sync()
        assert (7, "cust7", "base") in view_rows(cache)
        deployment.set_log_reader_enabled(True)
        deployment.sync()
        assert (7, "c", "base") in view_rows(cache)
