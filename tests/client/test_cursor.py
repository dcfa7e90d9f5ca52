"""DBAPI facade: Connection/Cursor semantics over every target kind."""

from __future__ import annotations

import pytest

from repro.client import Connection, Cursor, connect
from repro.errors import ClientError, TransactionError


@pytest.fixture
def connection(backend):
    return connect(backend, database="shop")


def test_connect_returns_connection(backend):
    connection = connect(backend, database="shop")
    assert isinstance(connection, Connection)
    assert connection.database == "shop"
    assert not connection.closed


def test_cursor_fetchall(connection):
    cursor = connection.cursor()
    assert isinstance(cursor, Cursor)
    cursor.execute("SELECT cid, cname FROM customer WHERE cid <= 3 ORDER BY cid")
    rows = cursor.fetchall()
    assert [row[0] for row in rows] == [1, 2, 3]
    # The cursor is exhausted afterwards.
    assert cursor.fetchall() == []
    assert cursor.fetchone() is None


def test_cursor_fetchone_walks_rows(connection):
    cursor = connection.cursor()
    cursor.execute("SELECT cid FROM customer WHERE cid <= 2 ORDER BY cid")
    assert cursor.fetchone() == (1,)
    assert cursor.fetchone() == (2,)
    assert cursor.fetchone() is None


def test_cursor_fetchmany_and_arraysize(connection):
    cursor = connection.cursor()
    cursor.execute("SELECT cid FROM customer WHERE cid <= 5 ORDER BY cid")
    assert cursor.fetchmany(2) == [(1,), (2,)]
    # Default size is arraysize (1).
    assert cursor.fetchmany() == [(3,)]
    cursor.arraysize = 2
    assert cursor.fetchmany() == [(4,), (5,)]
    assert cursor.fetchmany() == []


def test_cursor_iteration(connection):
    cursor = connection.cursor()
    cursor.execute("SELECT cid FROM customer WHERE cid <= 4 ORDER BY cid")
    assert [row[0] for row in cursor] == [1, 2, 3, 4]


def test_cursor_description(connection):
    cursor = connection.cursor()
    cursor.execute("SELECT cid, cname FROM customer WHERE cid = 1")
    names = [entry[0] for entry in cursor.description]
    assert names == ["cid", "cname"]
    for entry in cursor.description:
        assert len(entry) == 7


def test_rowcount_lifecycle(connection):
    cursor = connection.cursor()
    assert cursor.rowcount == -1
    cursor.execute("UPDATE customer SET segment = 'gold' WHERE cid <= 5")
    assert cursor.rowcount == 5


def test_execute_returns_cursor_for_chaining(connection):
    row = (
        connection.cursor()
        .execute("SELECT cname FROM customer WHERE cid = @cid", {"cid": 7})
        .fetchone()
    )
    assert row == ("cust7",)


def test_mappings(connection):
    cursor = connection.cursor()
    cursor.execute("SELECT cid, cname FROM customer WHERE cid <= 2 ORDER BY cid")
    assert cursor.mappings() == [
        {"cid": 1, "cname": "cust1"},
        {"cid": 2, "cname": "cust2"},
    ]


def test_executemany(connection):
    cursor = connection.cursor()
    cursor.executemany(
        "UPDATE customer SET segment = @seg WHERE cid = @cid",
        [{"seg": "a", "cid": 1}, {"seg": "b", "cid": 2}],
    )
    check = connection.cursor()
    check.execute("SELECT segment FROM customer WHERE cid <= 2 ORDER BY cid")
    assert check.fetchall() == [("a",), ("b",)]


def test_commit_persists_and_rollback_undoes(connection, backend):
    connection.begin()
    connection.cursor().execute("UPDATE customer SET cname = 'X' WHERE cid = 1")
    connection.commit()
    assert (
        backend.execute(
            "SELECT cname FROM customer WHERE cid = 1", database="shop"
        ).scalar
        == "X"
    )

    connection.begin()
    connection.cursor().execute("UPDATE customer SET cname = 'Y' WHERE cid = 1")
    connection.rollback()
    assert (
        backend.execute(
            "SELECT cname FROM customer WHERE cid = 1", database="shop"
        ).scalar
        == "X"
    )


def test_commit_without_transaction_is_noop(connection):
    connection.commit()  # DBAPI autocommit-compatible: no error
    connection.rollback()


def test_close_rolls_back_open_transaction(backend):
    connection = connect(backend, database="shop")
    connection.begin()
    connection.cursor().execute("UPDATE customer SET cname = 'gone' WHERE cid = 1")
    connection.close()
    # The latch was released and the change undone: other sessions can
    # read the original value without blocking.
    assert (
        backend.execute(
            "SELECT cname FROM customer WHERE cid = 1", database="shop"
        ).scalar
        == "cust1"
    )


def test_closed_connection_rejects_use(connection):
    cursor = connection.cursor()
    connection.close()
    with pytest.raises(ClientError):
        connection.cursor()
    with pytest.raises(ClientError):
        cursor.execute("SELECT 1 AS one")


def test_closed_cursor_rejects_execute(connection):
    cursor = connection.cursor()
    cursor.close()
    with pytest.raises(ClientError):
        cursor.execute("SELECT 1 AS one")


def test_cursor_before_execute_rejects_fetch(connection):
    cursor = connection.cursor()
    with pytest.raises(ClientError):
        cursor.fetchall()
    assert cursor.description is None


def test_context_managers(backend):
    with connect(backend, database="shop") as connection:
        with connection.cursor() as cursor:
            cursor.execute("SELECT cid FROM customer WHERE cid = 1")
            assert cursor.fetchone() == (1,)
        assert cursor.closed
    assert connection.closed


def test_double_begin_rejected_through_client(connection):
    connection.begin()
    with pytest.raises(TransactionError):
        connection.begin()
    connection.rollback()


def test_deprecated_execute_shim_returns_result(connection):
    """The shim is gone; the raw Result is the cursor's ``result``."""
    assert not hasattr(connection, "execute")
    result = connection.cursor().execute("SELECT cid FROM customer WHERE cid = 1").result
    assert result.rows == [(1,)]


def test_connection_against_cache_server(cache):
    """The same facade speaks to a CacheServer (no database kwarg)."""
    connection = connect(cache)
    cursor = connection.cursor()
    cursor.execute("SELECT cname FROM Cust1000 WHERE cid = @cid", {"cid": 5})
    assert cursor.fetchone() == ("cust5",)
    assert connection.healthy()


def test_healthy_tracks_server_availability(backend):
    connection = connect(backend, database="shop")
    assert connection.healthy()
    backend.crash()
    assert not connection.healthy()
    backend.restart()
    assert connection.healthy()


def test_result_is_iterable(connection):
    """Satellite: raw Result supports iteration, len() and mappings()."""
    result = connection.cursor().execute(
        "SELECT cid, cname FROM customer WHERE cid <= 2 ORDER BY cid"
    ).result
    assert len(result) == 2
    assert [row[0] for row in result] == [1, 2]
    assert result.mappings() == [
        {"cid": 1, "cname": "cust1"},
        {"cid": 2, "cname": "cust2"},
    ]
